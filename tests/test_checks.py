import functools
import json
import math
import os
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from padicharm.checks import (
    _cpicong_hits,
    _exact_H_valuations,
    _harm_window_hits,
    _harmonic_numbers,
    _le_3x_0835,
    _le_cpi_bound,
    _lt_harm_bound,
    _lt_p_0835,
    _p59_g_decimal,
    _p59_g_float,
    check_corollary_2adic,
    check_cpicong,
    check_harm_count_suite,
    check_integral_scan,
    check_lengyel_identity,
    check_p59_exponent,
    check_structural_identities,
    check_ubound,
    monitor_lower_bound,
)
from padicharm import checks
from padicharm.core import ArgumentError, a_p_set, a_p_set_by_filter, bp_count, free_p, vp_int
from padicharm.expansion import ExpansionVerdict, h_p_mod
from padicharm.core import ilog, structure_constants, to_digits, vp
from padicharm.report import CheckReport
from padicharm.tree import build_tree
from padicharm.valuation import exact_H_table, vp_H_sweep


def test_exact_threshold_helpers():
    # 3 * 64^0.835 is about 96.67
    assert _le_3x_0835(96, 64) and not _le_3x_0835(97, 64)
    # 3^0.835 is about 2.5
    assert _lt_p_0835(2, 3) and not _lt_p_0835(3, 3)
    # 1.5 * 4^(2/3) + 1 is about 4.78
    assert _lt_harm_bound(4, 4) and not _lt_harm_bound(5, 4)
    # 3 * (9/2)^(2/3) + 2 is about 10.18 at p = 11
    assert _le_cpi_bound(10, 11) and not _le_cpi_bound(11, 11)


@pytest.fixture
def suite(monkeypatch):
    """suite(name=value, ...) sets the structural suite's size _NAME in
    checks for this test, so check_structural_identities runs at it."""
    def use(**sizes):
        for name, value in sizes.items():
            monkeypatch.setattr(checks, f"_{name.upper()}", value)
    return use


def test_structural_identities_small(suite):
    suite(p_set=(2, 3), legendre_n_max=500, slice_n_max=200, k_max=40, layer_n_max=60)
    report = check_structural_identities()
    assert report.passed, report.witness
    assert report.observed["harmonic-stirling-ratio"] == 78
    assert report.observed["valuation-layer-sum"] > 0


def _drop_one_member(kernel, at):
    def patched(n, v, p):
        out = kernel(n, v, p)
        return out[:-1] if (n, v, p) == at else out
    return patched


_SMALL_SUITE = dict(
    p_set=(2, 3), legendre_n_max=50, slice_n_max=200, k_max=10, layer_n_max=20
)


# (n, v, p): the first comparison, a middle slice, the last n, the top slice
@pytest.mark.parametrize("at", [(1, 0, 2), (37, 2, 3), (200, 7, 2), (130, 1, 5)], ids=str)
def test_structural_check_catches_a_wrong_slice(monkeypatch, suite, at):
    # the slice reference grows one integer per n; a single dropped member
    # anywhere must still be a valuation-slice failure at that (n, v, p)
    monkeypatch.setattr(checks, "a_p_set", _drop_one_member(a_p_set, at))
    suite(**_SMALL_SUITE, slice_p_set=(2, 3, 5))
    report = check_structural_identities()
    assert not report.passed
    n, v, p = at
    assert report.witness == {"identity": "valuation-slice", "n": n, "v": v, "p": p}


@pytest.mark.parametrize("at", [(1, 0, 2), (37, 3, 3), (200, 7, 2), (130, 3, 5)], ids=str)
def test_structural_check_catches_a_wrong_filter_slice(monkeypatch, suite, at):
    # the standalone filter is compared on the top slice v = s only
    monkeypatch.setattr(checks, "a_p_set_by_filter", _drop_one_member(a_p_set_by_filter, at))
    suite(**_SMALL_SUITE, slice_p_set=(2, 3, 5))
    report = check_structural_identities()
    assert not report.passed
    n, v, p = at
    assert report.witness == {"identity": "valuation-slice-filter", "n": n, "v": v, "p": p}


# (p, prefix digits, first n with that prefix and its slice v); every
# prefix is shared by several n <= 40, and h_p_mod reads it as its int
@pytest.mark.parametrize("p, digits, n, v", [
    (2, (1, 0, 1), 5, 1),
    (2, (1, 1, 0, 1), 13, 2),
    (3, (1, 0, 1), 10, 1),
], ids=str)
def test_structural_check_catches_a_wrong_layer_sum(monkeypatch, suite, p, digits, n, v):
    # h_p_mod is computed once per prefix; a wrong value at one prefix must
    # still fail at the first n that reads it
    def patched(prefix, k, p, M):
        real = h_p_mod(prefix, k, p, M)
        return real + 1 if to_digits(prefix, p) == digits else real

    monkeypatch.setattr(checks, "h_p_mod", patched)
    suite(**{**_SMALL_SUITE, "layer_n_max": 40}, layer_p_set=(p,), layer_k_set=(2,))
    report = check_structural_identities()
    assert not report.passed
    real = h_p_mod(n // p ** (len(to_digits(n, p)) - len(digits)), 2, p, 9)
    assert report.witness == {
        "identity": "valuation-layer-sum", "n": n, "k": 2, "p": p, "v": v,
        "tuple_sum": real, "h_p": real + 1,
    }


# The suite's sections split over two processes: the p = 2 and p = 3
# slice sweeps run in a forked child, the rest in the caller.  Each report
# below was recorded from the serial suite with the same injected fault:
# observed holds only the sections before the first failure.
_SPLIT_SUITE = {**_SMALL_SUITE, "layer_n_max": 40, "slice_p_set": (2, 3, 5)}
_RATIO = {"harmonic-stirling-ratio": 78}
_LEGENDRE = {**_RATIO, "legendre-factorial": 102}
_SLICES = {**_LEGENDRE, "valuation-slice": 2885}
_TELESCOPING = {**_SLICES, "block-telescoping": 54}


def _off_by_one_at(kernel, at):
    def patched(*args):
        return kernel(*args) + (args == at)
    return patched


def _extra_top_valuation_at(at):
    real = checks._jp_layer_sums

    def patched(n_max, k, p, M):
        for n, row, occ in real(n_max, k, p, M):
            yield n, row, occ + [True] if (n, k, p) == at else occ
    return patched


def _raise_at(kernel, at, exc):
    def patched(*args):
        if args[: len(at)] == at:
            raise exc
        return kernel(*args)
    return patched


_INJECTED = {
    "ratio": ({"stirling": _off_by_one_at(checks.stirling, (8, 4))}, {}, {},
              {"identity": "harmonic-stirling-ratio", "n": 7, "k": 3}),
    "legendre": ({"vp_factorial": _off_by_one_at(checks.vp_factorial, (37, 3))}, {}, _RATIO,
                 {"identity": "legendre-factorial", "n": 37, "p": 3}),
    "slice-2": ({"a_p_set": _drop_one_member(a_p_set, (200, 7, 2))}, {}, _LEGENDRE,
                {"identity": "valuation-slice", "n": 200, "v": 7, "p": 2}),
    "slice-3": ({"a_p_set": _drop_one_member(a_p_set, (37, 2, 3))}, {}, _LEGENDRE,
                {"identity": "valuation-slice", "n": 37, "v": 2, "p": 3}),
    "slice-5": ({"a_p_set": _drop_one_member(a_p_set, (130, 1, 5))}, {}, _LEGENDRE,
                {"identity": "valuation-slice", "n": 130, "v": 1, "p": 5}),
    "filter-3": ({"a_p_set_by_filter": _drop_one_member(a_p_set_by_filter, (37, 3, 3))}, {},
                 _LEGENDRE, {"identity": "valuation-slice-filter", "n": 37, "v": 3, "p": 3}),
    "filter-5": ({"a_p_set_by_filter": _drop_one_member(a_p_set_by_filter, (130, 3, 5))}, {},
                 _LEGENDRE, {"identity": "valuation-slice-filter", "n": 130, "v": 3, "p": 5}),
    "telescoping": ({"bp_count": lambda n, p: bp_count(n, p) + ((p, to_digits(n, p)) == (3, (2, 1)))},
                    {}, _SLICES, {"identity": "block-telescoping", "k": 8, "p": 3}),
    # top-slice counts read a_p_set at n = 73, past this run's slice sweeps
    "top-slice": ({"a_p_set": _drop_one_member(a_p_set, (73, 1, 3))}, {"slice_n_max": 60},
                  {**_LEGENDRE, "valuation-slice": 659},
                  {"identity": "top-slice-count", "k": 9, "p": 3, "n": 73}),
    "max-valuation": ({"_jp_layer_sums": _extra_top_valuation_at((20, 3, 3))}, {}, _TELESCOPING,
                      {"identity": "max-valuation", "n": 20, "k": 3, "p": 3, "observed": 13}),
    "layer-sum": (
        {"h_p_mod": lambda n, k, p, M: h_p_mod(n, k, p, M) + (to_digits(n, p) == (1, 1, 0, 1))},
        {}, _TELESCOPING,
        {"identity": "valuation-layer-sum", "n": 13, "k": 2, "p": 2, "v": 2,
         "tuple_sum": 285, "h_p": 286}),
}


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("fork_fails", [False, True], ids=["forked", "fork-fails"])
@pytest.mark.parametrize("case", list(_INJECTED))
def test_structural_failure_report_is_the_serial_one(monkeypatch, suite, case, fork_fails):
    patches, extra, observed, witness = _INJECTED[case]
    for name, fn in patches.items():
        monkeypatch.setattr(checks, name, fn)
    if fork_fails:
        monkeypatch.setattr(os, "fork", _raise_at(os.fork, (), OSError("no fork")))
    suite(**{**_SPLIT_SUITE, **extra})
    report = check_structural_identities()
    assert (report.passed, report.observed, report.witness) == (False, observed, witness)
    _assert_no_child_left()


@pytest.mark.parametrize("fork_fails", [False, True], ids=["forked", "fork-fails"])
def test_structural_passing_report_is_the_serial_one(monkeypatch, suite, fork_fails):
    if fork_fails:
        monkeypatch.setattr(os, "fork", _raise_at(os.fork, (), OSError("no fork")))
    suite(**_SPLIT_SUITE)
    report = check_structural_identities()
    assert report.passed and report.witness is None
    assert report.observed == {**_TELESCOPING, "valuation-layer-sum": 297}
    _assert_no_child_left()


def test_structural_slices_of_all_but_the_last_prime_run_in_a_child(monkeypatch, suite,
                                                                    tmp_path):
    log = tmp_path / "pids"
    real = checks._slice_section

    def logged(p, n_max):
        with open(log, "a") as fh:
            fh.write(f"{p} {os.getpid()}\n")
        return real(p, n_max)

    monkeypatch.setattr(checks, "_slice_section", logged)
    suite(**_SPLIT_SUITE)
    assert check_structural_identities().passed
    pids = dict(map(int, line.split()) for line in log.read_text().splitlines())
    assert pids[5] == os.getpid()
    assert pids[2] == pids[3] != os.getpid()
    _assert_no_child_left()


# (slice_p_set, where p = 4 runs): alone, in the child, in the caller;
# the slice sweep refuses it wherever it runs, and the serial re-run raises
@pytest.mark.parametrize("slice_p_set", [(4,), (4, 5), (2, 3, 4)], ids=str)
def test_structural_check_rejects_a_composite_slice_modulus(suite, slice_p_set):
    suite(**{**_SPLIT_SUITE, "slice_p_set": slice_p_set})
    with pytest.raises(ArgumentError, match=r"^p must be prime, got 4$"):
        check_structural_identities()
    _assert_no_child_left()


def test_structural_child_exception_keeps_its_type_and_message(monkeypatch, suite):
    suite(**_SPLIT_SUITE)
    monkeypatch.setattr(checks, "a_p_set", _raise_at(
        a_p_set, (37, 2, 3), ZeroDivisionError("injected at (37, 2, 3)")))
    with pytest.raises(ZeroDivisionError, match=r"^injected at \(37, 2, 3\)$"):
        check_structural_identities()
    _assert_no_child_left()


def test_structural_child_exception_of_an_unnamed_class_is_the_serial_one(monkeypatch, suite):
    # nothing crosses the pipe but counts: the serial re-run raises the
    # exception itself, whatever its class
    suite(**_SPLIT_SUITE)

    class Local(Exception):
        pass

    boom = Local("boom")
    monkeypatch.setattr(checks, "a_p_set", _raise_at(a_p_set, (37, 2, 3), boom))
    with pytest.raises(Local) as info:
        check_structural_identities()
    assert info.value is boom
    _assert_no_child_left()


@pytest.mark.parametrize("case, calls", [(None, 1), ("slice-2", 2)], ids=["passing", "slice-2"])
def test_structural_failure_alone_pays_for_a_serial_re_run(monkeypatch, suite, case, calls):
    # Legendre runs in the caller, before the slices in report order: once
    # in a passing split run, and again in the serial re-run after the
    # child's p = 2 failure
    expected = (True, {**_TELESCOPING, "valuation-layer-sum": 297}, None)
    if case is not None:
        patches, _, observed, witness = _INJECTED[case]
        for name, fn in patches.items():
            monkeypatch.setattr(checks, name, fn)
        expected = (False, observed, witness)
    pids = []
    real = checks._legendre_section

    def counted(*args):
        pids.append(os.getpid())
        return real(*args)

    monkeypatch.setattr(checks, "_legendre_section", counted)
    suite(**_SPLIT_SUITE)
    report = check_structural_identities()
    assert (report.passed, report.observed, report.witness) == expected
    assert pids == [os.getpid()] * calls
    _assert_no_child_left()


@pytest.mark.parametrize("early", [False, True], ids=["after-the-child", "before-the-child"])
def test_structural_caller_exception_stops_the_child(monkeypatch, suite, early):
    suite(**_SPLIT_SUITE)
    if early:  # Legendre runs before the child's sections in report order
        monkeypatch.setattr(checks, "vp_factorial", _raise_at(
            checks.vp_factorial, (37, 3), KeyError("vp_factorial")))
    else:
        monkeypatch.setattr(checks, "h_p_mod", _raise_at(h_p_mod, (), KeyError("h_p_mod")))
    with pytest.raises(KeyError):
        check_structural_identities()
    _assert_no_child_left()


_LATER_FAULTS = {
    # a child failure at p = 2 comes before the caller's layer exception
    "child-failure-first": (
        {"a_p_set": _drop_one_member(a_p_set, (200, 7, 2)),
         "h_p_mod": _raise_at(h_p_mod, (), KeyError("h_p_mod"))},
        (_LEGENDRE, {"identity": "valuation-slice", "n": 200, "v": 7, "p": 2})),
    # a caller failure in Legendre comes before the child's exception
    "caller-failure-first": (
        {"a_p_set": _raise_at(a_p_set, (37, 2, 3), ZeroDivisionError("p = 3")),
         "vp_factorial": _off_by_one_at(checks.vp_factorial, (37, 3))},
        (_RATIO, {"identity": "legendre-factorial", "n": 37, "p": 3})),
    # a child exception at p = 3 comes before the caller's p = 5 failure
    "child-exception-first": (
        {"a_p_set": _raise_at(_drop_one_member(a_p_set, (130, 1, 5)), (37, 2, 3),
                              ZeroDivisionError("p = 3"))},
        ZeroDivisionError),
}


@pytest.mark.parametrize("case", list(_LATER_FAULTS))
def test_structural_later_fault_of_either_process_is_discarded(monkeypatch, suite, case):
    suite(**_SPLIT_SUITE)
    patches, expected = _LATER_FAULTS[case]
    for name, fn in patches.items():
        monkeypatch.setattr(checks, name, fn)
    if expected is ZeroDivisionError:
        with pytest.raises(ZeroDivisionError, match="^p = 3$"):
            check_structural_identities()
    else:
        report = check_structural_identities()
        assert (report.observed, report.witness) == expected
    _assert_no_child_left()


def test_layer_sums_against_naive_enumeration():
    # the incremental enumerator must agree with a from-scratch tuple scan
    p, k, M = 2, 2, 8
    mod = p ** M
    for n in (8, 11, 14):
        sc = structure_constants(k, p)
        s = len(to_digits(n, p)) - 1
        buckets = {}
        for combo in combinations(range(1, n + 1), k):
            u = sum(vp_int(i, p) for i in combo)
            inv = pow(math.prod(free_p(i, p) for i in combo), -1, mod)
            buckets[u] = (buckets.get(u, 0) + inv) % mod
        v_max = max(buckets)
        assert v_max == k * s - sc.U
        for v in range(s - sc.t):
            assert buckets[v_max - v] == h_p_mod(n // p ** (s - sc.t - v - 1), k, p, M)


def test_lengyel_identity():
    report = check_lengyel_identity(6)
    assert report.passed
    assert report.observed == {"2": 0, "3": -2, "4": -4, "5": -6, "6": -8}
    with pytest.raises(ValueError):
        check_lengyel_identity(1)


@pytest.mark.parametrize("n_max, expected", [(3, [(1, 1), (3, 2)]), (10, [(1, 1), (3, 2)]), (40, [(1, 1), (3, 2)])])
def test_integral_scan(n_max, expected):
    report = check_integral_scan(n_max)
    assert report.passed
    assert report.observed["integral_pairs"] == expected


def test_corollary_2adic_seeded():
    report = check_corollary_2adic(S=10, sample_count=150, seed=11)
    assert report.passed, report.witness
    assert report.observed["matched"] >= 10  # prefix cases are always included
    assert report.observed["mismatched"] > 100
    assert report.observed["exact_crossed"] > 20


def test_corollary_2adic_fails_on_a_record_off_by_one(monkeypatch):
    # The check's samples run through the leaves f_sequence records, so
    # their verdicts are read from the depth u, vp(sigma), that the length
    # of the recorded prefix gives.  With no exact cross at all, records
    # one digit short, each leaf's parent in place of the leaf, must still
    # fail the check.
    from padicharm.expansion import _DECIDED, vp_H_expansion

    monkeypatch.setattr(checks, "DEFAULT_EXACT_CAP", 1)
    assert check_corollary_2adic(S=14, sample_count=50, seed=0).passed
    assert vp_H_expansion.cache_info().hits > 0
    vp_H_expansion.cache_clear()
    record = _DECIDED.record
    monkeypatch.setattr(_DECIDED, "record",
                        lambda keys: record((k, p, leaf // p) for k, p, leaf in keys))
    report = check_corollary_2adic(S=14, sample_count=50, seed=0)
    assert not report.passed
    assert report.witness["exact"] is None
    # the witness runs through the chain's depth-1 node <1,1>, the first
    # such record, read as a leaf under the root: u = 0, U = 1
    assert report.witness["digits"][:2] == [1, 1] and report.witness["first_mismatch"] > 1
    s = len(report.witness["digits"]) - 1
    assert report.witness["verdict"] == str(ExpansionVerdict(exact_valuation=1 - 2 * s))


def test_corollary_2adic_handpicked_cases():
    # n = 4 mismatches at r = 1 with s = 2, n = 6 matches through s = 2
    report = check_corollary_2adic(S=2, sample_count=0, seed=0)
    assert report.passed


def test_harmonic_numbers_match_a_running_sum():
    brute = [Fraction(0)]
    for i in range(1, 301):
        brute.append(brute[-1] + Fraction(1, i))
    assert _harmonic_numbers(300) == brute
    assert _harmonic_numbers(0) == [Fraction(0)]


def test_corollary_integer_row_matches_exact_rationals():
    # the corollary's exact cross reads integer Stirling rows; the reduced
    # Fractions of exact_H_table stay the oracle
    table = exact_H_table(1024, 2)
    ns = set(range(2, 1025))
    assert _exact_H_valuations(ns, 2, 2) == {n: vp(table[n][2], 2) for n in ns}


@pytest.mark.parametrize("p, k, x", [(2, 2, 64), (3, 2, 243)])
def test_ubound_exhaustive(p, k, x):
    report = check_ubound(p, k, x)
    assert report.passed, report.witness
    assert report.observed["exceptions"] <= 3 * x ** 0.835
    assert report.observed["leaf_exits"] + report.observed["full_chain"] == report.observed["tested"]


def _ubound_report_by_digit_scan(p, k, x):
    """check_ubound's report, each n read through its digits."""
    sc = structure_constants(k, p)
    nodes = build_tree(p, k, max_depth=ilog(x, p) - sc.t + 1).node_values()
    vals = dict(vp_H_sweep(x, k, p))
    exceptions, leaf_exits, full_chain, witness = [], 0, 0, None
    for n in range((k - 1) * p, x + 1):
        d = to_digits(n, p)
        if d[:sc.t + 1] != sc.root_digits:
            continue
        s = len(d) - 1
        exit_at = next(
            (r for r in range(sc.t + 1, s + 1)
             if functools.reduce(lambda a, b: a * p + b, d[:r + 1]) not in nodes), None
        )
        holds = checks._ubound_holds(n, k, p, vals[n])
        if exit_at is not None:
            leaf_exits += 1
            if not holds:
                witness = {"n": n, "vp": vals[n], "exit_at": exit_at,
                           "reason": "leaf exit must satisfy the bound"}
                break
        else:
            full_chain += 1
            if not holds:
                exceptions.append(n)
    count_ok = _le_3x_0835(len(exceptions), x)
    if witness is None and not count_ok:
        witness = {"reason": "exception count exceeds 3x^0.835", "count": len(exceptions)}
    return CheckReport(
        claim_id="ubound",
        parameters={"p": p, "k": k, "x": x},
        observed={"tested": leaf_exits + full_chain, "leaf_exits": leaf_exits,
                  "full_chain": full_chain, "exceptions": len(exceptions)},
        bound=f"3 * {x}^0.835",
        passed=witness is None and count_ok,
        witness=witness,
    )


def _ubound_grid():
    # x at p^j - 1, p^j and p^j + 1, where the digit length of n changes;
    # k = 4 and 10 have two- and three-digit roots in base 3
    for p, ks, top in [(2, range(2, 7), 1024), (3, range(2, 7), 729), (5, range(2, 7), 625),
                       (7, range(2, 7), 343), (3, (4, 10), 2187)]:
        for k in ks:
            q = p
            while q <= top:
                for x in (q - 1, q, q + 1):
                    if x >= (k - 1) * p:
                        yield p, k, x
                q *= p


def test_ubound_equals_a_digit_string_scan():
    for p, k, x in _ubound_grid():
        want = _ubound_report_by_digit_scan(p, k, x).to_json()
        assert check_ubound(p, k, x).to_json() == want, (p, k, x)


@pytest.mark.parametrize("only_above", [False, True])
@pytest.mark.parametrize("p, k, x", [(3, 2, 243), (2, 3, 100), (5, 4, 700), (3, 10, 2187)])
def test_ubound_leaf_exit_witness_equals_a_digit_string_scan(monkeypatch, p, k, x, only_above):
    # the first leaf exit failing the bound is the witness, and its exit_at,
    # the first digit off the tree, is that of the digit scan.  When every n
    # fails, that is the first leaf, which exits at its own last digit; when
    # only n above x // p fail, it is a longer n, which at (p, k) = (3, 2)
    # and (2, 3) exits the tree digits before its last
    monkeypatch.setattr(checks, "_ubound_holds",
                        lambda n, k, p, nu: only_above and n <= x // p)
    report = check_ubound(p, k, x)
    assert report.witness["reason"] == "leaf exit must satisfy the bound"
    assert report.to_json() == _ubound_report_by_digit_scan(p, k, x).to_json()


def test_ubound_rejects_small_x():
    with pytest.raises(ValueError):
        check_ubound(3, 4, 5)


def harm_hits_by_fraction_scan(p, x, y, r):
    """Hits of vp(H_v - r) > 0 for v in [x, x+y], each H_v summed afresh."""
    diffs = {v: sum((Fraction(1, i) for i in range(1, v + 1)), Fraction(0)) - r
             for v in range(x, x + y + 1)}
    hits = [v for v, d in diffs.items() if d == 0 or vp(d, p) > 0]
    return len(hits), hits


def test_harm_count_examples():
    # H_4 = 25/12, H_6 = 49/20, H_2 = 3/2
    for p, x, y, expected in ((5, 1, 4, (1, [4])), (7, 1, 5, (1, [6])), (3, 1, 1, (1, [2]))):
        hits = _harm_window_hits(_harmonic_numbers(x + y), p, x, y, Fraction(0))
        assert hits == expected == harm_hits_by_fraction_scan(p, x, y, Fraction(0))
        assert _lt_harm_bound(hits[0], y)


def test_harm_count_suite_seeded():
    for p in (5, 7):
        report = check_harm_count_suite(p, cases=40, seed=3)
        assert report.passed, report.witness


@given(
    st.sampled_from([3, 5, 7, 11, 13]),
    st.integers(min_value=1, max_value=400),
    st.data(),
)
def test_suite_window_counts_match_a_fraction_scan(p, x, data):
    # the suite reads every window from one shared table of H_0..H_(_HARM_X_MAX+p-1)
    y = data.draw(st.integers(min_value=1, max_value=p - 1))
    r = Fraction(data.draw(st.integers(-p * p, p * p)), data.draw(st.integers(1, 4 * p)))
    shared = _harm_window_hits(_harmonic_numbers(400 + p - 1), p, x, y, r)
    assert shared == harm_hits_by_fraction_scan(p, x, y, r)


def test_cpicong_hit_examples():
    assert _cpicong_hits(3, Fraction(0), 1) == (1, [1])
    assert _cpicong_hits(5, Fraction(0), 1) == (1, [3])


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_cpicong_seeded(p):
    report = check_cpicong(p, q_samples=12, a_samples=6, seed=5)
    assert report.passed, report.witness
    assert report.observed["pairs"] == 72


def test_p59_exponent():
    report = check_p59_exponent(200)
    assert report.passed
    assert report.observed["argmax"] == 59
    assert 0.834 < report.observed["g_max"] < 0.835
    with pytest.raises(ValueError):
        check_p59_exponent(50)


def test_p59_g2_is_zero():
    # the capped term is 1 at p = 2, so the exponent vanishes
    assert _p59_g_float(2) == 0.0
    with localcontext() as ctx:
        ctx.prec = 30
        assert _p59_g_decimal(2) == 0


def _g_by_decimal(primes, digits=40):
    with localcontext() as ctx:
        ctx.prec = digits
        return {p: _p59_g_decimal(p) for p in primes}


def test_p59_floats_lie_within_the_stated_error():
    primes = checks._primes_upto(20_000)
    exact = _g_by_decimal(primes)
    worst = max(abs(Decimal(_p59_g_float(p)) - exact[p]) for p in primes)
    assert worst <= Decimal(checks._P59_FLOAT_ERR) / 64


def test_p59_screen_keeps_the_top_two_for_every_bound_to_3000():
    # the screen's input changes only at a prime, so bounds 59, 61, ...
    # stand for every prime_bound in 59..3000
    primes = checks._primes_upto(3000)
    exact = _g_by_decimal(primes)
    for i in range(primes.index(59), len(primes)):
        head = primes[: i + 1]
        top_two = sorted(head, key=lambda p: (-exact[p], p))[:2]
        survivors = checks._p59_screen(head)
        assert set(top_two) <= set(survivors), primes[i]
        assert len(survivors) < 5


def _p59_report_by_mpmath(prime_bound):
    """The p59-exponent report with every g in mpmath at 80+ bits."""
    mpmath = pytest.importorskip("mpmath")
    primes = checks._primes_upto(prime_bound)
    prec = 80
    while True:
        with mpmath.workprec(prec):
            vals = []
            for p in primes:
                cap = mpmath.mpf(-(-p // 2))
                curve = 3 * mpmath.power(mpmath.mpf(p - 2) / 2, mpmath.mpf(2) / 3) + 2
                vals.append((mpmath.log(min(cap, curve)) / mpmath.log(p), p))
            (g_top, p_top), (g_second, _) = sorted(vals, key=lambda t: (-t[0], t[1]))[:2]
            gap = g_top - g_second
        if float(gap) > 1e-6 and abs(float(g_top) - 0.835) > 1e-6:
            break
        prec *= 2
    passed = p_top == 59 and float(g_top) < 0.835
    return CheckReport(
        claim_id="p59-exponent",
        parameters={"prime_bound": prime_bound, "precision_bits": prec},
        observed={"argmax": p_top, "g_max": float(g_top), "runner_up_gap": float(gap)},
        bound=0.835,
        passed=passed,
        witness=None if passed else {"argmax": p_top, "g_max": float(g_top)},
    )


@pytest.mark.parametrize("prime_bound", [59, 60, 100, 200, 1000, 5000])
def test_p59_report_equals_an_mpmath_reference(prime_bound):
    want = _p59_report_by_mpmath(prime_bound).to_json()
    assert check_p59_exponent(prime_bound).to_json() == want


def test_monitor_lower_bound_window_monotone():
    small = monitor_lower_bound(2, 2, 128)
    large = monitor_lower_bound(2, 2, 256)
    assert small.passed and large.passed
    assert large.observed["min_slack"] <= small.observed["min_slack"]


def test_reports_serialize_stably():
    a = check_lengyel_identity(4).to_json()
    b = check_lengyel_identity(4).to_json()
    assert a == b
    parsed = json.loads(a)
    assert parsed["claim_id"] == "lengyel"
    assert parsed["passed"] is True
