"""One verification operation per desk-checkable claim.

Every check returns a CheckReport carrying its parameters, the observed
counts or values, the bound they were held against, and a witness for the
first failure.  Verdicts never hinge on floating point: thresholds with
rational exponents (x^0.835 = x^(167/200), y^(2/3)) are compared by exact
integer powers, and the one genuinely transcendental comparison (the
exponent maximum over primes) ranks the primes that a float screen with
a stated error bound cannot rule out, in the standard decimal module at
80+ bits, with a guard band that escalates precision instead of
guessing.

CHECKS names every check that `padicharm verify` runs, in order, with the
command-line flags each one reads; the command line derives its names,
flags and dispatch from that table alone.
"""

from __future__ import annotations

import functools
import json
import math
import os
import random
import signal
from dataclasses import dataclass, field
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import BinaryIO, Callable

from .core import (
    ArgumentError,
    _require_prime,
    a_p_set,
    a_p_set_by_filter,
    bp_count,
    free_p,
    ilog,
    structure_constants,
    to_digits,
    vp_factorial,
    vp_int,
)
from .expansion import h_p_mod, vp_H_expansion
from .report import CheckReport
from .tree import build_tree, f_sequence
from .valuation import (
    DEFAULT_EXACT_CAP,
    _H_rows,
    _stirling_rows,
    exact_H_table,
    integral_pairs,
    stirling,
    vp_H,
    vp_H_sweep,
)

__all__ = [
    "CHECKS",
    "Check",
    "check_structural_identities",
    "check_lengyel_identity",
    "check_integral_scan",
    "check_corollary_2adic",
    "check_ubound",
    "check_harm_count_suite",
    "check_cpicong",
    "check_p59_exponent",
    "monitor_lower_bound",
]


# ---------------------------------------------------------------------------
# exact threshold comparisons (0.835 = 167/200, powers of 2/3 cube away)

def _le_3x_0835(count: int, x: int) -> bool:
    """count <= 3 * x^0.835, exactly."""
    return count ** 200 <= 3 ** 200 * x ** 167


def _lt_p_0835(count: int, p: int) -> bool:
    """count < p^0.835, exactly (equality is impossible for prime p)."""
    return count ** 200 < p ** 167


def _lt_harm_bound(count: int, y: int) -> bool:
    """count < 1.5 * y^(2/3) + 1, exactly."""
    if count <= 1:
        return True
    return 8 * (count - 1) ** 3 < 27 * y * y


def _le_cpi_bound(count: int, p: int) -> bool:
    """count <= 3 * ((p-2)/2)^(2/3) + 2, exactly."""
    if count <= 2:
        return True
    return 4 * (count - 2) ** 3 < 27 * (p - 2) ** 2


# ---------------------------------------------------------------------------
# structural identity suite

def _jp_layer_sums(n_max: int, k: int, p: int, M: int):
    """Valuation-graded tuple sums, built one integer at a time.

    Yields, for each n, arrays indexed by total valuation u of the sums of
    inverse free parts over increasing k-tuples from [1, n] whose product
    has valuation exactly u, plus an occupancy mask.  Enumerates tuples by
    their maximum element, so the whole sweep costs O(n_max * k * u_max)
    and never touches the block machinery it is checking against.
    """
    mod = p ** M
    u_max = k * (ilog(n_max, p) + 1)
    sums = [[0] * (u_max + 1) for _ in range(k + 1)]
    occupied = [[False] * (u_max + 1) for _ in range(k + 1)]
    occupied[0][0] = True
    sums[0][0] = 1
    for m in range(1, n_max + 1):
        vm = vp_int(m, p)
        inv = pow(free_p(m, p), -1, mod)
        for j in range(k, 0, -1):
            for u in range(u_max - vm, -1, -1):
                if occupied[j - 1][u]:
                    sums[j][u + vm] = (sums[j][u + vm] + sums[j - 1][u] * inv) % mod
                    occupied[j][u + vm] = True
        yield m, sums[k], occupied[k]


# Each section of the suite returns (comparisons made, witness of its
# first failure or None); check_structural_identities merges them in
# report order.

def _ratio_section(n_max: int) -> tuple[int, dict | None]:
    """H(n, k) * n! = s(n+1, k+1): the exact Fraction row against the
    exact Stirling row."""
    checked = 0
    table = exact_H_table(n_max, n_max)
    for n in range(1, n_max + 1):
        nf = math.factorial(n)
        for k in range(1, n + 1):
            if table[n][k] * nf != stirling(n + 1, k + 1):
                return checked, {"identity": "harmonic-stirling-ratio", "n": n, "k": k}
            checked += 1
    return checked, None


def _legendre_section(p_set: tuple[int, ...], n_max: int) -> tuple[int, dict | None]:
    """Legendre's digit formula vs the floor sum."""
    checked = 0
    for p in p_set:
        for n in range(n_max + 1):
            floor_sum, q = 0, p
            while q <= n:
                floor_sum += n // q
                q *= p
            if vp_factorial(n, p) != floor_sum:
                return checked, {"identity": "legendre-factorial", "n": n, "p": p}
            checked += 1
    return checked, None


def _slice_section(p: int, n_max: int) -> tuple[int, dict | None]:
    """Fixed-valuation slices of one prime: block formula vs direct filter.

    The reference is [1, n] bucketed by vp_int; the buckets grow by one
    integer per n, so each m is bucketed once, before the comparisons for
    every n >= m.
    """
    checked = 0
    buckets: dict[int, list[int]] = {}
    for n in range(1, n_max + 1):
        buckets.setdefault(vp_int(n, p), []).append(n)
        s = ilog(n, p)
        for v in range(s + 1):
            if a_p_set(n, v, p) != buckets.get(s - v, []):
                return checked, {"identity": "valuation-slice", "n": n, "v": v, "p": p}
            checked += 1
        # spot-check the standalone filter on the top slice
        if a_p_set_by_filter(n, s, p) != buckets.get(0, []):
            return checked, {"identity": "valuation-slice-filter", "n": n, "v": s, "p": p}
    return checked, None


def _telescoping_section(p_set: tuple[int, ...], k_max: int) -> tuple[int, dict | None]:
    """Block telescoping to k - 1, and the top-slice count k - 1."""
    checked = 0
    for p in p_set:
        for k in range(2, k_max + 1):
            sc = structure_constants(k, p)
            total = sum(bp_count((k - 1) // p ** (sc.t - v), p) for v in range(sc.t + 1))
            if total != k - 1:
                return checked, {"identity": "block-telescoping", "k": k, "p": p}
            checked += 1
            # top-slice count on digit extensions of the root
            for extra in ((k - 1) * p, (k - 1) * p * p + 1):
                union: set[int] = set()
                for v in range(sc.t + 1):
                    union.update(a_p_set(extra, v, p))
                if len(union) != k - 1:
                    return checked, {"identity": "top-slice-count", "k": k, "p": p, "n": extra}
                checked += 1
    return checked, None


def _layer_section(
    p_set: tuple[int, ...], k_set: tuple[int, ...], n_max: int, prec: int
) -> tuple[int, dict | None]:
    """Graded tuple sums vs h_p_mod, and the max valuation k*s - U.

    Many n share a prefix, so h_p_mod runs once per distinct prefix.
    """
    checked = 0
    for p in p_set:
        for k in k_set:
            sc = structure_constants(k, p)
            h_p_by_prefix: dict[int, int] = {}
            for n, row, occ in _jp_layer_sums(n_max, k, p, prec):
                s = ilog(n, p)
                if s < sc.t + 1 or n // p ** (s - sc.t) != k - 1:
                    continue
                v_obs = max(u for u in range(len(occ)) if occ[u])
                if v_obs != k * s - sc.U:
                    return checked, {
                        "identity": "max-valuation", "n": n, "k": k, "p": p, "observed": v_obs,
                    }
                for v in range(s - sc.t):
                    prefix = n // p ** (s - sc.t - v - 1)
                    expected = h_p_by_prefix.get(prefix)
                    if expected is None:
                        expected = h_p_mod(prefix, k, p, prec)
                        h_p_by_prefix[prefix] = expected
                    if row[v_obs - v] != expected:
                        return checked, {
                            "identity": "valuation-layer-sum",
                            "n": n,
                            "k": k,
                            "p": p,
                            "v": v,
                            "tuple_sum": row[v_obs - v],
                            "h_p": expected,
                        }
                    checked += 1
    return checked, None


def _in_report_order(groups: dict[str, list], run: list) -> tuple[dict[str, int], dict | None]:
    """Calls the sections of groups that are in run, in report order: each
    key's checked total before the first failure, and its witness or None."""
    observed: dict[str, int] = {}
    for key, sections in groups.items():
        total = 0
        for section in sections:
            if section in run:
                checked, witness = section()
                if witness is not None:
                    return observed, witness
                total += checked
        observed[key] = total
    return observed, None


def _fork_counts(groups: dict[str, list], run: list) -> tuple[int, BinaryIO] | None:
    """(pid, read end of a pipe) of a forked child that calls the sections
    of groups in run and writes their observed counts as JSON only if all
    of them pass; None if os.fork raises OSError."""
    fd_read, fd_write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(fd_read)
        os.close(fd_write)
        return None
    if pid == 0:
        try:
            os.close(fd_read)
            observed, witness = _in_report_order(groups, run)
            if witness is None:
                os.write(fd_write, json.dumps(observed).encode())
        finally:
            os._exit(0)
    os.close(fd_write)
    return pid, os.fdopen(fd_read, "rb")


def _reap(pid: int, kill: bool) -> None:
    """Kills the child pid if its counts are not wanted, then waits for it,
    so no child outlives the check."""
    if kill:
        os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)


# The suite's sizes.  check_structural_identities reads them when it is
# called, and its report lists them as its parameters.
_P_SET = (2, 3, 5, 7)
_K_MAX = 200
_RATIO_N_MAX = 12
_LEGENDRE_N_MAX = 10_000
_SLICE_N_MAX = 2000
_SLICE_P_SET = (2, 3, 5)
_LAYER_N_MAX = 200
_LAYER_P_SET = (2, 3)
_LAYER_K_SET = (2, 3)
_LAYER_PREC = 9


def check_structural_identities() -> CheckReport:
    """Brute-force versus formula for the digit-level identities, at the
    fixed sizes above.

    Covers: H(n,k)*n! = s(n+1,k+1); Legendre's formula against the
    floor-sum; the coprime-block form of the fixed-valuation slices; block
    telescoping to k-1; the top-slice count k-1; the maximum product
    valuation k*s - U; and the graded tuple sums against h_p_mod.

    The report is a serial run's: the first failure in report order gives
    the witness, observed holds the sections before it, and an exception
    raised before any failure propagates.  To speed up a passing run, the
    valuation-slice sweeps of every prime in _SLICE_P_SET but the last run
    in a forked child while this process runs the other sections; when
    both halves pass, the child's checked counts are added to these.  Any
    other outcome, or an os.fork that raises OSError, runs the whole check
    again serially, and that run gives the report or raises.
    """
    params = {
        "p_set": list(_P_SET),
        "ratio_n_max": _RATIO_N_MAX,
        "legendre_n_max": _LEGENDRE_N_MAX,
        "slice_n_max": _SLICE_N_MAX,
        "k_max": _K_MAX,
        "layer_n_max": _LAYER_N_MAX,
    }

    def report(observed: dict[str, int], witness: dict | None) -> CheckReport:
        return CheckReport(
            claim_id="structural-identities",
            parameters=params,
            observed=observed,
            bound="exact equality per identity",
            passed=witness is None,
            witness=witness,
        )

    # observed key -> its sections, in report order
    groups = {
        "harmonic-stirling-ratio": [functools.partial(_ratio_section, _RATIO_N_MAX)],
        "legendre-factorial": [functools.partial(_legendre_section, _P_SET, _LEGENDRE_N_MAX)],
        "valuation-slice": [functools.partial(_slice_section, p, _SLICE_N_MAX)
                            for p in _SLICE_P_SET],
        "block-telescoping": [functools.partial(_telescoping_section, _P_SET, _K_MAX)],
        "valuation-layer-sum": [functools.partial(
            _layer_section, _LAYER_P_SET, _LAYER_K_SET, _LAYER_N_MAX, _LAYER_PREC)],
    }
    every = [s for sections in groups.values() for s in sections]
    in_child = groups["valuation-slice"][:-1]
    child = _fork_counts(groups, in_child)
    if child is not None:
        pid, pipe = child
        counts = None
        try:
            observed, witness = _in_report_order(groups, [s for s in every if s not in in_child])
            if witness is None:
                counts = json.loads(pipe.read() or "null")
        except Exception:
            pass  # the serial run below meets the same fault
        finally:
            pipe.close()
            _reap(pid, kill=counts is None)
        if counts is not None:
            return report({key: total + counts[key] for key, total in observed.items()}, None)
    # Every section is a pure function of its arguments, so this run
    # reproduces any failure or exception that either half met.
    return report(*_in_report_order(groups, every))


# ---------------------------------------------------------------------------

def _exact_H_valuations(ns: set[int], k: int, p: int) -> dict[int, int]:
    """vp(H(n, k)) = vp(s(n+1, k+1)) - vp(n!) for each n >= k in ns, read
    off one sweep of the exact Stirling row at the n asked for."""
    rows = _stirling_rows(max(ns, default=0) + 1, k + 1)
    return {n: vp_int(row[k + 1], p) - vp_factorial(n, p)
            for n, row in enumerate(rows, start=-1) if n in ns}


def check_lengyel_identity(m_max: int = 12) -> CheckReport:
    """v2(H(2^m - 1, 2)) = 4 - 2m for m = 2..m_max (Lengyel's identity)."""
    if m_max < 2:
        raise ArgumentError(f"m_max must be at least 2, got {m_max}")
    observed = {}
    witness = None
    passed = True
    for m in range(2, m_max + 1):
        val = vp_H(2 ** m - 1, 2, 2)
        observed[str(m)] = val
        if val != 4 - 2 * m:
            passed = False
            witness = {"m": m, "observed": val, "expected": 4 - 2 * m}
            break
    return CheckReport(
        claim_id="lengyel",
        parameters={"m_max": m_max},
        observed=observed,
        bound="4 - 2m",
        passed=passed,
        witness=witness,
    )


def check_integral_scan(n_max: int = 40) -> CheckReport:
    """The only integral H(n, k) with k <= n <= n_max are (1,1) and (3,2)."""
    found = integral_pairs(n_max)
    expected = [(1, 1), (3, 2)] if n_max >= 3 else [(1, 1)]
    return CheckReport(
        claim_id="integral-scan",
        parameters={"n_max": n_max},
        observed={"integral_pairs": found},
        bound=expected,
        passed=found == expected,
    )


def check_corollary_2adic(
    S: int = 14, sample_count: int = 500, seed: int = 0
) -> CheckReport:
    """Branch-bit description of v2(H(n, 2)) on seeded random n <= 2^S.

    Digits matching the branch bits through position s force the valuation
    to at least 1 - s; a first mismatch at position r pins it to r - 2s.
    Samples up to min(DEFAULT_EXACT_CAP, 2^S) are also cross-checked
    against exact Stirling numbers.
    """
    if S < 1 or sample_count < 0:
        raise ArgumentError(
            f"need S >= 1 and sample_count >= 0, got S={S}, sample_count={sample_count}"
        )
    bits = f_sequence(S)
    rng = random.Random(seed)
    # random draws almost never match the whole bit prefix, so the prefixes
    # themselves are added as systematic full-match cases
    prefix_values = [
        int("".join(map(str, bits[: s + 1])), 2) for s in range(1, S + 1)
    ]
    samples = [rng.randint(2, 2 ** S) for _ in range(sample_count)] + prefix_values
    cross_max = min(DEFAULT_EXACT_CAP, 2 ** S)
    exact_vals = _exact_H_valuations({n for n in samples if n <= cross_max}, 2, 2)
    matched = mismatched = crossed = 0
    witness = None

    for n in samples:
        s = n.bit_length() - 1
        # n leaves the chain at its first digit r off bits, the top set bit
        # of n XOR the chain's prefix of s + 1 digits
        off = n ^ prefix_values[s - 1]
        r = s + 1 - off.bit_length() if off else None
        verdict = vp_H_expansion(n, 2, 2)
        if r is None:
            ok = (not verdict.is_exact and verdict.value == 1 - s) or (
                verdict.is_exact and verdict.value >= 1 - s
            )
            matched += 1
        else:
            ok = verdict.is_exact and verdict.value == r - 2 * s
            mismatched += 1
        if ok and n in exact_vals:
            crossed += 1
            if r is None:
                ok = exact_vals[n] >= 1 - s
            else:
                ok = exact_vals[n] == r - 2 * s
        if not ok:
            witness = {
                "n": n,
                "digits": list(to_digits(n, 2)),
                "first_mismatch": r,
                "verdict": str(verdict),
                "exact": exact_vals.get(n),
            }
            break
    return CheckReport(
        claim_id="corollary-2adic",
        parameters={"S": S, "sample_count": sample_count, "exact_cross_max": DEFAULT_EXACT_CAP},
        observed={"matched": matched, "mismatched": mismatched, "exact_crossed": crossed},
        bound="match: vp >= 1-s; mismatch at r: vp = r-2s",
        passed=witness is None,
        seed=seed,
        witness=witness,
    )


# ---------------------------------------------------------------------------

def _ubound_holds(n: int, k: int, p: int, nu: int) -> bool:
    """vp < -(k-1)(log_p n - log_p(k-1) - 1), by exact integer powers.

    Equivalent to n^(k-1) < (k-1)^(k-1) * p^(k-1-nu); the p power moves to
    whichever side keeps exponents nonnegative, so equality cases (n a
    power of p times k-1) fall out exactly.
    """
    lhs = n ** (k - 1)
    rhs = (k - 1) ** (k - 1)
    e = k - 1 - nu
    if e >= 0:
        rhs *= p ** e
    else:
        lhs *= p ** (-e)
    return lhs < rhs


def _root_class(root: int, t: int, p: int, lo: int, x: int):
    """(n, s) for every n in [lo, x] whose leading t + 1 base-p digits are
    those of root, by increasing n, where s + 1 is the digit length of n.

    For each length they form one run, root * p^(s-t) up to
    (root + 1) * p^(s-t) - 1; lo >= p * root puts every run at s > t.
    """
    for s in range(t + 1, ilog(x, p) + 1):
        start = root * p ** (s - t)
        for n in range(max(start, lo), min(start + p ** (s - t), x + 1)):
            yield n, s


def check_ubound(p: int = 3, k: int = 2, x: int = 729) -> CheckReport:
    """Upper-bound mechanism on [(k-1)p, x]: leaf exits force the strict
    inequality, violators stay inside the tree, and the violator count is
    at most 3 x^0.835.

    Only the n that extend the root digits of k - 1 are tested, and each
    is read as an integer: its digits 0..r are n // p^(s-r)."""
    sc = structure_constants(k, p)
    if x < (k - 1) * p:
        raise ArgumentError(f"x must be at least (k-1)p = {(k - 1) * p}")
    depth = ilog(x, p) - sc.t + 1
    tree = build_tree(p, k, max_depth=depth)
    nodes = tree.node_values()
    vals = vp_H_sweep(x, k, p)
    powers = [p ** i for i in range(ilog(x, p) + 1)]
    exceptions = []
    leaf_exits = 0
    full_chain = 0
    witness = None
    for n, s in _root_class(k - 1, sc.t, p, (k - 1) * p, x):
        exit_at = next(
            (r for r in range(sc.t + 1, s + 1) if n // powers[s - r] not in nodes),
            None,
        )
        holds = _ubound_holds(n, k, p, vals[n])
        if exit_at is not None:
            leaf_exits += 1
            if not holds:
                witness = {
                    "n": n,
                    "vp": vals[n],
                    "exit_at": exit_at,
                    "reason": "leaf exit must satisfy the bound",
                }
                break
        else:
            full_chain += 1
            if not holds:
                exceptions.append(n)
    count_ok = _le_3x_0835(len(exceptions), x)
    passed = witness is None and count_ok
    if witness is None and not count_ok:
        witness = {"reason": "exception count exceeds 3x^0.835", "count": len(exceptions)}
    return CheckReport(
        claim_id="ubound",
        parameters={"p": p, "k": k, "x": x},
        observed={
            "tested": leaf_exits + full_chain,
            "leaf_exits": leaf_exits,
            "full_chain": full_chain,
            "exceptions": len(exceptions),
        },
        bound=f"3 * {x}^0.835",
        passed=passed,
        witness=witness,
    )


# ---------------------------------------------------------------------------

def _harmonic_numbers(n_max: int) -> list[Fraction]:
    """[H_0, H_1, ..., H_n_max], column 1 of the exact H rows."""
    return [row[1] for row in _H_rows(n_max, 1)]


def _harm_window_hits(
    harmonic: list[Fraction], p: int, x: int, y: int, r: Fraction
) -> tuple[int, list[int]]:
    """The v in [x, x+y] with vp(H_v - r) > 0, and how many there are,
    read from a table of H_0..H_(x+y) or longer.  A reduced fraction has
    vp > 0 (or is 0) exactly when p divides its numerator."""
    hits = [v for v in range(x, x + y + 1) if (harmonic[v] - r).numerator % p == 0]
    return len(hits), hits


# harm-count windows [x, x + y] start at x <= this
_HARM_X_MAX = 400


def check_harm_count_suite(p: int = 3, cases: int = 500, seed: int = 0) -> CheckReport:
    """Seeded batch of harmonic congruence windows for one prime."""
    _require_prime(p)
    if cases < 1:
        raise ArgumentError(f"cases must be positive, got {cases}")
    rng = random.Random(seed)
    # every window [x, x+y] has x <= _HARM_X_MAX and y <= p-1
    harmonic = _harmonic_numbers(_HARM_X_MAX + p - 1)
    worst = 0
    witness = None
    for _ in range(cases):
        x = rng.randint(1, _HARM_X_MAX)
        y = rng.randint(1, p - 1)
        r = Fraction(0) if rng.random() < 0.25 else Fraction(
            rng.randint(-p * p, p * p), rng.randint(1, 4 * p)
        )
        count, hits = _harm_window_hits(harmonic, p, x, y, r)
        worst = max(worst, count)
        if not _lt_harm_bound(count, y):
            witness = {"x": x, "y": y, "r": str(r), "count": count, "hits": hits}
            break
    return CheckReport(
        claim_id="harm-count",
        parameters={"p": p, "cases": cases, "x_max": _HARM_X_MAX},
        observed={"worst_count": worst},
        bound="1.5 * y^(2/3) + 1",
        passed=witness is None,
        seed=seed,
        witness=witness,
    )


def _cpicong_hits(p: int, q: Fraction, a: int) -> tuple[int, list[int]]:
    """d in [0, p-1] with sum_{i=a}^{a+d} 1/cp(i) congruent to q mod p,
    for prime p and a >= 1."""
    hits = []
    total = Fraction(0)
    for i in range(a, a + p):
        total += Fraction(1, i + (i - 1) // (p - 1))  # cp(i, p)
        if (total - q).numerator % p == 0:  # vp(total - q) > 0, or total == q
            hits.append(i - a)
    return len(hits), hits


def check_cpicong(
    p: int = 3, q_samples: int = 20, a_samples: int = 10, seed: int = 0
) -> CheckReport:
    """Congruence hit counts over coprime-block windows of length p.

    For every sampled (q, a) the count must stay below p^0.835, below
    ceil(p/2), below 3((p-2)/2)^(2/3) + 2, and no two consecutive window
    lengths may both hit.
    """
    _require_prime(p)
    if q_samples < 1 or a_samples < 1:
        raise ArgumentError(
            f"need q_samples >= 1 and a_samples >= 1, got {q_samples}, {a_samples}"
        )
    rng = random.Random(seed)
    qs = []
    for _ in range(q_samples):
        den = rng.randint(1, 10 * p)
        while den % p == 0:
            den = rng.randint(1, 10 * p)
        qs.append(Fraction(rng.randint(-10 * p, 10 * p), den))
    if Fraction(0) not in qs:
        qs[0] = Fraction(0)
    a_list = [rng.randint(1, 5 * p * p) for _ in range(a_samples)]
    worst = 0
    witness = None
    pairs = 0
    for q in qs:
        for a in a_list:
            pairs += 1
            count, hits = _cpicong_hits(p, q, a)
            worst = max(worst, count)
            consecutive = any(b - a_ == 1 for a_, b in zip(hits, hits[1:]))
            if (
                not _lt_p_0835(count, p)
                or count > -(-p // 2)
                or not _le_cpi_bound(count, p)
                or consecutive
            ):
                witness = {"q": str(q), "a": a, "count": count, "hits": hits}
                break
        if witness:
            break
    return CheckReport(
        claim_id="cpicong",
        parameters={"p": p, "q_samples": q_samples, "a_samples": a_samples},
        observed={"pairs": pairs, "worst_count": worst},
        bound="p^0.835, ceil(p/2), 3((p-2)/2)^(2/3)+2, no consecutive hits",
        passed=witness is None,
        seed=seed,
        witness=witness,
    )


def _primes_upto(n: int) -> list[int]:
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\x00\x00"
    for i in range(2, math.isqrt(n) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return [i for i in range(n + 1) if sieve[i]]


# p59-exponent escalates precision while a comparison lies this close to a tie
_P59_GUARD = 1e-6
# decimal digits carried beyond those of the working bits
_P59_GUARD_DIGITS = 5

# Bound on |_p59_g_float(p) - g(p)| for p < 2^32, with a margin of 2^6:
# x = (p - 2)/2 is exact, the rounded exponent 2/3 and pow put a relative
# error of at most (ln x + 4) * 2^-53 <= 2^-48 on the curve, log adds an
# ulp, and dividing by log p >= log 3 leaves less than 2^-46.
_P59_FLOAT_ERR = 2.0 ** -40


def _p59_g_float(p: int) -> float:
    """g(p) = log_p(min(ceil(p/2), 3((p-2)/2)^(2/3) + 2)) in double precision."""
    m = min(-(-p // 2), 3 * ((p - 2) / 2) ** (2 / 3) + 2)
    return math.log(m) / math.log(p)


def _p59_g_decimal(p: int) -> Decimal:
    """g(p) in the current decimal context."""
    curve = 3 * (Decimal(p - 2) / 2) ** (Decimal(2) / 3) + 2
    return min(Decimal(-(-p // 2)), curve).ln() / Decimal(p).ln()


def _p59_screen(primes: list[int]) -> list[int]:
    """The primes whose float g lies within 2 * _P59_FLOAT_ERR of the
    second-largest float.

    Every float is within _P59_FLOAT_ERR of its g, so these include the
    two primes with the largest g: the true runner-up b has
    g(b) >= min(g(q1), g(q2)) over the primes q1, q2 of the top two
    floats, so its float is at least the second-largest minus twice the
    bound, and so is the float of the argmax.
    """
    floats = [_p59_g_float(p) for p in primes]
    cut = sorted(floats)[-2] - 2 * _P59_FLOAT_ERR
    return [p for p, g in zip(primes, floats) if g >= cut]


def check_p59_exponent(prime_bound: int = 1000) -> CheckReport:
    """The per-prime exponent log_p(min(3((p-2)/2)^(2/3)+2, ceil(p/2)))
    peaks at p = 59 and stays below 0.835.

    A double-precision screen keeps only the primes whose exponent can be
    among the top two (_p59_screen); those are ranked with the standard
    decimal module at the digits of 80 bits plus guard digits.  Any
    comparison landing inside the guard band doubles the bits, up to
    4096, instead of deciding.
    """
    if prime_bound < 59:
        raise ArgumentError(f"prime_bound must be at least 59, got {prime_bound}")
    survivors = _p59_screen(_primes_upto(prime_bound))

    prec = 80
    while True:
        with localcontext() as ctx:
            ctx.prec = math.ceil(prec * math.log10(2)) + _P59_GUARD_DIGITS
            ranked = sorted((-_p59_g_decimal(p), p) for p in survivors)
            (neg_top, p_top), (neg_second, _) = ranked[:2]
            g_top, gap = -neg_top, neg_second - neg_top
        margin_ok = float(gap) > _P59_GUARD and abs(float(g_top) - 0.835) > _P59_GUARD
        if margin_ok:
            break
        prec *= 2
        if prec > 4096:
            raise RuntimeError("precision escalation failed to separate exponents")
    passed = p_top == 59 and float(g_top) < 0.835
    return CheckReport(
        claim_id="p59-exponent",
        parameters={"prime_bound": prime_bound, "precision_bits": prec},
        observed={"argmax": p_top, "g_max": float(g_top), "runner_up_gap": float(gap)},
        bound=0.835,
        passed=passed,
        witness=None if passed else {"argmax": p_top, "g_max": float(g_top)},
    )


def monitor_lower_bound(p: int = 3, k: int = 2, n_max: int = 40) -> CheckReport:
    """Informational: min over n <= n_max of vp(H(n,k)) + k log_p n.

    The additive constant in the known lower bound is unspecified, so this
    reports the observed minimum and never fails.
    """
    vals = vp_H_sweep(n_max, k, p)
    best = None
    arg = None
    for n, nu in vals.items():
        slack = nu + k * math.log(n, p)
        if best is None or slack < best:
            best, arg = slack, n
    return CheckReport(
        claim_id="lower-bound-monitor",
        parameters={"p": p, "k": k, "n_max": n_max},
        observed={"min_slack": best, "argmin": arg},
        bound=None,
        passed=True,
    )


# ---------------------------------------------------------------------------
# the checks `padicharm verify` runs

@dataclass(frozen=True)
class Check:
    """One `verify` check: its function and the flags it reads.

    flags maps each keyword argument of run to the `verify` flag (its
    argparse dest) that supplies it, and `verify NAME` accepts these flags
    and no other.  A flag left out is not passed, so each of these keywords
    has its default in run's signature.  A check that draws random samples
    lists "seed": "seed", and `verify` refuses to run it without --seed.
    """

    run: Callable[..., CheckReport]
    flags: dict[str, str] = field(default_factory=dict)


CHECKS: dict[str, Check] = {
    "structural": Check(check_structural_identities),
    "lengyel": Check(check_lengyel_identity, {"m_max": "m_max"}),
    "integral-scan": Check(check_integral_scan, {"n_max": "max_n"}),
    "corollary-2adic": Check(
        check_corollary_2adic, {"seed": "seed", "S": "terms", "sample_count": "samples"}
    ),
    "ubound": Check(check_ubound, {"p": "p", "k": "k", "x": "x"}),
    "harm-count": Check(
        check_harm_count_suite, {"seed": "seed", "p": "p", "cases": "samples"}
    ),
    "cpicong": Check(
        check_cpicong,
        {"seed": "seed", "p": "p", "q_samples": "q_samples", "a_samples": "a_samples"},
    ),
    "p59-exponent": Check(check_p59_exponent, {"prime_bound": "prime_bound"}),
    "lower-bound-monitor": Check(monitor_lower_bound, {"p": "p", "k": "k", "n_max": "max_n"}),
}
