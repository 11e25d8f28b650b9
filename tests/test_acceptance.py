"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines;
every tolerance is exact (integer comparisons or pinned values), nothing
is deferred to later calibration.
"""

import random
import time

import pytest

from padicharm.checks import (
    check_corollary_2adic,
    check_cpicong,
    check_harm_count_suite,
    check_integral_scan,
    check_lengyel_identity,
    check_p59_exponent,
    check_structural_identities,
    check_ubound,
)
from padicharm.core import vp
from padicharm.expansion import vp_H_expansion
from padicharm.tree import build_tree, f_sequence
from padicharm.valuation import exact_H_table, vp_H

SEED = 20240817

_TREES = {}


def tree_3(k):
    if k not in _TREES:
        _TREES[k] = build_tree(3, k, 32, engine="both")
    return _TREES[k]


def announce(cid, ok, detail, t0):
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion-{cid:02d} {verdict} {detail} ({time.time() - t0:.1f}s)")
    assert ok, detail


def test_c01_tree_cardinalities():
    t0 = time.time()
    expected = {2: 8, 3: 24, 4: 16, 5: 7, 6: 23}
    # floors on the memberships both engines decided (all of them here)
    dual_floor = {2: 24, 3: 72, 4: 48, 5: 21, 6: 69}
    got = {}
    ok = True
    for k, want in expected.items():
        tree = tree_3(k)
        got[k] = (tree.node_count, tree.status, tree.dual_checks)
        ok = ok and tree.status == "complete" and tree.node_count == want
        ok = ok and tree.dual_checks >= dual_floor[k]
    announce(1, ok, f"complete 3-adic trees k=2..6 (nodes, status, dual checks) {got}", t0)


def test_c02_tree_k7_exactly_43():
    t0 = time.time()
    tree = tree_3(7)
    ok = tree.status == "complete" and tree.node_count == 43
    ok = ok and tree.dual_checks >= 123
    announce(
        2,
        ok,
        f"3-adic k=7 tree holds {tree.node_count} nodes (status {tree.status}, "
        f"{tree.dual_checks} dual checks)",
        t0,
    )


def test_c03_lengyel_identity():
    t0 = time.time()
    report = check_lengyel_identity(12)
    announce(3, report.passed, f"v2(H(2^m-1,2)) = 4-2m for m=2..12: {report.observed}", t0)


def test_c04_f_sequence_and_corollary():
    t0 = time.time()
    bits = "".join(map(str, f_sequence(20)))
    ok = bits[:3] == "110" and len(bits) == 21
    report = check_corollary_2adic(S=14, sample_count=500, seed=SEED)
    ok = ok and report.passed
    announce(
        4,
        ok,
        f"f0..f20 = {bits}; corollary on 500 seeded n: {report.observed}",
        t0,
    )


def test_c05_integral_scan():
    t0 = time.time()
    report = check_integral_scan(40)
    announce(5, report.passed, f"integral pairs up to 40: {report.observed['integral_pairs']}", t0)


def test_c06_identity_suite():
    t0 = time.time()
    report = check_structural_identities()
    announce(6, report.passed, f"identity suite counts {report.observed}", t0)
    # every comparison of the suite, so none can be dropped quietly
    assert report.observed == {
        "harmonic-stirling-ratio": 78,
        "legendre-factorial": 40004,
        "valuation-slice": 42102,
        "block-telescoping": 2388,
        "valuation-layer-sum": 2479,
    }


def test_c07_cross_engine_equivalence():
    t0 = time.time()
    table = exact_H_table(64, 6)
    ok = True
    for p in (2, 3, 5, 7):
        for n in range(1, 65):
            for k in range(1, min(n, 6) + 1):
                if vp_H(n, k, p) != vp(table[n][k], p):
                    ok = False
    rng = random.Random(SEED)
    exact_verdicts = 0
    compared = 0
    while compared < 500:
        p = rng.choice((2, 3, 5))
        k = rng.choice((2, 3, 4, 5))
        n = k - 1
        for _ in range(rng.randint(1, 6)):
            n = n * p + rng.randrange(p)
        if n > 2048:
            continue
        compared += 1
        verdict = vp_H_expansion(n, k, p)
        reference = vp_H(n, k, p)
        if verdict.is_exact:
            exact_verdicts += 1
            ok = ok and verdict.value == reference
        else:
            ok = ok and reference >= verdict.value
    ok = ok and exact_verdicts >= 300
    announce(
        7,
        ok,
        f"vp_H = vp(exact) on n<=64 grid; {exact_verdicts}/500 seeded expansion "
        "verdicts exact and matching",
        t0,
    )


def test_c08_child_count_bounds():
    t0 = time.time()
    chain = build_tree(2, 2, 20, engine="both")
    stats = chain.stats
    ok = stats.min_children == stats.max_children == 1 and stats.determined == 20
    for k in (2, 3, 4, 5, 6):
        tree = tree_3(k)
        width = tree.stats.max_children
        # strict exact comparison: width < 3^0.835 iff width^200 < 3^167
        ok = ok and tree.status == "complete" and width ** 200 < 3 ** 167
    announce(8, ok, "2-adic chain has one child per level; 3-adic widths < 3^0.835", t0)


def test_c09_counting_bounds():
    t0 = time.time()
    ok = True
    details = {}
    for p in (3, 5, 7, 11, 13, 31):
        report = check_cpicong(p, q_samples=20, a_samples=10, seed=SEED + p)
        details[p] = report.observed["worst_count"]
        ok = ok and report.passed and report.observed["pairs"] == 200
    for p in (5, 7, 11, 13):
        report = check_harm_count_suite(p, cases=100, seed=SEED + p)
        ok = ok and report.passed
    p59 = check_p59_exponent(1000)
    ok = ok and p59.passed
    announce(
        9,
        ok,
        f"congruence counts per prime {details}; exponent peak "
        f"{p59.observed['argmax']} at {p59.observed['g_max']:.4f}",
        t0,
    )


def test_c10_ubound_mechanism():
    t0 = time.time()
    ok = True
    details = {}
    for p, k, x in ((2, 2, 1024), (3, 2, 729), (3, 3, 729)):
        report = check_ubound(p, k, x)
        details[(p, k, x)] = report.observed["exceptions"]
        ok = ok and report.passed
    announce(10, ok, f"upper-bound mechanism exceptions {details}", t0)
