import math
import random
import tracemalloc
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

from padicharm import valuation
from padicharm.core import (
    SizeCapError,
    ilog,
    to_digits,
    vp,
    vp_factorial,
    vp_int,
)
from padicharm.expansion import vp_H_expansion
from padicharm.valuation import (
    DEFAULT_EXACT_CAP,
    _REDUCE_EVERY,
    _ScaledHRow,
    exact_H,
    exact_H_table,
    stirling,
    stirling_mod,
    vp_H,
    vp_H_sweep,
    vp_H_with_guard,
)


def brute_H(n, k):
    return sum(
        (Fraction(1, math.prod(c)) for c in combinations(range(1, n + 1), k)),
        Fraction(0),
    )


def cycle_count(perm):
    seen = [False] * len(perm)
    cycles = 0
    for i in range(len(perm)):
        if not seen[i]:
            cycles += 1
            j = i
            while not seen[j]:
                seen[j] = True
                j = perm[j]
    return cycles


def brute_stirling(n, k):
    return sum(1 for perm in permutations(range(n)) if cycle_count(perm) == k)


def exact_vp_H(n, k, p):
    """vp(H(n, k)) from the exact Stirling number, n < 4096 (the exact cap)."""
    return vp_int(stirling(n + 1, k + 1), p) - vp_factorial(n, p)


@pytest.mark.parametrize(
    "n, k, expected",
    [
        (1, 1, Fraction(1)),
        (3, 2, Fraction(1)),
        (4, 2, Fraction(35, 24)),
        (5, 2, Fraction(15, 8)),
        (6, 2, Fraction(203, 90)),
        (4, 0, Fraction(1)),
    ],
)
def test_exact_H_examples(n, k, expected):
    assert exact_H(n, k) == expected


def test_exact_H_matches_brute_force():
    for n in range(1, 13):
        for k in range(0, n + 1):
            assert exact_H(n, k) == brute_H(n, k)


def test_exact_H_rejections():
    with pytest.raises(ValueError):
        exact_H(3, 4)
    with pytest.raises(SizeCapError):
        exact_H(5000, 2)


def test_exact_H_table_consistent():
    # k_max = 11 > n_max = 6 cuts every row at n
    for n_max, k_max in [(20, 4), (6, 11)]:
        table = exact_H_table(n_max, k_max)
        assert len(table) == n_max + 1
        for n in range(n_max + 1):
            assert len(table[n]) == min(n, k_max) + 1
            for k in range(min(n, k_max) + 1):
                assert table[n][k] == exact_H(n, k)


def test_exact_H_table_refuses_a_negative_k_max():
    with pytest.raises(ValueError, match=r"^k_max must be nonnegative, got -1$"):
        exact_H_table(3, -1)
    assert exact_H_table(3, 0) == [[1], [1], [1], [1]]


@given(st.integers(min_value=1, max_value=60), st.integers(min_value=0, max_value=6))
def test_exact_H_positive(n, k):
    if k <= n:
        assert exact_H(n, k) > 0


@pytest.mark.parametrize("n, k, expected", [(4, 2, 11), (5, 5, 1), (8, 3, 13132)])
def test_stirling_examples(n, k, expected):
    assert stirling(n, k) == expected


def test_stirling_matches_cycle_counts():
    for n in range(1, 8):
        for k in range(0, n + 1):
            assert stirling(n, k) == brute_stirling(n, k)


def test_stirling_factorial_identity():
    # n! * H(n, k) = s(n+1, k+1)
    table = exact_H_table(12, 12)
    for n in range(1, 13):
        nf = math.factorial(n)
        for k in range(1, n + 1):
            assert table[n][k] * nf == stirling(n + 1, k + 1)


def test_stirling_rejections():
    with pytest.raises(ValueError):
        stirling(4, 5)
    with pytest.raises(ValueError):
        stirling(0, 0)
    assert stirling(3, 0) == 0


@pytest.mark.parametrize(
    "n, k, p, M, expected",
    [(6, 3, 2, 5, 1), (4, 2, 3, 2, 2), (5, 5, 7, 3, 1)],
)
def test_stirling_mod_examples(n, k, p, M, expected):
    assert stirling_mod(n, k, p, M) == expected


@given(
    st.integers(min_value=1, max_value=60),
    st.integers(min_value=0, max_value=8),
    st.sampled_from([2, 3, 5, 7]),
    st.integers(min_value=1, max_value=12),
)
def test_stirling_mod_matches_exact(n, k, p, M):
    if k <= n:
        assert stirling_mod(n, k, p, M) == stirling(n, k) % p ** M


@pytest.mark.parametrize(
    "n, k, p, expected",
    [
        (7, 2, 2, -2),
        (3, 2, 2, 0),
        (5, 2, 2, -3),
        (4, 1, 5, 2),
        # beyond the exact cap; values from a full Stirling row mod p^(vp(n!) + guard)
        (60000, 7, 3, -59),
        (200000, 3, 3, -31),
        (50000, 2, 2, -27),
    ],
)
def test_vp_H_examples(n, k, p, expected):
    assert vp_H(n, k, p) == expected


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_vp_H_matches_exact_rationals(p):
    table = exact_H_table(48, 5)
    for n in range(1, 49):
        for k in range(1, min(n, 5) + 1):
            assert vp_H(n, k, p) == vp(table[n][k], p)


def test_vp_H_matches_exact_stirling_numbers_to_the_exact_cap():
    # H(n, k) = s(n+1, k+1) / n! exactly; one exact row sweep reads
    # s(n+1, j+1) for every n up to the cap, and vp_H must match each value
    K = 6
    targets = set(random.Random(4096).sample(range(1, DEFAULT_EXACT_CAP), 30))
    targets |= {DEFAULT_EXACT_CAP - 1, DEFAULT_EXACT_CAP}
    row = [0, 1] + [0] * K  # s(1, 0..K+1)
    checked = 0
    for m in range(1, DEFAULT_EXACT_CAP + 1):
        row = [0] + [row[j - 1] + m * row[j] for j in range(1, K + 2)]  # s(m+1, .)
        if m in targets:
            for p in (2, 3, 5, 7):
                for k in range(1, min(m, K) + 1):
                    assert vp_H(m, k, p) == vp_int(row[k + 1], p) - vp_factorial(m, p), (m, k, p)
                    checked += 1
    assert checked == 32 * 4 * K


# (n, k, p, vp(H(n, k))) for 100 seeded p <= 7, k <= 7 and log-uniform n in
# [10^3.6, 10^6], as the Stirling row that started at
# v_max = (k+1)(ilog_p(n)+1) + 8 decided them
ROW_VALUES = [
    (771694, 6, 5, -41), (78393, 4, 3, -35), (4639, 6, 5, -25), (219757, 1, 3, -11),
    (138901, 4, 5, -25), (22801, 5, 5, -26), (139023, 4, 2, -63), (6205, 4, 3, -25),
    (25962, 7, 7, -29), (359478, 3, 5, -20), (30381, 7, 2, -88), (34407, 5, 2, -65),
    (684467, 7, 5, -50), (191252, 5, 7, -26), (15894, 3, 5, -15), (191659, 6, 2, -91),
    (5850, 4, 7, -14), (5211, 4, 3, -26), (972457, 3, 5, -23), (104137, 1, 3, -10),
    (456289, 4, 3, -42), (22943, 1, 5, -6), (9883, 6, 7, -21), (531750, 5, 5, -36),
    (748682, 2, 5, -14), (23275, 1, 7, -5), (979664, 3, 3, -34), (16926, 2, 5, -10),
    (450565, 3, 7, -18), (5029, 3, 2, -29), (193711, 5, 5, -31), (749105, 6, 3, -65),
    (61689, 4, 2, -54), (96790, 2, 7, -10), (28283, 2, 5, -9), (28545, 1, 2, -14),
    (355818, 3, 2, -51), (9406, 2, 5, -10), (123257, 7, 3, -61), (83108, 6, 5, -36),
    (10173, 2, 3, -15), (54962, 7, 2, -94), (141129, 5, 3, -47), (252883, 3, 5, -21),
    (6042, 3, 2, -33), (924681, 1, 2, -19), (43636, 1, 2, -15), (87409, 1, 3, -10),
    (40237, 5, 7, -21), (74545, 7, 5, -39), (601480, 3, 7, -18), (12676, 4, 3, -28),
    (388166, 4, 3, -42), (190109, 5, 5, -30), (603467, 5, 5, -36), (10966, 1, 2, -13),
    (26134, 2, 3, -16), (13341, 2, 3, -16), (140919, 5, 3, -47), (59292, 4, 2, -55),
    (154824, 6, 2, -88), (4747, 1, 5, -5), (74243, 4, 2, -59), (20754, 4, 3, -31),
    (198716, 4, 7, -21), (660473, 6, 5, -43), (125314, 3, 3, -27), (17958, 2, 5, -10),
    (723296, 5, 7, -29), (201225, 7, 5, -44), (308250, 4, 5, -26), (5157, 2, 3, -14),
    (200887, 2, 5, -14), (325691, 1, 5, -5), (25284, 4, 5, -21), (8961, 5, 7, -18),
    (868259, 3, 7, -18), (195054, 2, 2, -33), (27789, 3, 2, -40), (6990, 3, 5, -14),
    (72322, 7, 5, -39), (12860, 1, 7, -4), (415435, 7, 3, -72), (172736, 1, 7, -6),
    (4757, 3, 7, -9), (81831, 2, 5, -12), (235512, 6, 5, -38), (4316, 5, 7, -16),
    (237986, 3, 5, -21), (4709, 1, 7, -4), (30901, 3, 7, -13), (176357, 4, 3, -37),
    (4629, 6, 2, -59), (181586, 5, 5, -31), (44186, 2, 3, -18), (5758, 5, 7, -16),
    (25473, 4, 3, -30), (10647, 5, 7, -19), (79363, 5, 3, -44), (252689, 7, 5, -45),
]


def test_vp_H_keeps_the_values_of_the_wide_start():
    for n, k, p, expected in ROW_VALUES:
        assert vp_H(n, k, p) == expected, (n, k, p)


def test_vp_H_escalates_from_a_small_start():
    # the row starts at A = 4 modulus digits (v_max = 4 - kL) and doubles A
    # while its residue is zero, so the pinning A is the first of 4, 8,
    # 16, ... above kL + vp(H(n, k))
    # vp_5(H(4, 1)) = vp_5(25/12) = 2 and L = 0: A = 4 pins it
    assert vp_H_with_guard(4, 1, 5) == (2, 4)
    seen = set()
    for p, k in [(2, 3), (2, 5), (3, 2), (3, 4), (7, 3)]:
        for n in range(k, 121):
            val, v_max = vp_H_with_guard(n, k, p)
            assert val == exact_vp_H(n, k, p)
            kL = k * ilog(n, p)
            A = kL + v_max
            assert A in (4, 8, 16, 32) and kL + val < A
            assert A == 4 or kL + val >= A // 2
            seen.add(A)
    assert seen == {4, 8, 16}


def test_vp_H_sweep_falls_back_to_vp_H(monkeypatch):
    # start the sweep's row, the first one built, at v_max = 1, so that each
    # sweep value at or above 1 falls back to vp_H
    real_row = valuation._ScaledHRow
    built = []

    def row(k, p, n_max, v_max):
        built.append(v_max)
        return real_row(k, p, n_max, 1 if len(built) == 1 else v_max)

    monkeypatch.setattr(valuation, "_ScaledHRow", row)
    fallbacks = 0
    for p, k in [(2, 1), (3, 2), (5, 1), (7, 3)]:
        built.clear()
        sweep = dict(vp_H_sweep(120, k, p))
        fallbacks += len(built) > 1
        for n in range(k, 121):
            assert sweep[n] == exact_vp_H(n, k, p)
    assert fallbacks == 3  # vp_2(H(n, 1)) = -ilog_2(n) never falls back


def _sweep_grid():
    # each (p, k) gets n_max = k, a run across the first _REDUCE_EVERY
    # boundary, and one seeded n_max up to 3000
    rng = random.Random(23)
    for p in (2, 3, 5, 7):
        for k in range(1, 7):
            for n_max in (k, k + _REDUCE_EVERY + 1, rng.randint(k, 3000)):
                yield p, k, n_max


def test_vp_H_sweep_equals_single_calls_on_a_seeded_grid():
    # single values are compared at every n up to 100 and at 30 seeded n
    # above, each end of the run included
    rng = random.Random(2023)
    for p, k, n_max in _sweep_grid():
        pairs = list(vp_H_sweep(n_max, k, p))
        assert [n for n, _ in pairs] == list(range(k, n_max + 1))
        sweep = dict(pairs)
        ns = set(range(k, min(n_max, 100) + 1)) | {n_max}
        if n_max > 100:
            ns |= set(rng.sample(range(101, n_max + 1), min(30, n_max - 100)))
        for n in sorted(ns):
            assert sweep[n] == vp_H(n, k, p), (p, k, n_max, n)


def test_vp_H_sweep_falls_back_exactly_where_the_row_reads_zero(monkeypatch):
    # at v_max = 2 - kL every n with vp(H(n, k)) >= 2 - kL, and no other,
    # goes to vp_H, and the fallbacks' values land in the sweep
    # (the sweep's row is the first one built; vp_H's rows stay as they are)
    real_row = valuation._ScaledHRow
    real_vp_H = valuation.vp_H
    built, fell_back = [], []

    def row(k, p, n_max, v_max):
        built.append(v_max)
        return real_row(k, p, n_max, 2 - k * ilog(n_max, p) if len(built) == 1 else v_max)

    def logged_vp_H(n, k, p):
        fell_back.append(n)
        return real_vp_H(n, k, p)

    monkeypatch.setattr(valuation, "_ScaledHRow", row)
    monkeypatch.setattr(valuation, "vp_H", logged_vp_H)
    for p, k, n_max in [(2, 2, 200), (3, 3, 150), (5, 1, 130), (7, 2, 120)]:
        built.clear()
        fell_back.clear()
        sweep = dict(vp_H_sweep(n_max, k, p))
        exact = {n: exact_vp_H(n, k, p) for n in range(k, n_max + 1)}
        assert sweep == exact
        v_max = 2 - k * ilog(n_max, p)
        assert fell_back == [n for n, v in exact.items() if v >= v_max]
        assert fell_back


def test_vp_H_rejections():
    with pytest.raises(ValueError):
        vp_H(3, 0, 2)
    with pytest.raises(ValueError):
        vp_H(3, 4, 2)
    with pytest.raises(ValueError):
        vp_H(3, 2, 4)


def test_row_entry_points_refuse_n_above_the_cap(monkeypatch):
    # a small cap, so that a sweep missing the check returns a value instead
    # of stepping through every integer up to 10^30; single values jump
    # aligned blocks, so they take no cap
    monkeypatch.setattr(valuation, "ROW_CAP", 50)
    assert dict(vp_H_sweep(50, 2, 3))[50] == exact_vp_H(50, 2, 3)
    with pytest.raises(SizeCapError, match="sweep"):
        vp_H_sweep(51, 2, 3)  # refused at the call, before any pair is asked for
    for n in (51, 3000):
        assert vp_H(n, 2, 3) == vp_H_with_guard(n, 2, 3)[0] == exact_vp_H(n, 2, 3)


@pytest.mark.parametrize("p, k", [(2, 2), (3, 2), (5, 3), (7, 1)])
def test_vp_H_sweep_matches_single_calls(p, k):
    sweep = dict(vp_H_sweep(80, k, p))
    assert set(sweep) == set(range(k, 81))
    for n in range(k, 81):
        assert sweep[n] == vp_H(n, k, p) == exact_vp_H(n, k, p)


def _p_free_factorials(n_max, p):
    """D(n) = n! / p^vp(n!) for n = 0..n_max."""
    out = [1]
    for m in range(1, n_max + 1):
        while m % p == 0:
            m //= p
        out.append(out[-1] * m)
    return out


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_scaled_row_matches_oracles(p):
    # every residue, valuation and threshold decision of the running row,
    # and every vp_H value, against the Fraction table
    n_max, v_max = 300, 3
    table = exact_H_table(n_max, 6)
    units = _p_free_factorials(n_max, p)
    for k in range(1, 7):
        row = _ScaledHRow(k, p, n_max, v_max)
        assert row.kL == k * (len(to_digits(n_max, p)) - 1)
        assert row.A == row.kL + v_max
        mod = p ** row.A
        for n in range(k, n_max + 1):
            scaled = table[n][k] * p ** row.kL * units[n]
            assert scaled.denominator % p != 0
            expected = scaled.numerator * pow(scaled.denominator, -1, mod) % mod
            assert row.advance(n) == expected
            want = vp(table[n][k], p)
            assert vp_H(n, k, p) == want
            assert row.vp(n) == (want if want < v_max else None)
            # t = -kL is the last threshold decided without a residue,
            # t = v_max the one whose modulus is all of p^A
            for t in range(-row.kL - 2, v_max + 1):
                assert row.vp_at_least(n, t) == (want >= t)


def test_scaled_row_refuses_what_it_cannot_decide():
    row = _ScaledHRow(2, 3, 100, 4)
    row.advance(50)
    with pytest.raises(ValueError):
        row.advance(49)  # the row never rewinds
    with pytest.raises(ValueError):
        row.advance(101)  # past n_max, vp(n) <= L is no longer guaranteed
    with pytest.raises(ValueError):
        row.vp_at_least(60, 5)  # above v_max the modulus is too small
    assert row.vp_at_least(60, 4) == (exact_vp_H(60, 2, 3) >= 4)


@given(
    st.sampled_from([2, 3, 5, 7, 11]),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=1500),
    st.integers(min_value=0, max_value=1500),
    st.integers(min_value=-4, max_value=12),
)
def test_scaled_row_matches_vp_H(p, k, n, extra, v_max):
    # a row of any v_max and n_max agrees with vp_H, which starts at its own
    # v_max, and both with the exact value
    n = max(n, k)
    row = _ScaledHRow(k, p, n + extra, v_max)
    want = exact_vp_H(n, k, p)
    assert vp_H(n, k, p) == want
    assert row.vp(n) == (want if want < v_max else None)
    assert row.vp_at_least(n, v_max) == (want >= v_max)
    assert row.vp_at_least(n, -row.kL) is True


class _PerCoefficientRow:
    """The scaled row stepped one coefficient at a time, reduced every step.

    The oracle of the packed row: the same recurrence and modulus, with
    each Z_j held in its own int.
    """

    def __init__(self, k, p, n_max, v_max):
        self.k, self.p = k, p
        L = len(to_digits(n_max, p)) - 1
        self.mod = p ** max(k * L + v_max, 0)
        self.scale = [p ** (L - v) for v in range(L + 1)]
        self.n = 0
        self.row = [1] + [0] * k

    def advance(self, n):
        p, k, mod, row, scale = self.p, self.k, self.mod, self.row, self.scale
        for m in range(self.n + 1, n + 1):
            u, v = m, 0
            while u % p == 0:
                u //= p
                v += 1
            pv = scale[v]
            for j in range(k, 0, -1):
                row[j] = (u * row[j] + pv * row[j - 1]) % mod
            row[0] = u * row[0] % mod
        self.n = n
        return row[k]


@given(
    st.sampled_from([2, 3, 5, 7, 11]),
    st.integers(min_value=1, max_value=8),
    st.one_of(
        st.integers(min_value=1, max_value=3000),
        st.integers(min_value=1, max_value=10 ** 6),
    ),
    st.integers(min_value=-4, max_value=12),
    st.lists(st.integers(min_value=0, max_value=3 * _REDUCE_EVERY), max_size=60),
)
@settings(deadline=None)
def test_packed_row_matches_per_coefficient_steps(p, k, n_max, v_max, gaps):
    # gaps of 0 re-read the row, and most stops fall inside a reduction block
    row = _ScaledHRow(k, p, n_max, v_max)
    oracle = _PerCoefficientRow(k, p, n_max, v_max)
    n = 0
    assert row.advance(0) == oracle.advance(0)
    for gap in gaps:
        n = min(n + gap, n_max)
        assert row.advance(n) == oracle.advance(n), n


def test_packed_row_on_a_tree_dual_run():
    # T_3(3)'s level-one threshold -1 as v_max, on a row sized for
    # n_max = 10^6 (L = 12, A = 35) rather than for the 53 312 that tree's
    # dual row is sized for, stepped past that largest checked child
    rng = random.Random(60000)
    row = _ScaledHRow(3, 3, 10 ** 6, -1)
    oracle = _PerCoefficientRow(3, 3, 10 ** 6, -1)
    n = 0
    while n < 60000:
        n = min(n + rng.randrange(1500), 60000)
        assert row.advance(n) == oracle.advance(n), n
        assert row.vp_at_least(n, -1) == (oracle.row[3] == 0)


@pytest.mark.parametrize("k", [1, 2, 5, 8])
def test_packed_row_where_its_slots_fill_up(k):
    # p = 2^7 - 1 and n_max = p^2 = 16129: near n_max nearly every step
    # multiplies each slot by u + p^2, just below 2^15 = 2^bits(2 n_max),
    # so the slots come within a few bits of the width S allows for
    p = 127
    n_max = p * p
    row = _ScaledHRow(k, p, n_max, 6)
    oracle = _PerCoefficientRow(k, p, n_max, 6)
    for n in range(n_max - 40 * _REDUCE_EVERY, n_max + 1, 7):
        assert row.advance(n) == oracle.advance(n), n


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
@given(
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=10 ** 6),
    st.integers(min_value=-4, max_value=40),
    st.lists(
        st.one_of(
            st.integers(min_value=0, max_value=48),
            st.integers(min_value=0, max_value=10 ** 5),
        ),
        max_size=8,
    ),
)
@settings(deadline=None, max_examples=20)
def test_block_jumps_match_per_coefficient_steps(p, k, n_max, v_max, gaps):
    # gaps of p^2 or more cross aligned p^e blocks in one product each;
    # shorter ones, and the ends of long ones, run the per-step loop
    row = _ScaledHRow(k, p, n_max, v_max)
    oracle = _PerCoefficientRow(k, p, n_max, v_max)
    n = 0
    for gap in gaps:
        n = min(n + gap, n_max)
        assert row.advance(n) == oracle.advance(n), n


@pytest.mark.parametrize("p, k", [(2, 1), (2, 8), (3, 5)])
def test_block_products_where_the_modulus_sets_the_slot_width(p, k):
    # v_max = 400 makes 2*bits(p^A) exceed bits(p^A) + R*bits(2 n_max): the
    # slots must hold the k + 1 products of two residues that a block makes
    row = _ScaledHRow(k, p, 40000, 400)
    assert row.jumps
    assert row.S == 2 * row.mod.bit_length() + (k + 1).bit_length() + 1
    oracle = _PerCoefficientRow(k, p, 40000, 400)
    for n in (7, 100, 1000, 1024, 3333, 40000):
        assert row.advance(n) == oracle.advance(n), n


def test_a_sweep_holds_one_chunk_at_a_time():
    # consuming a sweep of 2*10^5 n peaks at 26 MB traced when every value
    # is held at once, and at about 55 KB when the row is read in chunks
    tracemalloc.start()
    try:
        for last in vp_H_sweep(200_000, 2, 3):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20, peak
    assert last == (200_000, vp_H(200_000, 2, 3))


def test_sweep_steps_every_integer(monkeypatch):
    # a sweep reads the row at every n, so it never crosses a block
    def no_block(self, e, c):
        raise AssertionError(f"block e={e} taken in a sweep")

    monkeypatch.setattr(_ScaledHRow, "_block", no_block)
    sweep = dict(vp_H_sweep(3000, 3, 3))
    assert all(sweep[n] == exact_vp_H(n, 3, 3) for n in (3, 81, 729, 2187, 3000))


def _direct_block_poly(p, e, A):
    """prod_{0<i<p^e} (p^(e-vp(i)) Z + i/p^vp(i)) mod (p^A, Z^A), factor by factor."""
    if A <= 0:
        return []
    mod = p ** A
    poly = [1]
    for i in range(1, p ** e):
        v = vp_int(i, p)
        slope, const = p ** (e - v), i // p ** v
        out = [0] * min(len(poly) + 1, A)
        for d, c in enumerate(poly):
            out[d] = (out[d] + const * c) % mod
            if d + 1 < A:
                out[d + 1] = (out[d + 1] + slope * c) % mod
        poly = out
    while poly and not poly[-1]:
        poly.pop()
    return poly


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
@pytest.mark.parametrize("v_max", [-30, 1, 12])
def test_block_polynomials_match_the_direct_product(p, v_max):
    # every H_e with p^e <= 3000, built by the top-digit recurrence, against
    # the product of its p^e - 1 linear factors; v_max = -30 leaves A <= 0
    row = _ScaledHRow(3, p, 3000, v_max)
    for e in range(1, ilog(3000, p) + 1):
        assert row._block_poly(e) == _direct_block_poly(p, e, max(row.A, 0)), e


def test_vp_H_matches_exact_expansion_verdicts_past_the_sweep_cap():
    # 8- to 20-digit n extending the root digits of (p, k): the row jumps
    # aligned blocks, the expansion engine walks the digits, and every exact
    # verdict must equal vp_H
    rng = random.Random(20)
    exact_count = 0
    for p, k in [(2, 2), (2, 3), (3, 2), (3, 3), (5, 2), (7, 2)]:
        for _ in range(3):
            target = 10 ** rng.randint(7, 19)
            n = k - 1
            while n < target:
                n = n * p + rng.randrange(p)
            verdict = vp_H_expansion(n, k, p)
            if verdict.is_exact:
                exact_count += 1
                assert vp_H(n, k, p) == verdict.value, (n, k, p)
    assert exact_count >= 12
