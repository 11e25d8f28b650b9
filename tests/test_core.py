import math
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from padicharm.core import (
    a_p_set,
    a_p_set_by_filter,
    bp_count,
    cp,
    free_p,
    ilog,
    is_prime,
    pi_p_mod,
    structure_constants,
    to_digits,
    vp,
    vp_factorial,
    vp_int,
)

PRIMES = [2, 3, 5, 7, 59]


def value_of(digits, p):
    """The integer whose base-p digits, most significant first, are digits."""
    n = 0
    for d in digits:
        n = n * p + d
    return n


@pytest.mark.parametrize(
    "n, p, digits",
    [
        (7, 2, (1, 1, 1)),
        (4, 3, (1, 1)),
        (15, 3, (1, 2, 0)),
        (59, 59, (1, 0)),
        (1, 2, (1,)),
    ],
)
def test_digit_examples(n, p, digits):
    assert to_digits(n, p) == digits
    assert value_of(digits, p) == n


@given(st.integers(min_value=1, max_value=10 ** 5), st.sampled_from(PRIMES))
def test_roundtrip(n, p):
    d = to_digits(n, p)
    assert d[0] != 0
    assert all(0 <= a < p for a in d)
    assert value_of(d, p) == n


def test_digit_rejections():
    with pytest.raises(ValueError):
        to_digits(0, 2)
    with pytest.raises(ValueError):
        to_digits(5, 4)
    with pytest.raises(ValueError, match="prime"):
        to_digits(9, 9)
    with pytest.raises(ValueError, match="prime"):
        bp_count(7, 4)
    with pytest.raises(ValueError, match="positive"):
        bp_count(0, 3)


def test_is_prime_small():
    assert [q for q in range(60) if is_prime(q)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59,
    ]


@pytest.mark.parametrize("i, p, expected", [(3, 3, 4), (5, 2, 9), (5, 5, 6)])
def test_cp_examples(i, p, expected):
    assert cp(i, p) == expected


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_cp_matches_filter(p):
    coprime = [m for m in range(1, 25000) if m % p][:10_000]
    assert [cp(i, p) for i in range(1, 10_001)] == coprime


@given(st.integers(min_value=1, max_value=10 ** 4), st.sampled_from(PRIMES))
def test_cp_strictly_increasing_and_coprime(i, p):
    assert cp(i, p) % p != 0
    assert cp(i + 1, p) > cp(i, p)


def test_vp_examples():
    assert vp(Fraction(25, 12), 5) == 2
    assert vp(Fraction(11, 6), 2) == -1
    assert free_p(24, 2) == 3


def test_vp_refuses_zero():
    for zero in (0, Fraction(0)):
        with pytest.raises(ValueError):
            vp(zero, 7)


def test_vp_int_huge_valuation():
    assert vp_int(3 ** 4321 * 5, 3) == 4321


def _v2_by_halving(x):
    v = 0
    while x % 2 == 0:
        x //= 2
        v += 1
    return v


@given(
    st.integers(min_value=0, max_value=6000),
    st.one_of(st.just(1), st.integers(min_value=1, max_value=2 ** 3000)),
    st.booleans(),
)
def test_vp_int_base_2_matches_halving(e, m, negative):
    # the lowest-set-bit shortcut for p = 2, against repeated halving;
    # m = 1 makes x an exact power of 2
    x = (-1) ** negative * m * 2 ** e
    assert vp_int(x, 2) == _v2_by_halving(x)


@given(
    st.integers(min_value=-500, max_value=500).filter(bool),
    st.integers(min_value=1, max_value=500),
    st.integers(min_value=-500, max_value=500).filter(bool),
    st.integers(min_value=1, max_value=500),
    st.sampled_from([2, 3, 5, 7]),
)
def test_vp_multiplicative(a, b, c, d, p):
    x, y = Fraction(a, b), Fraction(c, d)
    assert vp(x * y, p) == vp(x, p) + vp(y, p)


@pytest.mark.parametrize(
    "n, p, expected", [(10, 2, 8), (9, 3, 4), (6, 7, 0)]
)
def test_vp_factorial_examples(n, p, expected):
    assert vp_factorial(n, p) == expected


def _floor_sum(n, p):
    total, q = 0, p
    while q <= n:
        total += n // q
        q *= p
    return total


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_vp_factorial_floor_sum(p):
    for n in range(0, 3000):
        assert vp_factorial(n, p) == _floor_sum(n, p)


@given(st.integers(min_value=0, max_value=10 ** 6), st.sampled_from([2, 3, 5, 7]))
def test_vp_factorial_floor_sum_random(n, p):
    assert vp_factorial(n, p) == _floor_sum(n, p)


@given(st.integers(min_value=1, max_value=10 ** 30), st.sampled_from([2, 3, 5, 7, 11]))
def test_digit_quantities_match_digit_string(n, p):
    # ilog and vp_factorial divide n down directly; the digit string is
    # the reference
    d = to_digits(n, p)
    assert ilog(n, p) == len(d) - 1
    assert vp_factorial(n, p) == (n - sum(d)) // (p - 1)


@given(st.integers(min_value=-10 ** 6, max_value=0), st.sampled_from([4, 6, 9, 15, 1]))
def test_digit_quantities_reject_bad_input(bad_n, not_prime):
    with pytest.raises(ValueError, match="positive"):
        ilog(bad_n, 3)
    with pytest.raises(ValueError, match="prime"):
        ilog(10, not_prime)
    if bad_n < 0:
        with pytest.raises(ValueError, match="nonnegative"):
            vp_factorial(bad_n, 3)
    with pytest.raises(ValueError, match="prime"):
        vp_factorial(10, not_prime)


def test_bp_block_examples():
    # <1,1>_3 = 4, <1>_2 = 1, <1,2,0>_3 = 15
    assert bp_count(4, 3) == 3 and [cp(i, 3) for i in range(1, bp_count(4, 3) + 1)] == [1, 2, 4]
    assert bp_count(1, 2) == 1 and [cp(i, 2) for i in range(1, bp_count(1, 2) + 1)] == [1]
    assert bp_count(15, 3) == 10


@pytest.mark.parametrize(
    "n, v, p, expected",
    [(7, 1, 2, [2, 6]), (7, 0, 2, [4]), (14, 0, 3, [9])],
)
def test_a_p_set_examples(n, v, p, expected):
    assert a_p_set(n, v, p) == expected
    assert a_p_set_by_filter(n, v, p) == expected


def _slices_by_definition(n, p):
    """[m in [1, n] with vp(m) = s - v] for v = 0..s, by one vp_int per m."""
    s = len(to_digits(n, p)) - 1
    slices = [[] for _ in range(s + 1)]
    for m in range(1, n + 1):
        slices[s - vp_int(m, p)].append(m)
    return slices


def _assert_slices_match_definition(n, p):
    # both kernels are pinned to the definition, not to each other, and
    # the slices for v = 0..s partition [1, n]
    expected = _slices_by_definition(n, p)
    got = [a_p_set(n, v, p) for v in range(len(expected))]
    assert got == expected
    assert [a_p_set_by_filter(n, v, p) for v in range(len(expected))] == expected
    assert sorted(m for sl in got for m in sl) == list(range(1, n + 1))


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_a_p_set_formula_equals_filter(p):
    for n in range(1, 401):
        _assert_slices_match_definition(n, p)


@st.composite
def _slice_inputs(draw):
    p = draw(st.sampled_from([2, 3, 5, 7, 11]))
    kind = draw(st.sampled_from(["any", "power", "below-power"]))
    if kind == "any":
        return draw(st.integers(1, 10**5)), p
    s = draw(st.integers(1, len(to_digits(10**5, p)) - 1))
    return p**s - (kind == "below-power"), p


@settings(max_examples=40, deadline=None)
@given(_slice_inputs())
def test_a_p_set_matches_definition_up_to_1e5(n_p):
    _assert_slices_match_definition(*n_p)


def test_a_p_set_at_2_equals_filter_up_to_4096():
    # at p = 2 the slice is one range of step 2 * scale, with no deletion
    for n in range(1, 4097):
        for v in range(ilog(n, 2) + 1):
            assert a_p_set(n, v, 2) == a_p_set_by_filter(n, v, 2), (n, v)


def test_a_p_set_rejects_bad_v():
    with pytest.raises(ValueError):
        a_p_set(7, 3, 2)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_block_telescoping(p):
    for k in range(2, 201):
        sc = structure_constants(k, p)
        total = sum(bp_count(value_of(sc.root_digits[:v + 1], p), p) for v in range(sc.t + 1))
        assert total == k - 1


@pytest.mark.parametrize("p", [2, 3, 5])
def test_top_slice_count(p):
    for k in range(2, 101):
        sc = structure_constants(k, p)
        for n in ((k - 1) * p, (k - 1) * p * p + 1):
            union = set()
            for v in range(sc.t + 1):
                union.update(a_p_set(n, v, p))
            assert len(union) == k - 1


def test_structure_constants_examples():
    sc = structure_constants(2, 2)
    assert (sc.t, sc.U, sc.W) == (0, 1, 0)
    sc = structure_constants(5, 3)
    assert (sc.t, sc.U, sc.W) == (1, 5, 3)
    assert sc.root_digits == (1, 1) == to_digits(4, 3)
    with pytest.raises(ValueError):
        structure_constants(1, 3)


def _brute_v_max(n, k, p):
    return max(
        sum(vp_int(i, p) for i in combo)
        for combo in combinations(range(1, n + 1), k)
    )


def test_v_p_max_examples():
    # the largest valuation of an increasing k-tuple below p^(s+1) is k*s - U
    assert 2 * 2 - structure_constants(2, 2).U == 3
    assert _brute_v_max(7, 2, 2) == 3


@pytest.mark.parametrize("p, k", [(2, 2), (2, 3), (3, 2), (3, 4), (5, 2)])
def test_v_p_max_brute(p, k):
    sc = structure_constants(k, p)
    for extra in range(1, 3):
        s = sc.t + extra
        # largest n with the right digit prefix and s + 1 digits
        n = k * p ** extra - 1
        if math.comb(n, k) <= 60_000:
            assert _brute_v_max(n, k, p) == k * s - sc.U


def test_pi_p_mod_examples():
    assert pi_p_mod(5, 3, 2) == 8
    assert pi_p_mod(3, 3, 1) == 2
    for M in (1, 3, 10):
        assert pi_p_mod(2, 2, M) == 1


@pytest.mark.parametrize("p, k", [(3, 5), (5, 7), (7, 11), (2, 9)])
def test_pi_p_mod_is_unit_inverse(p, k):
    M = 6
    mod = p ** M
    sc = structure_constants(k, p)
    prod = 1
    for v in range(sc.t + 1):
        for i in range(1, bp_count(value_of(sc.root_digits[:v + 1], p), p) + 1):
            prod = prod * cp(i, p) % mod
    assert prod * pi_p_mod(k, p, M) % mod == 1
    assert pi_p_mod(k, p, M) % p != 0
