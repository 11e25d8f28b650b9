import importlib.util
import math
import os
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from padicharm.core import (
    EngineDisagreement,
    PrecisionError,
    _harmonic_residues,
    bp_count,
    cp,
    ilog,
    structure_constants,
    to_digits,
    vp,
    vp_int,
)
from padicharm import expansion
from padicharm.expansion import (
    _DIRECT_LIMIT,
    ExpansionVerdict,
    _WalkNode,
    _closed_weights,
    _index_power_sums,
    _recip_esym_direct,
    _recip_esym_newton,
    _recip_power_sum_closed,
    _recip_power_sum_direct,
    h_p_mod,
    h_prime_mod,
    recip_esym,
    recip_power_sum,
    vp_H_expansion,
)
from padicharm.tree import build_tree, f_sequence
from padicharm.valuation import exact_H, vp_H


def frac_mod(q: Fraction, p: int, M: int) -> int:
    mod = p ** M
    assert q.denominator % p != 0
    return q.numerator * pow(q.denominator, -1, mod) % mod


# --- reference oracles, exact Fractions all the way -----------------------

def value_of(digits, p):
    """The integer whose base-p digits, most significant first, are digits."""
    n = 0
    for d in digits:
        n = n * p + d
    return n


def digit_prefixes(n, p):
    """The digit prefixes of n, shortest first, each read off its digits."""
    d = to_digits(n, p)
    return [value_of(d[:w + 1], p) for w in range(len(d))]


def block(n, p):
    """Members cp(1), ..., cp(bp_count(n, p)) of the coprime block of n."""
    return [cp(i, p) for i in range(1, bp_count(n, p) + 1)]


def ref_pi(k, p):
    prod = Fraction(1)
    for head in digit_prefixes(k - 1, p):
        for j in block(head, p):
            prod /= j
    return prod


def ref_items(n, k, p):
    sc = structure_constants(k, p)
    heads = digit_prefixes(n, p)
    items = []
    for w, head in enumerate(heads):
        for j in block(head, p):
            items.append((w, j))
    return items, sc.U + len(heads) - sc.t - 1


def ref_h_prime(n, k, p):
    items, budget = ref_items(n, k, p)
    total = Fraction(0)
    for combo in combinations(items, k):
        if sum(w for w, _ in combo) == budget:
            total += Fraction(1, math.prod(j for _, j in combo))
    return total


def h_prime_streamed(n, k, p, M):
    """h' mod p^M by an item-by-item DP; cost is linear in n."""
    sc = structure_constants(k, p)
    heads = digit_prefixes(n, p)
    budget = sc.U + len(heads) - sc.t - 1
    mod = p ** M
    dp = [[0] * (budget + 1) for _ in range(k + 1)]
    dp[0][0] = 1
    for w, head in enumerate(heads):
        for j in block(head, p):
            inv = pow(j, -1, mod)
            for c in range(k - 1, -1, -1):
                row = dp[c]
                for W in range(budget - w, -1, -1):
                    if row[W]:
                        dp[c + 1][W + w] = (dp[c + 1][W + w] + row[W] * inv) % mod
    return dp[k][budget]


def ref_h_p(n, k, p):
    total = sum((Fraction(1, j) for j in block(n, p)), Fraction(0))
    return ref_h_prime(digit_prefixes(n, p)[-2], k, p) + ref_pi(k, p) * total


def ref_sigma(n, k, p):
    sc = structure_constants(k, p)
    heads = digit_prefixes(n, p)[sc.t + 1:]
    return sum((ref_h_p(head, k, p) * p ** v for v, head in enumerate(heads)), Fraction(0))


# --- reciprocal power sums and symmetric sums ------------------------------

STORED = (recip_esym, recip_power_sum, _closed_weights, _index_power_sums)


def clear_stores():
    for fn in STORED:
        fn.cache_clear()


@pytest.mark.parametrize(
    "B, r, p, M",
    [(5, 1, 3, 2), (3, 2, 3, 2), (1000, 3, 5, 8), (777, 1, 2, 20), (123, 4, 7, 5), (0, 1, 3, 4)],
)
def test_power_sum_closed_equals_direct(B, r, p, M):
    assert _recip_power_sum_closed(B, r, p, M) == _recip_power_sum_direct(B, r, p, M)


@given(
    st.integers(min_value=0, max_value=3000),
    st.integers(min_value=1, max_value=6),
    st.sampled_from([2, 3, 5, 7]),
    st.integers(min_value=1, max_value=16),
)
@settings(max_examples=60)
def test_power_sum_closed_equals_direct_random(B, r, p, M):
    assert _recip_power_sum_closed(B, r, p, M) == _recip_power_sum_direct(B, r, p, M)


@given(
    st.integers(min_value=0, max_value=400),
    st.integers(min_value=1, max_value=10),
    st.sampled_from([2, 3, 5, 7]),
    st.integers(min_value=1, max_value=80),
)
@settings(max_examples=150)
def test_power_sum_closed_equals_direct_deep_precision(B, r, p, M):
    # deep walks run at M of about 35-65
    assert _recip_power_sum_closed(B, r, p, M) == _recip_power_sum_direct(B, r, p, M)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("Q", [0, 1])
def test_power_sum_closed_first_blocks_every_tail(p, Q):
    for m0 in range(p - 1):
        B = Q * (p - 1) + m0
        for r in range(1, 11):
            for M in (1, 2, 40, 80):
                assert _recip_power_sum_closed(B, r, p, M) == _recip_power_sum_direct(B, r, p, M)


def exact_falling_terms(Q, M):
    """f_i = Q(Q-1)...(Q-i) / (i+1) for i < M from the exact running product."""
    falling, product = [], Q
    for i in range(M):
        falling.append(product // (i + 1))
        product *= Q - i - 1
    return falling


def index_power_sums_exact(Q, p, M):
    """_index_power_sums from exact products: the first min(Q, M) terms mod p^M."""
    mod = p ** M
    return tuple(f % mod for f in exact_falling_terms(Q, min(Q, M)))


def full_blocks_by_index_powers(Q, r, p, M):
    """The Q full blocks in the closed form's ungrouped shape, mod p^M:
    sum_j (-1)^j C(r+j-1, j) T(r+j) p^j F_j, with T(u) the sum of m^(-u)
    over the units m < p and F_j = sum_{q<Q} q^j = sum_i S2(j, i) f_i from
    an exact Stirling triangle of the second kind."""
    mod = p ** M
    s2 = [[1]]
    for j in range(1, M):
        prev = s2[-1] + [0]
        s2.append([0] + [prev[i - 1] + i * prev[i] for i in range(1, j + 1)])
    falling = exact_falling_terms(Q, M)
    total = 0
    for j in range(M):
        F = sum(c * f for c, f in zip(s2[j], falling))
        T = sum(pow(m, -(r + j), mod) for m in range(1, p))
        total += (-1) ** j * math.comb(r + j - 1, j) * T * p ** j * F
    return total % mod


def test_index_power_oracle_sums_block_indices():
    # F_j is the power sum of the block indices, so one full block at a
    # time the oracle is the direct sum over q of the binomial series
    for p, Q, r, M in ((2, 7, 1, 9), (3, 5, 2, 6), (5, 4, 3, 5), (7, 1, 1, 4)):
        mod = p ** M
        direct = sum(pow(p * q + m, -r, mod) for q in range(Q) for m in range(1, p)) % mod
        assert full_blocks_by_index_powers(Q, r, p, M) == direct


@given(
    st.one_of(st.integers(min_value=0, max_value=500), st.integers(min_value=3 ** 20, max_value=2 ** 80)),
    st.integers(min_value=1, max_value=10),
    st.sampled_from([2, 3, 5, 7]),
    st.integers(min_value=1, max_value=40),
)
@settings(max_examples=60)
def test_closed_weights_regroup_the_index_power_form(Q, r, p, M):
    terms = _index_power_sums(Q, p, M)
    regrouped = sum(w * f for w, f in zip(_closed_weights(r, p, M), terms)) % p ** M
    assert regrouped == full_blocks_by_index_powers(Q, r, p, M)


@st.composite
def _index_cases(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    M = draw(st.integers(min_value=1, max_value=300))
    Q = draw(st.one_of(
        st.integers(min_value=0, max_value=1),
        st.integers(min_value=0, max_value=M - 1),  # every term kept
        st.integers(min_value=0, max_value=2 ** 400 // p).map(lambda q: q * p),
        st.integers(min_value=0, max_value=2 ** 400),
    ))
    return Q, p, M


@given(_index_cases())
@example((2 ** 400 + 12345, 2, 64))  # M a prime power: lcm(1..64) needs 2^6
@example((3 ** 200 - 1, 3, 61))
@example((5 ** 150, 5, 300))
@example((29, 7, 30))
@settings(max_examples=60, deadline=None)
def test_index_power_sums_match_the_exact_products(case):
    Q, p, M = case
    assert _index_power_sums(Q, p, M) == index_power_sums_exact(Q, p, M)


def warm_and_cold(call, requests):
    """The answers to requests made in turn on shared stores, and the same
    calls each made on empty stores."""
    clear_stores()
    warm = [call(*request) for request in requests]
    cold = []
    for request in requests:
        clear_stores()
        cold.append(call(*request))
    return warm, cold


_BLOCK_COUNTS = st.one_of(st.integers(min_value=0, max_value=400),
                          st.integers(min_value=401, max_value=2 ** 80))
_PRECISIONS = st.lists(st.integers(min_value=1, max_value=80), min_size=2, max_size=6)


@given(_BLOCK_COUNTS, st.integers(min_value=1, max_value=6), st.sampled_from([2, 3, 5, 7]),
       _PRECISIONS)
@settings(max_examples=50, deadline=None)
def test_power_sum_store_answers_as_if_cold(B, r, p, precisions):
    warm, cold = warm_and_cold(lambda M: recip_power_sum(B, r, p, M), [(M,) for M in precisions])
    assert warm == cold
    if B <= 400:
        assert warm == [_recip_power_sum_direct(B, r, p, M) for M in precisions]


@given(_BLOCK_COUNTS, st.sampled_from([2, 3, 5, 7]),
       st.lists(st.tuples(st.integers(min_value=0, max_value=9),
                          st.integers(min_value=1, max_value=60)), min_size=2, max_size=6))
@settings(max_examples=40, deadline=None)
def test_esym_store_answers_as_if_cold(B, p, requests):
    warm, cold = warm_and_cold(lambda m, M: recip_esym(B, m, p, M), requests)
    assert warm == cold
    if B <= 400:
        assert warm == [_recip_esym_direct(B, min(m, B), p, M) for m, M in requests]


@given(st.integers(min_value=1, max_value=10), st.sampled_from([2, 3, 5, 7]),
       st.lists(st.integers(min_value=1, max_value=100), min_size=2, max_size=6))
@settings(max_examples=40, deadline=None)
def test_weight_store_answers_as_if_cold(r, p, precisions):
    warm, cold = warm_and_cold(lambda M: _closed_weights(r, p, M), [(M,) for M in precisions])
    assert warm == cold


@given(_BLOCK_COUNTS, st.sampled_from([2, 3, 5, 7]),
       st.lists(st.integers(min_value=1, max_value=120), min_size=2, max_size=6))
@settings(max_examples=50, deadline=None)
def test_index_store_answers_as_if_cold(Q, p, precisions):
    warm, cold = warm_and_cold(lambda M: _index_power_sums(Q, p, M), [(M,) for M in precisions])
    assert warm == cold
    assert warm == [index_power_sums_exact(Q, p, M) for M in precisions]


def test_dispatch_agrees_with_the_direct_scans_at_the_crossover(monkeypatch):
    routes = []
    for name in ("_recip_power_sum_direct", "_recip_power_sum_closed",
                 "_recip_esym_direct", "_recip_esym_newton"):
        real = getattr(expansion, name)
        monkeypatch.setattr(
            expansion, name,
            lambda *args, _real=real, _name=name: routes.append(_name) or _real(*args))
    for p in (2, 3, 5, 7):
        for M in (12, 72):
            for B in (_DIRECT_LIMIT, _DIRECT_LIMIT + 1):
                for r in (1, 2, 5):
                    clear_stores()
                    del routes[:]
                    assert recip_power_sum(B, r, p, M) == _recip_power_sum_direct(B, r, p, M)
                    assert routes[0] == ("_recip_power_sum_direct" if B <= _DIRECT_LIMIT
                                         else "_recip_power_sum_closed")
                for m in (1, 2, 8):
                    clear_stores()
                    del routes[:]
                    assert recip_esym(B, m, p, M) == _recip_esym_direct(B, m, p, M)
                    assert routes[0] == ("_recip_esym_direct" if B <= _DIRECT_LIMIT
                                         else "_recip_esym_newton")


def test_power_sum_direct_small_matches_fractions():
    total = Fraction(0)
    from padicharm.core import cp

    for i in range(1, 26):
        total += Fraction(1, cp(i, 3) ** 2)
    assert recip_power_sum(25, 2, 3, 6) == frac_mod(total, 3, 6)


@pytest.mark.parametrize(
    "B, m, p, M",
    [(50, 4, 3, 6), (120, 6, 2, 10), (88, 5, 5, 4), (200, 7, 3, 8), (64, 3, 7, 7)],
)
def test_esym_newton_equals_direct(B, m, p, M):
    assert _recip_esym_newton(B, m, p, M) == _recip_esym_direct(B, m, p, M)


@given(
    st.integers(min_value=1, max_value=400),
    st.integers(min_value=1, max_value=7),
    st.sampled_from([2, 3, 5]),
    st.integers(min_value=1, max_value=10),
)
@settings(max_examples=60)
def test_esym_newton_equals_direct_random(B, m, p, M):
    m = min(m, B)
    assert _recip_esym_newton(B, m, p, M) == _recip_esym_direct(B, m, p, M)


@given(
    st.integers(min_value=_DIRECT_LIMIT + 1, max_value=400),
    st.integers(min_value=1, max_value=8),
    st.sampled_from([2, 3, 5, 7]),
    st.integers(min_value=1, max_value=80),
)
@settings(max_examples=60)
def test_esym_newton_equals_direct_deep_precision(B, m, p, M):
    # the Newton route takes over right above the crossover, at walk precision
    assert _recip_esym_newton(B, m, p, M) == _recip_esym_direct(B, m, p, M)


@pytest.mark.parametrize("p", [2, 3, 7])
@pytest.mark.parametrize("r", [1, 2, 4])
def test_power_sum_closed_difference_identity_at_scale(p, r):
    # far beyond direct reach: consecutive prefix sums must differ by the
    # inverse power of the next coprime value
    from padicharm.core import cp

    M = 12
    mod = p ** M
    for B in (3 ** 20 + 11, 5 ** 14, 2 ** 40 + 1):
        hi = _recip_power_sum_closed(B, r, p, M)
        lo = _recip_power_sum_closed(B - 1, r, p, M)
        assert (hi - lo) % mod == pow(cp(B, p), -r, mod)


def test_recip_esym_degree_cap():
    assert recip_esym(2, 5, 3, 4) == _recip_esym_direct(2, 2, 3, 4)


def test_recip_esym_rejects_composite_p():
    # the scans inline cp(i, p), so p is validated at the entry point
    with pytest.raises(ValueError):
        recip_esym(5, 2, 4, 3)
    with pytest.raises(ValueError):
        recip_esym(0, 0, 4, 3)


# --- h_prime / h_p / sigma --------------------------------------------------

def per_child_sigma(node, sigma, b):
    """The sigma mod p^top of child b of node, a walk node whose own sigma
    is sigma, by the per-child rule that the harmonic rule replaced: add the
    child's h_p term, node's h' plus pi times the reciprocal sum over the
    child's whole block, times p^depth.  The oracle of _WalkNode.expansion."""
    p = node.sc.p
    h_p = node.h_prime + node.pi * recip_power_sum(node.value * (p - 1) + b, 1, p, node.top)
    return (sigma + h_p * p ** node.depth) % p ** node.top


def oracle_sigmas(n, k, p, M):
    """per_child_sigma of each prefix of n past the root, in turn, on a
    walk at precision M through any digits, members or not."""
    node, sigma, out = _WalkNode.root(k, p, M), 0, []
    for b in to_digits(n, p)[node.sc.t + 1:]:
        sigma = per_child_sigma(node, sigma, b)
        out.append(sigma)
        node = node.child(b)
    return out


def walk_sigma(n, k, p, M):
    return oracle_sigmas(n, k, p, M)[-1]


def test_h_prime_examples():
    # <1>_2 = 1, <1,1>_2 = 3, <1,1>_3 = 4
    assert h_prime_mod(1, 2, 2, 3) == 0
    assert h_prime_mod(3, 2, 2, 3) == 3
    brute = ref_h_prime(4, 5, 3)
    assert h_prime_mod(4, 5, 3, 1) == frac_mod(brute, 3, 1)


def _random_prefix(rng, p, k, max_extra):
    n = k - 1
    for _ in range(rng.randint(0, max_extra)):
        n = n * p + rng.randrange(p)
    return n


def _random_child(rng, n, p):
    return n * p + rng.randrange(p)


@pytest.mark.parametrize("p, k", [(2, 2), (2, 3), (3, 2), (3, 3), (3, 5), (5, 2)])
def test_h_prime_three_routes_agree(p, k):
    rng = random.Random(1000 * p + k)
    checked = 0
    for _ in range(12):
        prefix = _random_prefix(rng, p, k, 3)
        # the enumeration oracle walks C(value, k) subsets; keep that sane
        if prefix > 260 or math.comb(prefix, k) > 300_000:
            continue
        M = rng.randint(1, 6)
        grouped = h_prime_mod(prefix, k, p, M)
        streamed = h_prime_streamed(prefix, k, p, M)
        brute = frac_mod(ref_h_prime(prefix, k, p), p, M)
        assert grouped == streamed == brute, (prefix, k, M)
        checked += 1
    assert checked >= 3


def test_h_prime_streamed_agrees_on_larger_prefixes():
    # beyond what the combination oracle can enumerate
    rng = random.Random(7)
    for p, k in [(2, 2), (3, 3)]:
        for _ in range(4):
            prefix = _random_prefix(rng, p, k, 7)
            M = 6
            assert h_prime_mod(prefix, k, p, M) == h_prime_streamed(prefix, k, p, M)


def test_h_prime_rejects_wrong_root():
    with pytest.raises(ValueError):
        h_prime_mod(6, 2, 3, 3)  # 6 = <2,0>_3; the root of k-1=1 is <1>


def test_h_p_examples():
    # <1,1>_2 = 3, <1,0>_2 = 2, <1,1,0>_2 = 6
    assert h_p_mod(3, 2, 2, 3) == frac_mod(Fraction(4, 3), 2, 3)
    assert h_p_mod(2, 2, 2, 3) == 1
    assert h_p_mod(6, 2, 2, 3) == frac_mod(
        Fraction(1, 3) + Fraction(23, 15), 2, 3
    )


@pytest.mark.parametrize("p, k", [(2, 2), (3, 2), (3, 4), (5, 3)])
def test_h_p_matches_fraction_oracle_and_is_integral(p, k):
    rng = random.Random(31 * p + k)
    for _ in range(5):
        prefix = _random_child(rng, _random_prefix(rng, p, k, 2), p)
        if prefix > 260:
            continue
        value = ref_h_p(prefix, k, p)
        assert value == 0 or vp(value, p) >= 0
        for M in (1, 3, 5):
            assert h_p_mod(prefix, k, p, M) == frac_mod(value, p, M)


def test_sigma_examples():
    # frozen from the Fraction oracle: sigma(<1,1>_2 = 3) = 4/3, ord 2
    assert ref_sigma(3, 2, 2) == Fraction(4, 3)
    s = walk_sigma(3, 2, 2, 5)
    assert s == 12 and vp_int(s, 2) == 2
    # sigma(<1,1,0>_2 = 6) = 76/15, ord 2
    assert ref_sigma(6, 2, 2) == Fraction(76, 15)
    s = walk_sigma(6, 2, 2, 5)
    assert s == 20 and vp_int(s, 2) == 2
    # sigma(<1,1,1>_2 = 7) = 562/105 carries only one factor of 2
    assert ref_sigma(7, 2, 2) == Fraction(562, 105)
    s = walk_sigma(7, 2, 2, 5)
    assert vp_int(s, 2) == 1
    # the walk gives the members <1,1> and <1,1,0> those sigmas, and makes
    # <1,1,1> a leaf (None) under a node of depth u = 1, that valuation
    node = _WalkNode.root(2, 2, 5).expansion()[1]
    assert node.sigma == 12 and node.expansion()[0].sigma == 20
    assert node.expansion()[1] is None and node.depth == 1


@pytest.mark.parametrize("p, k", [(2, 2), (3, 2), (3, 3)])
def test_sigma_matches_fraction_oracle(p, k):
    rng = random.Random(17 * p + k)
    for _ in range(4):
        prefix = _random_child(rng, _random_prefix(rng, p, k, 2), p)
        if prefix > 230:
            continue
        assert walk_sigma(prefix, k, p, 6) == frac_mod(ref_sigma(prefix, k, p), p, 6)


@given(st.sampled_from([2, 3, 5]), st.integers(min_value=2, max_value=5), st.data())
@settings(max_examples=30, deadline=None)
def test_walk_matches_from_scratch_dp(p, k, data):
    # The walk's tables keep budgets up to U + M and h_prime_mod's up to
    # the node's own budget, so the two prune them differently.
    sc = structure_constants(k, p)
    depth = data.draw(st.integers(min_value=sc.U + 1, max_value=sc.U + 2), label="depth")
    path = data.draw(st.lists(st.integers(0, p - 1), min_size=depth, max_size=depth), label="path")
    # A node's table is exact mod p^(its precision), max(M - depth, 1);
    # the per-child sigma oracle, which reads the walk's tables, is compared
    # at the root's full precision M, whose reach covers the path.
    M = data.draw(st.integers(min_value=depth, max_value=depth + 4), label="M")
    mod = p ** M
    node = _WalkNode.root(k, p, M)
    sigma = 0
    for b in path:
        node_mod = p ** node.M
        assert node.M == max(M - node.depth, 1)
        assert node.h_prime % node_mod == h_prime_mod(node.value, k, p, node.M), node.value
        if node.value <= 2000:  # the streamed oracle is linear in the value
            assert node.h_prime % node_mod == h_prime_streamed(node.value, k, p, node.M)
        child = node.child(b)
        oracle = per_child_sigma(node, sigma, b)
        sigma = (sigma + h_p_mod(child.value, k, p, M) * p ** node.depth) % mod
        assert oracle == sigma, child.value
        node = child
    assert node.h_prime % p ** node.M == h_prime_mod(node.value, k, p, node.M)


def test_walk_folds_each_node_once(monkeypatch):
    # Each reach folds the root's own digits once, at U + reach.  At a
    # reach, every node the walk expands below the root folds exactly one
    # group onto its parent's table.  A lift folds one group for each
    # distinct proper prefix of its frontier below the root, and nothing
    # else: the frontier nodes fold theirs when the walk expands them.
    events = []
    real_fold, real_add_group = expansion._fold, expansion._add_group

    def fold(n, s, k, p, limit, M):
        events.append(("fold", n, s, limit))
        return real_fold(n, s, k, p, limit, M)

    def add_group(dp, B, w, *args):
        events.append((w, B))
        return real_add_group(dp, B, w, *args)

    def group(node):
        return ilog(node, p), node - node // p

    monkeypatch.setattr(expansion, "_fold", fold)
    monkeypatch.setattr(expansion, "_add_group", add_group)
    lifts = {}
    for p, k, depth in [(3, k, 32) for k in range(2, 9)] + [(5, 2, 32), (2, 2, 64),
                                                            (3, 14, 20), (7, 5, 12), (3, 9, 128)]:
        events.clear()
        tree = build_tree(p, k, depth, engine="expansion")
        sc = tree.constants
        root_groups = [group(head) for head in digit_prefixes(k - 1, p)]
        # a level below the walk's reach means it went past that reach and lifted
        reaches = [expansion._next_reach(0, depth, p)]
        while reaches[-1] < len(tree.levels) - 1:
            reaches.append(expansion._next_reach(reaches[-1], depth, p))
        if len(reaches) > 1:
            lifts[p, k, depth] = len(reaches) - 1
        expected = []
        for start, reach in zip([0] + reaches, reaches):
            # the lift re-walks the ancestors of level start, and the nodes of
            # levels start .. reach - 1 have children to decide
            prefixes, layer = set(), set(tree.levels[start])
            for _ in range(start - 1):
                layer = {node // p for node in layer}
                prefixes |= layer
            expected.append(root_groups + [group(node) for node in prefixes]
                            + [group(node) for level in tree.levels[max(start, 1):reach]
                               for node in level])
        starts = [i for i, event in enumerate(events) if event[0] == "fold"]
        assert [events[i] for i in starts] == [("fold", k - 1, sc.t, sc.U + r) for r in reaches]
        for i, j, want in zip(starts, starts[1:] + [len(events)], expected):
            assert len(set(events[i + 1:j])) == j - i - 1
            assert sorted(events[i + 1:j]) == sorted(want)
    # T_3(9) outlives the cap: 16 -> 32 -> 64 -> 128; the T_2(2) chain starts at its cap
    assert lifts == {(5, 2, 32): 1, (3, 14, 20): 1, (3, 9, 128): 3}


@pytest.mark.parametrize("engine", ["expansion", "both"])
def test_lifted_builds_equal_unlifted_ones(monkeypatch, engine):
    # A first reach of 1 lifts every build that passes level 1; a first
    # reach of max_depth never lifts.  Both must decide every level, leaf
    # and recorded valuation as the default schedule does, under which
    # (5, 5, 128) lifts twice, 16 -> 32 -> 64, and closes at depth 36.
    builds = [(3, k, 32) for k in range(2, 9)] + [(5, 2, 32), (3, 14, 20), (7, 5, 12),
                                                  (2, 2, 64), (5, 5, 128)]

    def run(first_pass):
        shapes = []
        for p, k, depth in builds:
            monkeypatch.setattr(expansion, "_FIRST_PASS", first_pass or depth)
            vp_H_expansion.cache_clear()
            tree = build_tree(p, k, depth, engine=engine)
            records = dict(expansion._DECIDED.entries)
            shapes.append((tree.levels, tree.leaves, tree.status, tree.stats, tree.dual_checks,
                           records))
        return shapes

    default = run(expansion._FIRST_PASS)
    assert run(1) == default
    assert run(None) == default  # None: each build's max_depth


def test_tree_reach_schedule(monkeypatch):
    tops = []
    root = _WalkNode.root.__func__

    def recording_root(cls, k, p, M):
        tops.append(M)
        return root(cls, k, p, M)

    monkeypatch.setattr(_WalkNode, "root", classmethod(recording_root))

    def reaches(build, *args):
        tops.clear()
        build(*args)
        return tops[:]

    assert expansion._FIRST_PASS == 16
    # T_3(7) closes at depth 11, inside the first reach, whatever the cap
    assert reaches(build_tree, 3, 7, 32) == [16]
    assert reaches(build_tree, 3, 7, 1000) == [16]
    # T_5(2) has a frontier at level 16 and lifts once, to 2 * 16 = the cap
    assert reaches(build_tree, 5, 2, 32) == [16, 32]
    # a p = 2 tree is a chain, so its walk starts at the cap
    assert reaches(f_sequence, 64) == [64]
    assert reaches(f_sequence, 14) == [14]
    # the reach doubles up to the cap: T_5(5) closes at depth 36, T_3(12)
    # at depth 18, T_3(9) at depth 164
    assert reaches(build_tree, 5, 5, 1000) == [16, 32, 64]
    assert reaches(build_tree, 3, 12, 1000) == [16, 32]
    assert reaches(build_tree, 3, 9, 200) == [16, 32, 64, 128, 200]
    # the chain never closes, and it never lifts
    assert reaches(f_sequence, 200) == [200]
    assert reaches(build_tree, 2, 5, 40) == [40]


def test_walk_refuses_to_read_past_its_reach():
    # A walk carrying sigma mod p^M reads h' down to depth M; deeper, its
    # tables have dropped the budgets, so h' must raise, not read 0.  The
    # harmonic rule reads digit u of a depth-u node's sigma, so a node at
    # depth M cannot decide its children.
    for p, k, M in [(2, 2, 1), (2, 2, 6), (3, 3, 4), (5, 2, 3)]:
        node = _WalkNode.root(k, p, M)
        for _ in range(M):
            node = node.child(p - 1)
        assert node.h_prime % p ** node.M == h_prime_mod(node.value, k, p, node.M)
        with pytest.raises(PrecisionError):
            node.child(p - 1).h_prime
        with pytest.raises(PrecisionError):
            node.expansion()


def harmonic_residues(p):
    """H_b mod p for b = 0..p-1, from exact Fractions."""
    out, h = [], Fraction(0)
    for b in range(p):
        if b:
            h += Fraction(1, b)
        out.append(h.numerator * pow(h.denominator, -1, p) % p)
    return out


def most_harmonic_repeats(p):
    """N_p, the most b in 0..p-1 whose H_b share one residue mod p."""
    residues = harmonic_residues(p)
    return max(map(residues.count, residues))


def test_harmonic_residues_and_their_repeats():
    for p in (2, 3, 5, 7, 11, 13):
        assert list(_harmonic_residues(p)) == harmonic_residues(p)
    assert [most_harmonic_repeats(p) for p in (2, 3, 5, 7, 11, 13)] == [1, 2, 2, 2, 4, 4]


@pytest.mark.parametrize("p, k, depth", [(3, k, 32) for k in range(2, 9)]
                         + [(5, 2, 32), (7, 5, 40), (13, 4, 40)])
def test_harmonic_rule_decides_every_child_as_sigma_does(p, k, depth):
    # The oracle is the per-child sigma rule: child b of a member at depth u
    # is a member iff its sigma vanishes mod p^(u+1).  The harmonic rule
    # (_WalkNode.expansion) must split every child of every node the same
    # way, give each member the oracle's sigma, and record each leaf, whose
    # length gives the oracle sigma's valuation, u.  One walk at the full
    # reach, so nothing lifts.
    tree = build_tree(p, k, depth, engine="expansion")
    recorded = {key[2] for key in expansion._DECIDED.entries if key[:2] == (k, p)}
    root_len = structure_constants(k, p).t + 1
    frontier, levels, leaves = [_WalkNode.root(k, p, depth)], [], []
    for u in range(depth + 1):
        levels.append([node.value for node in frontier])
        if not frontier or u == depth:
            break
        next_frontier = []
        for node in frontier:
            for b, child in enumerate(node.expansion()):
                oracle = per_child_sigma(node, node.sigma, b)
                if child is not None:
                    assert oracle % p ** (u + 1) == 0 and child.sigma == oracle, child.value
                    next_frontier.append(child)
                else:
                    assert vp_int(oracle, p) == u, (node.value, b)
                    leaf = node.value * p + b
                    recorded.remove(leaf)
                    assert len(to_digits(leaf, p)) - root_len - 1 == u
                    leaves.append(leaf)
        frontier = next_frontier
    assert (levels, leaves) == (tree.levels, tree.leaves)
    assert recorded == set()  # every leaf recorded, and nothing else
    assert tree.stats.max_children <= most_harmonic_repeats(p)


@pytest.mark.parametrize("p, depth", [(3, 30), (5, 20), (7, 20), (11, 12), (13, 12)])
def test_some_node_has_n_p_member_children(p, depth):
    # N_p bounds every node's member children; over k = 2..15 some node of
    # some T_p(k) reaches it, so the bound is attained, not only kept
    widest = max(build_tree(p, k, depth, engine="expansion").stats.max_children
                 for k in range(2, 16))
    assert widest == most_harmonic_repeats(p)


def test_derived_walk_precision_needs_no_extra_digits(monkeypatch):
    # Tree builds and vp_H_expansion carry exactly the digits their tests
    # read; walks that carry 8 more must decide everything the same way.
    trees = [(3, 7, 32), (2, 2, 64), (3, 14, 40)]
    rng = random.Random(2024)
    inputs = []
    while len(inputs) < 200:
        p, k = rng.choice([2, 3, 5, 7]), rng.randint(2, 8)
        n = k - 1
        for _ in range(len(to_digits(k - 1, p)) + rng.randint(1, 30)):
            n = n * p + rng.randrange(p)
        inputs.append((n, k, p))

    def run():
        shapes = [
            (tree.levels, tree.leaves)
            for tree in (build_tree(p, k, depth, engine="expansion") for p, k, depth in trees)
        ]
        vp_H_expansion.cache_clear()  # every call walks, not reads the builds' leaves
        return shapes, [vp_H_expansion(n, k, p) for n, k, p in inputs]

    derived = run()
    root = _WalkNode.root.__func__
    monkeypatch.setattr(
        _WalkNode, "root", classmethod(lambda cls, k, p, M: root(cls, k, p, M + 8))
    )
    assert run() == derived


# --- expansion verdicts -----------------------------------------------------

def test_vp_H_expansion_examples():
    v = vp_H_expansion(5, 2, 2)
    assert v.is_exact and v.value == -3
    v = vp_H_expansion(7, 2, 2)
    assert v.is_exact and v.value == -2
    # every computed term of n=6 vanishes to the tail threshold, so the
    # verdict is the (tight) lower bound; the true valuation is also -1
    v = vp_H_expansion(6, 2, 2)
    assert not v.is_exact and v.value == -1
    assert vp(exact_H(6, 2), 2) == -1


def top_down_verdict(n, k, p):
    """vp_H_expansion as one walk at the full p^(s - t): the reference for
    its passes."""
    sc = structure_constants(k, p)
    s = len(to_digits(n, p)) - 1
    for v, acc in enumerate(oracle_sigmas(n, k, p, s - sc.t)):
        if acc and vp_int(acc, p) <= v:
            return ExpansionVerdict(exact_valuation=sc.U + vp_int(acc, p) - k * s)
    return ExpansionVerdict(lower_bound=(s - sc.t) - k * s + sc.U)


def deep_expansion_inputs(seeds):
    """The (n, k, p) of the benchmark's deep-expansion vp_H_expansion calls."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    golden = workloads.load_golden()
    return [tuple(op["vpx"]) for seed in seeds
            for op in workloads.make_ops("deep-expansion", seed, golden) if "vpx" in op]


@pytest.mark.parametrize("first_pass", [1, expansion._FIRST_PASS])
def test_vp_H_expansion_passes_equal_the_top_down_walk(monkeypatch, first_pass):
    # a first pass of 1 digit is the longest run of passes
    monkeypatch.setattr(expansion, "_FIRST_PASS", first_pass)
    rng = random.Random(16)
    inputs = []
    while len(inputs) < 300:
        p, k = rng.choice([2, 3, 5, 7]), rng.randint(2, 8)
        digits = to_digits(k - 1, p)
        digits += tuple(rng.randrange(p) for _ in range(rng.randint(1, 60)))
        inputs.append((value_of(digits, p), k, p))
    # these start at the deepest level of their tree, so they decide deep
    inputs += deep_expansion_inputs(range(1, 6))
    for n, k, p in inputs:
        assert vp_H_expansion(n, k, p) == top_down_verdict(n, k, p), (n, k, p)


@pytest.mark.parametrize("first_pass", [1, expansion._FIRST_PASS])
def test_vp_H_expansion_chain_prefixes_keep_the_lower_bound(monkeypatch, first_pass):
    # every prefix of the T_2(2) chain is a tree node, so every pass fails
    # and only the last one, at s - t digits, returns the bound
    monkeypatch.setattr(expansion, "_FIRST_PASS", first_pass)
    bits = "".join(map(str, f_sequence(150)))
    for length in range(2, 152, 10):
        n = int(bits[:length], 2)
        verdict = vp_H_expansion(n, 2, 2)
        assert not verdict.is_exact
        assert verdict == top_down_verdict(n, 2, 2), length


def test_vp_H_expansion_pass_schedule(monkeypatch):
    tops = []
    root = _WalkNode.root.__func__

    def recording_root(cls, k, p, M):
        tops.append(M)
        return root(cls, k, p, M)

    monkeypatch.setattr(_WalkNode, "root", classmethod(recording_root))

    def walk(n, k, p):
        tops.clear()
        vp_H_expansion(n, k, p)
        return tops[:]

    def passes(bits):
        return walk(int(bits, 2), 2, 2)

    def schedule(u, span, p):
        """The reaches, by _next_reach from the first pass, of a path of
        span indices that decides at index u (u = span - 1 for a member)."""
        reaches = [expansion._next_reach(0, span)]
        while reaches[-1] <= u:
            reaches.append(expansion._next_reach(reaches[-1], span, p))
        return reaches

    chain = "".join(map(str, f_sequence(199)))  # 200 digits, s - t = 199
    flip = {"0": "1", "1": "0"}
    # the build recorded the chain's leaf at depth 20, which answers with no pass
    assert passes(chain[:20] + flip[chain[20]] + chain[21:]) == []
    # a depth-60 node of T_3(14), 63 digits, outlives the first pass
    node = build_tree(3, 14, 60, engine="expansion").levels[60][0]
    vp_H_expansion.cache_clear()  # the schedule below is that of walks
    assert expansion._FIRST_PASS == 16
    # at odd p no index of a member decides: the reach doubles from 16 up
    # to s - t = 60
    assert walk(node, 14, 3) == schedule(59, 60, 3) == [16, 32, 60]
    # at p = 2 a path that outlives the first pass has followed the chain,
    # and it lifts straight to s - t = 199
    assert passes(chain) == schedule(198, 199, 2) == [16, 199]
    assert passes(chain[:100]) == schedule(98, 99, 2) == [16, 99]
    assert passes(chain[:12]) == schedule(10, 11, 2) == [11]
    # leaving the chain at depth 20 decides v = 19, past the first pass
    assert passes(chain[:20] + flip[chain[20]] + chain[21:]) == schedule(19, 199, 2) == [16, 199]
    assert passes(chain[:5] + flip[chain[5]] + chain[6:]) == schedule(4, 199, 2) == [16]
    monkeypatch.setattr(expansion, "_FIRST_PASS", 1)
    assert walk(node, 14, 3) == schedule(59, 60, 3) == [1, 2, 4, 8, 16, 32, 60]
    assert passes(chain) == schedule(198, 199, 2) == [1, 199]
    assert passes(chain[:5] + flip[chain[5]] + chain[6:]) == schedule(4, 199, 2) == [1, 199]


def test_vp_H_expansion_rejects_bad_input():
    with pytest.raises(ValueError, match=r"^<1,1,0,0>_2 must start with <1,0>_2, the digits "
                       r"of k-1=2, and have at least 3 digits$"):
        vp_H_expansion(12, 3, 2)  # 12 = <1,1,0,0> does not extend <1,0> = 2
    with pytest.raises(ValueError, match=r"^<2>_3 must start with <2>_3, the digits "
                       r"of k-1=2, and have at least 2 digits$"):
        vp_H_expansion(2, 3, 3)  # needs at least t + 2 digits


@pytest.mark.parametrize("p, k", [(2, 2), (2, 4), (3, 2), (3, 3), (5, 2)])
def test_vp_H_expansion_agrees_with_stirling_route(p, k):
    rng = random.Random(101 * p + k)
    sc = structure_constants(k, p)
    exact_count = 0
    for _ in range(30):
        digits = sc.root_digits
        for _ in range(rng.randint(1, 5)):
            digits = digits + (rng.randrange(p),)
        n = value_of(digits, p)
        verdict = vp_H_expansion(n, k, p)
        reference = vp_H(n, k, p)
        if verdict.is_exact:
            exact_count += 1
            assert verdict.value == reference, (n, k, p)
        else:
            assert reference >= verdict.value, (n, k, p)
    assert exact_count >= 15


@pytest.mark.parametrize("p, k", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_vp_H_expansion_exhaustive_small(p, k):
    # every valid n below 256: exact verdicts match, bounds never overshoot
    sc = structure_constants(k, p)
    root = sc.root_digits
    for n in range(2, 257):
        d = to_digits(n, p)
        if not (d[:len(root)] == root and len(d) >= len(root) + 1):
            continue
        verdict = vp_H_expansion(n, k, p)
        reference = vp_H(n, k, p)
        if verdict.is_exact:
            assert verdict.value == reference, (n, k, p)
        else:
            assert reference >= verdict.value, (n, k, p)


# --- the decided-prefix store -----------------------------------------------

def extend(rng, n, p, extra):
    """n followed by extra seeded base-p digits."""
    for _ in range(extra):
        n = n * p + rng.randrange(p)
    return n


def assert_lookups_equal_fresh_walks(calls, hits):
    """The verdicts of calls, (n, k, p) each, read with the store as it
    stands, equal those of a walk on a cleared store; exactly hits of them
    are answered by a record."""
    before = vp_H_expansion.cache_info().hits
    looked_up = [vp_H_expansion(*call) for call in calls]
    assert vp_H_expansion.cache_info().hits - before == hits
    for call, verdict in zip(calls, looked_up):
        vp_H_expansion.cache_clear()
        assert vp_H_expansion(*call) == verdict, call
        assert vp_H_expansion.cache_info()[:2] == (0, 1)  # walked


@pytest.mark.parametrize("p, k", [(3, k) for k in range(2, 9)] + [(5, 2)])
def test_decided_prefix_lookup_equals_a_fresh_walk(p, k):
    tree = build_tree(p, k, 32, engine="expansion")
    rng = random.Random(37 * p + k)
    nodes = [n for level in tree.levels[1:] for n in level]
    # n through a leaf, of up to 30 digits more, is a hit; n ending on a node is not
    through_leaves = [extend(rng, rng.choice(tree.leaves), p, rng.randint(0, 30))
                      for _ in range(25)]
    on_nodes = [rng.choice(nodes) for _ in range(5)]
    calls = [(n, k, p) for n in through_leaves + on_nodes]
    assert_lookups_equal_fresh_walks(calls, hits=len(through_leaves))


def test_decided_prefix_lookup_on_the_T22_chain():
    chain = "".join(map(str, f_sequence(80)))
    flip = {"0": "1", "1": "0"}
    rng = random.Random(80)
    # members: chain prefixes, which only the bound decides
    members = [int(chain[:length], 2) for length in range(2, 82, 6)]
    # leaves: the chain left at depth d, then any bits
    leaves = [int(chain[:d] + flip[chain[d]], 2) for d in range(1, 81, 4)]
    through = [int(bin(n)[2:] + "".join(rng.choice("01") for _ in range(rng.randint(0, 40))), 2)
               for n in leaves]
    calls = [(n, 2, 2) for n in members + leaves + through]
    assert_lookups_equal_fresh_walks(calls, hits=len(leaves) + len(through))


def test_decided_prefix_records_are_first_decisions():
    for p, k, depth in [(3, 4, 32), (5, 2, 32), (2, 2, 40), (7, 5, 12)]:
        build_tree(p, k, depth, engine="expansion")
    entries = expansion._DECIDED.entries
    recorded = dict(entries)
    assert len(recorded) > 1000
    rng = random.Random(7)
    for _ in range(300):
        p, k = rng.choice([2, 3, 5, 7]), rng.randint(2, 6)
        vp_H_expansion(extend(rng, k - 1, p, rng.randint(1, 40)), k, p)
    assert entries == recorded  # calls read records and write none
    for k, p, value in recorded:
        sc = structure_constants(k, p)
        s = len(to_digits(value, p)) - 1
        depth = s - sc.t
        # every proper prefix is a member, so sigma vanishes mod p^(depth - 1),
        # and the record answers with u = depth - 1, read off its length
        hits = vp_H_expansion.cache_info().hits
        verdict = vp_H_expansion(value, k, p)
        assert vp_H_expansion.cache_info().hits == hits + 1, (k, p, value)
        assert verdict.exact_valuation == sc.U + depth - 1 - k * s, (k, p, value)
        for j in range(1, depth):
            assert (k, p, value // p ** j) not in entries, (k, p, value, j)


def test_decided_prefix_store_records_the_leaves_of_walked_builds_only(monkeypatch):
    with monkeypatch.context() as patch:  # a stirling build computes no sigma to record
        patch.setattr(_WalkNode, "expansion", lambda node: pytest.fail("sigma computed"))
        build_tree(3, 3, engine="stirling")
    assert vp_H_expansion.cache_info().currsize == 0
    for engine in ("expansion", "both"):
        vp_H_expansion.cache_clear()
        tree = build_tree(3, 3, engine=engine)
        assert set(expansion._DECIDED.entries) == {(3, 3, leaf) for leaf in tree.leaves}

    class Contrary:  # a row that calls every child a member
        def __init__(self, *args):
            pass

        def vp_at_least(self, value, threshold):
            return True

    monkeypatch.setattr("padicharm.tree._ScaledHRow", Contrary)
    vp_H_expansion.cache_clear()
    with pytest.raises(EngineDisagreement):
        build_tree(3, 3)
    assert vp_H_expansion.cache_info().currsize == 0  # a refuted build records nothing


def test_decided_prefix_eviction_keeps_answers_exact(monkeypatch):
    monkeypatch.setattr(expansion._DECIDED, "maxsize", 6)
    tree = build_tree(3, 7, 32, engine="expansion")
    assert len(tree.leaves) > 6
    # the last leaves recorded are kept
    kept = [(7, 3, leaf) for leaf in tree.leaves[-6:]]
    assert list(expansion._DECIDED.entries) == kept
    vp_H_expansion(tree.leaves[-6], 7, 3)  # a hit makes its record the most recent
    assert list(expansion._DECIDED.entries) == kept[1:] + kept[:1]
    build_tree(3, 7, 32, engine="expansion")  # and so does recording it again
    assert list(expansion._DECIDED.entries) == kept
    rng = random.Random(6)
    for _ in range(60):
        n = extend(rng, rng.choice(tree.leaves), 3, rng.randint(0, 20))
        assert vp_H_expansion(n, 7, 3) == top_down_verdict(n, 7, 3), n
        assert vp_H_expansion.cache_info().currsize <= 6
    assert vp_H_expansion.cache_info().hits > 0


def test_decided_prefix_cache_info_counts_hits_and_misses():
    assert vp_H_expansion.cache_info() == (0, 0, 65536, 0)
    vp_H_expansion(5, 2, 2)  # <1,0,1>: walked, and a walk records nothing
    assert vp_H_expansion.cache_info() == (0, 1, 65536, 0)
    tree = build_tree(2, 2, 4, engine="expansion")
    assert tree.leaves == [2, 7, 12, 26]
    assert vp_H_expansion.cache_info() == (0, 1, 65536, 4)
    vp_H_expansion(5, 2, 2)  # <1,0,1> runs through the leaf <1,0>
    vp_H_expansion(14, 2, 2)  # <1,1,1,0> through <1,1,1>
    assert vp_H_expansion.cache_info() == (2, 1, 65536, 4)
    assert vp_H_expansion(13, 2, 2).lower_bound == -2  # <1,1,0,1> is a node: walked
    assert vp_H_expansion.cache_info() == (2, 2, 65536, 4)
    vp_H_expansion.cache_clear()
    assert vp_H_expansion.cache_info() == (0, 0, 65536, 0)


def test_expansion_verdict_validation():
    with pytest.raises(ValueError):
        ExpansionVerdict(exact_valuation=1, lower_bound=2)
    with pytest.raises(ValueError):
        ExpansionVerdict()
