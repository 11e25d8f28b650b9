"""Digit-local modular expansion of H(n, k).

For a digit prefix extending the root digits of k - 1, held as its
integer (the prefix a0..a_{t+v} of n, s + 1 digits long, is
n // p^(s-t-v)), the quantities computed here are

  h_prime_mod : sum of 1/(j_1 ... j_k) over k-element selections of
      (depth w, unit j) items, j drawn from the coprime block of the
      length-(w+1) prefix, with the depth indices summing to the fixed
      budget U + v,
  h_p_mod     : h_prime of the parent plus the root-block unit times the
      reciprocal sum over the prefix's own coprime block,
  sigma       : the p-power weighted sum of h_p terms along the prefix,

all reduced mod p^M.  These drive both an independent valuation method
(vp_H_expansion) and the membership test for deep tree levels.

h_prime is read off a (count, depth-sum) DP over the prefix's digit
groups, and _add_group is its only step: it folds one group.  h_prime_mod
folds a whole prefix from scratch and is the reference; _WalkNode walks
down the digits and folds one group per digit onto its parent's table,
carrying the table and sigma from parent to child, so no prefix is folded
twice.  build_tree, f_sequence and vp_H_expansion all walk _WalkNode.
Each table is sized once, from the largest budget its owner can read:
U + M for a walk at p^M, which reads h' down to depth M, and the budget
itself for h_prime_mod.  A fold keeps only the entries that can still
reach such a budget, since every item still to come lies deeper than the
group just folded; so deep nodes fold a few short rows.  Only sigma
needs the walk's full precision p^M: the h_p term of a child of a depth-d
node enters it times p^d, so that node folds its table, and its
children's block sums, mod p^(M - d) (at least p^1), and the precision a
walk carries shrinks as it goes deeper.

M is derived from the decisions a walk makes, with no guard digits.  A
walk whose tests read up to span digits (tree levels 1..max_depth, or the
indices v < s - t of vp_H_expansion) decides exactly every test of depth
at most M, its reach, and reads no deeper.  Every walk keeps one reach
schedule, _next_reach: it starts at M = min(16, span), and when it reaches
depth M with something still to decide, it lifts (_lift: re-walks only
the ancestors of what is still alive, from a root at the new reach) to
min(2M, span).  A walk therefore carries at most twice the digits of the
depth where it stops, not the span: a tree that closes by depth 16
carries 16 digits whatever max_depth is, and a vp_H_expansion call that
decides at a shallow index never carries all s - t digits, and the block
stores build their entries at the smaller M.  Doubling keeps what the
shallower reaches cost small beside the last one.  Walks at p = 2 are the
one exception: by the harmonic rule below, T_2(k) is an infinite chain,
which outlives every reach below its span, so a tree build there starts
at span and never lifts, and a vp_H_expansion path that outlives its
first reach lifts straight to span.  A residue that keeps those digits
decides each test exactly, and the tests pin the rule: either walk one
digit short changes tree levels and valuations.

The harmonic rule decides a node's children from one residue, and every
walk moves down by it: tree builds, lifts and vp_H_expansion.  Let V be
a member at depth u, so p^u divides sigma(V), and let P(V) be the
reciprocal sum over its own coprime block, of B = value(V)*(p - 1)
units.  Child b adds the h_p term
h'(V) + pi*(P(V) + sum_{i<=b} 1/cp(B + i)) times p^u, and
cp(B + i) = value(V)*p + i = i (mod p) for 1 <= i <= b < p.  So

    sigma(child b) / p^u = c_V + pi*H_b  (mod p),
    c_V = sigma(V)/p^u + h'(V) + pi*P(V),  H_b = 1 + 1/2 + ... + 1/b,

and child b is a member, p^(u+1) dividing its sigma, exactly when
c_V + pi*H_b = 0 (mod p); otherwise its sigma has valuation u.
_WalkNode.expansion reads one c_V per node and the table of the p
harmonic residues H_0..H_{p-1} (core._harmonic_residues, H_0 = 0), and
only the members get a sigma, from the same residue:
(c_V + pi*sum_{i<=b} 1/(value(V)*p + i)) * p^u, whose tail takes b
inverses.  No sigma is computed for any other child; the tests keep the
per-child rule as the oracle of this one.  A node has at most N_p member
children, N_p the most b < p whose H_b share one residue, which is the
kind of count that the paper bounds by 3x^0.835 and verify harm-count
checks.  At p = 2, H_0 = 0 and H_1 = 1, so every node has exactly one
member child.

Reciprocal power sums over the coprime sequence c_p are the workhorse.
The sequence is periodic in blocks of p - 1 consecutive units, so a
prefix sum splits into Q full blocks plus a short tail; the full blocks
are collapsed through the p-adic binomial series of (pq + m)^(-r),
leaving power sums of the block index q, which are polynomial in Q.
Written in falling factorials they become sum_i w_i f_i(Q), with
f_i(Q) = Q(Q-1)...(Q-i)/(i+1) and weights w_i that depend on r, p and
the precision M but not on Q.  The weights are built once, in O(M^2),
and every block count then costs O(M) products of O(M)-bit operands:
polynomial in the precision even when the prefix length is
astronomically large, which is what makes tree levels beyond Stirling
feasibility reachable at all.  Elementary symmetric sums follow from the
power sums by Newton's identities.  Below a few dozen units the direct
per-unit scans are cheaper, and they stay as the oracles of the closed
forms.

Walks ask for the same block at many precisions and degrees (each
vp_H_expansion call picks its own M, Newton's identities pad it, and a
walk's reach sets the degree its folds ask for), so each block quantity
has one _Store entry per block key, built at the largest M and degree m
asked for so far; a smaller request reduces the stored residues mod p^M
and keeps the terms it asked for.  recip_esym, recip_power_sum,
_closed_weights and _index_power_sums each expose their store as
cache_info/cache_clear.

A tree build also keeps what it decides.  A leaf is a prefix whose sigma
has vp(sigma) < depth while every proper prefix was a member (vp(sigma)
>= depth); then vp(H(n, k)) = U + vp(sigma) - k*s for every n whose
digits run through it, since each later term carries p^depth.  Under the
harmonic rule a child of a depth-u node is a leaf exactly when its
residue c_V + pi*H_b mod p is nonzero, and then vp(sigma) = u: the
residue carries nothing more, so the walk returns None for a leaf and
never computes its sigma.  The decided-prefix store holds the (k, p,
leaf value) keys alone: a leaf of t + 2 + u digits lies under a depth-u
node, so its u is read off its length.  build_tree records its leaves
there, and vp_H_expansion looks up every prefix of n before it walks and
answers a hit with U + u - k*s and no walk, u read off the length of the
prefix that matches, the valuation the walk through that leaf would
find.  It is exact at any precision: sigma at depth d reads only the
first t + 1 + d digits of n, and at most one prefix of n can be a
leaf.  So verify corollary-2adic, whose samples run through the leaves
that f_sequence records, still tests the harmonic rule's leaf decisions
against the paper's branch-bit corollary, and its exact cross against
Stirling numbers up to DEFAULT_EXACT_CAP is unchanged.  The store is an
LRU bounded like recip_power_sum's, exposed as
vp_H_expansion.cache_info/cache_clear.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections import namedtuple
from dataclasses import dataclass

from .core import (
    ArgumentError,
    PrecisionError,
    StructureConstants,
    _harmonic_residues,
    _require_prime,
    _spell,
    bp_count,
    ilog,
    pi_p_mod,
    structure_constants,
    to_digits,
    vp_int,
)

__all__ = [
    "ExpansionVerdict",
    "recip_power_sum",
    "recip_esym",
    "h_prime_mod",
    "h_p_mod",
    "vp_H_expansion",
]

# Up to this block count the direct scans are used.  scripts/crossover.py
# times both routes over p in {2, 3, 5}, m in {2, 8}, M in {12, 72}: the
# closed forms win from B = 4..8 (power sums) and 8..32 (symmetric sums,
# the latest at m = 8), and a direct scan wins nowhere past B = 28, on a
# 2-core x86 VM with Python 3.11; CHANGES.md has the table.
_DIRECT_LIMIT = 32

_CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")


class _Store:
    """A bounded LRU map from a block key to the block's value at the
    largest grades asked for so far: the precision M and, for symmetric
    sums, the degree m.  The decided-prefix store is a plain bounded LRU
    set of leaves, written by record and read by _leaf_depth.

    A request whose grades the entry covers is served from it; the caller
    reduces the value mod p^M and cuts it to the terms it asked for.  A
    request above the entry rebuilds it at the larger of each grade, so an
    entry only grows and requests that alternate between a high M and a
    high m cannot keep rebuilding it.  Each stored function documents why
    its reduction is exact.
    """

    def __init__(self, maxsize: int) -> None:
        self.maxsize = maxsize
        self.entries: dict = {}
        self.hits = self.misses = 0

    def fetch(self, key: tuple, grades: tuple, build) -> tuple:
        """(grades, value) of key's entry, built by build(*key, *grades)
        unless the stored grades cover the requested ones."""
        entries = self.entries
        entry = entries.pop(key, None)  # re-inserted last: most recently used
        if entry is not None and all(map(operator.le, grades, entry[0])):
            self.hits += 1
        else:
            self.misses += 1
            if entry is not None:
                grades = tuple(map(max, grades, entry[0]))
            elif len(entries) >= self.maxsize:
                del entries[next(iter(entries))]
            entry = (grades, build(*key, *grades))
        entries[key] = entry
        return entry

    def serves(self, fn):
        """Give fn an lru_cache's cache_info() and cache_clear() over this store."""
        fn.cache_info = lambda: _CacheInfo(self.hits, self.misses, self.maxsize, len(self.entries))
        fn.cache_clear = self.clear
        return fn

    def record(self, keys) -> None:
        """Store each of keys as the most recently used entry, then drop the
        least recently used entries past maxsize.  For a store of keys
        alone, read through _leaf_depth rather than fetch."""
        entries = self.entries
        for key in keys:
            entries.pop(key, None)
            entries[key] = True
        for key in list(itertools.islice(entries, max(len(entries) - self.maxsize, 0))):
            del entries[key]

    def clear(self) -> None:
        self.entries.clear()
        self.hits = self.misses = 0


_WEIGHTS = _Store(256)
_INDEX_SUMS = _Store(512)
_POWER_SUMS = _Store(65536)
_ESYMS = _Store(4096)
# tree leaves, keyed (k, p, leaf value)
_DECIDED = _Store(65536)


def _leaf_depth(k: int, p: int, value: int, digits) -> int | None:
    """The parent depth u of the first recorded leaf among the prefixes
    that value, a node of T_p(k), gains digit by digit: the index in digits
    of the digit that reaches it.  That record becomes the most recently
    used; None if none is recorded.  One hit or one miss either way."""
    entries = _DECIDED.entries
    for u, b in enumerate(digits):
        value = value * p + b
        if entries.pop((k, p, value), False):
            entries[k, p, value] = True
            _DECIDED.hits += 1
            return u
    _DECIDED.misses += 1
    return None


def _build_weights(r: int, p: int, M: int) -> tuple[int, ...]:
    mod = p ** M
    inverses = [pow(m, -1, mod) for m in range(1, p)]
    unit_powers = [pow(x, r, mod) for x in inverses]
    weights = [0] * M
    row = [1]
    binom = 1
    pj = 1
    for j in range(M):
        if j:
            row = [0] + [(row[i - 1] + i * row[i]) % mod for i in range(1, j)] + [1]
            binom = binom * (r + j - 1) // j
            unit_powers = [x * y % mod for x, y in zip(unit_powers, inverses)]
        a = binom * sum(unit_powers) % mod * pj % mod
        if j & 1:
            a = mod - a
        for i in range(j + 1):
            weights[i] += a * row[i]
        pj *= p
    return tuple(w % mod for w in weights)


@_WEIGHTS.serves
def _closed_weights(r: int, p: int, M: int) -> tuple[int, ...]:
    """w_i = sum_{i<=j<M} (-1)^j C(r+j-1, j) T(r+j) p^j S2(j, i) mod p^M.

    T(u) is the sum of m^(-u) over the units m = 1..p-1 and S2 the Stirling
    numbers of the second kind, whose rows are built mod p^M on the way.
    The weights do not depend on the block count, so one build, O(M^2),
    serves every B.  One entry per (r, p) holds them at the largest M
    asked for: term j carries p^j, so the terms j >= M that a larger M'
    adds vanish mod p^M, and w_i(M') mod p^M = w_i(M) for i < M.
    """
    weights = _WEIGHTS.fetch((r, p), (M,), _build_weights)[1]
    mod = p ** M
    return tuple(w % mod for w in weights[:M])


@functools.lru_cache(maxsize=256)
def _lcm_upto(n: int) -> int:
    return math.lcm(*range(1, n + 1))


def _build_index_sums(Q: int, p: int, M: int) -> tuple[int, ...]:
    mod = p ** M
    n = min(Q, M)
    big = _lcm_upto(n) * mod
    q = Q % big
    falling = []
    product = q
    for i in range(n):
        falling.append(product // (i + 1) % mod)
        product = product * (q - i - 1) % big
    return tuple(falling)


@_INDEX_SUMS.serves
def _index_power_sums(Q: int, p: int, M: int) -> tuple[int, ...]:
    """The terms f_i = i! * C(Q, i+1) = Q(Q-1)...(Q-i) / (i+1) mod p^M.

    sum_{q<Q} q^j = sum_i S2(j, i) f_i, which _closed_weights has folded in.
    f_i vanishes from i = Q on, so at most n = min(Q, M) terms are returned.

    The running product is kept mod N = lcm(1..n) * p^M, never exactly:
    i + 1 <= n divides both N and the true product, so the reduced
    product is still a multiple of i + 1, and it differs from the true one
    by a multiple of N, whose quotient by i + 1 is a multiple of p^M.  So
    each f_i is exact mod p^M from operands of O(M) bits, however many
    bits Q has, and no inverse is taken.  One entry per (Q, p) holds the
    terms at the largest M asked for; each f_i is an integer, so a smaller
    M takes the first min(Q, M) of them mod p^M.
    """
    terms = _INDEX_SUMS.fetch((Q, p), (M,), _build_index_sums)[1]
    mod = p ** M
    return tuple(f % mod for f in terms[:min(Q, M)])


# The scans below inline cp(i, p) = i + (i - 1) // (p - 1): the public
# entry points have validated p already.

def _recip_power_sum_direct(B: int, r: int, p: int, M: int) -> int:
    mod = p ** M
    total = 0
    for i in range(1, B + 1):
        total = (total + pow(i + (i - 1) // (p - 1), -r, mod)) % mod
    return total


def _recip_power_sum_closed(B: int, r: int, p: int, M: int) -> int:
    """Block decomposition of sum_{i<=B} cp(i)^(-r) mod p^M.

    The Q full blocks contribute sum_i w_i f_i(Q) (_closed_weights,
    _index_power_sums), O(M) per call once the weights are built; the
    partial block is summed directly.  The two stores are read as they
    stand, at their own M' >= M: the first M weights and the first
    min(Q, M) terms reduce mod p^M to the ones asked for, so the sum is
    reduced once, at the end.
    """
    mod = p ** M
    Q, m0 = divmod(B, p - 1)
    total = 0
    if Q:
        weights = _WEIGHTS.fetch((r, p), (M,), _build_weights)[1]
        terms = _INDEX_SUMS.fetch((Q, p), (M,), _build_index_sums)[1]
        total = sum(map(operator.mul, weights[:M], terms))
    base = p * Q
    for m in range(1, m0 + 1):
        total += pow(base + m, -r, mod)
    return total % mod


def _build_power_sum(B: int, r: int, p: int, M: int) -> int:
    if B <= _DIRECT_LIMIT:
        return _recip_power_sum_direct(B, r, p, M)
    return _recip_power_sum_closed(B, r, p, M)


@_POWER_SUMS.serves
def recip_power_sum(B: int, r: int, p: int, M: int) -> int:
    """sum_{i=1}^{B} cp(i)^(-r) mod p^M, for any block count B >= 0.

    One entry per (B, r, p) holds the sum at the largest M asked for; the
    sum is a p-adic integer, so its residue mod p^M' reduces to the one
    mod p^M for every M <= M'.
    """
    if B < 0:
        raise ArgumentError(f"B must be nonnegative, got {B}")
    if r < 1 or M < 1:
        raise ArgumentError(f"need r >= 1 and M >= 1, got r={r}, M={M}")
    _require_prime(p)
    return _POWER_SUMS.fetch((B, r, p), (M,), _build_power_sum)[1] % p ** M


def _recip_esym_direct(B: int, m_max: int, p: int, M: int) -> list[int]:
    mod = p ** M
    e = [0] * (m_max + 1)
    e[0] = 1
    for i in range(1, B + 1):
        inv = pow(i + (i - 1) // (p - 1), -1, mod)
        for d in range(min(i, m_max), 0, -1):
            e[d] = (e[d] + e[d - 1] * inv) % mod
    return e


def _recip_esym_newton(B: int, m_max: int, p: int, M: int) -> list[int]:
    """Elementary symmetric sums from power sums via Newton's identities.

    Dividing by m loses vp(m) digits of precision when p divides m, so the
    whole run is padded by vp(m_max!) extra digits up front; each division
    is checked to be exact.
    """
    pad = vp_int(math.factorial(m_max), p) if m_max > 1 else 0
    Mw = M + pad
    modw = p ** Mw
    ps = [0] + [recip_power_sum(B, r, p, Mw) for r in range(1, m_max + 1)]
    e = [0] * (m_max + 1)
    e[0] = 1
    for m in range(1, m_max + 1):
        acc = 0
        sign = 1
        for r in range(1, m + 1):
            acc += sign * e[m - r] * ps[r]
            sign = -sign
        acc %= modw
        alpha = vp_int(m, p) if m % p == 0 else 0
        if alpha:
            if acc % p ** alpha:
                raise PrecisionError(
                    f"inexact division by {m} in symmetric-sum recursion"
                )
            acc //= p ** alpha
        e[m] = acc * pow(m // p ** alpha, -1, modw) % modw
    mod = p ** M
    return [x % mod for x in e]


def _build_esym(B: int, p: int, m_max: int, M: int) -> list[int]:
    if B <= _DIRECT_LIMIT:
        return _recip_esym_direct(B, m_max, p, M)
    return _recip_esym_newton(B, m_max, p, M)


@_ESYMS.serves
def recip_esym(B: int, m_max: int, p: int, M: int) -> list[int]:
    """e_0..e_{m_max} of the reciprocals 1/cp(1), ..., 1/cp(B), mod p^M.

    One entry per (B, p) holds e_0..e_m at the largest M and the largest
    degree m asked for.  Each e_j is a p-adic integer that does not depend
    on how many degrees are computed (Newton's pad only absorbs its
    divisions), so a request takes the first m_max + 1 sums mod p^M.
    """
    if m_max < 0:
        raise ArgumentError(f"m_max must be nonnegative, got {m_max}")
    _require_prime(p)
    m_max = min(m_max, B)
    if m_max == 0:
        return [1]
    mod = p ** M
    return [x % mod for x in _ESYMS.fetch((B, p), (m_max, M), _build_esym)[1][:m_max + 1]]


def _require_extension(n: int, s: int, k: int, p: int, past_root: int) -> StructureConstants:
    """The structure constants of (p, k), once the prefix n, of s + 1
    digits, is known to start with the root digits of k - 1, that is
    n // p^(s-t) = k - 1, and to run at least past_root digits beyond
    them: the one refusal of a prefix off the tree."""
    sc = structure_constants(k, p)
    if s < sc.t + past_root or n // p ** (s - sc.t) != k - 1:
        raise ArgumentError(
            f"{_spell(n, p)} must start with {_spell(k - 1, p)}, the digits of "
            f"k-1={k - 1}, and have at least {sc.t + 1 + past_root} digits"
        )
    return sc


def _add_group(
    dp: list[list[int]], B: int, w: int, k: int, p: int, M: int, limit: int
) -> list[list[int]]:
    """Fold one digit group, B units at depth w, into the h' DP.

    dp[c][W] sums the selections of c items with depth sum W.  Only budgets
    up to limit are ever read, and the k - c items still to pick all lie
    deeper than w, so after this fold row c keeps only the W with W <= c*w
    and W + (k - c)(w + 1) <= limit: every entry it drops could reach a
    budget only above limit, and every entry it keeps is the full sum.  The
    group enters through its elementary symmetric sums, up to the largest
    degree that lands in a kept entry.  The parent's table is not mutated,
    since its other children fold onto it too.
    """
    ends = [max(min(c * w, limit - (k - c) * (w + 1)) + 1, 0) for c in range(k + 1)]
    new = [row[:end] + [0] * (end - len(row)) for row, end in zip(dp, ends)]
    # the lowest row whose W = 0 entry reaches a kept entry takes the most items here
    m_top = next((min(k - c, B) for c in range(k) if dp[c]
                  and (k - c) * (w + 1) - min(k - c, B) <= limit), 0)
    if m_top:
        # m_top <= B; each product below is reduced, so the stored sums
        # serve unreduced, at their own precision M' >= M
        ep = _ESYMS.fetch((B, p), (m_top, M), _build_esym)[1]
        mod = p ** M
        for c in range(k):
            top = min(m_top, k - c)
            # entry W lands in a kept entry only with at least W + lack items here
            lack = (k - c) * (w + 1) - limit
            for W, val in enumerate(dp[c]):
                if val:
                    for mu in range(max(W + lack, 1), top + 1):
                        row = new[c + mu]
                        row[W + mu * w] = (row[W + mu * w] + val * ep[mu]) % mod
    return new


def _fold(n: int, s: int, k: int, p: int, limit: int, M: int) -> list[list[int]]:
    """The h' DP table of the whole prefix n, of s + 1 digits, for budgets
    up to limit, one _add_group per digit: the group at depth w is the
    block of the prefix n // p^(s-w)."""
    dp = [[1]] + [[] for _ in range(k)]
    for w in range(s + 1):
        value = n // p ** (s - w)
        dp = _add_group(dp, value - value // p, w, k, p, M, limit)
    return dp


def _h_prime(table: list[list[int]], k: int, budget: int) -> int:
    """The h' entry at budget of a table folded for budgets up to limit >=
    budget; row k ends short of the budget where no selection reaches it."""
    row = table[k]
    return row[budget] if budget < len(row) else 0


def h_prime_mod(n: int, k: int, p: int, M: int) -> int:
    """Budget-constrained selection sum over the item pool of the prefix n.

    With s + 1 the digit length of n, items are pairs (w, j) with w in
    [0, s] and j in the coprime block of the prefix n // p^(s-w); a
    selection picks k distinct items whose depths sum to exactly U + s - t
    and contributes the product of the modular inverses of its units.
    Folds every group from scratch.
    """
    if M < 1:
        raise ArgumentError(f"M must be positive, got {M}")
    s = ilog(n, p)
    sc = _require_extension(n, s, k, p, 0)
    budget = sc.U + s - sc.t
    return _h_prime(_fold(n, s, k, p, budget, M), k, budget)


class _WalkNode:
    """One digit prefix on a walk down from the root digits of k - 1.

    A node is its integer value and its depth v, the number of digits past
    the root; it reads p from sc and holds no digits.  The h' DP table is
    computed on first use from the parent: the child's table folds exactly
    one group, of B = value(parent)*(p-1) + b = value - value(parent)
    units, into the parent's.  The walk's reach is known at the root: it
    reads h' at depth v <= top only, budget U + v <= U + top, so every
    table is pruned to that limit (_add_group) and is never widened or
    refolded.  h_prime past the reach
    raises PrecisionError, since the pruned table would read 0 there; a walk
    that must go deeper is lifted to a larger reach (_lift), which builds
    new nodes.  Once a node holds its table it lets go of its parent, so a
    walk keeps only its frontier alive.

    Every walk moves down by expansion, the harmonic rule, and only member
    nodes have a sigma: 0 at the root, and for a member child the one that
    expansion derives from its parent's residue.  A child made by child
    alone, as a "stirling" build makes them, has none.  sigma is kept mod
    p^top, top the root's precision.  The h_p term of a child of a depth-d
    node enters sigma times p^d, so only its residue mod p^(top - d)
    matters: a node at depth d keeps its table, and its children's block
    sums, mod p^M with M = max(top - d, 1), and every sigma residue is the
    one a walk at precision top throughout computes.  Table entries a fold
    does not touch keep their parent's larger modulus, and the block sums
    a node reads from the stores keep theirs, so h_prime and the residues
    are exact mod p^M but not always reduced.
    """

    __slots__ = ("k", "sc", "top", "M", "pi", "value", "depth", "_parent", "sigma", "_dp")

    def __init__(
        self,
        k: int,
        sc: StructureConstants,
        top: int,
        pi: int,
        value: int,
        depth: int,
        parent: "_WalkNode | None",
        sigma: int | None = None,
    ) -> None:
        self.k, self.sc, self.top, self.pi = k, sc, top, pi
        self.value = value
        self.depth = depth
        self.M = max(top - depth, 1)
        self._parent = parent
        self.sigma = sigma
        self._dp = None

    @classmethod
    def root(cls, k: int, p: int, M: int) -> "_WalkNode":
        """The root, the prefix k - 1; sigma is kept mod p^M."""
        sc = structure_constants(k, p)
        return cls(k, sc, M, pi_p_mod(k, p, M), k - 1, 0, None, 0)

    def child(self, b: int, sigma: int | None = None) -> "_WalkNode":
        """Child b, with sigma if it is a member (expansion); b is not
        checked, since every walk passes a base-p digit."""
        return _WalkNode(self.k, self.sc, self.top, self.pi, self.value * self.sc.p + b,
                         self.depth + 1, self, sigma)

    @property
    def h_prime(self) -> int:
        if self.depth > self.top:
            raise PrecisionError(f"h' at depth {self.depth} is past the walk's reach {self.top}")
        return _h_prime(self._table(), self.k, self.sc.U + self.depth)

    def expansion(self) -> list["_WalkNode | None"]:
        """Children 0..p-1 of this member node, decided by the harmonic rule
        (module docstring): member child b as a walk node with its sigma,
        and a leaf as None, since its sigma has valuation u, this node's
        depth.  The rule reads digit u of sigma, so the node must lie above
        the walk's reach."""
        p, u = self.sc.p, self.depth
        if u >= self.top:
            raise PrecisionError(f"children at depth {u + 1} are past the walk's reach {self.top}")
        mod = p ** self.M
        # the block of this node's units; its children add units value*p + i = i (mod p)
        block = _POWER_SUMS.fetch((self.value * (p - 1), 1, p), (self.M,), _build_power_sum)[1]
        c = self.sigma // p ** u + self.h_prime + self.pi * block
        children = []
        for b, h in enumerate(_harmonic_residues(p)):
            if (c + self.pi * h) % p:
                children.append(None)
            else:
                tail = sum(pow(self.value * p + i, -1, mod) for i in range(1, b + 1))
                children.append(self.child(b, (c + self.pi * tail) * p ** u % p ** self.top))
        return children

    def _table(self) -> list[list[int]]:
        if self._dp is None:
            parent = self._parent
            if parent is None:  # the root
                self._dp = _fold(self.k - 1, self.sc.t, self.k, self.sc.p,
                                 self.sc.U + self.top, self.M)
            else:
                self._dp = _add_group(
                    parent._table(), self.value - parent.value, self.sc.t + self.depth,
                    self.k, self.sc.p, self.M, self.sc.U + self.top,
                )
                self._parent = None
        return self._dp


def _lift(frontier: list[_WalkNode], top: int) -> list[_WalkNode]:
    """The nodes of frontier, one level of a walk in increasing value
    order, re-walked from a root that keeps sigma mod p^top.

    Only the ancestors of the frontier are expanded, each shared prefix
    once and each before its children, so no table fold recurses up a long
    chain; an ancestor's other member children get their sigma but are
    never expanded.  The lifted frontier nodes fold their own groups when
    the walk expands them.
    """
    first = frontier[0]
    p = first.sc.p
    root = _WalkNode.root(first.k, p, top)
    level = {root.value: root}
    for shift in range(first.depth - 1, -1, -1):
        above, level = level, {}
        for value in dict.fromkeys(node.value // p ** (shift + 1) for node in frontier):
            level.update((child.value, child) for child in above[value].expansion() if child)
    return [level[node.value] for node in frontier]


def h_p_mod(n: int, k: int, p: int, M: int) -> int:
    """h_prime of the parent prefix n // p plus the unit times the
    reciprocal sum over the block of n.

    Always a residue (never needs to invert a multiple of p), which is the
    integrality fact everything downstream leans on.
    """
    _require_extension(n, ilog(n, p), k, p, 1)
    mod = p ** M
    head = h_prime_mod(n // p, k, p, M)
    tail = pi_p_mod(k, p, M) * recip_power_sum(bp_count(n, p), 1, p, M)
    return (head + tail) % mod


@dataclass(frozen=True)
class ExpansionVerdict:
    """Either an exact valuation or a lower bound.

    A lower bound means every computed term vanished to the tail
    threshold; the true valuation is then undetermined by this module
    alone and is at least the tree's membership threshold at n's length.
    """

    exact_valuation: int | None = None
    lower_bound: int | None = None

    def __post_init__(self) -> None:
        if (self.exact_valuation is None) == (self.lower_bound is None):
            raise ValueError("exactly one of exact/lower bound must be set")

    @property
    def is_exact(self) -> bool:
        return self.exact_valuation is not None

    @property
    def value(self) -> int:
        v = self.exact_valuation if self.is_exact else self.lower_bound
        assert v is not None
        return v


def _membership_threshold(sc: StructureConstants, k: int, child_len: int) -> int:
    """The least vp(H(n, k)) of a tree member n with child_len = s + 1
    digits, W - (k - 1)s + 1; a walk node with those digits is a member
    exactly when its sigma vanishes mod p^(s - t)."""
    s = child_len - 1
    return sc.W - (k - 1) * s + 1


# Every walk, a tree build's and vp_H_expansion's, first carries this many
# digits.  A walk node's cost grows with the walk's reach, which sizes its
# pruned h' table, but slowly: per node on cold stores, a walk at 16 digits
# costs 1.0-1.5x one at 1 digit, and at 64 digits 2.2-4.7x, over p, k in
# (2, 2), (3, 3), (3, 6), (5, 2).  Reaches of 1, 2, 4 and 8 digits would
# each repeat the shallow nodes at nearly full cost; first reaches of 8 and
# 32 digits both ran deep-expansion's operations slower than 16, and
# CHANGES.md has the timings.  A tree that closes within 16 levels, as 7 of
# deep-expansion's 8 do, never carries more digits than that, whatever its
# cap.
_FIRST_PASS = 16


def _next_reach(top: int, span: int, p: int = 0) -> int:
    """The reach a walk whose tests read up to span digits lifts to from
    reach top, or starts at when top is 0 (module docstring).  A walk that
    follows a chain passes its p: every T_2(k) is an infinite chain, so a
    tree build at p = 2 would outlive each reach below span, and it starts
    there, and a vp_H_expansion path at p = 2 that outlives its first reach
    has followed the chain that far and lifts straight there."""
    if p == 2:
        return span
    if not top:
        return min(_FIRST_PASS, span)
    return min(2 * top, span)


@_DECIDED.serves
def vp_H_expansion(n: int, k: int, p: int) -> ExpansionVerdict:
    """vp(H(n, k)) from the digit-local expansion.

    Walks one node down the digits of n, so each digit group is folded
    once, and at each depth u decides by the harmonic rule (module
    docstring) whether the next prefix's sigma vanishes mod p^(u+1).  The
    first prefix whose sigma does not, a leaf, has valuation exactly u;
    later terms carry at least u + 1 powers of p and cannot disturb it, so
    the valuation U + u - k*s is exact.  If every prefix, u < s - t, is a
    member, n is a full-chain node and only the tail bound remains: the
    membership threshold at its own length, _membership_threshold.

    First it looks up the prefixes of n, depth 1 to s - t, in the
    decided-prefix store (module docstring): a leaf that a tree build
    recorded answers U + u - k*s with no walk, u its parent's depth, read
    off the length of the prefix that matches.  A call records nothing.
    cache_info() counts the calls a record answered as hits and those
    that walked as misses.

    The walk escalates precision from the bottom.  It carries sigma mod
    p^top, top its reach: a nonzero residue below p^top has sigma's true
    valuation, and a zero one clears every index, so each verdict at u < top
    equals that of a walk at the full p^(s - t).  When the path reaches
    depth top, the walk lifts that node to the next reach (_next_reach with
    span s - t, module docstring) and goes on down the path; the indices it
    has decided stay decided.  The walk ends at the node that decides, so
    most calls stop within the first reach, far below s - t digits; a tree
    member lifts at every reach up to s - t, and at p = 2, where the tree
    is a chain, from the first reach straight to s - t.
    """
    digits = to_digits(n, p)
    s = len(digits) - 1
    sc = _require_extension(n, s, k, p, 1)
    span = s - sc.t
    tail = digits[sc.t + 1:]
    u = _leaf_depth(k, p, k - 1, tail)
    if u is None:
        node = _WalkNode.root(k, p, _next_reach(0, span))
        for u, b in enumerate(tail):
            if u == node.top:
                node = _lift([node], _next_reach(node.top, span, p))[0]
            node = node.expansion()[b]
            if node is None:  # a leaf, vp(sigma) = u: decided here
                break
        else:
            # every prefix of n was a member, n itself included
            return ExpansionVerdict(lower_bound=_membership_threshold(sc, k, s + 1))
    return ExpansionVerdict(exact_valuation=sc.U + u - k * s)
