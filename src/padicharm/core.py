"""Base-p digit prefixes and the closed-form quantities attached to them.

A digit prefix is its integer: the prefix of length j + 1 of n, whose
base-p digits a_0..a_s are big endian with a_0 nonzero, is n // p^(s-j),
and n extends m exactly when n // p^(s-r) == m, r + 1 the digit length
of m.
Digits themselves (to_digits) are made only where they are printed or
walked.
Everything here is a pure function of its inputs.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "ArgumentError",
    "SizeCapError",
    "PrecisionError",
    "EngineDisagreement",
    "StructureConstants",
    "is_prime",
    "to_digits",
    "ilog",
    "cp",
    "vp_int",
    "vp",
    "free_p",
    "vp_factorial",
    "bp_count",
    "a_p_set",
    "a_p_set_by_filter",
    "structure_constants",
    "pi_p_mod",
]


class ArgumentError(ValueError):
    """An argument lies outside the domain of a public function.

    The command line reports it as a usage error (exit 2); any other
    ValueError is a fault of the program.
    """


class SizeCapError(ArgumentError):
    """An input exceeds the configured exact-arithmetic cap."""


class PrecisionError(RuntimeError):
    """A modular computation exhausted its allowed precision."""


class EngineDisagreement(RuntimeError):
    """Two independent valuation engines returned different results."""


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for all n < 3.3 * 10^24."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d = n - 1
    r = (d & -d).bit_length() - 1
    d >>= r
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _require_prime(p: int) -> None:
    """The one refusal of a non-prime argument p."""
    if not is_prime(p):
        raise ArgumentError(f"p must be prime, got {p}")


def to_digits(n: int, p: int) -> tuple[int, ...]:
    """Base-p digits of a positive integer, most significant first.

    Rejects n = 0, which has no digits with a nonzero leading one.

    >>> to_digits(15, 3)
    (1, 2, 0)
    >>> to_digits(7, 2)
    (1, 1, 1)
    """
    _require_prime(p)
    _require_positive(n)
    digits = []
    while n:
        n, d = divmod(n, p)
        digits.append(d)
    return tuple(reversed(digits))


def _spell(n: int, p: int) -> str:
    """n as <d0,d1,...>_p, the spelling of a prefix in refusals and
    disagreements."""
    return f"<{','.join(map(str, to_digits(n, p)))}>_{p}"


def _require_positive(n: int) -> None:
    if n < 1:
        raise ArgumentError(f"n must be positive, got {n}")


def _digit_sum(n: int, p: int) -> int:
    total = 0
    while n:
        n, d = divmod(n, p)
        total += d
    return total


def ilog(n: int, p: int) -> int:
    """floor(log_p n) for n >= 1."""
    _require_prime(p)
    _require_positive(n)
    s = 0
    while n >= p:
        n //= p
        s += 1
    return s


def cp(i: int, p: int) -> int:
    """The i-th positive integer not divisible by p (i >= 1).

    Closed form: i plus the number of multiples of p skipped so far.

    >>> cp(3, 3)
    4
    >>> cp(5, 2)
    9
    """
    _require_prime(p)
    if i < 1:
        raise ArgumentError(f"index must be positive, got {i}")
    return i + (i - 1) // (p - 1)


def vp_int(x: int, p: int) -> int:
    """p-adic valuation of a nonzero integer.

    Strips p-power chunks of doubling size, so the divmod count stays
    logarithmic in the result even for residues divisible by p^100000.
    For p = 2 the valuation is the index of the lowest set bit.
    """
    if x == 0:
        raise ValueError("valuation of zero is infinite")
    if p == 2:
        return (x & -x).bit_length() - 1
    x = abs(x)
    if x % p:
        return 0
    v = 0
    e, pe = 1, p
    while x % pe == 0:
        x //= pe
        v += e
        e, pe = e * 2, pe * pe
    while e > 1:
        e //= 2
        pe = p ** e
        if x % pe == 0:
            x //= pe
            v += e
    return v


def vp(q: int | Fraction, p: int) -> int:
    """p-adic valuation of a nonzero int or Fraction; refuses 0 as vp_int does."""
    _require_prime(p)
    if isinstance(q, int):
        return vp_int(q, p)
    return vp_int(q.numerator, p) - vp_int(q.denominator, p)


def free_p(m: int, p: int) -> int:
    """m with every factor of p removed; never divisible by p."""
    _require_prime(p)
    if m < 1:
        raise ArgumentError(f"m must be positive, got {m}")
    return m // p ** vp_int(m, p)


def vp_factorial(n: int, p: int) -> int:
    """vp(n!) by Legendre's formula (n - s_p(n)) / (p - 1), s_p the base-p digit sum."""
    _require_prime(p)
    if n < 0:
        raise ArgumentError(f"n must be nonnegative, got {n}")
    return (n - _digit_sum(n, p)) // (p - 1)


def bp_count(n: int, p: int) -> int:
    """n minus its parent prefix n // p, which is 0 for a single digit.

    Counts how many new coprime-sequence indices the last digit of n opens
    up: the block of the prefix n is cp(1), ..., cp(bp_count(n, p)).

    >>> bp_count(4, 3)
    3
    >>> bp_count(15, 3)
    10
    """
    _require_prime(p)
    _require_positive(n)
    return n - n // p


def a_p_set(n: int, v: int, p: int) -> list[int]:
    """All m in [1, n] with vp(m) = s - v, where s + 1 = digit length of n.

    Built from the coprime block of the length-(v+1) digit prefix: with
    scale = p^(s-v) and head = n // scale (the value of that prefix), the
    slice is {j * scale : 1 <= j <= head, p does not divide j}.  At
    p = 2 that is every odd j, one range() of step 2 * scale.  Otherwise
    the list of all multiples j * scale is made by range() and every p-th
    entry (j divisible by p) is deleted by one slice deletion, which
    times faster than interleaving p - 1 ranges.  Either way no member
    passes through Python-level code.  The direct filter
    a_p_set_by_filter must give the same answer.
    """
    s = ilog(n, p)
    if not 0 <= v <= s:
        raise ArgumentError(f"v must lie in [0, {s}], got {v}")
    scale = p ** (s - v)
    if p == 2:
        return list(range(scale, n + 1, 2 * scale))
    out = list(range(scale, n // scale * scale + 1, scale))
    del out[p - 1::p]
    return out


def a_p_set_by_filter(n: int, v: int, p: int) -> list[int]:
    """Reference filter for a_p_set: vp(m) = s - v tested on each candidate.

    Scans the multiples m of p^(s-v) in [1, n] and keeps those that
    p^(s-v+1) does not divide, i.e. the definition of the slice read off
    m directly, without the digit prefix.
    """
    s = ilog(n, p)
    if not 0 <= v <= s:
        raise ArgumentError(f"v must lie in [0, {s}], got {v}")
    pe = p ** (s - v)
    pe_next = pe * p
    return [m for m in range(pe, n + 1, pe) if m % pe_next]


@dataclass(frozen=True)
class StructureConstants:
    """Digit-level constants attached to a pair (p, k), k >= 2.

    t is the index of the last digit of k-1, root_digits its digits (the
    root prefix itself is k - 1), U the weighted block count plus t + 1,
    and W = U - t - 1 the level offset used by the tree.
    """

    p: int
    k: int
    t: int
    root_digits: tuple[int, ...]
    U: int
    W: int


def structure_constants(k: int, p: int) -> StructureConstants:
    """Constants of the digit machinery for k >= 2 (k = 1 is rejected)."""
    if k < 2:
        raise ArgumentError(f"k must be at least 2, got {k}")
    root = to_digits(k - 1, p)
    t = len(root) - 1
    U = sum(bp_count((k - 1) // p ** (t - v), p) * v for v in range(t + 1)) + t + 1
    return StructureConstants(p=p, k=k, t=t, root_digits=root, U=U, W=U - t - 1)


@functools.lru_cache(maxsize=None)
def _harmonic_residues(p: int) -> tuple[int, ...]:
    """H_b = 1 + 1/2 + ... + 1/b mod p for b = 0..p-1 (H_0 = 0): the
    residues that split a tree node's children (the harmonic rule of
    expansion).  p is a prime its callers have checked."""
    h, out = 0, [0]
    for b in range(1, p):
        h = (h + pow(b, -1, p)) % p
        out.append(h)
    return tuple(out)


def pi_p_mod(k: int, p: int, M: int) -> int:
    """Inverse mod p^M of the product of the root coprime blocks.

    The product runs over the blocks of every root digit prefix; it is a
    unit mod p, so the inverse exists for every M >= 1.
    """
    if M < 1:
        raise ArgumentError(f"M must be positive, got {M}")
    sc = structure_constants(k, p)  # validates p
    mod = p ** M
    prod = 1
    for v in range(sc.t + 1):
        for i in range(1, bp_count((k - 1) // p ** (sc.t - v), p) + 1):
            prod = prod * (i + (i - 1) // (p - 1)) % mod  # cp(i, p)
    return pow(prod, -1, mod)
