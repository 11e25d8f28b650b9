"""Base-p digit strings and the closed-form quantities attached to them.

Digit vectors are big endian: digits[0] is the most significant digit and
must be nonzero, so value(<a0,...,av>) = sum_i a_i * p^(v-i).  Everything
here is a pure function of its inputs.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

__all__ = [
    "ArgumentError",
    "SizeCapError",
    "PrecisionError",
    "EngineDisagreement",
    "DigitString",
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


@dataclass(frozen=True)
class DigitString:
    """Big-endian base-p digit vector with nonzero leading digit.

    The constructor validates; strings derived from a valid one (prefix,
    parent, to_digits) are built by _trusted, which does not.
    """

    p: int
    digits: tuple[int, ...]

    @classmethod
    def _trusted(cls, p: int, digits: tuple[int, ...]) -> "DigitString":
        self = object.__new__(cls)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "digits", digits)
        return self

    def __post_init__(self) -> None:
        _require_prime(self.p)
        if not self.digits:
            raise ArgumentError("digit string must be nonempty")
        if self.digits[0] == 0:
            raise ArgumentError("leading digit must be nonzero")
        if any(not 0 <= d < self.p for d in self.digits):
            raise ArgumentError(f"digits must lie in [0, {self.p - 1}]: {self.digits}")

    def __len__(self) -> int:
        return len(self.digits)

    def __iter__(self) -> Iterator[int]:
        return iter(self.digits)

    def __str__(self) -> str:
        body = ",".join(str(d) for d in self.digits)
        return f"<{body}>_{self.p}"

    @property
    def value(self) -> int:
        acc = 0
        for d in self.digits:
            acc = acc * self.p + d
        return acc

    def prefix(self, length: int) -> "DigitString":
        if not 1 <= length <= len(self.digits):
            raise ArgumentError(f"prefix length {length} out of range")
        return DigitString._trusted(self.p, self.digits[:length])

    def parent(self) -> "DigitString":
        if len(self.digits) < 2:
            raise ArgumentError("a single digit has no parent")
        return DigitString._trusted(self.p, self.digits[:-1])

    def extends(self, other: "DigitString") -> bool:
        return (
            self.p == other.p
            and len(self.digits) >= len(other.digits)
            and self.digits[: len(other.digits)] == other.digits
        )


def to_digits(n: int, p: int) -> DigitString:
    """Base-p digit string of a positive integer, most significant first.

    Rejects n = 0 (no digit string with nonzero leading digit exists).
    """
    _require_prime(p)
    _require_positive(n)
    digits = []
    while n:
        n, d = divmod(n, p)
        digits.append(d)
    return DigitString._trusted(p, tuple(reversed(digits)))


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


def bp_count(d: DigitString) -> int:
    """Value of d minus the value of its parent (0 for a missing parent).

    Counts how many new coprime-sequence indices the last digit opens up.
    """
    v = d.value
    return v - v // d.p


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

    t is the index of the last digit of k-1, U the weighted block count
    plus t + 1, and W = U - t - 1 the level offset used by the tree.
    """

    p: int
    k: int
    t: int
    root_digits: DigitString
    U: int
    W: int


def structure_constants(k: int, p: int) -> StructureConstants:
    """Constants of the digit machinery for k >= 2 (k = 1 is rejected)."""
    if k < 2:
        raise ArgumentError(f"k must be at least 2, got {k}")
    root = to_digits(k - 1, p)
    t = len(root) - 1
    U = sum(bp_count(root.prefix(v + 1)) * v for v in range(t + 1)) + t + 1
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
        count = bp_count(sc.root_digits.prefix(v + 1))
        for i in range(1, count + 1):
            prod = prod * (i + (i - 1) // (p - 1)) % mod  # cp(i, p)
    return pow(prod, -1, mod)
