"""Exact multiple harmonic sums and their p-adic valuations.

H(n, k) sums 1/(i_1 * ... * i_k) over increasing k-tuples from [1, n].
It meets the unsigned Stirling numbers of the first kind in
H(n, k) = s(n+1, k+1) / n!, and each side has one exact row here:

  * _H_rows advances the Fraction row H(m, 0..k) by
    H(m, j) = H(m-1, j) + H(m-1, j-1) / m.  exact_H reads its last row,
    exact_H_table (and so integral_pairs) every row, and the harm-count
    check its column 1, the harmonic numbers;
  * _stirling_rows advances the integer row s(i, 0..k) by
    s(i+1, j) = s(i, j-1) + i * s(i, j), reduced mod p^M only when asked.
    stirling and stirling_mod read its last row, and the corollary-2adic
    check's exact cross reads it at each n it samples.

The structural check holds the two rows against each other; neither is
derived from the other.  vp_H, the bounded-precision route, reads
vp(H(n, k)) = vp(s(n+1, k+1)) - vp(n!) off a third, scaled row.

That row advances s(n+1, j+1), j <= k, mod p^A with the p-part of n!
divided out (_ScaledHRow), so its modulus has kL + v_max digits,
L = ilog_p(n), and grows with log n rather than with vp(n!).  Single values
(vp_H), scans over increasing n (vp_H_sweep) and tree membership
(padicharm.tree) all run that row.  A zero residue only says the valuation
is at least v_max.  vp_H pins a single value from the bottom: its row
starts at A = kL + v_max = 4 digits, and A doubles while the residue is
zero.  Near the paper's bound vp(H(n, k)) + kL is small, so a few digits
usually suffice, and a nonzero residue pins the valuation exactly.

The row packs its k + 1 residues mod p^A into one int, in slots of
S >= bits(p^A) + R*bits(2*n_max) + 1 bits: a step is two scalar products
and a mask whatever k is, and reducing every slot once per R steps keeps
any slot from carrying into the next.  A run of integers a + 1, ...,
a + p^e - 1 with p^e | a and e >= 2 is crossed by one product with a
polynomial that depends only on p, e and the modulus, so reaching n takes
O(p * log_p n) such products and short runs of steps (a row too short to
repay building those polynomials steps all the way), and vp_H and
vp_H_with_guard take any n; see _ScaledHRow.  vp_H_sweep reads every n
in turn, so it still steps through every integer and refuses n_max above
ROW_CAP.  The two exact rows stay its independent oracles.

Exact rationals are fractions.Fraction values and stay normalized.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from operator import mul

from .core import ArgumentError, SizeCapError, _require_prime, ilog, vp_int

__all__ = [
    "DEFAULT_EXACT_CAP",
    "ROW_CAP",
    "exact_H",
    "exact_H_table",
    "integral_pairs",
    "stirling",
    "stirling_mod",
    "vp_H",
    "vp_H_with_guard",
    "vp_H_sweep",
]

DEFAULT_EXACT_CAP = 4096

# vp_H_sweep reads the row at every n up to n_max, one step each, so it
# refuses n_max above this cap instead of running for hours.  Single
# values jump aligned blocks and take no cap.
ROW_CAP = 10 ** 7


def _check_range(n: int, k: int) -> None:
    if n < 0 or k < 0:
        raise ArgumentError(f"n and k must be nonnegative, got n={n}, k={k}")
    if k > n:
        raise ArgumentError(f"k must not exceed n, got n={n}, k={k}")


def _H_rows(n_max: int, k: int):
    """The Fraction rows H(m, 0..k), m = 0..n_max, in turn: the one exact
    H recurrence.  Each row is the same list updated in place, so only one
    row is alive; read or copy it before asking for the next."""
    row = [Fraction(1)] + [Fraction(0)] * k
    yield row
    for m in range(1, n_max + 1):
        for j in range(min(k, m), 0, -1):
            row[j] += row[j - 1] / m
        yield row


def _last(rows):
    """The last row a row generator yields."""
    for row in rows:
        pass
    return row


def exact_H(n: int, k: int) -> Fraction:
    """Exact H(n, k) as a reduced Fraction; H(n, 0) = 1.

    n is capped at DEFAULT_EXACT_CAP because the denominators grow like
    lcm(1..n)^k.
    """
    _check_range(n, k)
    if n > DEFAULT_EXACT_CAP:
        raise SizeCapError(f"n={n} exceeds exact-arithmetic cap {DEFAULT_EXACT_CAP}")
    return _last(_H_rows(n, k))[k]


def exact_H_table(n_max: int, k_max: int) -> list[list[Fraction]]:
    """Rows H(n, 0..min(n, k_max)) for n = 0..n_max, one shared sweep."""
    _check_range(n_max, 0)
    if k_max < 0:
        raise ArgumentError(f"k_max must be nonnegative, got {k_max}")
    if n_max > DEFAULT_EXACT_CAP:
        raise SizeCapError(
            f"n_max={n_max} exceeds exact-arithmetic cap {DEFAULT_EXACT_CAP}"
        )
    return [row[: min(m, k_max) + 1] for m, row in enumerate(_H_rows(n_max, k_max))]


def integral_pairs(n_max: int) -> list[tuple[int, int]]:
    """The (n, k) with 1 <= k <= n <= n_max and H(n, k) an integer, by n
    then k, read from one exact table."""
    if n_max < 1:
        raise ArgumentError(f"n_max must be positive, got {n_max}")
    table = exact_H_table(n_max, n_max)
    return [(n, k) for n in range(1, n_max + 1) for k in range(1, n + 1)
            if table[n][k].denominator == 1]


def _stirling_rows(n: int, k: int, mod: int | None = None):
    """The rows s(i, 0..k) of unsigned first-kind Stirling numbers,
    i = 0..n, in turn, each reduced mod `mod` when one is given.

    The one Stirling recurrence, s(i+1, j) = s(i, j-1) + i * s(i, j).  As
    in _H_rows each row is the same list updated in place, O(k) integers.
    """
    row = [1] + [0] * k
    yield row
    for i in range(n):
        for j in range(min(k, i + 1), 0, -1):
            row[j] = row[j - 1] + i * row[j]
        row[0] *= i
        if mod is not None:
            row[:] = [x % mod for x in row]
        yield row


def stirling(n: int, k: int) -> int:
    """Unsigned Stirling number of the first kind s(n, k), exactly.

    Counts permutations of n elements with exactly k cycles; k = 0 gives 0
    for n >= 1 by convention, k > n is rejected.
    """
    if n < 1:
        raise ArgumentError(f"n must be positive, got {n}")
    if not 0 <= k <= n:
        raise ArgumentError(f"k must lie in [0, {n}], got {k}")
    if n > DEFAULT_EXACT_CAP:
        raise SizeCapError(f"n={n} exceeds exact-arithmetic cap {DEFAULT_EXACT_CAP}")
    return _last(_stirling_rows(n, k))[k]


def stirling_mod(n: int, k: int, p: int, M: int) -> int:
    """s(n, k) mod p^M by the same row sweep, scalar ops only."""
    if n < 1:
        raise ArgumentError(f"n must be positive, got {n}")
    if not 0 <= k <= n:
        raise ArgumentError(f"k must lie in [0, {n}], got {k}")
    if M < 1:
        raise ArgumentError(f"M must be positive, got {M}")
    _require_prime(p)
    return _last(_stirling_rows(n, k, p ** M))[k]


# The packed row reduces its slots mod p^A once every this many steps.  On
# the row of the T_3(3) tree, R = 8, 12 and 16 time alike for k = 3, 5, 7,
# and R = 4 or R >= 24 is slower (CHANGES.md has the table).
_REDUCE_EVERY = 16


def _pack(coeffs: list[int], width: int) -> int:
    """sum_i coeffs[i] * 2^(8*width*i), for 0 <= coeffs[i] < 2^(8*width)."""
    return int.from_bytes(
        b"".join(c.to_bytes(width, "little") for c in coeffs), "little"
    )


def _unpack(packed: int, width: int, count: int, mod: int) -> list[int]:
    """The low count slots of packed, each mod `mod`, trailing zeros dropped."""
    packed &= (1 << 8 * width * count) - 1
    data = packed.to_bytes(width * count, "little")
    out = [
        int.from_bytes(data[i : i + width], "little") % mod
        for i in range(0, width * count, width)
    ]
    while out and not out[-1]:
        out.pop()
    return out


def _poly_mul(f: list[int], g: list[int], mod: int, cap: int) -> list[int]:
    """f * g mod (mod, Z^cap) for coefficient lists of residues mod `mod`."""
    if not f or not g:
        return []
    # each product coefficient is a sum of min(len) terms below mod^2
    width = (2 * mod.bit_length() + min(len(f), len(g)).bit_length() + 7) // 8
    return _unpack(
        _pack(f, width) * _pack(g, width), width, min(len(f) + len(g) - 1, cap), mod
    )


def _poly_shift(f: list[int], p: int, r: int, mod: int) -> list[int]:
    """f(p*Z + r) mod `mod`, by Horner's rule on W-bit slots.

    Each step multiplies the packed accumulator by p*Z + r, a scalar
    product, a shift and an add.  The exact coefficients stay below
    len(f) * mod * (p + r)^len(f), so no slot carries into the next.
    """
    if not f:
        return []
    bits = mod.bit_length() + len(f) * (p + r).bit_length() + len(f).bit_length()
    width = (bits + 7) // 8
    shift = 8 * width
    acc = 0
    for c in reversed(f):
        acc = r * acc + (p * acc << shift) + c
    return _unpack(acc, width, len(f), mod)


class _ScaledHRow:
    """Running row Z_j(n) = s(n+1, j+1) * p^(jL - vp(n!)) mod p^A, j = 0..k.

    With L = ilog_p(n_max), Z_j(n) = H(n, j) * p^(jL) * D(n) where
    D(n) = n! / p^vp(n!) is a p-adic unit, so vp(Z_k(n)) = vp(H(n, k)) + kL.
    One step is the Stirling recurrence with the p-part of n divided out:

        Z_j(n) = u(n) * Z_j(n-1) + p^(L - vp(n)) * Z_{j-1}(n-1)

    with u(n) the part of n prime to p.  Since vp(n) <= L for every
    n <= n_max, each factor is p-integral and every residue is exact mod
    p^A.  The row therefore needs only A = k*L + v_max digits, not
    vp(n!), to decide vp(H(n, k)) >= t for any t <= v_max and to pin
    vp(H(n, k)) whenever it lies below v_max.  It only moves forward in n.

    The k + 1 residues are packed into one int, P = sum_j Z_j * 2^(S*j),
    so a step costs two scalar products whatever k is:

        P = (u(n) * P + (p^(L - vp(n)) * P << S)) & MASK

    MASK keeps slots 0..k.  Content only moves to higher slots, so what it
    drops never reaches back down.  Every slot is reduced mod p^A once per
    R = _REDUCE_EVERY steps, counted across advance calls.  A reduced slot
    is below 2^bits(p^A), and a step multiplies the bound on every slot by
    at most u(n) + p^(L - vp(n)) <= 2*n_max, so with

        S >= bits(p^A) + R * bits(2*n_max) + 1

    no slot ever carries into the next one, and each residue, valuation
    and threshold decision equals that of the per-coefficient recurrence.

    Block jumps.  In y, the row is the polynomial prod_{m<=n} (u(m) +
    p^(L - vp(m)) * y) mod (y^(k+1), p^A).  Take an aligned block, the
    integers a + i, 0 < i < p^e, with p^e | a and 2 <= e <= L.  There
    vp(a + i) = vp(i), so with c = a / p^e and v = vp(i) the factor of
    a + i is p^(e-v) * (c + p^(L-e) * y) + i / p^v, and the whole block is

        H_e(c + p^(L-e) * y),   H_e(Z) = prod_{0<i<p^e} (p^(e-vp(i)) * Z + i/p^vp(i)).

    H_e has integer coefficients, and every factor's Z coefficient is
    divisible by p, so its Z^j coefficient h_j is divisible by p^j:
    mod p^A, H_e has degree below A.  Splitting i by its top base-p digit
    gives H_1(Z) = prod_{0<r<p} (p*Z + r) and

        H_{e+1}(Z) = H_1(Z) * prod_{0<=r<p} H_e(p*Z + r),

    so H_e is built mod (p^A, Z^A) from H_{e-1}, once per row.  The y^j
    coefficient of the block is p^(j(L-e)) * sum_i h_i * C(i, j) * c^(i-j),
    one dot product of a table row with the powers of c.  advance crosses
    the largest aligned block that fits while n - self.n >= p^2: it
    reduces the slots, multiplies P by the packed block polynomial (the
    slot width also holds the k + 1 products below (p^A)^2 that make a
    slot of that product, S >= 2*bits(p^A) + bits(k+1) + 1), reduces
    again, and takes a + p^e as one ordinary step.  Everything else,
    every advance by less than p^2, and vp_H_sweep, which reads Z_k after
    every step, run the per-step loop, and so does a whole row with
    n_max <= p*L*A, which would spend more on building H_1..H_L than the
    steps cost.  Each residue is the same integer mod p^A either way.
    """

    def __init__(self, k: int, p: int, n_max: int, v_max: int) -> None:
        self.k, self.p, self.n_max = k, p, n_max
        self.L = ilog(n_max, p)
        self.kL = k * self.L
        self.A = self.kL + v_max
        self.mod = p ** max(self.A, 0)
        self.scale = [p ** (self.L - v) for v in range(self.L + 1)]
        bits = self.mod.bit_length()
        self.S = max(
            bits + _REDUCE_EVERY * (2 * n_max).bit_length() + 1,
            2 * bits + (k + 1).bit_length() + 1,
        )
        self.mask = (1 << self.S * (k + 1)) - 1
        self.n = 0
        self.packed = 1
        self.pending = 0  # steps since the slots were last reduced
        # Building H_1..H_L costs about p*L*A slot operations and each of
        # them about as much as a step, so a row that cannot travel further
        # than that steps all the way.
        self.jumps = n_max > p * self.L * max(self.A, 1)
        self._block_polys: list[list[int]] = []  # [e - 1]: H_e mod (p^A, Z^A)
        self._tables: dict[int, list[list[int]]] = {}

    def _reduced(self, packed: int) -> int:
        S, mod = self.S, self.mod
        slot = (1 << S) - 1
        out = 0
        for j in range(self.k, -1, -1):
            out = out << S | (packed >> S * j & slot) % mod
        return out

    def advance(self, n: int) -> int:
        """Step the row to n and return Z_k(n)."""
        if not self.n <= n <= self.n_max:
            raise ValueError(
                f"row at n={self.n} cannot move to {n} (n_max={self.n_max})"
            )
        p = self.p
        pp = p * p
        while self.jumps and n - self.n >= pp:
            a = self.n
            if a % pp:
                self._step(a + pp - a % pp)
                continue
            e, q = 2, pp
            while a % (q * p) == 0 and a + q * p <= n:
                e, q = e + 1, q * p
            self._block(e, a // q)
            self._step(a + q)
        self._step(n)
        return (self.packed >> self.S * self.k) % self.mod

    def _step(self, n: int, vals: dict[int, int | None] | None = None) -> None:
        """Multiply in the factors of self.n + 1, ..., n one at a time.

        With vals, also read Z_k after each factor m: vals[m] is what
        self.vp(m) gives, vp(H(m, k)) if it lies below v_max, else None.
        """
        p, S, mask, scale = self.p, self.S, self.mask, self.scale
        top, mod, kL = S * self.k, self.mod, self.kL
        packed, pending = self.packed, self.pending
        for m in range(self.n + 1, n + 1):
            u, v = m, 0
            while u % p == 0:
                u //= p
                v += 1
            packed = (u * packed + (scale[v] * packed << S)) & mask
            pending += 1
            if pending == _REDUCE_EVERY:
                packed = self._reduced(packed)
                pending = 0
            if vals is not None:
                # slot k is congruent to Z_k mod p^A, reduced or not
                residue = (packed >> top) % mod
                vals[m] = vp_int(residue, p) - kL if residue else None
        self.packed, self.pending, self.n = packed, pending, n

    def _block(self, e: int, c: int) -> None:
        """Multiply in the factors of c*p^e + i, 0 < i < p^e, as one product."""
        mod = self.mod
        rows = self._block_table(e)
        c %= mod
        powers = [1]  # row 0 is the longest, one entry per term of H_e
        for _ in range(1, len(rows[0])):
            powers.append(powers[-1] * c % mod)
        factor = 0
        for row in reversed(rows):
            factor = factor << self.S | sum(map(mul, row, powers)) % mod
        packed = self._reduced(self.packed) if self.pending else self.packed
        self.packed = self._reduced(packed * factor & self.mask)
        self.pending = 0
        self.n += self.p ** e - 1

    def _block_table(self, e: int) -> list[list[int]]:
        """Rows p^(j(L-e)) * h_i * C(i, j) mod p^A, i >= j, of H_e, j = 0..k."""
        rows = self._tables.get(e)
        if rows is None:
            h, mod, p = self._block_poly(e), self.mod, self.p
            rows = []
            for j in range(self.k + 1):
                lift = p ** (j * (self.L - e)) % mod
                row = [h[i] * comb(i, j) * lift % mod for i in range(j, len(h))]
                while row and not row[-1]:
                    row.pop()
                rows.append(row)
            self._tables[e] = rows
        return rows

    def _block_poly(self, e: int) -> list[int]:
        """H_e mod (p^A, Z^A), built from H_1 up on first use."""
        H, p, mod = self._block_polys, self.p, self.mod
        cap = max(self.A, 0)
        if not H:
            h1 = [1 % mod]
            for r in range(1, p):
                h1 = _poly_mul(h1, [r % mod, p % mod], mod, cap)
            H.append(h1)
        while len(H) < e:
            prev = H[-1]
            h = H[0]
            for r in range(p):
                h = _poly_mul(h, _poly_shift(prev, p, r, mod), mod, cap)
            H.append(h)
        return H[e - 1]

    def vp_at_least(self, n: int, t: int) -> bool:
        """Whether vp(H(n, k)) >= t, for t <= max(v_max, -kL)."""
        e = self.kL + t
        # Z_k is p-integral, so vp(H(n, k)) >= -kL always holds
        if e <= 0:
            return True
        if e > self.A:
            raise ValueError(f"threshold {t} lies above the row's v_max")
        return self.advance(n) % self.p ** e == 0

    def vp(self, n: int) -> int | None:
        """vp(H(n, k)) if it lies below v_max, else None."""
        residue = self.advance(n)
        return vp_int(residue, self.p) - self.kL if residue else None


def vp_H_with_guard(n: int, k: int, p: int) -> tuple[int, int]:
    """vp(H(n, k)) plus the v_max of the scaled row that pinned it.

    The row reads Z_k = H(n, k) * p^(kL) * unit mod p^A and only needs the
    digits up to its first nonzero one, which sits low wherever
    vp(H(n, k)) is near its lower bound -kL.  So the row starts at A = 4
    digits (v_max = 4 - kL, negative for most n) and A doubles while the
    residue is zero; a nonzero residue pins vp(H(n, k)) exactly.
    H(n, k) > 0 guarantees termination.
    """
    if k < 1:
        raise ArgumentError(f"k must be positive, got {k}")
    _check_range(n, k)
    _require_prime(p)
    kL = k * ilog(n, p)
    A = 4
    while True:
        val = _ScaledHRow(k, p, n, A - kL).vp(n)
        if val is not None:
            return val, A - kL
        A *= 2


def vp_H(n: int, k: int, p: int) -> int:
    """Exact finite vp(H(n, k)) via the scaled Stirling row."""
    return vp_H_with_guard(n, k, p)[0]


def vp_H_sweep(n_max: int, k: int, p: int) -> dict[int, int]:
    """vp(H(n, k)) for every n in [k, n_max] from one shared row sweep.

    Steps one scaled row (_ScaledHRow) with v_max = (k+1)(L+1) + 8,
    L = ilog_p(n_max), through every integer up to n_max in one call of
    its per-step loop, which reads Z_k after each step from k on.  The
    row's slot width is dominated by R * bits(2*n_max), not by its
    digits, so a sweep gains nothing from a smaller start.  Any valuation
    at or above v_max falls back to vp_H, so results always agree with
    vp_H.
    """
    if k < 1:
        raise ArgumentError(f"k must be positive, got {k}")
    if n_max < k:
        raise ArgumentError(f"n_max must be at least k, got {n_max}")
    _require_prime(p)
    if n_max > ROW_CAP:
        raise SizeCapError(
            f"n_max={n_max} exceeds the Stirling sweep cap {ROW_CAP}; "
            "a sweep steps through every integer up to n_max"
        )
    row = _ScaledHRow(k, p, n_max, (k + 1) * (ilog(n_max, p) + 1) + 8)
    row._step(k - 1)
    out: dict[int, int | None] = {}
    row._step(n_max, out)
    for n in [n for n, val in out.items() if val is None]:
        out[n] = vp_H(n, k, p)
    return out
