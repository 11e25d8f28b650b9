#!/usr/bin/env python3
"""Measure where the closed-form reciprocal sums overtake the direct scans.

For every (p, m, M, B) of the grid this times, as the quartiles of
repeated perf_counter runs, the two routes behind each dispatch on
expansion._DIRECT_LIMIT:

  esym  recip_esym(B, m, p, M): the per-unit scan against Newton's
        identities over closed-form power sums,
  psum  recip_power_sum(B, r, p, M) for r = 1..m: the per-unit scan
        against the closed form.

Each measurement starts with all four block stores empty (symmetric
sums, power sums, weights, falling-factorial terms), so nothing is served
from an entry built at a larger precision.  An untimed first run builds
the B-independent weights, which real walks reuse; the stores keyed by B
are emptied again before every timed call, so no timed call is a store
hit.  It prints each route's quartiles (q1 median q3, in ms) for every
row and a verdict: "closed" or "direct" when one route's interquartile
range lies wholly below the other's, else "unresolved".  Only resolved
rows count: it prints the smallest grid B of each cell from which the
closed form wins every resolved row, and the largest B at which a direct
scan still wins somewhere; an unresolved row moves neither.

Example:
    PYTHONPATH=src python3 scripts/crossover.py --repeats 7
"""

import argparse
import statistics
import time

from padicharm import expansion

GRID_B = (2, 4, 8, 12, 16, 20, 24, 28, 32, 48, 64, 128, 256, 1024, 4096)


BLOCK_STORES = (expansion.recip_esym, expansion.recip_power_sum, expansion._index_power_sums)
ALL_STORES = BLOCK_STORES + (expansion._closed_weights,)


def _clear(stores) -> None:
    for fn in stores:
        fn.cache_clear()


def _quartile_seconds(fn, repeats: int) -> tuple[float, float, float]:
    """(q1, median, q3) of the timed runs."""
    _clear(ALL_STORES)
    fn()
    times = []
    for _ in range(repeats):
        _clear(BLOCK_STORES)
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    q1, med, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return q1, med, q3


def _verdict(direct, closed) -> str:
    """The route whose interquartile range lies below the other's."""
    if closed[2] < direct[0]:
        return "closed"
    if direct[2] < closed[0]:
        return "direct"
    return "unresolved"


def _ms(q) -> str:
    return " ".join(f"{1e3 * t:8.3f}" for t in q)


def _routes(B: int, m: int, p: int, M: int):
    """(direct, closed) callables for the esym and psum operations."""
    return {
        "esym": (
            lambda: expansion._recip_esym_direct(B, m, p, M),
            lambda: expansion._recip_esym_newton(B, m, p, M),
        ),
        "psum": (
            lambda: [expansion._recip_power_sum_direct(B, r, p, M) for r in range(1, m + 1)],
            lambda: [expansion._recip_power_sum_closed(B, r, p, M) for r in range(1, m + 1)],
        ),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--p", type=int, nargs="+", default=[2, 3, 5])
    parser.add_argument("--m", type=int, nargs="+", default=[2, 8])
    parser.add_argument("--M", type=int, nargs="+", default=[12, 72])
    parser.add_argument("--B", type=int, nargs="+", default=list(GRID_B))
    parser.add_argument("--repeats", type=int, default=7)
    args = parser.parse_args()
    if args.repeats < 2:
        parser.error("--repeats must be at least 2 to give quartiles")

    limit = expansion._DIRECT_LIMIT
    # Newton's power sums must take the closed form at every B of the grid.
    expansion._DIRECT_LIMIT = -1
    print(f"{'p':>3} {'m':>3} {'M':>4} {'B':>6} {'op':>5} {'direct q1 med q3 (ms)':>26} "
          f"{'closed q1 med q3 (ms)':>26}  verdict")
    crossings = {}
    for p in args.p:
        for m in args.m:
            for M in args.M:
                wins = {"esym": [], "psum": []}
                for B in sorted(args.B):
                    if B < m:
                        continue
                    for op, (direct, closed) in _routes(B, m, p, M).items():
                        assert direct() == closed(), (op, p, m, M, B)
                        d = _quartile_seconds(direct, args.repeats)
                        c = _quartile_seconds(closed, args.repeats)
                        verdict = _verdict(d, c)
                        if verdict != "unresolved":
                            wins[op].append((B, verdict == "closed"))
                        print(f"{p:>3} {m:>3} {M:>4} {B:>6} {op:>5} {_ms(d):>26} "
                              f"{_ms(c):>26}  {verdict}", flush=True)
                for op, row in wins.items():
                    losses = [B for B, won in row if not won]
                    later = [B for B, _ in row if not losses or B > losses[-1]]
                    crossings[(p, m, M, op)] = (later[0] if later else None,
                                                losses[-1] if losses else 0)
    print()
    print(f"{'p':>3} {'m':>3} {'M':>4} {'op':>5} {'closed wins from B':>19}")
    for (p, m, M, op), (first, _) in crossings.items():
        print(f"{p:>3} {m:>3} {M:>4} {op:>5} {first if first is not None else '-':>19}")
    last_direct = max(last for _, last in crossings.values())
    print(f"\nlargest grid B where a direct scan wins: {last_direct} "
          f"(_DIRECT_LIMIT is {limit})")


if __name__ == "__main__":
    main()
