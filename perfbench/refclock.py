"""Wall time of the timed section in units of a fixed reference burst.

The benchmark's host is shared, and its speed drifts by tens of percent
from one second to the next (see the calibration loop on the '#' lines).
Raw seconds of one workload spread too far from run to run to bound a
regression.  So a timer interrupts the timed section every SLICE_S
seconds and runs a reference burst: fixed pure-Python work, none of it
padicharm code, that mixes what the interpreter does for the workloads
(Fractions, sorting, JSON, small objects, calls, sets, strings, small
integers, and products modulo a 2378-bit number as in the Stirling
rows).  A burst that is only one of these, such as a small-integer loop,
slows down less than the workloads do when the host is busy.

Each slice of workload time is divided by the mean time of the bursts on
either side of it; the sum is the section's length in bursts, which a
slower host stretches much less than it stretches seconds, while a
slower program stretches it fully.  Burst time is left out of the raw
seconds as well.
"""

from __future__ import annotations

import json
import re
import signal
import time
from fractions import Fraction

SLICE_S = 0.25
_ROUNDS = 4
_BIG_ITERS = 300
_BIG_MOD = 3 ** 1500
_WORDS = re.compile(r"(\d+)-(\w+)")

clock = time.perf_counter


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        self.a, self.b = a, b

    def product(self) -> int:
        return self.a * self.b


def _fib(n: int) -> int:
    return n if n < 2 else _fib(n - 1) + _fib(n - 2)


def _round() -> None:
    """A little of each kind of work the interpreter does for padicharm."""
    h = Fraction(0)
    for i in range(1, 60):
        h += Fraction(1, i)
    sorted((i * 7919) % 1009 for i in range(600))
    json.loads(json.dumps({str(i): [i, i * i] for i in range(150)}))
    sum(_Pair(i, i + 1).product() for i in range(300))
    _fib(12)
    len({i % 97 for i in range(500)} | {i % 89 for i in range(500)})
    len(_WORDS.findall(" ".join(f"{i}-x{i % 13}" for i in range(150))))
    y = 1
    for i in range(150):
        y = (y * 12_345_678_901_234_567 + i) % _BIG_MOD


def burst() -> float:
    """Seconds for one run of the fixed reference work."""
    t0 = clock()
    for _ in range(_ROUNDS):
        _round()
    x, y = 12_345_678_901_234_567, 1
    for i in range(_BIG_ITERS):
        y = (y * x + i) % _BIG_MOD
        x += y
    return clock() - t0


class RefClock:
    """Context manager that interleaves reference bursts with the code
    it wraps (SIGALRM, main thread only)."""

    def __init__(self):
        self.slices: list[float] = []
        self.bursts: list[float] = []
        self.paused_s = 0.0  # burst time so far, for per-operation times
        self._on = False

    def __enter__(self) -> "RefClock":
        self.bursts.append(burst())
        self._old = signal.signal(signal.SIGALRM, self._tick)
        self._on = True
        self._mark = clock()
        signal.setitimer(signal.ITIMER_REAL, SLICE_S, SLICE_S)
        return self

    def _tick(self, signum, frame) -> None:
        # a tick that arrives during a burst, or still pending when the
        # section ends, is dropped: the slice being closed covers its time
        if self._on:
            self._on = False
            self._close_slice()
            self._on = True

    def _close_slice(self) -> None:
        now = clock()
        self.slices.append(now - self._mark)
        self.bursts.append(burst())
        self._mark = clock()
        self.paused_s += self._mark - now

    def __exit__(self, *exc) -> None:
        self._on = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._close_slice()
        signal.signal(signal.SIGALRM, self._old)

    @property
    def busy_s(self) -> float:
        """Seconds of the wrapped code, bursts left out."""
        return sum(self.slices)

    @property
    def units(self) -> float:
        """Length of the wrapped code in reference bursts."""
        b = self.bursts
        return sum(s / ((b[i] + b[i + 1]) / 2) for i, s in enumerate(self.slices))
