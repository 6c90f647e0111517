"""Machine-speed tracking with a fixed reference kernel.

On a shared host the same operation can take 40-60% longer for seconds or
minutes at a time, when other tenants load the machine, while nothing in the
program changed.  The benchmark runs a small fixed kernel between operations
and scales every timing by how fast that kernel ran around it: a timing
reads as it would where the kernel takes ``NOMINAL_S``.  The kernel is the
benchmark's own code, independent of ubcode, so no change to ubcode moves it;
it does what ubcode's hot loops do (table-driven GF(2^8) multiply-accumulate
through method calls over lists of ints).
"""

from __future__ import annotations

import random
import statistics
from collections import deque
from time import perf_counter

# Kernel time at the nominal speed: its typical time (fastest of three runs)
# on the machine the bounds in BENCHMARK.json were set on, a 2-vCPU 2.1 GHz
# Intel Xeon VM with Python 3.11, so scaled timings read near raw ones there.
NOMINAL_S = 1.3e-4
INTERVAL_S = 0.02  # run the kernel at most this often
WINDOW = 5         # the speed is the median of this many recent kernel runs


class _Gf256:
    """Log/exp tables of GF(2^8) modulo x^8 + x^4 + x^3 + x^2 + 1."""

    def __init__(self):
        self.exp = [0] * 255
        self.log = [0] * 256
        v = 1
        for i in range(255):
            self.exp[i] = v
            self.log[v] = i
            v <<= 1
            if v & 0x100:
                v ^= 0x11D

    def add(self, a: int, b: int) -> int:
        return a ^ b

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.exp[(self.log[a] + self.log[b]) % 255]


_FIELD = _Gf256()
_RNG = random.Random(0)
_ROWS = [[_RNG.randrange(256) for _ in range(24)] for _ in range(24)]
_VEC = [_RNG.randrange(256) for _ in range(24)]


def reference_kernel() -> list[int]:
    """A fixed 24x24 matrix-vector product over GF(2^8)."""
    f = _FIELD
    out = []
    for row in _ROWS:
        acc = 0
        for a, x in zip(row, _VEC):
            if a and x:
                acc = f.add(acc, f.mul(a, x))
        out.append(acc)
    return out


class Pace:
    """The machine's current speed, from recent runs of the reference kernel."""

    def __init__(self):
        self.recent: deque[float] = deque(maxlen=WINDOW)
        self.factors: list[float] = []
        self._last = float("-inf")

    def tick(self) -> None:
        """Run the kernel if it has not run for ``INTERVAL_S``."""
        if perf_counter() - self._last >= INTERVAL_S:
            self._kernel()

    def _kernel(self) -> float:
        """Time the kernel; the fastest of three runs ignores an interrupt."""
        times = []
        for _ in range(3):
            start = perf_counter()
            reference_kernel()
            times.append(perf_counter() - start)
        self._last = perf_counter()
        self.recent.append(min(times))
        return min(times)

    def timed(self, fn, *args) -> float:
        """Seconds ``fn(*args)`` takes at the nominal speed: for one-off calls
        such as set-up."""
        self._kernel()
        start = perf_counter()
        fn(*args)
        return self.scale(perf_counter() - start)

    def scale(self, seconds: float) -> float:
        """``seconds``, just measured after a ``tick``, as they would read at
        the nominal speed.  A call longer than ``INTERVAL_S`` is judged by the
        kernel runs just before and just after it, since the speed can change
        during it; a shorter one by the median of the recent runs."""
        if seconds >= INTERVAL_S:
            before = self.recent[-1]
            kernel = (before + self._kernel()) / 2
        else:
            kernel = statistics.median(self.recent)
        factor = NOMINAL_S / kernel
        self.factors.append(factor)
        return seconds * factor

    def speed(self) -> float | None:
        """Median speed relative to nominal over the run (>1: faster)."""
        return statistics.median(self.factors) if self.factors else None
