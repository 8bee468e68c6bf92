"""Fixed stdlib-only reference kernel used to calibrate timings.

The kernel does the same kind of work as the verifier on the stdlib
``Fraction`` backend (entrywise heap and action, one product) on fixed
5 x 5 inputs, so a slower or busier machine slows it by about the same
factor as it slows the program.  It must never import ``affgebra``: a
change to the program must not change the yardstick.

The speed of a shared CPU can change by 2x within a fraction of a
second, so one long kernel run before and after a measurement says
little about the interval between them.  Callers instead take short
ticks, interleaved with the measured work, and divide by their mean.
"""
from __future__ import annotations

import statistics
import time
from fractions import Fraction

_N = 5
_TICK_INNER = 2  # about 1.5 to 3 ms on a 2020s x86 core
TICK_EVERY_S = 0.03  # about 7% of the measured time goes to ticks


def _fixed_matrix(offset: int) -> tuple:
    return tuple(
        tuple(Fraction((7 * i + 3 * j + offset) % 11 - 5, (i + 2 * j + offset) % 7 + 1) for j in range(_N))
        for i in range(_N)
    )


_A, _B, _C = _fixed_matrix(0), _fixed_matrix(1), _fixed_matrix(2)
_ALPHA = Fraction(3, 4)


def _heap(a, b, c):
    return tuple(tuple(x - y + z for x, y, z in zip(ra, rb, rc)) for ra, rb, rc in zip(a, b, c))


def _action(alpha, base, b):
    return tuple(tuple((y - x) * alpha + x for x, y in zip(rx, ry)) for rx, ry in zip(base, b))


def _matmul(a, b):
    cols = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a)


def kernel_once() -> tuple:
    """One fixed unit of reference work; returns its result so the work
    cannot be skipped."""
    out = _A
    for _ in range(_TICK_INNER):
        h = _heap(_A, _B, _C)
        out = _matmul(_action(_ALPHA, h, _B), _C)
    return out


def tick() -> float:
    """Seconds taken by one kernel tick."""
    start = time.perf_counter()
    kernel_once()
    return time.perf_counter() - start


class Ticker:
    """Kernel ticks interleaved with measured work.

    ``maybe`` ticks when at least TICK_EVERY_S passed since the last
    tick.  Work done after tick ``i`` and before tick ``i + 1`` is
    calibrated by ``k(i)``, the mean of those two ticks, so each piece of
    work is scaled by the speed the machine had while it ran.
    """

    def __init__(self):
        self.ticks: list[float] = []
        self._last = time.perf_counter()

    def tick(self) -> None:
        self.ticks.append(tick())
        self._last = time.perf_counter()

    def maybe(self) -> None:
        if time.perf_counter() - self._last >= TICK_EVERY_S:
            self.tick()

    @property
    def last(self) -> int:
        """Index of the latest tick."""
        return len(self.ticks) - 1

    def k(self, i: int) -> float:
        """K for work done between tick ``i`` and tick ``i + 1``."""
        return (self.ticks[i] + self.ticks[i + 1]) / 2

    def mean(self) -> float:
        return statistics.fmean(self.ticks)
