"""Machine-speed reference for the benchmark's timings.

A few cores of a shared host do not run at one speed: the same fixed
computation can take up to twice as long for seconds to minutes at a time,
with the process on the CPU throughout (its CPU time equals its wall time),
because other tenants share the cores' caches and execution units. A wall
time measured in a slow spell says as much about the neighbours as about
the program.

So while the benchmark measures, a wall-clock timer signal samples a fixed
reference computation every ``INTERVAL_S``. The reference uses no package
code: interpreter work, small dense numpy products like the models' and a
pass over a 1 MiB array. The time the samples take is taken out of every
timed interval, and each interval is divided by the median of the samples
taken during it (for a short one, the mean of the nearest sample on either
side) and reported in *reference seconds*: the time it would take on a
machine where the reference takes ``NOMINAL_S``. Under a neighbour's load
the interval and the reference slow down together, so their ratio moves
much less than either. The program's own speed-ups and slow-downs change
the interval alone, so they show in full.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

import numpy as np

NOMINAL_S = 0.2e-3  # the reference's duration on the machine that reference seconds describe
SAMPLE_REPEATS = 3  # reference runs per sample; the median is kept, so one interrupt does not count
INTERVAL_S = 0.05  # between reference samples

_rng = np.random.default_rng(20211018)
_W = _rng.standard_normal((64, 64)) / 8.0
_X = _rng.standard_normal((24, 64))
_BIG = _rng.standard_normal(1 << 17)
_H = (np.empty((24, 64)), np.empty((24, 64)))


def reference() -> float:
    """The fixed computation: about 0.2 ms on an uncontended 2 GHz Xeon core.

    Its arrays are allocated once, at import, so that a sample taken in the
    middle of the program's work allocates next to nothing.
    """
    acc, seen = 0, {}
    for i in range(600):
        acc = (acc + i * i) % 9973
        seen[i & 31] = acc
    h = _X
    for step in range(14):
        out = _H[step % 2]
        np.matmul(h, _W, out=out)
        h = np.maximum(out, 0.0, out=out)
    return acc + float(h.sum()) + float(_BIG @ _BIG)


@dataclass(frozen=True)
class Interval:
    start: float
    end: float
    wall: float  # end - start, less the reference samples taken in between


class Speedometer:
    """Timestamped reference samples of one run, and the time spent taking them."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.samples: list[float] = []
        self.spent = 0.0

    def sample(self) -> None:
        """Time the reference now: the median of ``SAMPLE_REPEATS`` runs, in seconds.

        The garbage collector is held off meanwhile: the sample frees what
        it allocates, so the program's next collection comes when it would
        have come without the sample.
        """
        t_start = perf_counter()
        collecting = gc.isenabled()
        gc.disable()
        runs = []
        for _ in range(SAMPLE_REPEATS):
            t0 = perf_counter()
            reference()
            runs.append(perf_counter() - t0)
        if collecting:
            gc.enable()
        self.times.append(t_start)
        self.samples.append(sorted(runs)[SAMPLE_REPEATS // 2])
        self.spent += perf_counter() - t_start

    @contextmanager
    def sampling(self):
        """Sample at the start and the end of the block and every ``INTERVAL_S`` in it.

        The timer's handler runs between the interpreter's bytecodes, so a
        sample falls between two of the program's numpy calls, never in one.
        """
        self.sample()
        previous = signal.signal(signal.SIGALRM, lambda *_: self.sample())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
            self.sample()

    def mark(self) -> tuple[float, float]:
        return perf_counter(), self.spent

    def since(self, mark: tuple[float, float]) -> Interval:
        """The interval from ``mark`` to now."""
        start, spent = mark
        end = perf_counter()
        return Interval(start, end, end - start - (self.spent - spent))

    def reference_seconds(self, iv: Interval) -> float:
        """``iv``'s wall seconds at the reference's nominal speed; call once sampling has ended."""
        lo = bisect.bisect_left(self.times, iv.start)
        hi = bisect.bisect_right(self.times, iv.end)
        inside = self.samples[lo:hi] or self.samples[max(lo - 1, 0) : hi + 1]
        return iv.wall * NOMINAL_S / statistics.median(inside)
