"""Host-speed probe: times of the benchmark at a fixed reference speed.

The benchmark runs on shared virtual CPUs whose speed changes on its own,
by up to 1.5x, in phases of seconds to tens of seconds, so a wall time says
as much about the neighbours as about the program.  A :class:`SpeedProbe`
runs a fixed calibration kernel in the measured process itself, every
``INTERVAL_S`` on a timer signal, so that its samples see the same CPU at the
same moments as the program.  :meth:`SpeedProbe.seconds` turns a wall
interval into seconds at the reference speed: the interval minus the probe's
own time inside it, divided by the slowdown of the kernel around it (the
median kernel time near the interval over ``REFERENCE_S``), one piece of at
most ``PIECE_S`` at a time.

The kernel mixes the two kinds of work of the library: a jump loop of
interpreted Python and scalar numpy calls, as in the simulator, and vector
arithmetic over cache-sized arrays, as in the operators.  Each sample first
runs a quarter of the kernel untimed, because the program has just evicted
the kernel's code and data and a cold kernel would read the program's
memory footprint as a slower CPU.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.1  # wall time between probe samples
REFERENCE_S = 0.003  # about the kernel's median time on a 2-vCPU Intel Xeon VM
WINDOW_S = 0.5  # samples this close to an interval set its slowdown
PIECE_S = 1.0  # a longer interval is converted piece by piece

_RNG = np.random.default_rng(12345)
_EDGES = np.cumsum(_RNG.random(65))  # a sojourn table: hazard levels of one line
_ROWS = _RNG.random((66, 32))  # kernel rows, as of the post-jump draw
_VEC = _RNG.random((4, 16384))  # operator-sized vectors


def kernel(scale: int = 4) -> float:
    """A fixed piece of work, about ``REFERENCE_S`` at ``scale=4``.

    Half is a jump loop shaped like the simulator's (a uniform draw, scalar
    numpy indexing, two searchsorted calls, a small row blend), half vector
    arithmetic over arrays the size of a mesh's per-node tables.
    """
    rng = np.random.default_rng(7)
    acc = 0.0
    for _ in range(25 * scale):
        level = -math.log1p(-rng.random()) * 8.0
        k = min(int(np.searchsorted(_EDGES, level, side="right")), 64)
        w = (level - float(_EDGES[k - 1])) if k else 0.0
        row = w * _ROWS[k] + (1.0 - w) * _ROWS[k + 1]
        acc += int(np.searchsorted(np.cumsum(row), rng.random() * row.sum()))
    a, b, c, d = _VEC
    for _ in range(3 * scale):
        e = np.maximum(a * b + c, d) - 0.5 * np.minimum(a, c)
        acc += float(np.dot(e, b)) + float(np.cumsum(e)[-1])
    return acc


class SpeedProbe:
    """Calibration samples ``(start, end)`` taken on SIGALRM in this process."""

    def __init__(self):
        self.begins: list[float] = []  # sample start, warm-up included
        self.starts: list[float] = []  # timed kernel start
        self.ends: list[float] = []
        self._busy = False

    def start(self) -> None:
        kernel()  # warm the code and arrays before the first sample
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _tick(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        begin = time.perf_counter()
        kernel(1)  # warm-up, untimed
        t0 = time.perf_counter()
        kernel()
        self.ends.append(time.perf_counter())
        self.starts.append(t0)
        self.begins.append(begin)
        self._busy = False

    def slowdown(self, t0: float, t1: float) -> float:
        """Median kernel time near ``[t0, t1]`` over the reference time."""
        lo = bisect.bisect_left(self.starts, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.starts, t1 + WINDOW_S)
        if lo >= hi:  # no sample near: the nearest one
            if not self.starts:
                return 1.0
            lo = min(max(bisect.bisect_left(self.starts, t0) - 1, 0), len(self.starts) - 1)
            hi = lo + 1
        durations = [e - s for s, e in zip(self.starts[lo:hi], self.ends[lo:hi])]
        return statistics.median(durations) / REFERENCE_S

    def own_time(self, t0: float, t1: float) -> float:
        """Wall time the probe itself spent inside ``[t0, t1]``."""
        lo = max(bisect.bisect_left(self.begins, t0) - 1, 0)
        hi = bisect.bisect_right(self.begins, t1)
        return sum(max(min(e, t1) - max(b, t0), 0.0)
                   for b, e in zip(self.begins[lo:hi], self.ends[lo:hi]))

    def seconds(self, t0: float, t1: float) -> float:
        """Wall interval ``[t0, t1]`` of the program in reference seconds."""
        n = max(math.ceil((t1 - t0) / PIECE_S), 1)
        edges = [t0 + (t1 - t0) * k / n for k in range(n)] + [t1]
        return sum(max(b - a - self.own_time(a, b), 0.0) / self.slowdown(a, b)
                   for a, b in zip(edges, edges[1:]))
