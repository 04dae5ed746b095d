"""Host-speed correction for in-process timings.

A shared host runs this process's core at a speed that drifts by tens
of percent over seconds to minutes (other tenants on the sibling
hyperthread, frequency changes), and the drift is per core: a sampler in
another process does not see it.  So the correction samples in the
measured thread itself.  :class:`HostClock` runs a fixed pure-Python
:func:`kernel` from a ``SIGPROF`` handler every :data:`PERIOD_S` of
process CPU time and records the kernel's thread CPU time.  A timed
interval is then reported at the reference speed: its wall time, minus
the time the samples inside it took, times :data:`NOMINAL_S` over the
median kernel time sampled inside it.

Set-up runs in a fresh interpreter, which calls :func:`probe` before
and after its imports (see ``common.time_import``).

The kernel lives in the benchmark, not in ``src/``, so a change to the
program cannot change it.  The correction is only for work done in the
sampling thread; the ``serve`` workload, whose work runs in server
processes, reports raw wall time.
"""

from __future__ import annotations

import signal
import statistics
import time
from bisect import bisect_left, bisect_right
from typing import Optional

#: CPU seconds of process time between samples
PERIOD_S = 0.05
#: thread CPU seconds :func:`kernel` takes at the reference speed — its
#: median on the 2-vCPU Xeon host the benchmark was defined on
NOMINAL_S = 0.0015


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: int, y: int):
        self.x, self.y = x, y


def kernel() -> int:
    """Fixed interpreter-bound work: dict updates, object creation,
    a keyed sort, attribute reads and string joins."""
    counts: dict[int, int] = {}
    for i in range(3000):
        k = (i * 7919) % 1009
        counts[k] = counts.get(k, 0) + i
    pts = [_Point(k, v) for k, v in counts.items()]
    pts.sort(key=lambda p: (p.y % 97, p.x))
    acc = 0
    for p in pts:
        acc += p.x * 3 - p.y // 7
    return acc + len(",".join(str(p.x) for p in pts[:200]))


def probe() -> tuple[float, float]:
    """Run :func:`kernel` three times in this thread; returns the wall
    seconds that took and the median kernel thread CPU time."""
    w0 = time.perf_counter()
    cpu = []
    for _ in range(3):
        c0 = time.thread_time()
        kernel()
        cpu.append(time.thread_time() - c0)
    return time.perf_counter() - w0, statistics.median(cpu)


class HostClock:
    """Samples :func:`kernel` in this thread while active (a context
    manager; main thread only) and converts intervals measured with
    ``time.perf_counter`` to reference-speed seconds."""

    def __init__(self):
        #: ``(wall start, wall end, kernel thread CPU seconds)``
        self.samples: list[tuple[float, float, float]] = []
        self._busy = False
        self._prev = None

    def sample(self, *_signal_args) -> None:
        if self._busy:                     # a signal inside a sample
            return
        self._busy = True
        try:
            w0, c0 = time.perf_counter(), time.thread_time()
            kernel()
            c1, w1 = time.thread_time(), time.perf_counter()
            self.samples.append((w0, w1, c1 - c0))
        finally:
            self._busy = False

    def __enter__(self) -> "HostClock":
        self._prev = signal.signal(signal.SIGPROF, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._prev)
        self.sample()

    def slowness(self, a: Optional[float] = None,
                 b: Optional[float] = None) -> float:
        """Median kernel time over :data:`NOMINAL_S` for the samples
        inside ``[a, b]`` (all samples by default; the nearest sample on
        each side when none lies inside)."""
        return statistics.median(
            c for _, _, c in self._around(a, b)) / NOMINAL_S

    def seconds(self, a: float, b: float) -> float:
        """Reference-speed seconds of the interval ``[a, b]``."""
        sampling = sum(w1 - w0 for w0, w1, _ in self._inside(a, b))
        return (b - a - sampling) / self.slowness(a, b)

    def _inside(self, a: float, b: float) -> list:
        starts = [s[0] for s in self.samples]
        lo = bisect_left(starts, a)
        hi = bisect_right(starts, b)
        return [s for s in self.samples[lo:hi] if s[1] <= b]

    def _around(self, a: Optional[float], b: Optional[float]) -> list:
        if not self.samples:
            raise ValueError("no host-speed samples taken")
        if a is None or b is None:
            return self.samples
        inside = self._inside(a, b)
        if inside:
            return inside
        starts = [s[0] for s in self.samples]
        i = bisect_left(starts, a)
        return self.samples[max(i - 1, 0):i + 1]
