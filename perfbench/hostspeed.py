"""Host speed, sampled beside the timed work, to express times in
reference seconds.

The benchmark's machine is a small VM on a shared host.  Its speed
swings by up to 2x within tens of seconds and drifts for minutes: the
process keeps the CPU (CPU time equals wall time) but runs more
slowly.  Wall times taken minutes apart therefore differ by more than
any change worth measuring, however long each run lasts.

:class:`HostSpeed` tracks that speed.  A ``SIGALRM`` interval timer
runs a fixed pure-Python *slice* every :data:`INTERVAL_S` on the main
thread, the thread doing the timed work, so the slice runs on the same
vCPU as that work (a sampler thread would often run on the other vCPU,
whose speed differs).  It records how much CPU time the slice took
(``time.thread_time``, so waiting for the GIL or for a vCPU does not
count).  Python retries a system call the signal interrupts.  A slice
does no I/O and touches nothing of the program: a small dict-and-str
loop plus a walk over a few MB of objects in an order that defeats the
caches, the two kinds of work the simulator's event loop mixes.  The
pool workers of a parallel replay run beside the slices, not under
them, so their slowdown is followed less closely.  For a timed
interval ``[t0, t1]``, :meth:`HostSpeed.scaled` returns its length, less
the slices that ran within it, times ``REFERENCE_SLICE_S`` over the mean
slice time sampled during the interval (widened by :data:`PAD_S` or
more each side): the time the interval would have taken on a host running
the slice in ``REFERENCE_SLICE_S``.  A change that makes the program
faster leaves the slices alone, so it shows in the scaled time in full.
(Pool workers keep working while a slice runs in their parent, so on a
parallel replay the subtraction takes off a little more than the slices
delayed it: a fixed bias of a few percent, not noise.)
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from typing import List

#: CPU seconds one slice takes on this benchmark's VM in a quiet spell.
#: Only a unit: scaled times are "seconds at this slice speed".
REFERENCE_SLICE_S = 0.0005
#: Seconds between slices: about 3% of the time goes to them.
INTERVAL_S = 0.02
#: Steps of a slice's dict-and-str loop, and cells of its walk.
LOOP = 600
WALK = 1000
#: Cells walked over (about 6 MB), and the step of the walk's order
#: through them, coprime with their count.
CELLS = 100_000
STRIDE = 40_503
#: Slices within this many seconds of an interval count for it.  Short,
#: so a short interval is scaled by the slices run beside it and not by
#: those of different work before or after it.
PAD_S = 0.05
#: Fewest slices a window is widened to hold.
MIN_SAMPLES = 5
#: Widest widening before a window without slices is an error.
MAX_PAD_S = 4.0


class _Cell:
    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        self.value = value


class HostSpeed:
    """Sample the speed of the host from an interval timer.

    Use as a context manager, on the main thread, around everything to
    be scaled.
    """

    def __init__(self) -> None:
        made = [_Cell(i) for i in range(CELLS)]
        # A fixed stride through memory, so the walk misses the caches
        # the way a shuffle would, built cheaply.
        self._cells = [made[(i * STRIDE) % CELLS] for i in range(CELLS)]
        self._pos = 0
        self.starts: List[float] = []     # slice start, perf_counter
        self.ends: List[float] = []       # slice end, perf_counter
        self.costs: List[float] = []      # slice CPU seconds
        self._busy = False
        self._previous = None

    def slice(self) -> float:
        """Run one slice; returns its CPU time in seconds."""
        start = time.thread_time()
        table = {}
        acc = 0
        for i in range(LOOP):
            key = i % 97
            table[key] = table.get(key, 0) + i
            acc += len(str(i))
        pos = self._pos
        for cell in self._cells[pos:pos + WALK]:
            acc += cell.value
        self._pos = (pos + WALK) % (CELLS - WALK)
        return time.thread_time() - start

    def _tick(self, signum, frame) -> None:
        if self._busy:  # a tick that fired while a slice ran
            return
        self._busy = True
        try:
            start = time.perf_counter()
            cost = self.slice()
            end = time.perf_counter()
            self.starts.append(start)
            self.ends.append(end)
            self.costs.append(cost)
        finally:
            self._busy = False

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def slice_s(self, t0: float, t1: float) -> float:
        """Mean slice CPU time sampled in ``[t0 - pad, t1 + pad]``, where
        ``pad`` is :data:`PAD_S`, doubled until the window holds
        :data:`MIN_SAMPLES` slices (none run during a long C call such
        as a full garbage collection)."""
        pad = PAD_S
        while True:
            lo = bisect.bisect_left(self.starts, t0 - pad)
            hi = bisect.bisect_right(self.starts, t1 + pad)
            if hi - lo >= MIN_SAMPLES:
                return statistics.fmean(self.costs[lo:hi])
            if pad > MAX_PAD_S:
                raise RuntimeError(
                    f"host-speed sampler took {hi - lo} slices within "
                    f"{pad:.2f} s of [{t0:.3f}, {t1:.3f}]; is it running?"
                )
            pad = 2.0 * pad

    def inside(self, t0: float, t1: float) -> float:
        """Wall seconds of ``[t0, t1]`` that slices took."""
        lo = bisect.bisect_right(self.ends, t0)
        hi = bisect.bisect_left(self.starts, t1)
        return sum(
            min(end, t1) - max(start, t0)
            for start, end in zip(self.starts[lo:hi], self.ends[lo:hi])
        )

    def scaled(self, t0: float, t1: float) -> float:
        """The length of ``[t0, t1]``, less the slices run within it, in
        reference seconds."""
        return ((t1 - t0 - self.inside(t0, t1)) * REFERENCE_SLICE_S
                / self.slice_s(t0, t1))
