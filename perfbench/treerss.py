"""Peak resident memory of a process *and all of its descendants*.

``getrusage(RUSAGE_CHILDREN).ru_maxrss`` is the peak of the largest
single child that has already been reaped.  ``run_parallel_replay``
shuts its pool down with ``wait=False``, so when the benchmark reads
that figure the workers are often not reaped yet, and it reported 3 MB
for a 2-worker replay on one run and 29 MB on the next.  This meter
samples the live process tree instead: every ``interval_s`` it sums
``VmRSS`` over the root process and every descendant listed in
``/proc/<pid>/task/<tid>/children``, and keeps the largest sum seen.

Forked workers share copy-on-write pages with the parent; ``VmRSS``
counts such a page once in every process that maps it, as ``ps`` does.
"""

from __future__ import annotations

import os
import threading
from typing import List, Optional


def _children(pid: int) -> List[int]:
    """Direct children of ``pid`` (all of its threads)."""
    out: List[int] = []
    try:
        tids = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return out
    for tid in tids:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as handle:
                out.extend(int(child) for child in handle.read().split())
        except OSError:
            continue  # the thread or process exited while we looked
    return out


def descendants(pid: int) -> List[int]:
    """Every live descendant of ``pid``, depth first."""
    found: List[int] = []
    stack = _children(pid)
    while stack:
        child = stack.pop()
        found.append(child)
        stack.extend(_children(child))
    return found


def rss_kb(pid: int) -> int:
    """Current ``VmRSS`` of ``pid`` in kB (0 once it has exited)."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def supported() -> bool:
    """Whether this kernel exposes what the meter reads."""
    pid = os.getpid()
    return os.path.exists(f"/proc/{pid}/task/{pid}/children")


class TreeRssMeter:
    """Sample the RSS of a process tree on a background thread.

    Use as a context manager around the measured region; afterwards
    :attr:`peak_mb` is the largest tree-wide sum sampled and
    :attr:`max_children` the most descendants seen at once.
    """

    def __init__(self, pid: Optional[int] = None, interval_s: float = 0.02):
        self.pid = os.getpid() if pid is None else pid
        self.interval_s = interval_s
        self.peak_mb = 0.0
        self.max_children = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def sample(self) -> float:
        """Take one sample now; returns the tree's RSS in MB."""
        children = descendants(self.pid)
        total_kb = rss_kb(self.pid) + sum(rss_kb(child) for child in children)
        mb = total_kb / 1024.0
        self.peak_mb = max(self.peak_mb, mb)
        self.max_children = max(self.max_children, len(children))
        return mb

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.sample()

    def __enter__(self) -> "TreeRssMeter":
        self.sample()
        self._thread = threading.Thread(
            target=self._loop, name="tree-rss-meter", daemon=True
        )
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
        self.sample()
