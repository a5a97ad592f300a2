"""Spans and counts around the public entry points of each layer.

Nothing under ``src/`` changes: :class:`Tracer` wraps public functions
and methods of the program while it is installed and restores them on
exit.  Counted calls (the DES kernel's heap pushes and process starts,
network transfers) only bump a counter, because they run hundreds of
times per simulated request.  Timed calls also record a span: its
name, start and end (``time.perf_counter``, which on Linux reads the
same monotonic clock in every process), the span that encloses it and
the workload id.

Pool workers are forked after the tracer is installed, so they run the
same wrappers, but their counters and spans live in the worker's
memory.  The wrapper around ``replay_cell`` therefore attaches what one
cell recorded to the :class:`CellResult` it returns (an extra instance
attribute, which pickles with the result and never enters the report);
the wrapper around ``StreamingMerge.add`` harvests it in the parent.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional

#: Name of the attribute carrying a pool worker's records for one cell.
CELL_ATTACHMENT = "perfbench_layers"


class Tracer:
    """Install with ``with tracer:``; read :attr:`counts` and :attr:`spans`.

    ``counts`` maps ``<layer>.<what>`` to a running total: a counted
    call adds 1 to its name, a timed call adds 1 to ``<name>.n`` and
    its seconds to ``<name>.s``.
    """

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.pid = os.getpid()
        self.counts: Dict[str, float] = defaultdict(float)
        self.spans: List[dict] = []
        #: Parent for spans opened on a thread with no open span (the
        #: server's job thread, forked pool workers): the run span the
        #: benchmark opened with ``root=True``.
        self.root: Optional[str] = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore: List[Callable[[], None]] = []

    # -- spans ------------------------------------------------------------------

    def _stack(self) -> List[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, root: bool = False) -> Iterator[None]:
        """Time the enclosed block as one span of ``name``."""
        stack = self._stack()
        span_id = f"{os.getpid()}:{next(self._ids)}"
        parent = stack[-1] if stack else self.root
        if root:
            self.root = span_id
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            if root:
                self.root = parent
            self.counts[name + ".n"] += 1
            self.counts[name + ".s"] += end - start
            self.spans.append({
                "id": span_id, "name": name, "start": start, "end": end,
                "parent": parent, "workload": self.workload,
            })

    # -- installation -----------------------------------------------------------

    def _patch(self, owner: object, attr: str, wrapper: Callable) -> None:
        original = getattr(owner, attr)
        setattr(owner, attr, wrapper(original))
        self._restore.append(lambda: setattr(owner, attr, original))

    def _counted(self, name: str) -> Callable:
        counts = self.counts

        def wrap(original):
            def counted(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)
            return counted
        return wrap

    def _timed(self, name: str) -> Callable:
        def wrap(original):
            def timed(*args, **kwargs):
                with self.span(name):
                    return original(*args, **kwargs)
            return timed
        return wrap

    def _replay(self, name: str) -> Callable:
        """``run_parallel_replay``: a span, plus the pool's capacity
        (effective workers × execute seconds) for ``sched.utilization``."""
        def wrap(original):
            def run_parallel_replay(*args, **kwargs):
                with self.span(name):
                    result = original(*args, **kwargs)
                workers = min(result.workers, max(result.cell_count, 1))
                self.counts["sched.capacity.s"] += (
                    workers * result.phase_wall_s["execute"]
                )
                return result
            return run_parallel_replay
        return wrap

    def _cell(self, original):
        """``replay_cell``: attach a forked worker's records to its result."""
        def replay_cell(spec, key, cell_trace):
            before = dict(self.counts)
            mark = len(self.spans)
            with self.span("cell"):
                result = original(spec, key, cell_trace)
            if os.getpid() != self.pid:
                setattr(result, CELL_ATTACHMENT, {
                    "counts": {
                        name: value - before.get(name, 0.0)
                        for name, value in self.counts.items()
                    },
                    "spans": self.spans[mark:],
                })
                del self.spans[mark:]
            return result
        return replay_cell

    def _fold_add(self, original):
        """``StreamingMerge.add``: harvest what a pool worker attached."""
        def add(merge, cell):
            attached = getattr(cell, CELL_ATTACHMENT, None)
            if attached is not None:
                for name, value in attached["counts"].items():
                    self.counts[name] += value
                self.spans.extend(attached["spans"])
            self.counts["sched.cell_wall.s"] += cell.wall_s
            with self.span("fold.add"):
                return original(merge, cell)
        return add

    def __enter__(self) -> "Tracer":
        from repro.cluster.network import NetworkFabric
        from repro.parallel import engine
        from repro.parallel.spec import ReplaySpec
        from repro.serve import jobs, journal
        from repro.sim.environment import Environment

        self._patch(Environment, "schedule", self._counted("sim.events"))
        self._patch(
            Environment, "schedule_urgent", self._counted("sim.events")
        )
        self._patch(Environment, "process", self._counted("sim.processes"))
        self._patch(
            NetworkFabric, "transfer", self._counted("cluster.transfers")
        )
        self._patch(ReplaySpec, "build_setup", self._timed("cell.setup"))
        self._patch(engine, "run_trace", self._timed("cell.replay"))
        self._patch(engine, "replay_cell", self._cell)
        self._patch(engine.StreamingMerge, "add", self._fold_add)
        self._patch(
            engine.StreamingMerge, "finalize", self._timed("fold.finalize")
        )
        self._patch(
            engine.ParallelReplayResult, "to_dict",
            self._timed("report.to_dict"),
        )
        self._patch(engine, "run_parallel_replay", self._replay("replay"))
        self._patch(jobs, "run_parallel_replay", self._replay("serve.replay"))
        self._patch(
            journal.RunJournal, "append",
            self._timed("serve.journal_append"),
        )
        return self

    def __exit__(self, *exc_info) -> None:
        while self._restore:
            self._restore.pop()()

    def write(self, path: str) -> None:
        """Write every span recorded so far as one JSON document."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"workload": self.workload, "spans": self.spans}, handle)
