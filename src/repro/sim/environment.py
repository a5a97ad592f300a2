"""The simulation environment: clock, scheduler, and run loop.

This is the simulator's innermost loop: a replay pops millions of events
through :meth:`Environment.run`, so the loop body is written flat — the
heap, clock, and callback dispatch are manipulated through local
bindings rather than per-event method calls.  :meth:`Environment.step`
remains the single-event API (tests and tools drive it directly); the
run loop inlines the identical logic.  Scheduling semantics — (time,
priority, insertion-order) order — are untouched.

Every heap insertion goes through :meth:`Environment.schedule` or
:meth:`Environment.schedule_urgent`, so wrapping those two counts every
event.  Model code follows one idiom: a leaf operation (a timer, a
one-shot transfer, a serialized trigger) returns an event and chains
its steps with callbacks, starting with :meth:`Environment.call_later`;
a generator :class:`~repro.sim.process.Process` is only for a coroutine
that waits more than once or can be interrupted.  A process
costs a generator frame, an urgent kick-off event and a completion
event; a callback costs none of them.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Iterable, List, Optional, Tuple

from .events import (
    AllOf,
    AnyOf,
    Event,
    NORMAL_PRIORITY,
    PENDING,
    PROCESSED,
    Timeout,
    URGENT_PRIORITY,
)
from .process import Process, ProcessGenerator


class EmptySchedule(Exception):
    """Raised internally when the event queue runs dry."""


class Environment:
    """A discrete-event simulation environment.

    Time is a float in *seconds*.  Events are processed in (time, priority,
    insertion-order) order, which makes runs fully deterministic.
    """

    __slots__ = ("_now", "_queue", "_eid", "_active_stack", "_processes")

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        self._queue: List[Tuple[float, int, int, Event]] = []
        self._eid = 0
        self._active_stack: List[Process] = []
        self._processes = 0

    # -- clock ---------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # -- counters --------------------------------------------------------------

    @property
    def events_scheduled(self) -> int:
        """Events queued so far: each heap insertion takes the next
        insertion id, so this is the last id handed out."""
        return self._eid

    @property
    def processes_started(self) -> int:
        """Generator processes started so far."""
        return self._processes

    # -- event factories ------------------------------------------------------

    def event(self) -> Event:
        """Create a fresh, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event firing ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def process(self, generator: ProcessGenerator) -> Process:
        """Start a new process from a generator."""
        return Process(self, generator)

    def call_later(
        self, delay: float, callback: Callable[[Event], None]
    ) -> Timeout:
        """Run ``callback(timeout)`` ``delay`` seconds from now.

        The returned :class:`Timeout` carries ``callback`` as its only
        callback, so other callbacks (or a waiting process) added later
        run after it at the same pop.  An exception ``callback`` raises
        propagates out of :meth:`run`.
        """
        timeout = Timeout(self, delay)
        timeout.callbacks.append(callback)  # type: ignore[union-attr]
        return timeout

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- scheduling ------------------------------------------------------------

    def schedule(
        self, event: Event, delay: float = 0.0, priority: int = NORMAL_PRIORITY
    ) -> None:
        """Queue ``event`` to be processed ``delay`` seconds from now."""
        self._eid += 1
        heappush(self._queue, (self._now + delay, priority, self._eid, event))

    def schedule_urgent(self, event: Event) -> None:
        """The urgent path: queue ``event`` *now*, ahead of normal events.

        Equivalent to ``schedule(event, 0.0, URGENT_PRIORITY)`` minus the
        delay arithmetic — the process kick-off/interrupt hot path.
        """
        self._eid += 1
        heappush(self._queue, (self._now, URGENT_PRIORITY, self._eid, event))

    def peek(self) -> float:
        """Time of the next scheduled event, or +inf if none."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process exactly one event."""
        try:
            when, _, _, event = heappop(self._queue)
        except IndexError:
            raise EmptySchedule() from None
        self._now = when
        callbacks = event.callbacks
        event.callbacks = None
        for callback in callbacks:  # type: ignore[union-attr]
            callback(event)
        event._state = PROCESSED
        if event._exception is not None and not event.defused:
            raise event._exception

    def run(self, until: Optional[Any] = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run until no events remain), a number
        (run until that simulated time), or an :class:`Event` (run until it
        has been processed, returning its value).
        """
        stop_event: Optional[Event] = None
        stop_time: Optional[float] = None
        if until is None:
            pass
        elif isinstance(until, Event):
            stop_event = until
        else:
            stop_time = float(until)
            if stop_time < self._now:
                raise ValueError(
                    f"until={stop_time} lies in the past (now={self._now})"
                )

        # The hot loop: identical semantics to `while True: step()` with
        # the stop checks, but with the heap and clock handled through
        # locals instead of method/property calls per event.
        queue = self._queue
        while True:
            if stop_event is not None and stop_event._state == PROCESSED:
                return stop_event.value
            if not queue:
                if stop_event is not None and stop_event._state == PENDING:
                    raise RuntimeError(
                        "run(until=event) exhausted the schedule before the "
                        "event fired"
                    )
                if stop_time is not None:
                    self._now = stop_time
                return None
            if stop_time is not None and queue[0][0] > stop_time:
                self._now = stop_time
                return None
            when, _priority, _eid, event = heappop(queue)
            self._now = when
            callbacks = event.callbacks
            event.callbacks = None
            for callback in callbacks:  # type: ignore[union-attr]
                callback(event)
            event._state = PROCESSED
            exception = event._exception
            if exception is not None and not event.defused:
                raise exception

    # -- active-process bookkeeping (used by Process.interrupt) ---------------

    def _push_active(self, process: Process) -> None:
        self._active_stack.append(process)

    def _pop_active(self) -> None:
        self._active_stack.pop()

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being advanced, if any."""
        return self._active_stack[-1] if self._active_stack else None

    def active_process_target(self) -> Optional[Event]:
        active = self.active_process
        return active.target if active is not None else None

    def __repr__(self) -> str:
        return f"<Environment now={self._now:.6f} pending={len(self._queue)}>"
