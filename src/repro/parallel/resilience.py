"""Deterministic retry, failure taxonomy, and host-fault injection.

The replay engine's resilience layer, three pieces:

**RetryPolicy** — how many attempts a cell gets, how long to back off
between them, and an optional per-cell wall-clock deadline.  Backoff is
exponential with *seeded deterministic jitter*: the jitter fraction is a
pure function of (root seed, cell key, attempt number) via the same
:func:`~repro.parallel.policy.stable_hash` the engine derives cell
seeds from, so two runs of the same spec pace their retries
identically — no RNG, no wall-clock feedback into scheduling.

**Failure taxonomy** — every terminal cell failure classifies into one
of :data:`FAILURE_KINDS`:

``worker-crash``
    The worker process died (SIGKILL, OOM-kill) and the parent saw
    ``BrokenProcessPool`` — or, on the in-process serial path where
    killing the host would be self-defeating, a :class:`WorkerCrashError`
    stood in for the dead process.
``timeout``
    The cell exceeded its :attr:`RetryPolicy.deadline_s`
    (:class:`CellDeadlineExceeded`) or raised any other ``TimeoutError``.
``poison``
    An injected :class:`PoisonError` (fault plans and tests).
``lease-expired``
    A remote worker's cell lease passed its deadline without a result
    (the worker died, hung, or lost connectivity), and the control
    plane's retry budget for the cell was already spent.  Only the
    ``--workers remote`` execution mode produces this kind; see
    ``docs/workers.md``.
``app-error``
    Anything else the replay raised.

A cell that exhausts its attempts becomes a :class:`CellFailure` — a
small, deterministic record (no PIDs, no wall-clock) that the merged
report's ``replay.failed_cells`` section serializes under
``on_cell_failure="skip"``, or that rides inside the
:class:`CellFailedError` the engine raises under ``"fail"``.

**HostFaultPlan** — deterministic host-level fault injection for tests
and the ``tools/chaos_replay.py`` harness.  A plan is a picklable set of
:class:`FaultSpec`\\ s, each naming a cell, an attempt number (``0`` =
every attempt), and a fault kind:

``kill``
    SIGKILL the worker process mid-cell.  In a pool worker this is a
    *real* ``os.kill(os.getpid(), SIGKILL)`` — the parent observes
    ``BrokenProcessPool`` exactly as it would for an OOM-killed worker.
    On the in-process serial path (the plan remembers the PID it was
    built in) it raises :class:`WorkerCrashError` instead, so serial
    replays exercise the same retry path without killing the host.
``delay``
    Sleep ``delay_s`` before replaying the attempt — inside the
    deadline window, so a delay longer than ``deadline_s`` manufactures
    a deterministic ``timeout`` failure.
``poison``
    Raise :class:`PoisonError` — a deterministic application-level
    failure.

Because every attempt of a cell replays byte-identically (cell seeds
are functions of (spec, cell) alone), a run that survives injected
faults produces a report byte-identical to the fault-free run — the
crash-identity property ``tests/test_resilience.py`` and the CI chaos
smoke assert.  See ``docs/robustness.md``.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional, Tuple

from .policy import stable_hash

__all__ = [
    "FAILURE_KINDS",
    "CellDeadlineExceeded",
    "CellFailedError",
    "CellFailure",
    "FaultSpec",
    "HostFaultPlan",
    "PoisonError",
    "RetryPolicy",
    "WorkerCrashError",
    "cell_deadline",
    "classify_failure",
]

#: Every way a cell can terminally fail (``docs/robustness.md``).
FAILURE_KINDS = (
    "worker-crash",
    "timeout",
    "app-error",
    "poison",
    "lease-expired",
)

#: Kinds a :class:`FaultSpec` can inject.
FAULT_KINDS = ("kill", "delay", "poison")


class WorkerCrashError(RuntimeError):
    """A worker-process death, surfaced as an exception.

    Raised by ``kill`` faults on the in-process serial path (where a
    real SIGKILL would take down the host process) so serial and pooled
    replays classify and retry identically.
    """


class PoisonError(RuntimeError):
    """A deterministically injected application-level failure."""


class CellDeadlineExceeded(TimeoutError):
    """A cell replay ran past its :attr:`RetryPolicy.deadline_s`.

    Picklable across the worker→parent boundary (multi-argument
    exceptions need ``__reduce__`` for that), and deterministic in its
    message — it names the cell and the configured deadline, never the
    elapsed wall-clock.
    """

    def __init__(self, key: str, deadline_s: float) -> None:
        super().__init__(
            f"cell {key!r} exceeded its {deadline_s:g}s deadline"
        )
        self.key = key
        self.deadline_s = deadline_s

    def __reduce__(self):
        return (type(self), (self.key, self.deadline_s))


@dataclass(frozen=True)
class CellFailure:
    """One cell's terminal failure, after its retry budget ran out.

    Deterministic by construction: the message never carries PIDs,
    addresses, or timings, so a degraded report's ``failed_cells``
    section is byte-stable across runs that fail the same way.
    """

    key: str
    #: One of :data:`FAILURE_KINDS`.
    kind: str
    #: Attempts consumed (the last one produced this failure).
    attempts: int
    message: str

    def to_payload(self) -> dict:
        return {
            "cell": self.key,
            "kind": self.kind,
            "attempts": self.attempts,
            "message": self.message,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "CellFailure":
        return cls(
            key=payload["cell"],
            kind=payload["kind"],
            attempts=payload["attempts"],
            message=payload["message"],
        )


class CellFailedError(RuntimeError):
    """A cell exhausted its retries under ``on_cell_failure="fail"``."""

    def __init__(self, failure: CellFailure) -> None:
        super().__init__(
            f"cell {failure.key!r} failed ({failure.kind}) after "
            f"{failure.attempts} attempt(s): {failure.message}"
        )
        self.failure = failure

    def __reduce__(self):
        # Re-carry the CellFailure when the error is pickled (e.g. across
        # a process boundary); the default reduce passes only the text.
        return (type(self), (self.failure,))


def classify_failure(exc: BaseException) -> str:
    """Map an exception a cell attempt raised to a failure kind."""
    # Local import: concurrent.futures.process pulls in multiprocessing
    # machinery workers never need unless a pool actually exists.
    from concurrent.futures.process import BrokenProcessPool

    if isinstance(exc, (BrokenProcessPool, WorkerCrashError)):
        return "worker-crash"
    if isinstance(exc, PoisonError):
        return "poison"
    if isinstance(exc, TimeoutError):
        return "timeout"
    return "app-error"


@dataclass(frozen=True)
class RetryPolicy:
    """Deterministic per-cell retry and deadline semantics.

    ``backoff_s(seed, key, attempt)`` is the pause *before* attempt
    ``attempt`` (so attempt 1 never waits): exponential in the attempt
    number, capped at :attr:`backoff_max_s`, stretched by a jitter
    fraction in ``[0, jitter]`` derived from
    ``stable_hash(seed, key, attempt)`` — deterministic, but decorrelated
    across cells so a crashed window's retries don't stampede in
    lockstep.

    ``deadline_s`` bounds one *attempt's* wall-clock, enforced worker-
    side via ``SIGALRM`` (main-thread only — the serve service's serial
    path runs in a job thread, where POSIX forbids ``setitimer``
    delivery, so deadlines there apply only to pooled workers).
    """

    max_attempts: int = 3
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    backoff_max_s: float = 2.0
    #: Maximum extra backoff as a fraction of the exponential base.
    jitter: float = 0.25
    #: Per-attempt wall-clock bound (``None`` = unbounded).
    deadline_s: Optional[float] = None

    def validate(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_base_s < 0:
            raise ValueError("backoff_base_s must be >= 0")
        if self.backoff_factor < 1:
            raise ValueError("backoff_factor must be >= 1")
        if self.backoff_max_s < 0:
            raise ValueError("backoff_max_s must be >= 0")
        if not 0 <= self.jitter <= 1:
            raise ValueError("jitter must be in [0, 1]")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError("deadline_s must be positive")

    def backoff_s(self, seed: int, key: str, attempt: int) -> float:
        """The deterministic pause before attempt ``attempt`` of a cell."""
        if attempt <= 1:
            return 0.0
        base = min(
            self.backoff_max_s,
            self.backoff_base_s * self.backoff_factor ** (attempt - 2),
        )
        fraction = (
            stable_hash(f"retry-jitter:{seed}:{key}:{attempt}") % 10_000
        ) / 10_000.0
        return base * (1.0 + self.jitter * fraction)

    @classmethod
    def from_payload(cls, payload: dict) -> "RetryPolicy":
        """Parse the ``retry`` wire object (``POST /v1/runs``)."""
        if not isinstance(payload, dict):
            raise ValueError(
                f"'retry' must be a mapping, got {type(payload).__name__}"
            )
        known = {"max_attempts", "deadline_s"}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(
                f"unknown retry keys {unknown}; expected {sorted(known)}"
            )
        policy = cls(
            max_attempts=int(payload.get("max_attempts", 3)),
            deadline_s=(
                float(payload["deadline_s"])
                if payload.get("deadline_s") is not None
                else None
            ),
        )
        policy.validate()
        return policy


@dataclass(frozen=True)
class FaultSpec:
    """One injected fault: ``kind`` fires on ``attempt`` of ``cell``."""

    #: One of :data:`FAULT_KINDS`.
    kind: str
    #: The cell key the fault targets.
    cell: str
    #: Which attempt fires the fault; ``0`` means every attempt.
    attempt: int = 1
    #: Sleep duration for ``delay`` faults.
    delay_s: float = 0.0

    def validate(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; "
                f"expected one of {list(FAULT_KINDS)}"
            )
        if self.attempt < 0:
            raise ValueError("fault attempt must be >= 0 (0 = every attempt)")
        if self.delay_s < 0:
            raise ValueError("fault delay_s must be >= 0")

    def matches(self, key: str, attempt: int) -> bool:
        return self.cell == key and self.attempt in (0, attempt)

    def to_payload(self) -> dict:
        return {
            "kind": self.kind,
            "cell": self.cell,
            "attempt": self.attempt,
            "delay_s": self.delay_s,
        }


@dataclass(frozen=True)
class HostFaultPlan:
    """A deterministic set of host-level faults to inject into a replay.

    Picklable — the plan ships to workers inside the task payload.  It
    remembers the PID it was built in (the engine's parent process):
    ``kill`` faults SIGKILL the *current* process only when it is not
    that parent, so the serial in-process path degrades to a raised
    :class:`WorkerCrashError` instead of killing the host.
    """

    faults: Tuple[FaultSpec, ...] = ()
    parent_pid: int = field(default_factory=os.getpid)

    def validate(self) -> None:
        for fault in self.faults:
            fault.validate()

    def apply(self, key: str, attempt: int) -> None:
        """Fire every fault matching this (cell, attempt), in order."""
        for fault in self.faults:
            if not fault.matches(key, attempt):
                continue
            if fault.kind == "delay":
                time.sleep(fault.delay_s)
            elif fault.kind == "poison":
                raise PoisonError(
                    f"injected poison on attempt {attempt} of cell {key!r}"
                )
            elif fault.kind == "kill":
                if os.getpid() != self.parent_pid:
                    os.kill(os.getpid(), signal.SIGKILL)
                raise WorkerCrashError(
                    f"injected worker crash on attempt {attempt} of "
                    f"cell {key!r}"
                )

    @classmethod
    def from_payload(cls, payload: object) -> "HostFaultPlan":
        """Parse the ``faults`` wire list (``POST /v1/runs``)."""
        if not isinstance(payload, list):
            raise ValueError(
                f"'faults' must be a list, got {type(payload).__name__}"
            )
        known = {"kind", "cell", "attempt", "delay_s"}
        faults = []
        for index, body in enumerate(payload):
            if not isinstance(body, dict):
                raise ValueError(
                    f"faults[{index}] must be a mapping, "
                    f"got {type(body).__name__}"
                )
            unknown = sorted(set(body) - known)
            if unknown:
                raise ValueError(
                    f"faults[{index}]: unknown keys {unknown}; "
                    f"expected {sorted(known)}"
                )
            if "kind" not in body or "cell" not in body:
                raise ValueError(
                    f"faults[{index}] needs 'kind' and 'cell'"
                )
            fault = FaultSpec(
                kind=str(body["kind"]),
                cell=str(body["cell"]),
                attempt=int(body.get("attempt", 1)),
                delay_s=float(body.get("delay_s", 0.0)),
            )
            fault.validate()
            faults.append(fault)
        return cls(faults=tuple(faults))

    def to_payload(self) -> list:
        return [fault.to_payload() for fault in self.faults]


@contextmanager
def cell_deadline(key: str, deadline_s: Optional[float]):
    """Bound one cell attempt's wall-clock via ``SIGALRM``.

    Raises :class:`CellDeadlineExceeded` from the signal handler when
    the timer fires mid-replay.  A no-op when ``deadline_s`` is ``None``
    or when not running on the main thread (POSIX delivers ``SIGALRM``
    to the main thread only; pool worker processes run tasks on their
    main thread, so worker-side enforcement always applies there).
    """
    if (
        deadline_s is None
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return

    def _expired(signum, frame):
        raise CellDeadlineExceeded(key, deadline_s)

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, deadline_s)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
