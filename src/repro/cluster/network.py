"""Fluid-flow network model with bounded fair sharing.

Every potential bottleneck (container egress/ingress, host NIC, storage NIC,
disk channel, local memory bus) is a :class:`SharedLink`.  A :class:`Flow`
crosses one or more links; its instantaneous rate is::

    rate = min(flow.rate_cap, min over links of link.capacity / link.n_flows)

Rates therefore change only when some link's membership changes, never due
to another flow's rate — a *bounded fair-share approximation* of max-min
fairness (see ``docs/architecture.md``, "Flow timers"): it never
oversubscribes a link and is fully deterministic, but does not perform
multi-hop cascade rebalancing.  Each flow arrival or departure settles
every flow sharing a link with it and recomputes its rate, but re-arms a
flow's completion timer only when its deadline moved: a flow whose rate
and settled deadline are bit-equal to before keeps its live timer.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterable, List, Optional, Set

from ..sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.environment import Environment

_EPSILON = 1e-12


class SharedLink:
    """A capacity (bytes/second) shared equally among active flows."""

    def __init__(self, env: "Environment", name: str, capacity_bps: float) -> None:
        if capacity_bps <= 0:
            raise ValueError(f"link {name!r} capacity must be positive")
        self.env = env
        self.name = name
        self.capacity_bps = float(capacity_bps)
        self.flows: Set["Flow"] = set()

    def share(self) -> float:
        """Current per-flow fair share in bytes/second."""
        if not self.flows:
            return self.capacity_bps
        return self.capacity_bps / len(self.flows)

    def utilization(self) -> float:
        """Sum of member flow rates over capacity (always <= 1)."""
        used = sum(flow.rate for flow in self.flows)
        return used / self.capacity_bps

    def __repr__(self) -> str:
        return f"<SharedLink {self.name} {self.capacity_bps:.0f}B/s n={len(self.flows)}>"


class Flow:
    """An in-progress bulk transfer across a set of links.

    ``done`` fires with the flow when the last byte has moved.  ``cancel()``
    aborts the flow (``done`` fails with :class:`FlowCancelled`), which the
    fault-tolerance machinery uses to model data-plane interruption.
    """

    def __init__(
        self,
        fabric: "NetworkFabric",
        nbytes: float,
        links: List[SharedLink],
        rate_cap: float,
        label: str,
    ) -> None:
        self.fabric = fabric
        self.env = fabric.env
        #: Creation order within the fabric — the deterministic identity
        #: rebalancing sorts by (set iteration order is address-dependent
        #: and must never reach the event queue).
        self.index = fabric.flow_count
        self.nbytes = float(nbytes)
        self.remaining = float(nbytes)
        self.links = links
        self.rate_cap = float(rate_cap)
        self.label = label
        self.rate = 0.0
        self.started_at = self.env.now
        self.finished_at: Optional[float] = None
        self.done: Event = Event(self.env)
        self._last_update = self.env.now
        self._timer_generation = 0
        #: Absolute time the live completion timer fires at (``None``
        #: while no timer is live: stalled, or not armed yet).
        self._deadline: Optional[float] = None
        self._active = True

    @property
    def active(self) -> bool:
        return self._active

    def transferred(self) -> float:
        """Bytes moved so far (exact, accounting for the current rate)."""
        moved = self.nbytes - self.remaining
        if self._active:
            moved += self.rate * (self.env.now - self._last_update)
        return min(moved, self.nbytes)

    def cancel(self, reason: str = "cancelled") -> None:
        """Abort the flow; ``done`` fails with :class:`FlowCancelled`."""
        if not self._active:
            return
        self.fabric._settle(self)
        self.fabric._detach(self)
        self._active = False
        self.done.fail(FlowCancelled(self, reason))

    def __repr__(self) -> str:
        return (
            f"<Flow {self.label} {self.nbytes:.0f}B remaining="
            f"{self.remaining:.0f} rate={self.rate:.0f}>"
        )


class FlowCancelled(Exception):
    """Raised into waiters when a flow is cancelled mid-transfer."""

    def __init__(self, flow: Flow, reason: str) -> None:
        super().__init__(f"flow {flow.label} cancelled: {reason}")
        self.flow = flow
        self.reason = reason


class NetworkFabric:
    """Creates links and runs flows over them."""

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.links: dict = {}
        self.flow_count = 0
        self.bytes_moved = 0.0
        #: Completion timers scheduled, and those that fired after a
        #: rebalance or cancel had superseded them.
        self.timers_armed = 0
        self.stale_timer_fires = 0

    def link(self, name: str, capacity_bps: float) -> SharedLink:
        """Create (or fetch) the named link."""
        if name in self.links:
            return self.links[name]
        created = SharedLink(self.env, name, capacity_bps)
        self.links[name] = created
        return created

    def transfer(
        self,
        nbytes: float,
        links: Iterable[SharedLink],
        rate_cap: float = math.inf,
        label: str = "flow",
    ) -> Flow:
        """Start a flow of ``nbytes`` across ``links``; returns the Flow.

        Zero-byte flows complete immediately (the event still goes through
        the queue so that ordering stays deterministic).
        """
        if nbytes < 0:
            raise ValueError("cannot transfer a negative byte count")
        link_list = list(links)
        flow = Flow(self, nbytes, link_list, rate_cap, label)
        self.flow_count += 1
        if nbytes <= _EPSILON:
            flow._active = False
            flow.finished_at = self.env.now
            flow.done.succeed(flow)
            return flow
        affected = self._collect_affected(link_list)
        for link in link_list:
            link.flows.add(flow)
        affected.add(flow)
        self._rebalance(affected)
        return flow

    def transfer_after(
        self,
        delay_s: float,
        nbytes: float,
        links: Iterable[SharedLink],
        rate_cap: float = math.inf,
        label: str = "flow",
    ) -> Event:
        """Start a flow ``delay_s`` from now (an operation's access
        latency; ``0`` starts it at once); the returned event fires with
        ``nbytes`` once the flow has moved them."""
        done = Event(self.env)

        def start(_event=None) -> None:
            flow = self.transfer(nbytes, links, rate_cap=rate_cap, label=label)
            flow.done.callbacks.append(lambda _event: done.succeed(nbytes))

        if delay_s > 0:
            self.env.call_later(delay_s, start)
        else:
            start()
        return done

    # -- internal -----------------------------------------------------------

    def _collect_affected(self, links: List[SharedLink]) -> Set[Flow]:
        affected: Set[Flow] = set()
        for link in links:
            affected.update(link.flows)
        return affected

    def _settle(self, flow: Flow) -> None:
        """Account bytes moved by ``flow`` since its last rate change."""
        now = self.env.now
        if flow._active and flow.rate > 0:
            moved = flow.rate * (now - flow._last_update)
            flow.remaining = max(flow.remaining - moved, 0.0)
            self.bytes_moved += moved
        flow._last_update = now

    def _detach(self, flow: Flow) -> None:
        for link in flow.links:
            link.flows.discard(flow)
        affected = self._collect_affected(flow.links)
        self._rebalance(affected)

    def _rebalance(self, flows: Set[Flow]) -> None:
        # Sorted by creation index: the iteration order schedules the
        # flows' completion timers, and the event queue breaks same-time
        # ties by insertion order — iterating the raw set would leak
        # object addresses (which vary run to run within a process) into
        # simulated results.  Settling stays unconditional (skipping it
        # for an unchanged flow moves its residue in the last ulp), but a
        # flow whose settled deadline is bit-equal to its live timer's
        # keeps that timer instead of queueing a duplicate.
        now = self.env.now
        for flow in sorted(flows, key=lambda f: f.index):
            if not flow._active:
                continue
            self._settle(flow)
            new_rate = flow.rate_cap
            for link in flow.links:
                new_rate = min(new_rate, link.share())
            if (
                new_rate == flow.rate
                and flow._deadline is not None
                and now + flow.remaining / new_rate == flow._deadline
                and not self._drained(flow)
            ):
                continue
            flow.rate = new_rate
            self._arm_timer(flow)

    def _drained(self, flow: Flow) -> bool:
        """True when the flow's residue is float noise, not real bytes."""
        return flow.remaining <= max(_EPSILON, flow.nbytes * 1e-9)

    def _arm_timer(self, flow: Flow) -> None:
        flow._timer_generation += 1
        generation = flow._timer_generation
        flow._deadline = None
        if self._drained(flow):
            self._complete(flow)
            return
        if flow.rate <= _EPSILON:
            return  # stalled; a later rebalance will re-arm
        eta = flow.remaining / flow.rate
        if self.env.now + eta <= self.env.now:
            # eta underflows the clock's float resolution: finish now.
            self._complete(flow)
            return
        completion = Event(self.env)
        completion._state = "triggered"
        completion.callbacks.append(
            lambda _ev, f=flow, g=generation: self._on_timer(f, g)
        )
        self.timers_armed += 1
        flow._deadline = self.env.now + eta
        self.env.schedule(completion, delay=eta)

    def _on_timer(self, flow: Flow, generation: int) -> None:
        if not flow._active or generation != flow._timer_generation:
            self.stale_timer_fires += 1
            return  # stale timer from before a rate change
        self._settle(flow)
        if not self._drained(flow):
            self._arm_timer(flow)
            return
        self._complete(flow)

    def _complete(self, flow: Flow) -> None:
        self.bytes_moved += flow.remaining  # account float residue as moved
        flow.remaining = 0.0
        flow._active = False
        flow.finished_at = self.env.now
        self._detach(flow)
        flow.done.succeed(flow)
