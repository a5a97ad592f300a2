"""The per-host function data sink: Wait-Match Memory (paper §7, Figure 9).

Every host node runs one sink that caches the input data of all functions
deployed there *before* they are triggered — the heart of the
host-container collaborative communication mechanism.  Entries are indexed
by the multi-level key ``(RequestID, TaskID, DataName)``.

Lifetime management (the Figure 14 win over FaaSFlow):

* **Proactive release** — an entry is freed as soon as the destination FLU
  has received the data *and completed*, instead of at request completion.
  (Completion, not fetch, so a crashed FLU can ReDo from the sink.)
* **Passive expire** — entries not consumed within a TTL spill to the
  function-exclusive disk, trading memory for a later disk read.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..cluster.node import Node

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster.cluster import Cluster
    from ..sim.environment import Environment
    from ..sim.events import Event

SinkKey = Tuple[str, str, str]  # (request_id, dst_task_id, dataname)


class EntryState(enum.Enum):
    IN_MEMORY = "in-memory"
    SPILLED = "spilled"
    RELEASED = "released"


@dataclass
class SinkEntry:
    key: SinkKey
    nbytes: float
    state: EntryState = EntryState.IN_MEMORY
    deposited_at: float = 0.0
    fetched: bool = False
    generation: int = 0  # bumps on fetch/release to invalidate TTL timers


class WaitMatchMemory:
    """The data sink of one host node."""

    def __init__(
        self,
        env: "Environment",
        node: Node,
        cluster: "Cluster",
        ttl_s: float,
        proactive_release: bool = True,
        passive_expire: bool = True,
    ) -> None:
        if ttl_s <= 0:
            raise ValueError("ttl_s must be positive")
        self.env = env
        self.node = node
        self.cluster = cluster
        self.ttl_s = ttl_s
        self.proactive_release = proactive_release
        self.passive_expire = passive_expire
        #: Multi-level index: request -> task -> dataname -> entry.
        self._index: Dict[str, Dict[str, Dict[str, SinkEntry]]] = {}
        self.deposits = 0
        self.duplicate_deposits = 0
        self.spills = 0
        self.releases = 0

    # -- index ------------------------------------------------------------------

    def _lookup(self, key: SinkKey) -> Optional[SinkEntry]:
        request_id, task_id, dataname = key
        return self._index.get(request_id, {}).get(task_id, {}).get(dataname)

    def _insert(self, entry: SinkEntry) -> None:
        request_id, task_id, dataname = entry.key
        self._index.setdefault(request_id, {}).setdefault(task_id, {})[
            dataname
        ] = entry

    def _remove(self, key: SinkKey) -> None:
        request_id, task_id, dataname = key
        tasks = self._index.get(request_id)
        if not tasks:
            return
        datas = tasks.get(task_id)
        if not datas:
            return
        datas.pop(dataname, None)
        if not datas:
            tasks.pop(task_id, None)
        if not tasks:
            self._index.pop(request_id, None)

    # -- deposit -----------------------------------------------------------------

    def deposit(self, key: SinkKey, nbytes: float) -> bool:
        """Cache a datum; returns False on duplicate (exactly-once dedup)."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        if self._lookup(key) is not None:
            self.duplicate_deposits += 1
            return False
        entry = SinkEntry(key=key, nbytes=nbytes, deposited_at=self.env.now)
        self._insert(entry)
        self.node.cache_usage.add(nbytes)
        self.deposits += 1
        if self.passive_expire:
            self._arm_ttl(entry)
        return True

    def is_present(self, key: SinkKey) -> bool:
        entry = self._lookup(key)
        return entry is not None and entry.state is not EntryState.RELEASED

    # -- fetch ------------------------------------------------------------------

    def fetch(self, key: SinkKey) -> "Event":
        """Copy the datum into a container's WORKDIR; the returned event
        fires once it is there.

        In-memory entries cross the local memory bus; spilled entries incur
        the disk read first.  Once the destination FLU has received the
        data the entry is **proactively released** (§7) — if that FLU later
        crashes, the engine backtracks and ReDoes the producer (§6.2).
        Raises :class:`KeyError` at once when no entry exists.
        """
        entry = self._lookup(key)
        if entry is None:
            raise KeyError(f"sink {self.node.name}: no entry for {key!r}")
        entry.generation += 1
        channel = self.cluster.memory_channel(self.node)

        def copied(_event) -> None:
            entry.fetched = True
            if self.proactive_release:
                self._free(entry)

        def copy() -> "Event":
            event = channel.copy(entry.nbytes, label="sink-fetch")
            event.callbacks.append(copied)
            return event

        if entry.state is not EntryState.SPILLED:
            return copy()
        done = self.env.event()

        def unspilled(_event) -> None:
            copy().callbacks.append(done.trigger)

        self.node.disk.read(entry.nbytes, label="sink-unspill").callbacks.append(
            unspilled
        )
        return done

    # -- lifetime management -----------------------------------------------------

    def release(self, key: SinkKey) -> None:
        """Proactively free an entry (destination FLU received and done)."""
        entry = self._lookup(key)
        if entry is None or entry.state is EntryState.RELEASED:
            return
        if not self.proactive_release:
            # Without lifetime knowledge the entry lingers until the
            # request-level cleanup, like FaaSFlow's cache.
            return
        self._free(entry)

    def release_request(self, request_id: str) -> None:
        """Request-completion cleanup (safety net; main path is proactive)."""
        tasks = self._index.get(request_id, {})
        entries = [
            entry for datas in tasks.values() for entry in datas.values()
        ]
        for entry in entries:
            self._free(entry)

    def _free(self, entry: SinkEntry) -> None:
        if entry.state is EntryState.IN_MEMORY:
            self.node.cache_usage.add(-entry.nbytes)
        entry.state = EntryState.RELEASED
        entry.generation += 1
        self.releases += 1
        self._remove(entry.key)

    def _arm_ttl(self, entry: SinkEntry) -> None:
        generation = entry.generation

        def expire(_event) -> None:
            stale = (
                entry.state is EntryState.IN_MEMORY
                and entry.generation == generation
                and not entry.fetched
            )
            if stale:
                # Passive expire: keep freshness in memory, persist the
                # datum to the function-exclusive disk.
                entry.state = EntryState.SPILLED
                self.node.cache_usage.add(-entry.nbytes)
                self.spills += 1
                self.node.disk.write(entry.nbytes, label="sink-spill")

        self.env.call_later(self.ttl_s, expire)

    # -- introspection ------------------------------------------------------------

    def resident_bytes(self) -> float:
        return sum(
            entry.nbytes
            for tasks in self._index.values()
            for datas in tasks.values()
            for entry in datas.values()
            if entry.state is EntryState.IN_MEMORY
        )

    def entry_count(self) -> int:
        return sum(
            len(datas)
            for tasks in self._index.values()
            for datas in tasks.values()
        )

    def __repr__(self) -> str:
        return (
            f"<WaitMatchMemory {self.node.name} entries={self.entry_count()} "
            f"bytes={self.resident_bytes():.0f}>"
        )
