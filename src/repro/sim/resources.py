"""Shared-resource primitives built on the event kernel.

Three primitives cover everything the cluster substrate needs:

:class:`Resource`
    A counted resource (e.g. CPU cores) acquired with ``request()`` /
    ``release()``.  Requests queue FIFO.
:class:`Store`
    An unbounded-or-bounded FIFO of Python objects (e.g. a dispatch queue).
:class:`LevelContainer`
    A continuous level (e.g. bytes of memory) with ``get``/``put`` amounts.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Deque, List, Optional

from .events import Event

if TYPE_CHECKING:  # pragma: no cover
    from .environment import Environment


class Request(Event):
    """A pending acquisition of one unit of a :class:`Resource`.

    Usable as a context manager so that ``with resource.request() as req:
    yield req`` always releases.
    """

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource") -> None:
        super().__init__(resource.env)
        self.resource = resource
        resource._do_request(self)

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.resource.release(self)

    def cancel(self) -> None:
        """Withdraw a not-yet-granted request (no-op if already granted)."""
        self.resource._cancel(self)


class Resource:
    """A resource with integer capacity and FIFO request queue."""

    __slots__ = ("env", "capacity", "users", "queue")

    def __init__(self, env: "Environment", capacity: int = 1) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.users: List[Request] = []
        self.queue: Deque[Request] = deque()

    @property
    def count(self) -> int:
        """Number of units currently held."""
        return len(self.users)

    def request(self) -> Request:
        return Request(self)

    def occupy(
        self, duration: Callable[[], float], then: Callable[[], None]
    ) -> Request:
        """Acquire one unit, hold it ``duration()`` seconds (drawn when
        the unit is granted), release it, then call ``then()``.

        The callback form of ``with request() as req: yield req; yield
        env.timeout(duration())`` for callers that need no coroutine.
        """
        request = Request(self)

        def release(_event: Event) -> None:
            self.release(request)
            then()

        def granted(_event: Event) -> None:
            self.env.call_later(duration(), release)

        request.callbacks.append(granted)  # type: ignore[union-attr]
        return request

    def release(self, request: Request) -> None:
        """Return a previously granted unit."""
        try:
            self.users.remove(request)
        except ValueError:
            # Releasing an ungranted request cancels it instead.
            self._cancel(request)
            return
        self._grant_next()

    # -- internal -----------------------------------------------------------

    def _do_request(self, request: Request) -> None:
        if len(self.users) < self.capacity and not self.queue:
            self.users.append(request)
            request.succeed()
        else:
            self.queue.append(request)

    def _cancel(self, request: Request) -> None:
        try:
            self.queue.remove(request)
        except ValueError:
            pass

    def _grant_next(self) -> None:
        while self.queue and len(self.users) < self.capacity:
            nxt = self.queue.popleft()
            self.users.append(nxt)
            nxt.succeed()


class StorePut(Event):
    __slots__ = ("store", "item")

    def __init__(self, store: "Store", item: Any) -> None:
        super().__init__(store.env)
        self.store = store
        self.item = item

    def cancel(self) -> None:
        """Withdraw a not-yet-admitted put (e.g. after an interrupt)."""
        try:
            self.store._putters.remove(self)
        except ValueError:
            pass


class StoreGet(Event):
    __slots__ = ("store", "predicate")

    def __init__(self, store: "Store", predicate: Optional[Callable[[Any], bool]]) -> None:
        super().__init__(store.env)
        self.store = store
        self.predicate = predicate

    def cancel(self) -> None:
        """Withdraw a not-yet-satisfied get (e.g. after an interrupt).

        Without this, an interrupted waiter's get stays queued and will
        silently swallow the next matching item.
        """
        try:
            self.store._getters.remove(self)
        except ValueError:
            pass


class Store:
    """A FIFO store of items with optional capacity.

    ``get(predicate)`` supports filtered retrieval (first matching item),
    which the schedulers use to pick work for a specific function.
    """

    __slots__ = ("env", "capacity", "items", "_putters", "_getters")

    def __init__(self, env: "Environment", capacity: float = float("inf")) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.env = env
        self.capacity = capacity
        self.items: Deque[Any] = deque()
        self._putters: Deque[StorePut] = deque()
        self._getters: Deque[StoreGet] = deque()

    def put(self, item: Any) -> StorePut:
        event = StorePut(self, item)
        self._putters.append(event)
        self._dispatch()
        return event

    def get(self, predicate: Optional[Callable[[Any], bool]] = None) -> StoreGet:
        event = StoreGet(self, predicate)
        self._getters.append(event)
        self._dispatch()
        return event

    def __len__(self) -> int:
        return len(self.items)

    # -- internal -----------------------------------------------------------

    def _dispatch(self) -> None:
        progress = True
        while progress:
            progress = False
            # Admit pending puts while there is room.
            while self._putters and len(self.items) < self.capacity:
                put = self._putters.popleft()
                self.items.append(put.item)
                put.succeed()
                progress = True
            # Satisfy getters whose predicate matches an item.
            pending_getters = len(self._getters)
            for _ in range(pending_getters):
                if not self._getters:
                    break
                get = self._getters.popleft()
                matched = None
                if get.predicate is None:
                    if self.items:
                        matched = self.items.popleft()
                else:
                    for index, item in enumerate(self.items):
                        if get.predicate(item):
                            matched = item
                            del self.items[index]
                            break
                if matched is not None:
                    get.succeed(matched)
                    progress = True
                else:
                    self._getters.append(get)


class ContainerGet(Event):
    __slots__ = ("amount",)

    def __init__(self, env: "Environment", amount: float) -> None:
        super().__init__(env)
        self.amount = amount


class ContainerPut(Event):
    __slots__ = ("amount",)

    def __init__(self, env: "Environment", amount: float) -> None:
        super().__init__(env)
        self.amount = amount


class LevelContainer:
    """A continuous quantity with blocking get/put (e.g. memory bytes)."""

    __slots__ = ("env", "capacity", "_level", "_getters", "_putters")

    def __init__(
        self,
        env: "Environment",
        capacity: float = float("inf"),
        init: float = 0.0,
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if not 0 <= init <= capacity:
            raise ValueError("init must lie in [0, capacity]")
        self.env = env
        self.capacity = capacity
        self._level = float(init)
        self._getters: Deque[ContainerGet] = deque()
        self._putters: Deque[ContainerPut] = deque()

    @property
    def level(self) -> float:
        return self._level

    def put(self, amount: float) -> ContainerPut:
        if amount < 0:
            raise ValueError("cannot put a negative amount")
        event = ContainerPut(self.env, amount)
        self._putters.append(event)
        self._dispatch()
        return event

    def get(self, amount: float) -> ContainerGet:
        if amount < 0:
            raise ValueError("cannot get a negative amount")
        event = ContainerGet(self.env, amount)
        self._getters.append(event)
        self._dispatch()
        return event

    def _dispatch(self) -> None:
        progress = True
        while progress:
            progress = False
            if self._putters:
                put = self._putters[0]
                if self._level + put.amount <= self.capacity:
                    self._putters.popleft()
                    self._level += put.amount
                    put.succeed()
                    progress = True
            if self._getters:
                get = self._getters[0]
                if get.amount <= self._level:
                    self._getters.popleft()
                    self._level -= get.amount
                    get.succeed()
                    progress = True
