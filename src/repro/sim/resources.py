"""Shared-resource primitives built on the simulation kernel.

These are the queueing building blocks for the middleware layers: capacity-
limited :class:`Resource` (e.g. a CPU or a lock), :class:`PriorityResource`
(with optional preemption via interrupt), :class:`Store` (a producer/consumer
buffer used for message queues) and :class:`Container` (continuous quantity,
used e.g. for link bandwidth accounting).
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from typing import Any, Callable, List, Optional

from repro.errors import SimulationError
from repro.sim.events import Event
from repro.sim.environment import Environment, _NORMAL_BASE


class Request(Event):
    """A pending claim on a :class:`Resource`; fires when granted.

    ``grant_delay`` (default 0) fuses the claim with the usage that
    follows it: instead of firing at grant time and having the waiter
    immediately schedule a ``grant_delay`` timeout (two events per
    claim), the request fires once at ``grant_time + grant_delay``.
    The elided immediate-grant event is *virtually accounted* — the
    grant still consumes its eid and bumps ``events_processed`` at the
    instant it would have fired — so the scheduling counters the replay
    digests cover are byte-identical to the unfused two-event shape.
    ``usage_since`` still records the grant instant, so holders can
    recover when their usage actually began.
    """

    __slots__ = ("resource", "requested_at", "usage_since", "grant_delay")

    def __init__(self, resource: "Resource") -> None:
        # Event.__init__ inlined: one request per packet hop makes this
        # the busiest event constructor in the simulator.
        env = resource.env
        self.env = env
        self.callbacks = []
        self._value = None
        self._exception = None
        self._ok = None
        self.defused = False
        self.resource = resource
        self.requested_at = env._now
        self.usage_since: Optional[float] = None
        self.grant_delay = 0.0
        resource._do_request(self)

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.cancel()

    def cancel(self) -> None:
        """Release the claim (or withdraw the pending request)."""
        self.resource.release(self)


class Resource:
    """A resource with finite capacity and a FIFO wait queue.

    Give the resource a ``name`` to register observability hooks: a
    ``resource.queue_depth`` gauge sampled on every queue change and a
    ``resource.wait`` histogram of request-to-grant delays, both
    labelled with the name.  Unnamed resources record nothing, so hot
    anonymous queues stay cheap.
    """

    def __init__(self, env: Environment, capacity: int = 1,
                 name: Optional[str] = None) -> None:
        if capacity <= 0:
            raise SimulationError("capacity must be positive")
        self.env = env
        self.capacity = capacity
        self.name = name
        self.users: List[Request] = []
        self.queue: List[Request] = []

    @property
    def count(self) -> int:
        """Number of requests currently holding the resource."""
        return len(self.users)

    def request(self) -> Request:
        """Claim the resource; the returned event fires when granted."""
        return Request(self)

    def release(self, request: Request) -> None:
        """Return the resource (or withdraw a queued request)."""
        # Held claims are the overwhelmingly common case (one per packet
        # hop), so try the remove directly instead of scanning with ``in``
        # first; the queued/unknown cases fall through unchanged.
        try:
            self.users.remove(request)
        except ValueError:
            if request in self.queue:
                self.queue.remove(request)
                self._sample_queue()
        self._grant_waiters()

    def _do_request(self, request: Request) -> None:
        if len(self.users) < self.capacity:
            self._grant(request)
        else:
            self.queue.append(request)
            self._sample_queue()

    def _grant(self, request: Request) -> None:
        self.users.append(request)
        env = self.env
        request.usage_since = env._now
        if self.name is not None:
            env.ctx.metrics.histogram("resource.wait", resource=self.name) \
                .record(env._now - request.requested_at)
        # request.succeed(request) inlined (one grant per packet hop);
        # a double trigger still raises, via schedule-time state instead.
        if request._ok is not None:
            raise SimulationError("event already triggered")
        request._ok = True
        request._value = request
        delay = request.grant_delay
        if delay:
            # Claim+usage fusion: the immediate-grant event is elided
            # and virtually accounted (its eid and processed count land
            # at this instant, exactly where the unfused grant would
            # have popped as a resume), and the request itself fires at
            # grant + delay — one queued event instead of two.
            env._eid += 2
            env.events_processed += 1
            time = env._now + delay
        else:
            env._eid += 1
            time = env._now
        env._push(time, _NORMAL_BASE + env._eid, request)

    def _grant_waiters(self) -> None:
        granted = False
        while self.queue and len(self.users) < self.capacity:
            self._grant(self._pop_next())
            granted = True
        if granted:
            self._sample_queue()

    def _pop_next(self) -> Request:
        return self.queue.pop(0)

    def _sample_queue(self) -> None:
        if self.name is not None:
            self.env.ctx.metrics.gauge("resource.queue_depth",
                                       resource=self.name) \
                .set(len(self.queue), at=self.env.now)


class PriorityRequest(Request):
    """A claim with a priority (lower value = more important).

    Ties break by request creation order, so equal-priority claims are
    strictly FIFO (deterministic simulation).  The tie-break sequence
    lives on the resource, not the module, so experiments sharing one
    process cannot perturb each other.
    """

    __slots__ = ("priority", "time", "seq")

    # repro: fast-path — one claim per packet hop; no blocking
    # constructs here (repro.analysis.protocol enforces RPR204).
    def __init__(self, resource: "PriorityResource", priority: int,
                 grant_delay: float = 0.0) -> None:
        # Request.__init__ (and the Event fields) inlined: one priority
        # claim per packet hop makes the super() chain measurable.
        env = resource.env
        self.env = env
        self.callbacks = []
        self._value = None
        self._exception = None
        self._ok = None
        self.defused = False
        self.resource = resource
        self.requested_at = env._now
        self.usage_since = None
        self.grant_delay = grant_delay
        self.priority = priority
        self.time = env._now
        self.seq = next(resource._ticket)
        # _do_request's grant branch inlined for the uncontended case (a
        # fresh request can never be already-triggered, so _grant's
        # double-trigger guard is vacuous here).  Contended requests take
        # the regular queueing path (whose eventual _grant honours
        # grant_delay the same way).
        if len(resource.users) < resource.capacity:
            resource.users.append(self)
            self.usage_since = env._now
            if resource.name is not None:
                env.ctx.metrics.histogram(
                    "resource.wait", resource=resource.name).record(0.0)
            self._ok = True
            self._value = self
            if grant_delay:
                # Claim+usage fusion — see Resource._grant: the elided
                # immediate grant is virtually accounted here.
                env._eid += 2
                env.events_processed += 1
                time = env._now + grant_delay
            else:
                env._eid += 1
                time = env._now
            env._push(time, _NORMAL_BASE + env._eid, self)
        else:
            resource._do_request(self)

    def __lt__(self, other: "PriorityRequest") -> bool:
        return (self.priority, self.time, self.seq) < \
            (other.priority, other.time, other.seq)


class PriorityResource(Resource):
    """A resource whose wait queue is ordered by request priority."""

    def __init__(self, env: Environment, capacity: int = 1,
                 name: Optional[str] = None) -> None:
        super().__init__(env, capacity, name)
        self._ticket = itertools.count(1)

    def request(self, priority: int = 0) -> PriorityRequest:  # type: ignore[override]
        return PriorityRequest(self, priority)

    def _do_request(self, request: Request) -> None:
        if len(self.users) < self.capacity:
            self._grant(request)
        else:
            heappush(self.queue, request)  # type: ignore[arg-type]
            self._sample_queue()

    def _pop_next(self) -> Request:
        return heappop(self.queue)  # type: ignore[arg-type]


class StoreGet(Event):
    """A pending take from a :class:`Store`; fires with the item."""

    __slots__ = ("filter", "store", "requested_at")

    def __init__(self, store: "Store",
                 filter: Optional[Callable[[Any], bool]] = None) -> None:
        # Event.__init__ inlined: one take per received packet.
        env = store.env
        self.env = env
        self.callbacks = []
        self._value = None
        self._exception = None
        self._ok = None
        self.defused = False
        self.filter = filter
        self.store = store
        self.requested_at = env._now
        store._getters.append(self)
        store._dispatch()

    def cancel(self) -> None:
        """Withdraw the pending take."""
        if self in self.store._getters:
            self.store._getters.remove(self)


class StorePut(Event):
    """A pending put into a :class:`Store`; fires when accepted."""

    __slots__ = ("item", "store")

    def __init__(self, store: "Store", item: Any) -> None:
        # Event.__init__ inlined: one put per delivered packet.
        self.env = store.env
        self.callbacks = []
        self._value = None
        self._exception = None
        self._ok = None
        self.defused = False
        self.item = item
        self.store = store
        store._putters.append(self)
        store._dispatch()


class Store:
    """A FIFO buffer of items with optional capacity.

    ``get`` accepts an optional filter predicate, which turns the store into
    a ``FilterStore`` (take the first matching item).
    """

    def __init__(self, env: Environment,
                 capacity: float = float("inf"),
                 name: Optional[str] = None) -> None:
        if capacity <= 0:
            raise SimulationError("capacity must be positive")
        self.env = env
        self.capacity = capacity
        self.name = name
        self.items: List[Any] = []
        self._getters: List[StoreGet] = []
        self._putters: List[StorePut] = []

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> StorePut:
        """Add ``item``; the returned event fires once there is room."""
        return StorePut(self, item)

    # repro: fast-path — one put per delivered packet; no blocking
    # constructs here (repro.analysis.protocol enforces RPR204).
    def put_fast(self, item: Any) -> Optional[StorePut]:
        """Fire-and-forget put with the accepted-put event elided.

        For callers that discard the put event (the network's inbox
        delivery): when the put would be accepted immediately — room in
        an unnamed store with no queued putters — nobody can ever
        subscribe to it, so popping it later is a guaranteed no-op.
        The event is elided and *virtually accounted* (eid + processed
        bump at this instant, exactly where the real put would have
        been scheduled and popped), keeping the counters replay digests
        cover byte-identical; waiting getters are then matched through
        the regular dispatch so their events keep the same eids.  Named
        stores, full stores and stores with queued putters fall back to
        the generic :meth:`put`.
        """
        if self._putters or self.name is not None \
                or len(self.items) >= self.capacity:
            return StorePut(self, item)
        env = self.env
        env._eid += 1
        env.events_processed += 1
        self.items.append(item)
        if self._getters:
            self._dispatch()
        return None

    def get(self, filter: Optional[Callable[[Any], bool]] = None) -> StoreGet:
        """Take the first (matching) item; fires when one is available."""
        return StoreGet(self, filter)

    def _dispatch(self) -> None:
        env = self.env
        progressed = True
        while progressed:
            progressed = False
            # Move accepted puts into the buffer.  succeed() is inlined
            # for both puts and gets (one of each per delivered message):
            # a put/get being dispatched is by construction untriggered.
            while self._putters and len(self.items) < self.capacity:
                put = self._putters.pop(0)
                self.items.append(put.item)
                put._ok = True
                env._eid += 1
                env._push(env._now, _NORMAL_BASE + env._eid, put)
                progressed = True
            # Satisfy getters from the buffer.
            if not self._getters:
                continue
            for getter in list(self._getters):
                item = self._find(getter)
                if item is _NOTHING:
                    continue
                self.items.remove(item)
                self._getters.remove(getter)
                if self.name is not None:
                    env.ctx.metrics.histogram("store.wait",
                                              store=self.name) \
                        .record(env._now - getter.requested_at)
                getter._ok = True
                getter._value = item
                env._eid += 1
                env._push(env._now, _NORMAL_BASE + env._eid, getter)
                progressed = True
        if self.name is not None:
            self.env.ctx.metrics.gauge("store.depth", store=self.name) \
                .set(len(self.items), at=self.env.now)

    def _find(self, getter: StoreGet) -> Any:
        if getter.filter is None:
            return self.items[0] if self.items else _NOTHING
        for item in self.items:
            if getter.filter(item):
                return item
        return _NOTHING


class _Nothing:
    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<nothing>"


_NOTHING = _Nothing()


class _Amount(Event):
    """A pending :class:`Container` put/get carrying its quantity."""

    __slots__ = ("amount",)

    def __init__(self, env: Environment, amount: float) -> None:
        super().__init__(env)
        self.amount = amount


class Container:
    """A continuous quantity with blocking put/get (e.g. buffer space)."""

    def __init__(self, env: Environment, capacity: float = float("inf"),
                 init: float = 0.0) -> None:
        if capacity <= 0:
            raise SimulationError("capacity must be positive")
        if not 0 <= init <= capacity:
            raise SimulationError("init must be within [0, capacity]")
        self.env = env
        self.capacity = capacity
        self._level = float(init)
        self._getters: List[_Amount] = []
        self._putters: List[_Amount] = []

    @property
    def level(self) -> float:
        """Current quantity held."""
        return self._level

    def put(self, amount: float) -> Event:
        """Add ``amount``; fires once it fits under capacity."""
        if amount <= 0:
            raise SimulationError("amount must be positive")
        event = _Amount(self.env, amount)
        self._putters.append(event)
        self._dispatch()
        return event

    def get(self, amount: float) -> Event:
        """Remove ``amount``; fires once that much is available."""
        if amount <= 0:
            raise SimulationError("amount must be positive")
        event = _Amount(self.env, amount)
        self._getters.append(event)
        self._dispatch()
        return event

    def _dispatch(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            if self._putters:
                put = self._putters[0]
                if self._level + put.amount <= self.capacity:
                    self._putters.pop(0)
                    self._level += put.amount
                    put.succeed()
                    progressed = True
            if self._getters:
                get = self._getters[0]
                if self._level >= get.amount:
                    self._getters.pop(0)
                    self._level -= get.amount
                    get.succeed()
                    progressed = True
