"""Shared-resource primitives for the simulation kernel.

Provides the standard process-interaction resources used throughout the
GPUnion model:

* :class:`Resource` — a counted resource with FIFO queuing (GPU slots,
  coordinator worker threads);
* :class:`Store` — an unbounded FIFO buffer of Python objects with
  blocking ``get`` (message queues, dispatch queues);
* :class:`PriorityStore` — a store whose ``get`` returns the smallest
  item first (the central scheduler's pending-request queue).

All waiters are served in strict FIFO (or priority) order so runs are
deterministic.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from typing import Any, Deque, List, Optional, Tuple

from .core import Environment, Event, SimulationError


class Request(Event):
    """Pending acquisition of a :class:`Resource` slot."""

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource"):
        super().__init__(resource.env)
        self.resource = resource


class Resource:
    """A counted resource with ``capacity`` interchangeable slots.

    Usage from a process::

        req = resource.request()
        yield req
        try:
            ...  # hold the slot
        finally:
            resource.release(req)
    """

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self._users: List[Request] = []
        self._waiting: Deque[Request] = deque()

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self._users)

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._waiting)

    def request(self) -> Request:
        """Ask for a slot; the returned event fires once granted."""
        req = Request(self)
        if len(self._users) < self.capacity:
            self._users.append(req)
            req.succeed()
        else:
            self._waiting.append(req)
        return req

    def release(self, request: Request) -> None:
        """Return a previously granted slot.

        Releasing an ungranted or foreign request raises
        :class:`SimulationError` — that is always a model bug.
        """
        try:
            self._users.remove(request)
        except ValueError:
            raise SimulationError("release() of a request that holds no slot")
        while self._waiting and len(self._users) < self.capacity:
            nxt = self._waiting.popleft()
            self._users.append(nxt)
            nxt.succeed()

    def cancel(self, request: Request) -> None:
        """Withdraw a request that is still waiting (no-op if granted)."""
        try:
            self._waiting.remove(request)
        except ValueError:
            pass


class StoreGet(Event):
    """Pending retrieval from a :class:`Store`."""

    __slots__ = ()


class Store:
    """An unbounded FIFO buffer with blocking ``get``.

    ``put`` never blocks (campus-scale queues are far from memory
    limits); ``get`` returns an event that fires with the next item.
    """

    def __init__(self, env: Environment):
        self.env = env
        self._items: Deque[Any] = deque()
        self._getters: Deque[StoreGet] = deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def items(self) -> Tuple[Any, ...]:
        """Snapshot of buffered items (oldest first)."""
        return tuple(self._items)

    def put(self, item: Any) -> None:
        """Add ``item``, waking the oldest waiting getter if any."""
        if self._getters:
            getter = self._getters.popleft()
            getter.succeed(item)
        else:
            self._items.append(item)

    def get(self) -> StoreGet:
        """Event that fires with the next available item."""
        event = StoreGet(self.env)
        if self._items:
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
        return event

    def cancel(self, get_event: StoreGet) -> None:
        """Withdraw a pending ``get`` (no-op if already served)."""
        try:
            self._getters.remove(get_event)
        except ValueError:
            pass


class PriorityStore(Store):
    """A store whose ``get`` returns the smallest item first.

    Items must be orderable; GPUnion enqueues ``(priority, seq, item)``
    tuples so FIFO order breaks ties within a priority class.

    Delivery to a *waiting* getter is deferred by one event cycle so
    that a batch of same-instant ``put`` calls is ordered as a batch:
    the getter receives the minimum of everything that arrived at that
    timestamp, not merely the first arrival (otherwise an eager
    consumer would cause priority inversion).
    """

    def __init__(self, env: Environment):
        super().__init__(env)
        self._heap: List[Any] = []
        self._delivery = env.timer(self._deliver)

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def items(self) -> Tuple[Any, ...]:
        return tuple(sorted(self._heap))

    def put(self, item: Any) -> None:
        heapq.heappush(self._heap, item)
        self._schedule_delivery()

    def _schedule_delivery(self) -> None:
        # One deferred delivery per instant serves every getter.
        if self._getters and self._heap and math.isinf(self._delivery.when):
            self._delivery.arm(self.env.now)

    def _deliver(self) -> None:
        while self._getters and self._heap:
            getter = self._getters.popleft()
            getter.succeed(heapq.heappop(self._heap))

    def get(self) -> StoreGet:
        event = StoreGet(self.env)
        if self._heap and not self._getters:
            event.succeed(heapq.heappop(self._heap))
        else:
            self._getters.append(event)
            self._schedule_delivery()
        return event

    def remove(self, predicate) -> Optional[Any]:
        """Remove and return the first buffered item matching ``predicate``.

        Used by the coordinator to withdraw queued requests whose job
        was cancelled before dispatch.  Returns ``None`` if no match.
        """
        for index, item in enumerate(self._heap):
            if predicate(item):
                removed = self._heap.pop(index)
                heapq.heapify(self._heap)
                return removed
        return None
