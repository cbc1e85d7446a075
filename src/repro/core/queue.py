"""Central dispatch queue.

"A round-robin scheduler ... processes pending resource requests from
a priority queue stored in the central database" (§3.5).  The queue
orders requests by priority class then FIFO, and supports withdrawal
(a user cancels, or a migrate-back supersedes a pending request).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..sim import Environment, Event, PriorityStore
from .messages import ResourceRequest


class DispatchQueue:
    """Priority + FIFO ordered queue of :class:`ResourceRequest`."""

    def __init__(self, env: Environment):
        self.env = env
        self._store = PriorityStore(env)
        self.total_enqueued = 0
        self._pending_pops: Dict[Event, Event] = {}
        self._listeners: List[Callable[[], None]] = []

    def __len__(self) -> int:
        return len(self._store)

    def add_listener(self, callback: Callable[[], None]) -> None:
        """Register ``callback()``, called by :meth:`notify`."""
        self._listeners.append(callback)

    def notify(self) -> None:
        """Tell listeners the pending work changed.

        The queue calls it on every length change: a push, a delivered
        pop, a withdrawal, a cancelled pop that puts its request back.
        The coordinator calls it when its parked list changes, which
        its ``queue_pressure`` counts together with the queue.
        """
        for listener in self._listeners:
            listener()

    def push(self, request: ResourceRequest) -> None:
        """Enqueue a request."""
        self.total_enqueued += 1
        self._store.put((request.sort_key(), request))
        self.notify()

    def pop(self) -> Event:
        """Event that fires with the next request (priority order)."""
        get_event = self._store.get()
        result = self.env.event()
        self._pending_pops[result] = get_event

        def unwrap(event):
            self._pending_pops.pop(result, None)
            if event.ok:
                _, request = event.value
                result.succeed(request)
                self.notify()
            else:
                result.fail(event.value)

        if get_event.callbacks is None:
            unwrap(get_event)
        else:
            get_event.callbacks.append(unwrap)
        return result

    def cancel_pop(self, result: Event) -> None:
        """Withdraw a pending :meth:`pop` nobody will wait on anymore.

        A dispatch loop interrupted while blocked on ``pop`` must
        cancel it: otherwise a later ``push`` would deliver the request
        into an abandoned event and silently lose it.  If the underlying
        get already fired but the popped request was never consumed, the
        request goes back on the queue (``total_enqueued`` is not
        re-counted — the work was only ever enqueued once).
        """
        get_event = self._pending_pops.pop(result, None)
        if get_event is not None:
            self._store.cancel(get_event)
            return
        if result.triggered and result.ok and result.value is not None:
            self._store.put((result.value.sort_key(), result.value))
            self.notify()

    def withdraw(self, request_id: str) -> Optional[ResourceRequest]:
        """Remove a pending request by workload id (None if absent)."""
        removed = self._store.remove(
            lambda item: item[1].request_id == request_id
        )
        if removed is None:
            return None
        self.notify()
        return removed[1]

    def pending_ids(self):
        """Ids of all queued requests (priority order)."""
        return [item[1].request_id for item in self._store.items]
