"""Discrete-event simulation kernel.

This module implements the event loop that every GPUnion subsystem runs
on.  It follows the well-known process-interaction style (as popularised
by SimPy): model logic is written as plain Python generator functions
that ``yield`` events, and the :class:`Environment` advances a virtual
clock, firing events in timestamp order.

The kernel is intentionally small and fully deterministic: two runs with
the same seed and the same model produce identical traces.  Ties in the
event queue are broken by insertion order, never by object identity.

Example
-------
>>> env = Environment()
>>> log = []
>>> def worker(env, name, delay):
...     yield env.timeout(delay)
...     log.append((env.now, name))
>>> _ = env.process(worker(env, "a", 2.0))
>>> _ = env.process(worker(env, "b", 1.0))
>>> env.run()
>>> log
[(1.0, 'b'), (2.0, 'a')]
"""

from __future__ import annotations

import heapq
from math import inf, nextafter
from time import perf_counter
from typing import Any, Callable, Generator, Iterable, List, Optional, Tuple


class SimulationError(Exception):
    """Base class for errors raised by the simulation kernel."""


class Interrupt(Exception):
    """Raised inside a process that was interrupted by another process.

    The interrupting party supplies a ``cause`` describing why the
    process was interrupted (for GPUnion this is typically a provider
    kill-switch or an emergency departure).
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A condition that may be triggered once at some simulation time.

    Events move through three stages:

    * *pending* — created but not yet triggered;
    * *triggered* — scheduled on the event queue with a value or an
      exception;
    * *processed* — callbacks have run and waiting processes resumed.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_triggered", "_processed")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._ok: bool = True
        self._triggered = False
        self._processed = False

    @property
    def triggered(self) -> bool:
        """Whether the event has been scheduled to fire."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """Whether the event's callbacks have already run."""
        return self._processed

    @property
    def ok(self) -> bool:
        """Whether the event carries a value (``True``) or an error."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's payload (or the exception if it failed)."""
        return self._value

    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._triggered:
            raise SimulationError("event already triggered")
        self._triggered = True
        self._ok = True
        self._value = value
        self.env._enqueue(self, delay)
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "Event":
        """Trigger the event with an exception.

        A waiting process sees the exception raised at its ``yield``.
        """
        if self._triggered:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._triggered = True
        self._ok = False
        self._value = exception
        self.env._enqueue(self, delay)
        return self

    def _fire(self) -> None:
        callbacks, self.callbacks = self.callbacks, None
        self._processed = True
        if callbacks:
            for callback in callbacks:
                callback(self)


class Timeout(Event):
    """An event that fires after a fixed delay."""

    __slots__ = ()

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay!r}")
        super().__init__(env)
        self._triggered = True
        self._ok = True
        self._value = value
        env._enqueue(self, delay)


class Process(Event):
    """A running generator; also an event that fires when it finishes.

    The process's return value (via ``return x`` in the generator)
    becomes the event value, so processes can wait on each other:

    >>> env = Environment()
    >>> def child(env):
    ...     yield env.timeout(5)
    ...     return "done"
    >>> def parent(env):
    ...     result = yield env.process(child(env))
    ...     return result
    >>> p = env.process(parent(env))
    >>> env.run()
    >>> p.value
    'done'
    """

    __slots__ = ("generator", "_target", "name")

    def __init__(
        self,
        env: "Environment",
        generator: Generator[Event, Any, Any],
        name: Optional[str] = None,
    ):
        super().__init__(env)
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._target: Optional[Event] = None
        # Bootstrap: start the generator at time env.now.
        env.call_at(env.now, self._step_send, None)

    @property
    def is_alive(self) -> bool:
        """Whether the underlying generator has not yet finished."""
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a finished process is an error; interrupting a
        process twice before it resumes queues both interrupts.
        """
        if self._triggered:
            raise SimulationError(f"cannot interrupt finished process {self.name}")
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._target = None
        self.env.call_at(self.env.now, self._step_throw, Interrupt(cause))

    def _resume(self, event: Event) -> None:
        self._target = None
        if event.ok:
            self._step_send(event.value)
        else:
            self._step_throw(event.value)

    def _step_send(self, value: Any) -> None:
        try:
            target = self.generator.send(value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:
            self._finish_failed(exc)
            return
        self._wait_on(target)

    def _step_throw(self, exc: BaseException) -> None:
        try:
            target = self.generator.throw(exc)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as raised:
            self._finish_failed(raised)
            return
        self._wait_on(target)

    def _finish_failed(self, exc: BaseException) -> None:
        if isinstance(exc, (KeyboardInterrupt, SystemExit)):
            raise exc
        self.fail(exc)

    def _wait_on(self, target: Event) -> None:
        if not isinstance(target, Event):
            self._step_throw(
                SimulationError(f"process {self.name} yielded non-event {target!r}")
            )
            return
        if target.env is not self.env:
            self._step_throw(
                SimulationError(f"process {self.name} yielded foreign event")
            )
            return
        if target.callbacks is None:
            # Already processed: resume immediately with its value.
            self._target = None
            if target.ok:
                self._step_send(target.value)
            else:
                self._step_throw(target.value)
            return
        self._target = target
        target.callbacks.append(self._resume)


class Condition(Event):
    """Base for composite events (:class:`AllOf` / :class:`AnyOf`)."""

    __slots__ = ("events", "_pending")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self.events: Tuple[Event, ...] = tuple(events)
        self._pending = 0
        if not self.events:
            self.succeed({})
            return
        for event in self.events:
            if event.callbacks is None:
                self._on_child(event)
            else:
                self._pending += 1
                event.callbacks.append(self._on_child)
        self._check_initial()

    def _check_initial(self) -> None:
        raise NotImplementedError

    def _on_child(self, event: Event) -> None:
        raise NotImplementedError

    def _collect(self) -> dict:
        return {
            ev: ev.value
            for ev in self.events
            if ev.processed and ev.ok
        }


class AllOf(Condition):
    """Fires when every child event has fired (values keyed by event)."""

    __slots__ = ()

    def _check_initial(self) -> None:
        if not self._triggered and self._pending == 0:
            self.succeed(self._collect())

    def _on_child(self, event: Event) -> None:
        if self._triggered:
            return
        if not event.ok:
            self.fail(event.value)
            return
        self._pending -= 1
        if self._pending <= 0:
            remaining = [ev for ev in self.events if not ev.processed]
            if not remaining:
                self.succeed(self._collect())


class AnyOf(Condition):
    """Fires as soon as the first child event fires."""

    __slots__ = ()

    def _check_initial(self) -> None:
        for event in self.events:
            if event.processed:
                if not self._triggered:
                    if event.ok:
                        self.succeed(self._collect())
                    else:
                        self.fail(event.value)
                return

    def _on_child(self, event: Event) -> None:
        if self._triggered:
            return
        if event.ok:
            self.succeed(self._collect())
        else:
            self.fail(event.value)


class _ScheduledCallback:
    """A bare ``fn(arg)`` queue entry (see :meth:`Environment.call_at`)."""

    __slots__ = ("fn", "arg")

    def __init__(self, fn: Callable[[Any], None], arg: Any):
        self.fn = fn
        self.arg = arg

    def _fire(self) -> None:
        self.fn(self.arg)


class Timer:
    """A re-armable, cancellable alarm calling ``fn()`` at :attr:`when`.

    Each :meth:`arm` pushes one :meth:`~Environment.call_at` entry, even
    at an unchanged time (the timer then fires behind everything queued
    for that instant since).  A superseded or cancelled entry stays
    queued and is skipped when it fires.  :attr:`when` is ``inf`` while
    disarmed, and from the moment it fires, so ``fn`` may re-arm it.
    """

    __slots__ = ("env", "fn", "when", "_seq")

    def __init__(self, env: "Environment", fn: Callable[[], None]):
        self.env = env
        self.fn = fn
        self.when = float("inf")
        self._seq = 0

    def arm(self, when: float) -> None:
        """Fire at absolute time ``when``, superseding any earlier arm."""
        self._seq += 1
        self.when = when
        self.env.call_at(when, self._fire, self._seq)

    def cancel(self) -> None:
        """Disarm: a pending fire is skipped."""
        self._seq += 1
        self.when = float("inf")

    def _fire(self, seq: int) -> None:
        if seq == self._seq:  # else superseded by a re-arm or a cancel
            self.when = float("inf")
            self.fn()


def grid_point(start: float, step: float,
               at_least: float) -> Tuple[float, float]:
    """The first of ``start + step``, ``start + 2*step``, ... that is at
    least ``at_least``, and the grid point before it (``start`` when
    the first point is the answer).

    Points are built by repeated float addition: exactly the instants a
    chain of ``timeout(step)`` started at ``start`` wakes at.  A loop
    that sleeps through idle points and wakes on a later one therefore
    keeps the chain's clock bit for bit.  For "strictly after ``t``"
    pass ``nextafter(t, inf)``.
    """
    before, point = start, start + step
    while point < at_least:
        before, point = point, point + step
    return before, point


def due_time(origin: float, span: float) -> float:
    """The earliest time ``t`` for which ``t - origin >= span`` holds.

    ``origin + span`` may be one rounding step off either way; this is
    the exact instant a ``now - origin >= span`` check first passes, so
    a sleeper armed on it wakes neither early nor late.
    """
    t = origin + span
    if t - origin >= span:
        while nextafter(t, -inf) - origin >= span:
            t = nextafter(t, -inf)
    else:
        while t - origin < span:
            t = nextafter(t, inf)
    return t


class Environment:
    """The simulation world: a virtual clock plus an ordered event queue.

    Parameters
    ----------
    initial_time:
        Starting value of :attr:`now` (seconds).
    hooks:
        Optional kernel dispatch hooks (see
        :mod:`repro.observability.hooks`).  ``None`` — the default and
        the golden-trace configuration — costs one ``is None`` test
        per event; any object with ``on_schedule`` / ``on_dispatch``
        callbacks is invoked at every queue push and fire.  Hooks
        observe the run; they must never schedule events or otherwise
        mutate simulation state.
    """

    def __init__(self, initial_time: float = 0.0, hooks: Any = None):
        self._now = float(initial_time)
        # Queue entries are (time, tie-break counter, Event-or-callback).
        self._queue: List[Tuple[float, int, Any]] = []
        self._counter = 0
        #: The attached kernel hooks object (``None`` when disabled).
        self.hooks = hooks

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    # -- event factories -------------------------------------------------

    def event(self) -> Event:
        """Create a fresh, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event firing ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def process(
        self,
        generator: Generator[Event, Any, Any],
        name: Optional[str] = None,
    ) -> Process:
        """Start a new process from ``generator`` at the current time."""
        return Process(self, generator, name=name)

    def call_at(self, when: float, fn: Callable[[Any], None],
                arg: Any = None) -> None:
        """Schedule ``fn(arg)`` at absolute time ``when`` (cheaply).

        Unlike :meth:`timeout`, nothing can wait on the result: this is
        the fire-and-forget fast path under :class:`Timer`.  The
        absolute timestamp is used verbatim, so a caller that computed
        ``when`` once fires at exactly that float, with no
        ``now + (when - now)`` rounding wobble.
        """
        if when < self._now:
            raise ValueError(f"call_at({when}) is in the past (now={self._now})")
        heapq.heappush(self._queue,
                       (when, self._counter, _ScheduledCallback(fn, arg)))
        self._counter += 1
        if self.hooks is not None:
            self.hooks.on_schedule(when, self._now, len(self._queue))

    def call_later(self, delay: float, fn: Callable[[Any], None],
                   arg: Any = None) -> None:
        """Schedule ``fn(arg)`` after ``delay`` seconds (see :meth:`call_at`)."""
        if delay < 0:
            raise ValueError(f"negative call_later delay: {delay!r}")
        self.call_at(self._now + delay, fn, arg)

    def timer(self, fn: Callable[[], None]) -> Timer:
        """A disarmed :class:`Timer` that calls ``fn()`` when it fires."""
        return Timer(self, fn)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Composite event that fires when all ``events`` have fired."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Composite event that fires when any one of ``events`` fires."""
        return AnyOf(self, events)

    # -- scheduling ------------------------------------------------------

    def _enqueue(self, event: Event, delay: float = 0.0) -> None:
        heapq.heappush(self._queue, (self._now + delay, self._counter, event))
        self._counter += 1
        if self.hooks is not None:
            self.hooks.on_schedule(self._now + delay, self._now,
                                    len(self._queue))

    def peek(self) -> float:
        """Time of the next scheduled event (``inf`` if queue is empty)."""
        if not self._queue:
            return float("inf")
        return self._queue[0][0]

    def step(self) -> None:
        """Process exactly one event, advancing the clock to it."""
        if not self._queue:
            raise SimulationError("step() on empty event queue")
        when, _, event = heapq.heappop(self._queue)
        self._now = when
        hooks = self.hooks
        if hooks is None:
            event._fire()
            return
        started = perf_counter()
        event._fire()
        hooks.on_dispatch(event, when, perf_counter() - started,
                          len(self._queue))

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains or the clock reaches ``until``.

        Failed events that no process is waiting on are silently
        discarded by design: a failed process whose outcome nobody
        observes is the simulation analogue of a crashed daemon whose
        exit code nobody reads.  Tests that care about a process outcome
        must keep a reference and inspect ``.ok`` / ``.value``.
        """
        if until is not None and until < self._now:
            raise ValueError(f"until={until} is in the past (now={self._now})")
        while self._queue:
            when = self._queue[0][0]
            if until is not None and when > until:
                self._now = until
                return
            self.step()
        if until is not None:
            self._now = until
