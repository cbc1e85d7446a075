"""Kernel dispatch hooks: zero-cost profiling for the simulation core.

The :class:`~repro.sim.Environment` accepts an optional hooks object
and calls it at the kernel's three chokepoints — event scheduling,
event dispatch, and the flow engine's rate reallocation.  The contract
is deliberately duck-typed (the kernel never imports this module), so
the disabled path stays a single ``is None`` test per event:

* ``hooks=None`` (the default) — nothing is called, nothing is timed.
  This is the configuration every golden trace is pinned against.
* :class:`NoopHooks` — every callback exists and does nothing.  The
  cost of *having* hooks attached: two method calls and two
  ``perf_counter`` reads per dispatched event.  ``tools/perf_report.py``
  measures that cost per event on a dispatch microbench and gates it
  under 3 % of the flow-churn microbench's wall-clock
  (``hooks_overhead`` in ``BENCH_perf.json``).
* :class:`KernelProfile` — aggregates dispatch counts, wall-clock,
  queue depths, and reallocation ripple sizes into plain counters and
  a :class:`~repro.monitoring.metrics.MetricRegistry` view, so engine
  hot-path profiles come for free in any run that wants them.

Hooks observe the simulation; they must never mutate it.  Scheduling
events, touching RNG streams, or raising from a callback would perturb
the deterministic trace the golden tests pin.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from ..monitoring.metrics import MetricRegistry
from ..sim import Timer


class KernelHooks:
    """Base hook set: the callbacks the kernel and flow engine invoke.

    Subclass and override what you need; every method is a no-op here,
    so partial implementations stay cheap.  All callbacks run
    synchronously inside the kernel — keep them allocation-light.
    """

    def on_schedule(self, when: float, now: float, qsize: int) -> None:
        """An item was pushed onto the event queue for time ``when``."""

    def on_dispatch(self, item: Any, now: float, wall_seconds: float,
                    qsize: int) -> None:
        """One queue item fired: ``item`` is the Event or callback that
        ran, ``now`` the simulation time it ran at, ``wall_seconds``
        the host wall-clock its callbacks consumed, ``qsize`` the
        queue depth after the pop."""

    def on_reallocate(self, component_flows: int, links: int,
                      wall_seconds: float) -> None:
        """The flow engine recomputed max-min rates over a component of
        ``component_flows`` flows rippling across ``links`` links."""


class NoopHooks(KernelHooks):
    """Hooks attached but inert — the overhead-measurement baseline."""

    __slots__ = ()


class KernelProfile(KernelHooks):
    """Aggregating hooks: the free engine profile.

    Attach with ``env.hooks = KernelProfile()`` (or pass
    ``hooks=`` to :class:`~repro.federation.FederatedDeployment`),
    run, then read the plain counters or :meth:`registry` /
    :meth:`report`.
    """

    __slots__ = (
        "events_dispatched", "events_scheduled", "dispatch_wall_seconds",
        "max_queue_depth", "reallocations", "reallocation_wall_seconds",
        "reallocated_flows", "reallocated_links", "max_component_flows",
        "_kind_counts", "_kind_wall",
    )

    def __init__(self):
        self.events_dispatched = 0
        self.events_scheduled = 0
        self.dispatch_wall_seconds = 0.0
        self.max_queue_depth = 0
        self.reallocations = 0
        self.reallocation_wall_seconds = 0.0
        self.reallocated_flows = 0
        self.reallocated_links = 0
        self.max_component_flows = 0
        #: Dispatches and wall-clock by kind: a scheduled callback's
        #: (or its Timer's) function ``__qualname__``, else the queue
        #: item's type name (``Timeout``, ``Process``, ...).
        self._kind_counts: Dict[str, int] = {}
        self._kind_wall: Dict[str, float] = {}

    def on_schedule(self, when: float, now: float, qsize: int) -> None:
        self.events_scheduled += 1
        if qsize > self.max_queue_depth:
            self.max_queue_depth = qsize

    def on_dispatch(self, item: Any, now: float, wall_seconds: float,
                    qsize: int) -> None:
        self.events_dispatched += 1
        self.dispatch_wall_seconds += wall_seconds
        fn = getattr(item, "fn", None)  # set on scheduled callbacks
        if fn is None:
            kind = type(item).__name__
        else:
            if isinstance(getattr(fn, "__self__", None), Timer):
                fn = fn.__self__.fn
            kind = getattr(fn, "__qualname__", type(fn).__name__)
        self._kind_counts[kind] = self._kind_counts.get(kind, 0) + 1
        self._kind_wall[kind] = self._kind_wall.get(kind, 0.0) + wall_seconds

    def on_reallocate(self, component_flows: int, links: int,
                      wall_seconds: float) -> None:
        self.reallocations += 1
        self.reallocation_wall_seconds += wall_seconds
        self.reallocated_flows += component_flows
        self.reallocated_links += links
        if component_flows > self.max_component_flows:
            self.max_component_flows = component_flows

    # -- read-out ---------------------------------------------------------

    def dispatches_by_kind(self) -> List[Tuple[str, int, float]]:
        """``(kind, count, wall seconds)`` rows, busiest first."""
        return sorted(
            ((kind, count, round(self._kind_wall[kind], 6))
             for kind, count in self._kind_counts.items()),
            key=lambda row: (-row[2], -row[1], row[0]),
        )

    @property
    def mean_component_flows(self) -> float:
        """Mean reallocation ripple size (flows per recomputation)."""
        if self.reallocations == 0:
            return 0.0
        return self.reallocated_flows / self.reallocations

    def registry(self) -> MetricRegistry:
        """The profile as Prometheus metric families (for scraping)."""
        reg = MetricRegistry()
        reg.counter("sim_events_dispatched_total",
                    "Queue items fired by the kernel").inc(
            self.events_dispatched)
        reg.counter("sim_events_scheduled_total",
                    "Queue items pushed onto the kernel").inc(
            self.events_scheduled)
        reg.counter("sim_dispatch_wall_seconds_total",
                    "Host wall-clock spent inside event callbacks").inc(
            self.dispatch_wall_seconds)
        reg.gauge("sim_queue_depth_max",
                  "Deepest event queue observed").set(self.max_queue_depth)
        reg.counter("flow_reallocations_total",
                    "Max-min rate recomputations").inc(self.reallocations)
        reg.counter("flow_reallocation_wall_seconds_total",
                    "Host wall-clock spent recomputing flow rates").inc(
            self.reallocation_wall_seconds)
        reg.gauge("flow_reallocation_component_flows_max",
                  "Largest link component recomputed at once").set(
            self.max_component_flows)
        by_kind = reg.counter("sim_dispatches_by_kind_total",
                              "Queue items fired, by item type")
        for kind, count, _wall in self.dispatches_by_kind():
            by_kind.inc(count, kind=kind)
        return reg

    def report(self) -> Dict[str, Any]:
        """The profile as a plain dict (for JSON dashboards)."""
        return {
            "events_dispatched": self.events_dispatched,
            "events_scheduled": self.events_scheduled,
            "dispatch_wall_seconds": round(self.dispatch_wall_seconds, 6),
            "max_queue_depth": self.max_queue_depth,
            "reallocations": self.reallocations,
            "reallocation_wall_seconds": round(
                self.reallocation_wall_seconds, 6),
            "mean_component_flows": round(self.mean_component_flows, 2),
            "max_component_flows": self.max_component_flows,
            "dispatches_by_kind": [
                {"kind": kind, "count": count, "wall_seconds": wall}
                for kind, count, wall in self.dispatches_by_kind()
            ],
        }
