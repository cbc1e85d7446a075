"""Reference max-min flow engine (the pre-optimization implementation).

This is the original O(rounds · links · flows) progressive-filling
engine, preserved verbatim for two jobs:

* **Golden oracle** — ``tests/test_golden_flows.py`` runs identical
  scenarios through this engine and the optimized
  :class:`~repro.network.flows.FlowNetwork` and requires bit-identical
  traces (event times, observer deltas, completion order).
* **Perf baseline** — ``tools/perf_report.py`` runs the churn
  microbench (``benchmarks/bench_perf_core.py``) on both engines; the
  speedup it gates and records in ``BENCH_perf.json`` is defined
  against this implementation.

Three deliberate deviations from the seed implementation, mirrored in
the optimized engine so traces stay comparable:

* flow ids come from a per-network counter (reproducible per network,
  independent of test execution order);
* a flow completed with a sub-byte residue (``remaining < 1.0``) has
  the residue credited to ``transferred`` and to observers, so byte
  conservation is exact (the seed silently dropped up to one byte per
  flow, which the property suite catches);
* the freezing loop skips already-frozen flows *during* iteration, so
  a flow traversing the same link twice consumes capacity once per
  traversal instead of twice per traversal (the seed's snapshot loop
  double-charged such flows; unobservable for simple paths, which is
  all the topologies produce).

Do not optimize this module.  It must stay the simple restart
implementation the fast engine is verified against.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Dict, List, Optional

from ..errors import NetworkError
from ..sim import Environment, Event
from .flows import Flow
from .lan import CampusLAN, Link
from .qos import TRAFFIC_CLASSES, QoSPolicy


def reference_max_min_rates(flows: List[Flow]) -> Dict[Flow, float]:
    """Progressive-filling max-min fair allocation, by full restart.

    Repeatedly finds the most constrained link, freezes its flows at
    the equal share it can sustain, removes consumed capacity, and
    iterates until every flow is frozen.
    """
    rates: Dict[Flow, float] = {}
    active = [flow for flow in flows if flow.links]
    for flow in flows:
        if not flow.links:
            rates[flow] = math.inf  # local copies are disk-bound, not ours
    remaining_capacity: Dict[Link, float] = {}
    link_flows: Dict[Link, List[Flow]] = {}
    for flow in active:
        for link in flow.links:
            remaining_capacity.setdefault(link, link.capacity)
            link_flows.setdefault(link, []).append(flow)
    unfrozen = set(active)
    while unfrozen:
        # Fair share each link could give its unfrozen flows.
        best_share = math.inf
        best_link: Optional[Link] = None
        for link, members in link_flows.items():
            live = [flow for flow in members if flow in unfrozen]
            if not live:
                continue
            share = max(0.0, remaining_capacity[link]) / len(live)
            if share < best_share:
                best_share = share
                best_link = link
        if best_link is None:
            break
        for flow in link_flows[best_link]:
            if flow not in unfrozen:
                continue
            rates[flow] = best_share
            unfrozen.discard(flow)
            for link in flow.links:
                remaining_capacity[link] -= best_share
    return rates


def reference_qos_max_min_rates(
    flows: List[Flow],
    policy: QoSPolicy,
    class_caps: Optional[Dict[str, float]] = None,
) -> Dict[Flow, float]:
    """Class-aware allocation, by full restart (the naive counterpart
    of :func:`repro.network.flows.qos_max_min_rates`).

    Strict-priority control fills first over the full capacity, then a
    naive *weighted* fill covers the remaining classes, then capped
    classes are scaled down proportionally.

    The weighted fill keeps per-link weight sums as *running*
    decrements (not fresh per-round re-summations): re-summing floats
    each round would differ from the decremented sums by ulps for
    non-power-of-two weights, and the fast engine's heap fill — which
    this function must match bitwise — can only decrement.
    """
    from .qos import CONTROL

    rates: Dict[Flow, float] = {}
    active = [flow for flow in flows if flow.links]
    for flow in flows:
        if not flow.links:
            rates[flow] = math.inf  # local copies are disk-bound, not ours
    if not active:
        return rates
    weights = {flow: policy.class_weight(policy.class_of(flow))
               for flow in active}
    if policy.strict_priority_control:
        control = [f for f in active if policy.class_of(f) == CONTROL]
        others = [f for f in active if policy.class_of(f) != CONTROL]
    else:
        control = []
        others = list(active)

    def fill(group: List[Flow], consumed: List[Flow]) -> None:
        residual: Dict[Link, float] = {}
        members: Dict[Link, List[Flow]] = {}
        wsums: Dict[Link, float] = {}
        for flow in group:
            for link in flow.links:
                if link not in residual:
                    residual[link] = link.capacity
                    members[link] = []
                    wsums[link] = 0.0
                members[link].append(flow)
                wsums[link] += weights[flow]
        # Capacity the higher-priority pass already consumed, charged
        # in flow order (identical subtraction order to the fast
        # engine's component fill).
        for flow in consumed:
            rate = rates[flow]
            for link in flow.links:
                if link in residual:
                    residual[link] -= rate
        unfrozen = set(group)
        while unfrozen:
            best_share = math.inf
            best_link: Optional[Link] = None
            for link, flows_on in members.items():
                if not any(flow in unfrozen for flow in flows_on):
                    continue
                room = residual[link]
                wsum = wsums[link]
                share = (room / wsum
                         if room > 0.0 and wsum > 0.0 else 0.0)
                if share < best_share:
                    best_share = share
                    best_link = link
            if best_link is None:
                break
            for flow in members[best_link]:
                if flow not in unfrozen:
                    continue
                weight = weights[flow]
                rate = best_share * weight
                rates[flow] = rate
                unfrozen.discard(flow)
                for link in flow.links:
                    residual[link] -= rate
                    wsums[link] -= weight

    if control:
        fill(control, [])
    if others:
        fill(others, control)
    if class_caps:
        # Scale each capped class down to its cap, proportionally —
        # stranding the freed capacity (pacing buys headroom, it does
        # not reshuffle shares).  Same loop as the fast engine's
        # _apply_class_caps, duplicated on purpose.
        for cls in sorted(class_caps):
            cap = class_caps[cls]
            group = [flow for flow in active if policy.class_of(flow) == cls]
            total = 0.0
            for flow in group:
                total += rates[flow]
            if total > cap and total > 0.0:
                scale = cap / total
                for flow in group:
                    rates[flow] = rates[flow] * scale
    return rates


class ReferenceFlowNetwork:
    """The original event-driven transfer engine (full restart on every
    arrival/completion, global settle of all flows at every event)."""

    def __init__(self, env: Environment, lan: CampusLAN,
                 qos: Optional[QoSPolicy] = None):
        self.env = env
        self.lan = lan
        self.qos = qos
        self._class_caps: Dict[str, float] = {}
        self._flows: List[Flow] = []
        self._flow_seq = itertools.count(1)
        self._generation = 0
        self._last_update = env.now
        self._observers: List[Callable[[Flow, float], None]] = []
        self.reallocations = 0
        self.flows_started = 0
        self.flows_completed = 0
        self.flows_migrated = 0
        self.class_bytes: Dict[str, float] = {}
        self.class_flows_started: Dict[str, int] = {}
        if qos is not None:
            for cls in TRAFFIC_CLASSES:
                self.class_bytes[cls] = 0.0
                self.class_flows_started[cls] = 0
            self.add_observer(self._account)

    @property
    def active_flows(self) -> List[Flow]:
        """Snapshot of in-flight flows."""
        return list(self._flows)

    def add_observer(self, callback: Callable[[Flow, float], None]) -> None:
        """Register ``callback(flow, bytes_delta)`` for progress events."""
        self._observers.append(callback)

    # -- public API --------------------------------------------------------

    def transfer(
        self,
        src: str,
        dst: str,
        size: float,
        category: str = "data",
    ) -> Event:
        """Start a transfer; returns its completion event."""
        if size < 0:
            raise ValueError(f"negative transfer size: {size}")
        links = self.lan.path(src, dst)  # raises NetworkError if unreachable
        flow = Flow(self.env, src, dst, size, links, category,
                    flow_id=next(self._flow_seq))
        if self.qos is not None:
            flow.traffic_class = self.qos.classify(category)
            self.class_flows_started[flow.traffic_class] = (
                self.class_flows_started.get(flow.traffic_class, 0) + 1)
        # Every issued transfer counts, instant paths included (the
        # fast engine counts identically).
        self.flows_started += 1
        if not links:
            flow.transferred = flow.size
            self._notify(flow, flow.size)
            self.flows_completed += 1
            flow.done.succeed(flow)
            return flow.done
        if size == 0:
            self.flows_completed += 1
            flow.done.succeed(flow, delay=self.lan.latency(src, dst))
            return flow.done
        self._settle()
        self._flows.append(flow)
        self._reallocate()
        return flow.done

    def kill_host_flows(self, hostname: str, reason: str = "host departed") -> int:
        """Fail every flow with ``hostname`` as an endpoint."""
        self._settle()
        doomed = [f for f in self._flows if hostname in (f.src, f.dst)]
        for flow in doomed:
            self._flows.remove(flow)
            flow.done.fail(NetworkError(f"flow {flow.flow_id} killed: {reason}"))
        if doomed:
            self._reallocate()
        return len(doomed)

    def kill_flows_on(
        self,
        links,
        reason: str = "link severed",
        error_factory: Optional[Callable[[Flow], NetworkError]] = None,
    ) -> int:
        """Fail every flow whose route crosses any of ``links``."""
        links = set(links)
        self._settle()
        doomed = [f for f in self._flows if links.intersection(f.links)]
        for flow in doomed:
            self._flows.remove(flow)
            if error_factory is not None:
                error = error_factory(flow)
            else:
                error = NetworkError(f"flow {flow.flow_id} killed: {reason}")
            flow.done.fail(error)
        if doomed:
            self._reallocate()
        return len(doomed)

    def migrate_flows(
        self,
        flows: List[Flow],
        route_of: Callable[[Flow], List[Link]],
        error_factory: Optional[Callable[[Flow], NetworkError]] = None,
    ):
        """Re-pin in-flight flows onto freshly computed routes (the
        naive mirror of the fast engine's ``migrate_flows``)."""
        self._settle()
        candidates = [f for f in flows if f in self._flows]
        if not candidates:
            return (0, 0)
        now = self.env.now
        moved = 0
        killed = 0
        for flow in candidates:
            try:
                new_links = route_of(flow)
            except NetworkError as exc:
                self._flows.remove(flow)
                flow.done.fail(error_factory(flow)
                               if error_factory is not None else exc)
                killed += 1
                continue
            flow.links = new_links
            flow.routed_at = now
            flow.migrations += 1
            moved += 1
        self.flows_migrated += moved
        self._reallocate()
        return (moved, killed)

    def migrate_flows_on(
        self,
        links,
        route_of: Callable[[Flow], List[Link]],
        error_factory: Optional[Callable[[Flow], NetworkError]] = None,
    ):
        """Migrate every flow whose route crosses any of ``links``."""
        links = set(links)
        return self.migrate_flows(
            [f for f in self._flows if links.intersection(f.links)],
            route_of,
            error_factory,
        )

    def set_class_cap(self, traffic_class: str,
                      cap: Optional[float]) -> None:
        """Cap (or with ``None`` uncap) a class's aggregate rate."""
        if self.qos is None:
            raise ValueError("class caps need a QoS-enabled engine")
        if traffic_class not in TRAFFIC_CLASSES:
            raise ValueError(f"unknown traffic class {traffic_class!r}")
        if cap is not None and cap <= 0:
            raise ValueError("cap must be positive (None to uncap)")
        if cap == self._class_caps.get(traffic_class):
            return
        self._settle()
        if cap is None:
            del self._class_caps[traffic_class]
        else:
            self._class_caps[traffic_class] = cap
        if self._flows:
            self._reallocate()

    def link_rate(self, link: Link) -> float:
        """Aggregate allocated rate over ``link`` (bytes/s)."""
        return sum(flow.rate for flow in self._flows
                   if link in flow.links)

    def class_rate(self, traffic_class: str) -> float:
        """Aggregate allocated rate of a class's in-flight flows."""
        if self.qos is None:
            return 0.0
        return sum(flow.rate for flow in self._flows
                   if self.qos.class_of(flow) == traffic_class)

    # -- engine ------------------------------------------------------------

    def _notify(self, flow: Flow, delta: float) -> None:
        if delta <= 0:
            return
        for observer in self._observers:
            observer(flow, delta)

    def _account(self, flow: Flow, delta: float) -> None:
        """Internal observer: per-class delivered-byte counters."""
        cls = self.qos.class_of(flow)
        self.class_bytes[cls] = self.class_bytes.get(cls, 0.0) + delta

    def _settle(self) -> None:
        """Credit every flow with progress since the last update."""
        now = self.env.now
        elapsed = now - self._last_update
        if elapsed > 0:
            for flow in self._flows:
                delta = min(flow.rate * elapsed, flow.remaining)
                flow.transferred += delta
                self._notify(flow, delta)
        self._last_update = now

    def _reallocate(self) -> None:
        """Recompute fair rates and schedule the next completion."""
        if self.qos is not None:
            rates = reference_qos_max_min_rates(
                self._flows, self.qos,
                self._class_caps if self._class_caps else None)
        else:
            rates = reference_max_min_rates(self._flows)
        for flow in self._flows:
            flow.rate = rates.get(flow, 0.0)
        self.reallocations += 1
        self._generation += 1
        generation = self._generation
        horizon = math.inf
        for flow in self._flows:
            if flow.rate > 0:
                horizon = min(horizon, flow.remaining / flow.rate)
        if math.isinf(horizon):
            return
        wake = self.env.timeout(max(horizon, 0.0))
        wake.callbacks.append(lambda _ev: self._on_wake(generation))

    def _on_wake(self, generation: int) -> None:
        if generation != self._generation:
            return  # superseded by a newer reallocation
        self._settle()
        # Bytes are discrete: a sub-byte float residue means done.
        finished = [f for f in self._flows if f.remaining < 1.0]
        for flow in finished:
            self._flows.remove(flow)
            self.flows_completed += 1
            residue = flow.remaining
            if residue > 0:
                flow.transferred = flow.size
                self._notify(flow, residue)
            latency = self.lan.latency(flow.src, flow.dst)
            flow.done.succeed(flow, delay=latency)
        self._reallocate()
