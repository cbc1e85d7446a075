"""Max-min fair bandwidth sharing.

Concurrent transfers (checkpoint uploads, image pulls, migration state
moves) share the campus links.  This engine allocates each flow its
max-min fair rate via progressive filling — the standard model of what
per-flow fair queuing plus TCP achieves in steady state — and replays
flow progress exactly at every arrival/departure, so transfer completion
times reflect real contention rather than a fixed per-transfer rate.

The engine is the costly path of the whole simulation.  Rate
recomputation happens only on flow arrival/completion/topology change,
and four structural optimizations keep each recomputation cheap:

* **Heap-driven progressive filling** — :func:`max_min_rates` tracks
  per-link residual capacity and unfrozen-flow counts and pops the
  bottleneck link from a heap of fair shares, instead of rescanning
  every link's membership each freezing round.  The arithmetic (share
  divisions, residual subtractions, tie-breaks by link first-use
  order) is performed in exactly the order the naive restart performs
  it, so the allocation is bit-identical to the reference
  implementation in :mod:`repro.network._reference`.
* **Component-scoped reallocation** — a flow arrival or departure only
  perturbs rates inside the connected component of links it touches.
  Flows on disjoint links keep their rates without being recomputed
  (max-min allocations of disjoint components are independent), which
  is what makes sparse fabrics — a WAN with traffic on unrelated site
  pairs — cheap under churn.  On a shared fabric — a campus backbone
  every cross-host flow crosses — the component is the whole flow
  table, so the walk is skipped: when one perturbed link carries
  every active flow, the flow table and link index are the component.
* **Copy-free fill** — the fill numbers the component's links once,
  in first-touch order, and keeps residuals and counts in lists
  indexed by that number; it reads the link index's live member
  buckets and counts unfrozen flows instead of copying lists and sets
  per event.  The lazy settle arithmetic is inlined on the hot loops.
* **Solo flows** — the classless engine gives a one-flow component
  the smallest of its links' ``capacity / 1`` shares without a fill:
  the exact float a one-flow progressive fill freezes it at.  A quiet
  fabric (RPC legs between otherwise idle hosts) reallocates almost
  only such components.  A synchronous classless engine that holds no
  flow goes further: a transfer registers its flow, sets that rate
  and arms the wake at the flow's own ETA, and the wake completes the
  lone flow once it has finished — no settle sweep, component copy,
  sort or wake scan at either end, with the same ``reallocations``
  and ``on_reallocate`` arguments as the general path.  On
  ``federation-day`` about 98% of transfers start that way.

The engine runs in one of two settle disciplines:

* **Synchronous** (any observer registered — every platform attaches a
  :class:`~repro.network.traffic.TrafficMeter`): every active flow is
  credited with progress at every engine event, exactly like the
  reference engine, so observers see byte deltas at identical times
  with identical values and simulation traces are reproducible
  bit-for-bit against the reference.
* **Lazy** (no observers — bare engines, e.g. benchmarks): a flow is
  only settled when its own rate changes or its component completes a
  flow, so steady flows in quiet components are never touched.  A
  heap of completion ETAs drives the wakes; its stale entries are
  dropped in bulk once they outnumber twice the live flows.

Wake-ups re-arm one kernel :class:`~repro.sim.Timer` (no Event per
reallocation): lazily only when the ETA moves, synchronously at every
event, as the reference engine's fresh ``timeout`` per event orders.

With a :class:`~repro.network.qos.QoSPolicy` attached (``qos=``), the
engine becomes class-aware: control flows fill first over the full
capacity (strict priority), interactive and bulk split the residual by
weight, and an optional per-class rate cap (driven by
:class:`~repro.network.qos.BulkAutorate`) paces bulk replication.
In-flight flows can also *migrate*: :meth:`FlowNetwork.migrate_flows_on`
re-pins flows whose route died onto a freshly computed route with
``transferred`` bytes preserved, which is how a checkpoint replication
survives a WAN link flap instead of restarting from zero.  The
``qos=None`` default keeps every code path — and every golden trace —
bit-identical to the classless engine.
"""

from __future__ import annotations

import heapq
import itertools
import math
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..errors import NetworkError
from ..sim import Environment, Event
from .lan import CampusLAN, Link
from .qos import CONTROL, TRAFFIC_CLASSES, QoSPolicy

#: Fallback id source for flows constructed outside an engine (unit
#: tests build bare :class:`Flow` objects).  A :class:`FlowNetwork`
#: stamps ids from its *own* counter, so flow ids are reproducible
#: per network and independent of what other networks or tests did.
_orphan_flow_ids = itertools.count(1)


class Flow:
    """One in-progress transfer.

    Attributes
    ----------
    done:
        Event fired with the flow when the last byte (plus propagation
        latency) has arrived, or failed with :class:`NetworkError` if
        the flow was killed (endpoint departed).
    """

    __slots__ = (
        "flow_id", "src", "dst", "size", "links", "transferred",
        "rate", "done", "category", "started_at", "settled_at", "eta",
        "traffic_class", "routed_at", "migrations",
    )

    def __init__(self, env: Environment, src: str, dst: str, size: float,
                 links: List[Link], category: str,
                 flow_id: Optional[int] = None):
        self.flow_id = next(_orphan_flow_ids) if flow_id is None else flow_id
        self.src = src
        self.dst = dst
        self.size = float(size)
        self.links = links
        self.transferred = 0.0
        self.rate = 0.0
        self.done: Event = env.event()
        self.category = category
        self.started_at = env.now
        #: Time up to which ``transferred`` reflects delivered bytes
        #: (lazy settle bookkeeping).
        self.settled_at = env.now
        #: Estimated completion time under the current rate (lazy
        #: wake bookkeeping; ``inf`` while the rate is zero).
        self.eta = math.inf
        #: QoS class stamped by a class-aware engine (``None`` on the
        #: classless path; the policy classifies by category then).
        self.traffic_class: Optional[str] = None
        #: When the current route was pinned (creation or the last
        #: migration) — the dwell clock route steering checks before
        #: moving a flow again.
        self.routed_at = env.now
        #: Times this flow was re-pinned onto a recomputed route.
        self.migrations = 0

    @property
    def remaining(self) -> float:
        """Bytes not yet delivered."""
        return max(0.0, self.size - self.transferred)


def max_min_rates(flows: List[Flow]) -> Dict[Flow, float]:
    """Progressive-filling max-min fair allocation.

    Heap-driven: each link carries a residual capacity and a count of
    unfrozen flow traversals; the most constrained link (smallest fair
    share, ties broken by first-use order) is popped from a heap,
    its flows freeze at that share, and the links they also traverse
    get their shares re-pushed.  Stale heap entries are skipped by
    re-validating the share on pop.

    This computes the identical allocation — same divisions, same
    residual-subtraction order, same tie-breaks — as restarting the
    naive fill from scratch, in roughly O((links + flows·path) log
    links) instead of O(rounds · links · flows).

    A flow traversing the same link twice counts as two traversals of
    that link (it really does consume double capacity there) but is
    frozen exactly once, consuming ``share`` per traversal.
    """
    rates: Dict[Flow, float] = {}
    active = [flow for flow in flows if flow.links]
    for flow in flows:
        if not flow.links:
            rates[flow] = math.inf  # local copies are disk-bound, not ours
    if not active:
        return rates
    slots: Dict[Link, int] = {}
    members: List[List[Flow]] = []
    counts: List[int] = []
    for flow in active:
        for link in flow.links:
            slot = slots.get(link)
            if slot is None:
                slot = slots[link] = len(members)
                members.append([])
                counts.append(0)
            members[slot].append(flow)
            counts[slot] += 1
    _progressive_fill(rates, len(active), slots, members, counts)
    return rates


def _solo_rate(links: List[Link]) -> float:
    """The rate a one-flow progressive fill freezes a flow at: the
    smallest of its links' shares, each computed as the fill computes
    it (``capacity / 1``, or 0 on a link with no capacity)."""
    rate = math.inf
    for link in links:
        capacity = link.capacity
        share = capacity / 1 if capacity > 0.0 else 0.0
        if share < rate:
            rate = share
    return rate


def _progressive_fill(
    rates: Dict[Flow, float],
    unfrozen: int,
    slots: Dict[Link, int],
    members: List[Iterable[Flow]],
    counts: List[int],
) -> None:
    """Heap-driven freezing core shared by :func:`max_min_rates` and
    the engine's index-backed fast path.

    ``slots`` numbers the links in first-touch order (a flow's links
    in order, flows in id order); that number is both the tie-break
    and the index into the per-link lists: ``members`` (iterated only,
    so the engine passes its live link-index bucket views uncopied),
    ``counts`` of unfrozen traversals (mutated), and the residual
    capacities built here.  ``unfrozen`` counts the flows still to
    freeze.  A flow is frozen once it has an entry in ``rates``, so
    callers pass ``rates`` holding no member flow yet.

    Heap hygiene: only share *decreases* are pushed eagerly.  A link
    whose share grew keeps its old (now too-small) entry; that entry
    pops early, fails re-validation, and is refreshed lazily.  Valid
    freezes therefore still happen in exact ascending (share,
    first-touch) order — a link's true share is always represented by
    an entry no larger than it — while the usual case (freezing a
    bottleneck *raises* its neighbours' shares) costs no heap traffic
    at all.  ``floor`` tracks the smallest live entry per link.
    Member and touched-link iteration order is free: one freezing
    round charges the same share to every hop, and the heap pops the
    same entries in whatever order they were pushed.
    """
    residual = [link.capacity for link in slots]
    floor = [room / count if room > 0.0 else 0.0
             for room, count in zip(residual, counts)]
    heap: List[Tuple[float, int]] = list(zip(floor, range(len(floor))))
    heapq.heapify(heap)
    pop = heapq.heappop
    push = heapq.heappush
    while heap and unfrozen:
        share, slot = pop(heap)
        count = counts[slot]
        if count <= 0:
            continue  # all traversals frozen since this entry was pushed
        room = residual[slot]
        current = room / count if room > 0.0 else 0.0
        if current != share:
            push(heap, (current, slot))
            floor[slot] = current
            continue  # stale entry; revalidated share goes back in
        touched = {}
        for flow in members[slot]:
            if flow in rates:
                continue
            rates[flow] = share
            unfrozen -= 1
            for hop in flow.links:
                hop = slots[hop]
                residual[hop] -= share
                counts[hop] -= 1
                touched[hop] = None
        for hop in touched:
            count = counts[hop]
            if count > 0:
                room = residual[hop]
                current = room / count if room > 0.0 else 0.0
                if current < floor[hop]:
                    push(heap, (current, hop))
                    floor[hop] = current


def _progressive_fill_weighted(
    rates: Dict[Flow, float],
    unfrozen: set,
    residual: Dict[Link, float],
    members: Dict[Link, List[Flow]],
    wsums: Dict[Link, float],
    counts: Dict[Link, int],
    order: Dict[Link, int],
    weights: Dict[Flow, float],
) -> None:
    """Weighted variant of :func:`_progressive_fill`.

    A link's fair share is ``residual / sum-of-unfrozen-weights`` and
    a flow freezes at ``share * weight`` — classic weighted max-min.
    Same heap hygiene as the unweighted fill (decrease-only pushes,
    lazy revalidation, first-touch tie-breaks).  ``counts`` guards
    the termination test: weight sums are floats and could carry a
    last-ulp residue after all traversals froze, integers cannot.
    The reference oracle mirrors every division and subtraction in
    this exact order, so QoS-on parity is bitwise.
    """
    heap: List[Tuple[float, int, Link]] = [
        (residual[link] / wsums[link]
         if residual[link] > 0.0 and wsums[link] > 0.0 else 0.0,
         seq, link)
        for link, seq in order.items()
    ]
    heapq.heapify(heap)
    floor: Dict[Link, float] = {entry[2]: entry[0] for entry in heap}
    pop = heapq.heappop
    push = heapq.heappush
    while heap and unfrozen:
        share, seq, link = pop(heap)
        if counts[link] <= 0:
            continue  # all traversals frozen since this entry was pushed
        room = residual[link]
        wsum = wsums[link]
        current = room / wsum if room > 0.0 and wsum > 0.0 else 0.0
        if current != share:
            push(heap, (current, seq, link))
            floor[link] = current
            continue  # stale entry; revalidated share goes back in
        touched = {}
        for flow in members[link]:
            if flow not in unfrozen:
                continue
            weight = weights[flow]
            rate = share * weight
            rates[flow] = rate
            unfrozen.discard(flow)
            for hop in flow.links:
                residual[hop] -= rate
                wsums[hop] -= weight
                counts[hop] -= 1
                touched[hop] = None
        for hop in touched:
            if counts[hop] > 0:
                room = residual[hop]
                wsum = wsums[hop]
                current = room / wsum if room > 0.0 and wsum > 0.0 else 0.0
                if current < floor[hop]:
                    push(heap, (current, order[hop], hop))
                    floor[hop] = current


def _split_by_priority(active: List[Flow], policy) -> Tuple[List[Flow],
                                                            List[Flow]]:
    """Partition flows into (strict-priority control, the rest),
    preserving order.  With strict priority disabled everything lands
    in the second bucket and one weighted fill covers all classes."""
    if not policy.strict_priority_control:
        return [], list(active)
    control: List[Flow] = []
    others: List[Flow] = []
    for flow in active:
        if policy.class_of(flow) == CONTROL:
            control.append(flow)
        else:
            others.append(flow)
    return control, others


def _apply_class_caps(rates: Dict[Flow, float], active: List[Flow],
                      policy, class_caps: Dict[str, float]) -> None:
    """Scale each capped class down to its rate cap, proportionally.

    Pacing deliberately strands the freed capacity instead of handing
    it to other classes — the point of the autorate loop is headroom
    (lower queueing delay), not reshuffled max-min shares.  Mirrored
    verbatim in the reference oracle.
    """
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


def qos_max_min_rates(
    flows: List[Flow],
    policy,
    class_caps: Optional[Dict[str, float]] = None,
) -> Dict[Flow, float]:
    """Class-aware allocation: strict-priority control, weighted
    max-min for the rest, then per-class rate caps.

    The standalone QoS counterpart of :func:`max_min_rates` (and the
    arithmetic the engine's component-scoped fast path reproduces):

    1. control flows fill alone over the full link capacities;
    2. the other classes run a *weighted* fill over the residual,
       each flow frozen at ``share * class_weight``;
    3. any capped class is scaled down to its cap proportionally.
    """
    rates: Dict[Flow, float] = {}
    active = [flow for flow in flows if flow.links]
    for flow in flows:
        if not flow.links:
            rates[flow] = math.inf  # local copies are disk-bound, not ours
    if not active:
        return rates
    weights = {flow: policy.class_weight(policy.class_of(flow))
               for flow in active}
    control, others = _split_by_priority(active, policy)

    def fill(group: List[Flow], consumed: List[Flow]) -> None:
        residual: Dict[Link, float] = {}
        members: Dict[Link, List[Flow]] = {}
        wsums: Dict[Link, float] = {}
        counts: Dict[Link, int] = {}
        order: Dict[Link, int] = {}
        for flow in group:
            for link in flow.links:
                if link not in residual:
                    residual[link] = link.capacity
                    members[link] = []
                    wsums[link] = 0.0
                    counts[link] = 0
                    order[link] = len(order)
                members[link].append(flow)
                wsums[link] += weights[flow]
                counts[link] += 1
        # Capacity the higher-priority pass already consumed, charged
        # in flow order so both engines subtract identically.
        for flow in consumed:
            rate = rates[flow]
            for link in flow.links:
                if link in residual:
                    residual[link] -= rate
        _progressive_fill_weighted(rates, set(group), residual, members,
                                   wsums, counts, order, weights)

    if control:
        fill(control, [])
    if others:
        fill(others, control)
    if class_caps:
        _apply_class_caps(rates, active, policy, class_caps)
    return rates


class FlowNetwork:
    """Event-driven transfer engine over a :class:`CampusLAN`.

    Usage::

        net = FlowNetwork(env, lan)
        done = net.transfer("ws1", "nas", size=4 * GIB)
        result = yield done   # fires when the transfer completes
    """

    def __init__(self, env: Environment, lan: CampusLAN,
                 qos: Optional[QoSPolicy] = None):
        self.env = env
        self.lan = lan
        #: Optional traffic-class policy.  ``None`` (the default) is
        #: the classless engine — bit-identical to every pre-QoS trace.
        self.qos = qos
        #: Per-class aggregate rate caps (bytes/s), the pacing knob
        #: :class:`~repro.network.qos.BulkAutorate` drives.
        self._class_caps: Dict[str, float] = {}
        #: Active flows, keyed by flow id.  Insertion order is id
        #: order, which every deterministic iteration below relies on.
        self._flows: Dict[int, Flow] = {}
        #: Link → {flow_id: flow} over active flows: the adjacency the
        #: connected-component walk runs on (O(1) insert/remove).
        self._link_index: Dict[Link, Dict[int, Flow]] = {}
        self._flow_seq = itertools.count(1)
        self._last_update = env.now  # synchronous-settle clock
        self._observers: List[Callable[[Flow, float], None]] = []
        #: Lazy-mode completion heap of (eta, flow_id, flow); entries
        #: are stale once the flow departed or changed rate.
        self._eta_heap: List[Tuple[float, int, Flow]] = []
        self._wake = env.timer(self._on_wake)
        #: Perf counters surfaced by the benchmark harness.
        self.reallocations = 0
        self.flows_started = 0
        self.flows_completed = 0
        #: Flows re-pinned onto a recomputed route by migration.
        self.flows_migrated = 0
        #: Per-class delivered bytes / issued transfers (QoS engines
        #: only — kept by the internal accounting observer below).
        self.class_bytes: Dict[str, float] = {}
        self.class_flows_started: Dict[str, int] = {}
        if qos is not None:
            for cls in TRAFFIC_CLASSES:
                self.class_bytes[cls] = 0.0
                self.class_flows_started[cls] = 0
            # Class byte accounting rides the observer channel, which
            # also pins the engine to synchronous settling: QoS engines
            # trade the lazy fast path for deterministic class meters.
            self.add_observer(self._account)

    @property
    def active_flows(self) -> List[Flow]:
        """Snapshot of in-flight flows."""
        return list(self._flows.values())

    def add_observer(self, callback: Callable[[Flow, float], None]) -> None:
        """Register ``callback(flow, bytes_delta)`` for progress events.

        Observers see every byte exactly once (traffic metering hooks
        in here).  Registering the first observer switches the engine
        to synchronous settling: all flows are brought current now
        (silently — bytes delivered before registration are not
        replayed), and from here on every engine event credits every
        flow, so observation times are deterministic.
        """
        if not self._observers:
            now = self.env.now
            for flow in self._flows.values():
                self._settle_flow(flow, now)
            self._last_update = now
            self._eta_heap.clear()
            self._wake.cancel()
            if self._flows:
                self._arm_sync_wake(self._flows.values())
        self._observers.append(callback)

    # -- public API --------------------------------------------------------

    def transfer(
        self,
        src: str,
        dst: str,
        size: float,
        category: str = "data",
    ) -> Event:
        """Start a transfer; returns its completion event.

        Zero-byte transfers complete after one propagation latency —
        they still model an RPC round.
        """
        if size < 0:
            raise ValueError(f"negative transfer size: {size}")
        links = self.lan.path(src, dst)  # raises NetworkError if unreachable
        flow = Flow(self.env, src, dst, size, links, category,
                    flow_id=next(self._flow_seq))
        if self.qos is not None:
            flow.traffic_class = self.qos.classify(category)
            self.class_flows_started[flow.traffic_class] = (
                self.class_flows_started.get(flow.traffic_class, 0) + 1)
        # Every issued transfer counts — including the instant paths
        # below — so engine counters agree with the number of
        # transfers callers started (and with the reference oracle).
        self.flows_started += 1
        if not links:
            # Same-host: completes immediately (disk copy is modelled
            # by the storage layer, not the network).
            flow.transferred = flow.size
            self._notify(flow, flow.size)
            self.flows_completed += 1
            flow.done.succeed(flow)
            return flow.done
        if size == 0:
            self.flows_completed += 1
            flow.done.succeed(flow, delay=self.lan.latency(src, dst))
            return flow.done
        if self._observers:
            if not self._flows and self.qos is None:
                self._start_solo(flow)
                return flow.done
            self._settle_all()
        self._flows[flow.flow_id] = flow
        for link in flow.links:
            self._link_index.setdefault(link, {})[flow.flow_id] = flow
        # Engine-routed paths are always simple (no repeated links), so
        # bucket sizes equal traversal counts in the fill below.
        component, buckets = self._component_of([flow])
        self._reallocate(component, buckets)
        return flow.done

    def kill_host_flows(self, hostname: str, reason: str = "host departed") -> int:
        """Fail every flow with ``hostname`` as an endpoint.

        Called when a provider hits the kill-switch or drops off the
        LAN.  Returns the number of flows killed.
        """
        return self._kill(
            [f for f in self._flows.values() if hostname in (f.src, f.dst)],
            lambda flow: NetworkError(f"flow {flow.flow_id} killed: {reason}"),
        )

    def kill_flows_on(
        self,
        links,
        reason: str = "link severed",
        error_factory: Optional[Callable[[Flow], NetworkError]] = None,
    ) -> int:
        """Fail every flow whose route crosses any of ``links``.

        Called when a link fails mid-transfer (WAN partition).  Each
        doomed flow's ``done`` event fails with ``error_factory(flow)``
        — default :class:`NetworkError` — so waiters can distinguish
        partition kills from other failures.  Returns the kill count.
        """
        links = set(links)
        if error_factory is None:
            error_factory = lambda flow: NetworkError(
                f"flow {flow.flow_id} killed: {reason}")
        return self._kill(
            [f for f in self._flows.values() if links.intersection(f.links)],
            error_factory,
        )

    def _kill(self, doomed: List[Flow],
              error_factory: Callable[[Flow], NetworkError]) -> int:
        if self._observers:
            self._settle_all()
        if not doomed:
            return 0
        component, buckets = self._component_of(doomed)
        now = self.env.now
        for flow in doomed:
            if not self._observers:
                self._settle_flow(flow, now)  # final byte accounting
            del component[flow.flow_id]
            self._unregister(flow)
            flow.done.fail(error_factory(flow))
        self._reallocate(component, buckets)
        return len(doomed)

    def migrate_flows(
        self,
        flows: List[Flow],
        route_of: Callable[[Flow], List[Link]],
        error_factory: Optional[Callable[[Flow], NetworkError]] = None,
    ) -> Tuple[int, int]:
        """Re-pin in-flight flows onto freshly computed routes.

        For each flow, ``route_of(flow)`` returns the new link list —
        or raises a :class:`NetworkError` (subclass), dooming the flow.
        Progress is settled at the switch point, so ``transferred``
        bytes survive the move: a checkpoint replication that loses
        its route resumes on the new one instead of restarting from
        zero.  Doomed flows fail with ``error_factory(flow)`` when
        given, else with whatever ``route_of`` raised.

        Returns ``(migrated, killed)``.
        """
        if self._observers:
            self._settle_all()
        candidates = [f for f in flows if f.flow_id in self._flows]
        if not candidates:
            return (0, 0)
        component, buckets = self._component_of(candidates)
        now = self.env.now
        moved: List[Flow] = []
        killed = 0
        for flow in candidates:
            if not self._observers:
                self._settle_flow(flow, now)  # bytes-so-far accounting
            try:
                new_links = route_of(flow)
            except NetworkError as exc:
                del component[flow.flow_id]
                self._unregister(flow)
                flow.done.fail(error_factory(flow)
                               if error_factory is not None else exc)
                killed += 1
                continue
            # Re-pin: move the flow between link buckets, stamp the
            # dwell clock route steering consults before moving it
            # again.
            for link in flow.links:
                bucket = self._link_index.get(link)
                if bucket is not None:
                    bucket.pop(flow.flow_id, None)
                    if not bucket:
                        del self._link_index[link]
            flow.links = new_links
            for link in new_links:
                self._link_index.setdefault(link, {})[flow.flow_id] = flow
            flow.routed_at = now
            flow.migrations += 1
            moved.append(flow)
        self.flows_migrated += len(moved)
        if moved:
            # The reallocation scope spans the abandoned routes *and*
            # the freshly pinned ones (whose incumbents now share).
            extra_component, extra_buckets = self._component_of(moved)
            component.update(extra_component)
            buckets.update(extra_buckets)
        self._reallocate(component, buckets)
        return (len(moved), killed)

    def migrate_flows_on(
        self,
        links,
        route_of: Callable[[Flow], List[Link]],
        error_factory: Optional[Callable[[Flow], NetworkError]] = None,
    ) -> Tuple[int, int]:
        """Migrate every flow whose route crosses any of ``links``.

        The sever-time counterpart of :meth:`kill_flows_on`: flows
        with a surviving alternate route move onto it, only genuinely
        partitioned flows die.  Returns ``(migrated, killed)``.
        """
        links = set(links)
        return self.migrate_flows(
            [f for f in self._flows.values() if links.intersection(f.links)],
            route_of,
            error_factory,
        )

    def set_class_cap(self, traffic_class: str,
                      cap: Optional[float]) -> None:
        """Cap (or with ``None`` uncap) a class's aggregate rate.

        The pacing knob :class:`~repro.network.qos.BulkAutorate`
        drives: while capped, the class's flows are scaled down
        proportionally after the fill and the freed capacity is
        deliberately left idle (headroom, not reshuffled shares).
        """
        if self.qos is None:
            raise ValueError("class caps need a QoS-enabled engine")
        if traffic_class not in TRAFFIC_CLASSES:
            raise ValueError(f"unknown traffic class {traffic_class!r}")
        if cap is not None and cap <= 0:
            raise ValueError("cap must be positive (None to uncap)")
        if cap == self._class_caps.get(traffic_class):
            return
        if self._observers:
            self._settle_all()
        if cap is None:
            del self._class_caps[traffic_class]
        else:
            self._class_caps[traffic_class] = cap
        if self._flows:
            # Cap changes rescale the whole class, so the realloc is
            # global regardless of the cap-active component shortcut.
            self._reallocate(dict(self._flows), dict(self._link_index))

    def link_rate(self, link: Link) -> float:
        """Aggregate allocated rate over ``link`` (bytes/s)."""
        bucket = self._link_index.get(link)
        if not bucket:
            return 0.0
        return sum(flow.rate for flow in bucket.values())

    def class_rate(self, traffic_class: str) -> float:
        """Aggregate allocated rate of a class's in-flight flows."""
        if self.qos is None:
            return 0.0
        return sum(flow.rate for flow in self._flows.values()
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

    def _settle_all(self) -> None:
        """Credit every flow with progress since the last engine event.

        Synchronous mode only: one shared clock, every flow chopped at
        every event — the settle discipline observers rely on for
        deterministic delta timing.
        """
        now = self.env.now
        elapsed = now - self._last_update
        if elapsed > 0:
            for flow in self._flows.values():
                delta = min(flow.rate * elapsed, flow.remaining)
                flow.transferred += delta
                flow.settled_at = now
                self._notify(flow, delta)
        self._last_update = now

    def _settle_flow(self, flow: Flow, now: float) -> None:
        """Credit one flow with progress since *its* last settle."""
        elapsed = now - flow.settled_at
        if elapsed > 0:
            if flow.rate > 0:
                delta = min(flow.rate * elapsed, flow.remaining)
                flow.transferred += delta
                self._notify(flow, delta)
            flow.settled_at = now

    def _component_of(
        self, seeds: List[Flow],
    ) -> Tuple[Dict[int, Flow], Dict[Link, Dict[int, Flow]]]:
        """Active flows link-connected to any of ``seeds``, plus the
        per-link membership buckets of the component.

        The reallocation scope: rates outside this component are
        unaffected by a perturbation inside it.  The buckets are
        *live* views into the link index — flows unregistered after
        this walk disappear from them, which is exactly what the
        subsequent reallocation wants.
        """
        index = self._link_index
        everyone = len(self._flows)
        # A class cap is global state: the proportional rescale must
        # see the class's *whole* aggregate rate, so while a cap is
        # active every perturbation reallocates the full fabric
        # (identically in the reference oracle, which is always
        # global).  And when one link a seed crosses carries every
        # active flow — a shared campus backbone — the walk would
        # reach every flow and every indexed link anyway, so skip it.
        # Either way the values stay the live index buckets.
        if self._class_caps or any(
                len(index.get(link, ())) == everyone
                for seed in seeds for link in seed.links):
            return dict(self._flows), dict(index)
        return self._walk(seeds)

    def _walk(
        self, seeds: List[Flow],
    ) -> Tuple[Dict[int, Flow], Dict[Link, Dict[int, Flow]]]:
        """:meth:`_component_of` by walking the link index outward
        from ``seeds`` — the general path, for sparse fabrics."""
        index = self._link_index
        component: Dict[int, Flow] = {}
        buckets: Dict[Link, Dict[int, Flow]] = {}
        pending = list(seeds)
        while pending:
            flow = pending.pop()
            for link in flow.links:
                if link in buckets:
                    continue
                bucket = index.get(link)
                if bucket is None:
                    continue
                buckets[link] = bucket
                for other in bucket.values():
                    if other.flow_id not in component:
                        component[other.flow_id] = other
                        pending.append(other)
        return component, buckets

    def _unregister(self, flow: Flow) -> None:
        del self._flows[flow.flow_id]
        for link in flow.links:
            bucket = self._link_index.get(link)
            if bucket is not None:
                bucket.pop(flow.flow_id, None)
                if not bucket:
                    del self._link_index[link]

    def _reallocate(self, component: Dict[int, Flow],
                    buckets: Dict[Link, Dict[int, Flow]]) -> None:
        """Recompute fair rates inside ``component``; re-arm the wake.

        Flows outside the component keep their rates untouched —
        recomputing them would reproduce the same values at the same
        cost the old full restart paid on every event.  The fill
        iterates the live link-index buckets (``buckets``) uncopied;
        their member order does not affect the allocation.
        """
        self.reallocations += 1
        # Kernel hooks (repro.observability): time the recomputation
        # only when someone is listening — the disabled path is one
        # attribute read and an `is None` test.
        hooks = self.env.hooks
        started = perf_counter() if hooks is not None else 0.0
        # Iterate in flow-id order so member lists, tie-breaks, and
        # residual subtractions are performed deterministically (and
        # identically to a full-network recomputation).  Ids are
        # assigned monotonically, so sorting the component reproduces
        # the flow table's insertion order without scanning flows in
        # other components.
        flows = [component[fid] for fid in sorted(component)]
        rates: Dict[Flow, float] = {}
        if flows:
            if self.qos is not None:
                # Class-aware allocation over the component, in id
                # order — exactly the arithmetic of the standalone
                # allocator (and the reference oracle's global fill;
                # weighted max-min on disjoint components is
                # independent, so scoping preserves bitwise parity).
                rates = qos_max_min_rates(
                    flows, self.qos,
                    self._class_caps if self._class_caps else None)
            elif len(flows) == 1:
                rates[flows[0]] = _solo_rate(flows[0].links)
            else:
                # Link tie-break order is first touch by a flow in id
                # order, exactly as max_min_rates derives it.
                slots = dict(zip(
                    dict.fromkeys(itertools.chain.from_iterable(
                        [flow.links for flow in flows])),
                    itertools.count()))
                _progressive_fill(
                    rates,
                    len(flows),
                    slots,
                    [buckets[link].values() for link in slots],
                    [len(buckets[link]) for link in slots],
                )
        if self._observers:
            for flow in flows:
                flow.rate = rates.get(flow, 0.0)
            self._arm_sync_wake(self._flows.values())
            if hooks is not None:
                hooks.on_reallocate(len(flows), len(buckets),
                                    perf_counter() - started)
            return
        # Lazy mode has no observers, so settling is bare arithmetic:
        # the operations of _settle_flow and Flow.remaining, inlined.
        now = self.env.now
        heap = self._eta_heap
        push = heapq.heappush
        for flow in flows:
            rate = rates.get(flow, 0.0)
            if rate != flow.rate:
                old_rate = flow.rate
                elapsed = now - flow.settled_at
                if elapsed > 0:
                    if old_rate > 0:
                        flow.transferred += min(
                            old_rate * elapsed,
                            max(0.0, flow.size - flow.transferred))
                    flow.settled_at = now
                flow.rate = rate
                if rate > 0:
                    eta = flow.eta = (
                        now + max(0.0, flow.size - flow.transferred) / rate)
                    push(heap, (eta, flow.flow_id, flow))
                else:
                    flow.eta = math.inf
        self._bound_eta_heap()
        self._arm_lazy_wake()
        if hooks is not None:
            hooks.on_reallocate(len(flows), len(buckets),
                                perf_counter() - started)

    # -- wake scheduling ---------------------------------------------------

    def _bound_eta_heap(self) -> None:
        """Drop stale ETA entries in bulk once the heap outgrows
        ``2 * live flows + 64``.

        Every rate change pushes an entry and stale ones are otherwise
        only dropped on reaching the top, so under churn the heap would
        grow with the number of rate changes, not the population.  The
        rebuild keeps exactly the entries :meth:`_arm_lazy_wake` would
        accept, so wakes and completions are unchanged.
        """
        heap = self._eta_heap
        live = self._flows
        if len(heap) > 2 * len(live) + 64:
            heap[:] = [entry for entry in heap
                       if entry[1] in live and entry[2].eta == entry[0]]
            heapq.heapify(heap)

    def _arm_sync_wake(self, flows: Iterable[Flow]) -> None:
        """Schedule the next completion check from a horizon scan over
        ``flows`` (every active flow).

        Synchronous mode recomputes every flow's remaining/rate at the
        current settle point, so the wake time is derived from exactly
        the same floats the settle chopping produced.
        """
        horizon = math.inf
        for flow in flows:
            if flow.rate > 0:
                candidate = flow.remaining / flow.rate
                if candidate < horizon:
                    horizon = candidate
        if math.isinf(horizon):
            self._wake.cancel()
        else:
            self._wake.arm(self.env.now + max(horizon, 0.0))

    def _arm_lazy_wake(self) -> None:
        """Arm the wake at the earliest valid ETA (reusing a pending
        wake already armed for that exact time)."""
        heap = self._eta_heap
        while heap:
            eta, flow_id, flow = heap[0]
            if flow_id in self._flows and flow.eta == eta:
                break
            heapq.heappop(heap)
        if not heap:
            self._wake.cancel()
            return
        eta = heap[0][0]
        if eta != self._wake.when:  # else a live wake is due then already
            self._wake.arm(eta)

    def _on_wake(self) -> None:
        if self._observers:
            self._settle_all()
            if len(self._flows) == 1 and self.qos is None:
                solo = next(iter(self._flows.values()))
                if solo.remaining < 1.0:
                    self._finish_solo(solo)
                    return
            finished = [f for f in self._flows.values() if f.remaining < 1.0]
            if not finished:
                self._reallocate({}, {})
                return
            survivors, buckets = self._component_of(finished)
        else:
            now = self.env.now
            heap = self._eta_heap
            due: List[Flow] = []
            while heap and heap[0][0] <= now:
                eta, flow_id, flow = heapq.heappop(heap)
                if flow_id in self._flows and flow.eta == eta:
                    due.append(flow)
            if not due:
                self._arm_lazy_wake()
                return
            survivors, buckets = self._component_of(due)
            # _settle_flow inlined (no observers to notify).  Bytes are
            # discrete: a sub-byte float residue means done.
            finished = []
            for flow in survivors.values():
                elapsed = now - flow.settled_at
                if elapsed > 0:
                    rate = flow.rate
                    if rate > 0:
                        flow.transferred += min(
                            rate * elapsed,
                            max(0.0, flow.size - flow.transferred))
                    flow.settled_at = now
                if flow.size - flow.transferred < 1.0:
                    finished.append(flow)
            # Id order = flow-table insertion order, as above.
            finished.sort(key=lambda flow: flow.flow_id)
        for flow in finished:
            survivors.pop(flow.flow_id, None)
            self._unregister(flow)
            self._complete(flow)
        self._reallocate(survivors, buckets)

    # -- solo flows (synchronous, classless) -------------------------------

    def _start_solo(self, flow: Flow) -> None:
        """Start ``flow`` on an engine that holds no other flow.

        The general path's settle, component copy, sort, fill and wake
        scan would all see this one flow; this is their result, with
        the same ``reallocations`` count and ``on_reallocate`` call.
        """
        self._last_update = self.env.now  # _settle_all of no flows
        self._flows[flow.flow_id] = flow
        for link in flow.links:
            self._link_index[link] = {flow.flow_id: flow}
        self.reallocations += 1
        hooks = self.env.hooks
        started = perf_counter() if hooks is not None else 0.0
        flow.rate = _solo_rate(flow.links)
        self._arm_sync_wake((flow,))
        if hooks is not None:
            hooks.on_reallocate(1, len(self._link_index),
                                perf_counter() - started)

    def _finish_solo(self, flow: Flow) -> None:
        """Complete the engine's only flow, settled and finished at its
        wake: the general completion's unregister, completion and empty
        reallocation, without building its one-flow component."""
        links = len(self._link_index)
        self._unregister(flow)
        self._complete(flow)
        self.reallocations += 1
        hooks = self.env.hooks
        started = perf_counter() if hooks is not None else 0.0
        self._wake.cancel()
        if hooks is not None:
            hooks.on_reallocate(0, links, perf_counter() - started)

    def _complete(self, flow: Flow) -> None:
        """Deliver the final sub-byte residue and fire ``done``.

        The residue credit keeps byte conservation exact: a flow that
        finishes piggybacked on another flow's completion wake may be
        up to one byte short of ``size`` at settle time, and observers
        are owed that delta.
        """
        self.flows_completed += 1
        residue = flow.remaining
        if residue > 0:
            flow.transferred = flow.size
            self._notify(flow, residue)
        flow.done.succeed(flow, delay=self.lan.latency(flow.src, flow.dst))
