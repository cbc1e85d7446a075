"""Per-layer wall-clock attribution for the traced benchmark run.

The benchmark times calls into each layer's public functions from its
own files: :func:`instrument` swaps a timing wrapper onto a fixed table
of class attributes (restored on exit) and leaves ``src/`` untouched.
Every wrapped call is a span on a per-thread stack; a layer's *self*
time is its spans' wall-clock minus the part their child spans cover,
so self times never overlap and their sum is bounded by the traced
wall-clock.  Generator-returning calls (RPC handlers that take
simulated time) are timed on every resume, not just at creation.

Untraced runs never call :func:`instrument`: their numbers are the
end-to-end metrics.
"""

from __future__ import annotations

import collections.abc
import threading
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from common import percentile

#: Layer names, as module paths under ``src/repro``.
LAYERS = (
    "sim", "network.flows", "network.rpc", "core.coordinator",
    "core.scheduler", "federation.gateway", "federation.sharechain",
    "storage.checkpoint_store", "observability", "server",
)


class SpanClock:
    """Nested wall-clock spans, aggregated per operation and per layer.

    ``op`` names an operation (``flows.transfer``); ``layer`` is the
    module that owns it.  Per operation it keeps a call count and the
    inclusive time of its outermost occurrences; per layer, the self
    time.  Thread-safe: each thread has its own span stack, and the
    aggregates are folded under a lock.
    """

    def __init__(self, clock: Callable[[], float] = perf_counter):
        self.clock = clock
        self.calls: Dict[str, int] = {}
        self.inclusive: Dict[str, float] = {}
        self.self_time: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, op: str) -> None:
        """Count one call of ``op`` (resumed generators are not recounted)."""
        with self._lock:
            self.calls[op] = self.calls.get(op, 0) + 1

    def enter(self, op: str, layer: str) -> None:
        """Open a span of ``op``, owned by ``layer``."""
        self._stack().append([op, layer, self.clock(), 0.0])

    def exit(self) -> None:
        """Close the innermost span."""
        stack = self._stack()
        op, layer, started, children = stack.pop()
        duration = self.clock() - started
        outermost = not any(frame[0] == op for frame in stack)
        if stack:
            stack[-1][3] += duration
        with self._lock:
            self.self_time[layer] += duration - children
            if outermost:
                self.inclusive[op] = self.inclusive.get(op, 0.0) + duration

    @contextmanager
    def span(self, op: str, layer: str) -> Iterator[None]:
        """Count ``op`` and time the ``with`` body as one span."""
        self.count(op)
        self.enter(op, layer)
        try:
            yield
        finally:
            self.exit()


class TimedGenerator(collections.abc.Generator):
    """Wraps a generator so each resume is a span of ``op``.

    The kernel drives processes with ``send``/``throw`` and the RPC
    layer tests ``isinstance(response, Generator)``; both see this
    wrapper exactly as they would the wrapped generator.
    ``on_return`` receives the generator's return value.
    """

    def __init__(self, generator, clock: SpanClock, op: str, layer: str,
                 on_return: Optional[Callable[[Any], None]] = None):
        self._generator = generator
        self._clock = clock
        self._op = op
        self._layer = layer
        self._on_return = on_return
        self.__name__ = getattr(generator, "__name__", "process")

    def _resume(self, method, *args):
        self._clock.enter(self._op, self._layer)
        try:
            return method(*args)
        except StopIteration as stop:
            if self._on_return is not None:
                self._on_return(stop.value)
            raise
        finally:
            self._clock.exit()

    def send(self, value):
        return self._resume(self._generator.send, value)

    def throw(self, *args):
        return self._resume(self._generator.throw, *args)

    def close(self):
        self._generator.close()


def timed(clock: SpanClock, op: str, layer: str, function: Callable,
          on_result: Optional[Callable[[Any], None]] = None) -> Callable:
    """``function`` wrapped as a counted span (generators per resume)."""

    def wrapper(*args, **kwargs):
        clock.count(op)
        clock.enter(op, layer)
        try:
            result = function(*args, **kwargs)
        finally:
            clock.exit()
        if isinstance(result, collections.abc.Generator):
            return TimedGenerator(result, clock, op, layer, on_result)
        if on_result is not None:
            on_result(result)
        return result

    wrapper.__wrapped__ = function
    return wrapper


class LayerProbe:
    """The traced run's state: span clock plus outcome tallies.

    Outcome tallies (RPC failures, forward commits, unplaced selects,
    rejected ingests, restored bytes) are read off the values the
    wrapped public functions return.
    """

    def __init__(self):
        self.clock = SpanClock()
        self.rpc_by_method: Dict[str, int] = {}
        self.rpc_failed = 0
        self.forward_offers = 0
        self.forward_commits = 0
        self.unplaced = 0
        self.ingest_rejected = 0
        self.restore_bytes = 0.0
        self._lock = threading.Lock()

    def _tally(self, field: str, amount=1) -> None:
        with self._lock:
            setattr(self, field, getattr(self, field) + amount)

    # -- per-class patch builders -------------------------------------

    def _patches(self) -> List[Tuple[type, str, Callable]]:
        from repro.core.coordinator import Coordinator
        from repro.core.scheduler import Scheduler
        from repro.federation.deployment import FederatedDeployment
        from repro.federation.gateway import FederationGateway
        from repro.federation.sharechain import ShareChain, SiteKeyring
        from repro.network.flows import FlowNetwork
        from repro.network.rpc import RpcEndpoint, RpcLayer
        from repro.observability.collector import FleetCollector
        from repro.observability.trace import Tracer
        from repro.server.server import SimulationServer
        from repro.storage.checkpoint_store import CheckpointStore

        clock = self.clock
        patches: List[Tuple[type, str, Callable]] = []

        def wrap(cls, name, op, layer, on_result=None):
            patches.append((cls, name, timed(clock, op, layer,
                                             getattr(cls, name), on_result)))

        wrap(FederatedDeployment, "run", "sim.run", "sim")
        wrap(FlowNetwork, "transfer", "flows.transfer", "network.flows")

        original_call = RpcLayer.call
        probe = self

        def rpc_call(layer_self, src, dst, method, *args, **kwargs):
            with probe._lock:
                probe.rpc_by_method[method] = (
                    probe.rpc_by_method.get(method, 0) + 1)
            with clock.span("rpc.call", "network.rpc"):
                result = original_call(layer_self, src, dst, method,
                                       *args, **kwargs)
            result.callbacks.append(probe._on_rpc_settled)
            return result

        patches.append((RpcLayer, "call", rpc_call))

        original_register = RpcEndpoint.register

        def register(endpoint_self, method, handler):
            on_result = None
            if method == "forward-offer":
                on_result = probe._on_offer
            elif method == "forward-commit":
                on_result = probe._on_commit
            original_register(endpoint_self, method, timed(
                clock, "rpc.handler", "network.rpc", handler, on_result))

        patches.append((RpcEndpoint, "register", register))

        for name in ("submit_job", "submit_session", "submit_remote"):
            wrap(Coordinator, name, "coordinator.submit", "core.coordinator")
        wrap(Scheduler, "select", "scheduler.select", "core.scheduler",
             self._on_select)
        wrap(FederationGateway, "local_digest", "gateway.digest",
             "federation.gateway")
        wrap(ShareChain, "ingest", "sharechain.ingest",
             "federation.sharechain", self._on_ingest)
        wrap(ShareChain, "entries_after", "sharechain.entries_after",
             "federation.sharechain")
        wrap(SiteKeyring, "sign", "sharechain.crypto",
             "federation.sharechain")
        wrap(SiteKeyring, "verify", "sharechain.crypto",
             "federation.sharechain")
        wrap(CheckpointStore, "add", "checkpoint.add",
             "storage.checkpoint_store")
        wrap(CheckpointStore, "restore_chain", "checkpoint.restore",
             "storage.checkpoint_store", self._on_restore)
        wrap(Tracer, "start", "trace.start", "observability")
        wrap(Tracer, "finish", "trace.finish", "observability")
        wrap(FleetCollector, "collect", "collector.collect", "observability")
        wrap(SimulationServer, "route_jobs", "server.route", "server")
        return patches

    # -- outcome callbacks --------------------------------------------

    def _on_rpc_settled(self, event) -> None:
        if not event.ok:
            self._tally("rpc_failed")

    def _on_offer(self, reply) -> None:
        self._tally("forward_offers")

    def _on_commit(self, reply) -> None:
        if isinstance(reply, dict) and reply.get("committed"):
            self._tally("forward_commits")

    def _on_select(self, node) -> None:
        if node is None:
            self._tally("unplaced")

    def _on_ingest(self, reason) -> None:
        if reason is not None:
            self._tally("ingest_rejected")

    def _on_restore(self, chain) -> None:
        self._tally("restore_bytes", sum(rec.nbytes for rec in chain))

    # -- read-out -----------------------------------------------------

    def calls(self, op: str) -> int:
        return self.clock.calls.get(op, 0)

    def seconds(self, op: str) -> float:
        return self.clock.inclusive.get(op, 0.0)


@contextmanager
def instrument(probe: LayerProbe) -> Iterator[LayerProbe]:
    """Install ``probe``'s wrappers for the ``with`` body, then restore.

    Install before the deployment is built: RPC handlers are wrapped as
    they are registered.
    """
    patches = probe._patches()
    saved = [(cls, name, vars(cls)[name]) for cls, name, _ in patches]
    try:
        for cls, name, wrapper in patches:
            setattr(cls, name, wrapper)
        yield probe
    finally:
        for cls, name, original in reversed(saved):
            setattr(cls, name, original)


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, 0 when there is nothing to divide."""
    return numerator / denominator if denominator else 0.0


#: Every RPC method the coordinator, agents and gateways register.
RPC_METHODS = (
    "register-node", "heartbeat", "node-status", "departing", "departed",
    "job-update", "session-update", "dispatch-training", "dispatch-session",
    "migrate-away", "terminate", "status", "digest", "forward-offer",
    "forward-commit", "forward-release", "forward-status", "cancel-job",
    "job-complete", "chain-entries",
)

#: Metric-name prefix of each layer's self time.
SELF_PREFIX = {
    "sim": "sim", "network.flows": "flows", "network.rpc": "rpc",
    "core.coordinator": "coordinator", "core.scheduler": "scheduler",
    "federation.gateway": "gateway", "federation.sharechain": "sharechain",
    "storage.checkpoint_store": "checkpoint", "observability": "observability",
    "server": "server",
}

#: Per-layer metrics that are not seconds or counts, with their units.
_UNITS = {
    "sim.events_per_sim_hour": "1/sim-h",
    "coordinator.job_wait_sim_s_p50": "sim-s",
    "checkpoint.restore_bytes": "bytes",
    "server.backlog_max": "count",
}


def unit_of(name: str) -> str:
    """The unit a per-layer metric is reported in."""
    if name in _UNITS:
        return _UNITS[name]
    if name.endswith("_frac") or name.endswith("_per_transfer"):
        return "frac" if name.endswith("_frac") else "ratio"
    if name.endswith("_s"):
        return "s"
    return "count"


def layer_metrics(probe: LayerProbe, profile, deployments,
                  sim_seconds: float, wall: float) -> Dict[str, float]:
    """The per-layer table for one traced run.

    ``profile`` is the :class:`~repro.observability.KernelProfile`
    attached through ``Environment.hooks``; ``deployments`` are the
    federations the run built (none for the LAN storm); ``wall`` is
    the traced wall-clock the self times are checked against.
    """
    from repro.workloads.interactive import SessionOutcome

    clock = probe.clock
    out: Dict[str, float] = {}
    sim_hours = sim_seconds / 3600.0
    out["sim.events"] = profile.events_dispatched
    out["sim.events_per_sim_hour"] = ratio(profile.events_dispatched,
                                           sim_hours)
    out["sim.dispatch_s"] = profile.dispatch_wall_seconds
    out["sim.queue_depth_max"] = profile.max_queue_depth

    transfers = probe.calls("flows.transfer")
    out["flows.transfers"] = transfers
    out["flows.transfer_s"] = probe.seconds("flows.transfer")
    out["flows.reallocations"] = profile.reallocations
    out["flows.realloc_s"] = profile.reallocation_wall_seconds
    out["flows.realloc_per_transfer"] = ratio(profile.reallocations,
                                              transfers)
    out["flows.component_flows_mean"] = profile.mean_component_flows
    out["flows.component_flows_max"] = profile.max_component_flows

    calls = probe.calls("rpc.call")
    out["rpc.calls"] = calls
    out["rpc.failed"] = probe.rpc_failed
    out["rpc.fail_frac"] = ratio(probe.rpc_failed, calls)
    out["rpc.handler_s"] = probe.seconds("rpc.handler")
    for method in RPC_METHODS:
        out[f"rpc.calls.{method}"] = probe.rpc_by_method.get(method, 0)

    waits: List[float] = []
    sessions = denied = 0
    for deployment in deployments:
        for handle in deployment.sites.values():
            coordinator = handle.platform.coordinator
            waits.extend(state.started_at - state.submitted_at
                         for state in coordinator.jobs.values()
                         if state.started_at is not None)
            sessions += len(coordinator.sessions)
            denied += sum(1 for record in coordinator.sessions
                          if record.outcome in (
                              SessionOutcome.DENIED_NO_CAPACITY,
                              SessionOutcome.DENIED_NO_ACCESS))
    out["coordinator.submits"] = probe.calls("coordinator.submit")
    out["coordinator.submit_s"] = probe.seconds("coordinator.submit")
    out["coordinator.job_wait_sim_s_p50"] = (
        percentile(waits, 50) if waits else 0.0)
    out["coordinator.sessions_denied_frac"] = ratio(denied, sessions)

    selects = probe.calls("scheduler.select")
    out["scheduler.selects"] = selects
    out["scheduler.select_s"] = probe.seconds("scheduler.select")
    out["scheduler.unplaced_frac"] = ratio(probe.unplaced, selects)

    out["gateway.digests"] = probe.calls("gateway.digest")
    out["gateway.digest_s"] = probe.seconds("gateway.digest")
    out["gateway.forward_offers"] = probe.forward_offers
    out["gateway.forward_commits"] = probe.forward_commits
    out["gateway.forward_commit_frac"] = ratio(probe.forward_commits,
                                               probe.forward_offers)
    out["gateway.forwarded"] = sum(d.total_forwarded() for d in deployments)
    out["gateway.relayed"] = sum(d.total_relayed() for d in deployments)

    ingests = probe.calls("sharechain.ingest")
    out["sharechain.ingests"] = ingests
    out["sharechain.ingest_s"] = probe.seconds("sharechain.ingest")
    out["sharechain.rejected_frac"] = ratio(probe.ingest_rejected, ingests)
    out["sharechain.entries_after_s"] = probe.seconds(
        "sharechain.entries_after")
    out["sharechain.crypto_s"] = probe.seconds("sharechain.crypto")
    out["sharechain.height_max"] = max(
        [h for d in deployments for h in d.chain_heights().values()],
        default=0)

    out["checkpoint.adds"] = probe.calls("checkpoint.add")
    out["checkpoint.restores"] = probe.calls("checkpoint.restore")
    out["checkpoint.restore_bytes"] = probe.restore_bytes

    out["trace.spans"] = probe.calls("trace.start")
    out["trace.span_s"] = (probe.seconds("trace.start")
                           + probe.seconds("trace.finish"))
    out["collector.collect_s"] = probe.seconds("collector.collect")
    out["server.route_s"] = probe.seconds("server.route")

    for layer, prefix in SELF_PREFIX.items():
        out[f"{prefix}.self_s"] = clock.self_time[layer]
    out["trace.wall_s"] = wall
    out["trace.self_sum_frac"] = ratio(sum(clock.self_time.values()), wall)
    return out


#: Per-layer metrics the workloads fill in themselves (0 elsewhere).
WORKLOAD_FILLED = (
    "trace.overhead_frac", "server.driver_hold_s", "server.lock_wait_p50_s",
    "server.lock_wait_p99_s", "server.backlog_max", "loadgen.lateness_p99_s",
)


def per_layer_names() -> List[str]:
    """Every per-layer metric name, in table order."""
    from repro.observability.hooks import KernelProfile

    names = list(layer_metrics(LayerProbe(), KernelProfile(), (), 0.0, 0.0))
    return names + list(WORKLOAD_FILLED)


def check_self_times(clock: SpanClock, wall: float) -> List[str]:
    """Self times must be non-negative and sum to at most ``wall``."""
    problems = [f"negative self time in {layer}: {seconds:.6f}s"
                for layer, seconds in clock.self_time.items()
                if seconds < -1e-9]
    total = sum(clock.self_time.values())
    if total > wall * (1 + 1e-9) + 1e-6:
        problems.append(f"self times sum to {total:.6f}s, more than the "
                        f"traced wall-clock {wall:.6f}s")
    return problems
