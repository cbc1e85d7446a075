"""The central scheduler and coordinator.

"The central scheduler serves as the coordination hub for resource
discovery, allocation decisions, and workload management" (§3.2).
Unlike traditional cluster schedulers it expects volatility: providers
may pause, depart gracefully (with a checkpoint window), or vanish
silently (detected by heartbeat loss), and every running workload must
survive that via requeue-and-restore migration.

The coordinator's moving parts:

* :class:`~repro.core.registry.NodeRegistry` — who is here, with what
  GPUs, and the free-memory view updated on every dispatch/release;
* :class:`~repro.core.queue.DispatchQueue` — the priority queue of
  pending resource requests (§3.5);
* a pluggable :class:`~repro.core.scheduler.Scheduler` strategy;
* :class:`~repro.core.reliability.ReliabilityPredictor` — volatility
  predictions fed to both placement and checkpoint policies;
* :class:`~repro.core.heartbeat.HeartbeatMonitor` — failure detection;
* the migrate-back scan that returns displaced jobs to providers who
  reconnect (§4's temporary-unavailability behaviour).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import inf, nextafter
from typing import (TYPE_CHECKING, Callable, Dict, Generator, List, Optional,
                    Set)

from ..config import PlatformConfig
from ..errors import NetworkError
from ..monitoring import EventLog, SystemDatabase
from ..network import CampusLAN, FlowNetwork, RpcLayer
from ..sim import Environment, Interrupt, Process, grid_point
from ..storage import CheckpointStore
from ..workloads.interactive import (
    InteractiveSessionSpec,
    SessionOutcome,
    SessionRecord,
)
from ..workloads.training import JobStatus, TrainingJobSpec, TrainingJobState
from .heartbeat import HeartbeatMonitor
from .messages import Placement, RequestKind, ResourceRequest
from .queue import DispatchQueue
from .registry import GpuInventory, NodeRecord, NodeRegistry, NodeStatus
from .reliability import ReliabilityPredictor
from .scheduler import SchedulingContext, make_scheduler

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..observability.trace import TraceContext, Tracer

StoreResolver = Callable[[TrainingJobSpec], CheckpointStore]


@dataclass
class RunningWorkload:
    """Coordinator-side record of one placed workload."""

    kind: RequestKind
    node_id: str
    hostname: str
    gpu_uuid: str
    reserved_bytes: float
    allocation_id: int
    request: ResourceRequest
    job: Optional[TrainingJobState] = None
    session: Optional[InteractiveSessionSpec] = None
    #: The open ``placement`` span covering this workload's stay on
    #: its GPU (``None`` when tracing is off).
    trace: Optional["TraceContext"] = None


@dataclass
class DispatchLease:
    """Durable record of one in-flight dispatch attempt.

    Written to the shared database's books the moment the dispatch
    loop picks a request up and updated synchronously around every
    reservation, so a backup coordinator taking over mid-dispatch can
    tell exactly which GPU memory is spoken for and whether the
    placement RPC may have landed.  Cleared only when the dispatch
    attempt finishes normally — a crash leaves the lease behind for
    :meth:`Coordinator.resync` to resolve.
    """

    request: ResourceRequest
    node_id: Optional[str] = None
    gpu_uuid: Optional[str] = None
    reserved_bytes: float = 0.0


class Coordinator:
    """GPUnion's coordination hub (one per campus deployment)."""

    def __init__(
        self,
        env: Environment,
        hostname: str,
        lan: CampusLAN,
        network: FlowNetwork,
        rpc: RpcLayer,
        config: PlatformConfig,
        store_resolver: Optional[StoreResolver] = None,
        database: Optional[SystemDatabase] = None,
        event_log: Optional[EventLog] = None,
    ):
        self.env = env
        self.hostname = hostname
        self.lan = lan
        self.network = network
        self.rpc = rpc
        self.config = config
        self.store_resolver = store_resolver
        self.db = database if database is not None else SystemDatabase()
        self.events = event_log if event_log is not None else EventLog(env)

        self.registry = NodeRegistry(env)
        self.predictor = ReliabilityPredictor(env)
        self.monitor = HeartbeatMonitor(env, self.registry, config,
                                        on_failure=self._on_node_failure)
        self.queue = DispatchQueue(env)
        self.scheduler = make_scheduler(config.scheduler)

        #: Federation hook: called with a training request the local
        #: fleet cannot place right now (queue saturated, or no GPU
        #: passes the filters).  Returning ``True`` means a
        #: :class:`~repro.federation.gateway.FederationGateway` took
        #: ownership (the request must not be parked locally).
        self.on_unplaceable: Optional[Callable[[ResourceRequest], bool]] = None
        #: Federation hook: called with the job id when
        #: :meth:`cancel_job` hits a job that is not queued, parked, or
        #: running here — a gateway holds it (offer in flight or
        #: delegated to a peer site).  The gateway propagates the
        #: cancellation across the WAN with at-most-once semantics;
        #: returning ``True`` means it took responsibility for that.
        self.on_cancel_delegated: Optional[Callable[[str], bool]] = None
        #: Causal tracer (shared across the federation when attached by
        #: a :class:`~repro.federation.deployment.FederatedDeployment`).
        #: ``None`` — the default — records nothing.
        self.tracer: Optional["Tracer"] = None
        #: Site label stamped on spans this coordinator records.
        self.trace_site: str = hostname

        self.jobs: Dict[str, TrainingJobState] = {}
        self.sessions: List[SessionRecord] = []
        self._running: Dict[str, RunningWorkload] = {}
        self._parked: List[ResourceRequest] = []
        self._migrating_back: Set[str] = set()
        self._dispatching: Set[str] = set()
        #: request_id → :class:`DispatchLease` for every dispatch
        #: attempt between queue pop and bookkeeping completion.  Lives
        #: in the shared database like the queue itself (§3.5), so it
        #: survives a coordinator process crash.
        self._dispatch_leases: Dict[str, DispatchLease] = {}
        #: Control-plane liveness: ``True`` between :meth:`crash` and
        #: :meth:`restore`.  Always ``False`` on the default path.
        self._crashed = False
        #: Failover epoch — bumped by a :class:`~repro.core.failover.
        #: CoordinatorHA` on every takeover; 1 means "original primary".
        self.epoch = 1
        self._dispatch_proc: Optional[Process] = None
        #: Dispatch-retry: armed only while requests are parked, on the
        #: ``dispatch_retry_interval`` grid of its last wake.
        self._retry_timer = env.timer(self._retry_due)
        self._retry_base = env.now
        self._departure_hints: Dict[str, str] = {}
        #: job_id → (origin campus, forward hops, relay path) for work
        #: forwarded here by a federation gateway; keeps provenance
        #: attached across local requeues/migrations.
        self._origin_sites: Dict[str, tuple] = {}
        self._session_requested_at: Dict[str, float] = {}
        #: workload id → the span local processing parents under: the
        #: root ``job``/``session`` span at the origin, the ``host``
        #: span at a site running forwarded work.
        self._trace_ctx: Dict[str, "TraceContext"] = {}

        self._bind_endpoint()
        if config.heartbeat_mode == "rpc":
            self.monitor.start_checker()
        self._start_loops()

    # -- wiring ------------------------------------------------------------

    def _start_loops(self) -> None:
        self._dispatch_proc = self.env.process(self._dispatch_loop(),
                                               name="dispatch-loop")
        self._retry_base = self.env.now
        self._arm_retry()

    def _bind_endpoint(self) -> None:
        endpoint = self.rpc.bind(self.hostname)
        endpoint.register("register-node", self._handle_register)
        endpoint.register("heartbeat", self._handle_heartbeat)
        endpoint.register("node-status", self._handle_node_status)
        endpoint.register("departing", self._handle_departing)
        endpoint.register("departed", self._handle_departed)
        endpoint.register("job-update", self._handle_job_update)
        endpoint.register("session-update", self._handle_session_update)

    def note_departure_hint(self, node_id: str, kind: str) -> None:
        """Accounting-only: label the next detected failure of a node.

        The wire carries nothing during a silent departure; experiments
        use this to split "emergency" from "temporary" statistics.
        """
        self._departure_hints[node_id] = kind

    # -- public user API ------------------------------------------------------

    def submit_job(self, spec: TrainingJobSpec) -> TrainingJobState:
        """Accept a training job; returns its live state object."""
        state = TrainingJobState(spec, submitted_at=self.env.now)
        self.jobs[spec.job_id] = state
        trace = None
        if self.tracer is not None:
            trace = self.tracer.start("job", trace_id=spec.job_id,
                                      site=self.trace_site, lab=spec.lab,
                                      priority=spec.priority)
            self._trace_ctx[spec.job_id] = trace
        request = ResourceRequest(
            kind=RequestKind.TRAINING,
            training=spec,
            priority=spec.priority,
            enqueued_at=self.env.now,
            trace=trace,
        )
        self.queue.push(request)
        self.events.emit("job-submitted", job_id=spec.job_id, lab=spec.lab)
        return state

    def submit_session(self, spec: InteractiveSessionSpec) -> None:
        """Accept an interactive session request."""
        self._session_requested_at[spec.session_id] = self.env.now
        trace = None
        if self.tracer is not None:
            trace = self.tracer.start("session", trace_id=spec.session_id,
                                      site=self.trace_site)
            self._trace_ctx[spec.session_id] = trace
        request = ResourceRequest(
            kind=RequestKind.INTERACTIVE,
            session=spec,
            priority=2,  # sessions are latency-sensitive
            enqueued_at=self.env.now,
            trace=trace,
        )
        self.queue.push(request)

    def submit_remote(
        self,
        spec: TrainingJobSpec,
        origin_site: str,
        restore: bool = False,
        progress: float = 0.0,
        forward_hops: int = 1,
        relay_path: tuple = (),
        trace: Optional["TraceContext"] = None,
    ) -> TrainingJobState:
        """Accept a training job forwarded from a peer campus.

        The federation gateway calls this after replicating the job's
        checkpoint (if any) into a local store; ``progress`` is the
        durable progress that checkpoint carries, so the job resumes
        here instead of restarting from scratch.  ``relay_path`` is
        the chain of sites the job already crossed (origin first) —
        kept attached so a later relay of this same job never revisits
        one of them.
        """
        state = TrainingJobState(spec, submitted_at=self.env.now)
        state.progress = progress
        state.checkpointed_progress = progress
        self.jobs[spec.job_id] = state
        self._origin_sites[spec.job_id] = (origin_site, forward_hops,
                                           tuple(relay_path))
        if self.tracer is not None and trace is not None:
            # The host-side span: everything this campus does with the
            # forwarded job parents under the hop that delivered it.
            trace = self.tracer.start("host", parent=trace,
                                      site=self.trace_site,
                                      origin=origin_site, restore=restore,
                                      hops=forward_hops)
            self._trace_ctx[spec.job_id] = trace
        request = ResourceRequest(
            kind=RequestKind.TRAINING,
            training=spec,
            priority=spec.priority,
            restore=restore,
            enqueued_at=self.env.now,
            allow_shared=restore,  # resume fast, like a local migration
            origin_site=origin_site,
            forward_hops=forward_hops,
            relay_path=tuple(relay_path),
            trace=trace,
        )
        self.queue.push(request)
        self.events.emit("job-forwarded-in", job_id=spec.job_id,
                         origin=origin_site, restore=restore)
        return state

    def cancel_job(self, job_id: str):
        """Cancel a job wherever it is (queued, parked, or running).

        Returns the termination RPC event when the job was running,
        else ``None``.
        """
        if self.queue.withdraw(job_id) is not None:
            self.jobs[job_id].status = JobStatus.CANCELLED
            self.finish_trace(job_id, "cancelled")
            return None
        for index, request in enumerate(self._parked):
            if request.request_id == job_id:
                del self._parked[index]
                self._parked_changed()
                self.jobs[job_id].status = JobStatus.CANCELLED
                self.finish_trace(job_id, "cancelled")
                return None
        running = self._running.get(job_id)
        if running is None:
            if job_id in self._dispatching:
                # Mid local dispatch (RPC round-trip in flight); the
                # placement will land and the job run — same silent
                # no-op as before federation existed.
                return None
            job = self.jobs.get(job_id)
            if job is not None and job.status in (JobStatus.PENDING,
                                                 JobStatus.MIGRATING):
                # Not queued, parked, or running here — a federation
                # gateway holds it (forward offer in flight, or already
                # delegated).  Record the user's intent; the gateway
                # checks this before re-queueing or offering, and (for
                # a committed delegation) propagates the cancellation
                # across the WAN to the hosting site.
                job.status = JobStatus.CANCELLED
                self.events.emit("job-cancelled", job_id=job_id)
                if self.tracer is not None:
                    self.tracer.event("cancel-requested",
                                      self._trace_ctx.get(job_id),
                                      site=self.trace_site)
                if self.on_cancel_delegated is not None:
                    self.on_cancel_delegated(job_id)
            return None
        return self.rpc.call(self.hostname, running.hostname, "terminate",
                             {"job_id": job_id})

    # -- registration and liveness -----------------------------------------------

    def _handle_register(self, payload: dict) -> str:
        gpus = [
            GpuInventory(
                uuid=gpu["uuid"],
                model=gpu["model"],
                memory_total=gpu["memory_total"],
                memory_free=gpu["memory_total"],
                compute_capability=tuple(gpu["compute_capability"]),
            )
            for gpu in payload["gpus"]
        ]
        record = self.registry.register(
            node_id=payload["node_id"],
            hostname=payload["hostname"],
            owner_lab=payload.get("owner_lab", ""),
            gpus=gpus,
        )
        self.predictor.observe_join(record.node_id)
        self.monitor.node_returned(record.node_id)
        self.db.upsert_node(record.node_id, record.hostname, record.owner_lab,
                            self.env.now, "available", record.auth_token)
        self.events.emit("node-registered", node=record.node_id,
                         hostname=record.hostname)
        # Parked work reacts to the new capacity first (the dispatch
        # loop is the hot path); the migrate-back scan is a slower
        # control action and may find the returning GPUs already taken
        # — producing §4's "not in time" migrate-back failures.
        self._release_parked()
        if self.config.migrate_back:
            self.env.process(self._migrate_back_scan(record),
                             name=f"migrate-back:{record.node_id}")
        return record.auth_token

    def _handle_heartbeat(self, payload: dict):
        node_id = payload["node_id"]
        self.monitor.receive(node_id)
        self.db.record_heartbeat(node_id, self.env.now)
        return "ok"

    def _handle_node_status(self, payload: dict):
        node_id = payload["node_id"]
        status = payload["status"]
        if status == "paused":
            self.registry.set_status(node_id, NodeStatus.PAUSED)
            self.events.emit("node-paused", node=node_id)
        elif status == "available":
            self.registry.set_status(node_id, NodeStatus.AVAILABLE)
            self.events.emit("node-resumed", node=node_id)
            self._release_parked()
        return "ok"

    def _handle_departing(self, payload: dict):
        node_id = payload["node_id"]
        self.registry.set_status(node_id, NodeStatus.PAUSED)
        self.events.emit("node-departing", node=node_id)
        return "ok"

    def _handle_departed(self, payload: dict):
        node_id = payload["node_id"]
        self.registry.set_status(node_id, NodeStatus.DEPARTED)
        self.db.set_node_status(node_id, "departed")
        self.predictor.observe_interruption(node_id)
        self.events.emit("node-departed", node=node_id)
        # Graceful executors normally report before this point; anything
        # still booked on the node gets the failure path as a backstop.
        self._reclaim_node_workloads(node_id, kind="scheduled")
        return "ok"

    def _on_node_failure(self, record: NodeRecord) -> None:
        kind = self._departure_hints.pop(record.node_id, "emergency")
        detected = self.monitor.detection_time(record.node_id)
        self.predictor.observe_interruption(record.node_id, at=detected)
        self.db.set_node_status(record.node_id, "unavailable")
        self.events.emit("node-failed", node=record.node_id, cause=kind)
        self._reclaim_node_workloads(record.node_id, kind=kind,
                                     detected_at=detected)

    def _reclaim_node_workloads(self, node_id: str, kind: str,
                                detected_at: Optional[float] = None) -> None:
        doomed = [
            (workload_id, running)
            for workload_id, running in self._running.items()
            if running.node_id == node_id
        ]
        for workload_id, running in doomed:
            del self._running[workload_id]
            self.registry.release_gpu(node_id, running.gpu_uuid,
                                      running.reserved_bytes)
            self.db.close_allocation(running.allocation_id, self.env.now,
                                     f"node-lost:{kind}")
            if self.tracer is not None:
                self.tracer.finish(running.trace, status=f"node-lost:{kind}")
            if running.kind is RequestKind.TRAINING:
                job = running.job
                # Silent departures happened one detection delay before
                # the coordinator learns of them; downtime accounting
                # starts at the true interruption instant.  Detections
                # replayed after a coordinator outage backdate further,
                # to when the detection actually fired.
                when = self.env.now if detected_at is None else detected_at
                if kind in ("emergency", "temporary"):
                    when -= self.config.failure_detection_delay
                job.record_interruption(at=when, kind=kind,
                                        node=running.hostname)
                job.status = JobStatus.MIGRATING
                self.events.emit("job-displaced", job_id=job.job_id,
                                 node=node_id, cause=kind)
                self._requeue_job(job, reason="migration")
            else:
                self._close_session(running, SessionOutcome.INTERRUPTED)
        self._release_parked()

    # -- workload updates from agents ------------------------------------------------

    def _handle_job_update(self, payload: dict):
        job_id = payload["job_id"]
        result = payload["result"]
        running = self._running.pop(job_id, None)
        if running is None:
            return "stale"  # already reclaimed via the failure path
        self.registry.release_gpu(running.node_id, running.gpu_uuid,
                                  running.reserved_bytes)
        self.db.close_allocation(running.allocation_id, self.env.now, result)
        if self.tracer is not None:
            self.tracer.finish(running.trace, status=result)
        job = running.job
        if result == "completed":
            self.events.emit("job-completed", job_id=job_id,
                             node=running.hostname)
            self.finish_trace(job_id, "completed")
        elif result == "migrated":
            kind = ("migrate-back" if job_id in self._migrating_back
                    else "scheduled")
            self._migrating_back.discard(job_id)
            job.record_interruption(at=self.env.now, kind=kind,
                                    node=running.hostname)
            self.events.emit("job-checkpoint-final", job_id=job_id,
                             durable=payload.get("durable", False))
            preferred = None
            if kind == "migrate-back" and job.home_node is not None:
                try:
                    preferred = self.registry.by_hostname(job.home_node).node_id
                except KeyError:
                    preferred = None
            self._requeue_job(job, reason=kind, preferred_node=preferred)
        elif result == "interrupted":
            job.record_interruption(at=self.env.now, kind="emergency",
                                    node=running.hostname)
            self._requeue_job(job, reason="migration")
        elif result == "cancelled":
            self.events.emit("job-cancelled", job_id=job_id)
            self.finish_trace(job_id, "cancelled")
        elif result == "failed-to-start":
            self.events.emit("job-start-failed", job_id=job_id,
                             node=running.hostname)
            self._requeue_job(
                job, reason="retry",
                exclude=frozenset({running.node_id}),
            )
        self._release_parked()
        return "ok"

    def _requeue_job(
        self,
        job: TrainingJobState,
        reason: str,
        preferred_node: Optional[str] = None,
        exclude: frozenset = frozenset(),
    ) -> None:
        job.migrations += 1
        store = (self.store_resolver(job.spec)
                 if self.store_resolver is not None else None)
        restore = bool(store is not None and store.has_checkpoint(job.job_id))
        origin_site, forward_hops, relay_path = self._origin_sites.get(
            job.job_id, (None, 0, ()))
        request = ResourceRequest(
            kind=RequestKind.TRAINING,
            training=job.spec,
            priority=max(0, job.spec.priority - 1),  # migrations jump the line
            restore=restore,
            exclude_nodes=exclude,
            preferred_node=preferred_node,
            enqueued_at=self.env.now,
            allow_shared=True,  # resume fast; co-locate if needed
            origin_site=origin_site,
            forward_hops=forward_hops,
            relay_path=relay_path,
            trace=self._trace_ctx.get(job.job_id),
        )
        self.queue.push(request)
        self.events.emit("job-migration-queued", job_id=job.job_id,
                         reason=reason, restore=restore)
        if self.tracer is not None:
            self.tracer.event("requeue", self._trace_ctx.get(job.job_id),
                              site=self.trace_site, reason=reason,
                              restore=restore)

    def _handle_session_update(self, payload: dict):
        session_id = payload["session_id"]
        result = payload["result"]
        running = self._running.pop(session_id, None)
        if running is None:
            return "stale"
        self.registry.release_gpu(running.node_id, running.gpu_uuid,
                                  running.reserved_bytes)
        self.db.close_allocation(running.allocation_id, self.env.now, result)
        if self.tracer is not None:
            self.tracer.finish(running.trace, status=result)
        outcome = (SessionOutcome.SERVED if result == "completed"
                   else SessionOutcome.INTERRUPTED)
        self._close_session(running, outcome)
        self._release_parked()
        return "ok"

    def _close_session(self, running: RunningWorkload,
                       outcome: SessionOutcome) -> None:
        for record in self.sessions:
            if (record.spec.session_id == running.session.session_id
                    and record.ended_at is None):
                record.ended_at = self.env.now
                if outcome is SessionOutcome.INTERRUPTED:
                    record.outcome = SessionOutcome.INTERRUPTED
                    self.events.emit("session-interrupted",
                                     session_id=record.spec.session_id)
                else:
                    self.events.emit("session-finished",
                                     session_id=record.spec.session_id)
                self.finish_trace(record.spec.session_id, outcome.value)
                return

    # -- dispatching --------------------------------------------------------------------

    def _dispatch_loop(self) -> Generator:
        while True:
            pop = self.queue.pop()
            try:
                request = yield pop
            except Interrupt:
                # Crash while blocked on the queue: withdraw the pop so
                # a later push cannot deliver into this dead process.
                self.queue.cancel_pop(pop)
                return
            try:
                yield from self._dispatch(request)
            except Interrupt:
                return  # crash mid-dispatch; the lease survives for resync

    def _arm_retry(self) -> None:
        """Arm dispatch-retry while requests are parked, at the first
        point of its grid strictly after now; disarm it otherwise."""
        if not self._parked:
            self._retry_timer.cancel()
        elif self._retry_timer.when == inf and not self._crashed:
            self._retry_base, when = grid_point(
                self._retry_base, self.config.dispatch_retry_interval,
                nextafter(self.env.now, inf))
            self._retry_timer.arm(when)

    def _retry_due(self) -> None:
        self._retry_base = self.env.now
        self._release_parked()

    def _parked_changed(self) -> None:
        self._arm_retry()
        # ``queue_pressure`` counts parked requests with queued ones.
        self.queue.notify()

    def _release_parked(self) -> None:
        if not self._parked:
            return
        parked, self._parked = self._parked, []
        self._parked_changed()
        for request in parked:
            self.queue.push(request)

    def _context(self) -> SchedulingContext:
        load: Dict[str, int] = {}
        for running in self._running.values():
            load[running.node_id] = load.get(running.node_id, 0) + 1
        return SchedulingContext(predictor=self.predictor, active_load=load)

    def _dispatch(self, request: ResourceRequest) -> Generator:
        self._dispatching.add(request.request_id)
        lease = DispatchLease(request=request)
        self._dispatch_leases[request.request_id] = lease
        try:
            yield from self._dispatch_inner(request, lease)
        finally:
            # Volatile RPC-in-flight marker always clears; the durable
            # lease is dropped *after* the finally so an Interrupt
            # (coordinator crash) leaves it behind for resync.
            self._dispatching.discard(request.request_id)
        del self._dispatch_leases[request.request_id]

    def _dispatch_inner(self, request: ResourceRequest,
                        lease: DispatchLease) -> Generator:
        tried: Set[str] = set(request.exclude_nodes)
        while True:
            candidates = [
                record for record in self.registry.schedulable()
                if record.node_id not in tried
            ]
            placement = self.scheduler.select(request, candidates,
                                              self._context())
            if placement is None:
                if request.kind is RequestKind.INTERACTIVE:
                    # Sessions are latency-sensitive; they never cross
                    # the WAN.
                    self._deny_session(request)
                elif (self.on_unplaceable is not None
                        and self.on_unplaceable(request)):
                    pass  # a federation gateway owns the request now
                else:
                    self._parked.append(request)
                    self._parked_changed()
                return
            reserve = request.gpu_memory_needed
            if request.exclusive:
                # Training owns the whole card (frameworks grab memory
                # greedily and saturate compute).
                gpu_view = self.registry.get(placement.node_id).gpus[
                    placement.gpu_uuid]
                reserve = gpu_view.memory_free
            self.registry.reserve_gpu(placement.node_id, placement.gpu_uuid,
                                      reserve)
            lease.node_id = placement.node_id
            lease.gpu_uuid = placement.gpu_uuid
            lease.reserved_bytes = reserve
            accepted = yield from self._send_dispatch(request, placement,
                                                      reserve)
            if accepted:
                return
            self.registry.release_gpu(placement.node_id, placement.gpu_uuid,
                                      reserve)
            lease.node_id = None
            lease.gpu_uuid = None
            lease.reserved_bytes = 0.0
            tried.add(placement.node_id)

    def _send_dispatch(self, request: ResourceRequest, placement: Placement,
                       reserve: Optional[float] = None) -> Generator:
        if request.kind is RequestKind.TRAINING:
            job = self.jobs[request.training.job_id]
            store = (self.store_resolver(job.spec)
                     if self.store_resolver is not None else None)
            payload = {
                "job": job,
                "gpu_uuid": placement.gpu_uuid,
                "restore": request.restore,
                "predicted_mtbf": self.predictor.predicted_mtbf(placement.node_id),
                "store": store,
            }
            method = "dispatch-training"
        else:
            payload = {
                "session": request.session,
                "gpu_uuid": placement.gpu_uuid,
            }
            method = "dispatch-session"
        try:
            reply = yield self.rpc.call(self.hostname, placement.hostname,
                                        method, payload)
        except NetworkError:
            return False
        if not reply.get("accepted"):
            return False
        allocation_id = self.db.record_allocation(
            request.request_id, placement.node_id, placement.gpu_uuid,
            self.env.now,
        )
        trace = None
        if self.tracer is not None and request.trace is not None:
            trace = self.tracer.start(
                "placement", parent=request.trace, site=self.trace_site,
                node=placement.node_id, hostname=placement.hostname,
                gpu=placement.gpu_uuid, restore=request.restore)
        running = RunningWorkload(
            kind=request.kind,
            node_id=placement.node_id,
            hostname=placement.hostname,
            gpu_uuid=placement.gpu_uuid,
            reserved_bytes=(reserve if reserve is not None
                            else request.gpu_memory_needed),
            allocation_id=allocation_id,
            request=request,
            job=self.jobs.get(request.request_id),
            session=request.session,
            trace=trace,
        )
        self._running[request.request_id] = running
        if request.kind is RequestKind.TRAINING:
            self.events.emit("job-dispatched", job_id=request.request_id,
                             node=placement.node_id,
                             hostname=placement.hostname,
                             restore=request.restore)
            if request.preferred_node is not None:
                self.events.emit(
                    "migrate-back-result",
                    job_id=request.request_id,
                    success=placement.node_id == request.preferred_node,
                )
        else:
            record = SessionRecord(
                spec=request.session,
                requested_at=self._session_requested_at.get(
                    request.session.session_id, self.env.now),
                outcome=SessionOutcome.SERVED,
                served_on=placement.hostname,
                started_at=self.env.now,
            )
            self.sessions.append(record)
            self.events.emit("session-served",
                             session_id=request.session.session_id,
                             node=placement.node_id)
        return True

    def _deny_session(self, request: ResourceRequest) -> None:
        record = SessionRecord(
            spec=request.session,
            requested_at=self._session_requested_at.get(
                request.session.session_id, self.env.now),
            outcome=SessionOutcome.DENIED_NO_CAPACITY,
        )
        self.sessions.append(record)
        self.events.emit("session-denied",
                         session_id=request.session.session_id)
        self.finish_trace(request.session.session_id, "denied")

    # -- control-plane failover ------------------------------------------------------------

    @property
    def is_crashed(self) -> bool:
        """Whether the coordinator process is currently down."""
        return self._crashed

    def crash(self) -> None:
        """Kill the coordinator process (control-plane chaos hook).

        The shared database survives — registry, queue, job states,
        placements, and dispatch leases are durable per §3.5 ("a
        priority queue stored in the central database").  What dies is
        the *process*: the API endpoint unbinds (agents see RPC
        errors), the dispatch/retry loops stop, in-flight dispatch
        RPCs are orphaned (their leases stay behind), and failure
        detection stops acting until a replica takes over.
        """
        if self._crashed:
            return
        self._crashed = True
        self.rpc.unbind(self.hostname)
        self.monitor.suspend()
        if self._dispatch_proc is not None and self._dispatch_proc.is_alive:
            self._dispatch_proc.interrupt("coordinator-crash")
        self._dispatch_proc = None
        self._retry_timer.cancel()
        self._dispatching.clear()  # volatile: RPC futures died with us
        self.events.emit("coordinator-crashed", host=self.hostname)

    def restore(self) -> None:
        """Bring a coordinator process back up over the shared state.

        Used both for a backup replica taking over and for the primary
        restarting headless.  Rebinds the endpoint, resumes failure
        detection (replaying detections that fired while down), and
        restarts the dispatch loops.  Callers should then drive
        :meth:`resync` to reconcile the books against the fleet.
        """
        if not self._crashed:
            return
        self._crashed = False
        self._bind_endpoint()
        self.monitor.resume()
        self._start_loops()
        self.events.emit("coordinator-restored", host=self.hostname,
                         epoch=self.epoch)

    def resync(self) -> Generator:
        """Reconcile the books against the live fleet after a takeover.

        Probes every reachable node's ``status`` API and resolves the
        three kinds of state a crash can orphan:

        * ``_running`` entries whose executor finished while we were
          down (the agent's update RPC died against the dead
          endpoint) — finalized from the shared job state, so
          completions are never lost;
        * dispatch leases whose placement RPC landed but whose
          acceptance reply died — the workload is *adopted* (it keeps
          running; no second dispatch, preserving exactly-once);
        * leases and placements that never landed or whose node died —
          reservations released and the work requeued.
        """
        active: Dict[str, tuple] = {}
        for record in list(self.registry.all_records()):
            if record.status in (NodeStatus.UNAVAILABLE, NodeStatus.DEPARTED):
                continue
            try:
                reply = yield self.rpc.call(
                    self.hostname, record.hostname, "status", {},
                    timeout=self.config.heartbeat_interval,
                )
            except NetworkError:
                self.monitor.declare_failed(record.node_id)
                continue
            for entry in reply.get("executions", []):
                active[entry["workload_id"]] = (record.node_id,
                                                entry.get("gpu_uuid"))
        touched = self._resync_running(active)
        touched += self._resync_leases(active)
        if self.tracer is not None:
            # Every workload alive across the leader change carries the
            # new epoch in its tree: the ones resync had to adopt,
            # finalize, or requeue (touched) *and* the ones that kept
            # running undisturbed — a trace reader must be able to tell
            # which term each later span ran under.
            for workload_id in sorted(set(touched) | set(self._running)):
                self.tracer.event("failover-epoch",
                                  self._trace_ctx.get(workload_id),
                                  site=self.trace_site, epoch=self.epoch,
                                  workload=workload_id)
        self._release_parked()
        self.events.emit("coordinator-resynced", host=self.hostname,
                         epoch=self.epoch, reconciled=len(touched))

    def _resync_running(self, active: Dict[str, tuple]) -> List[str]:
        """Resolve placements whose executor is gone (or finished)."""
        touched: List[str] = []
        for workload_id, running in list(self._running.items()):
            where = active.get(workload_id)
            if where is not None and where[0] == running.node_id:
                continue  # still running where the books say
            del self._running[workload_id]
            self.registry.release_gpu(running.node_id, running.gpu_uuid,
                                      running.reserved_bytes)
            self.db.close_allocation(running.allocation_id, self.env.now,
                                     "failover-resync")
            if self.tracer is not None:
                self.tracer.finish(running.trace, status="failover-resync")
            if running.kind is RequestKind.TRAINING:
                job = running.job
                if job.is_done or job.status is JobStatus.COMPLETED:
                    # Completed while we were down; the executor wrote
                    # the shared job state even though its update RPC
                    # never reached the dead endpoint.
                    self.events.emit("job-completed", job_id=workload_id,
                                     node=running.hostname)
                    self.finish_trace(workload_id, "completed")
                elif job.status is JobStatus.CANCELLED:
                    self.events.emit("job-cancelled", job_id=workload_id)
                    self.finish_trace(workload_id, "cancelled")
                else:
                    job.record_interruption(at=self.env.now,
                                            kind="emergency",
                                            node=running.hostname)
                    job.status = JobStatus.MIGRATING
                    self.events.emit("job-displaced", job_id=workload_id,
                                     node=running.node_id, cause="failover")
                    self._requeue_job(job, reason="failover")
            else:
                self._close_session(running, SessionOutcome.INTERRUPTED)
            touched.append(workload_id)
        return touched

    def _resync_leases(self, active: Dict[str, tuple]) -> List[str]:
        """Resolve dispatch attempts orphaned mid-RPC by the crash."""
        touched: List[str] = []
        for workload_id, lease in list(self._dispatch_leases.items()):
            del self._dispatch_leases[workload_id]
            touched.append(workload_id)
            request = lease.request
            where = active.get(workload_id)
            if (lease.node_id is not None and where is not None
                    and where[0] == lease.node_id):
                self._adopt_lease(workload_id, lease)
                continue
            if lease.node_id is not None:
                self.registry.release_gpu(lease.node_id, lease.gpu_uuid,
                                          lease.reserved_bytes)
            job = (self.jobs.get(workload_id)
                   if request.kind is RequestKind.TRAINING else None)
            if job is not None and (job.is_done
                                    or job.status is JobStatus.COMPLETED):
                # Dispatched, ran to completion, and the executor exited
                # — all inside the outage window.
                self.events.emit("job-completed", job_id=workload_id)
                self.finish_trace(workload_id, "completed")
            elif job is not None and job.status is JobStatus.CANCELLED:
                self.finish_trace(workload_id, "cancelled")
            elif job is not None and job.status is JobStatus.RUNNING:
                # It started somewhere and died with its node during the
                # outage; migrate like any other displaced job.
                job.record_interruption(at=self.env.now, kind="emergency",
                                        node=job.current_node or "unknown")
                job.status = JobStatus.MIGRATING
                self._requeue_job(job, reason="failover")
            else:
                # Never started: plain dispatch retry, no migration
                # accounting.
                self.queue.push(request)
        return touched

    def _adopt_lease(self, workload_id: str, lease: DispatchLease) -> None:
        """Adopt a workload whose acceptance reply died with the old
        primary: it is running exactly where the lease says."""
        request = lease.request
        record = self.registry.get(lease.node_id)
        allocation_id = self.db.record_allocation(
            workload_id, lease.node_id, lease.gpu_uuid, self.env.now)
        trace = None
        if self.tracer is not None and request.trace is not None:
            trace = self.tracer.start(
                "placement", parent=request.trace, site=self.trace_site,
                node=lease.node_id, hostname=record.hostname,
                gpu=lease.gpu_uuid, restore=request.restore, adopted=True)
        self._running[workload_id] = RunningWorkload(
            kind=request.kind,
            node_id=lease.node_id,
            hostname=record.hostname,
            gpu_uuid=lease.gpu_uuid,
            reserved_bytes=lease.reserved_bytes,
            allocation_id=allocation_id,
            request=request,
            job=self.jobs.get(workload_id),
            session=request.session,
            trace=trace,
        )
        if request.kind is RequestKind.TRAINING:
            self.events.emit("job-adopted", job_id=workload_id,
                             node=lease.node_id, epoch=self.epoch)
        else:
            self.sessions.append(SessionRecord(
                spec=request.session,
                requested_at=self._session_requested_at.get(
                    request.session.session_id, self.env.now),
                outcome=SessionOutcome.SERVED,
                served_on=record.hostname,
                started_at=self.env.now,
            ))
            self.events.emit("session-adopted",
                             session_id=workload_id, node=lease.node_id)

    # -- migrate-back ----------------------------------------------------------------------

    def _migrate_back_scan(self, record: NodeRecord) -> Generator:
        """Ask current hosts to release jobs whose home just returned."""
        yield self.env.timeout(self.config.migrate_back_scan_delay)
        if record.status is not NodeStatus.AVAILABLE:
            return  # departed again before the control loop ran
        for job_id, running in list(self._running.items()):
            if running.kind is not RequestKind.TRAINING:
                continue
            job = running.job
            if job is None or job.home_node != record.hostname:
                continue
            if running.node_id == record.node_id:
                continue  # already home
            fits = record.free_gpus(job.spec.model.gpu_memory,
                                    job.spec.model.min_compute_capability,
                                    exclusive=True)
            if not fits:
                # Displaced but cannot return: the home GPUs were taken
                # (by queued work placed on the returning node) — this
                # is the "not in time" bucket of §4's 67 % result.
                self.events.emit("migrate-back-skipped", job_id=job_id,
                                 home=record.hostname)
                continue
            self._migrating_back.add(job_id)
            self.events.emit("migrate-back-requested", job_id=job_id,
                             home=record.hostname)
            try:
                yield self.rpc.call(self.hostname, running.hostname,
                                    "migrate-away", {"job_id": job_id})
            except NetworkError:
                self._migrating_back.discard(job_id)

    # -- tracing -----------------------------------------------------------------------------

    def trace_context(self, workload_id: str) -> Optional["TraceContext"]:
        """The span this workload's local processing parents under.

        The root ``job``/``session`` span when the workload was
        submitted here, the ``host`` span when it arrived over the
        WAN; ``None`` when tracing is off or the workload is unknown.
        """
        return self._trace_ctx.get(workload_id)

    def finish_trace(self, workload_id: str, status: str = "ok") -> None:
        """Close the workload's root/host span (idempotent, no-op when
        tracing is off).  Federation gateways call this at the origin
        when a completion notice or probe closes a delegation."""
        if self.tracer is None:
            return
        self.tracer.finish(self._trace_ctx.pop(workload_id, None),
                           status=status)

    # -- introspection -----------------------------------------------------------------------

    @property
    def running_count(self) -> int:
        """Workloads currently placed on providers."""
        return len(self._running)

    @property
    def parked_count(self) -> int:
        """Requests waiting for capacity."""
        return len(self._parked)

    @property
    def queue_pressure(self) -> int:
        """Requests the local fleet has not managed to place yet.

        Queued plus parked — the saturation signal federation
        gateways advertise in capacity digests.
        """
        return len(self.queue) + len(self._parked)

    def is_dispatching(self, workload_id: str) -> bool:
        """Whether a placement RPC for this workload is in flight.

        Federation gateways must not confirm a cancellation while the
        local dispatch round-trip could still land the job on a GPU.
        """
        return workload_id in self._dispatching

    def running_on(self, node_id: str) -> List[str]:
        """Workload ids currently booked on a node."""
        return [wid for wid, running in self._running.items()
                if running.node_id == node_id]

    def served_sessions(self) -> List[SessionRecord]:
        """Session ledger entries that got a GPU."""
        return [record for record in self.sessions if record.was_served]

    def denied_sessions(self) -> List[SessionRecord]:
        """Session ledger entries denied for capacity."""
        return [record for record in self.sessions
                if record.outcome is SessionOutcome.DENIED_NO_CAPACITY]
