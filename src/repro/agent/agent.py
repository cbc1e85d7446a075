"""The provider agent.

"Each participating node runs a lightweight agent that implements the
provider supremacy model through local control mechanisms and real-time
monitoring.  The agent exposes REST APIs for resource advertisement,
workload lifecycle management, and emergency controls while maintaining
absolute provider authority through kill-switch functionality" (§3.2).

The agent owns: registration with the coordinator, heartbeats, the
kill-switch, the container runtime, the NVML-backed exporter, and the
executor processes for every workload placed here.
"""

from __future__ import annotations

import math
from typing import Dict, Generator, Optional

from ..checkpoint import CheckpointEngine, CheckpointPolicy, FixedIntervalPolicy
from ..config import PlatformConfig
from ..containers import (
    ContainerRuntime,
    ContainerSpec,
    GpuRequirements,
    ImageRegistry,
    make_notebook_spec,
)
from ..errors import DispatchError, NetworkError
from ..gpu.node import GPUNode
from ..network import CampusLAN, FlowNetwork, RpcLayer
from ..monitoring import NodeExporter
from ..sim import Environment
from ..storage import CheckpointStore, Volume
from ..workloads.interactive import InteractiveSessionSpec
from ..workloads.training import TrainingJobState
from .executor import InteractiveExecutor, TrainingExecutor
from .killswitch import KillSwitch, ProviderAvailability


class ProviderAgent:
    """One provider node's local GPUnion daemon."""

    def __init__(
        self,
        env: Environment,
        node: GPUNode,
        lan: CampusLAN,
        network: FlowNetwork,
        rpc: RpcLayer,
        image_registry: ImageRegistry,
        config: PlatformConfig,
        coordinator_hostname: str = "coordinator",
        checkpoint_engine: Optional[CheckpointEngine] = None,
        checkpoint_policy: Optional[CheckpointPolicy] = None,
        volume: Optional[Volume] = None,
    ):
        self.env = env
        self.node = node
        self.lan = lan
        self.network = network
        self.rpc = rpc
        self.image_registry = image_registry
        self.config = config
        self.coordinator_hostname = coordinator_hostname
        self.engine = checkpoint_engine or CheckpointEngine(env, network)
        self.policy = checkpoint_policy or FixedIntervalPolicy()
        self.volume = volume or Volume(env, f"{node.hostname}-disk")
        self.runtime = ContainerRuntime(
            env, node, image_registry, network,
            start_latency=config.container_start_latency,
        )
        self.exporter = NodeExporter(env, node, self.runtime)
        self.kill_switch = KillSwitch()
        self.auth_token: str = ""
        self._executions: Dict[str, object] = {}  # job/session id → executor
        self._heartbeat_running = False
        self._register_retry = env.timer(self._retry_register)
        #: Accounting-only hint read by the coordinator after detection
        #: (the wire carries nothing during a silent departure).
        self.last_departure_kind: str = "emergency"
        #: Simulator-side stand-in for "this node's heartbeats stopped".
        #: In virtual heartbeat mode the platform wires this to the
        #: coordinator's monitor, which then waits the full detection
        #: delay before acting — the coordinator learns nothing early.
        self.on_silent_departure = None
        self._bind_endpoint()

    # -- RPC surface -------------------------------------------------------

    def _bind_endpoint(self) -> None:
        endpoint = self.rpc.bind(self.node.hostname)
        endpoint.register("dispatch-training", self._handle_dispatch_training)
        endpoint.register("dispatch-session", self._handle_dispatch_session)
        endpoint.register("migrate-away", self._handle_migrate_away)
        endpoint.register("terminate", self._handle_terminate)
        endpoint.register("status", self._handle_status)

    @property
    def hostname(self) -> str:
        """Host this agent runs on."""
        return self.node.hostname

    @property
    def active_workloads(self) -> int:
        """Executors currently running here."""
        return len(self._executions)

    # -- registration & heartbeats ------------------------------------------

    def register(self):
        """Join the platform: announce inventory, obtain a token.

        Returns the registration RPC event (fires with the token).
        """
        payload = {
            "node_id": self.node.node_id,
            "hostname": self.hostname,
            "owner_lab": self.node.owner_lab,
            "gpus": self.node.describe()["gpus"],
        }
        call = self.rpc.call(self.hostname, self.coordinator_hostname,
                             "register-node", payload)

        def on_registered(event):
            if event.ok:
                self.auth_token = event.value
                self.kill_switch.rejoin()
                if self.config.heartbeat_mode == "rpc":
                    self._start_heartbeats()
            else:
                # Coordinator unreachable (e.g. crashed mid-failover):
                # an unregistered node is permanent capacity loss, so
                # keep trying until an endpoint answers.
                self.auth_token = ""  # any old token is void now
                self._schedule_register_retry()

        call.callbacks.append(on_registered)
        return call

    def _schedule_register_retry(self) -> None:
        if math.isinf(self._register_retry.when):
            self._register_retry.arm(
                self.env.now + self.config.heartbeat_interval)

    def _retry_register(self) -> None:
        if self.kill_switch.is_departed:
            return  # departed meanwhile; reconnect() re-registers
        if not self.lan.is_connected(self.hostname):
            return
        if self.auth_token:
            return  # a concurrent register already succeeded
        self.register()

    def _start_heartbeats(self) -> None:
        if self._heartbeat_running:
            return
        self._heartbeat_running = True
        self.env.process(self._heartbeat_loop(),
                         name=f"heartbeat:{self.hostname}")

    def _heartbeat_loop(self) -> Generator:
        while True:
            if self.kill_switch.is_departed or not self.lan.is_connected(self.hostname):
                self._heartbeat_running = False
                return
            try:
                yield self.rpc.call(
                    self.hostname, self.coordinator_hostname, "heartbeat",
                    {"node_id": self.node.node_id, "token": self.auth_token},
                )
            except NetworkError:
                pass  # coordinator unreachable; keep trying
            yield self.env.timeout(self.config.heartbeat_interval)

    # -- dispatch handlers --------------------------------------------------------

    def _reject_if_unavailable(self) -> Optional[dict]:
        if not self.kill_switch.accepting_work:
            return {"accepted": False,
                    "reason": f"provider is {self.kill_switch.state.value}"}
        return None

    def _handle_dispatch_training(self, payload: dict) -> dict:
        rejection = self._reject_if_unavailable()
        if rejection:
            return rejection
        job: TrainingJobState = payload["job"]
        gpu_uuid: str = payload["gpu_uuid"]
        try:
            gpu = self.node.gpu_by_uuid(gpu_uuid)
        except KeyError:
            return {"accepted": False, "reason": f"no GPU {gpu_uuid}"}
        if gpu.memory_free < job.spec.model.gpu_memory:
            return {"accepted": False, "reason": "insufficient GPU memory"}
        self.env.process(
            self._run_training(job, gpu, payload),
            name=f"exec:{job.job_id}@{self.hostname}",
        )
        return {"accepted": True}

    def _run_training(self, job: TrainingJobState, gpu, payload: dict) -> Generator:
        image = self.image_registry.resolve(job.spec.image_reference)
        spec = ContainerSpec(
            image_reference=image.reference,
            image_digest=image.digest,
            gpu=GpuRequirements(
                gpu_count=1,
                memory_per_gpu=job.spec.model.gpu_memory,
                min_compute_capability=job.spec.model.min_compute_capability,
            ),
        )
        try:
            container = self.runtime.create(spec)
            yield self.runtime.start(container, (gpu,))
        except Exception as exc:
            yield from self._notify(
                "job-update",
                {"job_id": job.job_id, "result": "failed-to-start",
                 "reason": repr(exc), "node_id": self.node.node_id},
            )
            return
        executor = TrainingExecutor(
            env=self.env,
            job=job,
            container=container,
            runtime=self.runtime,
            gpu=gpu,
            volume=self.volume,
            store=payload["store"],
            engine=self.engine,
            policy=self.policy,
            hostname=self.hostname,
            predicted_mtbf=payload.get("predicted_mtbf"),
            restore=payload.get("restore", False),
        )
        executor.process = self.env.process(executor.run(),
                                            name=f"train:{job.job_id}")
        self._executions[job.job_id] = executor
        yield from self._watch_training(executor)

    def _watch_training(self, executor: TrainingExecutor) -> Generator:
        job_id = executor.job.job_id
        try:
            outcome = yield executor.process
        except Exception:
            outcome = None
        self._executions.pop(job_id, None)
        if outcome is None:
            return  # died during an emergency; coordinator's books rule
        yield from self._notify(
            "job-update",
            {
                "job_id": job_id,
                "result": outcome.result,
                "durable": outcome.final_checkpoint_durable,
                "node_id": self.node.node_id,
            },
        )

    def _handle_dispatch_session(self, payload: dict) -> dict:
        rejection = self._reject_if_unavailable()
        if rejection:
            return rejection
        session: InteractiveSessionSpec = payload["session"]
        gpu_uuid: str = payload["gpu_uuid"]
        try:
            gpu = self.node.gpu_by_uuid(gpu_uuid)
        except KeyError:
            return {"accepted": False, "reason": f"no GPU {gpu_uuid}"}
        if gpu.memory_free < session.gpu_memory:
            return {"accepted": False, "reason": "insufficient GPU memory"}
        self.env.process(
            self._run_session(session, gpu),
            name=f"sess:{session.session_id}@{self.hostname}",
        )
        return {"accepted": True}

    def _run_session(self, session: InteractiveSessionSpec, gpu) -> Generator:
        spec = make_notebook_spec(self.image_registry,
                                  gpu_memory=session.gpu_memory)
        try:
            container = self.runtime.create(spec)
            yield self.runtime.start(container, (gpu,))
        except Exception as exc:
            yield from self._notify(
                "session-update",
                {"session_id": session.session_id, "result": "failed-to-start",
                 "reason": repr(exc), "node_id": self.node.node_id},
            )
            return
        executor = InteractiveExecutor(self.env, session, container,
                                       self.runtime, gpu)
        executor.process = self.env.process(executor.run(),
                                            name=f"nb:{session.session_id}")
        self._executions[session.session_id] = executor
        try:
            result = yield executor.process
        except Exception:
            result = "interrupted"
        self._executions.pop(session.session_id, None)
        yield from self._notify(
            "session-update",
            {"session_id": session.session_id, "result": result,
             "node_id": self.node.node_id},
        )

    def _handle_migrate_away(self, payload: dict) -> dict:
        """Coordinator asks us to release one job (migrate-back path)."""
        job_id = payload["job_id"]
        executor = self._executions.get(job_id)
        if executor is None or executor.process is None:
            return {"accepted": False, "reason": "job not running here"}
        executor.process.interrupt({"kind": "graceful"})
        return {"accepted": True}

    def _handle_terminate(self, payload: dict) -> dict:
        """Coordinator (on the user's behalf) cancels a workload."""
        job_id = payload["job_id"]
        executor = self._executions.get(job_id)
        if executor is None or executor.process is None:
            return {"accepted": False, "reason": "job not running here"}
        executor.process.interrupt({"kind": "cancel"})
        return {"accepted": True}

    def _handle_status(self, payload: dict) -> dict:
        """Resource advertisement + availability snapshot.

        ``executions`` lists each live workload with its GPU — what a
        backup coordinator resyncing after a takeover needs to tell an
        adopted placement from a lost one.
        """
        return {
            "availability": self.kill_switch.state.value,
            "workloads": self.active_workloads,
            "node": self.node.describe(),
            "executions": [
                {
                    "workload_id": workload_id,
                    "kind": ("training"
                             if isinstance(executor, TrainingExecutor)
                             else "session"),
                    "gpu_uuid": executor.gpu.uuid,
                }
                for workload_id, executor in self._executions.items()
            ],
        }

    def _notify(self, method: str, payload: dict) -> Generator:
        """Best-effort RPC to the coordinator."""
        try:
            yield self.rpc.call(self.hostname, self.coordinator_hostname,
                                method, payload)
        except NetworkError:
            pass

    # -- provider verbs (the kill-switch in action) ----------------------------

    def pause(self) -> None:
        """Stop accepting new workloads (running ones continue)."""
        self.kill_switch.pause()
        self.env.process(
            self._notify("node-status", {"node_id": self.node.node_id,
                                         "status": "paused"}),
            name=f"notify-pause:{self.hostname}",
        )

    def resume(self) -> None:
        """Accept workloads again after a pause."""
        self.kill_switch.resume()
        self.env.process(
            self._notify("node-status", {"node_id": self.node.node_id,
                                         "status": "available"}),
            name=f"notify-resume:{self.hostname}",
        )

    def graceful_departure(self, grace: Optional[float] = None):
        """Scheduled departure: checkpoint window, then leave.

        Returns the departure process (fires when the node is gone).
        """
        self.last_departure_kind = "scheduled"
        return self.env.process(self._graceful_departure(grace),
                                name=f"departure:{self.hostname}")

    def _graceful_departure(self, grace: Optional[float]) -> Generator:
        grace = self.config.departure_grace_period if grace is None else grace
        self.kill_switch.begin_departure()
        yield from self._notify("departing", {"node_id": self.node.node_id})
        for executor in list(self._executions.values()):
            if executor.process is not None and executor.process.is_alive:
                executor.process.interrupt({"kind": "graceful"})
        deadline = self.env.now + grace
        while self._executions and self.env.now < deadline:
            yield self.env.timeout(min(1.0, deadline - self.env.now))
        # Grace expired: anything still here dies with the node.
        for container in self.runtime.running_containers():
            self.runtime.kill(container)
        yield from self._notify("departed", {"node_id": self.node.node_id})
        self.kill_switch.mark_departed()
        self._disconnect()

    def emergency_departure(self, kind: str = "emergency") -> None:
        """Immediate disconnection: no checkpoint, no notification.

        ``kind`` is accounting metadata for the experiments
        ("emergency" vs "temporary"); nothing on the wire differs.
        """
        self.last_departure_kind = kind
        self.kill_switch.begin_departure()
        for executor in list(self._executions.values()):
            if executor.process is not None and executor.process.is_alive:
                executor.process.interrupt({"kind": "emergency"})
        for container in self.runtime.running_containers():
            self.runtime.kill(container)
        self._executions.clear()
        self.kill_switch.mark_departed()
        self._disconnect()
        if self.on_silent_departure is not None:
            self.on_silent_departure(self.node.node_id)

    def _disconnect(self) -> None:
        self.network.kill_host_flows(self.hostname, reason="provider departed")
        self.lan.set_connected(self.hostname, False)
        self.rpc.unbind(self.hostname)

    def reconnect(self):
        """Return to the platform after any departure.

        Re-attaches the LAN port, rebinds the API server, and
        re-registers (token rotates).  Returns the registration event.
        """
        self.lan.set_connected(self.hostname, True)
        self._bind_endpoint()
        return self.register()
