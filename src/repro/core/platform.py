"""The GPUnion platform facade — the library's main entry point.

Assembles every substrate (LAN, flows, RPC, registry, monitoring,
checkpointing) around one coordinator, and gives callers the small API
the paper promises users: add providers, submit jobs, request
interactive sessions, let providers pause/depart at will, and read the
results.

>>> from repro import GPUnionPlatform
>>> from repro.gpu import RTX_3090
>>> platform = GPUnionPlatform(seed=1)
>>> agent = platform.add_provider("ws1", [RTX_3090], lab="vision")
>>> platform.run(until=10.0)   # registration completes
>>> platform.coordinator.registry.count
1
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from ..checkpoint import (
    CheckpointEngine,
    FixedIntervalPolicy,
    YoungDalyPolicy,
)
from ..config import PlatformConfig
from ..containers import ImageRegistry
from ..gpu.node import GPUNode
from ..gpu.specs import GPUSpec
from ..monitoring import EventLog, SystemDatabase
from ..network import CampusLAN, FlowNetwork, RpcLayer, TrafficMeter
from ..sim import Environment, RngStreams
from ..storage import CheckpointStore, Volume
from ..units import GIB, gbps
from ..workloads.interactive import InteractiveSessionSpec
from ..workloads.training import TrainingJobSpec, TrainingJobState
from ..agent import BehaviorProfile, ProviderAgent, ProviderBehavior
from .coordinator import Coordinator

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..observability.trace import Tracer

#: Images every provider keeps warm (providers on a campus pull the
#: standard frameworks once and keep them cached).
COMMON_IMAGES = (
    "pytorch/pytorch:2.1-cuda12",
    "tensorflow/tensorflow:2.15-gpu",
    "jupyter/datascience-notebook:cuda12",
)


class GPUnionPlatform:
    """One campus GPUnion deployment, fully wired."""

    def __init__(
        self,
        seed: int = 0,
        config: Optional[PlatformConfig] = None,
        backbone_capacity: float = gbps(10),
        coordinator_hostname: str = "coordinator",
        registry_hostname: str = "registry",
        env: Optional[Environment] = None,
        tracer: Optional["Tracer"] = None,
        trace_site: Optional[str] = None,
    ):
        # Federated deployments run several campuses on one shared
        # clock; a standalone campus owns its environment.
        self.env = env if env is not None else Environment()
        self.streams = RngStreams(seed)
        self.config = config or PlatformConfig()
        self.lan = CampusLAN(backbone_capacity=backbone_capacity)
        self.network = FlowNetwork(self.env, self.lan)
        self.traffic = TrafficMeter(self.env, self.network)
        self.rpc = RpcLayer(self.env, self.network)
        self.images = ImageRegistry(hostname=registry_hostname)
        self.events = EventLog(self.env)
        self.db = SystemDatabase()
        self.engine = CheckpointEngine(self.env, self.network)

        self.lan.attach(coordinator_hostname, access_capacity=gbps(10))
        self.lan.attach(registry_hostname, access_capacity=gbps(10))
        self.coordinator_hostname = coordinator_hostname
        self._default_store = CheckpointStore(
            coordinator_hostname,
            Volume(self.env, f"{coordinator_hostname}-disk",
                   capacity=8192 * GIB),
        )
        self.stores: Dict[str, CheckpointStore] = {
            coordinator_hostname: self._default_store,
        }
        self.coordinator = Coordinator(
            env=self.env,
            hostname=coordinator_hostname,
            lan=self.lan,
            network=self.network,
            rpc=self.rpc,
            config=self.config,
            store_resolver=self.store_for,
            database=self.db,
            event_log=self.events,
        )
        if tracer is not None:
            self.coordinator.tracer = tracer
            if trace_site is not None:
                self.coordinator.trace_site = trace_site
        self.agents: Dict[str, ProviderAgent] = {}
        self.behaviors: Dict[str, ProviderBehavior] = {}

    # -- topology building ----------------------------------------------------

    def _checkpoint_policy(self):
        if self.config.checkpoint_policy == "young-daly":
            return YoungDalyPolicy()
        return FixedIntervalPolicy()

    def add_provider(
        self,
        hostname: str,
        gpu_specs: Sequence[GPUSpec],
        lab: str = "unassigned",
        access_capacity: float = gbps(1),
        warm_images: bool = True,
        register: bool = True,
        node: Optional[GPUNode] = None,
    ) -> ProviderAgent:
        """Attach a provider server and (optionally) register it."""
        self.lan.attach(hostname, access_capacity=access_capacity)
        if node is None:
            node = GPUNode(self.env, hostname, gpu_specs, owner_lab=lab)
        agent = ProviderAgent(
            env=self.env,
            node=node,
            lan=self.lan,
            network=self.network,
            rpc=self.rpc,
            image_registry=self.images,
            config=self.config,
            coordinator_hostname=self.coordinator_hostname,
            checkpoint_engine=self.engine,
            checkpoint_policy=self._checkpoint_policy(),
        )
        if warm_images:
            for reference in COMMON_IMAGES:
                agent.runtime.warm_cache(reference)
        if self.config.heartbeat_mode == "virtual":
            agent.on_silent_departure = self.coordinator.monitor.node_went_silent
        self.agents[hostname] = agent
        if register:
            agent.register()
        return agent

    def add_storage_host(
        self,
        hostname: str,
        capacity: float = 8192 * GIB,
        access_capacity: float = gbps(10),
    ) -> CheckpointStore:
        """Attach a dedicated storage node (lab NAS) with a store."""
        self.lan.attach(hostname, access_capacity=access_capacity)
        store = CheckpointStore(
            hostname, Volume(self.env, f"{hostname}-disk", capacity=capacity)
        )
        self.stores[hostname] = store
        return store

    def add_behavior(self, hostname: str,
                     profile: BehaviorProfile) -> ProviderBehavior:
        """Attach an interruption behaviour model to a provider."""
        agent = self.agents[hostname]
        behavior = ProviderBehavior(self.env, agent, profile, self.streams)
        behavior.start()
        self.behaviors[hostname] = behavior

        # Keep coordinator accounting labelled with the true class.
        original_emergency = agent.emergency_departure

        def labelled_emergency(kind: str = "emergency"):
            self.coordinator.note_departure_hint(agent.node.node_id, kind)
            original_emergency(kind=kind)

        agent.emergency_departure = labelled_emergency
        return behavior

    # -- user API ---------------------------------------------------------------

    @property
    def tracer(self) -> Optional["Tracer"]:
        """The causal tracer attached to this campus (``None`` = off)."""
        return self.coordinator.tracer

    def store_for(self, spec: TrainingJobSpec) -> CheckpointStore:
        """The checkpoint store a job's artifacts go to (§3.5:
        users may designate a specific node)."""
        if spec.storage_host and spec.storage_host in self.stores:
            return self.stores[spec.storage_host]
        return self._default_store

    def submit_job(self, spec: TrainingJobSpec) -> TrainingJobState:
        """Submit a training job to the coordinator."""
        return self.coordinator.submit_job(spec)

    def submit_session(self, spec: InteractiveSessionSpec) -> None:
        """Request an interactive notebook session."""
        self.coordinator.submit_session(spec)

    def run(self, until: Optional[float] = None) -> None:
        """Advance the simulation."""
        self.env.run(until=until)

    # -- measurement ----------------------------------------------------------------

    def provider_nodes(self) -> List[GPUNode]:
        """All provider host models."""
        return [agent.node for agent in self.agents.values()]

    def fleet_utilization(self, since: float = 0.0,
                          until: Optional[float] = None) -> float:
        """Mean GPU utilization across every provider GPU."""
        gpus = [gpu for node in self.provider_nodes() for gpu in node.gpus]
        if not gpus:
            return 0.0
        values = [gpu.average_utilization(since, until) for gpu in gpus]
        return sum(values) / len(values)

    def lab_utilization(self, since: float = 0.0,
                        until: Optional[float] = None) -> Dict[str, float]:
        """Mean GPU utilization per owning lab (Fig. 2's grouping)."""
        by_lab: Dict[str, List[float]] = {}
        for node in self.provider_nodes():
            for gpu in node.gpus:
                by_lab.setdefault(node.owner_lab, []).append(
                    gpu.average_utilization(since, until)
                )
        return {
            lab: sum(values) / len(values)
            for lab, values in by_lab.items()
        }
