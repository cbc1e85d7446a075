"""Container runtime: lifecycle, GPU passthrough, image cache.

The per-node runtime models what Docker + NVIDIA Container Toolkit do
for GPUnion: verify the image, pull missing layers from the campus
registry (a real network transfer), start the container with a strict
isolation policy, bind GPUs via ``NVIDIA_VISIBLE_DEVICES``, and enforce
lifecycle transitions (a container that was killed cannot be
"stopped gracefully" afterwards).

Lifecycle events are recorded with timestamps; the monitoring system
exports them as the "application metrics (container lifecycle events)"
from §3.5.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Dict, Generator, List, Optional, Tuple

from ..errors import ContainerError, InvalidTransitionError
from ..gpu.device import GPUDevice
from ..gpu.node import GPUNode
from ..network import FlowNetwork
from ..sim import Environment, Event
from .image import ContainerImage, ImageRegistry
from .isolation import IsolationPolicy, validate_host_support
from .spec import ContainerSpec

_container_ids = itertools.count(1)


class ContainerState(Enum):
    """Lifecycle states (a superset of Docker's, plus checkpointing)."""

    CREATED = "created"
    PULLING = "pulling"
    STARTING = "starting"
    RUNNING = "running"
    CHECKPOINTING = "checkpointing"
    STOPPED = "stopped"
    KILLED = "killed"
    FAILED = "failed"


#: Legal state transitions.
_TRANSITIONS = {
    ContainerState.CREATED: {ContainerState.PULLING, ContainerState.STARTING,
                             ContainerState.KILLED, ContainerState.FAILED},
    ContainerState.PULLING: {ContainerState.STARTING, ContainerState.KILLED,
                             ContainerState.FAILED},
    ContainerState.STARTING: {ContainerState.RUNNING, ContainerState.KILLED,
                              ContainerState.FAILED},
    ContainerState.RUNNING: {ContainerState.CHECKPOINTING, ContainerState.STOPPED,
                             ContainerState.KILLED, ContainerState.FAILED},
    ContainerState.CHECKPOINTING: {ContainerState.RUNNING, ContainerState.STOPPED,
                                   ContainerState.KILLED, ContainerState.FAILED},
    ContainerState.STOPPED: set(),
    ContainerState.KILLED: set(),
    ContainerState.FAILED: set(),
}

TERMINAL_STATES = (ContainerState.STOPPED, ContainerState.KILLED,
                   ContainerState.FAILED)


@dataclass(frozen=True)
class LifecycleEvent:
    """One recorded container state change."""

    container_id: str
    timestamp: float
    state: ContainerState


class Container:
    """A deployed workload container on one node."""

    def __init__(self, spec: ContainerSpec, image: ContainerImage,
                 node: GPUNode, policy: IsolationPolicy):
        self.container_id = f"ctr-{next(_container_ids):06d}"
        self.spec = spec
        self.image = image
        self.node = node
        self.policy = policy
        self.state = ContainerState.CREATED
        self.gpus: Tuple[GPUDevice, ...] = ()
        self.history: List[LifecycleEvent] = []

    @property
    def is_terminal(self) -> bool:
        """Whether the container has reached a final state."""
        return self.state in TERMINAL_STATES

    @property
    def visible_devices(self) -> str:
        """Value of ``NVIDIA_VISIBLE_DEVICES`` inside the container."""
        return ",".join(gpu.uuid for gpu in self.gpus) or "void"

    def _transition(self, new_state: ContainerState,
                    now: float) -> LifecycleEvent:
        if new_state not in _TRANSITIONS[self.state]:
            raise InvalidTransitionError(
                f"{self.container_id}: illegal transition "
                f"{self.state.value} -> {new_state.value}"
            )
        self.state = new_state
        event = LifecycleEvent(self.container_id, now, new_state)
        self.history.append(event)
        return event


class ContainerRuntime:
    """The Docker-equivalent daemon on one provider node.

    Parameters
    ----------
    start_latency:
        Seconds from image-ready to process-running (namespace setup,
        CUDA context creation); a couple of seconds on real hardware.
    """

    def __init__(
        self,
        env: Environment,
        node: GPUNode,
        registry: ImageRegistry,
        network: FlowNetwork,
        start_latency: float = 2.0,
        default_policy: Optional[IsolationPolicy] = None,
    ):
        self.env = env
        self.node = node
        self.registry = registry
        self.network = network
        self.start_latency = start_latency
        self.default_policy = default_policy or IsolationPolicy()
        self._image_cache: Dict[str, ContainerImage] = {}
        self.containers: Dict[str, Container] = {}
        self.lifecycle_log: List[LifecycleEvent] = []

    # -- image handling ----------------------------------------------------------

    def image_cached(self, reference: str) -> bool:
        """Whether an image's layers are already on local disk."""
        return reference in self._image_cache

    def warm_cache(self, reference: str) -> None:
        """Pre-seed the cache (providers typically keep common images)."""
        self._image_cache[reference] = self.registry.resolve(reference)

    # -- deployment ---------------------------------------------------------------

    def create(self, spec: ContainerSpec,
               policy: Optional[IsolationPolicy] = None) -> Container:
        """Verify the image and host, then create a container.

        Raises :class:`ImageVerificationError` on digest/allowlist
        failure and :class:`ContainerError` if the host cannot enforce
        the isolation policy or the policy is not strict.
        """
        image = self.registry.verify(spec.image_reference, spec.image_digest)
        chosen = policy or self.default_policy
        if not chosen.is_strict:
            raise ContainerError(
                "refusing to deploy with a non-strict isolation policy"
            )
        validate_host_support(self.node.facts, chosen)
        container = Container(spec, image, self.node, chosen)
        self.containers[container.container_id] = container
        self.lifecycle_log.append(LifecycleEvent(
            container.container_id, self.env.now, ContainerState.CREATED))
        return container

    def _transition(self, container: Container,
                    state: ContainerState) -> None:
        """Move ``container`` to ``state`` and log it: the container's
        history and :attr:`lifecycle_log` share the one event."""
        self.lifecycle_log.append(container._transition(state, self.env.now))

    def start(self, container: Container, gpus: Tuple[GPUDevice, ...]) -> Event:
        """Pull (if needed), bind GPUs, and start the container.

        Returns an event that fires with the container once RUNNING.
        GPU memory is allocated up front, mirroring frameworks that
        reserve their working set at startup.
        """
        if container.state is not ContainerState.CREATED:
            raise InvalidTransitionError(
                f"start() requires CREATED, container is {container.state.value}"
            )
        spec_gpu = container.spec.gpu
        if len(gpus) != spec_gpu.gpu_count:
            raise ContainerError(
                f"spec wants {spec_gpu.gpu_count} GPUs, got {len(gpus)}"
            )
        for gpu in gpus:
            if not gpu.spec.supports_capability(spec_gpu.min_compute_capability):
                raise ContainerError(
                    f"{gpu.uuid} below required compute capability "
                    f"{spec_gpu.min_compute_capability}"
                )
        return self.env.process(self._start(container, gpus),
                                name=f"start:{container.container_id}")

    def _start(self, container: Container, gpus: Tuple[GPUDevice, ...]) -> Generator:
        reference = container.spec.image_reference
        if not self.image_cached(reference):
            self._transition(container, ContainerState.PULLING)
            yield self.network.transfer(
                self.registry.hostname,
                self.node.hostname,
                container.image.size_bytes,
                category="image-pull",
            )
            self._image_cache[reference] = container.image
        self._transition(container, ContainerState.STARTING)
        for gpu in gpus:
            gpu.allocate_memory(container.container_id,
                                container.spec.gpu.memory_per_gpu)
        container.gpus = tuple(gpus)
        yield self.env.timeout(self.start_latency)
        self._transition(container, ContainerState.RUNNING)
        return container

    # -- lifecycle verbs -------------------------------------------------------------

    def begin_checkpoint(self, container: Container) -> None:
        """Move RUNNING → CHECKPOINTING (compute pauses)."""
        self._transition(container, ContainerState.CHECKPOINTING)

    def end_checkpoint(self, container: Container) -> None:
        """Move CHECKPOINTING → RUNNING (compute resumes)."""
        self._transition(container, ContainerState.RUNNING)

    def stop(self, container: Container) -> None:
        """Graceful stop: job finished or migrated away cleanly."""
        self._release_gpus(container)
        self._transition(container, ContainerState.STOPPED)

    def kill(self, container: Container) -> None:
        """Immediate termination (kill-switch path).

        Legal from any non-terminal state; idempotent on terminal
        containers so emergency paths never trip over races.
        """
        if container.is_terminal:
            return
        self._release_gpus(container)
        self._transition(container, ContainerState.KILLED)

    def fail(self, container: Container, reason: str = "") -> None:
        """Mark a container crashed (host fault, OOM, ...)."""
        if container.is_terminal:
            return
        self._release_gpus(container)
        self._transition(container, ContainerState.FAILED)

    def _release_gpus(self, container: Container) -> None:
        for gpu in container.gpus:
            if container.container_id in gpu.owners:
                gpu.free_memory(container.container_id)
            gpu.remove_load(container.container_id)

    # -- queries ---------------------------------------------------------------------

    def running_containers(self) -> List[Container]:
        """Containers currently in RUNNING or CHECKPOINTING state."""
        live = (ContainerState.RUNNING, ContainerState.CHECKPOINTING)
        return [c for c in self.containers.values() if c.state in live]
