"""Reservation-based baseline (SLURM-style).

"Academic cluster systems like Slurm operate on reservation based
models that conflict with the spontaneous, revocable nature of campus
resource sharing" (§1).  This model captures the two costs of
reservations on volunteer hardware:

* **walltime padding** — users over-request to avoid eviction, so GPUs
  sit reserved-but-idle after jobs finish early;
* **autonomy violations** — a provider who wants their machine back
  mid-reservation must either wait (autonomy lost) or kill the job
  with no checkpoint (work lost).  Both are counted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional, Sequence

from ..gpu.device import GPUDevice
from ..gpu.node import GPUNode
from ..gpu.specs import speedup_over_reference
from ..sim import Environment, RngStreams
from ..workloads.training import TrainingJobSpec


@dataclass
class ReservationRecord:
    """One reservation through its life."""

    spec: TrainingJobSpec
    arrived_at: float
    walltime: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    outcome: str = "pending"  # "completed" | "killed" | "pending"
    reserved_idle: float = 0.0  # reserved-but-unused GPU seconds


@dataclass
class AutonomyViolation:
    """A provider wanted their machine during someone's reservation."""

    at: float
    node: str
    resolution: str  # "provider-waited" | "job-killed"
    wasted_work: float = 0.0


class ReservationSystem:
    """FCFS whole-GPU reservations with padded walltimes."""

    def __init__(
        self,
        env: Environment,
        streams: RngStreams,
        walltime_padding: float = 2.0,
        provider_waits_probability: float = 0.5,
    ):
        if walltime_padding < 1.0:
            raise ValueError("padding must be >= 1.0")
        self.env = env
        self.rng = streams.stream("reservation")
        self.walltime_padding = walltime_padding
        self.provider_waits_probability = provider_waits_probability
        self.nodes: List[GPUNode] = []
        self.records: List[ReservationRecord] = []
        self.violations: List[AutonomyViolation] = []
        self._queue: List[ReservationRecord] = []
        self._gpu_release_at: Dict[str, float] = {}
        self._running: Dict[str, ReservationRecord] = {}  # gpu uuid → record

    def add_node(self, node: GPUNode) -> None:
        """Enroll a server into the reservation pool."""
        self.nodes.append(node)

    def _free_gpu(self, memory: float, capability) -> Optional[GPUDevice]:
        for node in self.nodes:
            for gpu in node.gpus:
                if (gpu.uuid not in self._running
                        and gpu.memory_free >= memory
                        and gpu.spec.supports_capability(capability)):
                    return gpu
        return None

    def play_trace(self, trace: Sequence) -> None:
        """Schedule all planned training-job arrivals (anything with
        ``at`` and ``spec``; sessions unsupported — reservation systems
        are batch-oriented)."""
        for arrival in trace:
            if isinstance(arrival.spec, TrainingJobSpec):
                self.env.process(self._arrival(arrival),
                                 name=f"resv-arrival@{arrival.at}")

    def _arrival(self, arrival) -> Generator:
        yield self.env.timeout(arrival.at)
        record = ReservationRecord(spec=arrival.spec, arrived_at=self.env.now)
        self.records.append(record)
        self._queue.append(record)
        self._try_start()

    def _try_start(self) -> None:
        while self._queue:
            record = self._queue[0]
            model = record.spec.model
            gpu = self._free_gpu(model.gpu_memory,
                                 model.min_compute_capability)
            if gpu is None:
                return
            self._queue.pop(0)
            self.env.process(self._run(record, gpu),
                             name=f"resv-run:{record.spec.job_id}")

    def _run(self, record: ReservationRecord, gpu: GPUDevice) -> Generator:
        spec = record.spec
        speedup = speedup_over_reference(gpu.spec)
        actual = spec.total_compute / speedup
        record.walltime = actual * self.walltime_padding
        record.started_at = self.env.now
        self._running[gpu.uuid] = record
        owner = f"resv:{spec.job_id}"
        gpu.allocate_memory(owner, spec.model.gpu_memory)
        gpu.add_load(owner, spec.model.train_intensity)
        yield self.env.timeout(actual)
        gpu.remove_load(owner)
        record.finished_at = self.env.now
        record.outcome = "completed"
        # The reservation holds the GPU for the padded remainder.
        idle_tail = record.walltime - actual
        record.reserved_idle = idle_tail
        yield self.env.timeout(idle_tail)
        gpu.free_memory(owner)
        del self._running[gpu.uuid]
        self._try_start()

    def provider_reclaim(self, node: GPUNode) -> List[AutonomyViolation]:
        """A provider wants their machine back right now.

        Under reservations there is no graceful path: either the
        provider waits out the reservation (autonomy lost) or the job
        dies with all its un-checkpointed work (work lost).
        """
        outcomes = []
        for gpu in node.gpus:
            record = self._running.get(gpu.uuid)
            if record is None:
                continue
            if self.rng.random() < self.provider_waits_probability:
                violation = AutonomyViolation(
                    at=self.env.now, node=node.hostname,
                    resolution="provider-waited",
                )
            else:
                started = (record.started_at if record.started_at is not None
                           else self.env.now)
                elapsed = self.env.now - started
                violation = AutonomyViolation(
                    at=self.env.now, node=node.hostname,
                    resolution="job-killed", wasted_work=elapsed,
                )
                record.outcome = "killed"
            outcomes.append(violation)
            self.violations.append(violation)
        return outcomes

    # -- results -----------------------------------------------------------

    def reserved_idle_total(self) -> float:
        """GPU-seconds reserved but never computed on."""
        return sum(record.reserved_idle for record in self.records)

    def fleet_utilization(self, since: float = 0.0,
                          until: Optional[float] = None) -> float:
        """Campus-wide mean GPU utilization."""
        gpus = [gpu for node in self.nodes for gpu in node.gpus]
        if not gpus:
            return 0.0
        values = [gpu.average_utilization(since, until) for gpu in gpus]
        return sum(values) / len(values)
