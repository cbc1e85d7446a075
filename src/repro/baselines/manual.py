"""Manual-coordination baseline (the pre-GPUnion campus).

"Prior to the deployment, all resources are managed through manual
coordination" (§4).  Concretely that means:

* each lab runs jobs only on its own servers, queueing FIFO when busy;
* labs without GPU servers (and unaffiliated students) must arrange
  access by hand — modelled as a low-probability, high-latency
  "borrowing" attempt against whatever happens to be idle elsewhere;
* nobody migrates or checkpoints, because nobody shares.

The result is the paper's motivating imbalance: rich labs idle, poor
labs starved, campus-wide utilization far below what the same demand
achieves under GPUnion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional, Sequence

from ..gpu.device import GPUDevice
from ..gpu.node import GPUNode
from ..gpu.specs import speedup_over_reference
from ..sim import Environment, RngStreams
from ..units import HOUR
from ..workloads.interactive import (
    InteractiveSessionSpec,
    SessionOutcome,
    SessionRecord,
)
from ..workloads.training import TrainingJobSpec


@dataclass
class ManualJobRecord:
    """Ledger entry for one job under manual coordination."""

    spec: TrainingJobSpec
    arrived_at: float
    outcome: str = "pending"  # "completed" | "denied" | "pending"
    started_at: Optional[float] = None
    completed_at: Optional[float] = None
    ran_on_lab: Optional[str] = None


class ManualCoordinationSimulation:
    """Runs a demand trace over a campus without any sharing platform.

    Parameters
    ----------
    borrow_probability:
        Chance a GPU-less request holder successfully arranges ad-hoc
        access to another lab's idle machine (email, favours).
    borrow_delay:
        Coordination latency before borrowed access materialises.
    session_borrow_probability:
        Borrow chance for interactive sessions (students rarely bother
        arranging cross-lab access for a two-hour debug session).
    """

    def __init__(
        self,
        env: Environment,
        streams: RngStreams,
        borrow_probability: float = 0.15,
        borrow_delay: float = 4 * HOUR,
        session_borrow_probability: float = 0.20,
    ):
        self.env = env
        self.rng = streams.stream("manual-coordination")
        self.borrow_probability = borrow_probability
        self.borrow_delay = borrow_delay
        self.session_borrow_probability = session_borrow_probability
        self.nodes_by_lab: Dict[str, List[GPUNode]] = {}
        self.jobs: List[ManualJobRecord] = []
        self.sessions: List[SessionRecord] = []
        self._lab_queues: Dict[str, List[ManualJobRecord]] = {}

    # -- topology ----------------------------------------------------------

    def add_lab_server(self, node: GPUNode) -> None:
        """Register a server under its owning lab."""
        self.nodes_by_lab.setdefault(node.owner_lab, []).append(node)
        self._lab_queues.setdefault(node.owner_lab, [])

    def all_gpus(self) -> List[GPUDevice]:
        """Every GPU on campus."""
        return [
            gpu
            for nodes in self.nodes_by_lab.values()
            for node in nodes
            for gpu in node.gpus
        ]

    def _free_gpu_in(self, lab: str, memory: float,
                     capability) -> Optional[GPUDevice]:
        for node in self.nodes_by_lab.get(lab, []):
            for gpu in node.gpus:
                if (not gpu.owners and gpu.memory_free >= memory
                        and gpu.spec.supports_capability(capability)):
                    return gpu
        return None

    def _free_gpu_anywhere(self, memory: float, capability,
                           excluding_lab: str) -> Optional[GPUDevice]:
        for lab in sorted(self.nodes_by_lab):
            if lab == excluding_lab:
                continue
            gpu = self._free_gpu_in(lab, memory, capability)
            if gpu is not None:
                return gpu
        return None

    # -- demand ------------------------------------------------------------

    def play_trace(self, trace: Sequence) -> None:
        """Schedule every planned arrival (anything with ``at`` and
        ``spec``, such as :class:`~repro.scenarios.PlannedJob` and
        :class:`~repro.scenarios.PlannedSession`)."""
        for arrival in trace:
            self.env.process(self._arrival(arrival),
                             name=f"manual-arrival@{arrival.at}")

    def _arrival(self, arrival) -> Generator:
        yield self.env.timeout(arrival.at)
        spec = arrival.spec
        if isinstance(spec, TrainingJobSpec):
            yield from self._handle_job(spec)
        elif isinstance(spec, InteractiveSessionSpec):
            yield from self._handle_session(spec)

    # -- jobs ---------------------------------------------------------------

    def _handle_job(self, spec: TrainingJobSpec) -> Generator:
        record = ManualJobRecord(spec=spec, arrived_at=self.env.now)
        self.jobs.append(record)
        model = spec.model
        own_gpu = self._free_gpu_in(spec.lab, model.gpu_memory,
                                    model.min_compute_capability)
        if own_gpu is not None:
            yield from self._run_job(record, own_gpu, spec.lab)
            return
        if self.nodes_by_lab.get(spec.lab):
            # The lab owns hardware: wait in the lab queue.
            self._lab_queues[spec.lab].append(record)
            return
        # No lab hardware: try to borrow, with friction.
        if self.rng.random() >= self.borrow_probability:
            record.outcome = "denied"
            return
        yield self.env.timeout(
            self.rng.expovariate(1 / self.borrow_delay)
        )
        gpu = self._free_gpu_anywhere(model.gpu_memory,
                                      model.min_compute_capability,
                                      excluding_lab=spec.lab)
        if gpu is None:
            record.outcome = "denied"
            return
        lab = self._lab_of(gpu)
        yield from self._run_job(record, gpu, lab)

    def _lab_of(self, gpu: GPUDevice) -> str:
        for lab, nodes in self.nodes_by_lab.items():
            for node in nodes:
                if gpu in node.gpus:
                    return lab
        return "unknown"

    def _run_job(self, record: ManualJobRecord, gpu: GPUDevice,
                 lab: str) -> Generator:
        spec = record.spec
        record.started_at = self.env.now
        record.ran_on_lab = lab
        owner = f"manual-job:{spec.job_id}"
        gpu.allocate_memory(owner, spec.model.gpu_memory)
        gpu.add_load(owner, spec.model.train_intensity)
        duration = spec.total_compute / speedup_over_reference(gpu.spec)
        yield self.env.timeout(duration)
        gpu.remove_load(owner)
        gpu.free_memory(owner)
        record.outcome = "completed"
        record.completed_at = self.env.now
        self._drain_lab_queue(lab)

    def _drain_lab_queue(self, lab: str) -> None:
        queue = self._lab_queues.get(lab)
        if not queue:
            return
        record = queue[0]
        model = record.spec.model
        gpu = self._free_gpu_in(lab, model.gpu_memory,
                                model.min_compute_capability)
        if gpu is None:
            return
        queue.pop(0)
        self.env.process(self._run_job(record, gpu, lab),
                         name=f"manual-queued:{record.spec.job_id}")

    # -- sessions -------------------------------------------------------------

    def _session_gpu_in(self, lab: str, memory: float) -> Optional[GPUDevice]:
        """A card a notebook may use: enough memory, no training on it.

        Notebooks share cards with other notebooks (bursty, low duty
        cycle) but never squat on a card a training job saturates —
        the same sharing rule GPUnion's scheduler applies.
        """
        for node in self.nodes_by_lab.get(lab, []):
            for gpu in node.gpus:
                if gpu.memory_free < memory:
                    continue
                if any(owner.startswith("manual-job:") for owner in gpu.owners):
                    continue
                return gpu
        return None

    def _session_gpu_anywhere(self, memory: float,
                              excluding_lab: str) -> Optional[GPUDevice]:
        for lab in sorted(self.nodes_by_lab):
            if lab == excluding_lab:
                continue
            gpu = self._session_gpu_in(lab, memory)
            if gpu is not None:
                return gpu
        return None

    def _handle_session(self, spec: InteractiveSessionSpec) -> Generator:
        requested_at = self.env.now
        gpu: Optional[GPUDevice] = None
        if spec.has_lab_gpus:
            gpu = self._session_gpu_in(spec.lab, spec.gpu_memory)
        if gpu is None:
            # Cross-lab borrowing for a debug session: rare.
            if self.rng.random() < self.session_borrow_probability:
                gpu = self._session_gpu_anywhere(spec.gpu_memory,
                                                 excluding_lab=spec.lab)
        if gpu is None:
            outcome = (SessionOutcome.DENIED_NO_CAPACITY
                       if spec.has_lab_gpus
                       else SessionOutcome.DENIED_NO_ACCESS)
            self.sessions.append(SessionRecord(
                spec=spec, requested_at=requested_at, outcome=outcome,
            ))
            return
        owner = f"manual:{spec.session_id}"
        gpu.allocate_memory(owner, spec.gpu_memory)
        gpu.add_load(owner, spec.utilization)
        record = SessionRecord(
            spec=spec, requested_at=requested_at,
            outcome=SessionOutcome.SERVED,
            served_on=self._lab_of(gpu), started_at=self.env.now,
        )
        self.sessions.append(record)
        yield self.env.timeout(spec.duration)
        gpu.remove_load(owner)
        gpu.free_memory(owner)
        record.ended_at = self.env.now

    # -- results ---------------------------------------------------------------

    def lab_utilization(self, since: float = 0.0,
                        until: Optional[float] = None) -> Dict[str, float]:
        """Per-lab mean GPU utilization."""
        result = {}
        for lab, nodes in self.nodes_by_lab.items():
            gpus = [gpu for node in nodes for gpu in node.gpus]
            if not gpus:
                continue
            values = [gpu.average_utilization(since, until) for gpu in gpus]
            result[lab] = sum(values) / len(values)
        return result

    def fleet_utilization(self, since: float = 0.0,
                          until: Optional[float] = None) -> float:
        """Campus-wide mean GPU utilization."""
        gpus = self.all_gpus()
        if not gpus:
            return 0.0
        values = [gpu.average_utilization(since, until) for gpu in gpus]
        return sum(values) / len(values)

    def served_sessions(self) -> List[SessionRecord]:
        """Sessions that actually got a GPU."""
        return [record for record in self.sessions if record.was_served]

    def denied_jobs(self) -> List[ManualJobRecord]:
        """Jobs that never found hardware."""
        return [record for record in self.jobs if record.outcome == "denied"]
