"""Model partitioning (§5.2 future work).

"Unlike homogeneous clusters, GPUnion deploys in campus networks, which
host a variety of GPU architectures whose memory capacity, compute
capability, and interconnect bandwidth differ substantially.  This
heterogeneity calls for new approaches to model partitioning, layer
placement, and load balancing that simultaneously respect hardware
constraints and the fluctuating availability of contributors."  This
module implements that pipeline-partitioning problem for GPUnion's
fleet: split a large model's layer sequence into contiguous stages,
one stage per available GPU, such that

* every stage's weights + activations fit its GPU's memory, and
* the pipeline bottleneck (max stage compute time, normalised by each
  GPU's throughput) is minimised,

with a reliability-aware variant that discounts volatile providers'
capacity so a flaky host never carries the heaviest stage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..errors import SchedulingError
from ..gpu.specs import GPUSpec, speedup_over_reference


@dataclass(frozen=True)
class ModelLayer:
    """One partitionable layer of a large model."""

    name: str
    weight_bytes: float
    activation_bytes: float
    compute_cost: float  # relative work units per forward+backward

    def __post_init__(self):
        if self.weight_bytes < 0 or self.activation_bytes < 0:
            raise ValueError("layer sizes must be non-negative")
        if self.compute_cost <= 0:
            raise ValueError("compute_cost must be positive")

    @property
    def memory_bytes(self) -> float:
        """Resident memory this layer needs on its stage."""
        return self.weight_bytes + self.activation_bytes


def make_transformer_layers(
    num_layers: int,
    hidden: int = 4096,
    bytes_per_param: float = 2.0,  # fp16 weights
) -> List[ModelLayer]:
    """Uniform decoder-block layer stack (a GPT-style model).

    Per block: ~12·hidden² parameters; activations scale with hidden.
    """
    if num_layers < 1:
        raise ValueError("num_layers must be >= 1")
    params = 12 * hidden * hidden
    weight = params * bytes_per_param
    activation = 48 * hidden * 1024 * 2.0  # sequence x hidden fp16 slices
    return [
        ModelLayer(f"block-{index}", weight, activation, compute_cost=1.0)
        for index in range(num_layers)
    ]


@dataclass(frozen=True)
class StageAssignment:
    """One pipeline stage placed on one GPU."""

    gpu_index: int
    gpu: GPUSpec
    layers: Tuple[ModelLayer, ...]
    reliability: float = 1.0

    @property
    def memory_bytes(self) -> float:
        """Stage working set."""
        return sum(layer.memory_bytes for layer in self.layers)

    @property
    def stage_time(self) -> float:
        """Relative wall time of this stage per micro-batch.

        Compute cost divided by the card's throughput, inflated by
        expected unavailability (a flaky host stalls the pipeline).
        """
        compute = sum(layer.compute_cost for layer in self.layers)
        throughput = speedup_over_reference(self.gpu) * max(self.reliability,
                                                            1e-6)
        return compute / throughput


@dataclass(frozen=True)
class PipelinePlan:
    """A complete partition of the model across the fleet."""

    stages: Tuple[StageAssignment, ...]

    @property
    def bottleneck(self) -> float:
        """Pipeline throughput is set by the slowest stage."""
        return max(stage.stage_time for stage in self.stages)

    @property
    def total_memory(self) -> float:
        """Model footprint across all stages."""
        return sum(stage.memory_bytes for stage in self.stages)

    def fits(self) -> bool:
        """Whether every stage respects its GPU's memory."""
        return all(stage.memory_bytes <= stage.gpu.memory_bytes
                   for stage in self.stages)


def partition_pipeline(
    layers: Sequence[ModelLayer],
    gpus: Sequence[GPUSpec],
    reliabilities: Optional[Sequence[float]] = None,
    headroom: float = 0.9,
) -> PipelinePlan:
    """Optimal contiguous partition of ``layers`` over ``gpus``.

    Minimises the pipeline bottleneck subject to per-stage memory
    limits (with ``headroom`` fraction of each card usable), via
    binary search over the bottleneck value with a greedy feasibility
    check — optimal for contiguous partitions because the feasibility
    predicate is monotone in the bottleneck bound.

    GPUs are used in the given order (stage i on gpus[i]); callers
    wanting the best *ordering* can sort by throughput first.  Raises
    :class:`SchedulingError` if no feasible partition exists.
    """
    if not layers:
        raise ValueError("no layers to place")
    if not gpus:
        raise SchedulingError("no GPUs available for pipeline placement")
    if reliabilities is None:
        reliabilities = [1.0] * len(gpus)
    if len(reliabilities) != len(gpus):
        raise ValueError("reliabilities must match gpus")
    if not 0 < headroom <= 1:
        raise ValueError("headroom must be in (0, 1]")

    def feasible(bound: float) -> Optional[List[Tuple[int, int]]]:
        """Greedy: pack layers into stages under time & memory bounds."""
        spans = []
        start = 0
        for index, gpu in enumerate(gpus):
            if start >= len(layers):
                spans.append((start, start))
                continue
            throughput = (speedup_over_reference(gpu)
                          * max(reliabilities[index], 1e-6))
            budget_time = bound * throughput
            budget_memory = gpu.memory_bytes * headroom
            end = start
            used_time = 0.0
            used_memory = 0.0
            while end < len(layers):
                layer = layers[end]
                if (used_time + layer.compute_cost > budget_time
                        or used_memory + layer.memory_bytes > budget_memory):
                    break
                used_time += layer.compute_cost
                used_memory += layer.memory_bytes
                end += 1
            if end == start and start < len(layers):
                # This GPU cannot take even one layer under the bound;
                # skip it (stage may be empty) only if memory is the
                # blocker for a single layer — otherwise tighten later.
                spans.append((start, start))
                continue
            spans.append((start, end))
            start = end
        return spans if start >= len(layers) else None

    # Binary search over the bottleneck value.
    total_cost = sum(layer.compute_cost for layer in layers)
    slowest = min(
        speedup_over_reference(gpu) * max(rel, 1e-6)
        for gpu, rel in zip(gpus, reliabilities)
    )
    low = 0.0
    high = total_cost / slowest + 1.0
    if feasible(high) is None:
        raise SchedulingError(
            "model does not fit on the available fleet (memory-bound)"
        )
    for _ in range(60):
        mid = (low + high) / 2
        if feasible(mid) is not None:
            high = mid
        else:
            low = mid
    spans = feasible(high)
    stages = []
    for index, (start, end) in enumerate(spans):
        if start == end:
            continue  # GPU unused
        stages.append(StageAssignment(
            gpu_index=index,
            gpu=gpus[index],
            layers=tuple(layers[start:end]),
            reliability=reliabilities[index],
        ))
    if not stages:
        raise SchedulingError("partition produced no stages")
    return PipelinePlan(stages=tuple(stages))
