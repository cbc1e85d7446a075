"""Tests for heterogeneous pipeline partitioning (§5.2 future work)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.partition import (
    ModelLayer,
    PipelinePlan,
    make_transformer_layers,
    partition_pipeline,
)
from repro.errors import SchedulingError
from repro.gpu import A100_40GB, RTX_2080TI, RTX_3090, RTX_4090, T4
from repro.units import GIB


def test_layer_validation():
    with pytest.raises(ValueError):
        ModelLayer("x", -1, 0, 1)
    with pytest.raises(ValueError):
        ModelLayer("x", 1, 1, 0)
    with pytest.raises(ValueError):
        make_transformer_layers(0)


def test_single_gpu_takes_all_layers():
    layers = make_transformer_layers(8, hidden=2048)
    plan = partition_pipeline(layers, [RTX_3090])
    assert len(plan.stages) == 1
    assert len(plan.stages[0].layers) == 8
    assert plan.fits()


def test_partition_covers_all_layers_once():
    layers = make_transformer_layers(24, hidden=4096)
    plan = partition_pipeline(layers, [RTX_3090, RTX_4090, A100_40GB])
    placed = [layer.name for stage in plan.stages for layer in stage.layers]
    assert placed == [layer.name for layer in layers]
    assert plan.fits()


def test_faster_gpu_gets_more_layers():
    layers = make_transformer_layers(30, hidden=2048)
    plan = partition_pipeline(layers, [RTX_3090, RTX_4090])
    by_gpu = {stage.gpu.model: len(stage.layers) for stage in plan.stages}
    assert by_gpu["NVIDIA GeForce RTX 4090"] > by_gpu["NVIDIA GeForce RTX 3090"]


def test_bottleneck_beats_naive_even_split():
    layers = make_transformer_layers(30, hidden=2048)
    gpus = [RTX_3090, RTX_4090]
    plan = partition_pipeline(layers, gpus)
    # Naive even split: 15 layers each; 3090 is the bottleneck.
    from repro.core.partition import StageAssignment
    naive = PipelinePlan(stages=(
        StageAssignment(0, RTX_3090, tuple(layers[:15])),
        StageAssignment(1, RTX_4090, tuple(layers[15:])),
    ))
    assert plan.bottleneck <= naive.bottleneck + 1e-9


def test_memory_constraint_forces_spill():
    # Layers too big for a T4 (16 GiB) alone must spill to the A100.
    layers = make_transformer_layers(40, hidden=4096)  # ~16 GiB of blocks
    plan = partition_pipeline(layers, [T4, A100_40GB])
    assert plan.fits()
    t4_stage = [s for s in plan.stages if s.gpu is T4]
    if t4_stage:
        assert t4_stage[0].memory_bytes <= T4.memory_bytes * 0.9


def test_infeasible_model_raises():
    huge = [ModelLayer(f"l{i}", 30 * GIB, 1 * GIB, 1.0) for i in range(4)]
    with pytest.raises(SchedulingError):
        partition_pipeline(huge, [RTX_2080TI, T4])


def test_no_gpus_raises():
    with pytest.raises(SchedulingError):
        partition_pipeline(make_transformer_layers(4), [])


def test_reliability_shifts_load_off_flaky_gpu():
    layers = make_transformer_layers(30, hidden=2048)
    gpus = [RTX_4090, RTX_4090]
    balanced = partition_pipeline(layers, gpus, reliabilities=[1.0, 1.0])
    skewed = partition_pipeline(layers, gpus, reliabilities=[1.0, 0.5])
    def layers_on(plan, index):
        for stage in plan.stages:
            if stage.gpu_index == index:
                return len(stage.layers)
        return 0
    assert layers_on(skewed, 1) < layers_on(balanced, 1)
    assert layers_on(skewed, 0) > layers_on(balanced, 0)


def test_parameter_validation():
    layers = make_transformer_layers(4)
    with pytest.raises(ValueError):
        partition_pipeline([], [RTX_3090])
    with pytest.raises(ValueError):
        partition_pipeline(layers, [RTX_3090], reliabilities=[1.0, 1.0])
    with pytest.raises(ValueError):
        partition_pipeline(layers, [RTX_3090], headroom=0)


@given(
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=1, max_value=4),
)
@settings(max_examples=30, deadline=None)
def test_partition_properties(num_layers, num_gpus):
    """Property: any feasible partition covers all layers contiguously,
    fits memory, and its bottleneck is at least total/Σthroughput."""
    layers = make_transformer_layers(num_layers, hidden=1024)
    gpus = [RTX_3090, RTX_4090, A100_40GB, T4][:num_gpus]
    plan = partition_pipeline(layers, gpus)
    placed = [layer.name for stage in plan.stages for layer in stage.layers]
    assert placed == [layer.name for layer in layers]
    assert plan.fits()
    from repro.gpu import speedup_over_reference
    total = sum(layer.compute_cost for layer in layers)
    capacity = sum(speedup_over_reference(gpu) for gpu in gpus)
    assert plan.bottleneck >= total / capacity - 1e-9


# -- network partitions: link-outage fault windows --------------------------

from repro.federation import FaultSchedule, FaultWindow, FederatedDeployment


def test_link_outage_validation():
    with pytest.raises(ValueError):
        FaultWindow("link", ("a", "a"), 0.0, 1.0)
    with pytest.raises(ValueError):
        FaultWindow("link", "ab", 0.0, 1.0)
    with pytest.raises(ValueError):
        FaultWindow("link", ("a", "b"), -1.0, 1.0)
    with pytest.raises(ValueError):
        FaultWindow("link", ("a", "b"), 0.0, 0.0)
    outage = FaultWindow("link", ("b", "a"), 5.0, 2.0)
    assert outage.target == ("a", "b")
    assert (outage.start, outage.duration) == (5.0, 2.0)


def test_flapping_schedule_is_periodic_and_bounded():
    schedule = FaultSchedule.flapping(
        "a", "b", first_down=10.0, downtime=5.0, uptime=15.0, until=60.0)
    starts = [o.start for o in schedule.windows]
    assert starts == [10.0, 30.0, 50.0]
    assert all(o.duration == 5.0 for o in schedule.windows)
    assert all(o.target == ("a", "b") for o in schedule.windows)
    assert schedule.total_downtime == 15.0
    with pytest.raises(ValueError):
        FaultSchedule.flapping("a", "b", 0.0, 0.0, 1.0, 10.0)


def _linked_pair():
    fed = FederatedDeployment(seed=3)
    fed.add_campus("a")
    fed.add_campus("b")
    fed.connect("a", "b")
    return fed


def test_inject_partitions_drives_sever_and_heal():
    fed = _linked_pair()
    log = []
    fed.wan.add_listener(lambda ev, a, b: log.append((fed.env.now, ev)))
    fed.inject_faults(FaultSchedule.flapping(
        "a", "b", first_down=10.0, downtime=5.0, uptime=15.0, until=40.0))
    fed.run(until=12.0)
    assert fed.wan.is_severed("a", "b")
    fed.run(until=16.0)
    assert not fed.wan.is_severed("a", "b")
    fed.run(until=100.0)
    assert log == [(10.0, "sever"), (15.0, "heal"),
                   (30.0, "sever"), (35.0, "heal")]


def test_overlapping_outages_nest_on_injection():
    fed = _linked_pair()
    fed.inject_faults(FaultSchedule(windows=(
        FaultWindow("link", ("a", "b"), 10.0, 20.0),  # heals at 30
        FaultWindow("link", ("a", "b"), 15.0, 5.0),   # nested, ends at 20
    )))
    fed.run(until=22.0)
    # The nested window lifted at t=20, but the outer one holds.
    assert fed.wan.is_severed("a", "b")
    fed.run(until=31.0)
    assert not fed.wan.is_severed("a", "b")


def test_merged_schedules_combine_outages():
    first = FaultSchedule.flapping("a", "b", 0.0, 1.0, 9.0, 20.0)
    second = FaultSchedule.flapping("a", "c", 5.0, 1.0, 9.0, 20.0)
    merged = first.merged(second)
    assert len(merged.windows) == len(first.windows) + len(second.windows)
    assert merged.windows == tuple(
        sorted(merged.windows, key=lambda o: (o.start, o.target, o.duration)))
