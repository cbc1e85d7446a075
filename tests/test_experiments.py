"""Smoke/shape tests for the experiment modules (short horizons)."""

import pytest

from repro.experiments import (
    campus_platform,
    manual_campus,
    paper_campus,
    run_scalability,
    run_training_impact,
)
from repro.experiments.network_traffic import run_network_traffic
from repro.gpu.specs import lookup
from repro.scenarios import compile_scenario
from repro.units import DAY, HOUR, gbps
from repro.workloads import TrainingJobSpec
from repro.workloads.interactive import InteractiveSessionSpec


def test_paper_fleet_matches_deployment():
    # 11 servers, 22 GPUs: 8×1×3090 + 8×4090 + 2×A100 + 4×A6000.
    spec = paper_campus(DAY)
    (site,) = spec.sites
    assert len(site.providers) == 11
    assert spec.total_gpus == 22
    counts = {}
    for provider in site.providers:
        for gpu in provider.gpus:
            model = lookup(gpu).model
            counts[model] = counts.get(model, 0) + 1
    assert counts["NVIDIA GeForce RTX 3090"] == 8
    assert counts["NVIDIA GeForce RTX 4090"] == 8
    assert counts["NVIDIA A100 40GB"] == 2
    assert counts["NVIDIA RTX A6000"] == 4


def test_campus_demand_trace_deterministic_and_mixed():
    spec = paper_campus(2 * DAY)
    first = compile_scenario(spec, seed=1)
    second = compile_scenario(spec, seed=1)
    trace_a = first.jobs + first.sessions
    trace_b = second.jobs + second.sessions
    assert len(trace_a) == len(trace_b)
    assert [a.at for a in trace_a] == [b.at for b in trace_b]
    kinds = {type(planned.spec) for planned in trace_a}
    assert TrainingJobSpec in kinds
    assert InteractiveSessionSpec in kinds
    # Compute-poor labs contribute jobs.
    labs = {planned.spec.lab for planned in first.jobs}
    assert "theory" in labs and "hci" in labs


def test_build_both_phases():
    spec = paper_campus(DAY)
    platform = campus_platform(compile_scenario(spec, seed=1))
    assert len(platform.agents) == 11
    # The multi-GPU servers sit on 10 Gbps, the workstations on 1 Gbps.
    assert platform.lan.port("gpu-farm").uplink.capacity == gbps(10)
    assert platform.lan.port("ws1").uplink.capacity == gbps(1)
    manual = manual_campus(spec, seed=1)
    assert len(manual.all_gpus()) == 22
    assert set(manual.nodes_by_lab) == {
        "vision", "nlp", "systems", "ml-infra", "bio", "robotics",
    }


def test_training_impact_zero_interruptions_is_baseline():
    rows = run_training_impact(seed=2, interruption_counts=(0, 2),
                               total_compute=4 * HOUR)
    zero = [row for row in rows if row.interruptions == 0]
    some = [row for row in rows if row.interruptions >= 1]
    assert zero and some
    for row in zero:
        assert abs(row.overhead) < 0.005
    for row in some:
        assert row.overhead > 0


def test_scalability_latency_monotone_before_knee():
    points = run_scalability(seed=1, node_counts=(25, 100, 300),
                             duration=5 * 60)
    assert points[0].mean_latency < points[2].mean_latency
    assert points[0].db_utilization < points[2].db_utilization


def test_network_traffic_incremental_smaller():
    results = run_network_traffic(seed=1, days=0.5)
    incremental = next(r for r in results if r.mode == "incremental")
    full = next(r for r in results if r.mode == "full-only")
    assert incremental.total_backup_bytes < full.total_backup_bytes
    assert incremental.total_backup_bytes > 0
