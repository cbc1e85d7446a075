"""Unit tests for the reservation and centralized baselines."""

import pytest

from repro.baselines import (
    CentralizedOrchestrator,
    ReservationSystem,
    gpunion_is_strictly_lightest,
    quantitative_proxies,
    table1_matrix,
)
from repro.gpu import GPUNode, RTX_3090
from repro.sim import Environment, RngStreams
from repro.units import HOUR
from repro.workloads import RESNET50, TrainingJobSpec, next_job_id
from repro.scenarios import PlannedJob


def job_spec(compute=2 * HOUR):
    return TrainingJobSpec(job_id=next_job_id(), model=RESNET50,
                           total_compute=compute)


def arrival(at, compute):
    return PlannedJob(at, "campus", job_spec(compute=compute))


# -- reservation system ----------------------------------------------------


def make_reservation(padding=2.0, waits=1.0):
    env = Environment()
    system = ReservationSystem(env, RngStreams(2),
                               walltime_padding=padding,
                               provider_waits_probability=waits)
    node = GPUNode(env, "srv", [RTX_3090], owner_lab="lab")
    system.add_node(node)
    return env, system, node


def test_reservation_completes_but_holds_gpu():
    env, system, node = make_reservation(padding=2.0)
    system.play_trace([arrival(0.0, 2 * HOUR)])
    env.run(until=24 * HOUR)
    record = system.records[0]
    assert record.outcome == "completed"
    # The padded tail held the GPU idle for as long again.
    assert record.reserved_idle == pytest.approx(2 * HOUR)
    assert system.reserved_idle_total() == pytest.approx(2 * HOUR)


def test_reservation_queues_behind_padding():
    env, system, node = make_reservation(padding=2.0)
    system.play_trace([
        arrival(0.0, 2 * HOUR),
        arrival(1.0, 1 * HOUR),
    ])
    env.run(until=48 * HOUR)
    first, second = system.records
    # The second job could not start until the padded reservation ended.
    assert second.started_at >= 4 * HOUR - 1
    assert second.outcome == "completed"


def test_reservation_padding_validation():
    env = Environment()
    with pytest.raises(ValueError):
        ReservationSystem(env, RngStreams(1), walltime_padding=0.5)


def test_provider_reclaim_kills_or_waits():
    env, system, node = make_reservation(waits=0.0)  # never waits
    system.play_trace([arrival(0.0, 8 * HOUR)])
    env.run(until=2 * HOUR)
    violations = system.provider_reclaim(node)
    assert len(violations) == 1
    assert violations[0].resolution == "job-killed"
    assert violations[0].wasted_work == pytest.approx(2 * HOUR)
    assert system.records[0].outcome == "killed"


def test_provider_reclaim_waits_when_patient():
    env, system, node = make_reservation(waits=1.0)  # always waits
    system.play_trace([arrival(0.0, 8 * HOUR)])
    env.run(until=2 * HOUR)
    violations = system.provider_reclaim(node)
    assert violations[0].resolution == "provider-waited"
    assert violations[0].wasted_work == 0.0


def test_reclaim_idle_node_no_violation():
    env, system, node = make_reservation()
    assert system.provider_reclaim(node) == []


# -- centralized orchestrator ----------------------------------------------


def make_centralized():
    env = Environment()
    orchestrator = CentralizedOrchestrator(env, restart_latency=60.0)
    node_a = GPUNode(env, "a", [RTX_3090])
    node_b = GPUNode(env, "b", [RTX_3090])
    orchestrator.add_node(node_a)
    orchestrator.add_node(node_b)
    return env, orchestrator, node_a, node_b


def test_pod_completes_without_churn():
    env, orch, a, b = make_centralized()
    record = orch.submit(job_spec(compute=2 * HOUR))
    env.run(until=12 * HOUR)
    assert record.is_done
    assert record.restarts == 0
    assert orch.total_wasted_work() == 0.0


def test_node_loss_restarts_from_scratch():
    env, orch, a, b = make_centralized()
    record = orch.submit(job_spec(compute=4 * HOUR))
    env.run(until=2 * HOUR)
    hosting = a if any(gpu.owners for gpu in a.gpus) else b
    killed = orch.node_departed(hosting)
    assert killed == 1
    env.run(until=24 * HOUR)
    assert record.is_done
    assert record.restarts == 1
    # All pre-departure progress was discarded.
    assert record.wasted_work == pytest.approx(2 * HOUR, rel=0.05)


def test_downed_node_not_scheduled_until_return():
    env, orch, a, b = make_centralized()
    orch.node_departed(a)
    orch.node_departed(b)
    record = orch.submit(job_spec(compute=1 * HOUR))
    env.run(until=4 * HOUR)
    assert not record.is_done
    orch.node_returned(a)
    env.run(until=12 * HOUR)
    assert record.is_done


# -- Table 1 ------------------------------------------------------------------


def test_table1_shape():
    matrix = table1_matrix()
    assert matrix[0] == ["Platform", "OpenStack", "CloudStack",
                         "OpenNebula", "Kubernetes", "GPUnion"]
    assert len(matrix) == 13  # header + 12 dimensions
    labels = [row[0] for row in matrix[1:]]
    assert "Provider Autonomy" in labels
    assert "Fault Tolerance Model" in labels


def test_quantitative_proxies_back_the_qualitative_rows():
    rows = quantitative_proxies()
    assert len(rows) == 4
    assert gpunion_is_strictly_lightest()
