"""Unit tests for the manual-coordination baseline."""

import pytest

from repro.baselines import ManualCoordinationSimulation
from repro.scenarios import PlannedJob, PlannedSession
from repro.gpu import GPUNode, RTX_3090, RTX_4090
from repro.sim import Environment, RngStreams
from repro.units import GIB, HOUR
from repro.workloads import (
    InteractiveSessionSpec,
    RESNET50,
    TrainingJobSpec,
    next_job_id,
    next_session_id,
)


def make_sim(borrow=0.0, session_borrow=0.0):
    env = Environment()
    sim = ManualCoordinationSimulation(
        env, RngStreams(1),
        borrow_probability=borrow,
        session_borrow_probability=session_borrow,
    )
    sim.add_lab_server(GPUNode(env, "rich-1", [RTX_3090], owner_lab="rich"))
    sim.add_lab_server(GPUNode(env, "rich-2", [RTX_4090], owner_lab="rich"))
    return env, sim


def job(lab, compute=2 * HOUR, at=0.0):
    spec = TrainingJobSpec(job_id=next_job_id(), model=RESNET50,
                           total_compute=compute, lab=lab)
    return PlannedJob(at=at, site="campus", spec=spec)


def session(lab, at=0.0, duration=1 * HOUR):
    spec = InteractiveSessionSpec(session_id=next_session_id(), user="u",
                                  lab=lab, duration=duration)
    return PlannedSession(at=at, site="campus", spec=spec)


def test_own_lab_job_runs(env_sim=None):
    env, sim = make_sim()
    sim.play_trace([job("rich")])
    env.run(until=12 * HOUR)
    assert sim.jobs[0].outcome == "completed"
    assert sim.jobs[0].ran_on_lab == "rich"


def test_own_lab_jobs_queue_fifo():
    env, sim = make_sim()
    sim.play_trace([job("rich"), job("rich"), job("rich", at=1.0)])
    env.run(until=24 * HOUR)
    assert all(record.outcome == "completed" for record in sim.jobs)


def test_poor_lab_denied_without_borrowing():
    env, sim = make_sim(borrow=0.0)
    sim.play_trace([job("poor")])
    env.run(until=24 * HOUR)
    assert sim.jobs[0].outcome == "denied"
    assert len(sim.denied_jobs()) == 1


def test_poor_lab_borrows_with_probability_one():
    env, sim = make_sim(borrow=1.0)
    sim.play_trace([job("poor")])
    env.run(until=48 * HOUR)
    assert sim.jobs[0].outcome == "completed"
    assert sim.jobs[0].ran_on_lab == "rich"
    # Borrowing has coordination latency.
    assert sim.jobs[0].started_at > 0


def test_session_served_on_own_lab():
    env, sim = make_sim()
    sim.play_trace([session("rich")])
    env.run(until=4 * HOUR)
    assert len(sim.served_sessions()) == 1


def test_unaffiliated_session_denied_without_borrowing():
    env, sim = make_sim(session_borrow=0.0)
    sim.play_trace([session("")])
    env.run(until=4 * HOUR)
    assert len(sim.served_sessions()) == 0


def test_sessions_share_card_but_not_with_training():
    env, sim = make_sim()
    # A training job takes the 3090 exclusively; sessions co-locate on
    # the remaining card only.
    sim.play_trace([
        job("rich", compute=8 * HOUR),
        session("rich", at=60.0),
        session("rich", at=120.0),
    ])
    env.run(until=2 * HOUR)
    assert len(sim.served_sessions()) == 2
    served_on = {record.served_on for record in sim.served_sessions()}
    assert served_on == {"rich"}


def test_utilization_accounting():
    env, sim = make_sim()
    sim.play_trace([job("rich", compute=6 * HOUR)])
    env.run(until=12 * HOUR)
    # One of two GPUs busy ~6h (3090 reference speed) out of 12h.
    overall = sim.fleet_utilization(0, 12 * HOUR)
    assert 0.15 <= overall <= 0.35
    by_lab = sim.lab_utilization(0, 12 * HOUR)
    assert "rich" in by_lab


def test_empty_sim_utilization_zero():
    env = Environment()
    sim = ManualCoordinationSimulation(env, RngStreams(1))
    assert sim.fleet_utilization() == 0.0
