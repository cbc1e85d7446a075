"""Coordinator HA: primary/backup takeover with state handoff.

The campus coordinator used to be the one immortal process in the
simulation.  These tests pin the new failure mode: killing the leading
replica stalls dispatch for exactly the failure-detection window, then
the backup takes over the shared durable state — adopting in-flight
dispatches, finalizing completions that reported into the void, and
requeuing the rest — without ever running a job twice.

Crash windows (``coordinator`` and ``gateway`` fault windows,
injectable like link outages) are unit-tested here too; the federated
chaos suite drives them end to end.
"""

import pytest

from repro import GPUnionPlatform, TrainingJobSpec
from repro.core import CoordinatorHA, FailoverConfig
from repro.federation import FaultSchedule, FaultWindow, FederatedDeployment
from repro.gpu import RTX_3090
from repro.observability.trace import Tracer
from repro.sim import Environment
from repro.units import HOUR, MINUTE
from repro.workloads import RESNET50, JobStatus, next_job_id


def _platform(seed=11, env=None, tracer=None):
    platform = GPUnionPlatform(seed=seed, env=env, tracer=tracer,
                               trace_site="campus")
    platform.add_provider("ws1", [RTX_3090], lab="vision")
    return platform


def _job(compute=1 * HOUR, **kwargs):
    return TrainingJobSpec(job_id=next_job_id(), model=RESNET50,
                           total_compute=compute, **kwargs)


def _run_until(platform, condition, step, limit):
    while not condition() and platform.env.now < limit:
        platform.run(until=platform.env.now + step)
    assert condition(), f"condition never held by t={platform.env.now}"


def _completed(platform, job_id):
    return sum(1 for event in platform.events.of_kind("job-completed")
               if event.payload.get("job_id") == job_id)


# -- config and schedule validation ----------------------------------------

def test_failover_config_validation():
    with pytest.raises(ValueError):
        FailoverConfig(heartbeat_interval=0.0)
    with pytest.raises(ValueError):
        FailoverConfig(missed_heartbeats=0)
    assert FailoverConfig(heartbeat_interval=2.0,
                          missed_heartbeats=4).detection_delay == 8.0


def test_control_plane_crash_validation():
    with pytest.raises(ValueError):
        FaultWindow("router", "north", 0.0, 1.0)
    with pytest.raises(ValueError):
        FaultWindow("gateway", "north", -1.0, 1.0)
    with pytest.raises(ValueError):
        FaultWindow("gateway", "north", 0.0, 0.0)
    with pytest.raises(ValueError):
        FaultWindow("coordinator", "", 0.0, 1.0)
    assert FaultWindow("gateway", "north", 10.0).duration is None


def test_control_plane_schedule_orders_and_queries():
    late = FaultWindow("gateway", "north", 30.0, 5.0)
    early = FaultWindow("coordinator", "south", 10.0, 20.0)
    schedule = FaultSchedule(windows=(late, early))
    assert schedule.windows == (early, late)
    assert schedule.total_downtime == 25.0
    outage = FaultWindow("link", ("north", "south"), 40.0, 1.0)
    merged = schedule.merged(FaultSchedule(windows=(outage,)))
    # Injection order: every link outage before any crash window.
    assert merged.windows == (outage, early, late)


def test_injector_drives_windows_and_skips_unknown_targets():
    fed = FederatedDeployment(seed=5)
    north = fed.add_campus("north")

    def gateway_log():
        return [(event.kind, event.timestamp)
                for event in north.platform.events.all()
                if event.kind.startswith("gateway-")]

    # A window for a site the deployment lacks is an error, and the
    # whole schedule is refused before anything is injected.
    with pytest.raises(ValueError, match="ghost"):
        fed.inject_faults(FaultSchedule(windows=(
            FaultWindow("gateway", "north", 10.0, 5.0),
            FaultWindow("coordinator", "ghost", 1.0, 1.0))))
    fed.run(until=30.0)
    assert gateway_log() == []
    assert fed.failover == {}
    fed.inject_faults(FaultSchedule(windows=(
        FaultWindow("gateway", "north", 40.0, 5.0),)))
    fed.run(until=60.0)
    assert gateway_log() == [("gateway-crashed", 40.0),
                             ("gateway-restarted", 45.0)]


# -- leader crash / takeover -----------------------------------------------

def test_leader_crash_backup_takes_over_and_resumes_dispatch():
    platform = _platform(seed=11)
    ha = CoordinatorHA(platform.env, platform.coordinator, site="campus")
    platform.run(until=60)
    assert ha.crash() == "a"
    assert ha.headless
    # The queue is durable shared state: submission works while the
    # campus is leaderless, the job just cannot dispatch yet.
    job = platform.submit_job(_job(compute=30 * MINUTE))
    platform.run(until=platform.env.now + ha.config.detection_delay - 1)
    assert job.status is JobStatus.PENDING
    platform.run(until=platform.env.now + 4 * HOUR)
    assert ha.takeovers == 1
    assert ha.leader == "b"
    assert ha.epoch == 2
    assert not ha.headless
    assert job.status is JobStatus.COMPLETED
    assert _completed(platform, job.job_id) == 1
    assert platform.events.count("coordinator-takeover") == 1
    assert platform.events.count("coordinator-resynced") == 1


def test_crash_mid_dispatch_never_runs_the_job_twice():
    platform = _platform(seed=12)
    ha = CoordinatorHA(platform.env, platform.coordinator, site="campus")
    platform.run(until=60)
    job = platform.submit_job(_job(compute=40 * MINUTE))
    # Step to the razor's edge: the dispatch RPC is in flight, its
    # lease journaled, the acceptance not yet processed.  The step is
    # finer than one LAN latency so the lease window cannot be
    # straddled by a single boundary.
    _run_until(platform,
               lambda: job.job_id in platform.coordinator._dispatch_leases,
               step=0.0002, limit=10 * MINUTE)
    ha.crash()
    platform.run(until=platform.env.now + 4 * HOUR)
    assert ha.takeovers == 1
    assert job.status is JobStatus.COMPLETED
    # Exactly once: the new leader adopted or requeued the leased
    # dispatch — it never both kept it and re-dispatched it.
    assert _completed(platform, job.job_id) == 1
    assert (platform.events.count("job-adopted")
            + platform.events.count("job-dispatched")) >= 1


def test_running_job_survives_leader_crash():
    platform = _platform(seed=13)
    ha = CoordinatorHA(platform.env, platform.coordinator, site="campus")
    job = platform.submit_job(_job(compute=1 * HOUR))
    _run_until(platform, lambda: job.status is JobStatus.RUNNING,
               step=1.0, limit=30 * MINUTE)
    ha.crash()
    platform.run(until=platform.env.now + 4 * HOUR)
    # The executor kept running on the provider throughout; the new
    # leader's resync recognised it instead of restarting it.
    assert job.status is JobStatus.COMPLETED
    assert _completed(platform, job.job_id) == 1


def test_completion_while_headless_is_finalized_on_restart():
    platform = _platform(seed=14)
    ha = CoordinatorHA(platform.env, platform.coordinator, site="campus")
    job = platform.submit_job(_job(compute=10 * MINUTE))
    _run_until(platform, lambda: job.status is JobStatus.RUNNING,
               step=1.0, limit=30 * MINUTE)
    # Kill the backup first (silent), then the leader: headless.
    assert ha.crash("b") == "b"
    assert ha.crash() == "a"
    assert ha.headless
    assert ha.live_replicas() == []
    # The job finishes while nobody is leading: its completion report
    # lands in the void.
    platform.run(until=platform.env.now + 2 * HOUR)
    before = _completed(platform, job.job_id)
    # A replica restarting into a headless campus leads immediately.
    assert ha.restart() == "a"
    assert not ha.headless
    assert ha.leader == "a"
    assert ha.epoch == 2
    platform.run(until=platform.env.now + 10 * MINUTE)
    assert job.status is JobStatus.COMPLETED
    assert _completed(platform, job.job_id) == before + 1 == 1


def test_backup_crash_is_invisible_to_the_campus():
    platform = _platform(seed=15)
    ha = CoordinatorHA(platform.env, platform.coordinator, site="campus")
    platform.run(until=60)
    assert ha.crash("b") == "b"
    assert ha.live_replicas() == ["a"]
    assert not ha.headless
    job = platform.submit_job(_job(compute=30 * MINUTE))
    platform.run(until=platform.env.now + 4 * HOUR)
    assert job.status is JobStatus.COMPLETED
    assert ha.takeovers == 0
    assert ha.epoch == 1
    # Crashing an already-dead replica (and reviving a live one) are
    # explicit no-ops.
    assert ha.crash("b") is None
    assert ha.restart("b") == "b"
    assert ha.restart("b") is None


def test_leader_restart_before_detection_supersedes_backup_takeover():
    platform = _platform(seed=16)
    config = FailoverConfig(heartbeat_interval=5.0, missed_heartbeats=3)
    ha = CoordinatorHA(platform.env, platform.coordinator,
                       config=config, site="campus")
    platform.run(until=60)
    ha.crash()
    # The old leader comes back *before* the backup's detection window
    # elapses: it leads again (a new incarnation, so still a new
    # epoch), and the scheduled detection must not double-fire.
    platform.run(until=platform.env.now + config.detection_delay / 3)
    assert ha.restart("a") == "a"
    assert ha.leader == "a"
    assert ha.takeovers == 1
    platform.run(until=platform.env.now + 2 * config.detection_delay)
    assert ha.takeovers == 1
    assert ha.epoch == 2


# -- failover epochs as trace spans ----------------------------------------

def test_failover_epochs_are_spans_in_the_ha_trace():
    env = Environment()
    tracer = Tracer(env)
    platform = _platform(seed=17, env=env, tracer=tracer)
    ha = CoordinatorHA(env, platform.coordinator, site="campus",
                       tracer=tracer)
    platform.run(until=60)
    ha.crash()
    platform.run(until=env.now + 60)
    spans = tracer.spans("ha:campus")
    assert [span.name for span in spans] == ["coordinator-epoch",
                                             "coordinator-epoch"]
    first, second = spans
    assert first.status == "failed-over" and not first.is_open
    assert second.is_open
    assert second.attrs["epoch"] == 2
    assert second.attrs["leader"] == "b"
    assert tracer.orphans("ha:campus") == []
