"""WAN-partition resilience: exactly-once forwarding under link failure.

Every scenario here severs/heals links at adversarial moments of the
two-phase forward handshake and asserts the invariant the protocol
exists for: a job submitted once executes at most once federation-wide,
and no completion notice is permanently lost.
"""

import pytest

import handler_errors
from repro.errors import WanPartitionError
from repro.federation import (
    DelegationState,
    FederatedDeployment,
    FederationConfig,
    HostingState,
)
from repro.gpu.specs import RTX_3090, RTX_4090
from repro.units import GIB, HOUR, MINUTE
from repro.workloads.models import RESNET50
from repro.workloads.training import JobStatus, TrainingJobSpec, next_job_id


def _two_campuses(north_gpus, south_gpus, **config_kwargs):
    fed = FederatedDeployment(
        seed=3, federation_config=FederationConfig(**config_kwargs))
    north = fed.add_campus("north")
    south = fed.add_campus("south")
    fed.connect("north", "south")
    north.platform.add_provider("n-ws1", north_gpus, lab="vision")
    south.platform.add_provider("s-farm", south_gpus, lab="infra")
    return fed, north, south


def _job(compute=1 * HOUR, **kwargs):
    return TrainingJobSpec(job_id=next_job_id(), model=RESNET50,
                           total_compute=compute, **kwargs)


def _run_until(fed, condition, step, limit):
    """Deterministically step the sim until ``condition()`` holds."""
    while not condition() and fed.env.now < limit:
        fed.run(until=fed.env.now + step)
    assert condition(), f"condition never held by t={fed.env.now}"


def _completions(fed, job_id):
    """job-completed events for one job across every campus."""
    return sum(
        1 for handle in fed.sites.values()
        for event in handle.platform.events.of_kind("job-completed")
        if event.payload.get("job_id") == job_id
    )


# -- sever during checkpoint replication -----------------------------------

def test_sever_during_checkpoint_replication_requeues_safely():
    fed, north, south = _two_campuses([RTX_3090], [RTX_4090])
    fed.run(until=100)
    job = north.platform.submit_job(_job(
        compute=4 * HOUR, checkpoint_interval=10 * MINUTE))
    fed.run(until=1 * HOUR)
    assert job.checkpointed_progress > 0
    durable = job.checkpointed_progress
    # The only local provider vanishes; the requeued restore crosses
    # the WAN with its snapshot...
    north.platform.agents["n-ws1"].emergency_departure()
    # ...and the link dies mid-replication (during the commit pull).
    _run_until(fed, lambda: south.gateway.forward._inbound(job.job_id,
                                                   HostingState.COMMITTING),
               step=1.0, limit=3 * HOUR)
    fed.sever("north", "south")
    fed.run(until=fed.env.now + 60)
    # The host aborted without committing; the origin parked the
    # handshake as unknown instead of re-queuing blindly.
    assert south.platform.events.count("forward-commit-aborted") == 1
    assert job.job_id not in south.coordinator.jobs
    assert north.gateway.unresolved_delegations == 1
    assert north.platform.events.count("job-forward-unknown") == 1
    fed.heal("north", "south")
    fed.run(until=12 * HOUR)
    # Heal-time reconciliation probed the host, got the "absent"
    # guarantee, requeued, and the retried forward delivered the job.
    assert north.platform.events.count("job-forward-requeued") == 1
    assert job.status is JobStatus.COMPLETED
    assert _completions(fed, job.job_id) == 1
    assert south.platform.store_for(job.spec).has_checkpoint(job.job_id)
    # Only the remaining (non-durable) work was billed, once.
    assert fed.ledger.donated("south") == pytest.approx(
        (job.spec.total_compute - durable) / HOUR)
    assert fed.unresolved_count() == 0


# -- sever between host-commit and origin-ack ------------------------------

def test_sever_between_commit_and_ack_never_duplicates():
    fed, north, south = _two_campuses([RTX_3090], [RTX_4090])
    fed.run(until=100)
    blocker = north.platform.submit_job(_job(compute=6 * HOUR))
    fed.run(until=200)
    victim = north.platform.submit_job(_job(compute=1 * HOUR))
    # Step finely to the razor's edge: the host has committed (job
    # submitted to its coordinator) but the acknowledgement is still
    # in flight back to the origin.
    _run_until(fed, lambda: victim.job_id in south.coordinator.jobs,
               step=0.01, limit=2 * HOUR)
    assert north.gateway.forward.delegation(victim.job_id) is None
    fed.sever("north", "south")
    fed.run(until=fed.env.now + 60)
    # The old protocol re-queued here and ran the job twice.  Now the
    # origin holds it as unknown outcome: not in the local queue, not
    # marked declined.
    record = north.gateway.forward.delegation(victim.job_id)
    assert record.state is DelegationState.UNKNOWN
    assert north.coordinator.queue_pressure == 0
    fed.heal("north", "south")
    fed.run(until=24 * HOUR)
    # The status probe resolved the handshake; the single remote copy
    # finished and closed the origin's record.
    assert record.state is DelegationState.COMPLETED
    assert victim.status is JobStatus.COMPLETED
    assert _completions(fed, victim.job_id) == 1
    assert north.gateway.forward.forwarded_out == 1
    assert blocker.is_done
    assert fed.unresolved_count() == 0
    assert fed.audit() == []
    assert handler_errors.unexpected(fed) == {}


# -- heal-time reconciliation of a missed completion notice ----------------

def test_heal_redelivers_missed_completion_notice():
    fed, north, south = _two_campuses([RTX_3090], [RTX_4090])
    fed.run(until=100)
    blocker = north.platform.submit_job(_job(compute=8 * HOUR))
    fed.run(until=200)
    job = north.platform.submit_job(_job(compute=30 * MINUTE))
    _run_until(fed, lambda: north.gateway.forward.delegation(job.job_id),
               step=1.0, limit=2 * HOUR)
    fed.sever("north", "south")
    host_state = south.coordinator.jobs[job.job_id]
    _run_until(fed, lambda: host_state.is_done, step=60.0, limit=12 * HOUR)
    fed.run(until=fed.env.now + 10 * MINUTE)
    # The host finished behind the partition: the notice failed, the
    # origin's record is still open, and the notice stays registered.
    assert south.platform.events.count("job-complete-notify-failed") >= 1
    assert south.gateway.unacked_completion_count == 1
    assert job.status is JobStatus.MIGRATING
    assert not job.is_done
    healed_at = fed.env.now
    fed.heal("north", "south")
    fed.run(until=healed_at + 5 * MINUTE)
    # Heal-time reconciliation re-delivered it exactly once.
    assert south.gateway.unacked_completion_count == 0
    assert job.status is JobStatus.COMPLETED
    # Completion is stamped with the host's finish time, not the
    # re-delivery time after the heal.
    assert job.completed_at == host_state.completed_at
    assert job.completed_at < healed_at
    assert _completions(fed, job.job_id) == 1
    assert fed.unresolved_count() == 0


# -- cross-WAN cancellation ------------------------------------------------

def test_cancel_of_delegated_job_waits_out_partition():
    fed, north, south = _two_campuses([RTX_3090], [RTX_4090])
    fed.run(until=100)
    blocker = north.platform.submit_job(_job(compute=8 * HOUR))
    fed.run(until=200)
    job = north.platform.submit_job(_job(compute=6 * HOUR))
    _run_until(fed, lambda: north.gateway.forward.delegation(job.job_id),
               step=1.0, limit=2 * HOUR)
    fed.sever("north", "south")
    north.coordinator.cancel_job(job.job_id)
    assert job.status is JobStatus.CANCELLED
    assert north.gateway.pending_cancel_count == 1
    fed.run(until=fed.env.now + 20 * MINUTE)
    # Partitioned: the host cannot know yet and keeps computing.
    host_state = south.coordinator.jobs[job.job_id]
    assert host_state.status is JobStatus.RUNNING
    assert north.gateway.pending_cancel_count == 1
    fed.heal("north", "south")
    fed.run(until=fed.env.now + 10 * MINUTE)
    # The heal-kicked reconciliation delivered the cancel exactly once.
    assert host_state.status is JobStatus.CANCELLED
    assert not host_state.is_done
    assert north.gateway.pending_cancel_count == 0
    assert north.platform.events.count("job-cancel-delivered") == 1
    record = north.gateway.forward.delegation(job.job_id)
    assert record.state is DelegationState.CANCELLED
    # The GPU-hours south burned before the cancel landed are billed.
    assert fed.ledger.donated("south") > 0
    assert fed.audit() == []
    assert handler_errors.unexpected(fed) == {}
    assert _completions(fed, job.job_id) == 0
    assert fed.unresolved_count() == 0


# -- offer leg failures are always safe ------------------------------------

def test_offer_during_partition_reads_as_decline_and_retries():
    fed, north, south = _two_campuses([RTX_3090], [RTX_4090])
    fed.run(until=100)
    blocker = north.platform.submit_job(_job(compute=2 * HOUR))
    fed.run(until=200)
    fed.sever("north", "south")
    job = north.platform.submit_job(_job(compute=1 * HOUR))
    fed.run(until=fed.env.now + 5 * MINUTE)
    # The offer could not cross: safe decline, job parks locally.
    assert job.job_id not in south.coordinator.jobs
    assert north.gateway.forward.delegation(job.job_id) is None
    fed.heal("north", "south")
    fed.run(until=24 * HOUR)
    # After the heal (and backoff) the job ran somewhere, exactly once.
    assert job.status is JobStatus.COMPLETED
    assert _completions(fed, job.job_id) == 1
    assert fed.audit() == []
    assert handler_errors.unexpected(fed) == {}


# -- the acceptance scenario: flapping link, exactly-once ------------------

def test_flapping_wan_link_completes_every_job_exactly_once():
    from repro.federation import FaultSchedule

    fed, north, south = _two_campuses([RTX_3090], [RTX_4090] * 4)
    schedule = FaultSchedule.flapping(
        "north", "south", first_down=150.0, downtime=5 * MINUTE,
        uptime=5 * MINUTE, until=3 * HOUR)
    fed.inject_faults(schedule)
    fed.run(until=100)
    jobs = [north.platform.submit_job(_job(compute=1 * HOUR))
            for _ in range(6)]
    fed.run(until=24 * HOUR)
    # Every submitted job completed, exactly once, somewhere.
    for job in jobs:
        assert job.is_done, job.job_id
        assert job.status is JobStatus.COMPLETED
        assert _completions(fed, job.job_id) == 1
    # All reconciliation work drained; the standing invariants hold.
    assert fed.unresolved_count() == 0
    assert fed.audit() == []
    assert handler_errors.unexpected(fed) == {}
    # The flapping actually happened.
    assert north.platform.events.count("wan-link-severed") == len(
        schedule.windows)
    assert north.platform.events.count("wan-link-healed") == len(
        schedule.windows)


def test_transfer_on_severed_route_raises_wan_partition_error():
    fed, north, south = _two_campuses([RTX_3090], [RTX_4090])
    fed.sever("north", "south")
    with pytest.raises(WanPartitionError):
        fed.fabric.transfer("north", "south", 1 * GIB)
    fed.heal("north", "south")
    done = fed.fabric.transfer("north", "south", 1 * GIB)
    fed.run(until=1 * HOUR)
    assert done.ok


def test_bulk_checkpoint_survives_mid_transfer_sever():
    """The severed-route fix at deployment level: a checkpoint transfer
    between sites that remain reachable over an alternate WAN route
    migrates instead of dying, with its transferred bytes preserved."""
    fed = FederatedDeployment(seed=3)
    for name in ("origin", "hub", "backup"):
        fed.add_campus(name)
    fed.connect("origin", "hub", latency=0.010)
    fed.connect("hub", "backup", latency=0.010)
    fed.connect("origin", "backup", latency=0.060)
    # origin->backup routes via hub (20 ms beats 60 ms direct).
    done = fed.fabric.transfer("origin", "backup", 4 * GIB,
                               category="federation-checkpoint")
    fed.run(until=10.0)
    flow = next(f for f in fed.fabric.active_flows if f.dst == "backup")
    assert not done.triggered
    fed.sever("hub", "backup")
    # Reachability survives over the direct link; the flow re-pinned.
    assert [link.name for link in flow.links] == ["origin->backup"]
    assert flow.migrations == 1
    assert flow.transferred > 0
    flow_bytes_at_sever = flow.transferred
    assert fed.fabric.flows_migrated == 1
    fed.run(until=2 * HOUR)
    assert done.ok
    assert done.value.transferred == pytest.approx(4 * GIB)
    # The WAN meter saw every checkpoint byte exactly once across both
    # routes (plus gossip/RPC chatter, hence >=), and the direct link
    # carried the post-migration remainder.
    report = {entry["link"]: entry["bytes"]
              for entry in fed.wan_link_report(fed.env.now)}
    assert sum(report.values()) >= 4 * GIB
    assert report["origin->backup"] >= 4 * GIB - flow_bytes_at_sever
