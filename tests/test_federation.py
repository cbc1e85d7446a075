"""Federation: ledger conservation, forwarding policy, cross-site flows."""

import pytest

from repro.experiments import run_federation
from repro.federation import (
    CapacityDigest,
    CreditLedger,
    DelegationState,
    FederatedDeployment,
    FederationConfig,
    ForwardingPolicy,
)
from repro.gpu.specs import A100_40GB, RTX_3090, RTX_4090
from repro.network import FlowNetwork, WanTopology
from repro.sim import Environment
from repro.units import GIB, HOUR, MINUTE
from repro.workloads import TrainingJobSpec
from repro.workloads.models import RESNET50, WorkloadModel
from repro.workloads.training import JobStatus, next_job_id


# -- credit ledger ---------------------------------------------------------

def test_ledger_conservation_and_balances():
    ledger = CreditLedger()
    ledger.register_site("a")
    ledger.record_donation("b", "a", 4.0, job_id="j1", at=10.0)
    ledger.record_donation("c", "a", 2.0, job_id="j2", at=20.0)
    ledger.record_donation("a", "c", 1.5, job_id="j3", at=30.0)
    assert ledger.balance("a") == pytest.approx(1.5 - 6.0)
    assert ledger.balance("b") == pytest.approx(4.0)
    assert ledger.balance("c") == pytest.approx(2.0 - 1.5)
    assert ledger.total() == pytest.approx(0.0)
    assert ledger.donated("b") == pytest.approx(4.0)
    assert ledger.consumed("a") == pytest.approx(6.0)
    assert len(ledger.entries) == 3


def test_ledger_rejects_bad_entries():
    ledger = CreditLedger()
    with pytest.raises(ValueError):
        ledger.record_donation("a", "a", 1.0, job_id="j", at=0.0)
    with pytest.raises(ValueError):
        ledger.record_donation("a", "b", -1.0, job_id="j", at=0.0)


# -- forwarding policy -----------------------------------------------------

def _digest(site, free_gpus=2, max_free=24 * GIB, pressure=0, at=100.0,
            capability=(8, 6)):
    return CapacityDigest(site=site, free_gpus=free_gpus,
                          free_cards=((max_free, capability),),
                          queue_pressure=pressure, advertised_at=at)


def _request(memory=6 * GIB):
    model = WorkloadModel(
        name="probe", family="cnn", parameters=1e7, gpu_memory=memory,
        state_bytes=1 * GIB, dirty_fraction=0.5)
    spec = TrainingJobSpec(job_id=next_job_id(), model=model,
                           total_compute=1 * HOUR)
    from repro.core.messages import RequestKind, ResourceRequest
    return ResourceRequest(kind=RequestKind.TRAINING, training=spec)


def _policy_world():
    env = Environment()
    wan = WanTopology()
    wan.connect("a", "b", latency=0.010)
    wan.connect("a", "c", latency=0.010)
    fabric = FlowNetwork(env, wan)
    return env, wan, fabric, ForwardingPolicy(FederationConfig()), CreditLedger()


def test_policy_hard_filters():
    env, wan, fabric, policy, ledger = _policy_world()
    request = _request(memory=30 * GIB)
    digests = {
        "b": _digest("b", free_gpus=0),                    # no free card
        "c": _digest("c", max_free=24 * GIB),              # too small
        "d": _digest("d", at=-1000.0),                     # stale
        "e": _digest("e", pressure=9),                     # saturated
    }
    assert policy.choose("a", request, digests, wan, fabric,
                         ledger, now=120.0) is None


def test_policy_requires_one_card_satisfying_both_floors():
    # A big-memory old card plus a small-memory new card must not
    # masquerade as one big new card.
    env, wan, fabric, policy, ledger = _policy_world()
    digests = {"b": CapacityDigest(
        site="b", free_gpus=2,
        free_cards=((40 * GIB, (8, 0)), (24 * GIB, (8, 9))),
        queue_pressure=0, advertised_at=100.0)}
    model = WorkloadModel(
        name="wide-ampere", family="transformer", parameters=2e9,
        gpu_memory=32 * GIB, state_bytes=8 * GIB, dirty_fraction=0.3,
        min_compute_capability=(8, 6))
    spec = TrainingJobSpec(job_id=next_job_id(), model=model,
                           total_compute=1 * HOUR)
    from repro.core.messages import RequestKind, ResourceRequest
    request = ResourceRequest(kind=RequestKind.TRAINING, training=spec)
    assert policy.choose("a", request, digests, wan, fabric,
                         ledger, now=120.0) is None
    # Either floor alone is satisfiable — only the conjunction fails.
    assert digests["b"].fits(32 * GIB, (8, 0))
    assert digests["b"].fits(6 * GIB, (8, 6))


def test_policy_fairness_prefers_site_owing_credits():
    env, wan, fabric, policy, ledger = _policy_world()
    # b is already a big net donor; c owes the federation.
    ledger.record_donation("b", "c", 10.0, job_id="j", at=0.0)
    digests = {"b": _digest("b"), "c": _digest("c")}
    chosen = policy.choose("a", _request(), digests, wan, fabric,
                           ledger, now=120.0)
    assert chosen == "c"


def test_policy_hotspot_penalty_steers_around_congested_route():
    env, wan, fabric, policy, ledger = _policy_world()
    # Saturate the a->b route with bulk flows.
    fabric.transfer("a", "b", 50 * GIB)
    fabric.transfer("a", "b", 50 * GIB)
    fabric.transfer("a", "b", 50 * GIB)
    digests = {"b": _digest("b", free_gpus=3), "c": _digest("c", free_gpus=2)}
    chosen = policy.choose("a", _request(), digests, wan, fabric,
                           ledger, now=120.0)
    assert chosen == "c"


# -- two-campus integration ------------------------------------------------

def _two_campuses(north_gpus, south_gpus, **config_kwargs):
    fed = FederatedDeployment(
        seed=3, federation_config=FederationConfig(**config_kwargs))
    north = fed.add_campus("north")
    south = fed.add_campus("south")
    fed.connect("north", "south")
    north.platform.add_provider("n-ws1", north_gpus, lab="vision")
    south.platform.add_provider("s-farm", south_gpus, lab="infra")
    return fed, north, south


def test_forwarding_when_local_queue_saturated():
    fed, north, south = _two_campuses([RTX_3090], [RTX_4090] * 4)
    fed.run(until=100)  # a gossip round populates peer digests
    jobs = [
        north.platform.submit_job(TrainingJobSpec(
            job_id=next_job_id(), model=RESNET50, total_compute=1 * HOUR))
        for _ in range(4)
    ]
    fed.run(until=12 * HOUR)
    assert all(job.is_done for job in jobs)
    assert north.gateway.forward.forwarded_out == 3
    assert south.gateway.forward.forwarded_in == 3
    # Provenance: the host coordinator knows where the work came from.
    arrivals = south.platform.events.of_kind("job-forwarded-in")
    assert {event.payload["origin"] for event in arrivals} == {"north"}
    # Credits settled: south donated, north consumed, sum conserved.
    assert fed.ledger.balance("south") == pytest.approx(3.0)
    assert fed.ledger.balance("north") == pytest.approx(-3.0)
    assert fed.ledger.total() == pytest.approx(0.0)
    # Each forward shipped the job's dataset across the WAN.
    assert fed.wan_bytes() > 3 * jobs[0].spec.dataset_bytes


def test_forwarding_when_no_local_gpu_passes_filters():
    # North's only card is 24 GB; the job needs 32 GB — south's A100
    # is the only fit, so the job crosses the WAN with north idle.
    fed, north, south = _two_campuses([RTX_3090], [A100_40GB])
    fed.run(until=100)
    big_model = WorkloadModel(
        name="wide-net", family="transformer", parameters=2e9,
        gpu_memory=32 * GIB, state_bytes=8 * GIB, dirty_fraction=0.3)
    job = north.platform.submit_job(TrainingJobSpec(
        job_id=next_job_id(), model=big_model, total_compute=1 * HOUR))
    fed.run(until=12 * HOUR)
    assert job.is_done
    assert job.status is JobStatus.COMPLETED
    assert north.gateway.forward.forwarded_out == 1
    assert south.coordinator.jobs[job.job_id].is_done


def test_peer_declines_when_saturated_and_job_stays_local():
    fed, north, south = _two_campuses(
        [RTX_3090], [RTX_4090], forward_retry_backoff=1e9)
    fed.run(until=70)  # digests gossiped at t=60 show south free
    # Saturate both campuses after the gossip round.
    south_jobs = [
        south.platform.submit_job(TrainingJobSpec(
            job_id=next_job_id(), model=RESNET50, total_compute=2 * HOUR))
        for _ in range(2)
    ]
    north_jobs = [
        north.platform.submit_job(TrainingJobSpec(
            job_id=next_job_id(), model=RESNET50, total_compute=1 * HOUR))
        for _ in range(2)
    ]
    fed.run(until=24 * HOUR)
    # North offered its surplus job on the stale digest; south's live
    # admission check refused, and the job ran at home once the local
    # card freed up (the huge backoff forbids a second offer).
    assert north.gateway.forward.declined >= 1
    assert north.platform.events.count("job-forward-declined") >= 1
    assert south.gateway.forward.forwarded_in == 0
    assert all(job.is_done for job in north_jobs + south_jobs)
    assert fed.ledger.total() == pytest.approx(0.0)
    assert len(fed.ledger.entries) == 0


def test_cross_site_restore_after_silent_departure():
    fed, north, south = _two_campuses([RTX_3090], [RTX_4090])
    fed.run(until=100)
    job = north.platform.submit_job(TrainingJobSpec(
        job_id=next_job_id(), model=RESNET50, total_compute=4 * HOUR,
        checkpoint_interval=10 * MINUTE))
    fed.run(until=1 * HOUR)
    assert job.checkpointed_progress > 0
    durable_before = job.checkpointed_progress
    # The only local provider vanishes silently; the requeued restore
    # finds no local candidate and crosses the WAN with its snapshot.
    north.platform.agents["n-ws1"].emergency_departure()
    fed.run(until=12 * HOUR)

    forwards = north.platform.events.of_kind("job-forwarded-out")
    assert len(forwards) == 1
    assert forwards[0].payload["restore"] is True
    assert forwards[0].payload["transfer_seconds"] > 0
    # The snapshot landed in south's store and seeded the foreign copy.
    south_store = south.platform.store_for(job.spec)
    assert south_store.has_checkpoint(job.job_id)
    south_state = south.coordinator.jobs[job.job_id]
    assert south_state.is_done
    # Origin's record closed via the completion notice.
    assert job.status is JobStatus.COMPLETED
    assert job.is_done
    # The host engine continues the imported version sequence, so
    # checkpoints taken at south never collide with the snapshot.
    versions = [r.version for r in south_store.versions(job.job_id)]
    assert len(versions) == len(set(versions))
    # Only the *remaining* work is billed, not the checkpointed part.
    donated = fed.ledger.donated("south")
    assert donated == pytest.approx(
        (job.spec.total_compute - durable_before) / HOUR)
    assert fed.ledger.total() == pytest.approx(0.0)


def test_foreign_jobs_are_never_reforwarded():
    # South hosts a foreign job, then its provider dies with no other
    # south capacity; the job must requeue at south, not ping-pong back.
    fed, north, south = _two_campuses([RTX_3090], [RTX_4090])
    fed.run(until=100)
    jobs = [
        north.platform.submit_job(TrainingJobSpec(
            job_id=next_job_id(), model=RESNET50, total_compute=6 * HOUR,
            checkpoint_interval=10 * MINUTE))
        for _ in range(2)
    ]
    fed.run(until=1 * HOUR)
    assert south.gateway.forward.forwarded_in == 1
    south.platform.agents["s-farm"].emergency_departure()
    fed.run(until=2 * HOUR)
    assert south.gateway.forward.forwarded_out == 0
    assert len(south.coordinator.jobs) == 1
    # The foreign job waits parked at south for capacity to return.
    assert south.coordinator.queue_pressure >= 1


def test_cancel_during_local_dispatch_rpc_is_still_a_noop():
    # The gateway-held cancel path must not misfire on the ordinary
    # single-campus window where a request is mid dispatch RPC (not
    # queued, parked, or running yet).
    from repro.core.platform import GPUnionPlatform
    platform = GPUnionPlatform(seed=1)
    platform.add_provider("ws1", [RTX_3090], lab="v")
    platform.run(until=100)
    job = platform.submit_job(TrainingJobSpec(
        job_id=next_job_id(), model=RESNET50, total_compute=1 * HOUR))
    platform.run(until=100.0006)  # dispatch RPC in flight over the LAN
    platform.coordinator.cancel_job(job.job_id)
    platform.run(until=6 * HOUR)
    assert job.status is not JobStatus.CANCELLED
    assert job.is_done
    assert platform.events.count("job-cancelled") == 0


def test_cancel_while_forward_offer_in_flight():
    fed, north, south = _two_campuses([RTX_3090], [RTX_4090])
    fed.run(until=65)  # digests gossiped at t=60 show south free
    # Occupy both campuses' single cards so the next job is unplaceable
    # everywhere: north parks it, offers it to south on the stale
    # digest, and south's live admission check declines.
    north.platform.submit_job(TrainingJobSpec(
        job_id=next_job_id(), model=RESNET50, total_compute=4 * HOUR))
    south.platform.submit_job(TrainingJobSpec(
        job_id=next_job_id(), model=RESNET50, total_compute=4 * HOUR))
    fed.run(until=75)
    victim = north.platform.submit_job(TrainingJobSpec(
        job_id=next_job_id(), model=RESNET50, total_compute=4 * HOUR))
    fed.run(until=75.005)  # the WAN offer is now in flight
    assert north.platform.events.count("job-forward-offered") == 1
    north.coordinator.cancel_job(victim.job_id)
    fed.run(until=24 * HOUR)
    # The decline came back to a cancelled job: it must not re-enter
    # the queue, never run anywhere, and stay cancelled.
    assert victim.status is JobStatus.CANCELLED
    assert not victim.is_done
    assert north.platform.events.count("job-forward-declined") == 1
    assert victim.job_id not in south.coordinator.jobs
    assert north.coordinator.queue_pressure == 0
    assert len(fed.ledger.entries) == 0


def _offer_to_south(fed, south):
    """North offers south one job over the WAN; returns (spec, reply)."""
    from repro.federation import ForwardOffer

    spec = TrainingJobSpec(job_id=next_job_id(), model=RESNET50,
                           total_compute=1 * HOUR)
    call = fed.wan_rpc.call("north", "south", "forward-offer", ForwardOffer(
        spec=spec, origin_site="north", payload_bytes=spec.dataset_bytes,
        relay_path=("north",)))
    fed.run(until=fed.env.now + 5)
    return spec, call.value


def _commit_to_south(fed, spec, token):
    from repro.federation import ForwardEnvelope

    call = fed.wan_rpc.call("north", "south", "forward-commit",
                            ForwardEnvelope(spec=spec, origin_site="north",
                                            payload_bytes=1 * GIB,
                                            claim_token=token,
                                            relay_path=("north",)))
    fed.run(until=fed.env.now + 60)
    return call.value


def test_unclaimed_offer_lease_expires_once_and_frees_the_card():
    fed, north, south = _two_campuses([RTX_3090], [RTX_4090])
    fed.run(until=100)
    spec, reply = _offer_to_south(fed, south)
    assert reply["accepted"] is True
    granted_at = fed.env.now - 5
    # The lease reserves south's only card: no second booking.
    assert not south.gateway.forward.accepts(spec)
    assert south.gateway.local_digest().free_gpus == 0

    lease = south.gateway.config.offer_lease_timeout
    fed.run(until=granted_at + lease - 1)
    assert south.platform.events.count("forward-lease-expired") == 0
    assert not south.gateway.forward.accepts(spec)
    fed.run(until=granted_at + lease + 1)
    expired = south.platform.events.of_kind("forward-lease-expired")
    assert [(e.payload["job_id"], e.payload["origin"]) for e in expired] == [
        (spec.job_id, "north")]
    assert south.gateway.forward.accepts(spec)
    assert south.gateway.local_digest().free_gpus == 1

    # A commit arriving after the lease lapsed is refused cleanly ...
    assert _commit_to_south(fed, spec, reply["claim_token"]) == {
        "committed": False, "reason": "lease-expired"}
    # ... and nothing expires twice.
    fed.run(until=fed.env.now + 2 * lease)
    assert south.platform.events.count("forward-lease-expired") == 1
    assert spec.job_id not in south.coordinator.jobs


def test_offer_committed_before_the_lease_lapses_never_expires():
    fed, north, south = _two_campuses([RTX_3090], [RTX_4090])
    fed.run(until=100)
    spec, reply = _offer_to_south(fed, south)
    assert _commit_to_south(fed, spec, reply["claim_token"]) == {
        "committed": True}
    fed.run(until=fed.env.now + 2 * south.gateway.config.offer_lease_timeout)
    assert south.platform.events.count("forward-lease-expired") == 0
    assert spec.job_id in south.coordinator.jobs


def test_cross_wan_cancel_terminates_delegated_job_at_host():
    fed, north, south = _two_campuses([RTX_3090], [RTX_4090] * 2)
    fed.run(until=100)
    jobs = [
        north.platform.submit_job(TrainingJobSpec(
            job_id=next_job_id(), model=RESNET50, total_compute=1 * HOUR))
        for _ in range(2)
    ]
    fed.run(until=800)  # one job delegated to south, still running there
    delegated = next(j for j in jobs
                     if north.gateway.forward.delegation(j.job_id) is not None)
    north.coordinator.cancel_job(delegated.job_id)
    assert delegated.status is JobStatus.CANCELLED
    fed.run(until=12 * HOUR)
    # The cancellation propagated across the WAN: the hosting site
    # terminated the job instead of running it to completion.
    host_state = south.coordinator.jobs[delegated.job_id]
    assert host_state.status is JobStatus.CANCELLED
    assert not host_state.is_done
    assert delegated.status is JobStatus.CANCELLED
    assert not delegated.is_done
    assert north.platform.events.count("job-cancel-delivered") == 1
    assert north.platform.events.count("job-cancel-lost-race") == 0
    assert north.gateway.pending_cancel_count == 0
    record = north.gateway.forward.delegation(delegated.job_id)
    assert record.state is DelegationState.CANCELLED
    assert south.gateway.hosted_foreign_count == 0
    # The GPU-hours south actually burned before the cancel are billed.
    donated = fed.ledger.donated("south")
    assert 0 < donated < delegated.spec.total_compute / HOUR
    assert fed.ledger.total() == pytest.approx(0.0)


# -- seeded 3-campus experiment --------------------------------------------

def test_three_campus_experiment_is_deterministic_and_wins():
    first = run_federation(seed=11, days=1.0)
    second = run_federation(seed=11, days=1.0)
    assert first == second  # bit-identical results, same seed
    assert first.federated_overall > first.isolated_overall
    assert first.forwarded_jobs > 0
    assert first.wan_bytes > 0
    assert first.wan_transfer_seconds > 0
    assert sum(first.credit_balances.values()) == pytest.approx(0.0)
    assert set(first.credit_balances) == {"north", "south", "east"}
