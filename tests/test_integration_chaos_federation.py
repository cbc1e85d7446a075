"""Federation chaos: random WAN partitions × multi-hop relaying.

The single-campus chaos suite (test_integration_chaos.py) churns
providers under one coordinator; this one does the federated
equivalent and worse — a line federation whose middle campus churns
its providers *and* whose WAN links flap on a randomized schedule,
with multi-hop relaying enabled, so forward handshakes, relay chains,
and completion notices all lose legs mid-flight.

The invariant under audit is the one the two-phase handshake and the
hop-by-hop reconciliation machinery exist for, now extended across
relays: **every job submitted anywhere executes exactly once
federation-wide and is never lost** — no duplicate completions, no
stranded reconciliation work, and the credit ledger still conserves.
"""

import random

import pytest

import handler_errors
from repro.agent import BehaviorProfile
from repro.federation import (FaultSchedule, FaultWindow, FederatedDeployment,
                              FederationConfig)
from repro.gpu import RTX_3090, RTX_4090
from repro.units import HOUR, MINUTE
from repro.workloads import RESNET50, UNET_SEG, JobStatus, next_job_id
from repro.workloads.training import TrainingJobSpec

MODELS = (RESNET50, UNET_SEG)
SEEDS = (7, 19, 23)


def _random_schedule(rng: random.Random, pairs, chaos_until: float,
                     ) -> FaultSchedule:
    """Random outage windows over every WAN link pair.

    Durations and gaps are drawn uniformly, windows may overlap across
    pairs (simultaneously partitioning both links isolates the middle
    campus entirely), and everything ends by ``chaos_until`` so the
    run has a quiet tail to drain reconciliation in.
    """
    outages = []
    for a, b in pairs:
        at = rng.uniform(5 * MINUTE, 30 * MINUTE)
        while at < chaos_until:
            duration = rng.uniform(3 * MINUTE, 25 * MINUTE)
            duration = min(duration, chaos_until - at)
            outages.append(FaultWindow("link", (a, b), at, duration))
            at += duration + rng.uniform(5 * MINUTE, 45 * MINUTE)
    return FaultSchedule(windows=tuple(outages))


def _build(seed: int):
    fed = FederatedDeployment(
        seed=seed,
        federation_config=FederationConfig(
            max_forward_hops=2,
            gossip_interval_min=15.0,
            admission_headroom_horizon=30 * MINUTE,
        ))
    alpha = fed.add_campus("alpha")
    bravo = fed.add_campus("bravo")
    charlie = fed.add_campus("charlie")
    fed.connect("alpha", "bravo")
    fed.connect("bravo", "charlie")
    alpha.platform.add_provider("a-ws", [RTX_3090], lab="vision")
    bravo.platform.add_provider("b-ws1", [RTX_3090], lab="nlp")
    bravo.platform.add_provider("b-ws2", [RTX_3090], lab="nlp")
    charlie.platform.add_provider("c-farm", [RTX_4090] * 3, lab="infra")
    # The middle campus's owners reclaim their cards aggressively, so
    # foreign jobs keep getting displaced into the relay path while
    # the WAN flaps underneath them.
    churn = BehaviorProfile(
        events_per_day=4.0,
        p_scheduled=0.3, p_emergency=0.3, p_temporary=0.4,
        mean_temporary_downtime=40 * MINUTE,
        mean_rejoin_delay=30 * MINUTE,
    )
    bravo.platform.add_behavior("b-ws1", churn)
    bravo.platform.add_behavior("b-ws2", churn)
    return fed, alpha, bravo, charlie


def _chaos_run(seed: int):
    rng = random.Random(seed)
    fed, alpha, bravo, charlie = _build(seed)
    chaos_until = 10 * HOUR
    schedule = _random_schedule(
        rng, [("alpha", "bravo"), ("bravo", "charlie")], chaos_until)
    fed.inject_faults(schedule)

    jobs = []

    def feeder(env, handle, count, mean_gap):
        for index in range(count):
            yield env.timeout(rng.expovariate(1.0 / mean_gap))
            jobs.append(handle.platform.submit_job(TrainingJobSpec(
                job_id=next_job_id(),
                model=MODELS[index % len(MODELS)],
                total_compute=rng.uniform(0.5 * HOUR, 2 * HOUR),
                checkpoint_interval=8 * MINUTE,
            )))

    # The overloaded edge campus produces most of the surplus; the
    # middle and far campuses submit enough to contend for capacity.
    fed.env.process(feeder(fed.env, alpha, 16, 30 * MINUTE))
    fed.env.process(feeder(fed.env, bravo, 5, 90 * MINUTE))
    fed.env.process(feeder(fed.env, charlie, 2, 2 * HOUR))
    fed.run(until=48 * HOUR)
    return fed, jobs, schedule


@pytest.fixture(scope="module", params=SEEDS)
def chaos_federation(request):
    return _chaos_run(request.param)


def test_exactly_once_no_job_lost(chaos_federation):
    """Every job completes exactly once, somewhere — none lost, none
    duplicated, despite partitions hitting relays mid-handshake."""
    fed, jobs, _ = chaos_federation
    completions = fed.completion_counts()
    for job in jobs:
        assert job.is_done, f"{job.job_id} lost (status {job.status})"
        assert job.status is JobStatus.COMPLETED
        assert completions.get(job.job_id, 0) == 1, job.job_id
    assert fed.audit() == []
    assert handler_errors.unexpected(fed) == {}


def test_reconciliation_drains_and_ledger_conserves(chaos_federation):
    fed, jobs, _ = chaos_federation
    # No unknown delegations, pending cancels, or unacked completion
    # notices may survive the quiet tail.
    assert fed.unresolved_count() == 0
    assert fed.audit() == []
    assert handler_errors.unexpected(fed) == {}
    # Origin-side records all closed.
    for handle in fed.sites.values():
        assert handle.gateway.unresolved_delegations == 0
        assert handle.gateway.unacked_completion_count == 0


def test_chaos_actually_engaged_the_machinery(chaos_federation):
    """A chaos run that never forwarded, relayed, or partitioned a
    handshake proves nothing — pin the mix."""
    fed, jobs, schedule = chaos_federation
    assert schedule.windows, "no outages generated"
    severed = sum(handle.platform.events.count("wan-link-severed")
                  for handle in fed.sites.values())
    assert severed > 0
    assert fed.total_forwarded() > 0
    # Foreign arrivals reached the far campus only ever via relaying
    # (gossip is neighbour-scoped on a line).
    charlie = fed.site("charlie")
    foreign_at_charlie = charlie.platform.events.of_kind("job-forwarded-in")
    for event in foreign_at_charlie:
        assert event.payload["origin"] in ("alpha", "bravo")


def test_relay_fee_entries_are_well_formed(chaos_federation):
    """Relay fees (when the schedule produced relays) stay consistent:
    fees are non-negative transfers between distinct sites, and only
    the middle campus can have earned one on a line topology."""
    fed, jobs, _ = chaos_federation
    for entry in fed.ledger.entries_of_kind("relay-fee"):
        assert entry.donor != entry.beneficiary
        assert entry.gpu_hours >= 0
        assert entry.donor == "bravo"
