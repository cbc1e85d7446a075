"""Federation v2: multi-hop relay forwarding, admission control,
adaptive gossip, and the new config validation.

The relay topology throughout is a *line* — alpha ↔ bravo ↔ charlie —
because gossip is neighbour-scoped: alpha only ever learns bravo's
capacity, so reaching charlie's idle GPUs requires bravo to relay,
which is exactly the machinery under test.
"""

import pytest

from repro.federation import (
    AdmissionController,
    DelegationState,
    FaultSchedule,
    FaultWindow,
    FederatedDeployment,
    FederationConfig,
)
from repro.gpu.specs import RTX_3090, RTX_4090
from repro.units import HOUR, MINUTE
from repro.workloads.models import RESNET50
from repro.workloads.training import JobStatus, TrainingJobSpec, next_job_id


def _line_federation(alpha_gpus, bravo_gpus, charlie_gpus, **config_kwargs):
    """alpha ↔ bravo ↔ charlie, no direct alpha↔charlie link."""
    fed = FederatedDeployment(
        seed=5, federation_config=FederationConfig(**config_kwargs))
    alpha = fed.add_campus("alpha")
    bravo = fed.add_campus("bravo")
    charlie = fed.add_campus("charlie")
    fed.connect("alpha", "bravo")
    fed.connect("bravo", "charlie")
    alpha.platform.add_provider("a-ws", alpha_gpus, lab="vision")
    bravo.platform.add_provider("b-ws", bravo_gpus, lab="nlp")
    charlie.platform.add_provider("c-farm", charlie_gpus, lab="infra")
    return fed, alpha, bravo, charlie


def _job(compute=1 * HOUR, **kwargs):
    return TrainingJobSpec(job_id=next_job_id(), model=RESNET50,
                           total_compute=compute, **kwargs)


def _completions(fed, job_id):
    return sum(
        1 for handle in fed.sites.values()
        for event in handle.platform.events.of_kind("job-completed")
        if event.payload.get("job_id") == job_id
    )


def _saturated_middle(**config_kwargs):
    """The relay scenario: alpha's surplus lands on a bravo that just
    saturated, with charlie idle two hops out.

    Timeline: digests gossip at t=60 (bravo advertises its free GPU to
    alpha; charlie advertises to bravo).  At t=100 alpha fills its own
    card and offers the surplus job to bravo — bravo's live check still
    passes — but while the dataset is replicating over the WAN, bravo's
    own submission takes its only GPU.  The foreign job therefore
    arrives unplaceable at bravo.
    """
    fed, alpha, bravo, charlie = _line_federation(
        [RTX_3090], [RTX_3090], [RTX_4090] * 2, **config_kwargs)
    fed.run(until=100)
    local = alpha.platform.submit_job(_job(compute=4 * HOUR))
    surplus = alpha.platform.submit_job(_job(compute=1 * HOUR))
    fed.run(until=101)  # the offer is accepted; the payload pull runs
    home = bravo.platform.submit_job(_job(compute=4 * HOUR))
    return fed, alpha, bravo, charlie, local, surplus, home


# -- relay mechanics -------------------------------------------------------

def test_neighbour_scoped_gossip_limits_digest_reach():
    fed, alpha, bravo, charlie = _line_federation(
        [RTX_3090], [RTX_3090], [RTX_4090])
    fed.run(until=200)
    # alpha peers only with bravo; charlie is beyond its gossip horizon.
    assert alpha.gateway.gossip.peers == ["bravo"]
    assert sorted(alpha.gateway.gossip.peer_digests) == ["bravo"]
    assert bravo.gateway.gossip.peers == ["alpha", "charlie"]
    assert sorted(bravo.gateway.gossip.peer_digests) == ["alpha", "charlie"]


def test_two_hop_relay_places_job_and_pays_relay_fee():
    fed, alpha, bravo, charlie, local, surplus, home = _saturated_middle()
    fed.run(until=12 * HOUR)

    # The surplus job crossed alpha→bravo, then bravo relayed it to
    # charlie, where it ran — exactly once federation-wide.
    assert alpha.gateway.forward.forwarded_out == 1
    assert bravo.gateway.forward.forwarded_in == 1
    assert bravo.gateway.forward.relayed_out == 1
    assert charlie.gateway.forward.forwarded_in == 1
    assert charlie.gateway.forward.relayed_out == 0
    assert surplus.status is JobStatus.COMPLETED
    assert _completions(fed, surplus.job_id) == 1
    assert charlie.coordinator.jobs[surplus.job_id].is_done
    # The relay is no longer hosting: its record closed when the
    # onward commit confirmed, and its own state mirrors completion.
    assert bravo.gateway.hosted_foreign_count == 0
    assert bravo.coordinator.jobs[surplus.job_id].status is JobStatus.COMPLETED
    assert bravo.platform.events.count("job-relayed") == 1

    # Settlement: charlie donated the full hour to alpha; bravo earned
    # the relay fee, also charged to alpha; conservation holds.
    config = fed.federation_config
    fee = 1.0 * config.relay_fee_fraction
    assert fed.ledger.balance("charlie") == pytest.approx(1.0)
    assert fed.ledger.balance("bravo") == pytest.approx(fee)
    assert fed.ledger.balance("alpha") == pytest.approx(-1.0 - fee)
    assert fed.ledger.relay_fees_earned("bravo") == pytest.approx(fee)
    assert fed.ledger.relay_fees_earned("charlie") == 0.0
    assert fed.ledger.total() == pytest.approx(0.0)
    entries = fed.ledger.entries_of_kind("relay-fee")
    assert [e.donor for e in entries] == ["bravo"]

    # Provenance survived both hops.
    arrivals = charlie.platform.events.of_kind("job-forwarded-in")
    assert arrivals and arrivals[0].payload["origin"] == "alpha"
    record = bravo.gateway.forward.delegation(surplus.job_id)
    assert record.origin_site == "alpha"
    assert record.upstream == "alpha"
    assert record.state is DelegationState.COMPLETED
    # The relay attributes completion to the *true* host, so a probe
    # of bravo never claims bravo ran the job.
    assert record.host_site == "charlie"
    probe = bravo.gateway.forward.handle_status({"job_id": surplus.job_id})
    assert probe["state"] == "completed"
    assert probe["host_site"] == "charlie"


def test_hop_cap_one_keeps_job_parked_at_the_relay():
    fed, alpha, bravo, charlie, local, surplus, home = _saturated_middle(
        max_forward_hops=1)
    fed.run(until=12 * HOUR)
    # With the PR-1 hop budget the job may cross one WAN hop only: it
    # waits at bravo for bravo's own card instead of reaching charlie.
    assert bravo.gateway.forward.relayed_out == 0
    assert charlie.gateway.forward.forwarded_in == 0
    assert surplus.job_id not in charlie.coordinator.jobs
    assert fed.ledger.relay_fees_earned("bravo") == 0.0


def test_relay_never_returns_to_a_visited_site():
    # Same saturated middle, but charlie is ineligible (no capacity):
    # bravo must not bounce the job back to alpha, even though alpha
    # is a neighbour with a (stale) digest.
    fed, alpha, bravo, charlie, local, surplus, home = _saturated_middle()
    charlie.platform.submit_job(_job(compute=8 * HOUR))
    charlie.platform.submit_job(_job(compute=8 * HOUR))
    fed.run(until=3 * HOUR)
    assert alpha.gateway.forward.forwarded_in == 0
    assert surplus.job_id not in alpha.coordinator.queue.pending_ids()
    # The job eventually runs at bravo once its card frees up (the
    # 4-hour home job outlives this horizon, so it is still parked or
    # running at bravo/charlie — but never duplicated, never returned).
    states = [handle.coordinator.jobs.get(surplus.job_id)
              for handle in fed.sites.values()]
    assert sum(1 for s in states if s is not None and s.is_done) <= 1
    assert fed.duplicate_executions() == []


def test_relay_chains_completion_notice_through_middle_hop():
    fed, alpha, bravo, charlie, local, surplus, home = _saturated_middle()
    fed.run(until=12 * HOUR)
    # alpha learned of the completion (status COMPLETED, host stamp),
    # via bravo — whose own unacked-notice ledger drained.
    assert surplus.status is JobStatus.COMPLETED
    host_state = charlie.coordinator.jobs[surplus.job_id]
    assert surplus.completed_at == host_state.completed_at
    assert bravo.gateway.unacked_completion_count == 0
    assert charlie.gateway.unacked_completion_count == 0
    assert fed.unresolved_count() == 0


def test_cancel_of_relayed_job_chains_to_final_host():
    fed, alpha, bravo, charlie, local, surplus, home = _saturated_middle()
    # Let the relay land at charlie and start running there.
    while (surplus.job_id not in charlie.coordinator.jobs
           and fed.env.now < 2 * HOUR):
        fed.run(until=fed.env.now + 30)
    assert surplus.job_id in charlie.coordinator.jobs
    alpha.coordinator.cancel_job(surplus.job_id)
    fed.run(until=12 * HOUR)
    assert surplus.status is JobStatus.CANCELLED
    host_state = charlie.coordinator.jobs[surplus.job_id]
    assert host_state.status is JobStatus.CANCELLED
    assert not host_state.is_done
    assert fed.unresolved_count() == 0
    # Partial hours charlie burned are billed, with bravo's relay cut.
    donated = fed.ledger.donated("charlie")
    if donated > 0:
        assert fed.ledger.relay_fees_earned("bravo") == pytest.approx(
            donated * fed.federation_config.relay_fee_fraction)
    assert fed.ledger.total() == pytest.approx(0.0)


# -- admission control -----------------------------------------------------

def test_admission_controller_forecasts_from_arrival_stream():
    from repro.sim import Environment

    env = Environment()
    config = FederationConfig(admission_headroom_horizon=1 * HOUR,
                              admission_ewma_alpha=0.5)
    admission = AdmissionController(env, config)
    assert admission.reserved_headroom() == 0  # no arrivals yet

    def feed(env):
        for _ in range(6):
            yield env.timeout(10 * MINUTE)
            admission.observe(None)

    env.process(feed(env))
    env.run(until=61 * MINUTE)
    # Arrivals every 10 minutes -> ~6/hour; with no service-time
    # samples the horizon itself bounds the window.
    assert admission.arrival_rate() == pytest.approx(1 / (10 * MINUTE))
    assert admission.reserved_headroom() == 6
    # Silence decays the rate: an hour later the reservation shrinks.
    env.run(until=121 * MINUTE)
    assert admission.reserved_headroom() <= 1


def test_admission_headroom_declines_foreign_work():
    fed = FederatedDeployment(
        seed=5,
        federation_config=FederationConfig(forward_retry_backoff=1e9))
    north = fed.add_campus("north")
    south = fed.add_campus(
        "south",
        federation_config=FederationConfig(
            admission_headroom_horizon=4 * HOUR))
    fed.connect("north", "south")
    north.platform.add_provider("n-ws", [RTX_3090], lab="vision")
    south.platform.add_provider("s-farm", [RTX_4090] * 2, lab="infra")

    # A steady home stream at south teaches its admission controller
    # to expect ~1 job/20min, each ~2 GPU-hours: with 2 cards and a
    # 4-hour horizon the whole farm is reserved for home demand.
    def south_stream(env):
        while True:
            yield env.timeout(20 * MINUTE)
            south.platform.submit_job(_job(compute=2 * HOUR))

    fed.env.process(south_stream(fed.env))
    fed.run(until=2 * HOUR)
    assert south.gateway.admission.reserved_headroom() >= 2
    assert south.gateway.local_digest().free_gpus <= 0

    north.platform.submit_job(_job(compute=4 * HOUR))
    victim = north.platform.submit_job(_job(compute=1 * HOUR))
    fed.run(until=8 * HOUR)
    # South never hosted the foreign job: its predicted home demand
    # owns the headroom.  (With a stale pre-reservation digest the
    # offer may fire once — the live admission check declines it.)
    assert south.gateway.forward.forwarded_in == 0
    assert victim.job_id not in south.coordinator.jobs


def test_host_foreign_jobs_opt_out():
    fed = FederatedDeployment(seed=5)
    north = fed.add_campus("north")
    south = fed.add_campus(
        "south",
        federation_config=FederationConfig(host_foreign_jobs=False))
    fed.connect("north", "south")
    north.platform.add_provider("n-ws", [RTX_3090], lab="vision")
    south.platform.add_provider("s-farm", [RTX_4090] * 4, lab="infra")
    fed.run(until=100)
    # The opt-out site advertises no capacity at all...
    assert north.gateway.gossip.peer_digests["south"].free_gpus == 0
    jobs = [north.platform.submit_job(_job(compute=1 * HOUR))
            for _ in range(3)]
    fed.run(until=12 * HOUR)
    # ...so north's surplus queues at home instead of crossing the WAN.
    assert south.gateway.forward.forwarded_in == 0
    assert north.gateway.forward.forwarded_out == 0
    assert all(job.job_id not in south.coordinator.jobs for job in jobs)
    # Opting out of hosting does not stop south forwarding its own
    # surplus the other way.
    south_jobs = [south.platform.submit_job(_job(compute=1 * HOUR))
                  for _ in range(6)]
    fed.run(until=36 * HOUR)
    assert all(job.is_done for job in jobs + south_jobs)


# -- adaptive gossip -------------------------------------------------------

def test_adaptive_gossip_pushes_on_capacity_change():
    fed = FederatedDeployment(
        seed=5,
        federation_config=FederationConfig(gossip_interval=10 * MINUTE,
                                           digest_staleness=20 * MINUTE,
                                           gossip_interval_min=15.0))
    north = fed.add_campus("north")
    south = fed.add_campus("south")
    fed.connect("north", "south")
    north.platform.add_provider("n-ws", [RTX_3090], lab="vision")
    south.platform.add_provider("s-farm", [RTX_4090], lab="infra")
    fed.run(until=60)
    # The first digest went out on the fast tick, not at 10 minutes.
    assert "south" in north.gateway.gossip.peer_digests
    baseline = north.gateway.gossip.peer_digests["south"].advertised_at
    assert baseline <= 30.0
    # South's card is taken at t=60: the capacity drop reaches north
    # within a fast tick instead of waiting out the slow interval.
    south.platform.submit_job(_job(compute=2 * HOUR))
    fed.run(until=120)
    updated = north.gateway.gossip.peer_digests["south"]
    assert updated.advertised_at > baseline
    assert updated.free_gpus <= 0


def test_fixed_gossip_cadence_unchanged_without_min_interval():
    fed = FederatedDeployment(
        seed=5, federation_config=FederationConfig(gossip_interval=60.0))
    north = fed.add_campus("north")
    south = fed.add_campus("south")
    fed.connect("north", "south")
    north.platform.add_provider("n-ws", [RTX_3090], lab="vision")
    south.platform.add_provider("s-farm", [RTX_4090], lab="infra")
    fed.run(until=59)
    assert north.gateway.gossip.peer_digests == {}  # nothing before t=60
    fed.run(until=65)
    assert "south" in north.gateway.gossip.peer_digests


def test_adaptive_gossip_tracks_drift_per_peer():
    """Drift is judged against what each peer last *received*, not
    against the last digest pushed to anyone.

    Regression: the old global comparison let bravo's successful push
    to charlie mark alpha fresh too, so a partitioned alpha kept
    acting on stale capacity until the next whole-interval round.  Now
    alpha's view catches up within a fast tick of the heal, long
    before the slow interval elapses.
    """
    fed = FederatedDeployment(
        seed=5,
        federation_config=FederationConfig(gossip_interval=10 * MINUTE,
                                           digest_staleness=30 * MINUTE,
                                           gossip_interval_min=15.0))
    alpha = fed.add_campus("alpha")
    bravo = fed.add_campus("bravo")
    charlie = fed.add_campus("charlie")
    fed.connect("alpha", "bravo")
    fed.connect("bravo", "charlie")
    alpha.platform.add_provider("a-ws", [RTX_3090], lab="vision")
    bravo.platform.add_provider("b-ws", [RTX_3090], lab="nlp")
    charlie.platform.add_provider("c-farm", [RTX_4090], lab="infra")
    fed.run(until=60)
    baseline = alpha.gateway.gossip.peer_digests["bravo"].advertised_at
    # Alpha drops off the WAN; bravo's capacity then drifts (its only
    # card is taken), and the drift-triggered push reaches charlie but
    # keeps failing toward alpha.
    fed.sever("alpha", "bravo")
    bravo.platform.submit_job(_job(compute=2 * HOUR))
    fed.run(until=180)
    assert charlie.gateway.gossip.peer_digests["bravo"].free_gpus <= 0
    assert alpha.gateway.gossip.peer_digests["bravo"].advertised_at == baseline
    # On heal, alpha is still drifted *for alpha* — the retry at the
    # next fast tick delivers the fresh digest, nowhere near the
    # 10-minute interval boundary.
    fed.heal("alpha", "bravo")
    fed.run(until=240)
    updated = alpha.gateway.gossip.peer_digests["bravo"]
    assert updated.advertised_at > baseline
    assert updated.free_gpus <= 0


def test_adaptive_gossip_cuts_staleness_declines():
    # Same saturated-middle race as the relay tests, but with adaptive
    # gossip bravo's saturation reaches alpha before alpha wastes an
    # offer on it in the *next* contention round.
    declines = {}
    for label, kwargs in (
            ("fixed", {}),
            ("adaptive", {"gossip_interval_min": 10.0})):
        fed, alpha, bravo, charlie, *_ = _saturated_middle(**kwargs)
        for _ in range(3):
            alpha.platform.submit_job(_job(compute=3 * HOUR))
        fed.run(until=12 * HOUR)
        declines[label] = (alpha.gateway.forward.declined
                           + bravo.gateway.forward.declined
                           + charlie.gateway.forward.declined)
    assert declines["adaptive"] <= declines["fixed"]


# -- unchanged digests are re-sent only before they would go stale ---------

def _quiet_pair(**config_kwargs):
    """north ↔ south with one idle card each: no digest ever drifts."""
    fed = FederatedDeployment(
        seed=5, federation_config=FederationConfig(**config_kwargs))
    north = fed.add_campus("north")
    south = fed.add_campus("south")
    fed.connect("north", "south")
    north.platform.add_provider("n-ws", [RTX_3090], lab="vision")
    south.platform.add_provider("s-farm", [RTX_4090], lab="infra")
    return fed, north, south


def _sample_digests(fed, north, south, until, step=5.0):
    """Sample both neighbour views every ``step`` seconds from t=65.

    Returns the worst digest age seen, the number of samples at which
    some view was stale, and the distinct digests each site received.
    """
    staleness = fed.federation_config.digest_staleness
    worst, stale = 0.0, 0
    received = {"north": set(), "south": set()}
    now = 65.0
    fed.run(until=now)
    while now < until:
        now += step
        fed.run(until=now)
        for here, there in ((north, south), (south, north)):
            digest = here.gateway.gossip.peer_digests[there.gateway.site]
            received[here.gateway.site].add(digest.advertised_at)
            worst = max(worst, now - digest.advertised_at)
            stale += not digest.is_fresh(now, staleness)
    return worst, stale, received


@pytest.mark.parametrize("cadence", [{}, {"gossip_interval_min": 15.0}],
                         ids=["fixed", "adaptive"])
def test_unchanged_digest_is_refreshed_before_it_goes_stale(cadence):
    fed, north, south = _quiet_pair(**cadence)
    worst, stale, received = _sample_digests(fed, north, south, 3 * HOUR)
    # refresh = max(60, 300 - 60) = 240 s: a quarter of the old rate,
    # yet no sample ever caught a view past its 300 s staleness bound.
    assert stale == 0
    assert worst == pytest.approx(240.0, abs=1.0)
    assert len(received["north"]) == len(received["south"]) == 45
    # The pushed counter counts exactly the deliveries.
    assert north.gateway.gossip.digests_pushed == len(received["south"])
    assert south.gateway.gossip.digests_pushed == len(received["north"])
    assert north.gateway.gossip.digest_push_failures == 0
    assert north.gateway.gossip.gossip_rounds == 45


def test_refresh_is_clamped_to_one_round():
    # digest_staleness == gossip_interval clamps refresh at one round,
    # so an unchanged digest still goes out every round.
    fed, north, south = _quiet_pair(digest_staleness=60.0)
    worst, stale, received = _sample_digests(fed, north, south, 3 * HOUR)
    assert worst <= 60.0
    assert stale == 0
    assert len(received["north"]) == 179
    assert north.gateway.gossip.digests_pushed == 179


@pytest.mark.parametrize("cadence", [{}, {"gossip_interval_min": 15.0}],
                         ids=["fixed", "adaptive"])
def test_refresh_due_during_a_partition_lands_on_the_first_tick_after_heal(
        cadence):
    fed, north, south = _quiet_pair(**cadence)
    tick = cadence.get("gossip_interval_min", 60.0)
    fed.run(until=250)
    before = north.gateway.gossip.peer_digests["south"].advertised_at
    # South's refresh toward north falls due at before + 240 s, inside
    # the partition, and fails on every tick until the heal.
    fed.sever("north", "south")
    fed.run(until=400)
    assert south.gateway.gossip.digest_push_failures > 0
    assert north.gateway.gossip.peer_digests["south"].advertised_at == before
    fed.heal("north", "south")
    fed.run(until=400 + tick + 1.0)
    delivered = north.gateway.gossip.peer_digests["south"].advertised_at
    assert 400 < delivered <= 400 + tick


def test_restarted_gateway_gets_neighbour_digest_within_refresh_and_tick():
    # The one window the rule stretches: south pushed its unchanged
    # digest before north crashed, so north waits for south's refresh.
    fed, north, south = _quiet_pair(gossip_interval_min=15.0)
    fed.inject_faults(FaultSchedule(
        windows=(FaultWindow("gateway", "north", 1000.0, 60.0),)))
    fed.run(until=1060.5)
    assert not north.gateway.is_crashed
    assert "south" not in north.gateway.gossip.peer_digests
    fed.run(until=1060.0 + 240.0 + 15.0)
    assert "south" in north.gateway.gossip.peer_digests


# -- the relay experiment --------------------------------------------------

def test_relay_experiment_recovers_utilization_via_relays():
    from repro.experiments import run_relay_experiment

    result = run_relay_experiment(seed=11, days=1.0)
    # Jobs really were relayed through the middle campus, which
    # earned its fee — visible in the ledger, conservation intact.
    assert result.relayed_jobs > 0
    assert result.relay_fees["bravo"] > 0
    assert result.relay_fees["alpha"] == 0
    assert result.relay_fees["charlie"] == 0
    assert abs(sum(result.credit_balances.values())) < 1e-6
    # The 2-hop run recovers aggregate utilization the 1-hop baseline
    # strands at the saturated middle campus.
    assert result.relay_overall > result.baseline_overall
    assert (result.relay_by_site["charlie"]
            > result.baseline_by_site["charlie"])
    assert result.relay_completed >= result.baseline_completed


# -- config validation -----------------------------------------------------

@pytest.mark.parametrize("kwargs", [
    {"relay_fee_fraction": -0.01},
    {"relay_fee_fraction": 1.0},
    {"admission_headroom_horizon": -1.0},
    {"admission_ewma_alpha": 0.0},
    {"admission_ewma_alpha": 1.5},
    {"gossip_interval_min": 0.0},
    {"gossip_interval_min": 120.0, "gossip_interval": 60.0},
    {"gossip_balance_drift": 0.0},
    {"max_forward_hops": 0},
])
def test_config_rejects_bad_federation_v2_tunables(kwargs):
    with pytest.raises(ValueError):
        FederationConfig(**kwargs)


def test_config_accepts_v2_tunables():
    config = FederationConfig(
        max_forward_hops=3,
        relay_fee_fraction=0.1,
        admission_headroom_horizon=2 * HOUR,
        admission_ewma_alpha=1.0,
        gossip_interval_min=5.0,
        gossip_balance_drift=0.5,
        host_foreign_jobs=False,
    )
    assert config.max_forward_hops == 3
    assert not config.host_foreign_jobs


# -- digest inputs -------------------------------------------------------

def test_registry_version_tracks_capacity_mutations():
    fed, alpha, bravo, charlie = _line_federation(
        [RTX_3090], [RTX_3090], [RTX_4090])
    registry = alpha.coordinator.registry
    before = registry.version
    fed.run(until=65.0)  # registrations land
    assert registry.version > before
    settled = registry.version
    fed.run(until=66.0)  # idle tick: no capacity change, no version bump
    assert registry.version == settled


def test_reserve_lowers_the_next_digest_free_gpus_by_one():
    """A digest rebuilt on an unchanged registry advertises the same
    capacity; reserving a card shows in the very next digest."""
    fed, alpha, bravo, charlie = _line_federation(
        [RTX_3090], [RTX_3090], [RTX_4090])
    fed.run(until=65.0)
    gateway = alpha.gateway
    first = gateway.local_digest()
    again = gateway.local_digest()
    assert again.free_gpus == first.free_gpus
    assert again.free_cards == first.free_cards
    record = alpha.coordinator.registry.schedulable()[0]
    gpu = next(iter(record.gpus.values()))
    alpha.coordinator.registry.reserve_gpu(record.node_id, gpu.uuid,
                                           gpu.memory_total)
    dirtied = gateway.local_digest()
    assert dirtied.free_gpus == first.free_gpus - 1


def test_digest_reflects_admission_reservation_freshly():
    """The time-decaying admission reservation is applied on every
    digest build."""
    fed, alpha, bravo, charlie = _line_federation(
        [RTX_3090] * 2, [RTX_3090], [RTX_4090],
        admission_headroom_horizon=10 * MINUTE)
    fed.run(until=65.0)
    gateway = alpha.gateway
    baseline = gateway.local_digest().free_gpus
    # A burst of submissions raises the forecast without touching the
    # registry scan (jobs park in the queue: no GPUs are reserved yet
    # at digest time in this window).
    gateway.admission.observe(None)
    fed.run(until=70.0)
    gateway.admission.observe(None)
    assert gateway.admission.reserved_headroom() >= 1
    assert gateway.local_digest().free_gpus < baseline
