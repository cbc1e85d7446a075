"""Share-chain verification, quarantine state machine, ledger sums.

Unit coverage for the Byzantine-robustness layer: the deterministic
keyring, every verification failure class :meth:`ShareChain.ingest`
can name, chain purging, the O(1) running per-site ledger sums against
their entry-fold definitions, the :class:`PeerTrust` state machine in
isolation, and the gateway-level quarantine edges — a false positive
healing through probation, a quarantine landing while the offender
holds a live claim token, and an operator re-admitting an evicted
site.
"""

import pytest

from dataclasses import replace

from repro.federation import (
    CreditLedger,
    DelegationState,
    FederatedDeployment,
    FederationConfig,
    PeerTrust,
    ShareChain,
    SiteKeyring,
    TrustState,
)
from repro.federation.ledger import CreditEntry
from repro.federation.sharechain import (
    BENIGN_REASONS,
    CIRCUMSTANTIAL_REASONS,
    DEFINITIVE_REASONS,
    GENESIS,
    entry_hash,
)
from repro.gpu.specs import RTX_3090, RTX_4090
from repro.units import HOUR, MINUTE
from repro.workloads.models import RESNET50
from repro.workloads.training import JobStatus, TrainingJobSpec, next_job_id


def _entry(donor="alpha", beneficiary="bravo", hours=2.0, job_id="j-1",
           kind="donation", at=0.0):
    return CreditEntry(at=at, donor=donor, beneficiary=beneficiary,
                       gpu_hours=hours, job_id=job_id, kind=kind)


def _ring(*sites, seed=11):
    ring = SiteKeyring(seed)
    for site in sites:
        ring.register(site)
    return ring


# -- keyring ----------------------------------------------------------------

def test_keyring_is_deterministic_and_site_scoped():
    a = _ring("alpha", "bravo")
    b = _ring("alpha", "bravo")
    assert a.sign("alpha", "digest") == b.sign("alpha", "digest")
    assert a.sign("alpha", "digest") != a.sign("bravo", "digest")
    assert a.verify("alpha", "digest", a.sign("alpha", "digest"))
    assert not a.verify("bravo", "digest", a.sign("alpha", "digest"))
    # Unknown sites can neither sign nor verify.
    assert a.sign("mallory", "digest") == ""
    assert not a.verify("mallory", "digest", "")


def test_reason_classes_partition():
    assert not DEFINITIVE_REASONS & BENIGN_REASONS
    assert not DEFINITIVE_REASONS & CIRCUMSTANTIAL_REASONS
    assert not CIRCUMSTANTIAL_REASONS & BENIGN_REASONS


# -- chain authoring + honest replication -----------------------------------

def test_honest_entries_replicate_and_fold():
    ring = _ring("alpha", "bravo")
    author = ShareChain("alpha", ring)
    observer = ShareChain("bravo", ring)
    s1 = author.append(_entry(hours=2.0, job_id="j-1"))
    s2 = author.append(_entry(hours=3.0, job_id="j-2"))
    assert (s1.seq, s2.seq) == (1, 2)
    assert s1.prev_hash == GENESIS and s2.prev_hash == s1.entry_hash
    for signed in author.entries_after({}):
        assert observer.ingest(signed) is None
    assert observer.height() == 2
    assert observer.heads() == {"alpha": 2}
    assert observer.view.balance("alpha") == pytest.approx(5.0)
    assert observer.view.balance("bravo") == pytest.approx(-5.0)
    assert observer.view.total() == pytest.approx(0.0)
    assert observer.donated_for_job("j-1") == pytest.approx(2.0)
    assert observer.rejected_total == 0
    # entries_after respects the peer's ack floor.
    assert [s.seq for s in author.entries_after({"alpha": 1})] == [2]
    # A negative floor is below every seq, a floor past the head
    # leaves nothing, and a signer the peer never acked is sent whole.
    assert [s.seq for s in author.entries_after({"alpha": -1})] == [1, 2]
    assert author.entries_after({"alpha": 3}) == []
    assert [s.seq for s in author.entries_after({"bravo": 1})] == [1, 2]
    # Purging one signer leaves the survivors' suffixes intact.
    ring.register("charlie")
    third = ShareChain("charlie", ring)
    assert observer.ingest(third.append(_entry(
        donor="charlie", beneficiary="bravo", job_id="j-3"))) is None
    observer.append(_entry(donor="bravo", beneficiary="alpha",
                           job_id="j-4"))
    assert observer.purge_signer("charlie") == 1
    for signer in ("alpha", "bravo"):
        for floor in range(-1, 4):
            assert observer.entries_after({signer: floor}) == [
                s for s in observer.accepted_entries()
                if s.signer != signer or s.seq > floor]


# -- every rejection reason -------------------------------------------------

def test_tampered_hours_rejected_as_bad_signature():
    ring = _ring("alpha", "bravo")
    signed = ShareChain("alpha", ring).append(_entry(hours=4.0))
    observer = ShareChain("bravo", ring)
    tampered = replace(signed, entry=replace(signed.entry, gpu_hours=1.0))
    assert observer.ingest(tampered) == "bad-signature"
    assert observer.rejected == {"bad-signature": 1}
    assert observer.view.total() == 0.0 and observer.height() == 0


def test_tamper_detected_before_duplicate_suppression():
    """An under-billed copy of an entry the observer already holds must
    be named tampering, not skipped as an already-seen duplicate."""
    ring = _ring("alpha", "bravo")
    signed = ShareChain("alpha", ring).append(_entry(hours=4.0))
    observer = ShareChain("bravo", ring)
    assert observer.ingest(signed) is None
    tampered = replace(signed, entry=replace(signed.entry, gpu_hours=1.0))
    assert observer.ingest(tampered) == "bad-signature"
    assert observer.view.balance("alpha") == pytest.approx(4.0)


def test_wrong_key_signature_rejected():
    ring = _ring("alpha", "bravo")
    entry = _entry()
    digest = entry_hash(entry, "alpha", 1, GENESIS)
    from repro.federation.sharechain import SignedEntry
    forged = SignedEntry(entry=entry, signer="alpha", seq=1,
                         prev_hash=GENESIS, entry_hash=digest,
                         signature=ring.sign("bravo", digest))
    assert ShareChain("bravo", ring).ingest(forged) == "bad-signature"


@pytest.mark.parametrize("mutate, reason", [
    (dict(hours=-1.0), "bad-structure"),
    (dict(beneficiary="alpha"), "bad-structure"),
    (dict(kind="iou"), "bad-structure"),
])
def test_malformed_transfers_rejected(mutate, reason):
    ring = _ring("alpha", "bravo")
    signed = ShareChain("alpha", ring).forge(_entry(**mutate))
    assert ShareChain("bravo", ring).ingest(signed) == reason


def test_donation_signed_by_non_donor_rejected():
    ring = _ring("alpha", "bravo", "charlie")
    # bravo bills on alpha's behalf: only the executing host may.
    signed = ShareChain("bravo", ring).forge(
        _entry(donor="alpha", beneficiary="charlie"))
    assert ShareChain("charlie", ring).ingest(signed) == "bad-structure"


def test_self_credited_relay_fee_rejected():
    ring = _ring("alpha", "bravo")
    signed = ShareChain("alpha", ring).forge(
        _entry(donor="alpha", beneficiary="bravo", kind="relay-fee"))
    assert ShareChain("bravo", ring).ingest(signed) == "self-credit"


def test_forked_chain_rejected_duplicate_accepted_silently():
    ring = _ring("alpha", "bravo")
    genuine = ShareChain("alpha", ring)
    signed = genuine.append(_entry(job_id="j-1"))
    # A second history for the same signer: different entry, same slot.
    forked = ShareChain("alpha", ring).append(_entry(job_id="j-other"))
    observer = ShareChain("bravo", ring)
    assert observer.ingest(signed) is None
    assert observer.ingest(signed) == "duplicate"
    assert observer.ingest(forked) == "fork"
    # Duplicates are benign (gossip re-push), forks are offenses.
    assert "duplicate" not in observer.rejected
    assert observer.rejected == {"fork": 1}


def test_gap_in_sequence_rejected_as_bad_linkage():
    ring = _ring("alpha", "bravo")
    author = ShareChain("alpha", ring)
    author.append(_entry(job_id="j-1"))
    second = author.append(_entry(job_id="j-2"))
    observer = ShareChain("bravo", ring)
    assert observer.ingest(second) == "bad-linkage"
    assert observer.height() == 0  # heals on the next full exchange


def test_replayed_settlement_rejected():
    ring = _ring("alpha", "bravo")
    author = ShareChain("alpha", ring)
    signed = author.append(_entry(hours=2.0))
    replayed = author.reissue(0)
    observer = ShareChain("bravo", ring)
    assert observer.ingest(signed) is None
    assert observer.ingest(replayed) == "replay"
    assert observer.view.balance("alpha") == pytest.approx(2.0)


def test_cross_check_verdict_rejects_well_formed_lies():
    ring = _ring("alpha", "bravo")
    author = ShareChain("alpha", ring)
    forged = author.forge(_entry(job_id="no-such-job"))
    overbilled = author.forge(_entry(job_id="j-real", hours=100.0))
    observer = ShareChain("bravo", ring)

    def cross_check(signed):
        if signed.entry.job_id != "j-real":
            return "unknown-job"
        if signed.entry.gpu_hours > 1.0:
            return "overbilled"
        return None

    assert observer.ingest(forged, cross_check=cross_check) == "unknown-job"
    # The overbilled entry now has a linkage gap too — the cross-check
    # still matters for the well-linked case, so re-author it fresh.
    fresh = ShareChain("alpha", ring).forge(
        _entry(job_id="j-real", hours=100.0))
    assert observer.ingest(fresh, cross_check=cross_check) == "overbilled"
    assert observer.view.total() == 0.0


def test_purge_signer_rebuilds_view_from_survivors():
    ring = _ring("alpha", "bravo", "charlie")
    a = ShareChain("alpha", ring)
    b = ShareChain("bravo", ring)
    observer = ShareChain("charlie", ring)
    for signed in (a.append(_entry(donor="alpha", beneficiary="charlie",
                                   hours=2.0, job_id="j-a")),
                   b.append(_entry(donor="bravo", beneficiary="charlie",
                                   hours=3.0, job_id="j-b"))):
        assert observer.ingest(signed) is None
    assert observer.purge_signer("bravo") == 1
    assert observer.height() == 1
    assert observer.heads() == {"alpha": 1}
    assert observer.view.balance("bravo") == 0.0
    assert observer.view.balance("alpha") == pytest.approx(2.0)
    assert observer.view.balance("charlie") == pytest.approx(-2.0)
    assert observer.donated_for_job("j-b") == 0.0
    # The purged signer's settlements may be re-ingested after a heal.
    assert observer.ingest(b.chain("bravo")[0]) is None
    assert observer.purge_signer("nobody") == 0


# -- O(1) ledger sums vs their entry-fold definitions -----------------------

def test_ledger_running_sums_match_entry_folds():
    ledger = CreditLedger()
    ledger.record_donation("alpha", "bravo", 2.0, job_id="j1", at=0.0)
    ledger.record_donation("alpha", "charlie", 3.0, job_id="j2", at=1.0)
    ledger.record_relay_fee("bravo", "charlie", 0.5, job_id="j2", at=1.0)
    ledger.record_donation("charlie", "alpha", 1.0, job_id="j3", at=2.0)
    for site in ("alpha", "bravo", "charlie"):
        donated = sum(e.gpu_hours for e in ledger.entries
                      if e.donor == site)
        consumed = sum(e.gpu_hours for e in ledger.entries
                       if e.beneficiary == site)
        fees = sum(e.gpu_hours for e in ledger.entries
                   if e.donor == site and e.kind == "relay-fee")
        assert ledger.donated(site) == pytest.approx(donated)
        assert ledger.consumed(site) == pytest.approx(consumed)
        assert ledger.relay_fees_earned(site) == pytest.approx(fees)
        assert ledger.balance(site) == pytest.approx(donated - consumed)
    assert ledger.donated("nobody") == 0.0
    assert ledger.consumed("nobody") == 0.0
    assert ledger.relay_fees_earned("nobody") == 0.0


# -- PeerTrust state machine ------------------------------------------------

def _trust(**kwargs):
    config = FederationConfig(**kwargs)
    return PeerTrust("alpha", config), config


def test_definitive_offense_quarantines_in_one_strike():
    trust, _ = _trust()
    transition = trust.strike("mallory", "replay", 100.0, definitive=True)
    assert transition == (TrustState.TRUSTED, TrustState.QUARANTINED)
    assert trust.blocks("mallory")
    assert trust.detected_at["mallory"] == 100.0
    # Further strikes while quarantined are no-ops.
    assert trust.strike("mallory", "fork", 101.0, definitive=True) is None


def test_circumstantial_strikes_quarantine_at_threshold():
    trust, config = _trust(quarantine_strikes=3)
    assert trust.strike("m", "capacity-mismatch", 1.0,
                        definitive=False) is None
    assert trust.strike("m", "capacity-mismatch", 2.0,
                        definitive=False) is None
    assert not trust.blocks("m")
    transition = trust.strike("m", "capacity-mismatch", 3.0,
                              definitive=False)
    assert transition == (TrustState.TRUSTED, TrustState.QUARANTINED)
    assert trust.detected_at["m"] == 3.0


def test_sentence_probation_heal_forgives_strikes():
    trust, config = _trust()
    trust.strike("m", "replay", 0.0, definitive=True)
    assert trust.tick(config.quarantine_duration - 1.0) == []
    fired = trust.tick(config.quarantine_duration)
    assert fired == [("m", TrustState.QUARANTINED, TrustState.PROBATION)]
    assert not trust.blocks("m")          # probation unblocks traffic
    assert "m" in trust.excluded()        # but not forward placement
    healed_at = config.quarantine_duration + config.probation_duration
    fired = trust.tick(healed_at)
    assert fired == [("m", TrustState.PROBATION, TrustState.TRUSTED)]
    assert trust.strikes("m") == []       # forgiven
    assert trust.excluded() == set()
    # Detection history is an audit record; healing keeps it.
    assert trust.detected_at["m"] == 0.0


def test_offense_on_probation_evicts_and_reinstate_readmits():
    trust, config = _trust()
    trust.strike("m", "replay", 0.0, definitive=True)
    trust.tick(config.quarantine_duration)
    transition = trust.strike("m", "capacity-mismatch",
                              config.quarantine_duration + 1.0,
                              definitive=False)
    assert transition == (TrustState.PROBATION, TrustState.EVICTED)
    assert trust.blocks("m")
    assert trust.tick(1e9) == []          # eviction is terminal
    assert trust.reinstate("m", 2e9)
    assert trust.state("m") is TrustState.PROBATION
    assert not trust.reinstate("m", 2e9)  # only EVICTED reinstates
    fired = trust.tick(2e9 + config.probation_duration)
    assert fired == [("m", TrustState.PROBATION, TrustState.TRUSTED)]


# -- gateway quarantine edges ----------------------------------------------


def _verified_pair(seed=5, **config_kwargs):
    fed = FederatedDeployment(
        seed=seed, trace=True,
        federation_config=FederationConfig(**config_kwargs))
    north = fed.add_campus("north")
    south = fed.add_campus("south")
    fed.connect("north", "south")
    north.platform.add_provider("n-ws1", [RTX_3090], lab="vision")
    south.platform.add_provider("s-farm", [RTX_4090] * 2, lab="infra")
    fed.enable_ledger_verification()
    return fed, north, south


def _job(compute=1 * HOUR):
    return TrainingJobSpec(job_id=next_job_id(), model=RESNET50,
                           total_compute=compute)


def _forced_forward(fed, north, victim_compute=30 * MINUTE):
    fed.run(until=fed.env.now + 100)
    blocker = north.platform.submit_job(_job(compute=8 * HOUR))
    fed.run(until=fed.env.now + 100)
    victim = north.platform.submit_job(_job(compute=victim_compute))
    return blocker, victim


def _run_until(fed, condition, step, limit):
    while not condition() and fed.env.now < limit:
        fed.run(until=fed.env.now + step)
    assert condition(), f"condition never held by t={fed.env.now}"


def test_false_positive_quarantine_heals_through_probation():
    """A wrongly-quarantined honest site serves its sentence, rides out
    a clean probation, and returns to full service — strikes forgiven,
    forwarding restored."""
    fed, north, south = _verified_pair()
    gateway = north.gateway
    fed.run(until=10 * MINUTE)
    gateway.gossip.strike("south", "unknown-job", definitive=True)
    assert gateway.trust.blocks("south")
    assert north.platform.events.count("site-quarantined") == 1
    config = fed.federation_config
    fed.run(until=fed.env.now + config.quarantine_duration
            + config.probation_duration + 10 * MINUTE)
    assert gateway.trust.state("south") is TrustState.TRUSTED
    assert gateway.trust.strikes("south") == []
    assert north.platform.events.count("site-probation") == 1
    assert north.platform.events.count("site-reinstated") == 1
    # Forwarding to the healed peer works again.
    blocker, victim = _forced_forward(fed, north)
    fed.run(until=fed.env.now + 24 * HOUR)
    assert victim.status is JobStatus.COMPLETED
    assert gateway.forward.forwarded_out >= 1
    assert fed.duplicate_executions() == []
    assert fed.tracer.orphans() == []


def test_quarantine_during_inflight_forward_preserves_exactly_once():
    """The offender is quarantined while it holds a live claim token
    for our job: the in-flight two-phase handshake must resolve through
    the normal machinery — the job completes exactly once — while all
    *new* trust surfaces (placement, digests, chain entries) close."""
    fed, north, south = _verified_pair()
    blocker, victim = _forced_forward(fed, north)
    origin = north.gateway
    _run_until(fed, lambda: getattr(origin.forward.records.get(victim.job_id),
                                    "out", None) is not None
               and origin.forward.records[victim.job_id].out.state
               is DelegationState.CLAIMED, step=0.01, limit=2 * HOUR)
    origin.gossip.strike("south", "overbilled", definitive=True)
    assert origin.trust.blocks("south")
    assert "south" not in origin.gossip.peer_digests
    # Run the job to completion but stay inside the quarantine window.
    fed.run(until=fed.env.now + 90 * MINUTE)
    # Reconciliation safety outranks isolation: the handshake resolved.
    assert victim.status is JobStatus.COMPLETED
    assert fed.completion_counts().get(victim.job_id) == 1
    # The quarantined host's settlement entry is refused from the
    # verified view while the block holds (ground-truth shared ledger
    # still settled — quarantine never forfeits completed work).
    assert "south" not in origin.sharechain.heads()
    assert origin.sharechain.view.balance("south") == 0.0
    assert fed.ledger.balance("south") > 0.0
    # After the sentence the heal path re-admits the withheld history.
    fed.run(until=30 * HOUR)
    assert blocker.status is JobStatus.COMPLETED
    assert origin.trust.state("south") is TrustState.TRUSTED
    assert origin.sharechain.view.balance("south") == pytest.approx(
        fed.ledger.balance("south"))
    assert fed.duplicate_executions() == []
    assert fed.unresolved_count() == 0
    assert abs(fed.ledger.total()) < 1e-6
    assert fed.tracer.orphans() == []


def test_rejoin_after_eviction_requires_operator_reinstate():
    """An evicted site stays blocked forever on its own; the operator
    lever re-admits it to probation, after which clean behavior earns
    back full trust."""
    fed, north, south = _verified_pair()
    gateway = north.gateway
    fed.run(until=10 * MINUTE)
    gateway.gossip.strike("south", "replay", definitive=True)
    config = fed.federation_config
    fed.run(until=fed.env.now + config.quarantine_duration + MINUTE)
    assert gateway.trust.state("south") is TrustState.PROBATION
    gateway.gossip.strike("south", "fork", definitive=True)
    assert gateway.trust.state("south") is TrustState.EVICTED
    fed.run(until=fed.env.now + 12 * HOUR)
    assert gateway.trust.state("south") is TrustState.EVICTED
    assert not gateway.gossip.reinstate_peer("never-met")
    assert gateway.gossip.reinstate_peer("south")
    assert north.platform.events.count("site-probation") >= 1
    fed.run(until=fed.env.now + config.probation_duration + MINUTE)
    assert gateway.trust.state("south") is TrustState.TRUSTED
    blocker, victim = _forced_forward(fed, north)
    fed.run(until=fed.env.now + 24 * HOUR)
    assert victim.status is JobStatus.COMPLETED
    assert fed.duplicate_executions() == []


# -- verification-on, all-honest --------------------------------------------

def test_all_honest_run_accepts_everything_and_views_converge():
    """With verification on and everyone honest: zero rejections, no
    quarantines, and every site's verified view agrees with the shared
    ground-truth ledger."""
    fed, north, south = _verified_pair()
    blocker, victim = _forced_forward(fed, north)
    fed.run(until=24 * HOUR)
    assert victim.status is JobStatus.COMPLETED
    for handle in fed.sites.values():
        chain = handle.gateway.sharechain
        assert chain.rejected_total == 0
        assert handle.gateway.trust.excluded() == set()
        for site in fed.sites:
            assert chain.view.balance(site) == pytest.approx(
                fed.ledger.balance(site))
    assert fed.site("north").gateway.sharechain.height() >= 1


def test_verification_is_off_by_default():
    fed = FederatedDeployment(seed=5)
    handle = fed.add_campus("solo")
    assert handle.gateway.sharechain is None
    assert handle.gateway.trust is None
    fed.run(until=HOUR)
    assert handle.platform.events.count("ledger-entry-rejected") == 0
