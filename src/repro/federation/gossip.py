"""Digest gossip, share-chain sync and peer trust for one gateway.

Each :class:`~repro.federation.gateway.FederationGateway` composes one
:class:`Gossip`.  It pushes the gateway's capacity digest to every
*WAN neighbour* (direct peering only: capacity knowledge is one hop
wide, which is what makes multi-hop relaying worth having) and keeps a
(possibly stale) view of neighbouring spare capacity.  A changed digest
goes out on the next tick; an unchanged one only before the peer's copy
would go stale, and between those the loop sleeps, so gossip costs
track change, not elapsed time.  With share-chain verification on,
every round also syncs the signed chain with each trusted neighbour and
reacts to what the verifier finds.  Every seam a
:class:`~repro.federation.adversary.ByzantineAdversary` lies through is
here too.
"""

from __future__ import annotations

from math import inf
from typing import TYPE_CHECKING, Dict, Generator, List, Optional

from ..errors import NetworkError
from ..sim import Event, Interrupt, Process, due_time, grid_point
from ..units import HOUR
from .ledger import CreditEntry
from .messages import CapacityDigest
from .sharechain import (BENIGN_REASONS, DEFINITIVE_REASONS, SignedEntry,
                         TrustState)

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from .gateway import FederationGateway


class Gossip:
    """One gateway's digest gossip, chain sync and trust reactions."""

    def __init__(self, gateway: "FederationGateway"):
        self.gateway = gateway
        self.site = gateway.site
        self.env = gateway.env
        self.config = gateway.config
        #: The running loop (replaced at every restart).
        self.loop: Optional[Process] = None
        #: ``_wake`` (set by :meth:`crash`) is the event the loop sleeps
        #: on, triggered while a round runs; ``_base`` the end of its
        #: last round (the tick grid's origin), ``_before`` the grid
        #: point before the armed one (``inf`` while disarmed), and
        #: ``_dirty`` a mark that arrived mid-round or while down.
        interval = self.config.gossip_interval
        self.tick = self.config.gossip_interval_min or interval
        self.refresh = max(interval, self.config.digest_staleness - interval)
        self._timer = self.env.timer(self._due)
        self._base = 0.0
        self._before = inf
        self._dirty = False
        #: Gossip rounds that targeted at least one peer, whether or
        #: not any push got through (a sleeping loop counts nothing).
        self.gossip_rounds = 0
        #: Digests delivered to a neighbour, and pushes that failed.
        self.digests_pushed = 0
        self.digest_push_failures = 0
        self.crash()  # the volatile view starts out as a crash leaves it

    @property
    def peers(self) -> List[str]:
        """Gossip targets: sites with a direct WAN link to this one,
        severed ones included (the push fails and is retried)."""
        return self.gateway.wan.neighbours(self.site, include_down=True)

    # -- crash / restart --------------------------------------------------

    def crash(self) -> None:
        """Drop the volatile view; the chain and trust state are
        durable, and peers' replies rebuild the chain-gossip floors."""
        self.peer_digests: Dict[str, CapacityDigest] = {}
        #: Adaptive-gossip state, tracked *per peer*: the digest each
        #: neighbour last **successfully** received, when, and the
        #: credit balance it reflected.  A failed push leaves that
        #: peer's entry stale so the next tick retries it.
        self._pushed_digest: Dict[str, CapacityDigest] = {}
        self._pushed_at: Dict[str, float] = {}
        self._pushed_balance: Dict[str, float] = {}
        #: Per-peer, per-signer sequence numbers the peer last
        #: acknowledged holding — the chain-gossip delta floor.  The
        #: receiver's reply is authoritative, so a peer that lost its
        #: view (crash) is automatically re-sent the gap.
        self._chain_acked: Dict[str, Dict[str, int]] = {}
        self._wake: Optional[Event] = None
        self._timer.cancel()

    def restart(self) -> None:
        """Start a new loop; the counters survived the crash."""
        self.loop = self.gateway.spawn(self._loop(), f"gossip:{self.site}")

    # -- the round --------------------------------------------------------

    def _digest_drifted(self, peer: str, digest: CapacityDigest,
                        balance: float) -> bool:
        """Whether *this peer's* view of us has gone materially stale,
        judged against the digest it last successfully received (not
        the last one pushed to *anyone*: a peer that missed a round
        must not read as fresh)."""
        last = self._pushed_digest.get(peer)
        if last is None:
            return True
        if digest.free_gpus != last.free_gpus:
            return True
        if digest.free_cards != last.free_cards:
            return True  # same count, different card classes
        if digest.queue_pressure != last.queue_pressure:
            return True
        drift = abs(balance - self._pushed_balance.get(peer, 0.0))
        return drift >= self.config.gossip_balance_drift

    def _loop(self) -> Generator:
        """Push capacity digests to neighbours.

        Rounds fall on a grid of ticks (``gossip_interval``, or the
        fast ``gossip_interval_min``) counted from the end of the last
        round.  A peer is due when its digest drifted since the last
        one it received, or when that push is ``refresh`` seconds old,
        so the next push lands at most ``refresh + tick <=
        digest_staleness`` after the last.

        Between rounds the loop sleeps on one timer (:meth:`_arm`,
        :meth:`note_change`; ``docs/federation-protocol.md``, "Sleeping
        until due"), so a change still goes out on the tick an
        every-tick loop would have sent it.

        Due-ness and drift are evaluated per peer, and a peer's state
        advances only on a *successful* push: a failed push marks, so
        a partitioned neighbour is retried every tick and receives a
        fresh digest on the first tick after heal.  A restarted gateway
        or a peer leaving quarantine, though, may wait up to ``refresh
        + tick`` for an unchanged neighbour digest.
        """
        gateway = self.gateway
        refresh = self.refresh
        self._base = self.env.now
        while True:
            self._wake = self.env.event()
            self._arm()
            try:
                yield self._wake
            except Interrupt:
                return  # gateway crashed
            self._dirty = False
            digest = gateway.local_digest()
            if gateway.adversary is not None:
                digest = gateway.adversary.advertise(digest)
            now = self.env.now
            balance = gateway.ledger.balance(self.site)
            targets = [
                peer for peer in self.peers
                if now - self._pushed_at.get(peer, -inf) >= refresh
                or self._digest_drifted(peer, digest, balance)
            ]
            if targets:
                self.gossip_rounds += 1
            for peer in targets:
                try:
                    yield gateway.call(peer, "digest", digest)
                except Interrupt:
                    return  # gateway crashed
                except NetworkError:
                    self.digest_push_failures += 1
                    self._dirty = True  # retried next tick
                    continue
                self.digests_pushed += 1
                # Stamped with the decision-time clock (not the
                # post-push clock) so all peers in one round share
                # identical state.
                self._pushed_digest[peer] = digest
                self._pushed_at[peer] = now
                self._pushed_balance[peer] = balance
            if gateway.sharechain is not None:
                try:
                    yield from self._sync_chain()
                except Interrupt:
                    return  # gateway crashed
            self._base = self.env.now

    def _arm(self) -> None:
        """Sleep until the first tick after the round that is at or
        after the earliest refresh or trust deadline (the round's end
        after a mark, every tick while an adversary is attached or the
        admission forecast decays); with none, until a mark."""
        if (self._dirty or self.gateway.adversary is not None
                or self.config.admission_headroom_horizon > 0):
            due = self._base
        else:
            due = min((due_time(self._pushed_at[peer], self.refresh)
                       if peer in self._pushed_at else -inf
                       for peer in self.peers), default=inf)
            if self.gateway.trust is not None:
                due = min(due, self.gateway.trust.next_deadline())
        if due == inf:
            self._before = inf
            return
        self._before, when = grid_point(self._base, self.tick, due)
        self._timer.arm(when)

    def _due(self) -> None:
        self._wake.succeed()

    def note_change(self) -> None:
        """Mark that an input of the digest, the balance or the chain
        delta changed, so gossip re-checks on the next tick: during a
        round the round's end arms it; while the loop sleeps the timer
        moves to the first tick at or after now, if that is earlier.
        A spurious mark costs one round, never a wrong push."""
        wake = self._wake
        if wake is None or wake.triggered:
            self._dirty = True
            return
        now = self.env.now
        if self._before < now:
            return  # the armed tick is already the first at or after now
        self._before, when = grid_point(self._base, self.tick, now)
        self._timer.arm(when)

    def on_ledger_entry(self, entry: CreditEntry) -> None:
        if self.site in (entry.donor, entry.beneficiary):
            self.note_change()  # this site's balance moved

    def handle_digest(self, digest: CapacityDigest):
        trust = self.gateway.trust
        if trust is not None and trust.blocks(digest.site):
            return "quarantined"  # a quarantined peer's view is refused
        self.peer_digests[digest.site] = digest
        return "ok"

    # -- share-chain verification & quarantine ----------------------------

    def _sync_chain(self) -> Generator:
        """One verification turn per gossip round: advance the
        quarantine clock, then sync this site's chain view (suffixes
        past what each peer last acknowledged) to every trusted peer.
        """
        gateway = self.gateway
        trust = gateway.trust
        for peer, old, new in trust.tick(self.env.now):
            self._on_trust_transition(peer, old, new, "timer")
        for peer in self.peers:
            if trust.blocks(peer):
                continue  # no chain sync with a quarantined peer
            delta = list(gateway.sharechain.entries_after(
                self._chain_acked.get(peer, {})))
            if gateway.adversary is not None:
                delta = gateway.adversary.chain_delta(delta)
            if not delta:
                continue
            self._dirty = True  # the ack is checked next tick
            try:
                reply = yield gateway.call(
                    peer, "chain-entries",
                    {"sender": self.site, "entries": tuple(delta)})
            except NetworkError:
                continue  # partitioned peer; retried next tick
            if isinstance(reply, dict) and "heads" in reply:
                # The receiver's reply is authoritative: a peer that
                # lost its view (crash) reports low heads and is
                # re-sent the gap next tick.
                self._chain_acked[peer] = dict(reply["heads"])

    def handle_chain_entries(self, payload: dict):
        chain = self.gateway.sharechain
        if chain is None:
            return {"disabled": True}
        sender = payload.get("sender", "")
        if self.gateway.trust.blocks(sender):
            # No heads in the reply: a quarantined sender learns
            # nothing about our view and its ack floor stays frozen.
            return {"rejected": "quarantined"}
        for signed in payload.get("entries", ()):
            self._ingest(signed, sender)
        self.note_change()  # our view grew: other peers' deltas did too
        return {"heads": chain.heads()}

    def _ingest(self, signed: SignedEntry, sender: str) -> None:
        chain = self.gateway.sharechain
        if self.gateway.trust.blocks(signed.signer):
            # Entries signed by a quarantined site are refused even
            # when relayed by an honest peer — and the honest relay
            # earns no strike for carrying them.
            chain.count_rejection("quarantined-signer")
            self._emit_rejection(signed, "quarantined-signer", sender)
            return
        reason = chain.ingest(signed, cross_check=self._cross_check)
        if reason is None or reason == "duplicate":
            return
        self._emit_rejection(signed, reason, sender)
        if reason in BENIGN_REASONS:
            return
        # Attribution: a broken signature or payload hash implicates
        # the *transport* (the sender tampered in flight); every other
        # offense implicates the signer, whose key authenticated the
        # lie.
        offender = sender if reason == "bad-signature" else signed.signer
        self.strike(offender, reason, definitive=reason in DEFINITIVE_REASONS)

    def _cross_check(self, signed: SignedEntry) -> Optional[str]:
        """Audit a bill against this site's own delegation records.

        Only entries charging *this* site are checkable — we hold the
        book for our own jobs.  Everything else is accepted
        provisionally and purged wholesale if its signer is later
        quarantined.
        """
        entry = signed.entry
        if entry.beneficiary != self.site:
            return None
        gateway = self.gateway
        record = gateway.forward.delegation(entry.job_id)
        state = gateway.platform.coordinator.jobs.get(entry.job_id)
        if record is None or state is None:
            return "unknown-job"  # billed for a job we never delegated
        budget = state.spec.total_compute / HOUR
        tolerance = 1e-6
        if entry.kind == "donation":
            billed = (gateway.sharechain.donated_for_job(entry.job_id)
                      + entry.gpu_hours)
            if billed > budget + tolerance:
                return "overbilled"  # cumulative hours exceed the job
        else:
            fee_cap = budget * self.config.relay_fee_fraction
            if entry.gpu_hours > fee_cap + tolerance:
                return "overbilled"  # fee above the per-hop ceiling
        return None

    def _emit_rejection(self, signed: SignedEntry, reason: str,
                        sender: str) -> None:
        """First-class detection record: event + root trace span."""
        entry = signed.entry
        self.gateway.platform.events.emit(
            "ledger-entry-rejected", site=self.site, reason=reason,
            signer=signed.signer, source=sender, job_id=entry.job_id,
            entry_kind=entry.kind, gpu_hours=entry.gpu_hours)
        tracer = self.gateway.tracer
        if tracer is not None:
            span = tracer.start(
                "ledger-entry-rejected",
                trace_id=f"byzantine:{self.site}",
                site=self.site, reason=reason, signer=signed.signer,
                source=sender, job_id=entry.job_id)
            tracer.finish(span, status="rejected")

    def strike(self, offender: str, reason: str, definitive: bool) -> None:
        """Count one offense against ``offender`` (no-op without trust,
        for an unnamed offender, or against ourselves)."""
        trust = self.gateway.trust
        if trust is None or not offender or offender == self.site:
            return
        transition = trust.strike(offender, reason, self.env.now,
                                  definitive=definitive)
        if transition is not None:
            self._on_trust_transition(offender, transition[0],
                                      transition[1], reason)

    def _on_trust_transition(self, peer: str, old: TrustState,
                             new: TrustState, reason: str) -> None:
        """React to a quarantine state change for one peer.  Entering
        quarantine (or eviction) drops its digest, purges its chain and
        forgets its ack floor.  In-flight handshakes are *not*
        interrupted: reconciliation safety outranks isolation."""
        self.note_change()
        purged = 0
        if new in (TrustState.QUARANTINED, TrustState.EVICTED):
            purged = self.gateway.sharechain.purge_signer(peer)
            self.peer_digests.pop(peer, None)
            self._chain_acked.pop(peer, None)
        kind = {
            TrustState.QUARANTINED: "site-quarantined",
            TrustState.EVICTED: "site-evicted",
            TrustState.PROBATION: "site-probation",
            TrustState.TRUSTED: "site-reinstated",
        }[new]
        self.gateway.platform.events.emit(
            kind, site=self.site, peer=peer, reason=reason,
            was=old.name.lower(), purged_entries=purged)
        tracer = self.gateway.tracer
        if tracer is not None:
            span = tracer.start(kind, trace_id=f"byzantine:{self.site}",
                                site=self.site, peer=peer, reason=reason,
                                purged_entries=purged)
            tracer.finish(span)

    def reinstate_peer(self, peer: str) -> bool:
        """Operator override: re-admit an evicted peer to probation."""
        trust = self.gateway.trust
        if trust is None:
            return False
        if trust.reinstate(peer, self.env.now):
            self._on_trust_transition(peer, TrustState.EVICTED,
                                      TrustState.PROBATION,
                                      "operator-reinstate")
            return True
        return False

    def record(self, entry: CreditEntry) -> None:
        """Mirror a settlement this site just wrote into its signed
        chain (the copy peers verify)."""
        gateway = self.gateway
        if gateway.sharechain is None:
            return
        if gateway.adversary is not None and gateway.adversary.record(entry):
            return
        gateway.sharechain.append(entry)
        self.note_change()
