"""Per-campus federation gateway.

One gateway fronts each campus deployment.  It owns five duties:

* **Gossip** — compute a :class:`CapacityDigest` from the local
  coordinator's registry and push it to every *WAN neighbour* (direct
  peering only: capacity knowledge is one hop wide, which is what
  makes multi-hop relaying worth having), keeping a (possibly stale)
  view of neighbouring spare capacity.  A changed digest goes out on
  the next tick; an unchanged one is re-sent only when the peer's copy
  would otherwise go stale, and between those the loop sleeps, so
  gossip costs track change, not elapsed time.  With
  ``gossip_interval_min`` set the tick turns fast: spare capacity,
  queue pressure, or credit-balance drift reach peers within seconds,
  cutting the staleness window that makes peers forward into a wall.
* **Egress** — the coordinator's ``on_unplaceable`` hook lands here:
  when the local fleet cannot place a training request, the gateway
  may take ownership and offer the job to the best-scoring peer via a
  **two-phase handshake** (offer → claim-token → commit-ack).  Phase 1
  moves only metadata and costs at most an expiring capacity lease;
  phase 2 carries the claim token, pulls the bulk payload, and commits
  at most once per token.  A lost commit acknowledgement therefore
  parks the delegation as *unknown outcome* — resolved by an
  idempotent ``forward-status`` probe, never by blind re-queuing (the
  double-schedule bug the one-shot protocol had).  *Foreign* jobs this
  site cannot place take the same path — a **relay** hop toward a
  neighbour the job has not visited yet (``relay_path`` is the loop
  guard), up to ``max_forward_hops`` WAN crossings in total.
* **Ingress** — the phase handlers apply the local acceptance policy
  (queue pressure, card fit, the admission controller's home-demand
  headroom, and the ``host_foreign_jobs`` opt-out), pull the bulk
  payload (dataset or checkpoint snapshot) over the WAN from the
  *previous hop* with transfer time charged on the sim clock, import
  the snapshot into the local checkpoint store, and submit the job to
  the local coordinator with full provenance.
* **Settlement** — when a foreign job completes here, the gateway
  credits this site in the shared :class:`CreditLedger` for the
  GPU-hours actually donated (arrival progress is *not* billed), pays
  each intermediate relay site its fee out of the origin's balance,
  and notifies the previous hop; relays chain the notice onward, each
  hop keeping it until acknowledged, so a partitioned origin receives
  it on heal instead of never.
* **Reconciliation** — a pass (kicked immediately by every WAN heal,
  and periodic only while work is left) resolves unknown-outcome
  delegations, delivers pending cross-site cancellations with
  at-most-once effect, and re-sends unacknowledged completion
  notices.  Every reconciliation message is idempotent at the
  receiver, so heal-kicks and the timer may race freely.

All messaging rides the WAN RPC layer, so control chatter and bulk
replication compete for the same long-haul links — and all of it can
fail mid-flight with :class:`~repro.errors.WanPartitionError` when a
link is severed.
"""

from __future__ import annotations

from dataclasses import replace
from math import inf, nextafter
from typing import (TYPE_CHECKING, Callable, Dict, Generator, List,
                    Optional, Set)

from ..core.messages import ResourceRequest
from ..core.platform import GPUnionPlatform
from ..errors import NetworkError, SnapshotVersionError
from ..monitoring.events import PlatformEvent
from ..network import FlowNetwork, RpcError, RpcLayer, WanTopology
from ..sim import Event, Interrupt, Process, due_time, grid_point
from ..units import HOUR
from ..workloads.training import JobStatus, TrainingJobSpec
from .admission import AdmissionController
from .ledger import CreditEntry, CreditLedger
from .messages import (
    GATEWAY_SNAPSHOT_VERSION,
    JOURNAL_STATES,
    CapacityDigest,
    DelegationState,
    ForwardEnvelope,
    ForwardOffer,
    ForwardRecord,
    GatewaySnapshot,
    HostingState,
    HostRecord,
    JobRecord,
)
from .policy import FederationConfig, ForwardingPolicy
from .sharechain import (
    BENIGN_REASONS,
    DEFINITIVE_REASONS,
    PeerTrust,
    ShareChain,
    SignedEntry,
    SiteKeyring,
    TrustState,
)

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..observability.trace import Tracer
    from ..storage import StateVault
    from .adversary import ByzantineAdversary

#: Flow categories the gateway stamps on its bulk payload pulls.  Both
#: map to the *bulk* traffic class under the default
#: :class:`~repro.network.qos.QoSPolicy`, while the RPC layer's
#: ``"control"`` legs ride the strict-priority control class and
#: session traffic the interactive class — the class wiring the WAN
#: QoS engine keys on.
CHECKPOINT_CATEGORY = "federation-checkpoint"
DATASET_CATEGORY = "federation-dataset"

#: Gateway counters the snapshot carries across a restart.
_COUNTERS = ("forwarded_out", "forwarded_in", "relayed_out", "declined",
             "gossip_rounds", "digests_pushed", "digest_push_failures",
             "wan_transfer_seconds")

#: Legal successors of every phase of a job's two legs.
_NEXT = {
    DelegationState.OFFERED: {DelegationState.CLAIMED},
    DelegationState.CLAIMED: {DelegationState.COMMITTED,
                              DelegationState.UNKNOWN},
    DelegationState.UNKNOWN: {DelegationState.COMMITTED},
    DelegationState.COMMITTED: {DelegationState.COMPLETED,
                                DelegationState.CANCELLED},
    # On a relayed job a cancel reply and a chained completion notice
    # can cross, so each terminal phase may still become the other.
    DelegationState.COMPLETED: {DelegationState.CANCELLED},
    DelegationState.CANCELLED: {DelegationState.COMPLETED},
    HostingState.COMMITTING: {HostingState.HOSTED},
    HostingState.HOSTED: {HostingState.SETTLED},
    HostingState.SETTLED: set(),
}


def _advance(leg, phase) -> None:
    """Move one leg to ``phase`` — the only place a phase is written."""
    if phase not in _NEXT[leg.state]:
        raise ValueError(
            f"illegal transition {leg.state.name} -> {phase.name}")
    leg.state = phase


def _unknown(record: JobRecord) -> bool:
    return (record.out is not None
            and record.out.state is DelegationState.UNKNOWN)


def _cancelling(record: JobRecord) -> bool:
    return record.out is not None and record.out.cancel_pending


def _hosting(record: JobRecord) -> bool:
    return (record.host is not None
            and record.host.state is HostingState.HOSTED)


def _durable(record: JobRecord) -> JobRecord:
    """A copy of the record with its own legs (requests and spans stay
    shared) and without the facets a crash kills: the backoff clock
    and an inbound leg whose payload pull is still running."""
    host = record.host
    if host is not None:
        host = None if host.state is HostingState.COMMITTING else replace(host)
    return replace(record, out=replace(record.out) if record.out else None,
                   host=host, retry_after=0.0)


class FederationGateway:
    """One campus's ambassador to the federation."""

    def __init__(
        self,
        site: str,
        platform: GPUnionPlatform,
        wan: WanTopology,
        fabric: FlowNetwork,
        wan_rpc: RpcLayer,
        ledger: CreditLedger,
        config: Optional[FederationConfig] = None,
    ):
        self.site = site
        self.platform = platform
        self.wan = wan
        self.fabric = fabric
        self.wan_rpc = wan_rpc
        self.ledger = ledger
        self.config = config or FederationConfig()
        self.policy = ForwardingPolicy(self.config)
        self.env = platform.env

        self.admission = AdmissionController(
            self.env, self.config, jobs=platform.coordinator.jobs)

        self.peer_digests: Dict[str, CapacityDigest] = {}
        #: The per-job protocol table: each job's sender leg, inbound
        #: hosting leg and unacked completion notice.  Durable: it is
        #: snapshotted after every mutation and restored on restart.
        self.records: Dict[str, JobRecord] = {}
        #: Host-side capacity leases: claim token → granted offer.
        #: Keyed by token, not job: a job re-offered after its origin
        #: crashed in phase 1 can hold two leases here at once.
        self._offers: Dict[str, ForwardOffer] = {}

        #: Next claim-token ordinal.  A plain int (not a generator) so
        #: it snapshots: token monotonicity must survive a restart, or
        #: a recycled token could collide with a pre-crash handshake.
        self._token_seq = 1
        self._reconcile_wake: Optional[Event] = None
        self._reconcile_timer = self.env.timer(self._reconcile_due)
        self._reconcile_kicked = False
        #: The reconcile grid's origin: the loop's last wake.
        self._reconcile_base = 0.0

        #: Durable-state vault (attached by the deployment when
        #: control-plane failover is enabled; ``None`` keeps every
        #: checkpoint a no-op on the default path).
        self.vault: Optional["StateVault"] = None
        self._crashed = False
        self.restarts = 0
        #: Gateway-owned processes (loops, forwards, notifies) —
        #: interrupted wholesale when the gateway crashes.
        self._procs: Set[Process] = set()

        #: Adaptive-gossip state, tracked *per peer*: the digest each
        #: neighbour last **successfully** received, when, and the
        #: credit balance it reflected.  A failed push leaves that
        #: peer's entry stale so the next tick retries it with fresh
        #: data — the old global-digest tracking marked every peer
        #: up to date the moment the round *started*, so a partitioned
        #: neighbour could sit on a stale view long after healing.
        self._pushed_digest: Dict[str, CapacityDigest] = {}
        self._pushed_at: Dict[str, float] = {}
        self._pushed_balance: Dict[str, float] = {}
        #: The gossip loop sleeps on one timer until a round is due:
        #: ``_gossip_wake`` is the event it waits on (triggered while
        #: a round runs), ``_gossip_base`` the end of its last round,
        #: the origin of its tick grid, and ``_gossip_before`` the grid
        #: point before the armed one (``inf`` while disarmed).
        #: ``_gossip_dirty`` records a change mark during a round.
        interval = self.config.gossip_interval
        self._gossip_tick = self.config.gossip_interval_min or interval
        self._gossip_refresh = max(interval,
                                   self.config.digest_staleness - interval)
        self._gossip_wake: Optional[Event] = None
        self._gossip_timer = self.env.timer(self._gossip_due)
        self._gossip_base = 0.0
        self._gossip_before = inf
        self._gossip_dirty = False

        self.forwarded_out = 0
        self.forwarded_in = 0
        #: Foreign jobs this site re-forwarded onward (subset of
        #: ``forwarded_out``): the relay traffic multi-hop enables.
        self.relayed_out = 0
        self.declined = 0
        #: Gossip rounds that targeted at least one peer, whether or
        #: not any push got through (a sleeping loop counts nothing).
        self.gossip_rounds = 0
        #: Digests delivered to a neighbour, and pushes that failed.
        self.digests_pushed = 0
        self.digest_push_failures = 0
        self.wan_transfer_seconds = 0.0

        #: Share-chain verification layer (``None`` = disabled, the
        #: default: the golden path must not change by one event).
        self.sharechain: Optional[ShareChain] = None
        #: Per-peer quarantine state machine (with the share-chain).
        self.trust: Optional[PeerTrust] = None
        #: Per-peer, per-signer sequence numbers the peer last
        #: acknowledged holding — the chain-gossip delta floor.  The
        #: receiver's reply is authoritative, so a peer that lost its
        #: view (crash) is automatically re-sent the gap.
        self._chain_acked: Dict[str, Dict[str, int]] = {}
        #: The lies this site tells (``None`` for an honest gateway):
        #: a :class:`~repro.federation.adversary.ByzantineAdversary`
        #: that only fault injection attaches.
        self.adversary: Optional["ByzantineAdversary"] = None

        wan.add_site(site)
        wan.add_listener(self._on_wan_transition)
        ledger.register_site(site)
        ledger.add_listener(self._on_ledger_entry)
        platform.coordinator.registry.add_listener(self.note_change)
        platform.coordinator.queue.add_listener(self.note_change)
        self._bind_endpoint()
        platform.coordinator.on_unplaceable = self._on_unplaceable
        platform.coordinator.on_cancel_delegated = self._on_cancel_delegated
        platform.events.subscribe(self._on_event)
        self._start_loops()

    def _bind_endpoint(self) -> None:
        endpoint = self.wan_rpc.bind(self.site)
        endpoint.register("digest", self._handle_digest)
        endpoint.register("forward-offer", self._handle_forward_offer)
        endpoint.register("forward-commit", self._handle_forward_commit)
        endpoint.register("forward-release", self._handle_forward_release)
        endpoint.register("forward-status", self._handle_forward_status)
        endpoint.register("cancel-job", self._handle_cancel_job)
        endpoint.register("job-complete", self._handle_job_complete)
        endpoint.register("chain-entries", self._handle_chain_entries)

    def _start_loops(self) -> None:
        self._spawn(self._gossip_loop(), f"gossip:{self.site}")
        self._spawn(self._reconcile_loop(), f"reconcile:{self.site}")
        if self.adversary is not None:
            self.adversary.resume()

    def _spawn(self, gen: Generator, name: str) -> Process:
        """Start a gateway-owned process, tracked for crash interrupts."""
        proc = self.env.process(gen, name=name)
        self._procs.add(proc)
        if proc.callbacks is not None:
            proc.callbacks.append(
                lambda _ev, p=proc: self._procs.discard(p))
        return proc

    def _call(self, dest: str, method: str, payload,
              timeout: Optional[float] = None) -> Event:
        """A control-sized RPC to a peer gateway, under the control
        timeout unless ``timeout`` is given."""
        return self.wan_rpc.call(
            self.site, dest, method, payload,
            request_size=self.config.control_message_bytes,
            response_size=self.config.control_message_bytes,
            timeout=(self.config.control_rpc_timeout if timeout is None
                     else timeout))

    # -- the per-job table ------------------------------------------------

    def _ids(self, keep: Callable[[JobRecord], bool]) -> List[str]:
        """Sorted ids of the records ``keep`` selects right now."""
        return sorted(job_id for job_id, record in self.records.items()
                      if keep(record))

    def _delegation(self, job_id: str) -> Optional[ForwardRecord]:
        """The job's sender leg once it has left the journal phases."""
        record = self.records.get(job_id)
        leg = record.out if record is not None else None
        return None if leg is None or leg.state in JOURNAL_STATES else leg

    def _inbound(self, job_id: str,
                 *states: HostingState) -> Optional[HostRecord]:
        """The job's inbound leg, if it is in one of ``states``."""
        record = self.records.get(job_id)
        leg = record.host if record is not None else None
        return leg if leg is not None and leg.state in states else None

    # -- tracing ----------------------------------------------------------

    @property
    def tracer(self) -> Optional["Tracer"]:
        """The shared federation tracer (``None`` when tracing is off).

        Lives on the coordinator so both control planes stamp spans
        into the same store; read dynamically so attaching a tracer
        after construction works.
        """
        return self.platform.coordinator.tracer

    # -- gossip -----------------------------------------------------------

    @property
    def peers(self) -> List[str]:
        """Gossip targets: sites with a direct WAN link to this one.

        Capacity knowledge is deliberately *neighbour-scoped* — a
        digest travels one peering hop, never transitively — so a
        job's placement reach beyond the neighbourhood comes from
        multi-hop relaying, not from gossip flooding.  Severed
        neighbours stay on the list (the push just fails and is
        retried next round), exactly as before a partition.
        """
        return self.wan.neighbours(self.site, include_down=True)

    def local_digest(self) -> CapacityDigest:
        """Summarise this campus's spare capacity right now.

        Only *fully-idle* cards count — forwarded training is
        exclusive, so a busy card's free memory is not remote-placement
        capacity.  Inbound offers already accepted (leases granted or
        payload pulls in flight) are subtracted, so concurrent origins
        cannot all claim the same advertised GPU.  The admission
        controller's home-demand headroom is subtracted too, and an
        opted-out site (``host_foreign_jobs=False``) advertises no
        capacity at all — the digest is the single place admission
        policy turns into what peers (and the live offer check) see.
        """
        free_gpus = 0
        free_cards: tuple = ()
        # Reserved: live leases plus commits whose payload pull runs.
        reserved = len(self._offers) + sum(
            1 for record in self.records.values()
            if record.host is not None
            and record.host.state is HostingState.COMMITTING)
        if self.config.host_foreign_jobs:
            card_classes = set()
            for record in self.platform.coordinator.registry.schedulable():
                for gpu in record.gpus.values():
                    if gpu.memory_free >= gpu.memory_total:
                        free_gpus += 1
                        card_classes.add(
                            (gpu.memory_total, tuple(gpu.compute_capability)))
            free_cards = tuple(sorted(card_classes))
            free_gpus -= self.admission.reserved_headroom()
        return CapacityDigest(
            site=self.site,
            free_gpus=free_gpus - reserved,
            free_cards=free_cards,
            queue_pressure=self.platform.coordinator.queue_pressure + reserved,
            advertised_at=self.env.now,
        )

    def _digest_drifted(self, peer: str, digest: CapacityDigest,
                        balance: float) -> bool:
        """Whether *this peer's* view of us has gone materially stale.

        Drift is judged against the digest the peer last successfully
        received — not against the last digest pushed to *anyone*.
        The old global comparison let one successful push mark every
        neighbour fresh, so a peer that missed the round (partitioned,
        or simply added later) kept acting on arbitrarily stale data
        until the next whole-interval round.
        """
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

    def _gossip_loop(self) -> Generator:
        """Push capacity digests to neighbours.

        Rounds fall on a grid of ticks: ``gossip_interval`` by default,
        or the fast ``gossip_interval_min`` when set, counted from the
        end of the last round.  A peer is due for a push when its
        digest drifted since the last one it received (freshly-freed
        capacity, a changed queue, or credit-balance movement) or when
        that push is ``refresh`` seconds old, where ``refresh =
        max(gossip_interval, digest_staleness - gossip_interval)``.  An
        unchanged digest therefore goes out only before the peer's copy
        would go stale: the next push lands at most ``refresh + tick
        <= digest_staleness`` after the last.

        Between rounds the loop sleeps on one timer, armed at the first
        tick at or after the earliest refresh or quarantine deadline,
        or at the next tick when a change mark (:meth:`note_change`)
        arrived during the round.  A mark while it sleeps pulls the
        timer to the first tick at or after now.  A quiet federation
        therefore wakes only at refresh deadlines, while a change still
        goes out on the tick the old every-tick loop would have sent it.
        The loop ticks every tick while an adversary is attached (its
        seams keep their per-tick timing) or while the admission
        headroom horizon is set (the forecast decays with time).

        Due-ness and drift are evaluated per peer, and a peer's state
        advances only on a *successful* push: a failed push marks, so
        a partitioned neighbour is retried every tick and receives a
        fresh digest on the first tick after heal.  A restarted gateway
        or a peer leaving quarantine, though, may wait up to ``refresh
        + tick`` for an unchanged neighbour digest.
        """
        refresh = self._gossip_refresh
        self._gossip_base = self.env.now
        while True:
            self._gossip_wake = self.env.event()
            self._arm_gossip()
            try:
                yield self._gossip_wake
            except Interrupt:
                return  # gateway crashed
            self._gossip_dirty = False
            digest = self.local_digest()
            if self.adversary is not None:
                digest = self.adversary.advertise(digest)
            now = self.env.now
            balance = self.ledger.balance(self.site)
            targets = [
                peer for peer in self.peers
                if now - self._pushed_at.get(peer, -inf) >= refresh
                or self._digest_drifted(peer, digest, balance)
            ]
            if targets:
                self.gossip_rounds += 1
            for peer in targets:
                try:
                    yield self._call(peer, "digest", digest)
                except Interrupt:
                    return  # gateway crashed
                except NetworkError:
                    self.digest_push_failures += 1
                    self._gossip_dirty = True  # retried next tick
                    continue
                self.digests_pushed += 1
                # Stamped with the decision-time clock (not the
                # post-push clock) so all peers in one round share
                # identical state.
                self._pushed_digest[peer] = digest
                self._pushed_at[peer] = now
                self._pushed_balance[peer] = balance
            if self.sharechain is not None:
                try:
                    yield from self._sharechain_tick()
                except Interrupt:
                    return  # gateway crashed
            self._gossip_base = self.env.now

    def _arm_gossip(self) -> None:
        """Sleep until the first tick after the round that is at or
        after the earliest due time; with none, until a mark."""
        if (self._gossip_dirty or self.adversary is not None
                or self.config.admission_headroom_horizon > 0):
            due = self._gossip_base
        else:
            due = min((due_time(self._pushed_at[peer], self._gossip_refresh)
                       if peer in self._pushed_at else -inf
                       for peer in self.peers), default=inf)
            if self.trust is not None:
                due = min(due, self.trust.next_deadline())
        if due == inf:
            self._gossip_before = inf
            return
        self._gossip_before, when = grid_point(
            self._gossip_base, self._gossip_tick, due)
        self._gossip_timer.arm(when)

    def _gossip_due(self) -> None:
        self._gossip_wake.succeed()

    def note_change(self) -> None:
        """Mark that an input of the digest, the balance or the chain
        delta changed, so gossip re-checks on the next tick.

        During a round the mark only sets the dirty flag, and the
        round's end arms the next tick.  While the loop sleeps it
        re-arms the timer to the first tick at or after now, if that
        is earlier than the armed one.  The round's drift check decides
        whether anything is pushed, so a spurious mark costs one round
        and never a wrong push.
        """
        wake = self._gossip_wake
        if wake is None or wake.triggered:
            self._gossip_dirty = True
            return
        now = self.env.now
        if self._gossip_before < now:
            return  # the armed tick is already the first at or after now
        self._gossip_before, when = grid_point(
            self._gossip_base, self._gossip_tick, now)
        self._gossip_timer.arm(when)

    def _on_ledger_entry(self, entry: CreditEntry) -> None:
        if self.site in (entry.donor, entry.beneficiary):
            self.note_change()  # this site's balance moved

    def _handle_digest(self, digest: CapacityDigest):
        if self.trust is not None and self.trust.blocks(digest.site):
            return "quarantined"  # a quarantined peer's view is refused
        self.peer_digests[digest.site] = digest
        return "ok"

    # -- share-chain verification & quarantine ----------------------------

    def enable_ledger_verification(self, keyring: SiteKeyring) -> None:
        """Attach the share-chain verification layer (idempotent).

        Entirely off the default path: with no chain attached the
        gateway neither signs, gossips, nor verifies credit entries,
        so verification-off runs stay event-identical to the seed.
        """
        if self.sharechain is not None:
            return
        keyring.register(self.site)
        self.sharechain = ShareChain(self.site, keyring)
        self.trust = PeerTrust(self.site, self.config)

    def _sharechain_tick(self) -> Generator:
        """One verification turn per gossip round: advance the
        quarantine clock, then sync this site's chain view (suffixes
        past what each peer last acknowledged) to every trusted peer.
        """
        for peer, old, new in self.trust.tick(self.env.now):
            self._on_trust_transition(peer, old, new, "timer")
        for peer in self.peers:
            if self.trust.blocks(peer):
                continue  # no chain sync with a quarantined peer
            delta = list(self.sharechain.entries_after(
                self._chain_acked.get(peer, {})))
            if self.adversary is not None:
                delta = self.adversary.chain_delta(delta)
            if not delta:
                continue
            self._gossip_dirty = True  # the ack is checked next tick
            try:
                reply = yield self._call(
                    peer, "chain-entries",
                    {"sender": self.site, "entries": tuple(delta)})
            except NetworkError:
                continue  # partitioned peer; retried next tick
            if isinstance(reply, dict) and "heads" in reply:
                # The receiver's reply is authoritative: a peer that
                # lost its view (crash) reports low heads and is
                # re-sent the gap next tick.
                self._chain_acked[peer] = dict(reply["heads"])

    def _handle_chain_entries(self, payload: dict):
        if self.sharechain is None:
            return {"disabled": True}
        sender = payload.get("sender", "")
        if self.trust.blocks(sender):
            # No heads in the reply: a quarantined sender learns
            # nothing about our view and its ack floor stays frozen.
            return {"rejected": "quarantined"}
        for signed in payload.get("entries", ()):
            self._ingest_chain_entry(signed, sender)
        self.note_change()  # our view grew: other peers' deltas did too
        return {"heads": self.sharechain.heads()}

    def _ingest_chain_entry(self, signed: SignedEntry,
                            sender: str) -> None:
        chain = self.sharechain
        if self.trust.blocks(signed.signer):
            # Entries signed by a quarantined site are refused even
            # when relayed by an honest peer — and the honest relay
            # earns no strike for carrying them.
            chain.count_rejection("quarantined-signer")
            self._emit_rejection(signed, "quarantined-signer", sender)
            return
        reason = chain.ingest(signed, cross_check=self._cross_check_entry)
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
        self._apply_strike(offender, reason,
                           definitive=reason in DEFINITIVE_REASONS)

    def _cross_check_entry(self, signed: SignedEntry) -> Optional[str]:
        """Audit a bill against this site's own delegation records.

        Only entries charging *this* site are checkable — we hold the
        book for our own jobs.  Everything else is accepted
        provisionally and purged wholesale if its signer is later
        quarantined.
        """
        entry = signed.entry
        if entry.beneficiary != self.site:
            return None
        record = self._delegation(entry.job_id)
        state = self.platform.coordinator.jobs.get(entry.job_id)
        if record is None or state is None:
            return "unknown-job"  # billed for a job we never delegated
        budget = state.spec.total_compute / HOUR
        tolerance = 1e-6
        if entry.kind == "donation":
            billed = (self.sharechain.donated_for_job(entry.job_id)
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
        self.platform.events.emit(
            "ledger-entry-rejected", site=self.site, reason=reason,
            signer=signed.signer, source=sender, job_id=entry.job_id,
            entry_kind=entry.kind, gpu_hours=entry.gpu_hours)
        tracer = self.tracer
        if tracer is not None:
            span = tracer.start(
                "ledger-entry-rejected",
                trace_id=f"byzantine:{self.site}",
                site=self.site, reason=reason, signer=signed.signer,
                source=sender, job_id=entry.job_id)
            tracer.finish(span, status="rejected")

    def _apply_strike(self, offender: str, reason: str,
                      definitive: bool) -> None:
        if self.trust is None or not offender or offender == self.site:
            return
        transition = self.trust.strike(offender, reason, self.env.now,
                                       definitive=definitive)
        if transition is not None:
            self._on_trust_transition(offender, transition[0],
                                      transition[1], reason)

    def _on_trust_transition(self, peer: str, old: TrustState,
                             new: TrustState, reason: str) -> None:
        """React to a quarantine state change for one peer.

        Entering quarantine (or eviction) severs every trust surface
        at once: the peer's digest is dropped (no more forwards to
        it), its chain is purged from the local view, and its ack
        floor is forgotten.  In-flight two-phase handshakes are *not*
        interrupted — reconciliation safety outranks isolation, so a
        claim token the offender already holds resolves through the
        normal probe machinery.
        """
        self.note_change()
        purged = 0
        if new in (TrustState.QUARANTINED, TrustState.EVICTED):
            purged = self.sharechain.purge_signer(peer)
            self.peer_digests.pop(peer, None)
            self._chain_acked.pop(peer, None)
        kind = {
            TrustState.QUARANTINED: "site-quarantined",
            TrustState.EVICTED: "site-evicted",
            TrustState.PROBATION: "site-probation",
            TrustState.TRUSTED: "site-reinstated",
        }[new]
        self.platform.events.emit(kind, site=self.site, peer=peer,
                                  reason=reason, was=old.name.lower(),
                                  purged_entries=purged)
        tracer = self.tracer
        if tracer is not None:
            span = tracer.start(kind, trace_id=f"byzantine:{self.site}",
                                site=self.site, peer=peer, reason=reason,
                                purged_entries=purged)
            tracer.finish(span)

    def reinstate_peer(self, peer: str) -> bool:
        """Operator override: re-admit an evicted peer to probation."""
        if self.trust is None:
            return False
        if self.trust.reinstate(peer, self.env.now):
            self._on_trust_transition(peer, TrustState.EVICTED,
                                      TrustState.PROBATION,
                                      "operator-reinstate")
            return True
        return False

    def _chain_record(self, entry: CreditEntry) -> None:
        """Mirror a settlement this site just wrote into its signed
        chain (the copy peers verify)."""
        if self.sharechain is None:
            return
        if self.adversary is not None and self.adversary.record(entry):
            return
        self.sharechain.append(entry)
        self.note_change()

    # -- WAN transitions --------------------------------------------------

    def _on_wan_transition(self, event: str, a: str, b: str) -> None:
        if self._crashed:
            return  # a dead gateway observes nothing
        kind = "wan-link-severed" if event == "sever" else "wan-link-healed"
        self.platform.events.emit(kind, a=a, b=b)
        if event == "heal":
            # Reconcile immediately: resolve unknown outcomes, deliver
            # pending cancels, re-send missed completion notices.
            self._kick_reconcile()

    # -- egress: forwarding unplaceable work ------------------------------

    def _on_unplaceable(self, request: ResourceRequest) -> bool:
        """Coordinator hook: may we take this request off its hands?

        Both home surplus and *foreign* jobs this site cannot place
        are candidates — the latter is a relay hop.  The relay path
        (every site the job already visited) is excluded from the
        destination choice, so a multi-hop forward can fan outward but
        never ping-pong, and the total WAN crossings are capped by
        ``max_forward_hops``.
        """
        if self._crashed:
            return False  # no gateway, no federation: work parks locally
        if request.training is None:
            return False  # sessions never cross the WAN
        if request.forward_hops >= self.config.max_forward_hops:
            return False  # out of hops: the job stays parked here
        record = self.records.get(request.request_id)
        if record is not None and self.env.now < record.retry_after:
            return False  # backing off after a decline
        exclude = set(request.relay_path)
        if self.trust is not None:
            # Quarantined/evicted peers are never forwarding targets
            # (their digests were dropped too; this guards stragglers).
            exclude |= self.trust.excluded()
        dest = self.policy.choose(
            self.site, request, self.peer_digests,
            self.wan, self.fabric, self.ledger, self.env.now,
            exclude=exclude,
        )
        if dest is None:
            return False
        # Optimistically consume the advertised GPU so a burst of
        # parked requests does not dog-pile one remote card before the
        # peer's next digest corrects the view.
        digest = self.peer_digests[dest]
        self.peer_digests[dest] = replace(
            digest,
            free_gpus=digest.free_gpus - 1,
            queue_pressure=digest.queue_pressure + 1,
        )
        self._spawn(self._forward(request, dest),
                    f"forward:{request.request_id}->{dest}")
        return True

    def _forward(self, request: ResourceRequest, dest: str) -> Generator:
        try:
            yield from self._forward_handshake(request, dest)
        except Interrupt:
            return  # gateway crashed mid-handshake; the journaled
            # sender leg carries the truth into recovery

    def _forward_handshake(self, request: ResourceRequest,
                           dest: str) -> Generator:
        spec = request.training
        state = self.platform.coordinator.jobs.get(spec.job_id)
        if state is not None and state.status is JobStatus.CANCELLED:
            return  # cancelled between the hook firing and this process
        store = self.platform.store_for(spec)
        snapshot = None
        if store.has_checkpoint(spec.job_id):
            # A migrated job ships its flattened restore chain *and*
            # its dataset — the data lives at the origin campus, so a
            # checkpointed forward is never cheaper than a fresh one.
            snapshot = store.export_snapshot(spec.job_id)
            payload_bytes = snapshot.nbytes + spec.dataset_bytes
        else:
            payload_bytes = spec.dataset_bytes
        restore = snapshot is not None
        started = self.env.now
        # Relay provenance: a foreign job keeps its true origin; the
        # chain of visited sites grows by this site, and the previous
        # hop (if any) is where the completion notice must chain back.
        origin = request.origin_site or self.site
        relay_path = tuple(request.relay_path) + (self.site,)
        upstream = request.relay_path[-1] if request.relay_path else None
        shipped_progress = snapshot.progress if restore else 0.0
        self.platform.events.emit(
            "job-forward-offered", job_id=spec.job_id, dest=dest,
            restore=restore, nbytes=payload_bytes,
            hops=request.forward_hops + 1,
        )
        # The per-hop forward span: covers the whole handshake
        # (offer → claim → commit, including the payload pull the
        # commit blocks on), parented under the request's current span
        # — the root at the origin, the local host span at a relay.
        tracer = self.tracer
        fwd = None
        if tracer is not None and request.trace is not None:
            fwd = tracer.start(
                "forward", parent=request.trace, site=self.site,
                dest=dest, restore=restore, hop=request.forward_hops + 1,
                payload_bytes=payload_bytes,
            )
        # Write-ahead: the sender leg is journaled *before* the offer
        # leaves, so a gateway crash at any point of the handshake
        # leaves behind an exact classification — OFFERED means phase 1
        # died (safe to requeue), CLAIMED means the commit may have
        # landed (park UNKNOWN and probe).  Dropped on every decline.
        record = self.records.setdefault(spec.job_id, JobRecord(spec.job_id))
        leg = record.out = ForwardRecord(
            job_id=spec.job_id, dest_site=dest, forwarded_at=started,
            payload_bytes=payload_bytes, restore=restore,
            origin_site=request.origin_site, upstream=upstream,
            shipped_progress=shipped_progress, trace=fwd, request=request,
        )
        self._checkpoint()
        # Phase 1: metadata-only offer.  A failure here is *safe* —
        # nothing durable happened at the host beyond an expiring
        # lease — so any error reads as a decline.
        offer = ForwardOffer(
            spec=spec,
            origin_site=origin,
            payload_bytes=payload_bytes,
            restore=restore,
            progress=shipped_progress,
            forward_hops=request.forward_hops + 1,
            relay_path=relay_path,
            trace=fwd,
        )
        try:
            reply = yield self._call(dest, "forward-offer", offer)
        except NetworkError:
            reply = {}
        if not reply.get("accepted"):
            if tracer is not None:
                tracer.finish(fwd, status="declined",
                              reason=reply.get("reason", "unreachable"))
            if self.trust is not None and reply and "reason" not in reply:
                # The peer advertised capacity fresh enough for the
                # policy to pick it, yet declined for headroom (the
                # reason-less decline).  One honest race is possible;
                # a pattern of them is the over-report signature —
                # a circumstantial, threshold-gated strike.
                self._apply_strike(dest, "capacity-mismatch",
                                   definitive=False)
            self.declined += 1
            self._requeue(record, "job-forward-declined")
            return
        token = reply["claim_token"]
        state = self.platform.coordinator.jobs.get(spec.job_id)
        if state is not None and state.status is JobStatus.CANCELLED:
            # Cancelled while the offer was in flight: nothing has
            # committed — release the lease (best-effort; it expires
            # on its own if this leg is lost too) and walk away.
            if tracer is not None:
                tracer.finish(fwd, status="cancelled")
            record.out = None
            self._checkpoint()
            yield from self._release_lease(dest, token)
            return
        # Claim the leg before the commit leaves: from here on a crash
        # must resolve through the status probe, never a blind requeue.
        leg.claim_token = token
        _advance(leg, DelegationState.CLAIMED)
        self._checkpoint()
        # Phase 2: claim-bearing commit.  A failure here is AMBIGUOUS
        # — the host may have pulled the payload and scheduled the job
        # — so it parks the delegation as unknown outcome for the
        # reconciliation pass to resolve.  Re-queuing here is exactly
        # the double-schedule bug.
        envelope = ForwardEnvelope(
            spec=spec,
            origin_site=origin,
            payload_bytes=payload_bytes,
            snapshot=snapshot,
            forward_hops=request.forward_hops + 1,
            claim_token=token,
            relay_path=relay_path,
            trace=fwd,
        )
        try:
            commit = yield self._call(dest, "forward-commit", envelope,
                                      timeout=self.config.commit_rpc_timeout)
        except NetworkError:
            # The forward span stays open: the handshake's outcome is
            # ambiguous until a reconciliation probe resolves it.
            _advance(leg, DelegationState.UNKNOWN)
            self._checkpoint()
            self.platform.events.emit("job-forward-unknown",
                                      job_id=spec.job_id, dest=dest)
            self._kick_reconcile()
            return
        if not commit.get("committed"):
            if tracer is not None:
                tracer.finish(fwd, status="declined",
                              reason=commit.get("reason", "not-committed"))
            self.declined += 1
            self._requeue(record, "job-forward-declined")
            return
        elapsed = self.env.now - started
        self.forwarded_out += 1
        self.wan_transfer_seconds += elapsed
        leg.transfer_seconds = elapsed
        _advance(leg, DelegationState.COMMITTED)
        if tracer is not None:
            tracer.finish(fwd, status="committed",
                          transfer_seconds=elapsed)
        self._settle_relay_departure(leg)
        state = self.platform.coordinator.jobs.get(spec.job_id)
        if state is not None and state.status is JobStatus.CANCELLED:
            # The user cancelled mid-commit; the host runs the job
            # until the pending cancellation lands there.
            leg.cancel_pending = True
            self._kick_reconcile()
        elif state is not None:
            state.status = JobStatus.MIGRATING
            state.current_node = f"wan:{dest}"
        self._checkpoint()
        self.platform.events.emit(
            "job-forwarded-out", job_id=spec.job_id, dest=dest,
            restore=restore, transfer_seconds=elapsed,
        )

    def _on_cancel_delegated(self, job_id: str) -> bool:
        """Coordinator hook: the user cancelled a gateway-held job.

        The local record is already CANCELLED; if the job crossed (or
        is crossing) the WAN, queue the cancellation for at-most-once
        delivery to the hosting site.
        """
        if self._crashed:
            # The CANCELLED job state survives in the coordinator;
            # recovery re-derives the pending cancel from it.
            return False
        record = self.records.get(job_id)
        if record is not None and record.out is not None:
            record.out.cancel_pending = True
            self._checkpoint()
            self._kick_reconcile()
            return True
        return False

    def _requeue(self, record: JobRecord, event: str) -> None:
        """End a sender leg the peer provably never committed (declined,
        failed safely, or probed ``absent``): back off and re-park the
        request like any other unplaceable work — unless the user
        cancelled it meanwhile."""
        leg, record.out = record.out, None
        record.retry_after = self.env.now + self.config.forward_retry_backoff
        self.platform.events.emit(event, job_id=record.job_id,
                                  dest=leg.dest_site)
        state = self.platform.coordinator.jobs.get(record.job_id)
        if state is None or state.status is not JobStatus.CANCELLED:
            self.platform.coordinator.queue.push(leg.request)
        self._checkpoint()

    def _settle_relay_departure(self, record: ForwardRecord) -> None:
        """Close this site's hosting role after relaying a job onward.

        A relay stops hosting the moment its outgoing commit is
        confirmed: the inbound leg settles, and any *durable*
        progress this site added beyond the arrival snapshot (it may
        have run the job between hosting and relaying) is settled as a
        donation now — the downstream host bills only the remainder,
        so the origin is charged each GPU-hour exactly once across the
        chain.
        """
        if record.origin_site is None:
            return  # we are the true origin, not a relay
        hosted = self._inbound(record.job_id, HostingState.HOSTED)
        self.relayed_out += 1
        # This site's hosting role ends here; its host span closes and
        # the delegation lives on in the outgoing forward span.
        self.platform.coordinator.finish_trace(record.job_id, "relayed")
        self.platform.events.emit(
            "job-relayed", job_id=record.job_id, dest=record.dest_site,
            origin=record.origin_site,
        )
        if hosted is not None:
            self._settle(record.job_id, hosted, record.shipped_progress,
                         fees=False)

    def _settle(self, job_id: str, hosted: HostRecord, progress: float,
                fees: bool = True) -> float:
        """HOSTED → SETTLED: bill the origin for the hours this site
        donated — ``progress`` beyond what the job arrived with — and,
        with ``fees``, each relay on its path its cut of them.

        Returns the donated seconds.
        """
        _advance(hosted, HostingState.SETTLED)
        executed = max(0.0, progress - hosted.arrival_progress)
        if executed <= 1e-9:
            return executed
        self._chain_record(self.ledger.record_donation(
            donor=self.site,
            beneficiary=hosted.origin_site,
            gpu_hours=executed / HOUR,
            job_id=job_id,
            at=self.env.now,
        ))
        # ``relay_path[0]`` is the origin itself and earns nothing; every
        # later entry carried the job one hop and is credited
        # ``relay_fee_fraction`` of the donated hours, charged to the
        # origin — entries are plain transfers, so ledger conservation
        # holds by construction.
        fee = (executed / HOUR) * self.config.relay_fee_fraction
        if fees and fee > 1e-12:
            for relay in hosted.relay_path[1:]:
                # The settling host signs the fee entry — donor is the
                # relay, so an honest fee is never self-credited.
                self._chain_record(self.ledger.record_relay_fee(
                    relay=relay,
                    beneficiary=hosted.origin_site,
                    gpu_hours=fee,
                    job_id=job_id,
                    at=self.env.now,
                ))
        return executed

    def _release_lease(self, dest: str, token: str) -> Generator:
        try:
            yield self._call(dest, "forward-release", {"claim_token": token})
        except NetworkError:
            pass  # the lease expires at the host on its own

    # -- ingress: hosting foreign work ------------------------------------

    def accepts(self, spec: TrainingJobSpec) -> bool:
        """Local-first admission: host foreign work only with headroom.

        Applies the same filters a peer's forwarding policy applied to
        our (possibly stale) digest, but against the live local view.
        """
        model = spec.model
        return self.policy.admissible(
            self.local_digest(), model.gpu_memory,
            model.min_compute_capability)

    def _trace_admission(self, offer: ForwardOffer, accepted: bool,
                         reason: str = "") -> None:
        """Record the host-side admission decision as an instant span."""
        tracer = self.tracer
        if tracer is not None:
            tracer.event("admission", offer.trace, site=self.site,
                         status="accepted" if accepted else "declined",
                         reason=reason)

    def _handle_forward_offer(self, offer: ForwardOffer) -> dict:
        job_id = offer.spec.job_id
        sender = (offer.relay_path[-1] if offer.relay_path
                  else offer.origin_site)
        if self.trust is not None and self.trust.blocks(sender):
            # A quarantined peer gets no capacity lease (its work may
            # be fabricated); already-committed jobs still run — the
            # isolation is forward-looking only.
            self._trace_admission(offer, False, "quarantined")
            return {"accepted": False, "reason": "quarantined"}
        if not self.config.host_foreign_jobs:
            # Opted out of hosting: our digest already advertises no
            # capacity, but a peer acting on a pre-opt-out digest (or
            # probing blindly) still gets a clean decline.
            self._trace_admission(offer, False, "opted-out")
            return {"accepted": False, "reason": "opted-out"}
        if self.site in offer.relay_path:
            # The job already passed through here; the sender's policy
            # should have excluded us — decline defensively rather
            # than let a relay loop form.
            self._trace_admission(offer, False, "relay-loop")
            return {"accepted": False, "reason": "relay-loop"}
        if (job_id in self.platform.coordinator.jobs
                or self._inbound(job_id, HostingState.COMMITTING)):
            # We already host (or are mid-commit of) this job; the
            # origin should resolve its handshake via forward-status,
            # never re-offer — decline defensively.
            self._trace_admission(offer, False, "already-hosted")
            return {"accepted": False, "reason": "already-hosted"}
        if not self.accepts(offer.spec):
            self.platform.events.emit("job-forward-rejected",
                                      job_id=job_id,
                                      origin=offer.origin_site)
            self._trace_admission(offer, False, "no-headroom")
            return {"accepted": False}
        self._trace_admission(offer, True)
        token = f"{self.site}#{self._token_seq}"
        self._token_seq += 1
        # The lease reserves the accepted card in our digest until the
        # claim arrives, so concurrent origins cannot all book it.
        self._offers[token] = offer
        self.note_change()
        # Persist the token ordinal: leases are volatile, but a token
        # recycled after a crash could alias a pre-crash handshake.
        self._checkpoint()
        self.env.call_later(self.config.offer_lease_timeout,
                            self._lease_expiry, token)
        return {"accepted": True, "claim_token": token}

    def _drop_offer(self, token: Optional[str]) -> Optional[ForwardOffer]:
        """Release the capacity lease behind ``token``, if still held."""
        offer = self._offers.pop(token, None)
        if offer is not None:
            self.note_change()
        return offer

    def _lease_expiry(self, token: str) -> None:
        offer = self._drop_offer(token)
        if offer is not None:
            self.platform.events.emit("forward-lease-expired",
                                      job_id=offer.spec.job_id,
                                      origin=offer.origin_site)

    def _handle_forward_commit(self, envelope: ForwardEnvelope) -> Generator:
        job_id = envelope.spec.job_id
        token = envelope.claim_token
        done = self._inbound(job_id, HostingState.HOSTED, HostingState.SETTLED)
        if done is not None and done.claim_token == token:
            # Idempotent replay: we committed this exact handshake and
            # the acknowledgement was lost.  Do NOT schedule again.
            return {"committed": True}
        offer = self._drop_offer(token)
        if offer is None:
            # Lease expired (or was never granted): nothing committed,
            # so the origin can safely requeue.
            return {"committed": False, "reason": "lease-expired"}
        # Pull the bulk bytes (checkpoint snapshot or dataset) over the
        # WAN from the *previous hop* — on a relayed forward the data
        # lives at the relay, not the origin; the handler runs inside
        # the RPC, so the sender sees the full replication time before
        # its commit is acknowledged.  While it runs, the COMMITTING
        # leg keeps the card reserved in our digest.
        record = self.records.setdefault(job_id, JobRecord(job_id))
        leg = record.host = HostRecord(
            envelope.origin_site, envelope.progress, envelope.relay_path,
            token)
        self.note_change()
        category = (CHECKPOINT_CATEGORY if envelope.restore
                    else DATASET_CATEGORY)
        tracer = self.tracer
        pull = None
        if tracer is not None and envelope.trace is not None:
            pull = tracer.start("payload-pull", parent=envelope.trace,
                                site=self.site,
                                src=envelope.sender_site,
                                nbytes=envelope.payload_bytes,
                                category=category)
        try:
            yield self.fabric.transfer(envelope.sender_site, self.site,
                                       envelope.payload_bytes,
                                       category=category)
        except NetworkError:
            # A crashed gateway must not hand the origin a definite
            # answer — the pull died *because* this process died, so
            # the caller sees a network error (ambiguous, resolved by
            # a probe), exactly as if the response leg was lost.
            self._check_alive()
            # The pull died (e.g. the WAN severed mid-replication):
            # abort without committing, so a forward-status probe
            # reports "absent" and the origin requeues safely.  After a
            # same-instant crash and restart this record is an orphan
            # the table no longer holds, and dropping its leg is moot.
            record.host = None
            self.note_change()
            if tracer is not None:
                tracer.finish(pull, status="pull-failed")
            self.platform.events.emit("forward-commit-aborted",
                                      job_id=job_id,
                                      origin=envelope.origin_site)
            return {"committed": False, "reason": "pull-failed"}
        self._check_alive()
        # Hosted from here on; the leg is re-attached in case a
        # same-instant crash and restart reset it.
        self.records.setdefault(job_id, record).host = leg
        _advance(leg, HostingState.HOSTED)
        self.note_change()
        if tracer is not None:
            tracer.finish(pull)
        if envelope.snapshot is not None:
            store = self.platform.store_for(envelope.spec)
            store.import_snapshot(envelope.snapshot)
            # Keep the local engine's version counter ahead of the
            # imported record so future checkpoints never collide.
            self.platform.engine.adopt_base(job_id,
                                            envelope.snapshot.version)
        self.forwarded_in += 1
        self._checkpoint()
        self.platform.coordinator.submit_remote(
            envelope.spec,
            origin_site=envelope.origin_site,
            restore=envelope.restore,
            progress=envelope.progress,
            forward_hops=envelope.forward_hops,
            relay_path=envelope.relay_path,
            trace=envelope.trace,
        )
        return {"committed": True}

    def _handle_forward_release(self, payload: dict):
        self._drop_offer(payload.get("claim_token"))
        return "ok"

    def _handle_forward_status(self, payload: dict) -> dict:
        """Idempotent probe: what happened to this handshake here?

        ``absent`` is a *guarantee* that the commit never happened and
        never will (an unclaimed lease for the token is released), so
        the origin may requeue without risking a duplicate.
        """
        job_id = payload["job_id"]
        if self._inbound(job_id, HostingState.COMMITTING):
            return {"state": "pending"}
        state = self.platform.coordinator.jobs.get(job_id)
        if state is None:
            # The origin abandoned this handshake; free the lease now
            # instead of waiting for expiry.
            self._drop_offer(payload.get("claim_token"))
            return {"state": "absent"}
        if state.status is JobStatus.CANCELLED:
            return {"state": "cancelled"}
        if state.is_done:
            return {"state": "completed",
                    "completed_at": state.completed_at,
                    "host_site": self._host_of(job_id)}
        return {"state": "committed"}

    def _host_of(self, job_id: str) -> str:
        """The site that actually ran a job done *from here*: this one,
        unless we relayed it onward — then the downstream record knows
        the true host, and probe/cancel replies must not claim it."""
        record = self._delegation(job_id)
        if record is not None:
            return record.host_site or record.dest_site
        return self.site

    def _handle_cancel_job(self, payload: dict) -> Generator:
        """Cross-WAN cancellation of a job delegated to this site.

        Idempotent: re-delivery after a lost response reports the same
        terminal outcome instead of acting twice, so the origin's
        retry loop gives at-most-once *effect*.
        """
        job_id = payload["job_id"]
        coordinator = self.platform.coordinator
        if (self._inbound(job_id, HostingState.COMMITTING)
                or coordinator.is_dispatching(job_id)):
            # Mid-commit or mid-dispatch: the job's fate is changing
            # under us — ask the origin to retry shortly.
            return {"pending": True}
        state = coordinator.jobs.get(job_id)
        if state is None:
            return {"known": False}
        if state.status is JobStatus.CANCELLED:
            return {"cancelled": True}
        if state.is_done:
            # Completed before the cancellation arrived: report the
            # race honestly rather than pretending to cancel.
            return {"completed": True,
                    "completed_at": state.completed_at,
                    "host_site": self._host_of(job_id)}
        terminate = coordinator.cancel_job(job_id)
        if terminate is not None:
            try:
                yield terminate
            except NetworkError:
                pass  # provider vanished mid-terminate; reclaim handles it
            if state.is_done:
                # The job finished during the terminate round trip: the
                # completion path already settled full credits and
                # queued the notice — report the lost race, don't
                # overwrite a finished job with CANCELLED.
                self._check_alive()
                return {"completed": True,
                        "completed_at": state.completed_at,
                        "host_site": self._host_of(job_id)}
        state.status = JobStatus.CANCELLED
        hosted = self._inbound(job_id, HostingState.HOSTED)
        if hosted is not None:
            self._settle_foreign_cancellation(job_id, hosted, state)
            self._checkpoint()
        # A crash during the terminate round trip keeps the *local*
        # effects (the executor is already dead, and CANCELLED is the
        # durable truth) but must not answer: the origin retries after
        # restart and the idempotent path above reports the outcome.
        # Settlement then happens in recovery, off the snapshot.
        self._check_alive()
        return {"cancelled": True}

    def _settle_foreign_cancellation(self, job_id: str,
                                     hosted: HostRecord, state) -> None:
        """Bill the hours a cancelled foreign job donated before dying.

        Shared by the live cancel handler and restart recovery (a
        cancel whose terminate round trip straddled a gateway crash
        completes locally but cannot settle until the restarted
        gateway replays its table).
        """
        # Bill the hours actually donated before the cancel — and the
        # relays' cut of that partial settlement.
        executed = self._settle(job_id, hosted, state.progress)
        self.platform.events.emit("foreign-job-cancelled",
                                  job_id=job_id, origin=hosted.origin_site,
                                  donated_gpu_hours=executed / HOUR)

    # -- settlement -------------------------------------------------------

    def _on_event(self, event: PlatformEvent) -> None:
        if self._crashed:
            return  # a dead gateway sees nothing; recovery replays
        self.admission.on_event(event)
        if event.kind != "job-completed":
            return
        job_id = event.payload.get("job_id")
        hosted = self._inbound(job_id, HostingState.HOSTED)
        if hosted is None:
            return
        self._settle_foreign_completion(job_id, hosted)
        self._checkpoint()

    def _settle_foreign_completion(self, job_id: str,
                                   hosted: HostRecord) -> None:
        """Credit this site for a hosted foreign job that finished.

        Shared by the live completion event and restart recovery —
        a job that completed while the gateway was down settles here
        when the restarted gateway replays its table.
        """
        state = self.platform.coordinator.jobs.get(job_id)
        # Relays along the path earn their fee out of the origin's
        # balance — settled here, at the one site that knows the final
        # donated hours.
        donated = self._settle(job_id, hosted, state.spec.total_compute)
        origin, relay_path = hosted.origin_site, hosted.relay_path
        tracer = self.tracer
        if tracer is not None:
            # On the live path this runs inside the coordinator's
            # job-completed emit, before it closes the host span — so
            # the settlement records as a child of the hosting it pays
            # for.
            tracer.event("settle", self.platform.coordinator.trace_context(
                job_id), site=self.site, donated_gpu_hours=donated / HOUR)
        self.platform.events.emit("foreign-job-completed", job_id=job_id,
                                  origin=origin,
                                  donated_gpu_hours=donated / HOUR)
        completed_at = (state.completed_at if state.completed_at is not None
                        else self.env.now)
        # The notice goes to the *previous hop* (on a relayed job that
        # is the relay, which chains it onward) and stays registered
        # until acknowledged, so a partitioned upstream receives it on
        # heal (reconciliation) instead of never.
        self._queue_completion_notice(
            job_id,
            upstream=relay_path[-1] if relay_path else origin,
            completed_at=completed_at,
            host_site=self.site,
        )

    def _queue_completion_notice(self, job_id: str, upstream: str,
                                 completed_at: float,
                                 host_site: str) -> None:
        """Register a completion notice toward the previous hop and
        start delivering it.

        The one place the keep-until-acknowledged payload is built —
        both the hosting site's settlement and a relay chaining a
        downstream notice onward go through here, so the wire shape
        cannot drift between them.
        """
        self.records[job_id].notice = (upstream, {
            "job_id": job_id, "completed_at": completed_at,
            "host_site": host_site,
        })
        self._checkpoint()
        self._spawn(self._notify_upstream(job_id), f"notify:{job_id}")

    def _notify_upstream(self, job_id: str) -> Generator:
        record = self.records.get(job_id)
        if record is None or record.notice is None:
            return
        upstream, payload = record.notice
        try:
            yield self._call(upstream, "job-complete", payload)
        except NetworkError:
            # The previous hop is partitioned; the reconciliation pass
            # re-sends this notice once the WAN heals.  (A crash
            # Interrupt propagates instead: the notice survives in the
            # snapshot and reconciliation re-sends it after restart.)
            self.platform.events.emit("job-complete-notify-failed",
                                      job_id=job_id, origin=upstream)
            return
        record.notice = None
        self._checkpoint()

    def _handle_job_complete(self, payload: dict):
        job_id = payload["job_id"]
        # The host stamps completion when the last step finished; the
        # notice's WAN flight time must not inflate makespan metrics.
        completed_at = payload.get("completed_at", self.env.now)
        self._apply_remote_completion(job_id, completed_at,
                                      payload.get("host_site"))
        return "ok"

    def _apply_remote_completion(self, job_id: str, completed_at: float,
                                 host_site: Optional[str]) -> bool:
        """Close the origin-side record of a delegated job (idempotent).

        Returns ``False`` on a duplicate (the completion was already
        applied — e.g. a re-sent notice after a lost acknowledgement).
        """
        record = self._delegation(job_id)
        if record is not None:
            if record.state is DelegationState.COMPLETED:
                return False
            if record.state is DelegationState.UNKNOWN:
                # The commit-ack was lost but the host clearly
                # committed; the completion resolves the handshake.
                self._confirm_delegation(record)
            record.completed_at = completed_at
            record.host_site = host_site or record.dest_site
            _advance(record, DelegationState.COMPLETED)
        # At the true origin this closes the root job span; at a relay
        # the host span already closed as "relayed" and this is a no-op.
        self.platform.coordinator.finish_trace(job_id, "completed")
        state = self.platform.coordinator.jobs.get(job_id)
        if state is not None:
            state.progress = state.spec.total_compute
            state.checkpointed_progress = state.spec.total_compute
            state.completed_at = completed_at
            if state.status is JobStatus.CANCELLED:
                # The cancellation raced the completion and lost; the
                # user's cancellation record survives.
                if record is not None:
                    record.cancel_pending = False
                self.platform.events.emit("job-cancel-lost-race",
                                          job_id=job_id, dest=host_site)
            else:
                state.status = JobStatus.COMPLETED
        self._checkpoint()
        self.platform.events.emit("job-remote-completed", job_id=job_id,
                                  host=host_site)
        if record is not None and record.upstream is not None:
            # We were a relay hop for this job: chain the completion
            # notice toward the previous hop with the *host's* stamp
            # intact, under the same keep-until-acknowledged rule.
            self._queue_completion_notice(
                job_id,
                upstream=record.upstream,
                completed_at=completed_at,
                host_site=host_site or record.dest_site,
            )
        return True

    def _confirm_delegation(self, record: ForwardRecord) -> None:
        """An unknown-outcome handshake turned out to have committed."""
        _advance(record, DelegationState.COMMITTED)
        self.forwarded_out += 1
        tracer = self.tracer
        if tracer is not None:
            # The forward span was left open when the commit-ack was
            # lost; the probe/notice proves the handshake landed.
            tracer.finish(record.trace, status="committed")
        self._settle_relay_departure(record)
        state = self.platform.coordinator.jobs.get(record.job_id)
        if state is not None and state.status is JobStatus.CANCELLED:
            record.cancel_pending = True
        elif state is not None:
            state.status = JobStatus.MIGRATING
            state.current_node = f"wan:{record.dest_site}"
        self._checkpoint()
        self.platform.events.emit(
            "job-forwarded-out", job_id=record.job_id,
            dest=record.dest_site, restore=record.restore,
            transfer_seconds=record.transfer_seconds,
        )

    # -- reconciliation ---------------------------------------------------

    def _kick_reconcile(self) -> None:
        """Run a reconciliation pass as soon as possible.

        Kicks bypass the timer, which only runs while there is work
        (see :meth:`_arm_reconcile`).

        A kick while a pass is already running (its wake has fired)
        must set the flag, or the heal-time kick would be lost until
        the next timer tick.
        """
        wake = self._reconcile_wake
        if wake is not None and not wake.triggered:
            wake.succeed()
        else:
            self._reconcile_kicked = True  # picked up next loop turn

    def _reconcile_due(self) -> None:
        if not self._reconcile_wake.triggered:  # else kicked this instant
            self._reconcile_wake.succeed()

    def _has_reconcile_work(self) -> bool:
        return any(_unknown(record) or _cancelling(record)
                   or record.notice is not None
                   for record in self.records.values())

    def _arm_reconcile(self) -> None:
        """Arm the sleeping reconcile loop if there is work: at the
        first point of its ``reconcile_interval`` grid strictly after
        now.  Runs after every table mutation (:meth:`_checkpoint`), so
        the loop never sleeps through work it has."""
        wake = self._reconcile_wake
        if (wake is None or wake.triggered
                or self._reconcile_timer.when != inf
                or not self._has_reconcile_work()):
            return
        self._reconcile_base, when = grid_point(
            self._reconcile_base, self.config.reconcile_interval,
            nextafter(self.env.now, inf))
        self._reconcile_timer.arm(when)

    def _reconcile_loop(self) -> Generator:
        while True:
            wake = self._reconcile_wake = self.env.event()
            self._reconcile_base = self.env.now
            if self._reconcile_kicked:
                self._reconcile_kicked = False
                wake.succeed()
            else:
                self._arm_reconcile()
            try:
                yield wake
            except Interrupt:
                return  # gateway crashed
            self._reconcile_timer.cancel()
            if self._has_reconcile_work():
                try:
                    yield from self._reconcile_pass()
                except Interrupt:
                    return  # gateway crashed mid-pass; every step is
                    # idempotent, the restarted loop re-runs the rest

    def _reconcile_pass(self) -> Generator:
        """One idempotent sweep over everything a partition left open.

        Three sweeps in this order, each in sorted job-id order over
        the ids selected when it starts.
        """
        # 1. Resolve unknown-outcome delegations with status probes.
        for job_id in self._ids(_unknown):
            record = self._delegation(job_id)
            if record is None or record.state is not DelegationState.UNKNOWN:
                continue
            yield from self._probe_delegation(job_id, record)
        # 2. Deliver pending cross-site cancellations.
        #    A journaled or UNKNOWN handshake must resolve first.
        for job_id in self._ids(_cancelling):
            record = self.records[job_id].out
            if record is None:
                continue  # the cancel left with its leg
            if record.state in (DelegationState.COMPLETED,
                                DelegationState.CANCELLED):
                record.cancel_pending = False
            elif record.state is DelegationState.COMMITTED:
                yield from self._send_cancel(job_id, record)
        # 3. Re-send completion notices the previous hop never
        #    acknowledged.
        for job_id in self._ids(lambda record: record.notice is not None):
            yield from self._notify_upstream(job_id)

    def _probe_delegation(self, job_id: str,
                          record: ForwardRecord) -> Generator:
        try:
            reply = yield self._call(
                record.dest_site, "forward-status",
                {"job_id": job_id, "claim_token": record.claim_token})
        except NetworkError:
            return  # still unreachable; retried next pass
        outcome = reply.get("state")
        tracer = self.tracer
        if tracer is not None:
            tracer.event("probe", record.trace, site=self.site,
                         dest=record.dest_site, outcome=outcome or "lost")
        if outcome == "pending":
            return  # host mid-commit; stay unknown and re-probe later
        if outcome == "absent":
            # Guaranteed not (and never to be) committed at the host:
            # requeuing locally cannot duplicate the job.
            if tracer is not None:
                tracer.finish(record.trace, status="absent")
            self._requeue(self.records[job_id], "job-forward-requeued")
            return
        # The host committed: resolve the handshake.
        if record.state is DelegationState.UNKNOWN:
            self._confirm_delegation(record)
        if outcome == "completed":
            self._apply_remote_completion(
                job_id, reply.get("completed_at", self.env.now),
                reply.get("host_site", record.dest_site))
        elif outcome == "cancelled":
            _advance(record, DelegationState.CANCELLED)
            record.cancel_pending = False
            self._checkpoint()

    def _send_cancel(self, job_id: str, record: ForwardRecord) -> Generator:
        try:
            reply = yield self._call(
                record.dest_site, "cancel-job",
                {"job_id": job_id, "origin_site": self.site})
        except NetworkError:
            return  # unreachable; retried next pass (host is idempotent)
        if reply.get("pending"):
            return  # host mid-commit/dispatch; retry shortly
        record.cancel_pending = False
        tracer = self.tracer
        if reply.get("completed"):
            if tracer is not None:
                tracer.event("cancel-delivered", record.trace,
                             site=self.site, outcome="lost-race")
            self._apply_remote_completion(
                job_id, reply.get("completed_at", self.env.now),
                reply.get("host_site", record.dest_site))
        else:
            _advance(record, DelegationState.CANCELLED)
            self._checkpoint()
            if tracer is not None:
                tracer.event("cancel-delivered", record.trace,
                             site=self.site, outcome="cancelled")
                self.platform.coordinator.finish_trace(job_id, "cancelled")
            self.platform.events.emit("job-cancel-delivered",
                                      job_id=job_id, dest=record.dest_site)

    # -- crash / restart --------------------------------------------------

    @property
    def is_crashed(self) -> bool:
        """Whether the gateway process is currently down."""
        return self._crashed

    def _check_alive(self) -> None:
        """Raise out of a handler that resumed inside a dead gateway.

        RPC handlers run as their own processes, so a gateway crash
        cannot interrupt them synchronously — instead every handler
        re-checks liveness after each yield.  Raising turns into a
        network error at the caller: ambiguous, like any lost response
        leg, and resolved through the idempotent probe machinery.
        """
        if self._crashed:
            raise RpcError(f"gateway {self.site} crashed mid-operation")

    def attach_vault(self, vault: "StateVault") -> None:
        """Enable durable snapshots (and write the first one)."""
        self.vault = vault
        self._checkpoint()

    def _checkpoint(self) -> None:
        """Persist the table, and wake the reconcile loop if it now has
        work.  The snapshot is a no-op without a vault.

        Called after every mutation of snapshot-worthy state; crash
        points exist only at yields, so the vault is always current
        when one lands.  Leases and peer digests are volatile and not
        saved; the table's volatile facets are reset on restore.
        """
        self._arm_reconcile()
        if self.vault is None or self._crashed:
            return
        snap = GatewaySnapshot(
            site=self.site,
            taken_at=self.env.now,
            token_seq=self._token_seq,
            records={job_id: _durable(record)
                     for job_id, record in self.records.items()},
            counters={name: getattr(self, name) for name in _COUNTERS},
        )
        self.vault.store("gateway", snap, snap.nbytes)

    def crash(self) -> None:
        """Kill the gateway process: all in-memory state dies.

        The WAN endpoint unbinds (peers see network errors), every
        flow terminating here fails, and every gateway-owned process —
        loops, in-flight forwards, notice deliveries — is interrupted.
        The table comes back from the vault at :meth:`restart`;
        everything else is rebuilt or intentionally dropped.
        """
        if self._crashed:
            return
        self._crashed = True
        self.wan_rpc.unbind(self.site)
        self.fabric.kill_host_flows(self.site, reason="gateway crashed")
        procs, self._procs = self._procs, set()
        for proc in procs:
            if proc.is_alive:
                proc.interrupt("gateway-crash")
        self.peer_digests.clear()
        self.records = {}
        self._offers.clear()
        self._reconcile_wake = None
        self._reconcile_timer.cancel()
        self._reconcile_kicked = False
        self._gossip_wake = None
        self._gossip_timer.cancel()
        self._pushed_digest.clear()
        self._pushed_at.clear()
        self._pushed_balance.clear()
        # Volatile chain-gossip floors die with the process; the chain
        # view and trust state are durable operator state (the peers'
        # replies rebuild the floors).
        self._chain_acked.clear()
        self.platform.events.emit("gateway-crashed", site=self.site)

    def restart(self) -> None:
        """Bring the gateway back: recover the vault, replay the table.

        Raises :class:`~repro.errors.SnapshotVersionError` (and stays
        down) when the persisted snapshot carries an incompatible
        layout version — the operator discards it and restarts cold
        rather than let misread state break exactly-once.
        """
        if not self._crashed:
            return
        snap = self.vault.load("gateway") if self.vault is not None else None
        if snap is not None and snap.version != GATEWAY_SNAPSHOT_VERSION:
            raise SnapshotVersionError(
                f"gateway {self.site}: snapshot version {snap.version} "
                f"(expected {GATEWAY_SNAPSHOT_VERSION})")
        self._crashed = False
        self.restarts += 1
        if snap is not None:
            self.records = {job_id: _durable(record)
                            for job_id, record in snap.records.items()}
            self._token_seq = snap.token_seq
            for name in _COUNTERS:
                setattr(self, name, snap.counters.get(name, 0))
        self._bind_endpoint()
        self._start_loops()
        self.platform.events.emit("gateway-restarted", site=self.site,
                                  restarts=self.restarts)
        self._recover()

    def _recover(self) -> None:
        """Replay the table against what happened while we were down."""
        coordinator = self.platform.coordinator
        # 1. Classify the sender legs a crash left in the journal.
        for job_id in self._ids(lambda record: record.out is not None
                                and record.out.state in JOURNAL_STATES):
            record = self.records[job_id]
            if record.out.state is DelegationState.OFFERED:
                # Phase-1 crash: nothing durable happened at the peer
                # beyond an expiring lease — requeue locally.
                self._requeue(record, "job-forward-requeued")
                continue
            # Phase-2 crash: the commit may have landed.  Park the
            # delegation as unknown outcome; the probe resolves it.
            _advance(record.out, DelegationState.UNKNOWN)
            self.platform.events.emit("job-forward-unknown",
                                      job_id=job_id,
                                      dest=record.out.dest_site)
        # 2. Settle hosted foreign jobs that reached a terminal state
        #    while the gateway was down (their completion events fired
        #    into a dead subscriber).
        for job_id in self._ids(_hosting):
            hosted = self.records[job_id].host
            state = coordinator.jobs.get(job_id)
            if state is None:
                continue
            if state.status is JobStatus.CANCELLED:
                self._settle_foreign_cancellation(job_id, hosted, state)
            elif state.is_done:
                self._settle_foreign_completion(job_id, hosted)
        # 3. Cancellations requested while down exist only as
        #    CANCELLED job states; re-derive the pending cancels.
        for job_id, record in self.records.items():
            if record.out is not None and record.out.state in (
                    DelegationState.COMMITTED, DelegationState.UNKNOWN):
                state = coordinator.jobs.get(job_id)
                if state is not None and state.status is JobStatus.CANCELLED:
                    record.out.cancel_pending = True
        self._checkpoint()
        self._kick_reconcile()

    # -- introspection ----------------------------------------------------

    @property
    def hosted_foreign_count(self) -> int:
        """Foreign jobs currently hosted (not yet completed)."""
        return len(self._ids(_hosting))

    @property
    def unresolved_delegations(self) -> int:
        """Delegations parked as unknown outcome (partition pending)."""
        return len(self._ids(_unknown))

    @property
    def pending_cancel_count(self) -> int:
        """Cancellations awaiting cross-WAN delivery."""
        return len(self._ids(_cancelling))

    @property
    def unacked_completion_count(self) -> int:
        """Completion notices the origin has not acknowledged yet."""
        return len(self._ids(lambda record: record.notice is not None))
