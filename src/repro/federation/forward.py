"""The forward protocol of one federation gateway.

Each :class:`~repro.federation.gateway.FederationGateway` composes one
:class:`ForwardProtocol`.  It owns the durable per-job table
(``records``), the host-side capacity leases and the claim tokens, and
four duties, each specified in ``docs/federation-protocol.md``:

* **egress** — a training request the local fleet cannot place (or a
  foreign one, as a relay hop toward a site it has not visited, up to
  ``max_forward_hops`` crossings) is offered to the best-scoring peer
  by a two-phase handshake: offer → claim token → commit, at most once
  per token.  A lost commit acknowledgement parks the delegation as
  *unknown outcome* for an idempotent ``forward-status`` probe, never
  a blind requeue (the double-schedule bug);
* **ingress** — the phase handlers admit against the live digest, pull
  the payload over the WAN from the *previous hop*, and submit the job
  to the local coordinator with full provenance;
* **settlement** — a foreign job that completes here bills its origin
  for the GPU-hours donated, with each relay's fee, and the notice to
  the previous hop is kept until acknowledged;
* **reconciliation** — a pass, kicked by every WAN heal and periodic
  only while work is left, resolves unknown outcomes, delivers pending
  cancellations and re-sends unacknowledged notices.  Every message is
  idempotent at the receiver, so kicks and the timer may race freely.
"""

from __future__ import annotations

from dataclasses import replace
from math import inf, nextafter
from typing import (TYPE_CHECKING, Callable, Dict, Generator, List,
                    Optional)

from ..core.messages import ResourceRequest
from ..errors import NetworkError
from ..monitoring.events import PlatformEvent
from ..network import RpcError
from ..sim import Event, Interrupt, Process, grid_point
from ..units import HOUR
from ..workloads.training import JobStatus, TrainingJobSpec
from .messages import (
    JOURNAL_STATES,
    DelegationState,
    ForwardEnvelope,
    ForwardOffer,
    ForwardRecord,
    GatewaySnapshot,
    HostingState,
    HostRecord,
    JobRecord,
)

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from .gateway import FederationGateway

#: Flow categories the gateway stamps on its bulk payload pulls.  Both
#: map to the *bulk* traffic class under the default
#: :class:`~repro.network.qos.QoSPolicy`, while the RPC layer's
#: ``"control"`` legs ride the strict-priority control class and
#: session traffic the interactive class — the class wiring the WAN
#: QoS engine keys on.
CHECKPOINT_CATEGORY = "federation-checkpoint"
DATASET_CATEGORY = "federation-dataset"

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


# -- the protocol's decisions -----------------------------------------------
#
# Pure functions of a job's row and the facts a message carries: no
# kernel, no effects.  ``ForwardProtocol`` performs what they decide,
# and ``tests/test_forward_model.py`` model-checks them.

#: What the resolution table says of a leg the host provably never
#: committed: drop it and put the job back in the local queue.
REQUEUE = "requeue"

#: The sender's resolution table: the phases a leg walks when its host
#: reports a fate.  A pair not listed leaves the leg where it is.
_RESOLVE = {
    (DelegationState.UNKNOWN, "absent"): REQUEUE,
    (DelegationState.UNKNOWN, "committed"): (DelegationState.COMMITTED,),
    (DelegationState.UNKNOWN, "completed"): (DelegationState.COMMITTED,
                                             DelegationState.COMPLETED),
    (DelegationState.UNKNOWN, "cancelled"): (DelegationState.COMMITTED,
                                             DelegationState.CANCELLED),
    (DelegationState.COMMITTED, "completed"): (DelegationState.COMPLETED,),
    (DelegationState.COMMITTED, "cancelled"): (DelegationState.CANCELLED,),
    # A host that no longer knows a committed job cannot run it.
    (DelegationState.COMMITTED, "absent"): (DelegationState.CANCELLED,),
    (DelegationState.CANCELLED, "completed"): (DelegationState.COMPLETED,),
    (DelegationState.COMPLETED, "cancelled"): (DelegationState.CANCELLED,),
}


def resolve(phase: DelegationState, reported: str):
    """The phases a sender leg in ``phase`` walks when its host reports
    the fate ``reported`` (empty: stay), or :data:`REQUEUE` — for probe
    replies, cancel replies and completion notices alike."""
    return _RESOLVE.get((phase, reported), ())


def completed(record: Optional[JobRecord], completed_at: Optional[float],
              site: str) -> dict:
    """The one ``completed`` fate: when the job finished, and where —
    at ``site``, unless ``record`` shows it was relayed onward; then
    the downstream leg knows the site that ran it."""
    leg = record.out if record is not None else None
    if leg is not None and leg.state not in JOURNAL_STATES:
        site = leg.host_site or leg.dest_site
    return {"state": "completed", "completed_at": completed_at,
            "host_site": site}


def fate(record: Optional[JobRecord], state, site: str) -> dict:
    """The host's fate of a job, its answer to both ``forward-status``
    and ``cancel-job``: ``pending`` while the commit's pull runs,
    ``absent`` when no commit landed, else what its local job ``state``
    says — ``cancelled``, ``completed`` or still ``committed``."""
    if record is not None and record.host is not None and (
            record.host.state is HostingState.COMMITTING):
        return {"state": "pending"}
    if state is None:
        return {"state": "absent"}
    if state.status is JobStatus.CANCELLED:
        return {"state": "cancelled"}
    if state.is_done:
        return completed(record, state.completed_at, site)
    return {"state": "committed"}


def probe_reply(record: Optional[JobRecord], state, site: str,
                token: Optional[str]):
    """The ``forward-status`` reply and the lease it releases.  An
    ``absent`` answer releases the probe's lease, so a commit that
    arrives after it can no longer land: that makes it a guarantee."""
    reply = fate(record, state, site)
    return reply, (token if reply["state"] == "absent" else None)


def commit_reply(host: Optional[HostRecord], token: str,
                 leased: bool) -> Optional[dict]:
    """The commit decision for ``token``, given the job's inbound leg
    and whether the token's lease is held: ``None`` to pull the
    payload, else the answer — an idempotent replay of a commit made
    (never schedule twice), or ``lease-expired`` (nothing committed;
    the sender may requeue).  A replay while the pull runs raises
    :class:`RpcError`: its answer is as ambiguous as a lost ack."""
    if host is not None and host.claim_token == token:
        if host.state is HostingState.COMMITTING:
            raise RpcError(f"commit {token} is still pulling")
        return {"committed": True}
    return None if leased else {"committed": False, "reason": "lease-expired"}


def decline_reason(offer: ForwardOffer, site: str,
                   record: Optional[JobRecord], state, *, blocked: bool,
                   hosts: bool, fits: bool) -> Optional[str]:
    """Offer admission: the first reason ``site`` declines ``offer``,
    or ``None`` to lease it a card.  A quarantined sender's work may be
    fabricated; an opted-out site hosts nothing; a job never revisits
    a site on its relay path; a job whose :func:`fate` here is not
    ``absent`` is resolved by a probe, never re-offered; and the live
    digest must fit it (the reason-less decline, ``no-headroom``)."""
    return next((reason for reason, failed in (
        ("quarantined", blocked), ("opted-out", not hosts),
        ("relay-loop", site in offer.relay_path),
        ("already-hosted", fate(record, state, site)["state"] != "absent"),
        ("no-headroom", not fits)) if failed), None)


def classify_journal(phase: DelegationState):
    """What recovery does with a sender leg a crash left in the
    journal: an ``OFFERED`` leg died in phase 1, so nothing durable
    exists at the peer and it requeues; a ``CLAIMED`` leg's commit may
    have landed, so it parks ``UNKNOWN`` for the probe."""
    return REQUEUE if phase is DelegationState.OFFERED else (
        DelegationState.UNKNOWN)


def is_unknown(record: JobRecord) -> bool:
    """The sender leg is parked as unknown outcome."""
    return (record.out is not None
            and record.out.state is DelegationState.UNKNOWN)


def is_cancelling(record: JobRecord) -> bool:
    """A cancellation awaits cross-WAN delivery."""
    return record.out is not None and record.out.cancel_pending


def is_hosting(record: JobRecord) -> bool:
    """A foreign job is hosted here and not yet settled."""
    return (record.host is not None
            and record.host.state is HostingState.HOSTED)


def has_notice(record: JobRecord) -> bool:
    """A completion notice awaits the previous hop's acknowledgement."""
    return record.notice is not None


def _durable(record: JobRecord) -> JobRecord:
    """A copy of the record with its own legs (requests and spans stay
    shared) and without the facets a crash kills: the backoff clock
    and an inbound leg whose payload pull is still running."""
    host = record.host
    if host is not None:
        host = None if host.state is HostingState.COMMITTING else replace(host)
    return replace(record, out=replace(record.out) if record.out else None,
                   host=host, retry_after=0.0)


class ForwardProtocol:
    """One gateway's two-phase forwards, hosting, settlement and
    reconciliation, over its durable per-job table."""

    #: Counters the gateway snapshot carries across a restart.
    COUNTERS = ("forwarded_out", "forwarded_in", "relayed_out", "declined",
                "wan_transfer_seconds")

    def __init__(self, gateway: "FederationGateway"):
        self.gateway = gateway
        self.site = gateway.site
        self.env = gateway.env
        self.config = gateway.config
        self.platform = gateway.platform
        #: Next claim-token ordinal.  A plain int (not a generator) so
        #: it snapshots: token monotonicity must survive a restart, or
        #: a recycled token could collide with a pre-crash handshake.
        self._token_seq = 1
        #: The running reconcile loop (replaced at every restart).
        self.loop: Optional[Process] = None
        self._reconcile_timer = self.env.timer(self._reconcile_due)
        #: The reconcile grid's origin: the loop's last wake.
        self._reconcile_base = 0.0

        self.forwarded_out = 0
        self.forwarded_in = 0
        #: Foreign jobs this site re-forwarded onward (subset of
        #: ``forwarded_out``): the relay traffic multi-hop enables.
        self.relayed_out = 0
        self.declined = 0
        self.wan_transfer_seconds = 0.0
        self.crash()  # the volatile state starts out as a crash leaves it

    # -- the per-job table ------------------------------------------------

    def _ids(self, keep: Callable[[JobRecord], bool]) -> List[str]:
        """Sorted ids of the records ``keep`` selects right now."""
        return sorted(job_id for job_id, record in self.records.items()
                      if keep(record))

    def delegation(self, job_id: str) -> Optional[ForwardRecord]:
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

    def reserved(self) -> int:
        """Cards promised to peers: live leases plus commits whose
        payload pull runs."""
        return len(self._offers) + sum(
            1 for record in self.records.values()
            if record.host is not None
            and record.host.state is HostingState.COMMITTING)

    # -- WAN transitions --------------------------------------------------

    def on_wan_transition(self, event: str, a: str, b: str) -> None:
        if self.gateway.is_crashed:
            return  # a dead gateway observes nothing
        kind = "wan-link-severed" if event == "sever" else "wan-link-healed"
        self.platform.events.emit(kind, a=a, b=b)
        if event == "heal":
            # Reconcile immediately: resolve unknown outcomes, deliver
            # pending cancels, re-send missed completion notices.
            self._kick_reconcile()

    # -- egress: forwarding unplaceable work ------------------------------

    def on_unplaceable(self, request: ResourceRequest) -> bool:
        """Coordinator hook: may we take this request off its hands?
        Home surplus and *foreign* jobs (a relay hop) both qualify; the
        sites a job already visited are excluded, so a multi-hop
        forward fans outward but never ping-pongs."""
        gateway = self.gateway
        if gateway.is_crashed:
            return False  # no gateway, no federation: work parks locally
        if request.training is None:
            return False  # sessions never cross the WAN
        if request.forward_hops >= self.config.max_forward_hops:
            return False  # out of hops: the job stays parked here
        record = self.records.get(request.request_id)
        if record is not None and self.env.now < record.retry_after:
            return False  # backing off after a decline
        exclude = set(request.relay_path)
        if gateway.trust is not None:
            # Quarantined/evicted peers are never forwarding targets
            # (their digests were dropped too; this guards stragglers).
            exclude |= gateway.trust.excluded()
        peer_digests = gateway.gossip.peer_digests
        dest = gateway.policy.choose(
            self.site, request, peer_digests,
            gateway.wan, gateway.fabric, gateway.ledger, self.env.now,
            exclude=exclude,
        )
        if dest is None:
            return False
        # Optimistically consume the advertised GPU so a burst of
        # parked requests does not dog-pile one remote card before the
        # peer's next digest corrects the view.
        digest = peer_digests[dest]
        peer_digests[dest] = replace(
            digest, free_gpus=digest.free_gpus - 1,
            queue_pressure=digest.queue_pressure + 1)
        gateway.spawn(self._forward(request, dest),
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
        gateway = self.gateway
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
            hops=request.forward_hops + 1)
        # The per-hop forward span: covers the whole handshake
        # (offer → claim → commit, including the payload pull the
        # commit blocks on), parented under the request's current span
        # — the root at the origin, the local host span at a relay.
        tracer = gateway.tracer
        fwd = None
        if tracer is not None and request.trace is not None:
            fwd = tracer.start(
                "forward", parent=request.trace, site=self.site,
                dest=dest, restore=restore, hop=request.forward_hops + 1,
                payload_bytes=payload_bytes)
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
        self.checkpoint()
        # Phase 1: metadata-only offer.  A failure here is *safe* —
        # nothing durable happened at the host beyond an expiring
        # lease — so any error reads as a decline.
        offer = ForwardOffer(
            spec=spec, origin_site=origin, payload_bytes=payload_bytes,
            restore=restore, progress=shipped_progress,
            forward_hops=request.forward_hops + 1, relay_path=relay_path,
            trace=fwd)
        try:
            reply = yield gateway.call(dest, "forward-offer", offer)
        except NetworkError:
            reply = {}
        if not reply.get("accepted"):
            if gateway.trust is not None and reply and "reason" not in reply:
                # The peer advertised capacity fresh enough for the
                # policy to pick it, yet declined for headroom (the
                # reason-less decline).  One honest race is possible;
                # a pattern of them is the over-report signature —
                # a circumstantial, threshold-gated strike.
                gateway.gossip.strike(dest, "capacity-mismatch",
                                      definitive=False)
            return self._declined(record, reply.get("reason", "unreachable"))
        token = reply["claim_token"]
        state = self.platform.coordinator.jobs.get(spec.job_id)
        if state is not None and state.status is JobStatus.CANCELLED:
            # Cancelled while the offer was in flight: nothing has
            # committed — release the lease (best-effort; it expires
            # on its own if this leg is lost too) and walk away.
            if tracer is not None:
                tracer.finish(fwd, status="cancelled")
            record.out = None
            self.checkpoint()
            try:
                yield gateway.call(dest, "forward-release",
                                   {"claim_token": token})
            except NetworkError:
                pass  # the lease expires at the host on its own
            return
        # Claim the leg before the commit leaves: from here on a crash
        # must resolve through the status probe, never a blind requeue.
        leg.claim_token = token
        _advance(leg, DelegationState.CLAIMED)
        self.checkpoint()
        # Phase 2: claim-bearing commit.  A failure here is AMBIGUOUS
        # — the host may have pulled the payload and scheduled the job
        # — so it parks the delegation as unknown outcome for the
        # reconciliation pass to resolve.  Re-queuing here is exactly
        # the double-schedule bug.
        envelope = ForwardEnvelope(
            spec=spec, origin_site=origin, payload_bytes=payload_bytes,
            snapshot=snapshot, forward_hops=request.forward_hops + 1,
            claim_token=token, relay_path=relay_path, trace=fwd)
        try:
            commit = yield gateway.call(dest, "forward-commit", envelope,
                                        timeout=self.config.commit_rpc_timeout)
        except NetworkError:
            # The forward span stays open: the handshake's outcome is
            # ambiguous until a reconciliation probe resolves it.
            self._park_unknown(leg)
            self.checkpoint()
            self._kick_reconcile()
            return
        if not commit.get("committed"):
            return self._declined(record,
                                  commit.get("reason", "not-committed"))
        elapsed = self.env.now - started
        self.wan_transfer_seconds += elapsed
        leg.transfer_seconds = elapsed
        if tracer is not None:  # the first finish wins
            tracer.finish(fwd, status="committed", transfer_seconds=elapsed)
        self._committed(leg, live=True)

    def on_cancel_delegated(self, job_id: str) -> bool:
        """Coordinator hook: the user cancelled a gateway-held job.

        The local record is already CANCELLED; if the job crossed (or
        is crossing) the WAN, queue the cancellation for at-most-once
        delivery to the hosting site.
        """
        if self.gateway.is_crashed:
            # The CANCELLED job state survives in the coordinator;
            # recovery re-derives the pending cancel from it.
            return False
        record = self.records.get(job_id)
        if record is not None and record.out is not None:
            record.out.cancel_pending = True
            self.checkpoint()
            self._kick_reconcile()
            return True
        return False

    def _declined(self, record: JobRecord, reason: str) -> None:
        """The peer declined the handshake (or it failed safely)."""
        tracer = self.gateway.tracer
        if tracer is not None:
            tracer.finish(record.out.trace, status="declined", reason=reason)
        self.declined += 1
        self._requeue(record, "job-forward-declined")

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
        self.checkpoint()

    def _settle_relay_departure(self, record: ForwardRecord) -> None:
        """Close this site's hosting role once its outgoing commit is
        confirmed: the inbound leg settles any *durable* progress this
        site added beyond the arrival snapshot as a donation now, and
        the downstream host bills only the remainder, so the origin is
        charged each GPU-hour exactly once across the chain."""
        if record.origin_site is None:
            return  # we are the true origin, not a relay
        hosted = self._inbound(record.job_id, HostingState.HOSTED)
        self.relayed_out += 1
        # This site's hosting role ends here; its host span closes and
        # the delegation lives on in the outgoing forward span.
        self.platform.coordinator.finish_trace(record.job_id, "relayed")
        self.platform.events.emit(
            "job-relayed", job_id=record.job_id, dest=record.dest_site,
            origin=record.origin_site)
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
        ledger = self.gateway.ledger
        chain_record = self.gateway.gossip.record
        chain_record(ledger.record_donation(
            donor=self.site, beneficiary=hosted.origin_site,
            gpu_hours=executed / HOUR, job_id=job_id, at=self.env.now))
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
                chain_record(ledger.record_relay_fee(
                    relay=relay, beneficiary=hosted.origin_site,
                    gpu_hours=fee, job_id=job_id, at=self.env.now))
        return executed

    # -- ingress: hosting foreign work ------------------------------------

    def accepts(self, spec: TrainingJobSpec) -> bool:
        """Local-first admission: host foreign work only with headroom.

        Applies the same filters a peer's forwarding policy applied to
        our (possibly stale) digest, but against the live local view.
        """
        model = spec.model
        return self.gateway.policy.admissible(
            self.gateway.local_digest(), model.gpu_memory,
            model.min_compute_capability)

    def handle_offer(self, offer: ForwardOffer) -> dict:
        job_id = offer.spec.job_id
        trust = self.gateway.trust
        reason = decline_reason(
            offer, self.site, self.records.get(job_id),
            self.platform.coordinator.jobs.get(job_id),
            blocked=trust is not None and trust.blocks(offer.sender_site),
            hosts=self.config.host_foreign_jobs, fits=self.accepts(offer.spec))
        tracer = self.gateway.tracer
        if tracer is not None:  # the host-side decision, as an instant span
            tracer.event("admission", offer.trace, site=self.site,
                         status="declined" if reason else "accepted",
                         reason=reason or "")
        if reason == "no-headroom":
            self.platform.events.emit("job-forward-rejected",
                                      job_id=job_id,
                                      origin=offer.origin_site)
            # No reason given: from a peer whose digest advertised the
            # card, this decline is the over-report signal.
            return {"accepted": False}
        if reason is not None:
            return {"accepted": False, "reason": reason}
        token = f"{self.site}#{self._token_seq}"
        self._token_seq += 1
        # The lease reserves the accepted card in our digest until the
        # claim arrives, so concurrent origins cannot all book it.
        self._offers[token] = offer
        self.gateway.gossip.note_change()
        # Persist the token ordinal: leases are volatile, but a token
        # recycled after a crash could alias a pre-crash handshake.
        self.checkpoint()
        self.env.call_later(self.config.offer_lease_timeout,
                            self._lease_expiry, token)
        return {"accepted": True, "claim_token": token}

    def _drop_offer(self, token: Optional[str]) -> Optional[ForwardOffer]:
        """Release the capacity lease behind ``token``, if still held."""
        offer = self._offers.pop(token, None)
        if offer is not None:
            self.gateway.gossip.note_change()
        return offer

    def _lease_expiry(self, token: str) -> None:
        offer = self._drop_offer(token)
        if offer is not None:
            self.platform.events.emit("forward-lease-expired",
                                      job_id=offer.spec.job_id,
                                      origin=offer.origin_site)

    def handle_commit(self, envelope: ForwardEnvelope) -> Generator:
        job_id = envelope.spec.job_id
        token = envelope.claim_token
        record = self.records.get(job_id)
        reply = commit_reply(record.host if record is not None else None,
                             token, token in self._offers)
        if reply is not None:
            return reply
        self._drop_offer(token)
        # Pull the bulk bytes (checkpoint snapshot or dataset) over the
        # WAN from the *previous hop* — on a relayed forward the data
        # lives at the relay, not the origin; the handler runs inside
        # the RPC, so the sender sees the full replication time before
        # its commit is acknowledged.  While it runs, the COMMITTING
        # leg keeps the card reserved in our digest.
        gossip = self.gateway.gossip
        record = self.records.setdefault(job_id, JobRecord(job_id))
        leg = record.host = HostRecord(
            envelope.origin_site, envelope.progress, envelope.relay_path,
            token)
        gossip.note_change()
        category = (CHECKPOINT_CATEGORY if envelope.restore
                    else DATASET_CATEGORY)
        tracer = self.gateway.tracer
        pull = None
        if tracer is not None and envelope.trace is not None:
            pull = tracer.start("payload-pull", parent=envelope.trace,
                                site=self.site,
                                src=envelope.sender_site,
                                nbytes=envelope.payload_bytes,
                                category=category)
        try:
            yield self.gateway.fabric.transfer(envelope.sender_site,
                                               self.site,
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
            gossip.note_change()
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
        gossip.note_change()
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
        self.checkpoint()
        self.platform.coordinator.submit_remote(
            envelope.spec, origin_site=envelope.origin_site,
            restore=envelope.restore, progress=envelope.progress,
            forward_hops=envelope.forward_hops,
            relay_path=envelope.relay_path, trace=envelope.trace)
        return {"committed": True}

    def handle_release(self, payload: dict):
        self._drop_offer(payload.get("claim_token"))
        return "ok"

    def handle_status(self, payload: dict) -> dict:
        """Idempotent probe: the job's :func:`fate` here."""
        job_id = payload["job_id"]
        reply, lease = probe_reply(self.records.get(job_id),
                                   self.platform.coordinator.jobs.get(job_id),
                                   self.site, payload.get("claim_token"))
        self._drop_offer(lease)
        return reply

    def handle_cancel(self, payload: dict) -> Generator:
        """Cross-WAN cancellation of a job delegated to this site.

        Idempotent: re-delivery after a lost response reports the same
        :func:`fate` instead of acting twice, so the origin's retry
        loop gives at-most-once *effect*.
        """
        job_id = payload["job_id"]
        coordinator = self.platform.coordinator
        if coordinator.is_dispatching(job_id):
            # Mid-dispatch: the job's fate is changing under us — ask
            # the origin to retry shortly.
            return {"state": "pending"}
        state = coordinator.jobs.get(job_id)
        reply = fate(self.records.get(job_id), state, self.site)
        if reply["state"] != "committed":
            return reply
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
                return fate(self.records.get(job_id), state, self.site)
        state.status = JobStatus.CANCELLED
        hosted = self._inbound(job_id, HostingState.HOSTED)
        if hosted is not None:
            self._settle_foreign_cancellation(job_id, hosted, state)
            self.checkpoint()
        # A crash during the terminate round trip keeps the *local*
        # effects (the executor is already dead, and CANCELLED is the
        # durable truth) but must not answer: the origin retries after
        # restart and the idempotent path above reports the outcome.
        # Settlement then happens in recovery, off the snapshot.
        self._check_alive()
        return {"state": "cancelled"}

    def _settle_foreign_cancellation(self, job_id: str,
                                     hosted: HostRecord, state) -> None:
        """Bill the hours (and the relays' cut) a cancelled foreign job
        donated before dying: from the live cancel handler, or from
        recovery when the terminate round trip straddled a crash."""
        executed = self._settle(job_id, hosted, state.progress)
        self.platform.events.emit("foreign-job-cancelled",
                                  job_id=job_id, origin=hosted.origin_site,
                                  donated_gpu_hours=executed / HOUR)

    # -- settlement -------------------------------------------------------

    def on_event(self, event: PlatformEvent) -> None:
        gateway = self.gateway
        if gateway.is_crashed:
            return  # a dead gateway sees nothing; recovery replays
        gateway.admission.on_event(event)
        if event.kind != "job-completed":
            return
        job_id = event.payload.get("job_id")
        hosted = self._inbound(job_id, HostingState.HOSTED)
        if hosted is None:
            return
        self._settle_foreign_completion(job_id, hosted)
        self.checkpoint()

    def _settle_foreign_completion(self, job_id: str,
                                   hosted: HostRecord) -> None:
        """Credit this site for a hosted foreign job that finished:
        from the live completion event, or from recovery when the job
        completed while the gateway was down."""
        state = self.platform.coordinator.jobs.get(job_id)
        # Relays along the path earn their fee out of the origin's
        # balance — settled here, at the one site that knows the final
        # donated hours.
        donated = self._settle(job_id, hosted, state.spec.total_compute)
        origin, relay_path = hosted.origin_site, hosted.relay_path
        tracer = self.gateway.tracer
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
        # The notice goes to the *previous hop* (on a relayed job that
        # is the relay, which chains it onward) and stays registered
        # until acknowledged, so a partitioned upstream receives it on
        # heal (reconciliation) instead of never.
        self._queue_completion_notice(
            job_id, upstream=relay_path[-1] if relay_path else origin,
            completed_at=(state.completed_at if state.completed_at
                          is not None else self.env.now))

    def _queue_completion_notice(self, job_id: str, upstream: str,
                                 completed_at: float) -> None:
        """Register a completion notice toward the previous hop and
        start delivering it: the keep-until-acknowledged ``completed``
        fate, from a hosting site or a chaining relay."""
        record = self.records[job_id]
        record.notice = (upstream, dict(
            completed(record, completed_at, self.site), job_id=job_id))
        self.checkpoint()
        self.gateway.spawn(self._notify_upstream(job_id), f"notify:{job_id}")

    def _notify_upstream(self, job_id: str) -> Generator:
        record = self.records.get(job_id)
        if record is None or record.notice is None:
            return
        upstream, payload = record.notice
        try:
            yield self.gateway.call(upstream, "job-complete", payload)
        except NetworkError:
            # The previous hop is partitioned; the reconciliation pass
            # re-sends this notice once the WAN heals.  (A crash
            # Interrupt propagates instead: the notice survives in the
            # snapshot and reconciliation re-sends it after restart.)
            self.platform.events.emit("job-complete-notify-failed",
                                      job_id=job_id, origin=upstream)
            return
        record.notice = None
        self.checkpoint()

    def handle_job_complete(self, payload: dict):
        job_id = payload["job_id"]
        record = self.records.get(job_id)
        leg = record.out if record is not None else None
        if leg is not None and leg.state in JOURNAL_STATES:
            # The notice overtook the commit's ack: refuse it, and the
            # host re-sends it once the handshake has resolved.
            raise RpcError(f"the handshake for {job_id} is unresolved")
        self._resolve(job_id, leg, payload, "job-complete")
        return "ok"

    def _resolve(self, job_id: str, leg: Optional[ForwardRecord],
                 reply: dict, via: str) -> None:
        """Apply a host's reported fate to this site's sender leg through
        :func:`resolve`, ``via`` a ``forward-status`` or ``cancel-job``
        reply or a ``job-complete`` notice.  A notice may find no open
        delegation (``leg`` is ``None``); it still closes the local job."""
        outcome = reply["state"]
        steps = resolve(leg.state, outcome) if leg is not None else ()
        tracer = self.gateway.tracer
        if via == "forward-status" and tracer is not None:
            tracer.event("probe", leg.trace, site=self.site,
                         dest=leg.dest_site, outcome=outcome)
        if steps == REQUEUE:
            # Guaranteed not (and never to be) committed at the host:
            # requeuing locally cannot duplicate the job.
            if tracer is not None:
                tracer.finish(leg.trace, status="absent")
            self._requeue(self.records[job_id], "job-forward-requeued")
            return
        if outcome == "pending":
            return  # mid-commit or mid-dispatch there; ask again later
        if via == "cancel-job" and tracer is not None:
            tracer.event("cancel-delivered", leg.trace, site=self.site,
                         outcome=("lost-race" if outcome == "completed"
                                  else "cancelled"))
        if leg is not None and not steps:
            return  # nothing new, e.g. a re-sent notice
        # The host stamps completion when the last step finished; the
        # notice's WAN flight time must not inflate makespan metrics.
        completed_at = reply.get("completed_at", self.env.now)
        host_site = reply.get("host_site")
        for phase in steps:
            if phase is DelegationState.COMMITTED:
                # The commit-ack was lost but the host clearly
                # committed; its report resolves the handshake.
                self._committed(leg)
                continue
            if phase is DelegationState.COMPLETED:
                leg.completed_at = completed_at
                leg.host_site = host_site or leg.dest_site
            _advance(leg, phase)
        if outcome == "committed":
            return
        if leg is not None:
            leg.cancel_pending = False  # the job's fate is final
        if outcome != "completed":
            self.checkpoint()
            if via == "cancel-job":
                self.platform.coordinator.finish_trace(job_id, "cancelled")
                self.platform.events.emit("job-cancel-delivered",
                                          job_id=job_id, dest=leg.dest_site)
            return
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
                self.platform.events.emit("job-cancel-lost-race",
                                          job_id=job_id, dest=host_site)
            else:
                state.status = JobStatus.COMPLETED
        self.checkpoint()
        self.platform.events.emit("job-remote-completed", job_id=job_id,
                                  host=host_site)
        if leg is not None and leg.upstream is not None:
            # We were a relay hop for this job: chain the completion
            # notice toward the previous hop with the *host's* stamp
            # intact, under the same keep-until-acknowledged rule.
            self._queue_completion_notice(job_id, leg.upstream,
                                          completed_at)

    def _park_unknown(self, leg: ForwardRecord) -> None:
        """CLAIMED → UNKNOWN: the commit may have landed (its ack was
        lost, or a crash hid it), so the probe resolves the leg."""
        _advance(leg, DelegationState.UNKNOWN)
        self.platform.events.emit("job-forward-unknown", job_id=leg.job_id,
                                  dest=leg.dest_site)

    def _committed(self, leg: ForwardRecord, live: bool = False) -> None:
        """The handshake landed: on its ``live`` commit-ack, or later,
        when a probe or notice resolves an unknown outcome (the forward
        span was left open until then)."""
        _advance(leg, DelegationState.COMMITTED)
        self.forwarded_out += 1
        tracer = self.gateway.tracer
        if tracer is not None:
            tracer.finish(leg.trace, status="committed")
        self._settle_relay_departure(leg)
        state = self.platform.coordinator.jobs.get(leg.job_id)
        if state is not None and state.status is JobStatus.CANCELLED:
            # The user cancelled mid-commit; the host runs the job
            # until the pending cancellation lands there.  A resolved
            # outcome needs no kick: a probe runs inside a pass, and a
            # completion notice settles the cancel at once.
            leg.cancel_pending = True
            if live:
                self._kick_reconcile()
        elif state is not None:
            state.status = JobStatus.MIGRATING
            state.current_node = f"wan:{leg.dest_site}"
        self.checkpoint()
        self.platform.events.emit(
            "job-forwarded-out", job_id=leg.job_id, dest=leg.dest_site,
            restore=leg.restore, transfer_seconds=leg.transfer_seconds)

    # -- reconciliation ---------------------------------------------------

    def _kick_reconcile(self) -> None:
        """Run a reconciliation pass as soon as possible, bypassing the
        timer.  A kick while a pass runs (its wake has fired) sets the
        flag, or a heal-time kick would wait for the next timer tick."""
        wake = self._reconcile_wake
        if wake is not None and not wake.triggered:
            wake.succeed()
        else:
            self._reconcile_kicked = True  # picked up next loop turn

    def _reconcile_due(self) -> None:
        if not self._reconcile_wake.triggered:  # else kicked this instant
            self._reconcile_wake.succeed()

    def _has_reconcile_work(self) -> bool:
        return any(is_unknown(record) or is_cancelling(record)
                   or has_notice(record)
                   for record in self.records.values())

    def _arm_reconcile(self) -> None:
        """Arm the sleeping reconcile loop if there is work: at the
        first point of its ``reconcile_interval`` grid strictly after
        now.  Runs after every table mutation (:meth:`checkpoint`), so
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
        for job_id in self._ids(is_unknown):
            record = self.delegation(job_id)
            if record is None or record.state is not DelegationState.UNKNOWN:
                continue
            yield from self._ask(job_id, record, "forward-status", {
                "job_id": job_id, "claim_token": record.claim_token})
        # 2. Deliver pending cross-site cancellations.
        #    A journaled or UNKNOWN handshake must resolve first.
        for job_id in self._ids(is_cancelling):
            record = self.records[job_id].out
            if record is None:
                continue  # the cancel left with its leg
            if record.state in (DelegationState.COMPLETED,
                                DelegationState.CANCELLED):
                record.cancel_pending = False
            elif record.state is DelegationState.COMMITTED:
                yield from self._ask(job_id, record, "cancel-job", {
                    "job_id": job_id, "origin_site": self.site})
        # 3. Re-send completion notices the previous hop never
        #    acknowledged.
        for job_id in self._ids(has_notice):
            yield from self._notify_upstream(job_id)

    def _ask(self, job_id: str, leg: ForwardRecord, method: str,
             payload: dict) -> Generator:
        """Ask the host for the job's fate — a ``forward-status`` probe
        or a ``cancel-job`` — and resolve the leg by its reply."""
        try:
            reply = yield self.gateway.call(leg.dest_site, method, payload)
        except NetworkError:
            return  # unreachable; retried next pass (host is idempotent)
        self._resolve(job_id, leg, reply, method)

    # -- crash / restart --------------------------------------------------

    def _check_alive(self) -> None:
        """Raise out of a handler that resumed inside a dead gateway:
        a crash cannot interrupt RPC handlers, so each re-checks after
        every yield.  The caller sees a network error, ambiguous like
        any lost response leg, and resolved by the idempotent probe."""
        if self.gateway.is_crashed:
            raise RpcError(f"gateway {self.site} crashed mid-operation")

    def checkpoint(self) -> None:
        """Persist the table (a no-op without a vault), and wake the
        reconcile loop if it now has work.  Called after every mutation
        of snapshot-worthy state: crash points exist only at yields, so
        the vault is always current when one lands."""
        self._arm_reconcile()
        gateway = self.gateway
        if gateway.vault is None or gateway.is_crashed:
            return
        snap = GatewaySnapshot(
            site=self.site,
            taken_at=self.env.now,
            token_seq=self._token_seq,
            records={job_id: _durable(record)
                     for job_id, record in self.records.items()},
            counters={name: getattr(self, name) for name in self.COUNTERS},
        )
        gateway.vault.store("gateway", snap, snap.nbytes)

    def crash(self) -> None:
        """Drop the table, the leases and the armed wake; the table
        comes back from the vault at :meth:`restart`."""
        #: The per-job protocol table: each job's sender leg, inbound
        #: hosting leg and unacked completion notice.  Durable: it is
        #: snapshotted after every mutation and restored on restart.
        self.records: Dict[str, JobRecord] = {}
        #: Host-side capacity leases: claim token → granted offer.
        #: Keyed by token, not job: a job re-offered after its origin
        #: crashed in phase 1 can hold two leases here at once.
        self._offers: Dict[str, ForwardOffer] = {}
        self._reconcile_wake: Optional[Event] = None
        self._reconcile_timer.cancel()
        self._reconcile_kicked = False

    def restart(self, snapshot: Optional[GatewaySnapshot]) -> None:
        """Restore the table, the token ordinal and the counters from
        ``snapshot`` (if any) and start a new reconcile loop; the first
        start passes ``None``.  :meth:`recover` then replays the table."""
        if snapshot is not None:
            self.records = {job_id: _durable(record)
                            for job_id, record in snapshot.records.items()}
            self._token_seq = snapshot.token_seq
            for name in self.COUNTERS:
                setattr(self, name, snapshot.counters.get(name, 0))
        self.loop = self.gateway.spawn(self._reconcile_loop(),
                                       f"reconcile:{self.site}")

    def recover(self) -> None:
        """Replay the table against what happened while we were down."""
        coordinator = self.platform.coordinator
        # 1. Classify the sender legs a crash left in the journal.
        for job_id in self._ids(lambda record: record.out is not None
                                and record.out.state in JOURNAL_STATES):
            record = self.records[job_id]
            if classify_journal(record.out.state) == REQUEUE:
                self._requeue(record, "job-forward-requeued")
            else:
                self._park_unknown(record.out)
        # 2. Settle hosted foreign jobs that reached a terminal state
        #    while the gateway was down (their completion events fired
        #    into a dead subscriber).
        for job_id in self._ids(is_hosting):
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
        self.checkpoint()
        self._kick_reconcile()
