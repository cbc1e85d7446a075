"""Federation wire types.

The payloads gateways exchange over the WAN RPC layer: gossip-style
capacity digests, the two-phase forward handshake (offer →
claim-token → commit-ack), and the rows of a gateway's per-job table.
Like the campus control plane, these are plain dataclasses — the RPC
layer charges their (small) serialized size against the WAN links, so
control traffic competes with bulk checkpoint replication exactly as
it would in deployment.

The handshake is failure-atomic by construction:

* a lost **offer** leg leaves at most an expiring capacity lease at the
  host — nothing ran, the origin may safely retry or requeue;
* a lost **commit** leg is *ambiguous* (the host may be running the
  job), so the origin parks the delegation in
  :attr:`DelegationState.UNKNOWN` and resolves it with an idempotent
  ``forward-status`` probe instead of re-queuing — the double-schedule
  bug the one-shot protocol had.

Forwards may be **relayed**: a site hosting a foreign job it cannot
place re-runs the same handshake toward one of its own neighbours, so
a job can travel ``origin → relay → host``.  Every offer/envelope
carries ``relay_path`` — the ordered chain of sites the job passed
through, starting with the true origin — which is simultaneously the
loop guard (a site never appears twice), the provenance record relay
fees settle against, and the return path completion notices chain back
along hop by hop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from ..storage import CheckpointRecord
from ..workloads.training import TrainingJobSpec

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..core.messages import ResourceRequest
    from ..observability.trace import TraceContext


@dataclass(frozen=True, slots=True)
class CapacityDigest:
    """One site's gossiped summary of its spare capacity.

    Deliberately coarse (the paper's coordinator keeps the precise
    per-GPU view *inside* the campus): peers only need enough to
    decide where forwarding is likely to succeed.
    """

    site: str
    #: Fully-idle GPUs on schedulable providers.  All capacity fields
    #: describe this same population: forwarded training is exclusive,
    #: so partially-used cards are not remote-placement candidates.
    free_gpus: int
    #: Distinct ``(memory_bytes, compute_capability)`` classes among
    #: the fully-idle cards.  Kept per-class (not as separate maxima)
    #: so a job's memory floor and capability floor are checked against
    #: the *same* card — a site with a big-memory old card and a
    #: small-memory new card must not look like it has a big new one.
    free_cards: Tuple[Tuple[float, Tuple[int, int]], ...] = ()
    #: Requests the site has queued or parked (saturation signal).
    queue_pressure: int = 0
    #: Simulation time the digest was computed (staleness filtering).
    advertised_at: float = 0.0

    def is_fresh(self, now: float, staleness: float) -> bool:
        """Whether the digest is recent enough to act on."""
        return now - self.advertised_at <= staleness

    def fits(self, memory: float, capability: Tuple[int, int]) -> bool:
        """Whether some advertised idle card satisfies both floors."""
        return any(
            card_memory >= memory and card_capability >= tuple(capability)
            for card_memory, card_capability in self.free_cards
        )


@dataclass(frozen=True, slots=True)
class ForwardOffer:
    """Phase 1 of the forward handshake: metadata only, no bulk data.

    The host checks admission against this, reserves an idle card
    under a lease, and answers with a claim token.  Nothing durable
    happens yet — a lost response leg costs at most one lease timeout
    of reserved capacity.
    """

    spec: TrainingJobSpec
    origin_site: str
    #: Bulk bytes the commit-phase pull will move (dataset, plus the
    #: flattened restore chain for a migrated job).
    payload_bytes: float
    #: Whether the job would resume from a replicated checkpoint.
    restore: bool = False
    #: Durable progress that checkpoint carries (0 for fresh jobs).
    progress: float = 0.0
    forward_hops: int = 1
    #: Sites the job passed through before the receiver, in order,
    #: starting with the true origin.  ``("a",)`` for a first-hop
    #: forward from ``a``; ``("a", "b")`` when ``b`` relays ``a``'s
    #: job onward.  The last element is the *physical sender* the
    #: commit-phase payload pull draws from.
    relay_path: Tuple[str, ...] = ()
    #: Causal-trace propagation: the sender's ``forward`` span, so the
    #: receiver's admission/host spans parent under the hop that
    #: carried them.  ``None`` when tracing is off.
    trace: Optional["TraceContext"] = None

    @property
    def sender_site(self) -> str:
        """The site physically holding the payload (previous hop)."""
        return self.relay_path[-1] if self.relay_path else self.origin_site


@dataclass(frozen=True, slots=True)
class ForwardEnvelope:
    """Phase 2 of the handshake: the claim-bearing commit message.

    ``snapshot`` is present when the origin replicated a checkpoint
    (cross-site migration); ``payload_bytes`` is whatever bulk data the
    commit pull must move.  ``claim_token`` names the lease granted in
    phase 1 — the host commits at most once per token, so a retried
    commit after a lost acknowledgement is answered idempotently
    instead of double-scheduling the job.
    """

    spec: TrainingJobSpec
    origin_site: str
    payload_bytes: float
    snapshot: Optional[CheckpointRecord] = None
    forward_hops: int = 1
    claim_token: str = ""
    #: Same chain as :attr:`ForwardOffer.relay_path`.
    relay_path: Tuple[str, ...] = ()
    #: Same propagation handle as :attr:`ForwardOffer.trace`.
    trace: Optional["TraceContext"] = None

    @property
    def sender_site(self) -> str:
        """The site physically holding the payload (previous hop)."""
        return self.relay_path[-1] if self.relay_path else self.origin_site

    @property
    def restore(self) -> bool:
        """Whether the receiver restores from the replicated snapshot."""
        return self.snapshot is not None

    @property
    def progress(self) -> float:
        """Durable progress the job arrives with (0 for fresh jobs)."""
        return self.snapshot.progress if self.snapshot is not None else 0.0


class DelegationState(Enum):
    """Sender-side lifecycle of one forward leg."""

    #: Journaled before the offer leaves; no claim token yet.  A crash
    #: here requeues the job: nothing durable exists at the peer.
    OFFERED = "offered"
    #: Claim token held, journaled before the commit leaves.  A crash
    #: here parks the leg :attr:`UNKNOWN`: the commit may have landed.
    CLAIMED = "claimed"
    #: The host acknowledged the commit; the job runs remotely.
    COMMITTED = "committed"
    #: The commit's outcome is ambiguous (response leg lost / timed
    #: out).  Resolved by a ``forward-status`` probe — never by
    #: re-queuing, which is how jobs used to double-schedule.
    UNKNOWN = "unknown"
    #: The host reported completion (notice or probe).
    COMPLETED = "completed"
    #: The host confirmed the job was cancelled there.
    CANCELLED = "cancelled"


#: Sender phases that are the write-ahead journal, not yet a delegation.
JOURNAL_STATES = frozenset({DelegationState.OFFERED, DelegationState.CLAIMED})


class HostingState(Enum):
    """Host-side lifecycle of one inbound leg."""

    #: The commit's payload pull is running.  Volatile: a restart
    #: drops the leg, exactly as the crash killed the pull.
    COMMITTING = "committing"
    #: Committed and submitted locally; settles on completion, cancel,
    #: or relay onward.
    HOSTED = "hosted"
    #: Settled.  The leg stays so a replayed commit is answered from
    #: its claim token instead of scheduling the job twice.
    SETTLED = "settled"


@dataclass(slots=True)
class ForwardRecord:
    """Sender-side leg of one forward to a peer site.

    Kept both by the true origin and by every relay along the chain —
    each hop records only its *own* outgoing leg, so probes, cancels,
    and completion notices all travel hop by hop.  The leg starts at
    the offer: in :data:`JOURNAL_STATES` it is the write-ahead journal
    a restarted gateway classifies (see ``ForwardProtocol.recover``).
    """

    job_id: str
    dest_site: str
    forwarded_at: float
    payload_bytes: float
    restore: bool
    transfer_seconds: float = 0.0
    completed_at: Optional[float] = None
    claim_token: str = ""
    state: DelegationState = DelegationState.OFFERED
    #: The job's true origin, or ``None`` when this site *is* the
    #: origin.  Set on relay records: it marks the delegation as one
    #: whose completion notice must chain onward to :attr:`upstream`.
    origin_site: Optional[str] = None
    #: The previous hop the job arrived from (``None`` at the true
    #: origin) — where chained completion notices are delivered.
    upstream: Optional[str] = None
    #: Durable progress shipped with the payload — what a relay
    #: settles its own donated hours against.
    shipped_progress: float = 0.0
    #: The site that actually ran the job to completion, learned from
    #: the completion notice/probe — ``dest_site`` unless the job was
    #: relayed onward from there.
    host_site: Optional[str] = None
    #: The sender-side ``forward`` span covering this delegation
    #: (``None`` when tracing is off).  Probe, cancel, and completion
    #: spans for the delegation parent under it.
    trace: Optional["TraceContext"] = None
    #: The request being forwarded — what a phase-1 crash or an
    #: ``absent`` probe requeues.
    request: Optional["ResourceRequest"] = None
    #: The user cancelled the job; the reconciliation pass delivers
    #: the cancellation to :attr:`dest_site` (idempotent there, so the
    #: effect is at-most-once).
    cancel_pending: bool = False


@dataclass(slots=True)
class HostRecord:
    """Host-side leg of one job this site accepted from a peer."""

    origin_site: str
    #: Durable progress the job arrived with — never billed here.
    arrival_progress: float
    relay_path: Tuple[str, ...]
    #: The claim token the commit consumed.
    claim_token: str
    state: HostingState = HostingState.COMMITTING


@dataclass(slots=True)
class JobRecord:
    """One job's row in a gateway's protocol table.

    A relay hosts a job and forwards it onward at once, so a row holds
    both legs side by side, plus the completion notice this site owes
    its previous hop.
    """

    job_id: str
    out: Optional[ForwardRecord] = None
    host: Optional[HostRecord] = None
    #: Completion notice the previous hop has not acknowledged yet:
    #: ``(upstream site, payload)``.
    notice: Optional[Tuple[str, dict]] = None
    #: No new offer before this time after a decline (volatile).
    retry_after: float = 0.0


#: Current :class:`GatewaySnapshot` layout version.  Bump on any
#: incompatible change; recovery rejects other versions with
#: :class:`~repro.errors.SnapshotVersionError`.
GATEWAY_SNAPSHOT_VERSION = 2


@dataclass(slots=True)
class GatewaySnapshot:
    """Everything a federation gateway must recover after a restart.

    Durable state only: the per-job protocol table and the claim-token
    sequence (monotonicity across restarts keeps tokens unique).
    Capacity leases, peer digests and in-flight handshakes are
    deliberately absent, as are the table's volatile facets: an
    inbound leg whose payload pull is running, and the backoff clock.
    """

    site: str
    taken_at: float
    version: int = GATEWAY_SNAPSHOT_VERSION
    token_seq: int = 1
    records: Dict[str, JobRecord] = field(default_factory=dict)
    counters: Dict[str, float] = field(default_factory=dict)

    @property
    def nbytes(self) -> float:
        """Modeled on-disk size: a fixed header plus a small record
        per job (the spec/checkpoint bulk lives elsewhere)."""
        return 512.0 + 256.0 * len(self.records)
