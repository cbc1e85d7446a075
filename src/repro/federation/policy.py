"""Forwarding decisions: where (if anywhere) to send unplaceable work.

A forward is worthwhile only when the destination has real spare
capacity *and* the WAN route to it is not already a hotspot.  The
policy scores each fresh peer digest with three terms:

* **capacity** — advertised fully-idle GPUs (more is better);
* **hotspot penalty** — active flows currently sharing any link of
  the origin→peer route (the route-hotspot signal: a congested path
  delays checkpoint/dataset replication and, transitively, the job);
* **credit fairness** — the peer's ledger balance.  Net donors are
  spared further foreign work; sites in credit-debt are preferred so
  they repay in GPU-hours.

Peers whose digest is stale, shows no free GPU, cannot fit the job's
memory floor, or is itself saturated are never candidates.  Ties break
by site name, so decisions are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Dict, Optional

from ..core.messages import ResourceRequest
from ..errors import NetworkError
from ..network import FlowNetwork, WanTopology
from ..units import KIB
from .ledger import CreditLedger
from .messages import CapacityDigest


@dataclass
class FederationConfig:
    """Tunables for one federation deployment."""

    #: Seconds between capacity-digest gossip rounds.
    gossip_interval: float = 60.0
    #: Digests older than this are ignored by the forwarding policy.
    #: Gossip re-sends an unchanged digest every ``max(gossip_interval,
    #: digest_staleness - gossip_interval)`` seconds, so a reachable
    #: neighbour's copy never goes stale.
    digest_staleness: float = 300.0
    #: A site declines foreign work when its own queue pressure
    #: (queued + parked requests) exceeds this.
    accept_pressure_limit: int = 1
    #: Maximum times a request may cross the WAN.  Values above 1
    #: enable *relaying*: a site hosting a foreign job it cannot place
    #: re-forwards it to one of its own neighbours (never back along
    #: the relay path).
    max_forward_hops: int = 2
    #: Fraction of the donated GPU-hours the origin pays each
    #: intermediate relay site on a multi-hop forward.
    relay_fee_fraction: float = 0.05
    #: Seconds to wait before re-offering a job whose forward was
    #: declined or failed.
    forward_retry_backoff: float = 120.0
    #: Whether this site hosts foreign jobs at all.  Opted-out sites
    #: advertise zero spare capacity and decline every offer, but may
    #: still forward their own surplus out.
    host_foreign_jobs: bool = True
    #: Seconds of *predicted home demand* the admission controller
    #: reserves before accepting foreign work: expected home arrivals
    #: within this horizon hold back one GPU each.  0 disables the
    #: reservation (accept on raw spare capacity, the PR-1 behaviour).
    admission_headroom_horizon: float = 0.0
    #: EWMA smoothing factor for the admission controller's arrival
    #: and service-time estimates (1.0 = only the latest sample).
    admission_ewma_alpha: float = 0.3
    #: When set, gossip turns adaptive: a change to spare capacity or
    #: queue pressure, or a credit-balance drift of
    #: ``gossip_balance_drift``, goes out on the next tick of this
    #: finer grid instead of the next ``gossip_interval`` — cutting
    #: the staleness window that makes peers forward into a wall.  A
    #: quiet gateway still wakes only at its refresh deadlines.
    #: ``None`` keeps the ``gossip_interval`` grid.
    gossip_interval_min: Optional[float] = None
    #: GPU-hour balance drift that triggers an early adaptive gossip.
    gossip_balance_drift: float = 1.0
    #: Score penalty per active flow sharing the origin→peer route.
    hotspot_penalty: float = 1.0
    #: Score weight on the peer's credit balance (GPU-hours).
    fairness_weight: float = 0.02
    #: On-the-wire size of federation control messages (digests,
    #: forward offers, completion notices).
    control_message_bytes: float = 4 * KIB
    #: Deadline for small control RPCs (offers, status probes, cancels,
    #: completion notices).  A timed-out call means *unknown outcome*,
    #: never "declined".
    control_rpc_timeout: float = 60.0
    #: Deadline for the commit leg of a forward, which includes the
    #: bulk payload pull — generous, because a congested WAN can
    #: legitimately stretch a multi-GiB replication.
    commit_rpc_timeout: float = 2 * 3600.0
    #: How long a host holds the capacity lease granted with a claim
    #: token before an unclaimed offer expires.
    offer_lease_timeout: float = 600.0
    #: Cadence of the reconciliation pass (unknown-outcome probes,
    #: pending cancels, unacked completion notices) while any of that
    #: work is left.  A WAN heal kicks the pass immediately; without
    #: work the pass does not run at all.
    reconcile_interval: float = 120.0
    #: Circumstantial strikes (e.g. capacity-mismatch declines) a peer
    #: accrues before share-chain verification quarantines it.  A
    #: definitive offense (tampered entry, forged bill, replay, fork)
    #: quarantines on the first strike regardless.
    quarantine_strikes: int = 3
    #: Sim-seconds a quarantined peer is isolated before it enters
    #: probation (the false-positive heal path).
    quarantine_duration: float = 2 * 3600.0
    #: Clean sim-seconds on probation before full trust is restored
    #: (strikes forgiven).  Any offense on probation evicts instead.
    probation_duration: float = 3600.0

    def __post_init__(self):
        if self.gossip_interval <= 0:
            raise ValueError("gossip_interval must be positive")
        if self.digest_staleness < self.gossip_interval:
            raise ValueError("digest_staleness must cover >= one gossip round")
        if self.max_forward_hops < 1:
            raise ValueError("max_forward_hops must be >= 1")
        if not 0.0 <= self.relay_fee_fraction < 1.0:
            raise ValueError(
                "relay_fee_fraction must be in [0, 1): the relays' cut "
                "cannot consume (or exceed) the donation itself")
        if self.admission_headroom_horizon < 0:
            raise ValueError("admission_headroom_horizon must be >= 0")
        if not 0.0 < self.admission_ewma_alpha <= 1.0:
            raise ValueError("admission_ewma_alpha must be in (0, 1]")
        if self.gossip_interval_min is not None:
            if self.gossip_interval_min <= 0:
                raise ValueError("gossip_interval_min must be positive")
            if self.gossip_interval_min > self.gossip_interval:
                raise ValueError(
                    "gossip_interval_min must not exceed gossip_interval")
        if self.gossip_balance_drift <= 0:
            raise ValueError("gossip_balance_drift must be positive")
        if self.control_rpc_timeout <= 0 or self.commit_rpc_timeout <= 0:
            raise ValueError("RPC timeouts must be positive")
        if self.offer_lease_timeout <= self.control_rpc_timeout:
            raise ValueError(
                "offer_lease_timeout must outlive the offer round trip")
        if self.reconcile_interval <= 0:
            raise ValueError("reconcile_interval must be positive")
        if self.quarantine_strikes < 1:
            raise ValueError("quarantine_strikes must be >= 1")
        if self.quarantine_duration <= 0 or self.probation_duration <= 0:
            raise ValueError(
                "quarantine_duration and probation_duration must be "
                "positive")


class ForwardingPolicy:
    """Scores peer digests and picks a forwarding destination."""

    def __init__(self, config: FederationConfig):
        self.config = config

    def admissible(self, digest: CapacityDigest, memory: float,
                   capability) -> bool:
        """Capacity filters shared by origin eligibility and host
        admission: an unsaturated site with an idle card satisfying
        both the memory and the capability floor."""
        if digest.queue_pressure > self.config.accept_pressure_limit:
            return False
        if digest.free_gpus < 1:
            return False
        return digest.fits(memory, capability)

    def eligible(self, digest: CapacityDigest, request: ResourceRequest,
                 now: float) -> bool:
        """Hard filters a peer must pass before scoring."""
        if not digest.is_fresh(now, self.config.digest_staleness):
            return False
        return self.admissible(digest, request.gpu_memory_needed,
                               request.min_capability)

    def score(self, origin: str, digest: CapacityDigest,
              wan: WanTopology, fabric: FlowNetwork,
              ledger: CreditLedger) -> float:
        """Desirability of forwarding from ``origin`` to this peer."""
        load = wan.path_load(origin, digest.site, fabric)
        return (
            digest.free_gpus
            - self.config.hotspot_penalty * load
            - self.config.fairness_weight * ledger.balance(digest.site)
        )

    def choose(
        self,
        origin: str,
        request: ResourceRequest,
        digests: Dict[str, CapacityDigest],
        wan: WanTopology,
        fabric: FlowNetwork,
        ledger: CreditLedger,
        now: float,
        exclude: Collection[str] = (),
    ) -> Optional[str]:
        """The best destination site, or ``None`` to keep the job local.

        ``exclude`` removes sites from consideration — relaying passes
        the job's relay path here, so a multi-hop forward never
        revisits a site it already passed through (the loop guard).
        """
        best_site: Optional[str] = None
        best_score = float("-inf")
        for site in sorted(digests):
            if site == origin or site in exclude:
                continue
            digest = digests[site]
            if not self.eligible(digest, request, now):
                continue
            try:
                score = self.score(origin, digest, wan, fabric, ledger)
            except NetworkError:
                continue  # no WAN route to this peer
            if score > best_score:
                best_score = score
                best_site = site
        return best_site
