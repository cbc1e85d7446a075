"""Multi-campus federation: WAN peering, cross-site dispatch, credits.

A federation peers several single-campus GPUnion deployments over a
simulated WAN.  Each campus keeps its own coordinator, LAN, and
provider fleet; a :class:`FederationGateway` per campus advertises
aggregate free capacity via gossip digests, forwards unplaceable
training requests to peer sites (hotspot-aware: congested WAN routes
are penalised), replicates checkpoints across sites so displaced jobs
can restore at a *different* campus, and settles GPU-hour credits in a
p2pool-style :class:`CreditLedger`.  Link outages, control-plane
crashes and Byzantine sites are all windows of one
:class:`FaultSchedule`.

Everything runs on one shared :class:`~repro.sim.Environment`, so a
seeded federated run is exactly reproducible.
"""

from .admission import AdmissionController
from .adversary import BYZANTINE_MODES, ByzantineAdversary
from .deployment import FederatedDeployment, SiteHandle
from .faults import FaultDriver, FaultSchedule, FaultWindow
from .gateway import FederationGateway
from .ledger import CreditEntry, CreditLedger
from .messages import (
    GATEWAY_SNAPSHOT_VERSION,
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
    PeerTrust,
    ShareChain,
    SignedEntry,
    SiteKeyring,
    TrustState,
)

__all__ = [
    "AdmissionController",
    "BYZANTINE_MODES",
    "ByzantineAdversary",
    "CapacityDigest",
    "CreditEntry",
    "CreditLedger",
    "DelegationState",
    "FaultDriver",
    "FaultSchedule",
    "FaultWindow",
    "FederatedDeployment",
    "FederationConfig",
    "FederationGateway",
    "ForwardEnvelope",
    "ForwardOffer",
    "ForwardRecord",
    "ForwardingPolicy",
    "GATEWAY_SNAPSHOT_VERSION",
    "GatewaySnapshot",
    "HostRecord",
    "HostingState",
    "JobRecord",
    "PeerTrust",
    "ShareChain",
    "SignedEntry",
    "SiteHandle",
    "SiteKeyring",
    "TrustState",
]
