"""Per-campus federation gateway.

One gateway fronts each campus deployment and composes two protocols,
each owning its loop, timer, volatile state, crash and restart:
:class:`~repro.federation.gossip.Gossip` (capacity digests, share-chain
sync, peer trust) and :class:`~repro.federation.forward.ForwardProtocol`
(the two-phase forward handshake, settlement and reconciliation).  The
gateway keeps only what both share: the WAN endpoint, the processes a
crash interrupts, the durable share-chain, trust and adversary state,
and :meth:`FederationGateway.local_digest`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, List, Optional, Set

from ..core.platform import GPUnionPlatform
from ..errors import SnapshotVersionError
from ..network import FlowNetwork, RpcLayer, WanTopology
from ..sim import Event, Process
from .admission import AdmissionController
from .forward import (ForwardProtocol, has_notice, is_cancelling, is_hosting,
                      is_unknown)
from .gossip import Gossip
from .ledger import CreditLedger
from .messages import GATEWAY_SNAPSHOT_VERSION, CapacityDigest, GatewaySnapshot
from .policy import FederationConfig, ForwardingPolicy
from .sharechain import PeerTrust, ShareChain, SiteKeyring

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..observability.trace import Tracer
    from ..storage import StateVault
    from .adversary import ByzantineAdversary


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

        #: Durable-state vault (attached by the deployment when
        #: control-plane failover is enabled; ``None`` keeps every
        #: checkpoint a no-op on the default path).
        self.vault: Optional["StateVault"] = None
        self._crashed = False
        self.restarts = 0
        #: Gateway-owned processes (loops, forwards, notifies) —
        #: interrupted wholesale when the gateway crashes.
        self._procs: Set[Process] = set()

        #: Share-chain verification layer (``None`` = disabled, the
        #: default: the golden path must not change by one event).
        self.sharechain: Optional[ShareChain] = None
        #: Per-peer quarantine state machine (with the share-chain).
        self.trust: Optional[PeerTrust] = None
        #: The lies this site tells (``None`` for an honest gateway):
        #: a :class:`~repro.federation.adversary.ByzantineAdversary`
        #: that only fault injection attaches.
        self.adversary: Optional["ByzantineAdversary"] = None

        #: The two protocols.  Built once: every listener below points
        #: at them, and a crash resets their state, never replaces them.
        self.gossip = gossip = Gossip(self)
        self.forward = forward = ForwardProtocol(self)

        wan.add_site(site)
        wan.add_listener(forward.on_wan_transition)
        ledger.register_site(site)
        ledger.add_listener(gossip.on_ledger_entry)
        platform.coordinator.registry.add_listener(gossip.note_change)
        platform.coordinator.queue.add_listener(gossip.note_change)
        self._bind_endpoint()
        platform.coordinator.on_unplaceable = forward.on_unplaceable
        platform.coordinator.on_cancel_delegated = forward.on_cancel_delegated
        platform.events.subscribe(forward.on_event)
        self._start(None)

    def _bind_endpoint(self) -> None:
        endpoint = self.wan_rpc.bind(self.site)
        gossip, forward = self.gossip, self.forward
        endpoint.register("digest", gossip.handle_digest)
        endpoint.register("forward-offer", forward.handle_offer)
        endpoint.register("forward-commit", forward.handle_commit)
        endpoint.register("forward-release", forward.handle_release)
        endpoint.register("forward-status", forward.handle_status)
        endpoint.register("cancel-job", forward.handle_cancel)
        endpoint.register("job-complete", forward.handle_job_complete)
        endpoint.register("chain-entries", gossip.handle_chain_entries)

    def _start(self, snapshot: Optional[GatewaySnapshot]) -> None:
        """Start both protocols (from ``snapshot`` after a crash), then
        resume the adversary's forging loop, in that order."""
        self.gossip.restart()
        self.forward.restart(snapshot)
        if self.adversary is not None:
            self.adversary.resume()

    def spawn(self, gen: Generator, name: str) -> Process:
        """Start a gateway-owned process, tracked for crash interrupts."""
        proc = self.env.process(gen, name=name)
        self._procs.add(proc)
        if proc.callbacks is not None:
            proc.callbacks.append(
                lambda _ev, p=proc: self._procs.discard(p))
        return proc

    def running(self, proc: Optional[Process]) -> bool:
        """Whether ``proc`` is alive and owned by this incarnation of
        the gateway.  A crash disowns every process at once, but its
        interrupt lands only later, so a same-instant restart sees the
        old process still alive, yet not running."""
        return proc in self._procs and proc.is_alive

    def call(self, dest: str, method: str, payload,
             timeout: Optional[float] = None) -> Event:
        """A control-sized RPC to a peer gateway, under the control
        timeout unless ``timeout`` is given."""
        return self.wan_rpc.call(
            self.site, dest, method, payload,
            request_size=self.config.control_message_bytes,
            response_size=self.config.control_message_bytes,
            timeout=(self.config.control_rpc_timeout if timeout is None
                     else timeout))

    @property
    def tracer(self) -> Optional["Tracer"]:
        """The shared federation tracer (``None`` when tracing is off),
        read from the coordinator on every use."""
        return self.platform.coordinator.tracer

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
        reserved = self.forward.reserved()
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

    # -- crash / restart --------------------------------------------------

    @property
    def is_crashed(self) -> bool:
        """Whether the gateway process is currently down."""
        return self._crashed

    def attach_vault(self, vault: "StateVault") -> None:
        """Enable durable snapshots (and write the first one)."""
        self.vault = vault
        self.forward.checkpoint()

    def crash(self) -> None:
        """Kill the gateway process: the WAN endpoint unbinds, every
        flow terminating here fails, every gateway-owned process is
        interrupted, and both protocols drop their volatile state."""
        if self._crashed:
            return
        self._crashed = True
        self.wan_rpc.unbind(self.site)
        self.fabric.kill_host_flows(self.site, reason="gateway crashed")
        procs, self._procs = self._procs, set()
        for proc in procs:
            if proc.is_alive:
                proc.interrupt("gateway-crash")
        self.gossip.crash()
        self.forward.crash()
        self.platform.events.emit("gateway-crashed", site=self.site)

    def restart(self) -> None:
        """Bring the gateway back: recover the vault, replay the table.
        Raises :class:`~repro.errors.SnapshotVersionError` (and stays
        down) on an incompatible snapshot layout: the operator discards
        it and restarts cold rather than let misread state break
        exactly-once."""
        if not self._crashed:
            return
        snap = self.vault.load("gateway") if self.vault is not None else None
        if snap is not None and snap.version != GATEWAY_SNAPSHOT_VERSION:
            raise SnapshotVersionError(
                f"gateway {self.site}: snapshot version {snap.version} "
                f"(expected {GATEWAY_SNAPSHOT_VERSION})")
        self._crashed = False
        self.restarts += 1
        self._bind_endpoint()
        self._start(snap)
        self.platform.events.emit("gateway-restarted", site=self.site,
                                  restarts=self.restarts)
        self.forward.recover()

    # -- introspection ----------------------------------------------------

    def loop_faults(self) -> List[str]:
        """Why the gossip or reconcile loop is not running exactly once:
        one line per broken loop, empty while the gateway is down."""
        if self._crashed:
            return []
        faults = []
        for loop in (self.gossip.loop, self.forward.loop):
            if not loop.is_alive:
                cause = repr(loop.value) if not loop.ok else "returned"
                faults.append(f"loop {loop.name} is dead: {cause}")
                continue
            copies = sum(1 for proc in self._procs
                         if proc.name == loop.name and proc.is_alive)
            if copies != 1:
                faults.append(f"loop {loop.name} runs {copies} times")
        return faults

    def _count(self, keep) -> int:
        return sum(1 for record in self.forward.records.values()
                   if keep(record))

    @property
    def hosted_foreign_count(self) -> int:
        """Foreign jobs currently hosted (not yet completed)."""
        return self._count(is_hosting)

    @property
    def unresolved_delegations(self) -> int:
        """Delegations parked as unknown outcome (partition pending)."""
        return self._count(is_unknown)

    @property
    def pending_cancel_count(self) -> int:
        """Cancellations awaiting cross-WAN delivery."""
        return self._count(is_cancelling)

    @property
    def unacked_completion_count(self) -> int:
        """Completion notices the origin has not acknowledged yet."""
        return self._count(has_notice)
