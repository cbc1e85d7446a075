"""The Byzantine adversary: every lie a federation gateway can tell.

An honest :class:`~repro.federation.gateway.FederationGateway` carries
no misbehavior of its own.  Fault injection attaches a
:class:`ByzantineAdversary` to a gateway when a Byzantine window opens
(see :mod:`repro.federation.faults`).  The gateway's gossip consults
it at three seams only: the capacity digest it advertises, the chain
delta it gossips, and the chain copy of a settlement it records; the
gateway resumes its forging loop after a crash.  Local admission never
asks the adversary, so a lying site still accepts only work it can run.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Generator, List, Optional, Set

from ..sim import Interrupt, Process
from ..units import GIB
from .ledger import CreditEntry
from .messages import CapacityDigest
from .sharechain import SignedEntry

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from .gateway import FederationGateway

#: Misbehavior modes a Byzantine federation gateway can run:
#:
#: * ``over-report`` — gossip digests advertise phantom idle GPUs, so
#:   peers forward into a wall of reason-less declines;
#: * ``over-bill`` — real hosted jobs settle honestly in the shared
#:   ledger but the signed *chain entry* bills inflated hours;
#: * ``under-bill`` — entries authored by others that charge this site
#:   are tampered (hours shrunk) when re-gossiped, without re-signing;
#: * ``forge`` — donation entries are fabricated for jobs never hosted;
#: * ``replay`` — an already-settled entry is re-signed at a new
#:   sequence number;
#: * ``free-ride`` — relay-fee entries crediting this site are forged
#:   for relay work never performed.
BYZANTINE_MODES = ("over-report", "over-bill", "under-bill", "forge",
                   "replay", "free-ride")

#: Modes that fabricate chain entries on a timer.  They self-propagate
#: over chain gossip regardless of demand (a forged entry reaches every
#: neighbour within a round), so their detection latency is bounded.
CHAIN_VISIBLE_MODES = frozenset({"forge", "replay", "free-ride"})

#: Phantom capacity an ``over-report`` digest adds: enough idle GPUs
#: (of an impossibly generous card class) to outscore any honest peer.
OVER_REPORT_PHANTOM_GPUS = 8
OVER_REPORT_PHANTOM_CARD = (128 * GIB, (9, 9))

#: Factor an ``over-bill`` host inflates its chain-entry hours by.
OVER_BILL_FACTOR = 4.0
#: Factor an ``under-bill`` tamperer shrinks its own charges to.
UNDER_BILL_FACTOR = 0.25
#: GPU-hours per fabricated ``forge`` / ``free-ride`` entry.
FORGED_ENTRY_HOURS = 5.0


class ByzantineAdversary:
    """The misbehavior modes one gateway currently runs.

    Constructing it attaches it to ``gateway``; the modes it holds are
    operator state, so they survive a gateway crash and the forging
    loop resumes when the gateway restarts.
    """

    def __init__(self, gateway: "FederationGateway"):
        self.gateway = gateway
        self.modes: Set[str] = set()
        self._proc: Optional[Process] = None
        self._seq = 0
        gateway.adversary = self
        gateway.gossip.note_change()  # gossip ticks every tick from now on

    def set(self, mode: str) -> None:
        """Begin one misbehavior mode."""
        gateway = self.gateway
        self.modes.add(mode)
        gateway.platform.events.emit("byzantine-mode-set", site=gateway.site,
                                     mode=mode)
        self.resume()

    def clear(self, mode: str) -> None:
        """End one misbehavior mode (the forging loop notices and exits)."""
        self.modes.discard(mode)
        self.gateway.platform.events.emit("byzantine-mode-cleared",
                                          site=self.gateway.site, mode=mode)

    # -- the gateway's seams ----------------------------------------------

    def advertise(self, digest: CapacityDigest) -> CapacityDigest:
        """The digest to gossip in place of the honest one.

        ``over-report`` adds phantom idle GPUs of a dream card class
        and a rosy queue.  Local admission stays honest (accepting work
        it cannot run would break exactly-once), so acting peers hit
        reason-less declines — the capacity-mismatch signature.
        """
        if "over-report" not in self.modes:
            return digest
        return replace(
            digest, queue_pressure=0,
            free_gpus=digest.free_gpus + OVER_REPORT_PHANTOM_GPUS,
            free_cards=digest.free_cards + (OVER_REPORT_PHANTOM_CARD,),
        )

    def chain_delta(self, delta: List[SignedEntry]) -> List[SignedEntry]:
        """The chain entries to gossip in place of the honest delta.

        ``under-bill`` re-gossips the tampered delta plus rewritten
        copies of every charge against this site the peer already
        holds: peers already acked the genuine entries, so the normal
        delta would never carry the lie.
        """
        if "under-bill" not in self.modes:
            return delta
        site = self.gateway.site
        delta = [self._tamper_charge(signed) for signed in delta]
        sent = {(signed.signer, signed.seq) for signed in delta}
        for signed in self.gateway.sharechain.accepted_entries():
            if (signed.signer != site and signed.entry.beneficiary == site
                    and (signed.signer, signed.seq) not in sent):
                delta.append(self._tamper_charge(signed))
        return delta

    def _tamper_charge(self, signed: SignedEntry) -> SignedEntry:
        """Shrink another site's charge against us.  We cannot re-sign
        what we did not author, so the payload hash goes stale — the
        receiving verifier's integrity check catches it."""
        entry = signed.entry
        site = self.gateway.site
        if signed.signer == site or entry.beneficiary != site:
            return signed
        return replace(signed, entry=replace(
            entry, gpu_hours=entry.gpu_hours * UNDER_BILL_FACTOR))

    def record(self, entry: CreditEntry) -> bool:
        """Write a lying chain copy of a settlement; ``True`` if done.

        ``over-bill`` is exactly a divergence here: the shared ledger
        keeps the true hours while the chain copy bills inflated ones —
        the beneficiary's cross-check refutes the chain copy against
        its own job budget.
        """
        if ("over-bill" not in self.modes or entry.kind != "donation"
                or entry.donor != self.gateway.site):
            return False
        self.gateway.sharechain.forge(replace(
            entry, gpu_hours=entry.gpu_hours * OVER_BILL_FACTOR))
        return True

    def resume(self) -> None:
        """Start the forging loop if a forging mode is active and the
        gateway is up with a chain to forge into.

        A loop the gateway no longer tracks is as good as finished: a
        crash drops it at once, but its interrupt lands only later, so
        a restart at the same instant must start a new one.
        """
        gateway = self.gateway
        if (gateway.sharechain is not None and not gateway.is_crashed
                and not gateway.running(self._proc)
                and self.modes & CHAIN_VISIBLE_MODES):
            self._proc = gateway.spawn(self._forge_loop(),
                                       f"byzantine:{gateway.site}")

    def _forge_loop(self) -> Generator:
        """Fabricate chain entries while a forging mode is active.

        Victims rotate round-robin over the sorted peer list so every
        honest site eventually holds a lie its own records refute —
        detection never depends on topology or traffic patterns.
        """
        gateway = self.gateway
        config = gateway.config
        tick = config.gossip_interval_min or config.gossip_interval
        while True:
            try:
                yield gateway.env.timeout(tick)
            except Interrupt:
                return  # gateway crashed; resumed at restart
            active = self.modes & CHAIN_VISIBLE_MODES
            if not active:
                return  # every forging window closed
            peers = sorted(gateway.gossip.peers)
            chain = gateway.sharechain
            if not peers or chain is None:
                continue
            site = gateway.site
            victim = peers[self._seq % len(peers)]
            self._seq += 1
            now = gateway.env.now
            if "forge" in active:
                # A donation for a job the victim never delegated.
                chain.forge(CreditEntry(
                    at=now, donor=site, beneficiary=victim,
                    gpu_hours=FORGED_ENTRY_HOURS,
                    job_id=f"byz-forge-{site}-{self._seq}",
                    kind="donation"))
            if "free-ride" in active:
                # A self-credited relay fee for a hop never carried —
                # structurally invalid, rejected by every verifier.
                chain.forge(CreditEntry(
                    at=now, donor=site, beneficiary=victim,
                    gpu_hours=(FORGED_ENTRY_HOURS
                               * config.relay_fee_fraction),
                    job_id=f"byz-fee-{site}-{self._seq}",
                    kind="relay-fee"))
            if "replay" in active:
                # Re-sign the oldest own entry at a fresh sequence
                # number; with an empty chain, seed one to replay.
                if chain.reissue(0) is None:
                    chain.forge(CreditEntry(
                        at=now, donor=site, beneficiary=victim,
                        gpu_hours=FORGED_ENTRY_HOURS,
                        job_id=f"byz-replay-{site}",
                        kind="donation"))
