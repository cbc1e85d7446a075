"""Byzantine-robust credit share-chain: verify, don't trust.

The shared :class:`~repro.federation.ledger.CreditLedger` is
honest-by-construction: every gateway appends whatever settlement it
computed, and nothing stops a misbehaving campus from forging
donations, inflating its bills, or replaying old settlements.  This
module adds the p2pool-style antidote: a **hash-linked chain of signed
entries**, replicated by gossip, that every site *independently
verifies* before folding into its own local view of the books.

Design (all deterministic — no wall clock, no OS randomness):

* **Keys** — :class:`SiteKeyring` derives one HMAC-style signing key
  per site from the deployment seed via
  :func:`~repro.sim.rng.derive_seed` (pure SHA-256).  Every site holds
  the full keyring, modelling a PKI distributed at federation build
  time: anyone can *verify* any signature; only the signer should
  *produce* one (a Byzantine signer abusing its own key is exactly the
  adversary the cross-checks below catch).
* **Entries** — :class:`SignedEntry` wraps one
  :class:`~repro.federation.ledger.CreditEntry` with the signer's
  identity, a per-signer sequence number, the hash of the signer's
  previous entry (the chain link), the entry hash, and the signature.
  Each site authors its *own* chain of the settlements it performed;
  the federation's books are the union of everyone's chains.
* **Verification** — :meth:`ShareChain.ingest` checks, in order:
  payload integrity (the entry hashes to what it claims), the
  signature, transfer structure (non-negative hours, distinct parties,
  donations signed by the donor, relay fees *not* signed by the relay
  that profits), linkage (sequence/previous-hash), replay (one
  settlement per ``(signer, donor, beneficiary, job, kind)``), and
  finally a caller-supplied cross-check against the receiving site's
  own forward/completion records (catches forged or inflated bills
  that are structurally well-formed).  Accepted entries fold into a
  local :class:`CreditLedger` *view*; rejected entries are counted by
  reason and never touch a balance.
* **Quarantine** — :class:`PeerTrust` is the per-site state machine
  driven by verification failures: ``TRUSTED → QUARANTINED`` (on one
  definitive offense, or on repeated circumstantial ones like
  capacity-mismatch declines), ``QUARANTINED → PROBATION`` after the
  sentence elapses (the false-positive heal path), ``PROBATION →
  TRUSTED`` after a clean interval, and ``PROBATION → EVICTED`` on any
  offense while on probation.  :meth:`PeerTrust.reinstate` is the
  operator's re-admission lever for an evicted site.

The whole layer is **opt-in** (``FederatedDeployment.enable_ledger_
verification()``); with it disabled nothing here runs and golden
traces stay bit-identical.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from enum import Enum
from math import inf
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..sim import due_time
from ..sim.rng import derive_seed
from .ledger import CreditEntry, CreditLedger

#: The previous-hash of the first entry in a signer's chain.
GENESIS = "genesis"

#: Entry kinds a chain will carry (mirrors the shared ledger).
ENTRY_KINDS = ("donation", "relay-fee")

#: Rejection reasons that prove misbehavior by themselves: a tampered
#: or mis-signed payload, a malformed transfer, a relay crediting
#: itself, two different entries at one sequence number, a replayed
#: settlement, or a bill the beneficiary's own records refute.
DEFINITIVE_REASONS = frozenset({
    "bad-signature", "bad-structure", "self-credit", "fork", "replay",
    "unknown-job", "overbilled",
})

#: Circumstantial reasons: suspicious but individually explainable
#: (e.g. a capacity race), so they quarantine only past a threshold.
CIRCUMSTANTIAL_REASONS = frozenset({"capacity-mismatch"})

#: Benign ingest outcomes that are *not* offenses: an entry we already
#: hold (gossip re-push after a lost ack), an out-of-sync chain suffix
#: (heals on the next exchange), or an entry signed by a peer we have
#: already quarantined.
BENIGN_REASONS = frozenset({"duplicate", "bad-linkage", "quarantined-signer"})


def _hexdigest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _canonical(entry: CreditEntry) -> str:
    """Deterministic serialization of the transfer payload."""
    return (f"{entry.at!r}|{entry.donor}|{entry.beneficiary}"
            f"|{entry.gpu_hours!r}|{entry.job_id}|{entry.kind}")


def entry_hash(entry: CreditEntry, signer: str, seq: int,
               prev_hash: str) -> str:
    """The chain-link hash: covers the payload *and* its position."""
    return _hexdigest(f"{signer}|{seq}|{prev_hash}|{_canonical(entry)}")


@dataclass(frozen=True)
class SignedEntry:
    """One hash-linked, signed settlement in a site's share-chain."""

    entry: CreditEntry
    signer: str
    seq: int
    prev_hash: str
    entry_hash: str
    signature: str

    @property
    def settlement_key(self) -> Tuple[str, str, str, str, str]:
        """The replay-detection identity of this settlement."""
        e = self.entry
        return (self.signer, e.donor, e.beneficiary, e.job_id, e.kind)


class SiteKeyring:
    """Deterministic per-site signing keys (the simulated PKI).

    Keys are pure SHA-256 derivations from the deployment seed, so
    building a keyring draws no randomness and perturbs nothing.
    """

    def __init__(self, root_seed: int):
        self.root_seed = int(root_seed)
        self._keys: Dict[str, str] = {}

    def register(self, site: str) -> None:
        """Derive (idempotently) the signing key for ``site``."""
        if site not in self._keys:
            self._keys[site] = format(
                derive_seed(self.root_seed, f"sharechain-key:{site}"),
                "016x")

    @property
    def sites(self) -> List[str]:
        return sorted(self._keys)

    def sign(self, site: str, digest: str) -> str:
        """HMAC-style tag: hash of the site's key over ``digest``."""
        key = self._keys.get(site)
        if key is None:
            return ""
        return _hexdigest(f"{key}|{digest}")

    def verify(self, site: str, digest: str, signature: str) -> bool:
        expected = self.sign(site, digest)
        return bool(expected) and expected == signature


class ShareChain:
    """One site's authored chain plus its verified view of everyone's.

    ``view`` is a private :class:`CreditLedger` folding exactly the
    entries this site has verified and accepted — the replicated books
    it would settle against if the shared ground-truth ledger did not
    exist.  ``rejected`` counts every verification failure by reason.
    """

    def __init__(self, site: str, keyring: SiteKeyring):
        self.site = site
        self.keyring = keyring
        self.view = CreditLedger()
        self._chains: Dict[str, List[SignedEntry]] = {}
        self._heads: Dict[str, Tuple[int, str]] = {}
        self._settled: Set[Tuple[str, str, str, str, str]] = set()
        self._job_donated: Dict[str, float] = {}
        self.rejected: Dict[str, int] = {}
        self.rejected_total = 0

    # -- authoring (this site's own chain) ------------------------------

    def _sign_next(self, entry: CreditEntry) -> SignedEntry:
        """Link + sign ``entry`` at the next slot of our own chain."""
        seq, prev = self._heads.get(self.site, (0, GENESIS))
        digest = entry_hash(entry, self.site, seq + 1, prev)
        signed = SignedEntry(
            entry=entry, signer=self.site, seq=seq + 1, prev_hash=prev,
            entry_hash=digest,
            signature=self.keyring.sign(self.site, digest))
        self._chains.setdefault(self.site, []).append(signed)
        self._heads[self.site] = (signed.seq, signed.entry_hash)
        return signed

    def append(self, entry: CreditEntry) -> SignedEntry:
        """Author, sign, and accept one of our own settlements."""
        signed = self._sign_next(entry)
        self._fold(signed)
        return signed

    def forge(self, entry: CreditEntry) -> SignedEntry:
        """Author a well-linked, well-signed entry *without* believing
        it ourselves — the Byzantine fabrication primitive.  The chain
        stays internally consistent (signature and linkage verify), so
        only the receivers' cross-checks can catch the lie."""
        return self._sign_next(entry)

    def reissue(self, index: int = 0) -> Optional[SignedEntry]:
        """Re-sign an already-issued settlement at a fresh sequence
        number — the replay attack.  Linkage and signature verify;
        every receiver's replay check must refuse it."""
        own = self._chains.get(self.site, [])
        if not own or index >= len(own):
            return None
        return self._sign_next(own[index].entry)

    # -- gossip plumbing -------------------------------------------------

    def heads(self) -> Dict[str, int]:
        """Accepted head sequence per signer (the gossip ack)."""
        return {signer: seq for signer, (seq, _) in self._heads.items()}

    def entries_after(self, acked: Dict[str, int]) -> List[SignedEntry]:
        """Every accepted entry the peer (per its acked heads) lacks."""
        # An accepted chain holds seqs 1..n in order, so the entries
        # past seq ``floor`` are the slice from index ``floor``.  The
        # clamp keeps a negative ack from slicing off only the tail.
        delta: List[SignedEntry] = []
        for signer in sorted(self._chains):
            floor = int(acked.get(signer, 0))
            delta.extend(self._chains[signer][max(0, floor):])
        return delta

    def height(self) -> int:
        """Accepted entries across all signer chains (view height)."""
        return sum(len(chain) for chain in self._chains.values())

    def chain(self, signer: str) -> List[SignedEntry]:
        return list(self._chains.get(signer, ()))

    def accepted_entries(self) -> List[SignedEntry]:
        out: List[SignedEntry] = []
        for signer in sorted(self._chains):
            out.extend(self._chains[signer])
        return out

    def donated_for_job(self, job_id: str) -> float:
        """Accepted donation hours billed for ``job_id`` so far."""
        return self._job_donated.get(job_id, 0.0)

    # -- verification ----------------------------------------------------

    def ingest(self, signed: SignedEntry,
               cross_check: Optional[Callable[[SignedEntry],
                                              Optional[str]]] = None,
               ) -> Optional[str]:
        """Verify one gossiped entry; accept it or name the offense.

        Returns ``None`` on acceptance, else a rejection reason (see
        :data:`DEFINITIVE_REASONS` / :data:`BENIGN_REASONS`).  Only
        accepted entries touch the view's balances.
        """
        reason = self._verify(signed, cross_check)
        if reason is None:
            self._accept(signed)
            return None
        if reason != "duplicate":
            self.count_rejection(reason)
        return reason

    def count_rejection(self, reason: str) -> None:
        """Tally one rejection (callers may add reasons of their own,
        e.g. the gateway's ``quarantined-signer`` refusals)."""
        self.rejected[reason] = self.rejected.get(reason, 0) + 1
        self.rejected_total += 1

    def _verify(self, signed: SignedEntry,
                cross_check) -> Optional[str]:
        entry = signed.entry
        # 1. payload integrity: the entry must hash to what it claims
        #    (catches in-transit tampering regardless of chain state).
        expected = entry_hash(entry, signed.signer, signed.seq,
                              signed.prev_hash)
        if expected != signed.entry_hash:
            return "bad-signature"
        # 2. the signature must be the signer's tag over that hash.
        if not self.keyring.verify(signed.signer, signed.entry_hash,
                                   signed.signature):
            return "bad-signature"
        # 3. transfer structure: zero-sum shape and signing rights.
        if entry.kind not in ENTRY_KINDS:
            return "bad-structure"
        if entry.gpu_hours < 0 or entry.donor == entry.beneficiary:
            return "bad-structure"
        if entry.kind == "donation" and signed.signer != entry.donor:
            # Only the host that ran the hours may bill for them.
            return "bad-structure"
        if entry.kind == "relay-fee" and signed.signer == entry.donor:
            # A relay may never credit itself; the settling host
            # vouches for the relay leg.  The free-ride forgery dies
            # here, at every receiver.
            return "self-credit"
        # 4. linkage: the entry must extend the signer's chain.
        head_seq, head_hash = self._heads.get(signed.signer, (0, GENESIS))
        if signed.seq <= head_seq:
            held = self._chains.get(signed.signer, [])
            same = (signed.seq >= 1 and signed.seq <= len(held)
                    and held[signed.seq - 1].entry_hash
                    == signed.entry_hash)
            return "duplicate" if same else "fork"
        if signed.seq != head_seq + 1 or signed.prev_hash != head_hash:
            return "bad-linkage"
        # 5. replay: one settlement per identity, federation-wide.
        if signed.settlement_key in self._settled:
            return "replay"
        # 6. the receiver's own records (forward/completion books).
        if cross_check is not None:
            verdict = cross_check(signed)
            if verdict is not None:
                return verdict
        return None

    def _accept(self, signed: SignedEntry) -> None:
        self._chains.setdefault(signed.signer, []).append(signed)
        self._heads[signed.signer] = (signed.seq, signed.entry_hash)
        self._fold(signed)

    def _fold(self, signed: SignedEntry) -> None:
        entry = signed.entry
        self._settled.add(signed.settlement_key)
        if entry.kind == "donation":
            self.view.record_donation(entry.donor, entry.beneficiary,
                                      entry.gpu_hours, entry.job_id,
                                      entry.at)
            self._job_donated[entry.job_id] = (
                self._job_donated.get(entry.job_id, 0.0)
                + entry.gpu_hours)
        else:
            self.view.record_relay_fee(entry.donor, entry.beneficiary,
                                       entry.gpu_hours, entry.job_id,
                                       entry.at)

    def purge_signer(self, signer: str) -> int:
        """Drop a (now quarantined) signer's chain and rebuild the view
        without it — provisionally accepted lies leave the books."""
        dropped = self._chains.pop(signer, [])
        self._heads.pop(signer, None)
        if not dropped:
            return 0
        survivors = self.accepted_entries()
        self.view = CreditLedger()
        self._settled = set()
        self._job_donated = {}
        self._chains = {}
        self._heads = {}
        for kept in survivors:
            self._chains.setdefault(kept.signer, []).append(kept)
            self._heads[kept.signer] = (kept.seq, kept.entry_hash)
            self._fold(kept)
        return len(dropped)


class TrustState(Enum):
    """Where a peer stands in one site's quarantine state machine."""

    TRUSTED = "trusted"
    QUARANTINED = "quarantined"
    PROBATION = "probation"
    EVICTED = "evicted"


class PeerTrust:
    """Per-site quarantine/eviction driven by verification failures.

    ``TRUSTED`` peers participate fully.  A definitive offense (or
    ``quarantine_strikes`` circumstantial ones) moves a peer to
    ``QUARANTINED``: its digests are dropped, it is excluded from
    forward placement, and entries it signed are refused.  After
    ``quarantine_duration`` sim-seconds it enters ``PROBATION`` — the
    false-positive heal path: a clean ``probation_duration`` restores
    ``TRUSTED`` (strikes forgiven), while any offense on probation is
    terminal ``EVICTED``.  :meth:`reinstate` re-admits an evicted peer
    to probation (the operator's re-join lever).
    """

    def __init__(self, site: str, config):
        self.site = site
        self.config = config
        self._state: Dict[str, TrustState] = {}
        self._since: Dict[str, float] = {}
        self._strikes: Dict[str, List[str]] = {}
        #: First time each peer entered quarantine (detection instant).
        self.detected_at: Dict[str, float] = {}
        #: Full transition log: ``(at, peer, old, new, reason)``.
        self.transitions: List[Tuple[float, str, TrustState, TrustState,
                                     str]] = []

    def state(self, peer: str) -> TrustState:
        return self._state.get(peer, TrustState.TRUSTED)

    def blocks(self, peer: str) -> bool:
        """True when the peer's traffic must be refused outright."""
        return self.state(peer) in (TrustState.QUARANTINED,
                                    TrustState.EVICTED)

    def blocked(self) -> List[str]:
        return sorted(p for p in self._state if self.blocks(p))

    def excluded(self) -> Set[str]:
        """Peers to keep out of forward placement (anything not yet
        fully healed back to ``TRUSTED``)."""
        return {p for p, s in self._state.items()
                if s is not TrustState.TRUSTED}

    def strikes(self, peer: str) -> List[str]:
        return list(self._strikes.get(peer, ()))

    def strike(self, peer: str, reason: str, now: float,
               definitive: bool,
               ) -> Optional[Tuple[TrustState, TrustState]]:
        """Register an offense; returns a state transition if one
        fired, else ``None``."""
        state = self.state(peer)
        if state in (TrustState.EVICTED, TrustState.QUARANTINED):
            return None
        self._strikes.setdefault(peer, []).append(reason)
        if state is TrustState.PROBATION:
            return self._transition(peer, TrustState.EVICTED, now, reason)
        threshold = 1 if definitive else self.config.quarantine_strikes
        if len(self._strikes[peer]) >= threshold:
            self.detected_at.setdefault(peer, now)
            return self._transition(peer, TrustState.QUARANTINED, now,
                                    reason)
        return None

    def tick(self, now: float) -> List[Tuple[str, TrustState, TrustState]]:
        """Advance time-based transitions (sentence served, probation
        completed); returns every transition that fired."""
        fired = []
        for peer in sorted(self._state):
            state = self._state[peer]
            since = self._since[peer]
            if (state is TrustState.QUARANTINED
                    and now - since >= self.config.quarantine_duration):
                fired.append((peer, state, TrustState.PROBATION))
                self._transition(peer, TrustState.PROBATION, now,
                                 "sentence-served")
            elif (state is TrustState.PROBATION
                    and now - since >= self.config.probation_duration):
                self._strikes[peer] = []
                fired.append((peer, state, TrustState.TRUSTED))
                self._transition(peer, TrustState.TRUSTED, now,
                                 "probation-clean")
        return fired

    def next_deadline(self) -> float:
        """When :meth:`tick` next fires a transition (``inf``: never,
        until a strike or a reinstatement)."""
        terms = {TrustState.QUARANTINED: self.config.quarantine_duration,
                 TrustState.PROBATION: self.config.probation_duration}
        return min((due_time(self._since[peer], terms[state])
                    for peer, state in self._state.items()
                    if state in terms), default=inf)

    def reinstate(self, peer: str, now: float) -> bool:
        """Operator re-admission: evicted → probation."""
        if self.state(peer) is not TrustState.EVICTED:
            return False
        self._strikes[peer] = []
        self._transition(peer, TrustState.PROBATION, now,
                         "operator-reinstate")
        return True

    def _transition(self, peer: str, new: TrustState, now: float,
                    reason: str) -> Tuple[TrustState, TrustState]:
        old = self.state(peer)
        self._state[peer] = new
        self._since[peer] = now
        self.transitions.append((now, peer, old, new, reason))
        return (old, new)
