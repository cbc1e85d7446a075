"""Cross-site GPU-hour credit ledger.

Modelled on p2pool's share ledger: every contribution is an immutable
entry attributing work to the peer that performed it.  Balances are a
running fold over the entry log, maintained per append so the hot
readers (the forwarding policy's fairness term, adaptive gossip's
drift check — both on fast timers) stay O(1), and always re-derivable
from the log — the property tests audit the counter against the full
``donated − consumed`` fold.  A site *earns* credits for GPU-hours
its providers donate to foreign jobs and *spends* credits when its own
jobs run elsewhere, so by construction the balances across all sites
sum to zero (conservation — the property the tests pin down).

Two entry kinds exist, both plain transfers:

* ``donation`` — the hosting site ran GPU-hours for the origin's job
  (recorded at completion, or at cancellation for the partial hours
  actually executed);
* ``relay-fee`` — an intermediate site carried the job one WAN hop on
  a multi-hop forward; the origin pays it a small fraction of the
  donated hours for the relay service.

Every entry moves credit from ``beneficiary`` to ``donor``, so the
zero-sum conservation property holds under *any* interleaving of
donations, relay fees, and partial-hour cancel settlements.

The balance feeds the forwarding policy's fairness term: sites deep in
credit-debt are preferred hosts for new foreign work (they "repay" in
GPU-hours), and heavy net donors are spared, which keeps donation
burden spread across the federation instead of concentrating on
whichever campus happens to advertise capacity first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List


@dataclass(frozen=True)
class CreditEntry:
    """One settled transfer: ``donor`` earned ``gpu_hours`` from
    ``beneficiary`` (by hosting its job, or by relaying it)."""

    at: float
    donor: str
    beneficiary: str
    gpu_hours: float
    job_id: str
    kind: str = "donation"


class CreditLedger:
    """Append-only GPU-hour accounting across federation sites."""

    def __init__(self):
        self._entries: List[CreditEntry] = []
        self._sites: List[str] = []
        self._balances: Dict[str, float] = {}
        self._donated: Dict[str, float] = {}
        self._consumed: Dict[str, float] = {}
        self._relay_fees: Dict[str, float] = {}
        self._listeners: List[Callable[[CreditEntry], None]] = []

    def add_listener(self, callback: Callable[[CreditEntry], None]) -> None:
        """Register ``callback(entry)``, called after every entry is
        recorded: how a gateway's gossip learns its balance moved."""
        self._listeners.append(callback)

    def register_site(self, site: str) -> None:
        """Make a site show up in balance reports (idempotent)."""
        if site not in self._sites:
            self._sites.append(site)
            self._balances.setdefault(site, 0.0)
            self._donated.setdefault(site, 0.0)
            self._consumed.setdefault(site, 0.0)
            self._relay_fees.setdefault(site, 0.0)

    @property
    def sites(self) -> List[str]:
        """Registered sites, in registration order."""
        return list(self._sites)

    @property
    def entries(self) -> List[CreditEntry]:
        """Every settled entry, in order."""
        return list(self._entries)

    def _record(self, donor: str, beneficiary: str, gpu_hours: float,
                job_id: str, at: float, kind: str) -> CreditEntry:
        if gpu_hours < 0:
            raise ValueError(f"negative {kind}: {gpu_hours}")
        if donor == beneficiary:
            raise ValueError(f"site {donor!r} cannot donate to itself")
        self.register_site(donor)
        self.register_site(beneficiary)
        entry = CreditEntry(at=at, donor=donor, beneficiary=beneficiary,
                            gpu_hours=gpu_hours, job_id=job_id, kind=kind)
        self._entries.append(entry)
        self._balances[donor] += gpu_hours
        self._balances[beneficiary] -= gpu_hours
        self._donated[donor] += gpu_hours
        self._consumed[beneficiary] += gpu_hours
        if kind == "relay-fee":
            self._relay_fees[donor] += gpu_hours
        for listener in self._listeners:
            listener(entry)
        return entry

    def record_donation(
        self,
        donor: str,
        beneficiary: str,
        gpu_hours: float,
        job_id: str,
        at: float,
    ) -> CreditEntry:
        """Settle ``gpu_hours`` of work ``donor`` ran for ``beneficiary``."""
        return self._record(donor, beneficiary, gpu_hours, job_id, at,
                            kind="donation")

    def record_relay_fee(
        self,
        relay: str,
        beneficiary: str,
        gpu_hours: float,
        job_id: str,
        at: float,
    ) -> CreditEntry:
        """Credit ``relay`` for carrying ``beneficiary``'s job one hop.

        The fee is charged to the *origin* (who benefited from the
        extended placement reach), so the transfer nets to zero like
        every other entry.
        """
        return self._record(relay, beneficiary, gpu_hours, job_id, at,
                            kind="relay-fee")

    def donated(self, site: str) -> float:
        """GPU-hours of credit ``site`` earned (hosting + relaying).

        O(1) — a running sum updated in :meth:`_record`, equal to the
        ``sum(e.gpu_hours for e in entries if e.donor == site)`` fold
        by the same induction argument as :meth:`balance`.
        """
        return self._donated.get(site, 0.0)

    def consumed(self, site: str) -> float:
        """GPU-hours of credit ``site`` paid out for its own jobs.

        O(1) — running sum; see :meth:`donated`.
        """
        return self._consumed.get(site, 0.0)

    def relay_fees_earned(self, site: str) -> float:
        """Credit ``site`` earned purely for relaying foreign jobs.

        O(1) — running sum; see :meth:`donated`.
        """
        return self._relay_fees.get(site, 0.0)

    def entries_of_kind(self, kind: str) -> List[CreditEntry]:
        """Every entry of one kind (``donation`` / ``relay-fee``)."""
        return [e for e in self._entries if e.kind == kind]

    def balance(self, site: str) -> float:
        """Net credit: donated minus consumed (positive = net donor).

        O(1) — the running fold, equal to the
        ``donated(site) - consumed(site)`` re-derivation by induction
        over :meth:`_record` (the property tests audit this).
        """
        return self._balances.get(site, 0.0)

    def balances(self) -> Dict[str, float]:
        """Every registered site's balance."""
        return {site: self.balance(site) for site in self._sites}

    def total(self) -> float:
        """Sum of all balances — zero by construction (conservation)."""
        return sum(self.balances().values())
