"""Multi-campus federation experiments, run as checked-in scenarios.

The paper's deployment is one campus; the north-star is many campuses
pooling donated GPUs over a WAN.  Four experiments quantify what
federation buys and what it survives.  Each runs a checked-in
:class:`~repro.scenarios.ScenarioSpec` (package data under
``scenarios/``) and a variant of it that differs in one field, both
through :func:`~repro.scenarios.compile_scenario`, over identical
demand (the demand streams derive from the scenario name and the site
name only):

* ``federation-mesh``: three fully meshed campuses with deliberately
  imbalanced demand.  A workstation-heavy campus drowns in requests, a
  GPU-farm campus mostly idles, a third sits in between.
  :func:`run_federation` compares each campus run alone with the
  federation, :func:`run_partition_experiment` a stable WAN with a
  flapping one, and :func:`run_byzantine_experiment` an all-honest
  verified ledger with one forging campus.
* ``federation-line``: three campuses on a line, the middle one's
  workstations reclaimed by their owners for hours at a time.
  :func:`run_relay_experiment` compares 1-hop forwarding with 2-hop
  relaying.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from importlib import resources
from typing import Dict, List, Tuple

from ..federation import FaultSchedule, FederatedDeployment
from ..scenarios import (AdversarySpec, OutageSpec, ScenarioSpec,
                         compile_scenario)
from ..units import DAY, HOUR, MINUTE


def load_scenario(name: str) -> ScenarioSpec:
    """A checked-in scenario: ``"federation-mesh"``,
    ``"federation-line"`` or ``"paper-campus"``."""
    path = resources.files(__package__) / "scenarios" / f"{name}.json"
    return ScenarioSpec.from_json(path.read_text())


def _spec(name: str, days: float) -> ScenarioSpec:
    return replace(load_scenario(name), duration_hours=days * DAY / HOUR)


def _run(spec: ScenarioSpec, seed: int) -> FederatedDeployment:
    return compile_scenario(spec, seed=seed).run().deployment


def _pair(spec: ScenarioSpec, seed: int, **change
          ) -> Tuple[FederatedDeployment, FederatedDeployment]:
    """Run ``spec`` and its variant with ``change`` applied."""
    return _run(spec, seed), _run(replace(spec, **change), seed)


def _completed_once(fed: FederatedDeployment) -> int:
    """Jobs that completed at exactly one campus, federation-wide."""
    return sum(1 for count in fed.completion_counts().values()
               if count == 1)


def _event_total(fed: FederatedDeployment, kind: str) -> int:
    return sum(handle.platform.events.count(kind)
               for handle in fed.sites.values())


@dataclass
class FederationResult:
    """Isolated vs federated over identical demand."""

    days: float
    isolated_by_site: Dict[str, float]
    federated_by_site: Dict[str, float]
    isolated_overall: float
    federated_overall: float
    isolated_completed: int
    federated_completed: int
    forwarded_jobs: int
    wan_bytes: float
    wan_transfer_seconds: float
    wan_links: List[dict]
    credit_balances: Dict[str, float]

    @property
    def improvement_points(self) -> float:
        """Aggregate utilization gain in percentage points."""
        return (self.federated_overall - self.isolated_overall) * 100.0

    def rows(self) -> List[List[str]]:
        """The experiment as table rows (header first)."""
        rows = [["Campus", "Isolated", "Federated", "Credit (GPU-h)"]]
        for site in self.isolated_by_site:
            rows.append([
                site,
                f"{self.isolated_by_site[site] * 100:.1f}%",
                f"{self.federated_by_site.get(site, 0.0) * 100:.1f}%",
                f"{self.credit_balances.get(site, 0.0):+.1f}",
            ])
        rows.append([
            "ALL CAMPUSES",
            f"{self.isolated_overall * 100:.1f}%",
            f"{self.federated_overall * 100:.1f}%",
            f"{sum(self.credit_balances.values()):+.1f}",
        ])
        return rows


def run_federation(seed: int = 42, days: float = 2.0) -> FederationResult:
    """Each mesh campus alone (a one-site deployment) vs the mesh."""
    horizon = days * DAY
    spec = _spec("federation-mesh", days)
    isolated_by_site: Dict[str, float] = {}
    isolated_completed = 0
    for site in spec.sites:
        alone = _run(replace(spec, sites=(site,), links=()), seed)
        isolated_by_site[site.name] = alone.aggregate_utilization(0, horizon)
        isolated_completed += _completed_once(alone)
    isolated_overall = sum(site.gpu_count * isolated_by_site[site.name]
                           for site in spec.sites) / spec.total_gpus
    fed = _run(spec, seed)
    return FederationResult(
        days=days,
        isolated_by_site=isolated_by_site,
        federated_by_site=fed.site_utilization(0, horizon),
        isolated_overall=isolated_overall,
        federated_overall=fed.aggregate_utilization(0, horizon),
        isolated_completed=isolated_completed,
        federated_completed=_completed_once(fed),
        forwarded_jobs=fed.total_forwarded(),
        wan_bytes=fed.wan_bytes(),
        wan_transfer_seconds=fed.total_wan_transfer_seconds(),
        wan_links=fed.wan_link_report(horizon),
        credit_balances=fed.credit_balances(),
    )


# -- multi-hop relay forwarding --------------------------------------------


@dataclass
class RelayResult:
    """1-hop-only forwarding vs 2-hop relaying over identical demand."""

    days: float
    baseline_by_site: Dict[str, float]
    relay_by_site: Dict[str, float]
    baseline_overall: float
    relay_overall: float
    baseline_completed: int
    relay_completed: int
    baseline_forwarded: int
    relay_forwarded: int
    #: Forwards that were relay hops (a site re-forwarding a foreign
    #: job) in the multi-hop run — 0 by construction in the baseline.
    relayed_jobs: int
    #: GPU-hour relay fees per site in the multi-hop run.
    relay_fees: Dict[str, float]
    credit_balances: Dict[str, float]
    wan_bytes: float

    @property
    def improvement_points(self) -> float:
        """Aggregate utilization recovered by relaying, in points."""
        return (self.relay_overall - self.baseline_overall) * 100.0

    def rows(self) -> List[List[str]]:
        """The experiment as table rows (header first)."""
        rows = [["Campus", "1-hop only", "2-hop relay", "Relay fees (GPU-h)"]]
        for site in self.baseline_by_site:
            rows.append([
                site,
                f"{self.baseline_by_site[site] * 100:.1f}%",
                f"{self.relay_by_site.get(site, 0.0) * 100:.1f}%",
                f"{self.relay_fees.get(site, 0.0):+.2f}",
            ])
        rows.append([
            "ALL CAMPUSES",
            f"{self.baseline_overall * 100:.1f}%",
            f"{self.relay_overall * 100:.1f}%",
            f"{sum(self.relay_fees.values()):+.2f}",
        ])
        return rows


def run_relay_experiment(seed: int = 42, days: float = 2.0) -> RelayResult:
    """Multi-hop relaying vs a 1-hop budget, on the line topology.

    Gossip is neighbour-scoped, so alpha never learns charlie's idle
    farm directly.  With ``max_forward_hops=1`` alpha's surplus strands
    at bravo, whose owners keep reclaiming their workstations; with 2
    hops bravo passes it on to charlie, recovering aggregate
    utilization, and bravo's relay fees show in the ledger.
    """
    horizon = days * DAY
    relay, baseline = _pair(_spec("federation-line", days), seed,
                            max_forward_hops=1)
    return RelayResult(
        days=days,
        baseline_by_site=baseline.site_utilization(0, horizon),
        relay_by_site=relay.site_utilization(0, horizon),
        baseline_overall=baseline.aggregate_utilization(0, horizon),
        relay_overall=relay.aggregate_utilization(0, horizon),
        baseline_completed=_completed_once(baseline),
        relay_completed=_completed_once(relay),
        baseline_forwarded=baseline.total_forwarded(),
        relay_forwarded=relay.total_forwarded(),
        relayed_jobs=relay.total_relayed(),
        relay_fees=relay.relay_fees(),
        credit_balances=relay.credit_balances(),
        wan_bytes=relay.wan_bytes(),
    )


# -- WAN-partition resilience ----------------------------------------------


@dataclass
class PartitionResult:
    """Stable WAN vs flapping WAN over identical demand."""

    days: float
    outages_injected: int
    downtime_seconds: float
    stable_by_site: Dict[str, float]
    flapping_by_site: Dict[str, float]
    stable_overall: float
    flapping_overall: float
    stable_completed: int
    flapping_completed: int
    #: Jobs that completed at more than one campus — the duplicate-
    #: execution bug.  Must be empty with the two-phase handshake.
    duplicate_jobs: List[str]
    forwarded_stable: int
    forwarded_flapping: int
    #: Commit legs whose outcome was ambiguous (parked, then probed).
    forward_unknowns: int
    #: Handshakes the status probe proved uncommitted (safely requeued).
    forward_requeues: int
    #: Payload pulls killed mid-replication by a sever.
    commit_aborts: int
    #: Completion notices that failed against a partitioned origin
    #: (every one must be re-delivered by reconciliation).
    notify_failures: int
    #: Offer leases that expired unclaimed after a severed commit leg.
    lease_expiries: int
    #: Open reconciliation work left at the horizon (target: 0).
    unresolved_at_end: int

    @property
    def degradation_points(self) -> float:
        """Utilization cost of the flapping link, in percentage points."""
        return (self.stable_overall - self.flapping_overall) * 100.0

    def rows(self) -> List[List[str]]:
        """The experiment as table rows (header first)."""
        rows = [["Campus", "Stable WAN", "Flapping WAN"]]
        for site in self.stable_by_site:
            rows.append([
                site,
                f"{self.stable_by_site[site] * 100:.1f}%",
                f"{self.flapping_by_site.get(site, 0.0) * 100:.1f}%",
            ])
        rows.append([
            "ALL CAMPUSES",
            f"{self.stable_overall * 100:.1f}%",
            f"{self.flapping_overall * 100:.1f}%",
        ])
        return rows


def _flapping_outages(horizon: float) -> Tuple[OutageSpec, ...]:
    """Both of north's links down 20 min in every 50 from minute 30.

    The overloaded campus is periodically *fully isolated*, the hard
    case: no alternate route, in-flight replication dies, forward
    handshakes lose legs, completion notices go missing until the
    heal-time reconciliation pass.  Windows stop two hours before the
    horizon so every outage heals (and reconciles) inside the run.
    """
    until = max(30 * MINUTE, horizon - 2 * HOUR)
    return tuple(
        OutageSpec(a="north", b=peer, start_hour=window.start / HOUR,
                   duration_minutes=window.duration / MINUTE)
        for peer in ("south", "east")
        for window in FaultSchedule.flapping(
            "north", peer, 30 * MINUTE, 20 * MINUTE, 30 * MINUTE,
            until).windows)


def run_partition_experiment(seed: int = 42,
                             days: float = 1.5) -> PartitionResult:
    """The mesh over a stable WAN vs the same WAN flapping.

    The point is *graceful* degradation: utilization dips while the
    overloaded campus is isolated, but every job still executes at
    most once, no completion notice is permanently lost, and all
    reconciliation work drains by the horizon.
    """
    horizon = days * DAY
    outages = _flapping_outages(horizon)
    stable, flapping = _pair(_spec("federation-mesh", days), seed,
                             outages=outages)
    return PartitionResult(
        days=days,
        outages_injected=len(outages),
        downtime_seconds=sum(o.duration_minutes for o in outages) * MINUTE,
        stable_by_site=stable.site_utilization(0, horizon),
        flapping_by_site=flapping.site_utilization(0, horizon),
        stable_overall=stable.aggregate_utilization(0, horizon),
        flapping_overall=flapping.aggregate_utilization(0, horizon),
        stable_completed=_completed_once(stable),
        flapping_completed=_completed_once(flapping),
        duplicate_jobs=flapping.duplicate_executions(),
        forwarded_stable=stable.total_forwarded(),
        forwarded_flapping=flapping.total_forwarded(),
        forward_unknowns=_event_total(flapping, "job-forward-unknown"),
        forward_requeues=_event_total(flapping, "job-forward-requeued"),
        commit_aborts=_event_total(flapping, "forward-commit-aborted"),
        notify_failures=_event_total(flapping, "job-complete-notify-failed"),
        lease_expiries=_event_total(flapping, "forward-lease-expired"),
        unresolved_at_end=flapping.unresolved_count(),
    )


# -- Byzantine-robust credit ledger ----------------------------------------


@dataclass
class ByzantineResult:
    """Honest verification baseline vs one adversarial campus.

    Both runs replay identical demand with share-chain verification
    on; the only difference is whether ``byzantine_site`` lies.  The
    result quantifies the two robustness claims: every honest site
    detects and quarantines the adversary within a bounded number of
    gossip rounds, and honest throughput survives the isolation.
    """

    days: float
    byzantine_site: str
    mode: str
    #: The gossip tick (``Gossip.tick``) detection rounds count in.
    gossip_tick: float
    #: All-honest verification run: every entry must verify.
    baseline_completed: int
    baseline_rejected_total: int
    #: Adversarial run.
    byzantine_completed: int
    #: Honest observer -> gossip rounds from misbehavior start to
    #: quarantine (absent if the observer never detected).
    detection_rounds: Dict[str, float]
    #: Honest observer -> adversary's trust state at the horizon.
    quarantine_states: Dict[str, str]
    #: Rejection counts by reason, summed over honest observers.
    rejected_by_reason: Dict[str, int]
    honest_utilization_baseline: float
    honest_utilization_byzantine: float

    @property
    def honest_sites(self) -> List[str]:
        return sorted(self.quarantine_states)

    @property
    def detected_by_all(self) -> bool:
        """Whether every honest site quarantined the adversary."""
        return (bool(self.quarantine_states)
                and all(site in self.detection_rounds
                        for site in self.quarantine_states))

    @property
    def max_detection_rounds(self) -> float:
        """Slowest honest observer, in gossip rounds (inf if any
        observer never detected)."""
        if not self.detected_by_all:
            return float("inf")
        return max(self.detection_rounds.values())

    @property
    def throughput_retention(self) -> float:
        """Completed jobs in the adversarial run relative to the
        all-honest baseline."""
        if self.baseline_completed == 0:
            return 1.0
        return self.byzantine_completed / self.baseline_completed

    def rows(self) -> List[List[str]]:
        """The experiment as table rows (header first)."""
        rows = [["Honest campus", "Detection (gossip rounds)",
                 "Adversary state at horizon"]]
        for site in self.honest_sites:
            rounds = self.detection_rounds.get(site)
            rows.append([
                site,
                "never" if rounds is None else f"{rounds:.1f}",
                self.quarantine_states[site],
            ])
        rows.append([
            "ALL HONEST",
            f"retention {self.throughput_retention * 100:.1f}%",
            f"rejections {sum(self.rejected_by_reason.values())}",
        ])
        return rows


def run_byzantine_experiment(seed: int = 42,
                             days: float = 1.0) -> ByzantineResult:
    """East forging chain entries vs the all-honest verified mesh.

    The adversary is ``east`` (the in-between campus), so the
    federation's main forwarding artery (north's surplus draining to
    south's farm) survives the quarantine, which is exactly the
    honest-throughput-retention claim under test.  ``forge`` is the
    lie because it self-propagates over chain gossip: detection
    latency is a property of the protocol, not of the demand trace.
    """
    horizon = days * DAY
    adversary = AdversarySpec(site="east", mode="forge")
    spec = replace(_spec("federation-mesh", days), verify_ledger=True)
    baseline, adversarial = _pair(spec, seed, adversaries=(adversary,))

    honest = [site.name for site in spec.sites if site.name != adversary.site]
    tick = adversarial.site(honest[0]).gateway.gossip.tick
    detection: Dict[str, float] = {}
    states: Dict[str, str] = {}
    rejected: Dict[str, int] = {}
    for name in honest:
        trust = adversarial.site(name).gateway.trust
        detected = trust.detected_at.get(adversary.site)
        if detected is not None:
            detection[name] = detected / tick
        states[name] = trust.state(adversary.site).value
        chain = adversarial.site(name).gateway.sharechain
        for reason, count in chain.rejected.items():
            rejected[reason] = rejected.get(reason, 0) + count

    def _honest_utilization(fed: FederatedDeployment) -> float:
        by_site = fed.site_utilization(0, horizon)
        return sum(by_site[name] for name in honest) / len(honest)

    return ByzantineResult(
        days=days,
        byzantine_site=adversary.site,
        mode=adversary.mode,
        gossip_tick=tick,
        baseline_completed=_completed_once(baseline),
        baseline_rejected_total=sum(
            handle.gateway.sharechain.rejected_total
            for handle in baseline.sites.values()),
        byzantine_completed=_completed_once(adversarial),
        detection_rounds=detection,
        quarantine_states=states,
        rejected_by_reason=dict(sorted(rejected.items())),
        honest_utilization_baseline=_honest_utilization(baseline),
        honest_utilization_byzantine=_honest_utilization(adversarial),
    )
