"""Multi-campus federation experiment.

The paper's deployment is one campus; the north-star is many campuses
pooling donated GPUs over a WAN.  This experiment quantifies what
federation buys: three campuses with deliberately imbalanced demand —
a workstation-heavy campus drowning in requests, a GPU-farm campus
mostly idle, a third in between — run twice over identical demand
traces:

* **isolated** — three independent GPUnion deployments; surplus demand
  at one campus parks forever while another campus idles;
* **federated** — the same three campuses peered through
  :class:`~repro.federation.FederatedDeployment`; unplaceable jobs
  cross the WAN (datasets and checkpoint snapshots charged on the sim
  clock) and GPU-hour credits settle in the shared ledger.

Both phases share per-site seeds, so the comparison isolates exactly
one variable: whether the WAN peering exists.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..agent import BehaviorProfile
from ..core.platform import GPUnionPlatform
from ..federation import (FaultSchedule, FaultWindow, FederatedDeployment,
                          FederationConfig)
from ..gpu.specs import A100_40GB, A6000, RTX_3090, RTX_4090
from ..sim import RngStreams
from ..sim.rng import derive_seed
from ..units import DAY, HOUR, MINUTE, gbps, mbps
from ..workloads.generator import Arrival, LabProfile, WorkloadGenerator
from .campus import ServerSpec, replay_demand


@dataclass(frozen=True)
class FederationSiteSpec:
    """One campus in the federation experiment: iron plus demand."""

    name: str
    servers: Tuple[ServerSpec, ...]
    labs: Tuple[LabProfile, ...]

    @property
    def gpu_count(self) -> int:
        """GPUs this campus contributes."""
        return sum(len(server.gpu_specs) for server in self.servers)


def _mix_small() -> Tuple[Tuple[str, float], ...]:
    return (("resnet50-cifar", 3.0), ("unet-segmentation", 2.0),
            ("bert-base-finetune", 2.0))


def _mix_large() -> Tuple[Tuple[str, float], ...]:
    return (("resnet152-imagenet", 2.0), ("vit-large-finetune", 1.5))


#: Three campuses with the imbalance the federation exists to fix:
#: "north" over-demands its 4 workstation GPUs ~2×, "south" hosts the
#: farm and barely uses it, "east" sits near balance.
FEDERATION_SITES: Tuple[FederationSiteSpec, ...] = (
    FederationSiteSpec(
        name="north",
        servers=(
            ServerSpec("n-ws1", (RTX_3090,), "vision"),
            ServerSpec("n-ws2", (RTX_3090,), "vision"),
            ServerSpec("n-ws3", (RTX_3090,), "vision"),
            ServerSpec("n-ws4", (RTX_3090,), "vision"),
        ),
        labs=(
            LabProfile("vision", batch_jobs_per_day=14.0,
                       interactive_sessions_per_day=3.0,
                       job_mix=_mix_small(), mean_job_compute_hours=10.0,
                       students=8),
            # Compute-poor lab: plenty of demand, zero servers.
            LabProfile("theory", batch_jobs_per_day=26.0,
                       interactive_sessions_per_day=2.0,
                       job_mix=_mix_small(), mean_job_compute_hours=9.0,
                       students=9),
        ),
    ),
    FederationSiteSpec(
        name="south",
        servers=(
            ServerSpec("s-farm", (RTX_4090,) * 8, "ml-infra",
                       access_gbps=10.0),
            ServerSpec("s-a100", (A100_40GB,) * 2, "bio",
                       access_gbps=10.0),
        ),
        labs=(
            LabProfile("ml-infra", batch_jobs_per_day=2.0,
                       interactive_sessions_per_day=1.0,
                       job_mix=_mix_large(), mean_job_compute_hours=14.0,
                       students=5),
            LabProfile("bio", batch_jobs_per_day=1.5,
                       interactive_sessions_per_day=1.0,
                       job_mix=_mix_large(), mean_job_compute_hours=12.0,
                       students=4),
        ),
    ),
    FederationSiteSpec(
        name="east",
        servers=(
            ServerSpec("e-ws1", (RTX_3090,), "nlp"),
            ServerSpec("e-ws2", (RTX_3090,), "nlp"),
            ServerSpec("e-ws3", (RTX_3090,), "nlp"),
            ServerSpec("e-a6000", (A6000,) * 4, "robotics",
                       access_gbps=10.0),
        ),
        labs=(
            LabProfile("nlp", batch_jobs_per_day=4.0,
                       interactive_sessions_per_day=2.0,
                       job_mix=_mix_small(), mean_job_compute_hours=10.0,
                       students=6),
            LabProfile("robotics", batch_jobs_per_day=3.0,
                       interactive_sessions_per_day=1.5,
                       job_mix=_mix_small(), mean_job_compute_hours=10.0,
                       students=5),
        ),
    ),
)


def site_demand(
    seed: int,
    site: FederationSiteSpec,
    horizon: float,
    checkpoint_interval: float = 10 * MINUTE,
) -> List[Arrival]:
    """The site's demand trace — identical across both phases.

    Seeded only by the federation seed and the site name, so building
    the platforms (isolated or federated) cannot perturb it.
    """
    generator = WorkloadGenerator(
        RngStreams(derive_seed(seed, f"demand:{site.name}")).spawn("demand"))
    return generator.combined_trace(
        site.labs, horizon,
        unaffiliated_sessions_per_day=0.0,
        checkpoint_interval=checkpoint_interval,
    )


_feed = replay_demand


def _populate(platform: GPUnionPlatform,
              site: FederationSiteSpec) -> None:
    for server in site.servers:
        platform.add_provider(
            server.hostname,
            list(server.gpu_specs),
            lab=server.lab,
            access_capacity=gbps(server.access_gbps),
        )


def build_federation(
    seed: int = 0,
    sites: Sequence[FederationSiteSpec] = FEDERATION_SITES,
    wan_capacity: float = mbps(500),
    wan_latency: float = 0.025,
    federation_config: Optional[FederationConfig] = None,
) -> FederatedDeployment:
    """A full-mesh federation of the experiment's campuses."""
    fed = FederatedDeployment(seed=seed,
                              federation_config=federation_config)
    for site in sites:
        handle = fed.add_campus(site.name)
        _populate(handle.platform, site)
    names = [site.name for site in sites]
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            fed.connect(a, b, capacity=wan_capacity, latency=wan_latency)
    return fed


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


def _completed(platform: GPUnionPlatform) -> int:
    return sum(1 for job in platform.coordinator.jobs.values()
               if job.is_done)


def run_federation(
    seed: int = 42,
    days: float = 2.0,
    sites: Sequence[FederationSiteSpec] = FEDERATION_SITES,
    federation_config: Optional[FederationConfig] = None,
) -> FederationResult:
    """Run both phases and collect the comparison."""
    horizon = days * DAY

    # Phase 1: three isolated campuses.  Same per-site seeds as the
    # federated phase, so the only variable is the WAN peering.
    isolated_by_site: Dict[str, float] = {}
    isolated_values: List[Tuple[int, float]] = []
    isolated_completed = 0
    for site in sites:
        platform = GPUnionPlatform(
            seed=derive_seed(seed, f"site:{site.name}"))
        _populate(platform, site)
        _feed(platform, site_demand(seed, site, horizon))
        platform.run(until=horizon)
        util = platform.fleet_utilization(0, horizon)
        isolated_by_site[site.name] = util
        isolated_values.append((site.gpu_count, util))
        isolated_completed += _completed(platform)
    total_gpus = sum(count for count, _ in isolated_values)
    isolated_overall = sum(count * util for count, util in isolated_values)
    isolated_overall /= max(total_gpus, 1)

    # Phase 2: the same campuses, federated.
    fed = build_federation(seed=seed, sites=sites,
                           federation_config=federation_config)
    for site in sites:
        _feed(fed.site(site.name).platform,
              site_demand(seed, site, horizon))
    fed.run(until=horizon)

    federated_completed = sum(
        _completed(handle.platform) for handle in fed.sites.values())
    # Delegated jobs exist in two coordinators (origin stub + host);
    # count each only once, at its origin.
    federated_completed -= sum(
        1 for handle in fed.sites.values()
        for record in handle.gateway.forward.records.values()
        if record.out is not None and record.out.completed_at is not None
    )
    return FederationResult(
        days=days,
        isolated_by_site=isolated_by_site,
        federated_by_site=fed.site_utilization(0, horizon),
        isolated_overall=isolated_overall,
        federated_overall=fed.aggregate_utilization(0, horizon),
        isolated_completed=isolated_completed,
        federated_completed=federated_completed,
        forwarded_jobs=fed.total_forwarded(),
        wan_bytes=fed.wan_bytes(),
        wan_transfer_seconds=fed.total_wan_transfer_seconds(),
        wan_links=fed.wan_link_report(horizon),
        credit_balances=fed.credit_balances(),
    )


# -- multi-hop relay forwarding --------------------------------------------


#: The relay scenario's three campuses on a *line*: "alpha" is
#: overloaded, "bravo" (its only WAN neighbour) runs hot enough that
#: forwarded work often lands just as bravo's own demand takes the
#: cards, and "charlie" — reachable only through bravo, because gossip
#: is neighbour-scoped — hosts an idle farm.  Without relaying,
#: alpha's surplus piles up at the saturated middle while charlie
#: idles two hops away.
RELAY_SITES: Tuple[FederationSiteSpec, ...] = (
    FederationSiteSpec(
        name="alpha",
        servers=(
            ServerSpec("a-ws1", (RTX_3090,), "vision"),
            ServerSpec("a-ws2", (RTX_3090,), "vision"),
        ),
        labs=(
            LabProfile("vision", batch_jobs_per_day=10.0,
                       interactive_sessions_per_day=1.0,
                       job_mix=_mix_small(), mean_job_compute_hours=10.0,
                       students=6),
            LabProfile("theory", batch_jobs_per_day=16.0,
                       interactive_sessions_per_day=1.0,
                       job_mix=_mix_small(), mean_job_compute_hours=9.0,
                       students=8),
        ),
    ),
    FederationSiteSpec(
        name="bravo",
        servers=(
            ServerSpec("b-ws1", (RTX_3090,), "nlp"),
            ServerSpec("b-ws2", (RTX_3090,), "nlp"),
        ),
        labs=(
            LabProfile("nlp", batch_jobs_per_day=7.0,
                       interactive_sessions_per_day=1.0,
                       job_mix=_mix_small(), mean_job_compute_hours=9.0,
                       students=5),
        ),
    ),
    FederationSiteSpec(
        name="charlie",
        servers=(
            ServerSpec("c-farm", (RTX_4090,) * 6, "ml-infra",
                       access_gbps=10.0),
        ),
        labs=(
            LabProfile("ml-infra", batch_jobs_per_day=1.0,
                       interactive_sessions_per_day=0.5,
                       job_mix=_mix_large(), mean_job_compute_hours=8.0,
                       students=3),
        ),
    ),
)


#: Provider volatility at the middle campus: its owners reclaim their
#: workstations for hours at a time, so bravo keeps accepting foreign
#: work it can no longer run — the situation relaying exists to fix.
MIDDLE_VOLATILITY = BehaviorProfile(
    events_per_day=3.0,
    p_scheduled=0.2, p_emergency=0.2, p_temporary=0.6,
    mean_temporary_downtime=2 * HOUR,
    mean_rejoin_delay=90 * MINUTE,
)


def build_relay_federation(
    seed: int = 0,
    sites: Sequence[FederationSiteSpec] = RELAY_SITES,
    wan_capacity: float = mbps(500),
    wan_latency: float = 0.025,
    federation_config: Optional[FederationConfig] = None,
    middle_volatility: Optional[BehaviorProfile] = MIDDLE_VOLATILITY,
) -> FederatedDeployment:
    """A *line* federation (each campus linked only to the next one).

    Gossip is neighbour-scoped, so the first campus never learns the
    last one's capacity directly — placement beyond the immediate
    neighbour exists only if relaying is allowed.  The middle site's
    providers run ``middle_volatility`` departure schedules: foreign
    jobs displaced by an owner reclaiming a card are what the relay
    path (or, in the 1-hop baseline, a long wait) must absorb.
    """
    fed = FederatedDeployment(seed=seed,
                              federation_config=federation_config)
    for site in sites:
        handle = fed.add_campus(site.name)
        _populate(handle.platform, site)
    if middle_volatility is not None and len(sites) > 2:
        middle = fed.site(sites[1].name).platform
        for server in sites[1].servers:
            middle.add_behavior(server.hostname, middle_volatility)
    names = [site.name for site in sites]
    for a, b in zip(names, names[1:]):
        fed.connect(a, b, capacity=wan_capacity, latency=wan_latency)
    return fed


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


def run_relay_experiment(
    seed: int = 42,
    days: float = 2.0,
    sites: Sequence[FederationSiteSpec] = RELAY_SITES,
    max_forward_hops: int = 2,
    federation_config: Optional[FederationConfig] = None,
) -> RelayResult:
    """Multi-hop relaying vs the PR-1 hop budget, on the line topology.

    Both runs replay identical per-site demand; the only difference is
    ``max_forward_hops`` (1 vs ``max_forward_hops``).  The baseline
    strands alpha's surplus at the saturated middle campus; the relay
    run lets bravo pass it on to charlie's idle farm, recovering
    aggregate utilization — with bravo's relay fees visible in the
    ledger.
    """
    horizon = days * DAY
    if federation_config is None:
        federation_config = FederationConfig()
    configs = {
        "baseline": replace(federation_config, max_forward_hops=1),
        "relay": replace(federation_config,
                         max_forward_hops=max_forward_hops),
    }
    runs: Dict[str, FederatedDeployment] = {}
    for label, config in configs.items():
        fed = build_relay_federation(seed=seed, sites=sites,
                                     federation_config=config)
        for site in sites:
            _feed(fed.site(site.name).platform,
                  site_demand(seed, site, horizon))
        fed.run(until=horizon)
        runs[label] = fed
    baseline, relay = runs["baseline"], runs["relay"]
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


def default_partition_schedule(horizon: float,
                               first_down: float = 30 * MINUTE,
                               downtime: float = 20 * MINUTE,
                               uptime: float = 30 * MINUTE,
                               ) -> FaultSchedule:
    """The experiment's flapping-WAN failure trace.

    Both of "north"'s links (to "south" and to "east") flap on the
    same windows, so the overloaded campus is periodically *fully
    isolated* — the hard case: no alternate route, in-flight
    replication dies, forward handshakes lose legs, completion notices
    go missing until the heal-time reconciliation pass.  Windows stop
    two hours before the horizon so every outage heals (and reconciles)
    inside the measured run.
    """
    until = max(first_down, horizon - 2 * HOUR)
    south = FaultSchedule.flapping(
        "north", "south", first_down, downtime, uptime, until)
    east = FaultSchedule.flapping(
        "north", "east", first_down, downtime, uptime, until)
    return south.merged(east)


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


def _run_federated_phase(
    seed: int,
    sites: Sequence[FederationSiteSpec],
    horizon: float,
    schedule: Optional[FaultSchedule] = None,
    federation_config: Optional[FederationConfig] = None,
) -> FederatedDeployment:
    fed = build_federation(seed=seed, sites=sites,
                           federation_config=federation_config)
    if schedule is not None:
        fed.inject_faults(schedule)
    for site in sites:
        _feed(fed.site(site.name).platform,
              site_demand(seed, site, horizon))
    fed.run(until=horizon)
    return fed


def _event_total(fed: FederatedDeployment, kind: str) -> int:
    return sum(handle.platform.events.count(kind)
               for handle in fed.sites.values())


def _completed_once(fed: FederatedDeployment) -> int:
    """Jobs that completed at exactly one campus, federation-wide."""
    return sum(1 for count in fed.completion_counts().values()
               if count == 1)


def run_partition_experiment(
    seed: int = 42,
    days: float = 1.5,
    sites: Sequence[FederationSiteSpec] = FEDERATION_SITES,
    schedule: Optional[FaultSchedule] = None,
    federation_config: Optional[FederationConfig] = None,
) -> PartitionResult:
    """Federated utilization under a flapping WAN link.

    Two federated runs over identical demand traces: a stable WAN, and
    the same WAN with :func:`default_partition_schedule` (or a caller-
    supplied schedule) severing and healing links mid-run.  The point
    is *graceful* degradation: utilization dips while the overloaded
    campus is isolated, but every job still executes at most once, no
    completion notice is permanently lost, and all reconciliation work
    drains by the horizon.
    """
    horizon = days * DAY
    if schedule is None:
        schedule = default_partition_schedule(horizon)

    stable = _run_federated_phase(seed, sites, horizon,
                                  federation_config=federation_config)
    flapping = _run_federated_phase(seed, sites, horizon, schedule=schedule,
                                    federation_config=federation_config)
    return PartitionResult(
        days=days,
        outages_injected=len(schedule.windows),
        downtime_seconds=schedule.total_downtime,
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
    gossip_interval: float
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


def run_byzantine_experiment(
    seed: int = 42,
    days: float = 1.0,
    byzantine_site: str = "east",
    mode: str = "forge",
    sites: Sequence[FederationSiteSpec] = FEDERATION_SITES,
    federation_config: Optional[FederationConfig] = None,
) -> ByzantineResult:
    """One adversarial campus vs the all-honest verification baseline.

    The adversary defaults to ``east`` (the in-between campus) so the
    federation's main forwarding artery — north's surplus draining to
    south's farm — survives the quarantine, which is exactly the
    honest-throughput-retention claim under test.  ``forge`` is the
    default lie because it self-propagates over chain gossip: detection
    latency is a property of the protocol, not of the demand trace.
    """
    if not any(site.name == byzantine_site for site in sites):
        raise ValueError(f"unknown byzantine site {byzantine_site!r}")
    horizon = days * DAY
    runs: Dict[str, FederatedDeployment] = {}
    for label in ("baseline", "byzantine"):
        fed = build_federation(seed=seed, sites=sites,
                               federation_config=federation_config)
        fed.enable_ledger_verification()
        if label == "byzantine":
            fed.inject_faults(FaultSchedule(
                windows=(FaultWindow(mode, byzantine_site),)))
        for site in sites:
            _feed(fed.site(site.name).platform,
                  site_demand(seed, site, horizon))
        fed.run(until=horizon)
        runs[label] = fed
    baseline, adversarial = runs["baseline"], runs["byzantine"]

    interval = adversarial.federation_config.gossip_interval
    honest = [site.name for site in sites if site.name != byzantine_site]
    detection: Dict[str, float] = {}
    states: Dict[str, str] = {}
    rejected: Dict[str, int] = {}
    for name in honest:
        trust = adversarial.site(name).gateway.trust
        detected = trust.detected_at.get(byzantine_site)
        if detected is not None:
            detection[name] = detected / interval
        states[name] = trust.state(byzantine_site).value
        chain = adversarial.site(name).gateway.sharechain
        for reason, count in chain.rejected.items():
            rejected[reason] = rejected.get(reason, 0) + count

    def _honest_utilization(fed: FederatedDeployment) -> float:
        by_site = fed.site_utilization(0, horizon)
        return sum(by_site[name] for name in honest) / len(honest)

    return ByzantineResult(
        days=days,
        byzantine_site=byzantine_site,
        mode=mode,
        gossip_interval=interval,
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
