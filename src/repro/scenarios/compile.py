"""Scenario compilation: spec + seed → a ready, wired deployment.

:func:`compile_scenario` turns a declarative
:class:`~repro.scenarios.spec.ScenarioSpec` into a
:class:`~repro.federation.deployment.FederatedDeployment` with every
campus, provider, churn behaviour, WAN link, chaos schedule, and
demand feeder attached — ready for ``deployment.run(until=horizon)``
(the :class:`~repro.scenarios.runner.ScenarioRunner` does exactly
that) or for a :class:`~repro.server.SimulationServer` to drive
continuously.

All randomness derives from ``(seed, scenario name, site name)`` via
named :class:`~repro.sim.RngStreams`, and job/session identifiers are
scenario-local sequence numbers — so one seed compiles to the *same*
event schedule every time, even when several compilations share a
process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..agent import BehaviorProfile
from ..federation import FaultSchedule, FederatedDeployment, FederationConfig
from ..federation.deployment import SiteHandle
from ..gpu.specs import lookup
from ..sim.rng import RngStreams, derive_seed
from ..units import HOUR, MINUTE, gbps
from ..workloads.demand import DemandProcess
from ..workloads.interactive import InteractiveSessionSpec
from ..workloads.models import MODEL_CATALOG
from ..workloads.training import TrainingJobSpec
from .spec import DemandSpec, ScenarioSpec


@dataclass(frozen=True)
class PlannedJob:
    """One batch job the scenario will submit."""

    at: float
    site: str
    spec: TrainingJobSpec


@dataclass(frozen=True)
class PlannedSession:
    """One interactive session the scenario will submit."""

    at: float
    site: str
    spec: InteractiveSessionSpec
    flash_crowd: bool = False


@dataclass
class CompiledScenario:
    """A deployment plus the demand schedule compiled into it."""

    spec: ScenarioSpec
    seed: int
    deployment: FederatedDeployment
    horizon: float  # simulation seconds
    jobs: List[PlannedJob] = field(default_factory=list)
    sessions: List[PlannedSession] = field(default_factory=list)

    @property
    def job_ids(self) -> List[str]:
        """Every planned job id, in submission order."""
        return [planned.spec.job_id for planned in self.jobs]

    def site(self, name: str) -> SiteHandle:
        """Handle for one compiled campus."""
        return self.deployment.site(name)

    def run(self) -> "CompiledScenario":
        """Advance the simulation to the scenario horizon."""
        self.deployment.run(until=self.horizon)
        return self


def _pick_model(rng, mix: Tuple[Tuple[str, float], ...]):
    total = sum(weight for _, weight in mix)
    point = rng.random() * total
    cumulative = 0.0
    for name, weight in mix:
        cumulative += weight
        if point <= cumulative:
            return MODEL_CATALOG[name]
    return MODEL_CATALOG[mix[-1][0]]


def _plan_demand(
    site_name: str,
    tag: str,
    lab: str,
    demand: DemandSpec,
    streams: RngStreams,
    horizon: float,
) -> Tuple[List[PlannedJob], List[PlannedSession]]:
    """Deterministic arrivals of one demand population at one site.

    ``tag`` names the population's RNG streams, its scenario-local ids
    and its users; every planned spec carries ``lab``.
    """
    jobs: List[PlannedJob] = []
    sessions: List[PlannedSession] = []

    job_rng = streams.stream(f"jobs:{tag}")
    job_process = DemandProcess(demand.jobs_per_day,
                                phase_hours=demand.timezone_offset_hours)
    for index, when in enumerate(job_process.arrivals(job_rng, horizon)):
        model = _pick_model(job_rng, demand.job_mix)
        compute_hours = job_rng.lognormvariate(
            math.log(demand.mean_job_compute_hours), 0.5)
        compute_hours = min(compute_hours, 3 * demand.mean_job_compute_hours)
        jobs.append(PlannedJob(
            at=when,
            site=site_name,
            spec=TrainingJobSpec(
                job_id=f"sc-{tag}-job-{index:05d}",
                model=model,
                total_compute=compute_hours * HOUR,
                owner=f"{tag}-user-{job_rng.randrange(20)}",
                lab=lab,
                checkpoint_interval=10 * MINUTE,
            ),
        ))

    session_rng = streams.stream(f"sessions:{tag}")
    session_process = DemandProcess(
        demand.sessions_per_day, phase_hours=demand.timezone_offset_hours)
    for index, when in enumerate(session_process.arrivals(session_rng,
                                                          horizon)):
        duration = max(15 * MINUTE, session_rng.expovariate(1 / (1.5 * HOUR)))
        sessions.append(PlannedSession(
            at=when,
            site=site_name,
            spec=InteractiveSessionSpec(
                session_id=f"sc-{tag}-sess-{index:05d}",
                user=f"{tag}-user-{session_rng.randrange(40)}",
                lab=lab,
                duration=duration,
            ),
        ))
    return jobs, sessions


def _plan_flash_crowds(
    scenario: ScenarioSpec,
    streams: RngStreams,
    horizon: float,
) -> List[PlannedSession]:
    """Burst sessions: ``sessions`` arrivals jittered over the spread."""
    planned: List[PlannedSession] = []
    for crowd_index, crowd in enumerate(scenario.flash_crowds):
        rng = streams.stream(f"flash:{crowd.site}:{crowd_index}")
        start = crowd.start_hour * HOUR
        for index in range(crowd.sessions):
            at = start + rng.uniform(0.0, crowd.spread_minutes * MINUTE)
            if at >= horizon:
                continue
            duration = max(10 * MINUTE, rng.expovariate(
                1 / (crowd.mean_session_minutes * MINUTE)))
            planned.append(PlannedSession(
                at=at,
                site=crowd.site,
                spec=InteractiveSessionSpec(
                    session_id=(f"sc-{crowd.site}-flash"
                                f"-{crowd_index}-{index:04d}"),
                    user=f"crowd-{crowd_index}-{index}",
                    lab="",  # flash crowds are unaffiliated users
                    duration=duration,
                ),
                flash_crowd=True,
            ))
    return planned


def _feed(env, deployment, arrivals):
    """One process submits a site-sorted arrival list on schedule."""
    for planned in arrivals:
        if planned.at > env.now:
            yield env.timeout(planned.at - env.now)
        platform = deployment.site(planned.site).platform
        if isinstance(planned, PlannedJob):
            platform.submit_job(planned.spec)
        else:
            platform.submit_session(planned.spec)


def compile_scenario(scenario: ScenarioSpec, seed: int = 0,
                     trace: Optional[bool] = None) -> CompiledScenario:
    """Compile ``scenario`` into a ready deployment.

    ``trace`` overrides the spec's tracing flag (the runner leaves it
    alone; a long-running server may turn tracing off to bound span
    memory).
    """
    horizon = scenario.duration_hours * HOUR
    use_trace = scenario.trace if trace is None else trace
    federation_config = FederationConfig(
        max_forward_hops=scenario.max_forward_hops,
        gossip_interval_min=15.0,
        admission_headroom_horizon=(
            scenario.admission_headroom_minutes * MINUTE),
    )
    deployment = FederatedDeployment(
        seed=derive_seed(seed, f"scenario:{scenario.name}"),
        federation_config=federation_config,
        trace=use_trace,
    )

    for site in scenario.sites:
        handle = deployment.add_campus(site.name)
        for provider in site.providers:
            handle.platform.add_provider(
                provider.name,
                [lookup(gpu) for gpu in provider.gpus],
                lab=provider.lab,
                access_capacity=gbps(provider.access_gbps),
            )
        # Behaviours attach after every provider exists so churn on one
        # host never perturbs another host's registration order.
        for provider in site.providers:
            if provider.churn is not None:
                churn = provider.churn
                handle.platform.add_behavior(provider.name, BehaviorProfile(
                    events_per_day=churn.events_per_day,
                    p_scheduled=churn.p_scheduled,
                    p_emergency=churn.p_emergency,
                    p_temporary=churn.p_temporary,
                    mean_temporary_downtime=(
                        churn.mean_downtime_minutes * MINUTE),
                    mean_rejoin_delay=churn.mean_rejoin_minutes * MINUTE,
                ))

    for link in scenario.links:
        deployment.connect(
            link.a, link.b,
            capacity=(None if link.capacity_gbps is None
                      else gbps(link.capacity_gbps)),
            latency=(None if link.latency_ms is None
                     else link.latency_ms / 1000.0),
        )

    deployment.inject_faults(FaultSchedule(windows=tuple(
        spec.window() for spec
        in scenario.outages + scenario.crashes + scenario.adversaries)))
    if scenario.verify_ledger:
        deployment.enable_ledger_verification()

    compiled = CompiledScenario(
        spec=scenario, seed=seed, deployment=deployment, horizon=horizon)

    streams = RngStreams(derive_seed(seed, f"scenario-demand:{scenario.name}"))
    for site in scenario.sites:
        # The site-wide population keeps the site's own stream names;
        # each lab's are qualified by the lab (``campus/vision``).
        populations = [(site.name, site.name, site.demand)] + [
            (f"{site.name}/{lab.tag}", lab.lab, lab.demand)
            for lab in site.labs]
        for tag, lab, demand in populations:
            jobs, sessions = _plan_demand(
                site.name, tag, lab, demand, streams, horizon)
            compiled.jobs.extend(jobs)
            compiled.sessions.extend(sessions)
    compiled.sessions.extend(_plan_flash_crowds(scenario, streams, horizon))

    # One feeder per site keeps submission order deterministic even
    # when two sites' arrivals land on the same timestamp (per-site
    # FIFO; cross-site ties break by feeder start order = spec order).
    arrivals_by_site: Dict[str, list] = {s.name: [] for s in scenario.sites}
    for planned in compiled.jobs + compiled.sessions:
        arrivals_by_site[planned.site].append(planned)
    for site in scenario.sites:
        queue = sorted(arrivals_by_site[site.name], key=lambda p: p.at)
        if queue:
            deployment.env.process(
                _feed(deployment.env, deployment, queue),
                name=f"scenario-feed:{site.name}")
    return compiled
