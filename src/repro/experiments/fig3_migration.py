"""Figure 3: migration performance under interruption scenarios.

"To evaluate GPUnion's resilience mechanisms, we conducted controlled
experiments simulating realistic provider interruption patterns.
These experiments involved 20 deep learning training jobs (PyTorch CNN
and transformer models) distributed across 2 volunteer provider nodes
over a week period. ... Interruption frequency varied from 0.5 to 3.2
events per day per node. ... For scheduled departures, 94% of
workloads successfully migrated within the specified time and with
minimal data loss.  Emergency departures resulted in work loss
equivalent to the checkpoint interval.  Temporary unavailability
scenarios demonstrated the value of provider return: 67% of displaced
workloads were automatically migrated back to their original nodes in
time when providers reconnected" (§4).

The experiment runs on the *live campus deployment* (the Fig. 2 fleet
under its normal demand): a variant of the ``paper-campus`` scenario
gives two volunteer servers provider churn, 20 instrumented jobs are
injected, and the rest of the campus provides both migration headroom
(displaced jobs land quickly → high scheduled success) and contention
(returning volunteers get re-occupied by queued work → migrate-back
< 100 %).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List

from ..core import (
    MigrateBackSummary,
    MigrationStats,
    build_migration_report,
    displaced_return_stats,
)
from ..scenarios import ChurnSpec, compile_scenario
from ..sim import RngStreams
from ..units import HOUR, MINUTE, WEEK
from ..workloads import (
    BERT_BASE,
    RESNET50,
    RESNET152,
    TrainingJobSpec,
    UNET_SEG,
    VIT_LARGE,
)
from .campus import campus_platform, paper_campus

#: The 20-job mix: CNNs and transformers, as in the paper.
JOB_MODELS = (
    RESNET50, RESNET152, UNET_SEG,  # CNNs
    BERT_BASE, VIT_LARGE,  # transformers
)

#: The two servers whose owners volunteer for controlled interruption.
VOLUNTEER_NODES = ("ws1", "ws4")


@dataclass
class Fig3Result:
    """Everything Fig. 3 plots."""

    by_kind: Dict[str, MigrationStats]
    migrate_back: MigrateBackSummary
    by_family: Dict[str, Dict[str, float]]  # family → {downtime, lost}
    jobs_completed: int
    jobs_total: int
    checkpoint_interval: float
    interruption_events: int

    def rows(self) -> List[List[str]]:
        """Per-scenario table (header first)."""
        rows = [[
            "Scenario", "Events", "Resumed", "Success (≤5 min)",
            "Mean downtime", "Mean lost work",
        ]]
        for kind in ("scheduled", "emergency", "temporary", "migrate-back"):
            stats = self.by_kind.get(kind)
            if stats is None:
                continue
            rows.append([
                kind,
                str(stats.count),
                str(stats.resumed),
                f"{stats.success_rate * 100:.0f}%",
                f"{stats.mean_downtime:.0f} s",
                f"{stats.mean_lost_progress:.0f} s",
            ])
        rows.append([
            "migrate-back (of displaced)",
            str(self.migrate_back.requested),
            str(self.migrate_back.returned_home),
            f"{self.migrate_back.rate * 100:.0f}%",
            "-", "-",
        ])
        return rows

    def family_rows(self) -> List[List[str]]:
        """Per-workload-type table (header first)."""
        rows = [["Workload type", "Mean downtime", "Mean lost work"]]
        for family in sorted(self.by_family):
            data = self.by_family[family]
            rows.append([
                family,
                f"{data['downtime']:.0f} s",
                f"{data['lost']:.0f} s",
            ])
        return rows


def _instrumented_jobs(seed: int, count: int, duration: float,
                       checkpoint_interval: float) -> List[tuple]:
    """``(submit_time, spec)`` pairs staggered across the period."""
    rng = RngStreams(seed).stream("fig3-jobs")
    arrivals = []
    submit_window = duration * 0.7  # last arrivals can still finish
    for index in range(count):
        model = JOB_MODELS[index % len(JOB_MODELS)]
        compute = rng.uniform(8 * HOUR, 24 * HOUR)
        spec = TrainingJobSpec(
            job_id=f"fig3-job-{index:02d}",
            model=model,
            total_compute=compute,
            lab="volunteers",
            checkpoint_interval=checkpoint_interval,
        )
        arrivals.append((rng.uniform(0, submit_window), spec))
    arrivals.sort(key=lambda pair: pair[0])
    return arrivals


def run_fig3(
    seed: int = 7,
    jobs: int = 20,
    duration: float = 1 * WEEK,
    events_per_day: float = 1.6,  # mid-range of the paper's 0.5–3.2
    checkpoint_interval: float = 10 * MINUTE,
) -> Fig3Result:
    """The controlled-interruption experiment on the live campus.

    ``checkpoint_interval`` applies to the instrumented jobs; the
    campus's own jobs checkpoint every 10 minutes, as every compiled
    job does.
    """
    churn = ChurnSpec(
        events_per_day=events_per_day,
        p_scheduled=0.4, p_emergency=0.3, p_temporary=0.3,
        mean_downtime_minutes=40.0, mean_rejoin_minutes=60.0,
    )
    spec = paper_campus(duration)
    (site,) = spec.sites
    volatile = replace(site, providers=tuple(
        replace(provider, churn=churn)
        if provider.name in VOLUNTEER_NODES else provider
        for provider in site.providers))
    # The campus's own demand keeps the fleet at its Fig. 2 operating
    # point; the instrumented jobs ride on top of it.
    compiled = compile_scenario(replace(spec, sites=(volatile,)), seed=seed)
    platform = campus_platform(compiled)
    instrumented = _instrumented_jobs(seed, jobs, duration,
                                      checkpoint_interval)
    job_states: List = []

    def feed_instrumented(env):
        for when, job in instrumented:
            if when > env.now:
                yield env.timeout(when - env.now)
            job_states.append(platform.submit_job(job))

    platform.env.process(feed_instrumented(platform.env), name="fig3-jobs")
    compiled.run()

    # Interruption statistics over every job the churn touched (the
    # volunteers host background work too); migrate-back over all
    # temporarily displaced jobs.
    all_jobs = list(platform.coordinator.jobs.values())
    report = build_migration_report(all_jobs)
    families: Dict[str, Dict[str, List[float]]] = {}
    for job in all_jobs:
        if not job.interruptions:
            continue
        family = job.spec.model.family
        bucket = families.setdefault(family, {"downtime": [], "lost": []})
        for record in job.interruptions:
            if record.downtime > 0:
                bucket["downtime"].append(record.downtime)
            bucket["lost"].append(record.lost_progress)
    by_family = {
        family: {
            "downtime": (sum(data["downtime"]) / len(data["downtime"])
                         if data["downtime"] else 0.0),
            "lost": (sum(data["lost"]) / len(data["lost"])
                     if data["lost"] else 0.0),
        }
        for family, data in families.items()
    }
    events = sum(
        len(behavior.ledger) for behavior in platform.behaviors.values()
    )
    return Fig3Result(
        by_kind=report,
        migrate_back=displaced_return_stats(platform.events),
        by_family=by_family,
        jobs_completed=sum(1 for job in job_states if job.is_done),
        jobs_total=jobs,
        checkpoint_interval=checkpoint_interval,
        interruption_events=events,
    )


def sweep_interruption_frequency(
    seed: int = 7,
    frequencies=(0.5, 1.2, 2.0, 3.2),
    jobs: int = 20,
    duration: float = 1 * WEEK,
) -> List[Dict[str, float]]:
    """Fig. 3's x-axis: how outcomes degrade with interruption rate."""
    rows = []
    for frequency in frequencies:
        result = run_fig3(seed=seed, jobs=jobs, duration=duration,
                          events_per_day=frequency)
        scheduled = result.by_kind.get("scheduled", MigrationStats("scheduled"))
        emergency = result.by_kind.get("emergency", MigrationStats("emergency"))
        rows.append({
            "events_per_day": frequency,
            "scheduled_success": scheduled.success_rate,
            "emergency_lost": emergency.mean_lost_progress,
            "migrate_back_rate": result.migrate_back.rate,
            "jobs_completed": result.jobs_completed,
        })
    return rows
