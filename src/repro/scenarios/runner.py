"""Seed-swept scenario execution with aggregated invariants.

A :class:`ScenarioRunner` compiles one
:class:`~repro.scenarios.spec.ScenarioSpec` per seed, runs each to the
scenario horizon, and folds per-seed metrics *and* the federation's
standing invariants — exactly-once execution, no lost job, GPU-hour
ledger conservation, orphan-free traces and the share-chain ones, as
:meth:`~repro.federation.FederatedDeployment.audit` judges them —
into one :class:`ScenarioReport`.  Summaries are plain JSON-able
dicts built only from deterministic simulation state (counts, rounded
aggregates — never object ids or wall-clock), so the same spec and
seed always produce an identical summary, which is itself one of the
runner's regression guarantees.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from ..units import GIB
from ..workloads.interactive import SessionOutcome
from ..workloads.training import JobStatus
from .compile import CompiledScenario, compile_scenario
from .spec import ScenarioSpec


@dataclass
class SeedResult:
    """One seed's run: its summary plus any invariant violations."""

    seed: int
    summary: Dict[str, Any]
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether every invariant held for this seed."""
        return not self.violations


def _job_statuses(compiled: CompiledScenario) -> Dict[str, int]:
    """Terminal/live status counts for every planned job.

    A job submitted at its origin campus stays in that coordinator's
    book even when it executes elsewhere, so the origin's record is
    authoritative for accounting.
    """
    counts: Dict[str, int] = {}
    for planned in compiled.jobs:
        state = compiled.site(planned.site).platform.coordinator.jobs.get(
            planned.spec.job_id)
        status = state.status.value if state is not None else "missing"
        counts[status] = counts.get(status, 0) + 1
    return dict(sorted(counts.items()))


def _session_outcomes(compiled: CompiledScenario) -> Dict[str, int]:
    counts: Dict[str, int] = {outcome.value: 0 for outcome in SessionOutcome}
    for handle in compiled.deployment.sites.values():
        for record in handle.platform.coordinator.sessions:
            counts[record.outcome.value] += 1
    return {key: value for key, value in sorted(counts.items()) if value}


def summarize(compiled: CompiledScenario) -> Dict[str, Any]:
    """Deterministic post-run summary of one compiled scenario."""
    deployment = compiled.deployment
    statuses = _job_statuses(compiled)
    completed = statuses.get(JobStatus.COMPLETED.value, 0)
    summary: Dict[str, Any] = {
        "scenario": compiled.spec.name,
        "seed": compiled.seed,
        "horizon_hours": round(compiled.horizon / 3600.0, 6),
        "jobs": {
            "planned": len(compiled.jobs),
            "completed": completed,
            "by_status": statuses,
        },
        "sessions": {
            "planned": len(compiled.sessions),
            "flash_crowd": sum(1 for s in compiled.sessions if s.flash_crowd),
            "by_outcome": _session_outcomes(compiled),
        },
        "utilization": {
            "aggregate": round(deployment.aggregate_utilization(), 6),
            "per_site": {site: round(value, 6) for site, value in
                         sorted(deployment.site_utilization().items())},
        },
        "federation": {
            "forwarded": deployment.total_forwarded(),
            "relayed": deployment.total_relayed(),
            "wan_gib": round(deployment.wan_bytes() / GIB, 6),
            "unresolved": deployment.unresolved_count(),
        },
        "invariants": {
            "duplicate_executions": len(deployment.duplicate_executions()),
            "ledger_sum_gpu_hours": round(
                sum(deployment.credit_balances().values()), 9),
            "orphan_spans": (0 if deployment.tracer is None
                             else len(deployment.tracer.orphans())),
        },
    }
    heights = deployment.chain_heights()
    if heights:
        summary["sharechain"] = {
            "heights": dict(sorted(heights.items())),
            "rejected": {site: dict(sorted(reasons.items()))
                         for site, reasons in
                         sorted(deployment.rejected_entries().items())},
            "quarantine": deployment.quarantine_map(),
        }
    return summary


@dataclass
class ScenarioReport:
    """The aggregate of a seed sweep."""

    spec: ScenarioSpec
    results: List[SeedResult]

    @property
    def ok(self) -> bool:
        """Whether every seed's invariants held."""
        return all(result.ok for result in self.results)

    @property
    def violations(self) -> List[str]:
        """Every violation across the sweep, seed-prefixed."""
        return [f"seed {result.seed}: {violation}"
                for result in self.results
                for violation in result.violations]

    def aggregate(self) -> Dict[str, Any]:
        """Cross-seed rollup (means over seeds, totals over jobs)."""
        if not self.results:
            return {"seeds": 0, "ok": True}
        utils = [r.summary["utilization"]["aggregate"] for r in self.results]
        return {
            "seeds": len(self.results),
            "ok": self.ok,
            "jobs_planned": sum(r.summary["jobs"]["planned"]
                                for r in self.results),
            "jobs_completed": sum(r.summary["jobs"]["completed"]
                                  for r in self.results),
            "sessions_planned": sum(r.summary["sessions"]["planned"]
                                    for r in self.results),
            "mean_utilization": round(sum(utils) / len(utils), 6),
            "forwarded": sum(r.summary["federation"]["forwarded"]
                             for r in self.results),
            "relayed": sum(r.summary["federation"]["relayed"]
                           for r in self.results),
            "violations": self.violations,
        }

    def to_dict(self) -> Dict[str, Any]:
        """The whole report as one JSON-able document."""
        return {
            "scenario": self.spec.to_dict(),
            "per_seed": [result.summary for result in self.results],
            "aggregate": self.aggregate(),
        }


class ScenarioRunner:
    """Compiles, runs, and audits a scenario across seeds."""

    def __init__(self, spec: ScenarioSpec,
                 seeds: Sequence[int] = (1, 2, 3)):
        if not seeds:
            raise ValueError("at least one seed is required")
        self.spec = spec
        self.seeds = tuple(seeds)

    def run_seed(self, seed: int,
                 compiled: Optional[CompiledScenario] = None) -> SeedResult:
        """Run one seed to the horizon and audit it with
        :meth:`~repro.federation.FederatedDeployment.audit`."""
        if compiled is None:
            compiled = compile_scenario(self.spec, seed=seed)
        compiled.run()
        return SeedResult(seed=seed, summary=summarize(compiled),
                          violations=compiled.deployment.audit())

    def sweep(self) -> ScenarioReport:
        """Run every seed; collect summaries and violations."""
        return ScenarioReport(
            spec=self.spec,
            results=[self.run_seed(seed) for seed in self.seeds])
