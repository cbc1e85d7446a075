"""Figure 2: research-group GPU utilization, manual vs GPUnion.

"After a six-week period, the average GPU utilization of all servers
increased from 34% to 67%.  This improvement was primarily attributed
to enhanced visibility of resource availability and the automated
allocation of opportunistic workloads during idle periods" (§4).

Both phases replay the *same* demand trace over the *same* 22-GPU
fleet (the ``paper-campus`` scenario); only the coordination mechanism
differs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..units import WEEK
from .campus import run_campus


@dataclass
class Fig2Result:
    """Both phases' utilization, overall and per lab."""

    weeks: float
    manual_overall: float
    gpunion_overall: float
    manual_by_lab: Dict[str, float]
    gpunion_by_lab: Dict[str, float]
    manual_sessions_served: int
    gpunion_sessions_served: int
    manual_jobs_denied: int
    gpunion_jobs_completed: int

    @property
    def improvement_points(self) -> float:
        """Utilization gain in percentage points."""
        return (self.gpunion_overall - self.manual_overall) * 100.0

    def rows(self) -> List[List[str]]:
        """Figure 2 as table rows (header first)."""
        labs = sorted(set(self.manual_by_lab) | set(self.gpunion_by_lab))
        rows = [["Research group", "Manual (before)", "GPUnion (after)"]]
        for lab in labs:
            rows.append([
                lab,
                f"{self.manual_by_lab.get(lab, 0.0) * 100:.1f}%",
                f"{self.gpunion_by_lab.get(lab, 0.0) * 100:.1f}%",
            ])
        rows.append([
            "ALL SERVERS",
            f"{self.manual_overall * 100:.1f}%",
            f"{self.gpunion_overall * 100:.1f}%",
        ])
        return rows


def run_fig2(seed: int = 42, weeks: float = 6.0) -> Fig2Result:
    """Run both phases and collect Figure 2's series."""
    run = run_campus(seed, weeks * WEEK)
    manual, platform, horizon = run.manual, run.gpunion, run.horizon
    completed = sum(
        1 for job in platform.coordinator.jobs.values() if job.is_done
    )
    return Fig2Result(
        weeks=weeks,
        manual_overall=manual.fleet_utilization(0, horizon),
        gpunion_overall=platform.fleet_utilization(0, horizon),
        manual_by_lab=manual.lab_utilization(0, horizon),
        gpunion_by_lab=platform.lab_utilization(0, horizon),
        manual_sessions_served=len(manual.served_sessions()),
        gpunion_sessions_served=len(platform.coordinator.served_sessions()),
        manual_jobs_denied=len(manual.denied_jobs()),
        gpunion_jobs_completed=completed,
    )


def weekly_series(seed: int = 42, weeks: int = 6) -> List[Dict[str, float]]:
    """Per-week utilization for both phases (Fig. 2's time axis)."""
    run = run_campus(seed, weeks * WEEK)
    series = []
    for week in range(weeks):
        since, until = week * WEEK, (week + 1) * WEEK
        series.append({
            "week": week + 1,
            "manual": run.manual.fleet_utilization(since, until),
            "gpunion": run.gpunion.fleet_utilization(since, until),
        })
    return series
