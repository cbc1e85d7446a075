"""Network traffic analysis (§4).

"Our measurements across various workload types revealed that the
incremental checkpointing mechanism produces negligible network
overhead, with backup traffic consuming less than 2% of available
campus bandwidth during peak operation periods."

The experiment runs the ``paper-campus`` scenario for several days,
meters every checkpoint/migration byte per minute, and reports the
peak 10-minute and average backup rates as fractions of the backbone.
The ablation arm re-runs with incremental checkpointing disabled
(every checkpoint is a full snapshot) to show what the delta mechanism
saves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..checkpoint import IncrementalPlan
from ..network import TrafficMeter
from ..scenarios import compile_scenario
from ..units import DAY, GIB, MINUTE, gbps
from .campus import campus_platform, paper_campus

#: Campus backbone capacity the fractions are measured against.
BACKBONE = gbps(10)

#: Traffic categories that count as "backup traffic".
BACKUP_CATEGORIES = ("checkpoint", "migration")


@dataclass
class TrafficResult:
    """Backup-traffic measurements for one checkpointing mode."""

    mode: str  # "incremental" | "full-only"
    days: float
    total_backup_bytes: float
    peak_fraction: float  # peak 10-minute rate / backbone
    average_fraction: float
    peak_fraction_by_category: Dict[str, float]

    def row(self) -> List[str]:
        """One table row."""
        return [
            self.mode,
            f"{self.total_backup_bytes / GIB:.1f} GiB",
            f"{self.average_fraction * 100:.2f}%",
            f"{self.peak_fraction * 100:.2f}%",
        ]


#: "Peak operation periods" (§4) are measured over 10-minute windows:
#: a single multi-GiB snapshot shouldn't count as sustained load.
PEAK_WINDOW = 10 * MINUTE


def _peak_rate(meter: TrafficMeter, categories) -> float:
    """Highest ``PEAK_WINDOW``-average rate of ``categories`` combined.

    The meter bins per minute by ``now // window``, so summing its bins
    by ``start // PEAK_WINDOW`` gives the 10-minute partition exactly.
    """
    windows: Dict[int, float] = {}
    for category in categories:
        for start, nbytes in meter.series(category):
            index = int(start // PEAK_WINDOW)
            windows[index] = windows.get(index, 0.0) + nbytes
    return max(windows.values(), default=0.0) / PEAK_WINDOW


def _run_mode(seed: int, days: float, incremental: bool) -> TrafficResult:
    compiled = compile_scenario(paper_campus(days * DAY), seed=seed)
    platform = campus_platform(compiled)
    if not incremental:
        # Ablation: every checkpoint ships the full state.
        platform.engine.plan = IncrementalPlan(full_every=1)
    compiled.run()

    meter = platform.traffic
    total = sum(meter.total_bytes(cat) for cat in BACKUP_CATEGORIES)
    return TrafficResult(
        mode="incremental" if incremental else "full-only",
        days=days,
        total_backup_bytes=total,
        peak_fraction=_peak_rate(meter, BACKUP_CATEGORIES) / BACKBONE,
        average_fraction=(total / compiled.horizon) / BACKBONE,
        peak_fraction_by_category={
            category: _peak_rate(meter, (category,)) / BACKBONE
            for category in BACKUP_CATEGORIES
        },
    )


def run_network_traffic(seed: int = 42, days: float = 3.0) -> List[TrafficResult]:
    """Both arms: incremental (deployed) vs full-only (ablation)."""
    return [
        _run_mode(seed, days, incremental=True),
        _run_mode(seed, days, incremental=False),
    ]


def traffic_table(results: List[TrafficResult]) -> List[List[str]]:
    """Render results (header first)."""
    rows = [["Checkpoint mode", "Backup volume", "Avg of backbone",
             "Peak 10-min window of backbone"]]
    for result in results:
        rows.append(result.row())
    return rows
