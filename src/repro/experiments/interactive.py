"""Interactive-session accessibility (§4).

"Furthermore, interactive debugging sessions increased by 40% compared
to the manual coordination phase, as students were able to access
temporarily idle GPUs more conveniently."

This experiment reuses the Fig. 2 two-phase run and reports the
session-serving ledger from both phases, broken down by who asked:
students in GPU-owning labs, students in compute-poor labs, and
unaffiliated students (§1's accessibility-barriers dimension).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..units import WEEK
from .campus import run_campus


@dataclass
class InteractiveResult:
    """Session-serving outcomes for both phases."""

    manual_served: int
    gpunion_served: int
    manual_by_group: Dict[str, int]
    gpunion_by_group: Dict[str, int]

    @property
    def increase(self) -> float:
        """Fractional increase in served sessions under GPUnion."""
        if self.manual_served == 0:
            return 0.0
        return self.gpunion_served / self.manual_served - 1.0

    def rows(self) -> List[List[str]]:
        """Render per-group serving counts (header first)."""
        groups = sorted(set(self.manual_by_group) | set(self.gpunion_by_group))
        rows = [["Requester group", "Manual served", "GPUnion served"]]
        for group in groups:
            rows.append([
                group,
                str(self.manual_by_group.get(group, 0)),
                str(self.gpunion_by_group.get(group, 0)),
            ])
        rows.append(["TOTAL", str(self.manual_served),
                     str(self.gpunion_served)])
        return rows


def _by_group(records, owning_labs) -> Dict[str, int]:
    """Served-session counts by who asked."""
    groups: Dict[str, int] = {}
    for record in records:
        lab = record.spec.lab
        group = ("unaffiliated" if not lab
                 else "gpu-owning labs" if lab in owning_labs
                 else "compute-poor labs")
        groups[group] = groups.get(group, 0) + 1
    return groups


def run_interactive(seed: int = 42, weeks: float = 2.0) -> InteractiveResult:
    """Run both phases and count the sessions each served."""
    run = run_campus(seed, weeks * WEEK)
    owning_labs = set(run.manual.nodes_by_lab)
    manual = run.manual.served_sessions()
    gpunion = run.gpunion.coordinator.served_sessions()
    return InteractiveResult(
        manual_served=len(manual),
        gpunion_served=len(gpunion),
        manual_by_group=_by_group(manual, owning_labs),
        gpunion_by_group=_by_group(gpunion, owning_labs),
    )
