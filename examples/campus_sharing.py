#!/usr/bin/env python
"""Campus-scale sharing: the paper's §4 deployment in miniature.

Replays one week of campus demand over the 11-server fleet twice —
once under manual coordination (each lab on its own hardware), once
under GPUnion — and prints the per-lab utilization comparison that
Fig. 2 reports.

Run with:  python examples/campus_sharing.py    (a few seconds)
"""

from repro.analysis import render_table
from repro.experiments import run_fig2


def main():
    result = run_fig2(seed=42, weeks=1)
    print(render_table(
        result.rows(),
        title="GPU utilization by research group (1 simulated week)",
    ))
    print()
    print(f"overall: {result.manual_overall:.0%} -> "
          f"{result.gpunion_overall:.0%} "
          f"(+{result.improvement_points:.0f} percentage points)")
    print(f"interactive sessions served: {result.manual_sessions_served} "
          f"-> {result.gpunion_sessions_served}")
    print(f"jobs denied under manual coordination: "
          f"{result.manual_jobs_denied}")
    print(f"jobs completed under GPUnion: {result.gpunion_jobs_completed}")
    print()
    print("The GPU farm ('ml-infra') was nearly idle before sharing;")
    print("compute-poor labs ('theory', 'hci') had nowhere to run at all.")


if __name__ == "__main__":
    main()
