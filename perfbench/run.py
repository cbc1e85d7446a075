#!/usr/bin/env python3
"""GPUnion repository benchmark: one entry point, three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload federation-day --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with every layer
untraced; ``--trace 1`` runs the workload once more with the per-layer
spans installed and reports the per-layer table instead.  The tables go
to standard output; its last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The process
exits 0 only when every correctness and validity check held.

``--workload all`` runs every workload untraced and traced and prints
all the tables (the last line then holds every workload's metrics,
prefixed by workload name).

The library is imported from ``src/`` next to this directory; without
it the benchmark exits with code 2 before measuring anything.  See
``perfbench/NOTES.md`` for why each workload exists and which layer
metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Workload name -> module implementing ``run(seed, seconds, trace)``.
WORKLOADS = {
    "federation-day": "federation_day",
    "lan-transfer-storm": "lan_storm",
    "service-open-loop": "service",
}


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    import importlib

    from layers import per_layer_names, unit_of

    outcome = importlib.import_module(WORKLOADS[name]).run(
        seed, seconds, trace)
    if trace:
        measured = outcome.metrics
        outcome.metrics = {}
        for metric in per_layer_names():
            value = measured.get(metric, (0.0, ""))[0]
            outcome.put(metric, value, unit_of(metric))
    return outcome


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"benchmark: no library sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # A termination request unwinds like an error, so every child
    # process is still stopped and reaped on the way out.
    signal.signal(signal.SIGTERM,
                  lambda signum, frame: sys.exit(128 + signum))

    if args.workload != "all":
        outcome = run_workload(args.workload, args.seed, args.seconds,
                               bool(args.trace))
        title = f"{args.workload} seed={args.seed} trace={args.trace}"
        print(outcome.table(title))
        print(outcome.result_line())
        return 0 if outcome.correct else 1

    correct = True
    attempted = failed = 0
    metrics = {}
    for name in WORKLOADS:
        for trace in (False, True):
            outcome = run_workload(name, args.seed, args.seconds, trace)
            print(outcome.table(f"{name} seed={args.seed} trace={int(trace)}"))
            correct = correct and outcome.correct
            attempted += outcome.attempted
            failed += outcome.failed
            for metric, (value, unit) in outcome.metrics.items():
                metrics[f"{name}/{metric}"] = {"value": value, "unit": unit}
    print(json.dumps({"correct": correct, "attempted": max(1, attempted),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
