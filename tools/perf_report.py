#!/usr/bin/env python3
"""Run the two wall-clock perf gates and write ``BENCH_perf.json``.

* **Churn speedup** — the flow-churn microbench
  (``benchmarks/bench_perf_core``) at ``MICRO_QUICK`` scale on the
  optimized engine and on the preserved reference engine, in the same
  run on the same machine.  The churn-phase speedup must reach
  :data:`CHURN_SPEEDUP_MIN`, and both engines must count the same
  reallocations: the same simulated work, for less wall-clock.
* **NoopHooks overhead** — the share of that optimized churn run's
  wall-clock that attached-but-inert
  :class:`~repro.observability.NoopHooks` would cost, which must stay
  under :data:`HOOKS_SHARE_MAX`.  A whole churn run varies by far more
  than 3 % between runs, so the per-event cost is measured on a
  kernel-dispatch microbench instead (the minimum of many short,
  interleaved repeats), with an A/A arm beside it as the noise floor,
  and then scaled by the churn run's event count.  When that floor
  itself reaches the bound, the gate is "unresolved" and fails.

Usage::

    PYTHONPATH=src python tools/perf_report.py

Exits non-zero when any gate fails or is unresolved.  Wall-clock
seconds in the report are informational; the gates are ratios within
one run, so they hold across machines of different speeds.
"""

from __future__ import annotations

import argparse
import gc
import json
import platform as host_platform
import sys
from pathlib import Path
from time import perf_counter

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

#: The optimized engine's churn-phase speedup over the reference must
#: reach this: half the 11.61x recorded when the gate was set.
CHURN_SPEEDUP_MIN = 5.8

#: Attached :class:`NoopHooks` may cost at most this share of the
#: churn run's wall-clock: the "zero cost when disabled" promise.
HOOKS_SHARE_MAX = 0.03

#: The dispatch microbench: processes that each wait on this many
#: timeouts, so every dispatch is one schedule and one fire.
DISPATCH_PROCESSES = 50
DISPATCH_TICKS = 400

#: Interleaved repeats per arm; each arm's minimum is kept.
DISPATCH_REPEATS = 30


def _ticker(env, index):
    delay = 1.0 + (index % 7) * 0.1
    for _ in range(DISPATCH_TICKS):
        yield env.timeout(delay)


def _dispatch_env(hooks):
    from repro.sim import Environment

    env = Environment(hooks=hooks)
    for index in range(DISPATCH_PROCESSES):
        env.process(_ticker(env, index))
    return env


def _dispatch_wall(hooks) -> float:
    """Wall seconds to drain the dispatch microbench, collector paused
    as :mod:`timeit` does."""
    env = _dispatch_env(hooks)
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = perf_counter()
        env.run()
        return perf_counter() - started
    finally:
        if enabled:
            gc.enable()


def measure_dispatch_cost() -> dict:
    """Per-event cost of attached ``NoopHooks`` (A/B) and of nothing
    at all (A/A, two ``hooks=None`` arms), in seconds per event.

    The three arms run interleaved, in reversed order on every other
    repeat, so drift hits each arm alike; each keeps its minimum.
    """
    from repro.observability import KernelProfile, NoopHooks

    profile = KernelProfile()
    _dispatch_env(profile).run()
    events = profile.events_dispatched
    arms = {"none_a": lambda: None, "noop": NoopHooks, "none_b": lambda: None}
    best = {name: float("inf") for name in arms}
    order = list(arms)
    for _ in range(DISPATCH_REPEATS):
        for name in order:
            best[name] = min(best[name], _dispatch_wall(arms[name]()))
        order.reverse()
    return {
        "events": events,
        "repeats": DISPATCH_REPEATS,
        "none_wall_seconds": round(best["none_a"], 6),
        "noop_wall_seconds": round(best["noop"], 6),
        "per_event_seconds": round((best["noop"] - best["none_a"]) / events,
                                   12),
        "aa_per_event_seconds": round(
            (best["none_b"] - best["none_a"]) / events, 12),
    }


def hooks_verdict(share: float, floor: float) -> str:
    """``"unresolved"`` when the A/A floor reaches the bound (the
    measurement cannot tell 3 % from noise), else ``"pass"`` or
    ``"fail"`` by the NoopHooks share."""
    if floor >= HOOKS_SHARE_MAX:
        return "unresolved"
    return "pass" if share < HOOKS_SHARE_MAX else "fail"


def speedup_verdict(speedup: float, reallocations: int,
                    reference_reallocations: int) -> str:
    """``"pass"`` when the engines did the same simulated work (equal
    reallocation counts) and the speedup reaches the bound."""
    if reallocations != reference_reallocations:
        return "fail"
    return "pass" if speedup >= CHURN_SPEEDUP_MIN else "fail"


def run_gates() -> dict:
    from bench_perf_core import MICRO_QUICK, run_flow_churn
    from repro.network import FlowNetwork
    from repro.network._reference import ReferenceFlowNetwork

    print(f"[perf] flow churn: {MICRO_QUICK}", flush=True)
    optimized = run_flow_churn(FlowNetwork, **MICRO_QUICK)
    reference = run_flow_churn(ReferenceFlowNetwork, **MICRO_QUICK)
    speedup = round(reference["churn_wall_seconds"]
                    / optimized["churn_wall_seconds"], 2)
    churn = {
        "optimized": optimized,
        "reference": reference,
        "churn_speedup": speedup,
        "gate_min": CHURN_SPEEDUP_MIN,
        "verdict": speedup_verdict(speedup, optimized["reallocations"],
                                   reference["reallocations"]),
    }
    print(f"[perf]   churn {optimized['churn_wall_seconds']}s optimized, "
          f"{reference['churn_wall_seconds']}s reference -> {speedup}x "
          f"(gate >= {CHURN_SPEEDUP_MIN}x); reallocations "
          f"{optimized['reallocations']} vs {reference['reallocations']}: "
          f"{churn['verdict']}", flush=True)

    cost = measure_dispatch_cost()
    # Hooks run once per kernel step and once per reallocation.
    events_per_second = ((optimized["churn_steps"]
                          + optimized["reallocations"])
                         / optimized["churn_wall_seconds"])
    share = cost["per_event_seconds"] * events_per_second
    floor = abs(cost["aa_per_event_seconds"]) * events_per_second
    hooks = dict(cost, share=round(share, 6), aa_floor=round(floor, 6),
                 gate_max=HOOKS_SHARE_MAX,
                 verdict=hooks_verdict(share, floor))
    print(f"[perf]   NoopHooks {cost['per_event_seconds'] * 1e9:.0f} ns/event "
          f"(A/A {cost['aa_per_event_seconds'] * 1e9:.0f} ns) over "
          f"{cost['events']} dispatches -> {share * 100:.3f}% of the churn "
          f"wall, A/A floor {floor * 100:.3f}% (gate < "
          f"{HOOKS_SHARE_MAX * 100:.0f}%): {hooks['verdict']}", flush=True)
    return {"flow_churn": churn, "hooks_overhead": hooks}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=Path("BENCH_perf.json"),
                        help="where to write the report")
    args = parser.parse_args(argv)
    report = {
        "bench": "perf_core",
        "schema": 2,
        "host": {"python": host_platform.python_version(),
                 "machine": host_platform.machine()},
    }
    report.update(run_gates())
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"[perf] wrote {args.out}")
    status = 0
    if report["flow_churn"]["verdict"] != "pass":
        print("[perf] FAIL: the optimized engine's churn speedup or its "
              "reallocation count no longer matches the gate")
        status = 1
    verdict = report["hooks_overhead"]["verdict"]
    if verdict == "unresolved":
        print("[perf] UNRESOLVED: the A/A noise floor reaches the NoopHooks "
              "bound, so this host cannot tell the overhead from noise")
        status = 1
    elif verdict == "fail":
        print("[perf] FAIL: attached NoopHooks cost "
              f"{HOOKS_SHARE_MAX * 100:.0f}% or more of the churn wall")
        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
