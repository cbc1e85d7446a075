"""Workload ``federation-day``: the checked-in 4-campus scenario.

Compiles ``federation_day.json`` with the run's seed and runs it to
its horizon, half a simulated hour per timed chunk, as many times as
the run's seconds allow, in two processes at once.  Every repeat does
the same work, so the timings report, chunk by chunk, the least wall
time any repeat took (:func:`common.best_of`).  Tracing is off in the
measured runs.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from time import perf_counter
from typing import List, Tuple

from common import (Outcome, best_of, in_parallel, peak_rss_mib, percentile,
                    tail)
from layers import (LayerProbe, check_self_times, instrument, layer_metrics,
                    ratio)

SPEC_PATH = Path(__file__).with_name("federation_day.json")

#: Simulated seconds per timed chunk.  The 72-hour horizon gives 144
#: chunks, enough for a p90 tail (the highest percentile with at least
#: ten chunks beyond it).
CHUNK = 1800.0

#: Compilations timed per repeat for ``setup_s`` (median reported).
SETUP_REPEATS = 3


def load_spec():
    from repro.scenarios import ScenarioSpec

    return ScenarioSpec.from_dict(json.loads(SPEC_PATH.read_text()))


def compile_timed(spec, seed: int, trace: bool):
    from repro.scenarios import compile_scenario

    started = perf_counter()
    compiled = compile_scenario(spec, seed=seed, trace=trace)
    return compiled, perf_counter() - started


def run_chunks(compiled) -> List[float]:
    """Run to the horizon a chunk at a time; wall seconds per chunk."""
    deployment = compiled.deployment
    walls = []
    now = deployment.env.now
    while now < compiled.horizon:
        until = min(now + CHUNK, compiled.horizon)
        started = perf_counter()
        deployment.run(until=until)
        walls.append(perf_counter() - started)
        now = until
    return walls


def audit(spec, seed: int, compiled) -> Tuple[dict, List[str]]:
    """The runner's invariant audit plus the validity checks."""
    from repro.scenarios import ScenarioRunner

    result = ScenarioRunner(spec, seeds=(seed,)).run_seed(seed, compiled)
    problems = list(result.violations)
    deployment = compiled.deployment
    summary = result.summary
    if summary["federation"]["forwarded"] <= 0:
        problems.append("validity: no job was forwarded")
    if summary["federation"]["relayed"] <= 0:
        problems.append("validity: no job was relayed")
    if interruptions(compiled) <= 0:
        problems.append("validity: no job was interrupted")
    foreign = sum(1 for name, handle in deployment.sites.items()
                  if handle.gateway.sharechain is not None
                  for signed in handle.gateway.sharechain.accepted_entries()
                  if signed.signer != name)
    if foreign <= 0:
        problems.append("validity: no share-chain entry was ingested")
    return summary, problems


def all_jobs(compiled):
    for handle in compiled.deployment.sites.values():
        yield from handle.platform.coordinator.jobs.values()


def interruptions(compiled) -> int:
    return sum(len(state.interruptions) for state in all_jobs(compiled))


def modelled(compiled, summary) -> dict:
    """The paper's headline quantities, deterministic for a seed."""
    from repro.core.migration import build_migration_report

    sessions = [record for handle in compiled.deployment.sites.values()
                for record in handle.platform.coordinator.sessions]
    report = build_migration_report(all_jobs(compiled),
                                    now=compiled.horizon)
    return {
        "gpu_utilization": summary["utilization"]["aggregate"],
        "sessions_served_frac": ratio(
            sum(1 for record in sessions if record.was_served),
            len(sessions)),
        "migration_success_frac": ratio(
            sum(stats.within_deadline for stats in report.values()),
            sum(stats.count for stats in report.values())),
        "jobs_completed_frac": ratio(summary["jobs"]["completed"],
                                     summary["jobs"]["planned"]),
    }


def measure(seed: int, seconds: float) -> dict:
    """One copy's untraced repeats of the scenario, for ``seconds``."""
    spec = load_spec()
    part = {"setups": [], "repeats": [], "horizon": 0.0, "problems": [],
            "summary": None, "figures": None}
    deadline = perf_counter() + seconds
    while True:
        started = perf_counter()
        part["setups"] += [compile_timed(spec, seed, False)[1]
                           for _ in range(SETUP_REPEATS - 1)]
        compiled, setup = compile_timed(spec, seed, False)
        part["setups"].append(setup)
        part["repeats"].append(run_chunks(compiled))
        summary, problems = audit(spec, seed, compiled)
        if part["summary"] is None:
            part["summary"] = summary
            part["horizon"] = compiled.horizon
            part["figures"] = modelled(compiled, summary)
            part["figures"]["forwarded"] = summary["federation"]["forwarded"]
            part["figures"]["relayed"] = summary["federation"]["relayed"]
            part["figures"]["interruptions"] = interruptions(compiled)
        elif summary != part["summary"]:
            problems.append("determinism: a repeat of the same seed "
                            "produced a different summary")
        if problems:
            part["problems"].append("; ".join(problems))
        # Start another repeat only if at least half of it fits.
        if deadline - perf_counter() < (perf_counter() - started) / 2:
            break
    part["rss"] = peak_rss_mib()
    return part


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    if trace:
        return traced(seed)
    parts = in_parallel(__name__, seed, seconds)
    outcome = Outcome()
    for part in parts:
        outcome.attempted += len(part["repeats"])
        for problem in part["problems"]:
            outcome.fail(problem)
        if part["summary"] != parts[0]["summary"]:
            outcome.fail("determinism: two processes given the same seed "
                         "produced different summaries")
    repeats = [walls for part in parts for walls in part["repeats"]]
    chunks = best_of(repeats)
    rate = parts[0]["horizon"] / 3600.0 / sum(chunks)

    p, tail_value, count = tail(chunks)
    for name, value in parts[0]["figures"].items():
        outcome.detail(name, value, "count" if name in (
            "forwarded", "relayed", "interruptions") else "frac")
    outcome.detail("sim_hours_per_s", rate, "sim-h/s")
    outcome.detail("repeats", len(repeats), "count")
    outcome.detail("chunk_samples", count, "count")
    outcome.detail("tail_percentile", p, "pct")
    # Each copy's median set-up; the faster copy's, since one copy can
    # sit on a slow vCPU for a whole run.
    outcome.put("setup_s", min(statistics.median(part["setups"])
                               for part in parts), "s")
    outcome.put("peak_rss_mib", max(part["rss"] for part in parts), "MiB")
    outcome.put("ok_frac", 1.0 - ratio(outcome.failed, outcome.attempted),
                "frac")
    outcome.put("throughput_per_s", rate, "1/s")
    outcome.put("latency_ms", percentile(chunks, 50) * 1e3, "ms")
    outcome.put("latency_tail_ms", tail_value * 1e3, "ms")
    return outcome


def traced(seed: int) -> Outcome:
    """An untraced and a traced repeat in this process; the traced one
    has the spec's span tracing on and feeds the per-layer table.

    Both wall-clocks cover compilation too, since building the
    deployment already calls into the layers (agent registration).
    """
    from repro.observability import KernelProfile

    outcome = Outcome()
    spec = load_spec()
    compiled, untraced_wall = compile_timed(spec, seed, False)
    untraced_wall += sum(run_chunks(compiled))
    _, problems = audit(spec, seed, compiled)
    outcome.attempted += 1
    if problems:
        outcome.fail("; ".join(problems))

    probe = LayerProbe()
    with instrument(probe):
        compiled, wall = compile_timed(spec, seed, True)
        profile = KernelProfile()
        compiled.deployment.env.hooks = profile
        wall += sum(run_chunks(compiled))
    _, problems = audit(spec, seed, compiled)
    problems += check_self_times(probe.clock, wall)
    outcome.attempted += 1
    if problems:
        outcome.fail("; ".join(problems))
    metrics = layer_metrics(probe, profile, [compiled.deployment],
                            compiled.horizon, wall)
    metrics["trace.overhead_frac"] = wall / untraced_wall - 1.0
    for name, value in metrics.items():
        outcome.put(name, value, "")
    return outcome
