#!/usr/bin/env python3
"""Text dashboard over a federation run's fleet telemetry.

Compiles the benchmark's 4-campus federation scenario
(``perfbench/federation_day.json``: provider churn, a flash crowd, a
WAN outage, a gateway crash, multi-hop relays and share-chain
verification) with tracing on, runs it, and renders what a fleet
operator would see: per-campus utilization and queue state, federation
counters, WAN link health, reconciliation backlog, and span tree
health per cross-site job.

Usage::

    PYTHONPATH=src python tools/fleet_report.py                # dashboard
    PYTHONPATH=src python tools/fleet_report.py --hours 72     # whole run
    PYTHONPATH=src python tools/fleet_report.py --trace        # + spans
    PYTHONPATH=src python tools/fleet_report.py --serve        # + HTTP
    PYTHONPATH=src python tools/fleet_report.py --metrics      # raw scrape

``--serve`` keeps the process alive with a live
:class:`~repro.observability.endpoint.StatusEndpoint` bound to the
finished run — handy for poking ``/metrics``, ``/status``, and
``/traces/<job>`` with curl or loading a span tree into Perfetto via
``/traces/<job>/chrome``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

SCENARIO = REPO_ROOT / "perfbench" / "federation_day.json"


def build_run(seed: int, hours: float):
    """Compile the scenario traced, run it ``hours`` simulated hours
    (capped at its horizon) and return the deployment."""
    from repro.scenarios import ScenarioSpec, compile_scenario
    from repro.units import HOUR

    spec = ScenarioSpec.from_dict(json.loads(SCENARIO.read_text()))
    compiled = compile_scenario(spec, seed=seed, trace=True)
    compiled.deployment.run(until=min(hours * HOUR, compiled.horizon))
    return compiled.deployment


def render_dashboard(deployment, show_traces: bool) -> str:
    """The text dashboard: one screen of fleet state."""
    from repro.observability import FleetCollector
    from repro.units import HOUR

    collector = FleetCollector(deployment)
    status = collector.status()
    lines = []
    width = 72
    rule = "=" * width
    thin = "-" * width
    sim_hours = status["sim_time"] / HOUR
    lines.append(rule)
    lines.append(f" GPUnion fleet report — {len(status['sites'])} campuses, "
                 f"t = {sim_hours:.2f} sim-hours")
    lines.append(rule)

    lines.append(" campus        nodes  run  queue  park   util  fwd-out"
                 "  fwd-in  relay")
    lines.append(thin)
    for site, row in status["sites"].items():
        lines.append(
            f" {site:<12} {row['nodes']:>5} {row['jobs_running']:>4} "
            f"{row['queue_pressure']:>6} {row['parked']:>5} "
            f"{row['gpu_utilization']:>6.1%} {row['forwarded_out']:>8} "
            f"{row['forwarded_in']:>7} {row['relayed_out']:>6}")
    lines.append(thin)

    lines.append(" credit ledger (GPU-hours, net):")
    for site, row in status["sites"].items():
        bar = "+" if row["credit_balance"] >= 0 else "-"
        lines.append(f"   {site:<12} {row['credit_balance']:>+9.3f}  {bar}")

    lines.append(thin)
    lines.append(" WAN links:")
    for link in status["wan"]["links"]:
        state = "up  " if link["up"] else "DOWN"
        lines.append(f"   {link['link']:<24} {state}  "
                     f"{link['bytes'] / 1e9:>8.2f} GB carried")
    if status["wan"]["severed_pairs"]:
        lines.append(f"   severed now: "
                     f"{', '.join(status['wan']['severed_pairs'])}")

    lines.append(thin)
    backlog = status["unresolved"]
    lines.append(f" reconciliation backlog: {backlog} "
                 f"({'clean' if backlog == 0 else 'open work'})  |  "
                 f"duplicate executions: "
                 f"{len(deployment.duplicate_executions())}")

    if "sharechain" in status:
        lines.append(thin)
        lines.append(" share-chain verification:")
        lines.append("   campus        height  rejected  blocked peers")
        for site, row in status["sharechain"].items():
            blocked = ", ".join(
                f"{peer} ({state})"
                for peer, state in row["peer_states"].items()) or "-"
            lines.append(f"   {site:<12} {row['height']:>7} "
                         f"{row['rejected_total']:>9}  {blocked}")
        reasons: dict = {}
        for row in status["sharechain"].values():
            for reason, count in row["rejected"].items():
                reasons[reason] = reasons.get(reason, 0) + count
        if reasons:
            lines.append("   rejections by reason: " + ", ".join(
                f"{reason}={count}"
                for reason, count in sorted(reasons.items())))

    if "traces" in status:
        traces = status["traces"]
        lines.append(thin)
        lines.append(f" tracing: {traces['count']} traces, "
                     f"{traces['spans']} spans, "
                     f"{traces['open_spans']} open, "
                     f"{traces['orphan_spans']} orphans")
        if show_traces and deployment.tracer is not None:
            lines.extend(_render_span_trees(deployment.tracer))

    if "kernel" in status:
        kernel = status["kernel"]
        lines.append(thin)
        lines.append(f" kernel: {kernel['events_dispatched']} dispatches, "
                     f"max queue depth {kernel['max_queue_depth']}, "
                     f"{kernel['reallocations']} flow reallocations")
    lines.append(rule)
    return "\n".join(lines)


def _render_span_trees(tracer, limit: int = 6) -> list:
    """Indented span trees for the first ``limit`` multi-span traces."""
    lines = [" span trees (cross-site jobs first):"]
    shown = 0
    trace_ids = sorted(tracer.trace_ids(),
                       key=lambda t: -len(tracer.spans(t)))
    for trace_id in trace_ids:
        if shown >= limit:
            remaining = len(trace_ids) - shown
            lines.append(f"   ... {remaining} more traces "
                         f"(see /traces on the endpoint)")
            break
        if len(tracer.spans(trace_id)) < 2:
            continue
        shown += 1
        for node in tracer.tree(trace_id):
            lines.extend(_render_tree_node(node, indent=3))
    if shown == 0:
        lines.append("   (no multi-span traces — no job crossed a site)")
    return lines


def _render_tree_node(node: dict, indent: int) -> list:
    dur = ("..." if node["end"] is None
           else f"{node['end'] - node['start']:.1f}s")
    lines = [f"{' ' * indent}{node['name']} @{node['site']} "
             f"[{node['status']}] {dur}"]
    for child in node["children"]:
        lines.extend(_render_tree_node(child, indent + 2))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--hours", type=float, default=24.0,
                        help="simulated hours to run (the scenario "
                             "ends at 72)")
    parser.add_argument("--trace", action="store_true",
                        help="print span trees for cross-site jobs")
    parser.add_argument("--metrics", action="store_true",
                        help="print the raw Prometheus scrape instead")
    parser.add_argument("--serve", action="store_true",
                        help="keep serving /metrics + /status + /traces "
                             "after the run (ctrl-c to stop)")
    parser.add_argument("--port", type=int, default=0,
                        help="port for --serve (default: ephemeral)")
    args = parser.parse_args(argv)

    print(f"[fleet] running {SCENARIO.name}: seed {args.seed}, "
          f"{args.hours} sim-hours", flush=True)
    started = time.perf_counter()
    deployment = build_run(args.seed, args.hours)
    print(f"[fleet] done in {time.perf_counter() - started:.2f}s wall\n",
          flush=True)

    from repro.observability import FleetCollector, StatusEndpoint
    collector = FleetCollector(deployment)
    if args.metrics:
        print(collector.expose())
    else:
        print(render_dashboard(deployment, show_traces=args.trace))

    if args.serve:
        endpoint = StatusEndpoint(collector, port=args.port)
        url = endpoint.start()
        print(f"\n[fleet] serving {url}/metrics  {url}/status  {url}/traces")
        print("[fleet] ctrl-c to stop")
        try:
            while True:
                time.sleep(3600)
        except KeyboardInterrupt:
            endpoint.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
