"""The server side of ``service-open-loop``, run as a child process.

Starts a free-running :class:`~repro.server.SimulationServer` on the
demo scenario with tracing off, prints ``{"url": ...}`` as one JSON
line, and serves.  Each ``rss`` line on standard input is answered
with the peak RSS so far; any other line stops the server, which then
prints one JSON report: the audit, every API job's final status, the
simulated seconds covered and, with ``--trace 1``, the per-layer
table (lock waits come from a timing wrapper installed on the
server's public ``lock`` attribute before it starts).

Usage: ``python3 perfbench/service_child.py --seed N --trace 0|1``
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from common import peak_rss_mib, percentile  # noqa: E402
from layers import (LayerProbe, check_self_times, instrument,  # noqa: E402
                    layer_metrics)

#: Unplaced requests per site before ``POST /jobs`` answers 429.
MAX_QUEUE_DEPTH = 64


class TimedLock:
    """A lock that records how long each acquisition waited."""

    def __init__(self, inner):
        self._inner = inner
        self.waits = []

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        started = perf_counter()
        acquired = self._inner.acquire(blocking, timeout)
        self.waits.append(perf_counter() - started)
        return acquired

    def release(self) -> None:
        self._inner.release()

    def __enter__(self):
        self.acquire()
        return self

    def __exit__(self, *exc) -> None:
        self.release()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    from repro.observability import KernelProfile
    from repro.scenarios import example_scenario
    from repro.server import SimulationServer

    probe = LayerProbe() if args.trace else None
    with instrument(probe) if probe else nullcontext():
        server = SimulationServer(example_scenario(trace=False),
                                  seed=args.seed, trace=False,
                                  max_queue_depth=MAX_QUEUE_DEPTH)
        profile = None
        if probe is not None:
            profile = KernelProfile()
            server.deployment.env.hooks = profile
            server.lock = TimedLock(server.lock)
        sim_start = server.deployment.env.now
        url = server.start()
        started = perf_counter()
        print(json.dumps({"url": url}), flush=True)
        for line in sys.stdin:
            if line.strip() != "rss":
                break
            print(json.dumps({"peak_rss_mib": peak_rss_mib()}), flush=True)
        server.stop()
        wall = perf_counter() - started

    report = {
        "sim_seconds": server.deployment.env.now - sim_start,
        "wall_s": wall,
    }
    if probe is not None:
        metrics = layer_metrics(probe, profile, [server.deployment],
                                report["sim_seconds"], wall)
        metrics["server.driver_hold_s"] = probe.seconds("sim.run")
        waits = server.lock.waits
        metrics["server.lock_wait_p50_s"] = percentile(waits, 50)
        metrics["server.lock_wait_p99_s"] = percentile(waits, 99)
        report["layers"] = metrics
        report["self_time_problems"] = check_self_times(probe.clock, wall)
    report["audit"] = server.audit()
    with server.lock:
        code, _type, body, _headers = server.route_jobs("GET", "/jobs", None)
    statuses = {}
    for job in json.loads(body)["jobs"]:
        statuses[job["status"]] = statuses.get(job["status"], 0) + 1
    report["statuses"] = statuses
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
