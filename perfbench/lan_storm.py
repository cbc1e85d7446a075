"""Workload ``lan-transfer-storm``: the flow engine under one component.

One :class:`~repro.network.CampusLAN` (200 Gbps backbone, 1 Gbps
hosts, most flows fanning in onto a few hot servers) is driven only
through ``FlowNetwork.transfer``.  A storm builds up a flow population,
then holds it constant: every completion is replaced by a new flow.
The shared backbone puts every flow in one link-connected component,
so each arrival and completion reallocates the whole population.  Two
processes repeat the same seeded storm back to back; every repeat does
the same work, so the timings report, call by call, the least wall
time any repeat took (:func:`common.best_of`).
"""

from __future__ import annotations

import math
import random
import statistics
from contextlib import nullcontext
from time import perf_counter
from typing import List

from common import (Outcome, best_of, in_parallel, peak_rss_mib, percentile,
                    tail)
from layers import (LayerProbe, check_self_times, instrument, layer_metrics,
                    ratio)

HOSTS = 250
HOT_SERVERS = 15
POPULATION = 1000
#: Share of flows that fan in onto a hot server.
FAN_IN = 0.72
#: Mean simulated gap between buildup arrivals, seconds.
ARRIVAL_GAP = 0.012
#: Completions churned per storm, each replaced by one ``transfer``
#: call; 500 calls give a p95 tail.
CHURN_COMPLETIONS = 500
#: Topology builds timed per storm for ``setup_s`` (median reported).
SETUP_REPEATS = 10
#: Relative error allowed between a completed flow's delivered bytes
#: and its size.  Sizes are floats, and crediting a flow's last stretch
#: can round its total one unit in the last place past the size.
DELIVERY_REL_TOL = 1e-12


def build_topology():
    from repro.network import CampusLAN, FlowNetwork
    from repro.sim import Environment
    from repro.units import gbps

    env = Environment()
    lan = CampusLAN(backbone_capacity=gbps(200))
    workstations = [f"ws{i}" for i in range(HOSTS - HOT_SERVERS)]
    servers = [f"srv{i}" for i in range(HOT_SERVERS)]
    for name in workstations + servers:
        lan.attach(name, access_capacity=gbps(1))
    return env, FlowNetwork(env, lan), workstations, servers


class Storm:
    """One storm: seeded arrivals, a replacement for every completion."""

    def __init__(self, seed: int, clock=None):
        from repro.units import GIB

        self.env, self.net, self.workstations, self.servers = build_topology()
        self.rng = random.Random(seed)
        self.gib = GIB
        self.clock = clock
        self.arrivals = 0
        self.completions = 0
        self.failures: List[str] = []
        #: Wall seconds of each ``transfer`` call in the churn phase.
        self.admit_walls: List[float] = []
        #: When each churn-phase ``transfer`` call started.
        self.admit_starts: List[float] = []
        self.measuring = False

    def submit(self) -> None:
        rng = self.rng
        src = rng.choice(self.workstations)
        if rng.random() < FAN_IN:
            dst = rng.choice(self.servers)
        else:
            dst = src
            while dst == src:
                dst = rng.choice(self.workstations)
        size = rng.uniform(0.2, 2.0) * self.gib
        started = perf_counter()
        done = self.net.transfer(src, dst, size)
        if self.measuring:
            self.admit_starts.append(started)
            self.admit_walls.append(perf_counter() - started)
        self.arrivals += 1
        done.callbacks.append(self._on_done)

    def _on_done(self, event) -> None:
        flow = event.value
        if not event.ok:
            self.failures.append(f"transfer failed: {flow!r}")
        elif not math.isclose(flow.transferred, flow.size,
                              rel_tol=DELIVERY_REL_TOL):
            self.failures.append(
                f"flow {flow.flow_id} delivered {flow.transferred} of "
                f"{flow.size} bytes")
        self.completions += 1
        self.submit()

    def _arrive(self):
        for _ in range(POPULATION):
            self.submit()
            yield self.env.timeout(self.rng.expovariate(1.0 / ARRIVAL_GAP))

    def _span(self):
        return (nullcontext() if self.clock is None
                else self.clock.span("sim.run", "sim"))

    def buildup(self) -> float:
        """Issue the population's arrivals; returns wall seconds."""
        arrivals = self.env.process(self._arrive())
        started = perf_counter()
        with self._span():
            while not arrivals.triggered:
                self.env.step()
        return perf_counter() - started

    def churn(self, completions: int) -> tuple:
        """Step until ``completions`` flows have completed.

        Returns ``(completions, wall seconds)``.
        """
        self.measuring = True
        before = self.completions
        started = perf_counter()
        with self._span():
            while self.completions - before < completions:
                self.env.step()
        return self.completions - before, perf_counter() - started

    def check(self) -> List[str]:
        """Bytes delivered, and live rates equal to the reference."""
        from repro.network._reference import reference_max_min_rates

        problems = list(self.failures)
        flows = self.net.active_flows
        expected = reference_max_min_rates(flows)
        wrong = [flow.flow_id for flow in flows
                 if flow.rate != expected[flow]]
        if wrong:
            problems.append(f"{len(wrong)} live rate(s) differ from the "
                            f"reference allocation, e.g. flow {wrong[0]}")
        return problems


def time_setup() -> float:
    """Wall seconds of one topology build."""
    started = perf_counter()
    build_topology()
    return perf_counter() - started


def measure(seed: int, seconds: float) -> dict:
    """One copy's repeats of the seed's storm, back to back for
    ``seconds``: each builds up its population, then churns
    :data:`CHURN_COMPLETIONS` completions."""
    deadline = perf_counter() + seconds
    part = {"buildups": [], "admits": [], "gaps": [], "arrivals": 0,
            "end": None, "setups": [], "problems": [], "rss": 0.0}
    while True:
        started = perf_counter()
        part["setups"] += [time_setup() for _ in range(SETUP_REPEATS)]
        storm = Storm(seed)
        part["buildups"].append(storm.buildup())
        part["population"] = len(storm.net.active_flows)
        # Read at full population: the churn holds it there.
        part["rss"] = max(part["rss"], peak_rss_mib())
        storm.churn(CHURN_COMPLETIONS)
        part["arrivals"] += storm.arrivals
        part["admits"].append(storm.admit_walls)
        # Wall from each churn call to the next: the call, the steps
        # and the completion that lead to the next call.
        starts = storm.admit_starts
        part["gaps"].append([b - a for a, b in zip(starts, starts[1:])])
        found = problems(storm)
        if part["end"] is None:
            part["end"] = (storm.env.now, len(starts))
        elif (storm.env.now, len(starts)) != part["end"]:
            found.append("determinism: a repeat of the same storm ended "
                         "at a different time or call count")
        part["problems"] += found
        # Start another storm only if at least half of it fits.
        if deadline - perf_counter() < (perf_counter() - started) / 2:
            break
    return part


def problems(storm: Storm) -> List[str]:
    """Every wrong transfer or rate, and a drained population."""
    found = storm.check()
    if not storm.net.active_flows:
        found.append("validity: the population drained")
    return found


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    if trace:
        return traced(seed)
    parts = in_parallel(__name__, seed, seconds)
    outcome = Outcome()
    for part in parts:
        outcome.attempted += part["arrivals"]
        for problem in part["problems"]:
            outcome.fail(problem)
        if part["end"] != parts[0]["end"]:
            outcome.fail("determinism: two processes given the same seed "
                         "ended their storms differently")
    if not outcome.correct:
        return outcome
    admits = best_of([walls for part in parts for walls in part["admits"]])
    gaps = best_of([walls for part in parts for walls in part["gaps"]])
    buildup = min(wall for part in parts for wall in part["buildups"])
    rate = len(gaps) / sum(gaps)

    p, tail_value, count = tail(admits)
    outcome.detail("flow_arrivals_per_s", parts[0]["population"] / buildup,
                   "1/s")
    outcome.detail("flow_completions_per_s", rate, "1/s")
    outcome.detail("population_after_buildup", parts[0]["population"],
                   "count")
    outcome.detail("repeats", sum(len(part["admits"]) for part in parts),
                   "count")
    outcome.detail("admit_samples", count, "count")
    outcome.detail("tail_percentile", p, "pct")
    # Each copy's median set-up; the faster copy's, since one copy can
    # sit on a slow vCPU for a whole run.
    outcome.put("setup_s", min(statistics.median(part["setups"])
                               for part in parts), "s")
    outcome.put("peak_rss_mib", max(part["rss"] for part in parts), "MiB")
    outcome.put("ok_frac", 1.0 - ratio(outcome.failed, outcome.attempted),
                "frac")
    outcome.put("throughput_per_s", rate, "1/s")
    outcome.put("latency_ms", percentile(admits, 50) * 1e3, "ms")
    outcome.put("latency_tail_ms", tail_value * 1e3, "ms")
    return outcome


def traced(seed: int) -> Outcome:
    """An untraced and a traced pass over the same fixed work."""
    from repro.observability import KernelProfile

    outcome = Outcome()
    plain = Storm(seed)
    untraced_wall = plain.buildup() + plain.churn(CHURN_COMPLETIONS)[1]
    outcome.attempted += plain.arrivals
    for problem in problems(plain):
        outcome.fail(problem)

    probe = LayerProbe()
    with instrument(probe):
        storm = Storm(seed, probe.clock)
        profile = KernelProfile()
        storm.env.hooks = profile
        wall = storm.buildup()
        wall += storm.churn(CHURN_COMPLETIONS)[1]
    outcome.attempted += storm.arrivals
    for problem in problems(storm) + check_self_times(probe.clock, wall):
        outcome.fail(problem)
    metrics = layer_metrics(probe, profile, [], storm.env.now, wall)
    metrics["trace.overhead_frac"] = wall / untraced_wall - 1.0
    if metrics["flows.component_flows_max"] < 0.9 * POPULATION:
        outcome.fail("validity: the largest reallocated component holds "
                     f"{metrics['flows.component_flows_max']:.0f} flows, "
                     f"under 90% of the {POPULATION}-flow population")
    for name, value in metrics.items():
        outcome.put(name, value, "")
    return outcome
