"""The flow-churn microbench for the simulation core.

Thousands of concurrent transfers over a campus LAN star, with every
completion immediately replaced, so the engine reallocates rates
continuously at full population.  The topology deliberately has many
distinct bottleneck links (fan-in "server" hosts), which is the regime
where the old O(rounds · links · flows) restart collapses.
``tools/perf_report.py`` runs it against both the optimized
:class:`~repro.network.flows.FlowNetwork` and the preserved
:class:`~repro.network._reference.ReferenceFlowNetwork` at
:data:`MICRO_QUICK` scale and gates the speedup; run this module
directly for the optimized engine's buildup and churn wall-clock at
:data:`MICRO_FULL` scale::

    PYTHONPATH=src python benchmarks/bench_perf_core.py
"""

import random
import time

from repro.network import CampusLAN, FlowNetwork
from repro.sim import Environment
from repro.units import GIB, gbps

#: Full-size microbench parameters (5k flows over 500 hosts).
MICRO_FULL = dict(hosts=500, hot_hosts=30, concurrent=5000, churn_events=400)
#: Scaled-down parameters the perf report gates on.
MICRO_QUICK = dict(hosts=120, hot_hosts=10, concurrent=800, churn_events=150)


def run_flow_churn(engine_cls, hosts=500, hot_hosts=30, concurrent=5000,
                   churn_events=400, seed=11, hooks=None):
    """Flow-churn microbench: build up ``concurrent`` flows, then
    replace every completion until ``churn_events`` have completed.

    Returns a dict of wall-clock and throughput numbers for the
    *churn phase* (the steady-state regime the engine lives in) plus
    the total wall-clock including buildup.  ``hooks`` attaches a
    kernel-hooks object to the environment.
    """
    env = Environment(hooks=hooks)
    lan = CampusLAN(backbone_capacity=gbps(200))
    workstations = [f"ws{i}" for i in range(hosts - hot_hosts)]
    servers = [f"srv{i}" for i in range(hot_hosts)]
    for name in workstations + servers:
        lan.attach(name, access_capacity=gbps(1))
    net = engine_cls(env, lan)
    rng = random.Random(seed)
    state = {"completions": 0, "active": 0, "measuring": False}

    def submit():
        src = rng.choice(workstations)
        if rng.random() < 0.72:
            dst = rng.choice(servers)  # fan-in onto a hot downlink
        else:
            dst = src
            while dst == src:
                dst = rng.choice(workstations)
        size = rng.uniform(0.2, 2.0) * GIB
        done = net.transfer(src, dst, size)
        state["active"] += 1
        done.callbacks.append(_on_done)

    def _on_done(event):
        state["active"] -= 1
        if state["measuring"]:
            state["completions"] += 1
        submit()  # every completion is replaced: constant population

    def buildup(env):
        for _ in range(concurrent):
            submit()
            yield env.timeout(rng.expovariate(1.0 / 0.012))

    started = time.perf_counter()
    arrivals = env.process(buildup(env))
    # Drain the buildup arrivals before the churn timer starts.
    while not arrivals.triggered:
        env.step()
    buildup_wall = time.perf_counter() - started
    state["measuring"] = True
    realloc_before = net.reallocations
    churn_started = time.perf_counter()
    steps = 0
    while state["completions"] < churn_events:
        env.step()
        steps += 1
    churn_wall = time.perf_counter() - churn_started
    return {
        "engine": engine_cls.__name__,
        "hosts": hosts,
        "concurrent_flows": concurrent,
        "churn_events": churn_events,
        "buildup_wall_seconds": round(buildup_wall, 3),
        "churn_wall_seconds": round(churn_wall, 3),
        "total_wall_seconds": round(buildup_wall + churn_wall, 3),
        "churn_steps": steps,
        "events_per_sec": round(steps / churn_wall, 1) if churn_wall else None,
        "reallocations": net.reallocations - realloc_before,
        "reallocations_per_sec": (
            round((net.reallocations - realloc_before) / churn_wall, 1)
            if churn_wall else None),
    }


if __name__ == "__main__":
    print(run_flow_churn(FlowNetwork, **MICRO_FULL))
