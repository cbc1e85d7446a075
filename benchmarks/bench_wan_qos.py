"""WAN QoS under bulk saturation and a link flap.

The severed-route fix, measured: a triangle WAN carries a burst of
bulk checkpoint replication while small control RPCs tick alongside.
Mid-run the hot link severs, then heals.  The classed engine must

* keep control latency flat while bulk saturates the path (strict
  priority), where the classless engine makes control queue behind
  checkpoints at a 1/N max-min share;
* migrate the in-flight checkpoints onto the recomputed route instead
  of killing them (every byte delivered exactly once);
* engage the bulk autorate loop (latency-target pacing) and release
  it once the burst drains.
"""

from time import perf_counter

from conftest import run_once

from repro.network import (
    BULK,
    CONTROL,
    BulkAutorate,
    FlowNetwork,
    QoSPolicy,
    WanTopology,
    attach_partition_enforcement,
    attach_wan_meter,
)
from repro.sim import Environment
from repro.units import GIB, MIB, mbps

#: The gated scenario: a short burst and flap.
WAN_QOS_QUICK = dict(bulk_transfers=3, bulk_size=256 * MIB,
                     sever_at=5.0, heal_at=12.0, horizon=300.0)

#: Strict priority must buy at least this control-latency factor over
#: the classless engine on the saturated path.  Probes are sized so
#: transmission time dominates propagation latency (4 MiB state
#: syncs, not bare RPCs) — the queueing contrast is what's gated.
CONTROL_SPEEDUP_MIN = 2.0

#: The classed engine's mean control latency on :data:`WAN_QOS_QUICK`
#: may not exceed 1.5x its recorded 0.10796 s (the run is
#: deterministic, so the recorded value is exact).
CONTROL_MEAN_LATENCY_MAX = 1.5 * 0.10796


def run_wan_qos(qos=True, autorate=True, bulk_transfers=6,
                bulk_size=1 * GIB, control_interval=0.5,
                control_size=4 * MIB, sever_at=20.0, heal_at=60.0,
                horizon=1200.0):
    """One scenario run; returns a metrics dict.

    ``qos=False`` runs the identical scenario on a classless fabric —
    the baseline arm for the control-latency comparison (autorate
    requires a classed fabric, so it is skipped there).
    """
    env = Environment()
    wan = WanTopology()
    wan.connect("origin", "hub", capacity=mbps(400), latency=0.010)
    wan.connect("hub", "backup", capacity=mbps(400), latency=0.010)
    wan.connect("origin", "backup", capacity=mbps(400), latency=0.060)
    fabric = FlowNetwork(env, wan, qos=QoSPolicy() if qos else None)
    attach_wan_meter(fabric)
    attach_partition_enforcement(fabric, wan)
    pacer = (BulkAutorate(env, fabric, wan) if qos and autorate else None)

    bulk_done = []
    control_latencies = []

    def bulk_driver(env):
        events = []
        for _ in range(bulk_transfers):
            events.append(fabric.transfer(
                "origin", "backup", bulk_size,
                category="federation-checkpoint"))
            yield env.timeout(0.1)
        for event in events:
            yield event
            bulk_done.append(event.ok)

    def control_driver(env):
        # Probe until the bulk burst drains (plus one final probe).
        while len(bulk_done) < bulk_transfers and env.now < horizon:
            started = env.now
            done = fabric.transfer("origin", "backup", control_size,
                                   category="control")
            yield done
            control_latencies.append(env.now - started)
            yield env.timeout(control_interval)

    def flapper(env):
        yield env.timeout(sever_at)
        wan.sever("hub", "backup")
        yield env.timeout(heal_at - sever_at)
        wan.heal("hub", "backup")

    env.process(bulk_driver(env))
    env.process(control_driver(env))
    env.process(flapper(env))
    wall_started = perf_counter()
    env.run(until=horizon)
    wall = perf_counter() - wall_started

    saturated = [l for l in control_latencies if l > 0]
    metrics = {
        "qos": qos,
        "sim_seconds": round(env.now, 3),
        "wall_seconds": round(wall, 3),
        "bulk_transfers": bulk_transfers,
        "bulk_completed": sum(bulk_done),
        "flows_migrated": fabric.flows_migrated,
        "control_probes": len(control_latencies),
        "control_mean_latency": round(
            sum(saturated) / len(saturated), 6) if saturated else 0.0,
        "control_max_latency": round(max(saturated), 6) if saturated
        else 0.0,
    }
    if qos:
        metrics["class_bytes"] = {
            cls: round(total, 1)
            for cls, total in sorted(fabric.class_bytes.items())}
        metrics["class_flows_started"] = dict(
            sorted(fabric.class_flows_started.items()))
    if pacer is not None:
        metrics["autorate"] = {
            "samples": pacer.samples,
            "backoffs": pacer.backoffs,
            "recoveries": pacer.recoveries,
            "engaged_at_end": pacer.engaged,
            "last_inflation": round(pacer.last_inflation, 3),
        }
    return metrics


def test_wan_qos_saturation_and_flap(benchmark):
    classed = run_once(benchmark, run_wan_qos, **WAN_QOS_QUICK)
    classless = run_wan_qos(qos=False, **WAN_QOS_QUICK)

    print(f"\n[wan-qos] classed:   {classed}")
    print(f"[wan-qos] classless: {classless}")

    # Every checkpoint survived the flap in both arms (migration is an
    # engine property, not a QoS one) and the flap actually rerouted
    # in-flight flows.
    for arm in (classed, classless):
        assert arm["bulk_completed"] == arm["bulk_transfers"]
        assert arm["flows_migrated"] >= 1
    # Strict priority holds: control probes ride over saturated bulk
    # at a fraction of the classless engine's queueing latency.
    assert classed["control_mean_latency"] > 0
    speedup = (classless["control_mean_latency"]
               / classed["control_mean_latency"])
    print(f"[wan-qos] control latency speedup: {speedup:.1f}x "
          f"(gate >= {CONTROL_SPEEDUP_MIN}x)")
    assert speedup >= CONTROL_SPEEDUP_MIN
    assert classed["control_mean_latency"] <= CONTROL_MEAN_LATENCY_MAX
    # The autorate loop engaged under saturation, backed bulk off, and
    # released once the burst drained.
    pacer = classed["autorate"]
    assert pacer["backoffs"] >= 1
    assert pacer["recoveries"] >= 1
    assert not pacer["engaged_at_end"]
    # Per-class accounting saw both classes.
    assert classed["class_bytes"][BULK] > classed["class_bytes"][CONTROL] > 0
    assert classed["class_flows_started"][CONTROL] == \
        classed["control_probes"]
