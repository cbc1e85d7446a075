"""Golden-trace equivalence: optimized flow engine vs the reference.

The optimized :class:`~repro.network.flows.FlowNetwork` (heap-driven
allocation, component-scoped reallocation, lazy settling) must be
*indistinguishable* from the preserved restart implementation in
:mod:`repro.network._reference`:

* with any observer registered (every platform attaches a traffic
  meter), traces are required to be **bit-identical** — same event
  times, same observer deltas, same completion order, same final byte
  counts — across randomized churn scenarios and a full federated
  chaos run;
* with no observers (lazy settling), flows in quiet components are
  deliberately not chopped at foreign events, so completion
  *timestamps* may differ from the reference in the last float ulp;
  everything else (event structure, completion order, delivered
  bytes) must still match exactly.
"""

import math
import random
import re
import struct

import pytest

import repro.core.platform as platform_module
import repro.federation.deployment as deployment_module
from repro.agent import BehaviorProfile
from repro.core.partition import LinkOutage, PartitionSchedule
from repro.federation import FederatedDeployment, FederationConfig
from repro.gpu import RTX_3090, RTX_4090
from repro.network import CampusLAN, FlowNetwork, WanTopology, max_min_rates
from repro.network.flows import Flow
from repro.network._reference import (
    ReferenceFlowNetwork,
    reference_max_min_rates,
)
from repro.sim import Environment
from repro.units import HOUR, MIB, MINUTE, gbps, mbps
from repro.workloads import RESNET50, UNET_SEG, next_job_id
from repro.workloads.training import TrainingJobSpec

ENGINES = (ReferenceFlowNetwork, FlowNetwork)


# -- allocator equivalence -------------------------------------------------

def random_flow_population(seed, hosts=14, flows=60):
    env = Environment()
    lan = CampusLAN(backbone_capacity=gbps(8))
    rng = random.Random(seed)
    names = [f"h{i}" for i in range(hosts)]
    for name in names:
        lan.attach(name, access_capacity=gbps(rng.choice((1, 2, 10))))
    population = []
    for i in range(flows):
        src, dst = rng.sample(names, 2)
        population.append(
            Flow(env, src, dst, rng.uniform(1, 500) * MIB,
                 lan.path(src, dst), "data"))
    return population


@pytest.mark.parametrize("seed", range(25))
def test_max_min_rates_matches_reference_bitwise(seed):
    """The heap-driven allocator reproduces the naive restart exactly:
    same divisions, same tie-breaks, same floats."""
    population = random_flow_population(seed)
    fast = max_min_rates(population)
    slow = reference_max_min_rates(population)
    assert fast == slow  # exact float equality, every flow


def test_max_min_rates_empty_and_linkless():
    env = Environment()
    local = Flow(env, "a", "a", 100.0, [], "data")
    assert max_min_rates([]) == {}
    assert max_min_rates([local]) == {local: math.inf}


# -- engine trace equivalence ----------------------------------------------

def run_lan_churn(engine_cls, seed, observers):
    """Randomized LAN churn: arrivals, contention, and host kills."""
    env = Environment()
    lan = CampusLAN(backbone_capacity=gbps(6))
    hosts = [f"h{i}" for i in range(12)]
    for i, name in enumerate(hosts):
        lan.attach(name, access_capacity=gbps(1 + (i % 3)))
    net = engine_cls(env, lan)
    trace = []
    if observers:
        net.add_observer(
            lambda flow, delta: trace.append(("obs", env.now,
                                              flow.flow_id, delta)))
    rng = random.Random(seed)

    def record(event):
        if event.ok:
            flow = event.value
            trace.append(("done", env.now, flow.flow_id, flow.transferred))
        else:
            trace.append(("fail", env.now, str(event.value)))

    def driver(env):
        for _ in range(120):
            src, dst = rng.sample(hosts, 2)
            done = net.transfer(src, dst, rng.uniform(1, 400) * MIB)
            done.callbacks.append(record)
            yield env.timeout(rng.uniform(0.01, 3.0))
            if rng.random() < 0.1:
                killed = net.kill_host_flows(rng.choice(hosts),
                                             reason="chaos")
                trace.append(("kill", env.now, killed))

    env.process(driver(env))
    env.run()
    trace.append(("end", env.now, net.flows_completed))
    return trace


@pytest.mark.parametrize("seed", range(8))
def test_lan_churn_trace_bit_identical_with_observers(seed):
    reference = run_lan_churn(ReferenceFlowNetwork, seed, observers=True)
    optimized = run_lan_churn(FlowNetwork, seed, observers=True)
    assert optimized == reference  # bit-for-bit, including float times


@pytest.mark.parametrize("seed", range(8))
def test_lan_churn_trace_equivalent_without_observers(seed):
    reference = run_lan_churn(ReferenceFlowNetwork, seed, observers=False)
    optimized = run_lan_churn(FlowNetwork, seed, observers=False)
    assert len(optimized) == len(reference)
    for got, expected in zip(optimized, reference):
        # Same record structure, ids, and kill counts exactly; times
        # and byte totals equal to within float rounding (lazy
        # settling chops flow progress at fewer points, so the last
        # ulp of a completion time or byte count may differ).
        assert len(got) == len(expected)
        for left, right in zip(got, expected):
            if isinstance(left, float):
                assert left == pytest.approx(right, rel=1e-12, abs=1e-12)
            else:
                assert left == right


def ulp_distance(a: float, b: float) -> int:
    """Representable doubles between ``a`` and ``b`` (0 = identical).

    IEEE-754 doubles of one sign compare like their bit patterns read
    as integers, so the bit-pattern gap counts exactly how many
    distinct doubles separate two values — the right ruler for "last
    ulp" claims, where relative tolerances are too blunt.
    """
    ia = struct.unpack("<q", struct.pack("<d", a))[0]
    ib = struct.unpack("<q", struct.pack("<d", b))[0]
    if ia < 0:
        ia = -(ia & 0x7FFFFFFFFFFFFFFF)
    if ib < 0:
        ib = -(ib & 0x7FFFFFFFFFFFFFFF)
    return abs(ia - ib)


def test_lazy_settling_divergence_is_at_most_one_ulp():
    """The unobserved-mode nuance, pinned exactly.

    Lazy settling chops flow progress at fewer points than the
    reference's settle-on-every-event, so a completion time or byte
    count can land on the *neighbouring* double after a different
    association of the same arithmetic.  This pins the full contract:

    * the divergence is real — across the seed sweep some floats do
      differ (if this starts failing with zero diffs, lazy settling
      changed and docs/performance.md's note should be revisited);
    * it never exceeds ONE ulp — anything larger is a genuine
      allocation bug, not float re-association.
    """
    differing = 0
    compared = 0
    for seed in range(8):
        reference = run_lan_churn(ReferenceFlowNetwork, seed,
                                  observers=False)
        optimized = run_lan_churn(FlowNetwork, seed, observers=False)
        assert len(optimized) == len(reference)
        for got, expected in zip(optimized, reference):
            assert len(got) == len(expected)
            for left, right in zip(got, expected):
                if isinstance(left, float):
                    compared += 1
                    distance = ulp_distance(left, right)
                    assert distance <= 1, (seed, left, right, distance)
                    differing += distance > 0
                else:
                    assert left == right
    assert compared > 1000  # the sweep actually exercised float paths
    assert differing > 0, (
        "no ulp divergence left: lazy settling now matches the "
        "reference bitwise — tighten the without-observer golden "
        "tests to exact equality and update docs/performance.md")


def run_fan_in_storm(engine_cls, seed, hosts=40, servers=4,
                     population=150, completions=150):
    """Constant-population fan-in onto a few hot servers, metered:
    every completion is replaced, so one component of ~``population``
    flows is reallocated at every event (the whole-fabric shortcut)."""
    env = Environment()
    lan = CampusLAN(backbone_capacity=gbps(40))
    names = [f"h{i}" for i in range(hosts)]
    for name in names:
        lan.attach(name, access_capacity=gbps(1))
    net = engine_cls(env, lan)
    trace = []
    net.add_observer(
        lambda flow, delta: trace.append(("obs", env.now,
                                          flow.flow_id, delta)))
    rng = random.Random(seed)
    hot, workstations = names[:servers], names[servers:]
    issued = [0]

    def submit():
        src = rng.choice(workstations)
        dst = rng.choice(hot) if rng.random() < 0.72 else src
        while dst == src:
            dst = rng.choice(workstations)
        issued[0] += 1
        done = net.transfer(src, dst, rng.uniform(2, 60) * MIB)
        done.callbacks.append(record)

    def record(event):
        flow = event.value
        trace.append(("done", env.now, flow.flow_id, flow.transferred))
        if issued[0] < population + completions:
            submit()

    def arrive(env):
        for _ in range(population):
            submit()
            yield env.timeout(rng.expovariate(1.0 / 0.01))

    env.process(arrive(env))
    env.run()
    trace.append(("end", env.now, net.flows_completed, net.reallocations))
    return trace


@pytest.mark.parametrize("seed", range(2))
def test_fan_in_storm_trace_bit_identical(seed):
    """The storm shape at small scale: one large component under
    constant-population churn, bit-identical with observers."""
    reference = run_fan_in_storm(ReferenceFlowNetwork, seed)
    optimized = run_fan_in_storm(FlowNetwork, seed)
    assert optimized == reference


def run_wan_churn(engine_cls, seed):
    """Multi-component WAN traffic: disjoint site pairs plus a
    triangle, with sever/heal transitions killing in-flight flows."""
    env = Environment()
    wan = WanTopology(default_capacity=mbps(400))
    wan.connect("a", "b")
    wan.connect("c", "d")
    wan.connect("e", "f")
    wan.connect("f", "g")
    wan.connect("e", "g", latency=0.030)
    routes = [("a", "b"), ("c", "d"), ("e", "f"), ("e", "g"), ("f", "g")]
    net = engine_cls(env, wan)
    trace = []
    net.add_observer(
        lambda flow, delta: trace.append(("obs", env.now,
                                          flow.flow_id, delta)))
    rng = random.Random(seed)

    def record(event):
        if event.ok:
            flow = event.value
            trace.append(("done", env.now, flow.flow_id, flow.transferred))
        else:
            trace.append(("fail", env.now, type(event.value).__name__))

    def driver(env):
        for _ in range(80):
            src, dst = rng.choice(routes)
            if rng.random() < 0.5:
                src, dst = dst, src
            done = net.transfer(src, dst, rng.uniform(1, 80) * MIB)
            done.callbacks.append(record)
            yield env.timeout(rng.uniform(0.05, 2.0))
            if rng.random() < 0.08:
                pair = rng.choice([("e", "f"), ("f", "g")])
                if wan.is_severed(*pair):
                    wan.heal(*pair)
                    trace.append(("heal", env.now, pair))
                else:
                    wan.sever(*pair)
                    trace.append(("sever", env.now, pair))
                    net.kill_flows_on(
                        {wan.link(*pair), wan.link(*reversed(pair))})

    env.process(driver(env))
    env.run()
    trace.append(("end", env.now, net.flows_completed))
    return trace


@pytest.mark.parametrize("seed", range(6))
def test_wan_churn_trace_bit_identical(seed):
    """Disjoint WAN components under sever/heal churn: metered, so the
    engines must chop progress at identical instants."""
    reference = run_wan_churn(ReferenceFlowNetwork, seed)
    optimized = run_wan_churn(FlowNetwork, seed)
    assert optimized == reference


# -- full-stack golden run -------------------------------------------------

def run_federated_chaos(engine_cls, seed=7):
    """A federated chaos scenario (relaying, partitions, provider
    churn) with the flow engine swapped underneath everything."""
    saved = platform_module.FlowNetwork, deployment_module.FlowNetwork
    platform_module.FlowNetwork = engine_cls
    deployment_module.FlowNetwork = engine_cls
    try:
        fed = FederatedDeployment(
            seed=seed,
            federation_config=FederationConfig(
                max_forward_hops=2,
                gossip_interval_min=15.0,
                admission_headroom_horizon=30 * MINUTE,
            ))
        alpha = fed.add_campus("alpha")
        bravo = fed.add_campus("bravo")
        charlie = fed.add_campus("charlie")
        fed.connect("alpha", "bravo")
        fed.connect("bravo", "charlie")
        alpha.platform.add_provider("a-ws", [RTX_3090], lab="vision")
        bravo.platform.add_provider("b-ws1", [RTX_3090], lab="nlp")
        bravo.platform.add_provider("b-ws2", [RTX_3090], lab="nlp")
        charlie.platform.add_provider("c-farm", [RTX_4090] * 3, lab="infra")
        churn = BehaviorProfile(
            events_per_day=6.0,
            p_scheduled=0.3, p_emergency=0.3, p_temporary=0.4,
            mean_temporary_downtime=40 * MINUTE,
            mean_rejoin_delay=30 * MINUTE,
        )
        bravo.platform.add_behavior("b-ws1", churn)
        bravo.platform.add_behavior("b-ws2", churn)
        fed.inject_partitions(PartitionSchedule(outages=(
            LinkOutage("alpha", "bravo", 20 * MINUTE, 15 * MINUTE),
            LinkOutage("bravo", "charlie", 45 * MINUTE, 10 * MINUTE),
        )))
        rng = random.Random(seed)
        models = (RESNET50, UNET_SEG)
        job_ids = []
        for i in range(14):
            site = (alpha, alpha, alpha, bravo, charlie)[i % 5]
            spec = TrainingJobSpec(
                job_id=next_job_id(), model=rng.choice(models),
                total_compute=rng.uniform(0.3, 1.2) * HOUR, lab="vision")
            job_ids.append(spec.job_id)
            site.platform.submit_job(spec)
        fed.run(until=4 * HOUR)
        # Canonicalize generated identifiers (job-NNNN, node-NNNN,
        # ...): their module-global counters carry across the two
        # runs, but everything else must be identical.  Aliases are
        # assigned in first-seen order over the deterministic log, so
        # both runs map matching entities to matching aliases.
        alias = {job_id: f"J{i}" for i, job_id in enumerate(job_ids)}
        counter_id = re.compile(r"^[a-z]+-\d{4,}$")

        def canon(value):
            if isinstance(value, str) and value not in alias \
                    and counter_id.match(value):
                alias[value] = f"id#{len(alias)}"
            return alias.get(value, value)

        log = []
        for name, handle in fed.sites.items():
            for event in handle.platform.events.all():
                payload = tuple(sorted(
                    (key, canon(value))
                    for key, value in event.payload.items()))
                log.append((name, event.timestamp, event.kind, payload))
        summary = (
            fed.aggregate_utilization(),
            fed.wan_bytes(),
            fed.total_forwarded(),
            fed.total_relayed(),
            tuple(sorted(fed.credit_balances().items())),
            fed.unresolved_count(),
            tuple(sorted(
                handle.platform.traffic.total_bytes(category)
                for handle in fed.sites.values()
                for category in handle.platform.traffic.categories)),
        )
        return log, summary
    finally:
        platform_module.FlowNetwork, deployment_module.FlowNetwork = saved


def test_federated_chaos_golden():
    """The flagship invariant: swapping the optimized engine under a
    full federated chaos run (gossip, relays, partitions, checkpoint
    replication, traffic metering) changes nothing — event logs,
    ledger balances, traffic totals, and utilization are identical to
    the last bit."""
    ref_log, ref_summary = run_federated_chaos(ReferenceFlowNetwork)
    opt_log, opt_summary = run_federated_chaos(FlowNetwork)
    assert opt_log == ref_log
    assert opt_summary == ref_summary


# -- QoS allocator + engine equivalence ------------------------------------

from repro.network import (  # noqa: E402  (grouped with the QoS tests)
    BULK,
    QoSPolicy,
    attach_partition_enforcement,
    qos_max_min_rates,
)
from repro.network._reference import reference_qos_max_min_rates

QOS_CATEGORIES = ("control", "rpc", "session", "checkpoint",
                  "federation-checkpoint", "federation-dataset",
                  "image-pull", "data", "mystery")


def random_qos_population(seed, hosts=12, flows=50):
    env = Environment()
    lan = CampusLAN(backbone_capacity=gbps(8))
    rng = random.Random(seed)
    names = [f"h{i}" for i in range(hosts)]
    for name in names:
        lan.attach(name, access_capacity=gbps(rng.choice((1, 2, 10))))
    population = []
    for i in range(flows):
        src, dst = rng.sample(names, 2)
        population.append(
            Flow(env, src, dst, rng.uniform(1, 500) * MIB,
                 lan.path(src, dst), rng.choice(QOS_CATEGORIES)))
    return population


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("strict", (True, False))
def test_qos_rates_match_reference_bitwise(seed, strict):
    """The weighted/strict-priority allocator reproduces its naive
    restart reference float-for-float, with and without class caps."""
    population = random_qos_population(seed)
    policy = QoSPolicy(strict_priority_control=strict)
    fast = qos_max_min_rates(population, policy)
    slow = reference_qos_max_min_rates(population, policy)
    assert fast == slow
    caps = {BULK: mbps(150 + 25 * seed)}
    fast = qos_max_min_rates(population, policy, class_caps=caps)
    slow = reference_qos_max_min_rates(population, policy, class_caps=caps)
    assert fast == slow


def run_qos_lan_churn(engine_cls, seed):
    """LAN churn with a QoS engine: classed arrivals, host kills, and
    live class-cap toggles mid-run."""
    env = Environment()
    lan = CampusLAN(backbone_capacity=gbps(6))
    hosts = [f"h{i}" for i in range(10)]
    for i, name in enumerate(hosts):
        lan.attach(name, access_capacity=gbps(1 + (i % 3)))
    net = engine_cls(env, lan, qos=QoSPolicy())
    trace = []
    net.add_observer(
        lambda flow, delta: trace.append(("obs", env.now,
                                          flow.flow_id, delta)))
    rng = random.Random(seed)

    def record(event):
        if event.ok:
            flow = event.value
            trace.append(("done", env.now, flow.flow_id,
                          flow.transferred, flow.traffic_class))
        else:
            trace.append(("fail", env.now, str(event.value)))

    def driver(env):
        for i in range(100):
            src, dst = rng.sample(hosts, 2)
            done = net.transfer(src, dst, rng.uniform(1, 300) * MIB,
                                category=rng.choice(QOS_CATEGORIES))
            done.callbacks.append(record)
            yield env.timeout(rng.uniform(0.01, 2.5))
            if rng.random() < 0.1:
                killed = net.kill_host_flows(rng.choice(hosts),
                                             reason="chaos")
                trace.append(("kill", env.now, killed))
            if i in (10, 40, 70):
                cap = rng.choice((gbps(0.5), gbps(1), None))
                net.set_class_cap(BULK, cap)
                trace.append(("cap", env.now, cap))

    env.process(driver(env))
    env.run()
    trace.append(("end", env.now, net.flows_completed,
                  tuple(sorted(net.class_bytes.items())),
                  tuple(sorted(net.class_flows_started.items()))))
    return trace


@pytest.mark.parametrize("seed", range(6))
def test_qos_lan_churn_trace_bit_identical(seed):
    reference = run_qos_lan_churn(ReferenceFlowNetwork, seed)
    optimized = run_qos_lan_churn(FlowNetwork, seed)
    assert optimized == reference


def run_wan_migration_churn(engine_cls, seed):
    """WAN sever/heal churn with *migrating* enforcement attached: the
    engines must re-pin the same flows at the same instants, settle the
    same deltas, and doom the same genuinely-partitioned flows."""
    env = Environment()
    wan = WanTopology(default_capacity=mbps(400))
    wan.connect("e", "f")
    wan.connect("f", "g")
    wan.connect("e", "g", latency=0.030)
    wan.connect("g", "island", latency=0.020)
    routes = [("e", "f"), ("e", "g"), ("f", "g"), ("e", "island")]
    net = engine_cls(env, wan, qos=QoSPolicy())
    trace = []
    net.add_observer(
        lambda flow, delta: trace.append(("obs", env.now,
                                          flow.flow_id, delta)))
    attach_partition_enforcement(net, wan)
    rng = random.Random(seed)

    def record(event):
        if event.ok:
            flow = event.value
            trace.append(("done", env.now, flow.flow_id,
                          flow.transferred, flow.migrations))
        else:
            trace.append(("fail", env.now, type(event.value).__name__))

    def driver(env):
        pairs = [("e", "f"), ("f", "g"), ("g", "island")]
        for _ in range(70):
            src, dst = rng.choice(routes)
            if rng.random() < 0.5:
                src, dst = dst, src
            try:
                done = net.transfer(
                    src, dst, rng.uniform(1, 80) * MIB,
                    category=rng.choice(QOS_CATEGORIES))
            except Exception as exc:  # severed at submit time
                trace.append(("reject", env.now, type(exc).__name__))
            else:
                done.callbacks.append(record)
            yield env.timeout(rng.uniform(0.05, 2.0))
            if rng.random() < 0.12:
                pair = rng.choice(pairs)
                if wan.is_severed(*pair):
                    wan.heal(*pair)
                    trace.append(("heal", env.now, pair))
                else:
                    wan.sever(*pair)
                    trace.append(("sever", env.now, pair))

    env.process(driver(env))
    env.run()
    trace.append(("end", env.now, net.flows_completed,
                  net.flows_migrated,
                  tuple(sorted(net.class_bytes.items()))))
    return trace


@pytest.mark.parametrize("seed", range(6))
def test_wan_migration_churn_trace_bit_identical(seed):
    reference = run_wan_migration_churn(ReferenceFlowNetwork, seed)
    optimized = run_wan_migration_churn(FlowNetwork, seed)
    assert optimized == reference
