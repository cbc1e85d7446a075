"""Property-based tests on core invariants (hypothesis)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.checkpoint import IncrementalPlan
from repro.errors import NetworkError
from repro.network import CampusLAN, FlowNetwork, WanTopology, max_min_rates
from repro.network._reference import reference_max_min_rates
from repro.network.flows import Flow
from repro.sim import Environment
from repro.storage import CheckpointRecord, CheckpointStore, Volume
from repro.units import GIB, MIB, gbps, mbps
from repro.workloads import RESNET50


# -- flow engine ----------------------------------------------------------


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=5),  # src host index
            st.integers(min_value=0, max_value=5),  # dst host index
            st.floats(min_value=1.0, max_value=500 * MIB),  # size
            st.floats(min_value=0.0, max_value=30.0),  # start offset
        ),
        min_size=1,
        max_size=12,
    )
)
@settings(max_examples=40, deadline=None)
def test_flow_engine_conserves_bytes_and_completes(transfers):
    """Every cross-host transfer completes and delivers its exact size."""
    env = Environment()
    lan = CampusLAN(default_latency=0.0)
    for index in range(6):
        lan.attach(f"h{index}", access_capacity=gbps(1))
    net = FlowNetwork(env, lan)
    delivered = []
    net.add_observer(lambda flow, delta: delivered.append(delta))
    events = []

    def submit(env):
        now = 0.0
        for src, dst, size, offset in sorted(transfers, key=lambda t: t[3]):
            if offset > now:
                yield env.timeout(offset - now)
                now = offset
            events.append(net.transfer(f"h{src}", f"h{dst}", size))

    env.process(submit(env))
    env.run()
    assert all(event.triggered and event.ok for event in events)
    total = sum(size for _, _, size, _ in transfers)
    assert sum(delivered) == pytest.approx(total, rel=1e-6)
    assert net.active_flows == []


@given(
    st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3)),
        min_size=1, max_size=8,
    )
)
@settings(max_examples=50, deadline=None)
def test_max_min_rates_never_oversubscribe_links(pairs):
    """Sum of flow rates on any link never exceeds its capacity."""
    env = Environment()
    lan = CampusLAN(backbone_capacity=gbps(2))
    for index in range(4):
        lan.attach(f"h{index}", access_capacity=gbps(1))
    flows = []
    for src, dst in pairs:
        if src == dst:
            continue
        flows.append(Flow(env, f"h{src}", f"h{dst}", 1 * GIB,
                          lan.path(f"h{src}", f"h{dst}"), "data"))
    if not flows:
        return
    rates = max_min_rates(flows)
    per_link = {}
    for flow in flows:
        for link in flow.links:
            per_link[link] = per_link.get(link, 0.0) + rates[flow]
    for link, load in per_link.items():
        assert load <= link.capacity * (1 + 1e-9)
    # Work conservation: every flow gets a strictly positive rate.
    assert all(rates[flow] > 0 for flow in flows)


PERTURBATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("arrive"), st.integers(0, 6), st.integers(0, 6),
                  st.floats(min_value=1.0, max_value=200 * MIB)),
        st.tuples(st.just("kill"), st.integers(0, 6)),
        st.tuples(st.just("migrate"), st.integers(0, 4)),
        st.tuples(st.just("advance"),
                  st.floats(min_value=0.0, max_value=2.0)),
    ),
    min_size=1,
    max_size=40,
)


@pytest.mark.parametrize("fabric", ("lan", "wan"))
@given(steps=PERTURBATIONS)
@settings(max_examples=40, deadline=None)
def test_engine_rates_equal_reference_after_every_perturbation(fabric,
                                                              steps):
    """Without observers (lazy settling), after every arrival, kill,
    route migration and stretch of progress, every live flow's rate
    equals the reference allocator's over all live flows, exactly."""
    env = Environment()
    if fabric == "lan":
        topology = CampusLAN(backbone_capacity=gbps(3))
        sites = [f"h{i}" for i in range(7)]
        for i, name in enumerate(sites):
            topology.attach(name, access_capacity=gbps(1 + i % 3))
        # One route per pair: migration re-pins flows in place.
        edges = [(sites[0], sites[i]) for i in range(1, 6)]
    else:
        topology = WanTopology(default_capacity=mbps(400))
        sites = ["a", "b", "c", "d", "e", "f", "g"]
        edges = [("a", "b"), ("c", "d"), ("e", "f"), ("f", "g"),
                 ("e", "g")]
        for x, y in edges:
            topology.connect(x, y)
    net = FlowNetwork(env, topology)
    for step in steps:
        kind = step[0]
        if kind == "arrive":
            try:
                net.transfer(sites[step[1]], sites[step[2]], step[3])
            except NetworkError:
                pass  # no live route between the two sites
        elif kind == "kill":
            net.kill_host_flows(sites[step[1]])
        elif kind == "migrate":
            x, y = edges[step[1]]
            if fabric == "lan":
                links = topology.path(x, y)
            else:
                if topology.is_severed(x, y):
                    topology.heal(x, y)
                else:
                    topology.sever(x, y)
                links = {topology.link(x, y), topology.link(y, x)}
            net.migrate_flows_on(
                links, lambda flow: topology.path(flow.src, flow.dst))
        else:
            env.run(until=env.now + step[1])
        live = net.active_flows
        expected = reference_max_min_rates(live)
        assert [flow.rate for flow in live] == [expected[flow]
                                                for flow in live]


# -- checkpoint store ---------------------------------------------------------


@given(st.lists(st.booleans(), min_size=1, max_size=20),
       st.integers(min_value=1, max_value=6))
@settings(max_examples=50, deadline=None)
def test_restore_chain_always_starts_with_full(incremental_flags, keep):
    """Whatever the add/prune history, the restore chain is valid:
    starts with a full record, versions strictly increase, and ends at
    the latest version."""
    env = Environment()
    store = CheckpointStore("nas", Volume(env, "d"), keep_versions=keep)
    last_full = None
    for version, wants_incremental in enumerate(incremental_flags, start=1):
        incremental = wants_incremental and last_full is not None
        record = CheckpointRecord(
            job_id="job", version=version, created_at=float(version),
            nbytes=100 * MIB if incremental else 1 * GIB,
            progress=float(version),
            incremental=incremental,
            base_version=last_full if incremental else None,
        )
        store.add(record)
        if not incremental:
            last_full = version
        try:
            chain = store.restore_chain("job")
        except Exception:
            continue  # base pruned: acceptable only if flagged — check
        assert not chain[0].incremental
        versions = [rec.version for rec in chain]
        assert versions == sorted(versions)
        assert chain[-1].version == store.latest("job").version


@given(st.integers(min_value=1, max_value=12))
@settings(max_examples=20, deadline=None)
def test_incremental_plan_mean_bounded(full_every):
    plan = IncrementalPlan(full_every=full_every)
    mean = plan.mean_checkpoint_bytes(RESNET50)
    assert plan.delta_bytes(RESNET50) <= mean <= plan.full_bytes(RESNET50)


# -- utilization meter vs job accounting -------------------------------------------


@given(st.lists(st.floats(min_value=60.0, max_value=7200.0),
                min_size=1, max_size=6))
@settings(max_examples=25, deadline=None)
def test_progress_never_exceeds_total(durations):
    """However jobs are sliced, recorded progress never exceeds spec."""
    from repro.workloads import TrainingJobSpec, TrainingJobState, next_job_id

    total = sum(durations)
    spec = TrainingJobSpec(job_id=next_job_id(), model=RESNET50,
                           total_compute=total)
    state = TrainingJobState(spec)
    for duration in durations:
        state.progress = min(spec.total_compute, state.progress + duration)
        state.checkpointed_progress = state.progress
    assert state.progress <= spec.total_compute + 1e-9
    assert state.is_done
