"""Unit tests for the max-min fair flow engine."""

import random

import pytest

from repro.errors import NetworkError
from repro.network import CampusLAN, FlowNetwork, Link, max_min_rates
from repro.network.flows import Flow
from repro.sim import Environment
from repro.units import GIB, MIB, gbps


def make_net(hosts=("a", "b", "c"), access=gbps(1), backbone=gbps(10), latency=0.0):
    env = Environment()
    lan = CampusLAN(backbone_capacity=backbone, default_latency=latency)
    for host in hosts:
        lan.attach(host, access_capacity=access)
    return env, lan, FlowNetwork(env, lan)


def test_single_flow_takes_access_capacity():
    env, lan, net = make_net()
    done = net.transfer("a", "b", size=gbps(1) * 10)  # 10 s at 1 Gbps
    env.run()
    assert done.triggered and done.ok
    assert env.now == pytest.approx(10.0)


def test_zero_byte_transfer_costs_latency_only():
    env, lan, net = make_net(latency=0.002)
    done = net.transfer("a", "b", size=0)
    env.run()
    assert done.ok
    assert env.now == pytest.approx(0.002)


def test_same_host_transfer_instant():
    env, lan, net = make_net()
    done = net.transfer("a", "a", size=100 * GIB)
    assert done.triggered
    env.run()
    assert env.now == 0.0


def test_negative_size_rejected():
    env, lan, net = make_net()
    with pytest.raises(ValueError):
        net.transfer("a", "b", size=-1)


def test_two_flows_share_common_downlink():
    # a→c and b→c contend on c's downlink: each gets half.
    env, lan, net = make_net()
    size = gbps(1) * 10  # 10 s alone
    d1 = net.transfer("a", "c", size=size)
    d2 = net.transfer("b", "c", size=size)
    env.run()
    assert d1.ok and d2.ok
    assert env.now == pytest.approx(20.0)


def test_disjoint_flows_do_not_contend():
    env, lan, net = make_net(hosts=("a", "b", "c", "d"))
    size = gbps(1) * 10
    d1 = net.transfer("a", "b", size=size)
    d2 = net.transfer("c", "d", size=size)
    env.run()
    assert d1.ok and d2.ok
    assert env.now == pytest.approx(10.0)


def test_backbone_bottleneck():
    # 20 hosts pushing to 20 others through a 10 Gbps backbone:
    # each access link wants 1 Gbps but backbone allows 0.5 Gbps each.
    hosts = [f"h{i}" for i in range(40)]
    env, lan, net = make_net(hosts=hosts)
    size = gbps(1) * 10
    events = [
        net.transfer(f"h{i}", f"h{i + 20}", size=size) for i in range(20)
    ]
    env.run()
    assert all(ev.ok for ev in events)
    assert env.now == pytest.approx(20.0)


def test_late_arrival_slows_first_flow():
    env, lan, net = make_net()
    size = gbps(1) * 10
    d1 = net.transfer("a", "c", size=size)
    finish_times = {}

    def second(env):
        yield env.timeout(5)
        d2 = net.transfer("b", "c", size=size)
        yield d2
        finish_times["second"] = env.now

    def first(env):
        yield d1
        finish_times["first"] = env.now

    env.process(first(env))
    env.process(second(env))
    env.run()
    # First flow: 5 s alone (5 Gb done) + shares with second afterwards.
    # Remaining 5 Gb at 0.5 Gbps → finishes at t=15; second then speeds
    # up to full rate: has 5 Gb done at t=15, 5 Gb left at 1 Gbps → t=20.
    assert finish_times["first"] == pytest.approx(15.0)
    assert finish_times["second"] == pytest.approx(20.0)


def test_kill_host_flows_fails_transfers():
    env, lan, net = make_net()
    d1 = net.transfer("a", "b", size=100 * GIB)
    caught = []

    def waiter(env):
        try:
            yield d1
        except NetworkError as exc:
            caught.append(str(exc))

    def killer(env):
        yield env.timeout(1)
        killed = net.kill_host_flows("b")
        assert killed == 1

    env.process(waiter(env))
    env.process(killer(env))
    env.run()
    assert caught and "killed" in caught[0]
    assert net.active_flows == []


def test_kill_host_flows_spares_others():
    env, lan, net = make_net(hosts=("a", "b", "c", "d"))
    keep = net.transfer("a", "b", size=gbps(1) * 2)

    def killer(env):
        yield env.timeout(0.5)
        net.kill_host_flows("d")  # no flows touch d

    env.process(killer(env))
    env.run()
    assert keep.ok


def test_observer_sees_all_bytes_once():
    env, lan, net = make_net()
    seen = []
    net.add_observer(lambda flow, delta: seen.append(delta))
    size = 512 * MIB
    net.transfer("a", "b", size=size)
    env.run()
    assert sum(seen) == pytest.approx(size)


def test_max_min_rates_direct():
    env = Environment()
    lan = CampusLAN(backbone_capacity=gbps(3))
    lan.attach("a", access_capacity=gbps(1))
    lan.attach("b", access_capacity=gbps(4))
    lan.attach("c", access_capacity=gbps(4))
    f1 = Flow(env, "a", "c", 1e9, lan.path("a", "c"), "data")
    f2 = Flow(env, "b", "c", 1e9, lan.path("b", "c"), "data")
    rates = max_min_rates([f1, f2])
    # f1 capped at 1 Gbps by a's uplink; f2 takes remaining backbone 2 Gbps.
    assert rates[f1] == pytest.approx(gbps(1))
    assert rates[f2] == pytest.approx(gbps(2))


def test_max_min_equal_share_ties_freeze_deterministically():
    """Two equally-constrained links: the one first touched by the
    earliest flow freezes first, every time."""
    env = Environment()
    lan = CampusLAN(backbone_capacity=gbps(100))
    for host in ("a", "b", "c", "d"):
        lan.attach(host, access_capacity=gbps(1))
    # a->b and c->d: both access pairs offer the identical share.
    f1 = Flow(env, "a", "b", 1e9, lan.path("a", "b"), "data")
    f2 = Flow(env, "c", "d", 1e9, lan.path("c", "d"), "data")
    runs = [max_min_rates([f1, f2]) for _ in range(3)]
    for rates in runs:
        assert rates == runs[0]
        assert rates[f1] == pytest.approx(gbps(1))
        assert rates[f2] == pytest.approx(gbps(1))


def test_max_min_zero_capacity_link_yields_zero_rates():
    """A zero-capacity (administratively down) link pins its flows at
    rate zero without disturbing other flows."""
    env = Environment()
    down = Link("down", 0.0)
    live = Link("live", gbps(1))
    stuck = Flow(env, "a", "b", 1e9, [down, live], "data")
    fine = Flow(env, "c", "d", 1e9, [live], "data")
    rates = max_min_rates([stuck, fine])
    assert rates[stuck] == 0.0
    # The stuck flow consumes nothing, so the live link is all fine's.
    assert rates[fine] == pytest.approx(gbps(1))


def test_max_min_disjoint_components_allocate_independently():
    """Allocations in one link component are unaffected by churn in
    another: computing them together or apart gives identical rates."""
    env = Environment()
    left_a, left_b = Link("la", gbps(1)), Link("lb", gbps(2))
    right = Link("r", gbps(3))
    f1 = Flow(env, "a", "b", 1e9, [left_a, left_b], "data")
    f2 = Flow(env, "c", "b", 1e9, [left_b], "data")
    f3 = Flow(env, "x", "y", 1e9, [right], "data")
    f4 = Flow(env, "x", "z", 1e9, [right], "data")
    combined = max_min_rates([f1, f2, f3, f4])
    left_only = max_min_rates([f1, f2])
    right_only = max_min_rates([f3, f4])
    assert combined == {**left_only, **right_only}
    assert combined[f3] == combined[f4] == pytest.approx(gbps(1.5))


def test_max_min_same_link_twice_not_double_counted():
    """A flow routed over the same link twice is one flow consuming
    two traversals: it gets capacity/2, and capacity accounting stays
    conserved for everyone else sharing the link."""
    env = Environment()
    loop = Link("loop", gbps(2))
    doubled = Flow(env, "a", "a2", 1e9, [loop, loop], "data")
    rates = max_min_rates([doubled])
    assert list(rates) == [doubled]
    assert rates[doubled] == pytest.approx(gbps(1))
    # Shared with a plain flow: three traversals split the capacity,
    # and the doubled flow is charged per traversal exactly once.
    other = Flow(env, "b", "c", 1e9, [loop], "data")
    rates = max_min_rates([doubled, other])
    assert rates[doubled] == pytest.approx(gbps(2) / 3)
    assert rates[other] == pytest.approx(gbps(2) / 3)
    consumed = 2 * rates[doubled] + rates[other]
    assert consumed == pytest.approx(gbps(2))


def test_flow_ids_are_per_network():
    """Flow ids restart at 1 for every engine instance, regardless of
    what other networks (or earlier tests) allocated."""
    env, lan, net_a = make_net()
    net_b = FlowNetwork(env, lan)
    a1 = net_a.transfer("a", "b", size=MIB)
    b1 = net_b.transfer("a", "c", size=MIB)
    a2 = net_a.transfer("b", "c", size=MIB)
    env.run()
    assert a1.value.flow_id == 1
    assert b1.value.flow_id == 1
    assert a2.value.flow_id == 2


def test_completion_residue_is_delivered_exactly_once():
    """Two flows finishing at the same wake: the piggybacked flow's
    sub-byte residue is credited, so observers see every byte."""
    env, lan, net = make_net()
    seen = []
    net.add_observer(lambda flow, delta: seen.append(delta))
    d1 = net.transfer("a", "c", size=1.0)
    d2 = net.transfer("b", "c", size=1.5)
    env.run()
    assert d1.ok and d2.ok
    assert d1.value.transferred == 1.0
    assert d2.value.transferred == 1.5
    assert sum(seen) == pytest.approx(2.5)


def test_flow_conservation_under_churn():
    """Total observed bytes equal the sum of completed transfer sizes."""
    env, lan, net = make_net(hosts=tuple(f"h{i}" for i in range(6)))
    delivered = []
    net.add_observer(lambda flow, delta: delivered.append(delta))
    sizes = [100 * MIB, 300 * MIB, 50 * MIB, 700 * MIB]
    events = []

    def submitter(env):
        for i, size in enumerate(sizes):
            events.append(net.transfer(f"h{i}", f"h{(i + 3) % 6}", size=size))
            yield env.timeout(0.7)

    env.process(submitter(env))
    env.run()
    assert all(ev.ok for ev in events)
    assert sum(delivered) == pytest.approx(sum(sizes))


def test_instant_transfers_count_in_both_engines():
    """Zero-byte and same-host transfers are issued transfers: both
    engines count them in flows_started/flows_completed identically,
    so counters agree with the number of transfers callers made."""
    from repro.network._reference import ReferenceFlowNetwork

    def run(engine_cls):
        env = Environment()
        lan = CampusLAN(default_latency=0.001)
        lan.attach("a")
        lan.attach("b")
        net = engine_cls(env, lan)
        net.transfer("a", "b", size=0)          # RPC round, no bytes
        net.transfer("a", "a", size=100 * GIB)  # same-host disk copy
        net.transfer("a", "a", size=0)          # both at once
        net.transfer("a", "b", size=10 * MIB)   # a real flow
        env.run()
        return net.flows_started, net.flows_completed

    fast = run(FlowNetwork)
    reference = run(ReferenceFlowNetwork)
    assert fast == reference == (4, 4)


def fan_in_churn(net, env, hosts=40, servers=5, population=100,
                 completions=500, seed=3):
    """Constant-population fan-in churn: most flows land on a few hot
    servers and every completion is replaced.  Returns the completion
    trace and the largest ETA-heap size seen against its bound."""
    rng = random.Random(seed)
    names = [f"h{i}" for i in range(hosts)]
    hot = names[:servers]
    trace = []
    overshoot = []

    def submit():
        src = rng.choice(names[servers:])
        dst = rng.choice(hot) if rng.random() < 0.7 else rng.choice(names)
        if dst == src:
            dst = hot[0]
        net.transfer(src, dst, rng.uniform(5, 200) * MIB).callbacks.append(
            done)

    def done(event):
        trace.append((env.now, event.value.flow_id))
        if len(trace) + population <= completions:
            submit()

    for _ in range(population):
        submit()
    while env.peek() != float("inf"):
        env.step()
        overshoot.append(len(net._eta_heap)
                         - (2 * len(net.active_flows) + 64))
    return trace, max(overshoot)


def test_eta_heap_stays_bounded_without_changing_completions(monkeypatch):
    """Lazy mode: stale ETA entries are dropped in bulk, so the heap
    stays within ``2 * live + 64`` after every step, and the completion
    trace equals that of an engine that never prunes."""
    env, lan, net = make_net(hosts=[f"h{i}" for i in range(40)],
                             backbone=gbps(20))
    bounded, overshoot = fan_in_churn(net, env)
    assert overshoot <= 0
    assert len(bounded) == 500

    monkeypatch.setattr(FlowNetwork, "_bound_eta_heap", lambda self: None)
    env, lan, net = make_net(hosts=[f"h{i}" for i in range(40)],
                             backbone=gbps(20))
    unbounded, overshoot = fan_in_churn(net, env)
    assert overshoot > 0  # the rebuild really ran above
    assert bounded == unbounded  # same times, same order, bit-for-bit


def test_whole_fabric_shortcut_matches_the_walk():
    """On a LAN every cross-host flow crosses the backbone, so the
    component lookup skips the walk; it must return what the walk
    finds: the same flows and the same live link buckets."""
    env, lan, net = make_net(hosts=[f"h{i}" for i in range(8)])
    for i in range(12):
        net.transfer(f"h{i % 8}", f"h{(3 * i + 1) % 8}", 100 * MIB)
    seed = net.active_flows[5]
    assert len(net._link_index[lan.backbone]) == len(net.active_flows)
    component, buckets = net._component_of([seed])
    walked, walked_buckets = net._walk([seed])
    assert component == walked
    assert buckets.keys() == walked_buckets.keys()
    assert all(buckets[link] is walked_buckets[link] for link in buckets)
