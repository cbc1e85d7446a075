"""Unit tests for the RPC layer."""

import pytest

from repro.network import CampusLAN, FlowNetwork, RpcError, RpcLayer
from repro.sim import Environment
from repro.units import gbps


@pytest.fixture
def stack():
    env = Environment()
    lan = CampusLAN(default_latency=0.001)
    for host in ("coordinator", "agent1", "agent2"):
        lan.attach(host, access_capacity=gbps(1))
    net = FlowNetwork(env, lan)
    rpc = RpcLayer(env, net)
    return env, lan, net, rpc


def test_simple_call(stack):
    env, lan, net, rpc = stack
    endpoint = rpc.bind("agent1")
    endpoint.register("status", lambda payload: {"ok": True, "echo": payload})
    results = []

    def caller(env):
        response = yield rpc.call("coordinator", "agent1", "status", {"q": 1})
        results.append(response)

    env.process(caller(env))
    env.run()
    assert results == [{"ok": True, "echo": {"q": 1}}]
    assert env.now > 0  # transfers took wire time


def test_generator_handler_takes_time(stack):
    env, lan, net, rpc = stack
    endpoint = rpc.bind("agent1")

    def slow_handler(payload):
        yield env.timeout(5.0)
        return "done"

    endpoint.register("checkpoint", slow_handler)
    results = []

    def caller(env):
        response = yield rpc.call("coordinator", "agent1", "checkpoint")
        results.append((env.now, response))

    env.process(caller(env))
    env.run()
    assert results[0][1] == "done"
    assert results[0][0] > 5.0


def test_missing_handler_fails(stack):
    env, lan, net, rpc = stack
    rpc.bind("agent1")
    caught = []

    def caller(env):
        try:
            yield rpc.call("coordinator", "agent1", "nope")
        except RpcError as exc:
            caught.append(str(exc))

    env.process(caller(env))
    env.run()
    assert caught and "nope" in caught[0]


def test_unbound_host_fails(stack):
    env, lan, net, rpc = stack
    caught = []

    def caller(env):
        try:
            yield rpc.call("coordinator", "agent2", "status")
        except RpcError as exc:
            caught.append(str(exc))

    env.process(caller(env))
    env.run()
    assert caught


def test_handler_exception_propagates_as_rpc_error(stack):
    env, lan, net, rpc = stack
    endpoint = rpc.bind("agent1")

    def broken(payload):
        raise ValueError("internal bug")

    endpoint.register("broken", broken)
    caught = []

    def caller(env):
        try:
            yield rpc.call("coordinator", "agent1", "broken")
        except RpcError as exc:
            caught.append(str(exc))

    env.process(caller(env))
    env.run()
    assert caught and "internal bug" in caught[0]


def test_disconnected_host_network_error(stack):
    env, lan, net, rpc = stack
    endpoint = rpc.bind("agent1")
    endpoint.register("status", lambda p: "ok")
    lan.set_connected("agent1", False)
    caught = []

    def caller(env):
        try:
            yield rpc.call("coordinator", "agent1", "status")
        except Exception as exc:
            caught.append(type(exc).__name__)

    env.process(caller(env))
    env.run()
    assert caught == ["NetworkError"]


def test_unbind_and_rebind(stack):
    env, lan, net, rpc = stack
    endpoint = rpc.bind("agent1")
    endpoint.register("status", lambda p: "v1")
    rpc.unbind("agent1")
    assert not rpc.is_bound("agent1")
    endpoint2 = rpc.bind("agent1")
    assert endpoint2.methods == ()


def test_endpoint_register_unregister():
    from repro.network import RpcEndpoint

    endpoint = RpcEndpoint("h")
    endpoint.register("a", lambda p: 1)
    endpoint.register("b", lambda p: 2)
    assert endpoint.methods == ("a", "b")
    endpoint.unregister("a")
    endpoint.unregister("a")  # idempotent
    assert endpoint.methods == ("b",)


def test_concurrent_calls(stack):
    env, lan, net, rpc = stack
    endpoint = rpc.bind("agent1")
    endpoint.register("ping", lambda n: n * 2)
    results = []

    def caller(env, n):
        response = yield rpc.call("coordinator", "agent1", "ping", n)
        results.append(response)

    for n in range(5):
        env.process(caller(env, n))
    env.run()
    assert sorted(results) == [0, 2, 4, 6, 8]


def test_call_timeout_fails_with_unknown_outcome(stack):
    env, lan, net, rpc = stack
    committed = []
    endpoint = rpc.bind("agent1")

    def slow_commit(payload):
        yield env.timeout(10.0)
        committed.append(payload)
        return "done"

    endpoint.register("commit", slow_commit)
    outcomes = []

    def caller(env):
        from repro.errors import RpcTimeoutError
        try:
            yield rpc.call("coordinator", "agent1", "commit", "x",
                           timeout=1.0)
        except RpcTimeoutError as exc:
            outcomes.append(exc)

    env.process(caller(env))
    env.run()
    # The caller timed out after 1 s ...
    assert len(outcomes) == 1
    # ... but the handler kept running and committed anyway — the
    # real-world lost-acknowledgement shape.  The late completion must
    # not blow up the already-failed caller event.
    assert committed == ["x"]


def test_call_within_timeout_is_unaffected(stack):
    env, lan, net, rpc = stack
    endpoint = rpc.bind("agent1")
    endpoint.register("ping", lambda n: n + 1)
    results = []

    def caller(env):
        response = yield rpc.call("coordinator", "agent1", "ping", 41,
                                  timeout=60.0)
        results.append(response)

    env.process(caller(env))
    env.run()
    assert results == [42]


def test_call_timeout_costs_one_queue_entry():
    """A deadline is one scheduled callback, not a process of its own."""
    from repro.observability import KernelProfile

    def scheduled(timeout):
        profile = KernelProfile()
        env = Environment(hooks=profile)
        lan = CampusLAN(default_latency=0.001)
        for host in ("coordinator", "agent1"):
            lan.attach(host, access_capacity=gbps(1))
        rpc = RpcLayer(env, FlowNetwork(env, lan))
        rpc.bind("agent1").register("ping", lambda n: n + 1)
        call = rpc.call("coordinator", "agent1", "ping", 41, timeout=timeout)
        env.run()
        assert call.value == 42
        return profile.events_scheduled

    assert scheduled(60.0) == scheduled(None) + 1
