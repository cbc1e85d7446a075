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


def _outcome(env, call):
    """Run to the end; the call's value, or its exception's type and
    message."""
    env.run()
    assert call.triggered
    if call.ok:
        return call.value
    return type(call.value), str(call.value)


def test_request_leg_killed_in_flight_passes_network_error_through(stack):
    from repro.errors import NetworkError

    env, lan, net, rpc = stack
    handled = []
    rpc.bind("agent1").register("status", handled.append)
    call = rpc.call("coordinator", "agent1", "status", "q",
                    request_size=gbps(1))  # one second on the wire
    env.run(until=0.5)
    assert net.kill_host_flows("agent1", reason="unplugged") == 1
    kind, message = _outcome(env, call)
    assert kind is NetworkError  # not wrapped in RpcError
    assert "unplugged" in message
    assert handled == []
    assert rpc.handler_errors == {}


def test_response_leg_killed_in_flight_passes_network_error_through(stack):
    from repro.errors import NetworkError

    env, lan, net, rpc = stack
    handled = []
    rpc.bind("agent1").register("status", handled.append)
    call = rpc.call("coordinator", "agent1", "status", "q",
                    response_size=gbps(1))
    env.run(until=0.5)  # the request leg landed; the reply is on the wire
    assert handled == ["q"]
    assert net.kill_host_flows("coordinator", reason="caller gone") == 1
    kind, message = _outcome(env, call)
    assert kind is NetworkError
    assert "caller gone" in message
    assert rpc.handler_errors == {}


def test_generator_handler_raising_is_wrapped_and_counted(stack):
    env, lan, net, rpc = stack

    def flaky(payload):
        yield env.timeout(1.0)
        raise ValueError("disk full")

    rpc.bind("agent1").register("checkpoint", flaky)
    call = rpc.call("coordinator", "agent1", "checkpoint")
    kind, message = _outcome(env, call)
    assert kind is RpcError
    assert message == "checkpoint@agent1 raised: ValueError('disk full')"
    assert rpc.handler_errors == {("checkpoint", "ValueError"): 1}


def test_generator_handler_network_error_passes_through(stack):
    from repro.errors import NetworkError

    env, lan, net, rpc = stack

    def forwards(payload):
        yield env.timeout(1.0)
        raise NetworkError("upstream unreachable")

    rpc.bind("agent1").register("forward", forwards)
    call = rpc.call("coordinator", "agent1", "forward")
    kind, message = _outcome(env, call)
    assert kind is NetworkError
    assert message == "upstream unreachable"
    assert rpc.handler_errors == {}  # a network fault, not a handler bug


def test_plain_handler_errors_are_counted_by_method_and_type(stack):
    env, lan, net, rpc = stack
    endpoint = rpc.bind("agent1")

    def broken(payload):
        raise KeyError(payload)

    endpoint.register("lookup", broken)
    endpoint.register("ping", lambda n: n)
    calls = [rpc.call("coordinator", "agent1", "lookup", key)
             for key in ("a", "b")]
    calls.append(rpc.call("coordinator", "agent1", "ping", 1))
    rpc.call("coordinator", "agent1", "missing")  # RpcError: not a bug
    env.run()
    assert [call.ok for call in calls] == [False, False, True]
    assert rpc.handler_errors == {("lookup", "KeyError"): 2}


def test_late_outcomes_after_deadline_leave_the_timeout_standing(stack):
    from repro.errors import RpcTimeoutError

    env, lan, net, rpc = stack
    endpoint = rpc.bind("agent1")

    def slow(payload):
        yield env.timeout(5.0)
        return "late"

    def slow_bug(payload):
        yield env.timeout(5.0)
        raise ValueError("late bug")

    endpoint.register("slow", slow)
    endpoint.register("slow-bug", slow_bug)
    late_reply = rpc.call("coordinator", "agent1", "slow", timeout=1.0)
    late_error = rpc.call("coordinator", "agent1", "slow-bug", timeout=1.0)
    env.run()
    assert env.now > 5.0  # both exchanges ran on after the deadline
    for call in (late_reply, late_error):
        assert isinstance(call.value, RpcTimeoutError)
    assert rpc.handler_errors == {("slow-bug", "ValueError"): 1}


def test_untimed_call_costs_six_queue_entries():
    """Bootstrap, two leg wakes, two leg completions, the result: no
    process, so no exit event that nobody waits on."""
    from repro.observability import KernelProfile

    profile = KernelProfile()
    env = Environment(hooks=profile)
    lan = CampusLAN(default_latency=0.001)
    for host in ("coordinator", "agent1"):
        lan.attach(host, access_capacity=gbps(1))
    net = FlowNetwork(env, lan)
    net.add_observer(lambda flow, delta: None)  # as every platform does
    rpc = RpcLayer(env, net)
    rpc.bind("agent1").register("ping", lambda n: n + 1)
    call = rpc.call("coordinator", "agent1", "ping", 41)
    env.run()
    assert call.value == 42
    assert profile.events_scheduled == 6
    assert net.reallocations == 4
