"""Unit tests for the discrete-event simulation kernel."""

from math import inf, nextafter

import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    SimulationError,
    Timer,
    due_time,
    grid_point,
)


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_clock_custom_start():
    env = Environment(initial_time=100.0)
    assert env.now == 100.0


def test_timeout_advances_clock():
    env = Environment()
    seen = []

    def proc(env):
        yield env.timeout(3.5)
        seen.append(env.now)

    env.process(proc(env))
    env.run()
    assert seen == [3.5]


def test_timeout_negative_delay_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1.0)


def test_timeout_carries_value():
    env = Environment()
    results = []

    def proc(env):
        value = yield env.timeout(1.0, value="payload")
        results.append(value)

    env.process(proc(env))
    env.run()
    assert results == ["payload"]


def test_events_fire_in_time_order():
    env = Environment()
    order = []

    def proc(env, name, delay):
        yield env.timeout(delay)
        order.append(name)

    env.process(proc(env, "late", 10))
    env.process(proc(env, "early", 1))
    env.process(proc(env, "mid", 5))
    env.run()
    assert order == ["early", "mid", "late"]


def test_simultaneous_events_fifo_order():
    env = Environment()
    order = []

    def proc(env, name):
        yield env.timeout(1.0)
        order.append(name)

    for name in ("a", "b", "c"):
        env.process(proc(env, name))
    env.run()
    assert order == ["a", "b", "c"]


def test_run_until_stops_clock():
    env = Environment()

    def proc(env):
        yield env.timeout(100)

    env.process(proc(env))
    env.run(until=30)
    assert env.now == 30


def test_run_until_past_raises():
    env = Environment(initial_time=50)
    with pytest.raises(ValueError):
        env.run(until=10)


def test_run_until_with_empty_queue_advances_clock():
    env = Environment()
    env.run(until=42)
    assert env.now == 42


def test_process_return_value():
    env = Environment()

    def child(env):
        yield env.timeout(5)
        return "done"

    proc = env.process(child(env))
    env.run()
    assert proc.value == "done"
    assert proc.ok


def test_process_waits_on_process():
    env = Environment()
    results = []

    def child(env):
        yield env.timeout(5)
        return 7

    def parent(env):
        value = yield env.process(child(env))
        results.append((env.now, value))

    env.process(parent(env))
    env.run()
    assert results == [(5.0, 7)]


def test_waiting_on_already_finished_process():
    env = Environment()
    results = []

    def child(env):
        yield env.timeout(1)
        return "early"

    child_proc = env.process(child(env))

    def parent(env):
        yield env.timeout(10)
        value = yield child_proc
        results.append((env.now, value))

    env.process(parent(env))
    env.run()
    assert results == [(10.0, "early")]


def test_failed_event_raises_in_waiter():
    env = Environment()
    caught = []

    def proc(env, trigger):
        try:
            yield trigger
        except RuntimeError as exc:
            caught.append(str(exc))

    trigger = env.event()
    env.process(proc(env, trigger))
    trigger.fail(RuntimeError("boom"))
    env.run()
    assert caught == ["boom"]


def test_fail_requires_exception_instance():
    env = Environment()
    event = env.event()
    with pytest.raises(TypeError):
        event.fail("not an exception")


def test_event_cannot_trigger_twice():
    env = Environment()
    event = env.event()
    event.succeed(1)
    with pytest.raises(SimulationError):
        event.succeed(2)


def test_process_failure_propagates_to_waiter():
    env = Environment()
    caught = []

    def child(env):
        yield env.timeout(1)
        raise ValueError("child died")

    def parent(env):
        try:
            yield env.process(child(env))
        except ValueError as exc:
            caught.append(str(exc))

    env.process(parent(env))
    env.run()
    assert caught == ["child died"]


def test_interrupt_raises_inside_process():
    env = Environment()
    log = []

    def victim(env):
        try:
            yield env.timeout(100)
        except Interrupt as interrupt:
            log.append((env.now, interrupt.cause))

    proc = env.process(victim(env))

    def attacker(env):
        yield env.timeout(10)
        proc.interrupt(cause="kill-switch")

    env.process(attacker(env))
    env.run()
    assert log == [(10.0, "kill-switch")]


def test_interrupt_finished_process_raises():
    env = Environment()

    def quick(env):
        yield env.timeout(1)

    proc = env.process(quick(env))
    env.run()
    with pytest.raises(SimulationError):
        proc.interrupt()


def test_interrupted_process_can_continue():
    env = Environment()
    log = []

    def victim(env):
        try:
            yield env.timeout(100)
        except Interrupt:
            log.append("interrupted")
        yield env.timeout(5)
        log.append(env.now)

    proc = env.process(victim(env))

    def attacker(env):
        yield env.timeout(10)
        proc.interrupt()

    env.process(attacker(env))
    env.run()
    assert log == ["interrupted", 15.0]


def test_all_of_waits_for_all():
    env = Environment()
    results = []

    def proc(env):
        t1 = env.timeout(3, value="a")
        t2 = env.timeout(7, value="b")
        values = yield env.all_of([t1, t2])
        results.append((env.now, sorted(values.values())))

    env.process(proc(env))
    env.run()
    assert results == [(7.0, ["a", "b"])]


def test_all_of_empty_fires_immediately():
    env = Environment()
    cond = AllOf(env, [])
    assert cond.triggered


def test_any_of_fires_on_first():
    env = Environment()
    results = []

    def proc(env):
        t1 = env.timeout(3, value="fast")
        t2 = env.timeout(7, value="slow")
        values = yield env.any_of([t1, t2])
        results.append((env.now, list(values.values())))

    env.process(proc(env))
    env.run()
    assert results == [(3.0, ["fast"])]


def test_any_of_with_already_fired_event():
    env = Environment()
    results = []

    def proc(env, done):
        values = yield env.any_of([done, env.timeout(100)])
        results.append((env.now, list(values.values())))

    done = env.event()
    done.succeed("pre")

    def starter(env):
        yield env.timeout(5)
        env.process(proc(env, done))

    env.process(starter(env))
    env.run(until=20)
    assert results == [(5.0, ["pre"])]


def test_yield_non_event_fails_process():
    env = Environment()

    def bad(env):
        yield 42

    proc = env.process(bad(env))
    env.run()
    assert not proc.ok
    assert isinstance(proc.value, SimulationError)


def test_peek_and_step():
    env = Environment()

    def proc(env):
        yield env.timeout(4)

    env.process(proc(env))
    # Bootstrap event at t=0 plus the timeout after it runs.
    assert env.peek() == 0.0
    env.step()
    assert env.peek() == 4.0
    env.step()
    assert env.now == 4.0


def test_step_empty_queue_raises():
    env = Environment()
    with pytest.raises(SimulationError):
        env.step()


def test_succeed_with_delay():
    env = Environment()
    times = []

    def proc(env, ev):
        yield ev
        times.append(env.now)

    ev = env.event()
    env.process(proc(env, ev))
    ev.succeed(delay=12.0)
    env.run()
    assert times == [12.0]


def test_deterministic_replay():
    def build_and_run():
        env = Environment()
        trace = []

        def worker(env, name, period, count):
            for _ in range(count):
                yield env.timeout(period)
                trace.append((env.now, name))

        env.process(worker(env, "x", 1.5, 5))
        env.process(worker(env, "y", 2.0, 4))
        env.run()
        return trace

    assert build_and_run() == build_and_run()


def test_call_at_runs_callback_at_absolute_time():
    env = Environment()
    fired = []
    env.call_at(5.0, fired.append)
    env.call_at(2.0, fired.append, "early")
    env.run()
    assert fired == ["early", None]
    assert env.now == 5.0


def test_call_at_rejects_past_times():
    env = Environment()
    env.run(until=10.0)
    with pytest.raises(ValueError):
        env.call_at(5.0, lambda _arg: None)
    with pytest.raises(ValueError):
        env.call_later(-1.0, lambda _arg: None)


def test_call_later_orders_with_events_by_schedule_time():
    """Callbacks share the queue's (time, insertion) ordering with
    ordinary events."""
    env = Environment()
    log = []

    def proc(env):
        yield env.timeout(1.0)
        log.append("process")

    env.process(proc(env))
    env.call_later(1.0, lambda _arg: log.append("callback"))
    env.run()
    # The process's timeout was enqueued first (at process creation
    # time the bootstrap runs first); insertion order breaks the tie.
    assert set(log) == {"process", "callback"}
    assert env.now == 1.0


# -- Timer --------------------------------------------------------------


def test_timer_fires_once_at_when():
    env = Environment()
    fired = []
    timer = env.timer(lambda: fired.append(env.now))
    assert isinstance(timer, Timer)
    assert timer.when == float("inf")
    timer.arm(4.0)
    assert timer.when == 4.0
    env.run()
    assert fired == [4.0]
    assert timer.when == float("inf")


def test_timer_rearm_supersedes_and_cancel_suppresses():
    env = Environment()
    fired = []
    timer = env.timer(lambda: fired.append(env.now))
    timer.arm(2.0)
    timer.arm(7.0)  # supersedes the 2.0 arm
    env.run()
    assert fired == [7.0]

    timer.arm(9.0)
    timer.cancel()
    assert timer.when == float("inf")
    env.run()
    assert fired == [7.0]
    assert env.now == 9.0  # the stale entry still drained, as a no-op


def test_timer_rearm_earlier_fires_only_the_newer_arm():
    env = Environment()
    fired = []
    timer = env.timer(lambda: fired.append(env.now))
    timer.arm(8.0)
    timer.arm(3.0)
    env.run()
    assert fired == [3.0]


def test_timer_fn_may_rearm_its_own_timer():
    env = Environment()
    fired = []

    def tick():
        fired.append(env.now)
        assert timer.when == float("inf")  # disarmed before fn runs
        if len(fired) < 3:
            timer.arm(env.now + 1.5)

    timer = env.timer(tick)
    timer.arm(1.0)
    env.run()
    assert fired == [1.0, 2.5, 4.0]
    assert timer.when == float("inf")


def test_timer_rearm_at_same_instant_moves_behind_later_entries():
    """Re-arming at an unchanged time still pushes a fresh entry, so the
    timer now fires after everything queued for that instant since its
    previous arm (the flow engine's synchronous wake relies on this)."""
    env = Environment()
    log = []
    timer = env.timer(lambda: log.append("timer"))
    timer.arm(5.0)
    env.call_at(5.0, log.append, "other")
    env.run()
    assert log == ["timer", "other"]

    log.clear()
    timer.arm(10.0)
    env.call_at(10.0, log.append, "other")
    timer.arm(10.0)
    env.run()
    assert log == ["other", "timer"]


def test_timer_arm_pushes_exactly_one_entry():
    class Pushes:
        count = 0

        def on_schedule(self, when, now, qsize):
            self.count += 1

        def on_dispatch(self, item, now, wall_seconds, qsize):
            pass

    pushes = Pushes()
    env = Environment(hooks=pushes)
    timer = env.timer(lambda: None)
    timer.arm(1.0)
    timer.arm(1.0)
    timer.cancel()
    assert pushes.count == 2  # cancel pushes nothing
    timer.arm(2.0)
    assert pushes.count == 3


def test_grid_point_lands_on_a_timeout_chain():
    """A sleeper armed by ``grid_point`` wakes at exactly the float a
    chain of ``timeout(step)`` from the same start reaches."""
    env = Environment(initial_time=0.1)
    wakes = []

    def chain():
        while env.now < 100.0:
            yield env.timeout(7.3)
            wakes.append(env.now)

    env.process(chain())
    env.run()
    assert grid_point(0.1, 7.3, 50.0) == (wakes[5], wakes[6])
    assert grid_point(0.1, 7.3, wakes[6]) == (wakes[5], wakes[6])
    assert grid_point(0.1, 7.3, nextafter(wakes[6], inf))[1] == wakes[7]
    assert grid_point(0.1, 7.3, -inf) == (0.1, wakes[0])


@pytest.mark.parametrize("origin", [0.1, 9.160342, 15.000000000000002,
                                    1234.5678, 86399.99999999999])
@pytest.mark.parametrize("span", [15.0, 240.0, 3600.0])
def test_due_time_is_the_first_instant_the_check_passes(origin, span):
    due = due_time(origin, span)
    assert due - origin >= span
    assert nextafter(due, -inf) - origin < span


def test_due_time_can_precede_the_plain_sum():
    # The check already passes one step below 9.160342 + 240.0, so a
    # sleeper armed on the plain sum could wake a whole tick late.
    assert due_time(9.160342, 240.0) < 9.160342 + 240.0
    assert due_time(15.000000000000002, 15.0) > 15.000000000000002 + 15.0
