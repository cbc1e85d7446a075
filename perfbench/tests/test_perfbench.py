"""Self-tests for the benchmark's own arithmetic.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from common import (best_of, percentile, samples_beyond,  # noqa: E402
                    tail, tail_percentile, valid_name)
from layers import SpanClock, per_layer_names  # noqa: E402
from service import OpenLoop  # noqa: E402


class FakeClock:
    """A clock that moves only when told to."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# -- metric-name grammar ---------------------------------------------------


@pytest.mark.parametrize("name", [
    "setup_s", "sim.events", "rpc.calls.forward-offer", "0th", "a" * 64])
def test_valid_names(name):
    assert valid_name(name)


@pytest.mark.parametrize("name", [
    "", "_lead", ".lead", "-lead", "has space", "slash/name", "a" * 65,
    "unicodé"])
def test_invalid_names(name):
    assert not valid_name(name)


def test_every_declared_metric_name_is_valid_and_unique():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = ([m["name"] for m in declared["end_to_end"]]
             + [m["name"] for m in declared["per_layer"]]
             + [w["name"] for w in declared["workloads"]])
    assert all(valid_name(name) for name in names)
    assert len(set(names)) == len(names)


def test_declared_per_layer_metrics_match_the_table():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in declared["per_layer"]] == per_layer_names()


# -- percentile rule -------------------------------------------------------


@pytest.mark.parametrize("count, expected", [
    (10, 50.0), (99, 50.0), (100, 90.0), (199, 90.0), (200, 95.0),
    (999, 95.0), (1000, 99.0), (9999, 99.0), (10000, 99.9)])
def test_tail_is_highest_percentile_with_ten_samples_beyond(count, expected):
    assert tail_percentile(count) == expected
    assert samples_beyond(count, expected) >= 10 or expected == 50.0


def test_tail_states_its_percentile_and_sample_count():
    samples = [float(i) for i in range(1, 201)]
    p, value, count = tail(samples)
    assert (p, count) == (95.0, 200)
    assert value == pytest.approx(percentile(samples, 95))
    assert sum(1 for s in samples if s > value) == 10


def test_percentile_interpolates_between_ranks():
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert percentile([0.0, 10.0], 25) == 2.5
    with pytest.raises(ValueError):
        percentile([], 50)


# -- best of repeats ---------------------------------------------------------


def test_best_of_takes_each_steps_least_time_across_repeats():
    repeats = [[1.0, 5.0, 3.0], [2.0, 4.0, 9.0], [1.5, 6.0, 2.5]]
    assert best_of(repeats) == [1.0, 4.0, 2.5]


def test_best_of_refuses_repeats_that_do_not_line_up():
    with pytest.raises(ValueError):
        best_of([[1.0, 2.0], [1.0]])
    with pytest.raises(ValueError):
        best_of([])


# -- self time over nested spans ---------------------------------------------


def test_self_time_subtracts_child_spans():
    clock = FakeClock()
    spans = SpanClock(clock)
    spans.enter("sim.run", "sim")
    clock.advance(1.0)
    spans.enter("rpc.call", "network.rpc")
    clock.advance(2.0)
    spans.enter("flows.transfer", "network.flows")
    clock.advance(4.0)
    spans.exit()
    clock.advance(0.5)
    spans.exit()
    clock.advance(0.25)
    spans.exit()
    assert spans.self_time["sim"] == pytest.approx(1.25)
    assert spans.self_time["network.rpc"] == pytest.approx(2.5)
    assert spans.self_time["network.flows"] == pytest.approx(4.0)
    assert sum(spans.self_time.values()) == pytest.approx(7.75)
    assert spans.inclusive["sim.run"] == pytest.approx(7.75)
    assert spans.inclusive["rpc.call"] == pytest.approx(6.5)


def test_recursive_operation_counts_inclusive_time_once():
    clock = FakeClock()
    spans = SpanClock(clock)
    spans.enter("sharechain.crypto", "federation.sharechain")
    clock.advance(1.0)
    spans.enter("sharechain.crypto", "federation.sharechain")
    clock.advance(2.0)
    spans.exit()
    spans.exit()
    assert spans.inclusive["sharechain.crypto"] == pytest.approx(3.0)
    assert spans.self_time["federation.sharechain"] == pytest.approx(3.0)


def test_generator_resumes_are_spans_of_the_same_operation():
    from layers import timed

    clock = FakeClock()
    spans = SpanClock(clock)

    def handler():
        clock.advance(1.0)
        yield "wait"
        clock.advance(2.0)
        return "reply"

    replies = []
    wrapped = timed(spans, "rpc.handler", "network.rpc", handler,
                    replies.append)
    generator = wrapped()
    assert generator.send(None) == "wait"
    clock.advance(10.0)  # simulated waiting is not handler time
    with pytest.raises(StopIteration):
        generator.send(None)
    assert replies == ["reply"]
    assert spans.calls["rpc.handler"] == 1
    assert spans.self_time["network.rpc"] == pytest.approx(3.0)


# -- open-loop lateness ----------------------------------------------------


def test_open_loop_charges_a_stall_to_later_requests():
    clock = FakeClock()
    service_times = [0.05, 0.35, 0.05, 0.05, 0.05]

    def send(index, due):
        clock.advance(service_times[index])
        return index

    samples = OpenLoop(rate=10.0, count=5, send=send, clock=clock,
                       sleep=clock.advance).run()
    assert [s.due for s in samples] == pytest.approx(
        [0.0, 0.1, 0.2, 0.3, 0.4])
    # Request 1 runs 0.35 s, so every later one goes out late, each a
    # little less so, and its latency includes that wait.
    assert [s.lateness for s in samples] == pytest.approx(
        [0.0, 0.0, 0.25, 0.2, 0.15])
    assert [s.latency for s in samples] == pytest.approx(
        [0.05, 0.35, 0.3, 0.25, 0.2])
    assert [s.result for s in samples] == [0, 1, 2, 3, 4]


def test_open_loop_never_sends_early():
    clock = FakeClock()
    sent = []
    OpenLoop(rate=4.0, count=3, send=lambda i, due: sent.append(clock()),
             clock=clock, sleep=clock.advance).run()
    assert sent == pytest.approx([0.0, 0.25, 0.5])
