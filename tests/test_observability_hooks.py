"""Kernel dispatch hooks: coverage and the no-perturbation promise."""

import pytest

from repro.gpu import RTX_3090, RTX_4090
from repro.network import CampusLAN, FlowNetwork
from repro.observability import KernelHooks, KernelProfile, NoopHooks
from repro.sim import Environment
from repro.units import GIB, MINUTE, gbps


def drive_transfers(hooks=None, flows=12):
    """A small flow workload; returns (env, net, completion times)."""
    env = Environment(hooks=hooks)
    lan = CampusLAN(backbone_capacity=gbps(10))
    for name in ("a", "b", "c"):
        lan.attach(name, access_capacity=gbps(1))
    net = FlowNetwork(env, lan)
    done_at = []
    pairs = [("a", "b"), ("b", "c"), ("a", "c")]
    for i in range(flows):
        src, dst = pairs[i % len(pairs)]
        event = net.transfer(src, dst, (0.2 + 0.1 * i) * GIB)
        event.callbacks.append(lambda ev: done_at.append(env.now))
    env.run()
    return env, net, done_at


class RecordingHooks(KernelHooks):
    """Captures every callback for assertion."""

    def __init__(self):
        self.scheduled = []
        self.dispatched = []
        self.reallocated = []

    def on_schedule(self, when, now, qsize):
        self.scheduled.append((when, now, qsize))

    def on_dispatch(self, item, now, wall_seconds, qsize):
        self.dispatched.append((type(item).__name__, now, wall_seconds,
                                qsize))

    def on_reallocate(self, component_flows, links, wall_seconds):
        self.reallocated.append((component_flows, links, wall_seconds))


def test_hooks_default_is_none():
    env = Environment()
    assert env.hooks is None


def test_recording_hooks_see_schedule_and_dispatch():
    hooks = RecordingHooks()
    env, net, _ = drive_transfers(hooks=hooks)
    assert hooks.scheduled, "no schedule callbacks fired"
    assert hooks.dispatched, "no dispatch callbacks fired"
    # Every schedule is for now-or-later and reports a queue depth.
    for when, now, qsize in hooks.scheduled:
        assert when >= now
        assert qsize >= 1
    # Dispatch wall-clock is measured, non-negative, and small.
    for _kind, _now, wall, qsize in hooks.dispatched:
        assert wall >= 0.0
        assert qsize >= 0


def test_flow_engine_reports_reallocations():
    hooks = RecordingHooks()
    env, net, _ = drive_transfers(hooks=hooks)
    assert len(hooks.reallocated) > 0
    # A component empties when its last flow completes, so zero-flow
    # recomputations are legitimate; most carry real work though.
    assert any(flows >= 1 for flows, _links, _wall in hooks.reallocated)
    for component_flows, links, wall in hooks.reallocated:
        assert component_flows >= 0
        assert links >= 0
        assert wall >= 0.0


def test_hooks_do_not_perturb_the_simulation():
    """The cardinal rule: hooked and unhooked runs are identical."""
    _, net_bare, times_bare = drive_transfers(hooks=None)
    _, net_noop, times_noop = drive_transfers(hooks=NoopHooks())
    _, net_rec, times_rec = drive_transfers(hooks=RecordingHooks())
    assert times_bare == times_noop == times_rec
    assert net_bare.reallocations == net_noop.reallocations \
        == net_rec.reallocations


def test_hooks_attachable_mid_run():
    env = Environment()
    env.timeout(5.0)
    env.run(until=1.0)
    profile = KernelProfile()
    env.hooks = profile
    env.timeout(5.0)
    env.run()
    assert profile.events_dispatched > 0
    # Attached by a process inside one run(): the loop must see the
    # hooks from the next event on, not only on the next run().
    env = Environment()
    late = KernelProfile()

    def attach_then_wait(env):
        yield env.timeout(1.0)
        env.hooks = late
        for _ in range(3):
            yield env.timeout(1.0)

    env.process(attach_then_wait(env))
    env.run()
    assert late.events_dispatched >= 3


def test_kernel_profile_counters():
    profile = KernelProfile()
    env, net, _ = drive_transfers(hooks=profile)
    assert profile.events_dispatched > 0
    assert profile.events_scheduled > 0
    assert profile.max_queue_depth >= 1
    assert profile.reallocations == net.reallocations
    assert profile.dispatch_wall_seconds >= 0.0
    assert profile.mean_component_flows > 0.0
    kinds = profile.dispatches_by_kind()
    assert kinds and all(count > 0 for _k, count, _w in kinds)
    assert sum(count for _k, count, _w in kinds) == profile.events_dispatched
    # Scheduled callbacks and timer entries are keyed by their owner,
    # not lumped under the anonymous callback type.
    names = {kind for kind, _c, _w in kinds}
    assert "FlowNetwork._on_wake" in names
    assert "_ScheduledCallback" not in names


def test_kernel_profile_registry_families():
    profile = KernelProfile()
    drive_transfers(hooks=profile)
    reg = profile.registry()
    for family in ("sim_events_dispatched_total", "sim_events_scheduled_total",
                   "sim_dispatch_wall_seconds_total", "sim_queue_depth_max",
                   "flow_reallocations_total",
                   "flow_reallocation_wall_seconds_total",
                   "flow_reallocation_component_flows_max",
                   "sim_dispatches_by_kind_total"):
        assert family in reg.names
    text = reg.expose()
    assert "# TYPE sim_events_dispatched_total counter" in text


def test_kernel_profile_report_shape():
    profile = KernelProfile()
    drive_transfers(hooks=profile)
    report = profile.report()
    assert report["events_dispatched"] == profile.events_dispatched
    assert report["reallocations"] == profile.reallocations
    assert isinstance(report["dispatches_by_kind"], list)


def test_profile_on_full_platform():
    """Hooks ride along on a whole-platform run without disturbing it."""
    from repro.core.platform import GPUnionPlatform
    from repro.workloads import RESNET50, next_job_id
    from repro.workloads.training import TrainingJobSpec

    profile = KernelProfile()
    env = Environment(hooks=profile)
    platform = GPUnionPlatform(seed=3, env=env)
    platform.add_provider("farm", [RTX_4090] * 2, lab="infra")
    platform.add_provider("ws1", [RTX_3090], lab="vision")
    for _ in range(4):
        platform.submit_job(TrainingJobSpec(
            job_id=next_job_id(), model=RESNET50,
            total_compute=10 * MINUTE, lab="vision"))
    platform.run(until=90 * MINUTE)
    assert profile.events_dispatched > 100
    assert profile.max_queue_depth > 1
