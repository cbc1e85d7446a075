"""A quiet federation schedules nothing.

Gossip, share-chain sync, dispatch-retry and reconciliation each sleep
on one timer until they have work, on the wake grid their old
every-tick loops kept.  These tests pin that the loops really sleep,
that a change still goes out on the tick it always did, and, with a
read-only probe, that no loop sleeps through work it has.
"""

import json
from math import inf
from pathlib import Path

import handler_errors
import test_fault_model
import test_scenarios_runner
from test_federation_partition import _job, _run_until, _two_campuses
from test_federation_relay import _line_federation
from repro import GPUnionPlatform
from repro.federation import DelegationState
from repro.gpu.specs import RTX_3090, RTX_4090
from repro.observability.hooks import KernelProfile
from repro.scenarios import ScenarioSpec, compile_scenario
from repro.units import HOUR

REPO = Path(__file__).resolve().parent.parent


def _quiet_line():
    """The relay line with no demand at all, gossip on a 15 s tick."""
    return _line_federation([RTX_3090], [RTX_3090], [RTX_4090],
                            gossip_interval_min=15.0)


# -- gossip ------------------------------------------------------------------

def test_quiet_gossip_wakes_only_at_refresh_deadlines():
    fed, *handles = _quiet_line()
    profile = KernelProfile()
    fed.env.hooks = profile
    fed.run(until=2 * HOUR)
    refresh = handles[0].gateway.gossip.refresh
    wakes = {kind: count for kind, count, _wall
             in profile.dispatches_by_kind()}.get(
                 "Gossip._due", 0)
    # An every-tick loop wakes 2 h / 15 s = 480 times per gateway; a
    # sleeping one only to re-send its unchanged digest before it
    # goes stale.
    per_gateway = 2 * HOUR / refresh
    assert len(handles) * (per_gateway - 1) <= wakes
    assert wakes <= len(handles) * (per_gateway + 2)
    for handle in handles:
        assert handle.gateway.gossip.digests_pushed >= per_gateway - 1


def test_reserved_gpu_reaches_the_neighbour_on_the_next_tick():
    fed, alpha, bravo, _charlie = _quiet_line()
    fed.run(until=1000.3)
    before = bravo.gateway.gossip.peer_digests["alpha"]
    registry = alpha.coordinator.registry
    record = registry.schedulable()[0]
    gpu = next(iter(record.gpus.values()))
    reserved_at = fed.env.now
    registry.reserve_gpu(record.node_id, gpu.uuid, gpu.memory_total)
    fed.run(until=reserved_at + 15.0 + 1.0)  # next tick plus the RPC
    after = bravo.gateway.gossip.peer_digests["alpha"]
    assert after.free_gpus == before.free_gpus - 1
    assert reserved_at < after.advertised_at <= reserved_at + 15.0


# -- dispatch-retry ----------------------------------------------------------

def test_retry_timer_runs_only_while_requests_are_parked():
    platform = GPUnionPlatform(seed=7)
    platform.add_provider("ws", [RTX_3090], lab="vision")
    coordinator = platform.coordinator
    platform.run(until=100.0)
    assert coordinator._retry_timer.when == inf
    first = platform.submit_job(_job(compute=1 * HOUR))
    platform.submit_job(_job(compute=1 * HOUR))
    platform.run(until=101.0)
    assert coordinator.parked_count == 1
    # Parked at ~100 s: released at the first 30 s grid point after.
    assert coordinator._retry_timer.when == 120.0
    enqueued = coordinator.queue.total_enqueued
    platform.run(until=119.9)
    assert coordinator.queue.total_enqueued == enqueued
    platform.run(until=120.1)
    assert coordinator.queue.total_enqueued == enqueued + 1
    assert coordinator.parked_count == 1  # still no card: parked again
    assert coordinator._retry_timer.when == 150.0
    _run_until(platform, lambda: first.is_done, step=60.0, limit=3 * HOUR)
    platform.run(until=platform.env.now + 1.0)
    assert coordinator.parked_count == 0
    assert coordinator._retry_timer.when == inf


# -- reconciliation ----------------------------------------------------------

def test_reconcile_sleeps_without_work_and_probes_on_its_grid():
    fed, north, south = _two_campuses([RTX_3090], [RTX_4090])
    gateway = north.gateway
    probes = []
    call = gateway.call

    def recording_call(dest, method, payload, timeout=None):
        if method == "forward-status":
            probes.append(fed.env.now)
        return call(dest, method, payload, timeout=timeout)

    gateway.call = recording_call
    fed.run(until=100)
    assert gateway.forward._reconcile_timer.when == inf
    north.platform.submit_job(_job(compute=6 * HOUR))
    fed.run(until=200)
    assert gateway.forward._reconcile_timer.when == inf
    victim = north.platform.submit_job(_job(compute=1 * HOUR))
    _run_until(fed, lambda: victim.job_id in south.coordinator.jobs,
               step=0.01, limit=2 * HOUR)
    fed.sever("north", "south")
    fed.run(until=fed.env.now + 1.0)
    record = gateway.forward.delegation(victim.job_id)
    assert record.state is DelegationState.UNKNOWN
    # The unknown-outcome kick probed at once; the leg stays unknown,
    # so the timer holds the next grid point.
    assert len(probes) == 1
    due = gateway.forward._reconcile_timer.when
    assert due < inf
    fed.run(until=due)
    assert probes[-1] == due and len(probes) == 2
    # A heal kicks a probe at once, off the grid, and it resolves.
    fed.run(until=due + 37.0)
    healed_at = fed.env.now
    fed.heal("north", "south")
    fed.run(until=healed_at + 1.0)
    assert probes[-1] == healed_at
    assert record.state is not DelegationState.UNKNOWN
    fed.run(until=6 * HOUR)
    assert gateway.forward._reconcile_timer.when == inf


def test_failed_completion_notice_arms_reconcile_without_a_kick():
    fed, north, south = _two_campuses([RTX_3090], [RTX_4090])
    gateway = south.gateway
    sends = []
    call = gateway.call

    def recording_call(dest, method, payload, timeout=None):
        if method == "job-complete":
            sends.append(fed.env.now)
        return call(dest, method, payload, timeout=timeout)

    gateway.call = recording_call
    fed.run(until=100)
    north.platform.submit_job(_job(compute=8 * HOUR))
    fed.run(until=200)
    job = north.platform.submit_job(_job(compute=1 * HOUR))
    _run_until(fed, lambda: north.gateway.forward.delegation(job.job_id),
               step=1.0, limit=2 * HOUR)
    fed.sever("north", "south")
    assert gateway.forward._reconcile_timer.when == inf
    host_state = south.coordinator.jobs[job.job_id]
    _run_until(fed, lambda: host_state.is_done, step=60.0, limit=12 * HOUR)
    # The notice failed behind the partition: nothing kicked the
    # reconcile loop, yet the new work armed its timer.
    assert len(sends) == 1 and gateway.unacked_completion_count == 1
    due = gateway.forward._reconcile_timer.when
    assert sends[0] < due <= sends[0] + gateway.config.reconcile_interval
    fed.run(until=due)
    assert sends[-1] == due and len(sends) == 2
    assert gateway.forward._reconcile_timer.when == (
        due + gateway.config.reconcile_interval)


# -- the read-only probe -----------------------------------------------------

def _gossip_due(gateway, now):
    """Whether the gossip loop has something to do right now."""
    refresh = gateway.gossip.refresh
    digest = gateway.local_digest()
    if gateway.adversary is not None:
        digest = gateway.adversary.advertise(digest)
    balance = gateway.ledger.balance(gateway.site)
    if any(now - gateway.gossip._pushed_at.get(peer, -inf) >= refresh
           or gateway.gossip._digest_drifted(peer, digest, balance)
           for peer in gateway.gossip.peers):
        return True
    trust = gateway.trust
    if trust is None:
        return False
    return trust.next_deadline() <= now or any(
        gateway.sharechain.entries_after(
            gateway.gossip._chain_acked.get(peer, {}))
        for peer in gateway.gossip.peers if not trust.blocks(peer))


def _sleep_probe(deployment, step=15.0, offset=7.5):
    """Check every ``step`` seconds that no sleeping loop has work
    without a wake due within one of its periods.

    Read-only: the probe's own ``call_at`` entries never reorder the
    others, and it changes no state.
    """
    env = deployment.env
    checks, violations = [], []

    def check(_arg):
        now = env.now
        checks.append(now)
        for name, handle in deployment.sites.items():
            gateway = handle.gateway
            coordinator = handle.platform.coordinator
            if not gateway.is_crashed:
                wake = gateway.gossip._wake
                tick = gateway.gossip.tick
                if (wake is not None and not wake.triggered
                        and _gossip_due(gateway, now)
                        and gateway.gossip._timer.when > now + tick):
                    violations.append((now, name, "gossip"))
                wake = gateway.forward._reconcile_wake
                interval = gateway.config.reconcile_interval
                if (wake is not None and not wake.triggered
                        and not gateway.forward._reconcile_kicked
                        and gateway.forward._has_reconcile_work()
                        and gateway.forward._reconcile_timer.when
                        > now + interval):
                    violations.append((now, name, "reconcile"))
            interval = coordinator.config.dispatch_retry_interval
            if (not coordinator.is_crashed and coordinator.parked_count
                    and coordinator._retry_timer.when > now + interval):
                violations.append((now, name, "dispatch-retry"))
        env.call_at(now + step, check)

    env.call_at(env.now + offset, check)
    return checks, violations


def test_no_loop_sleeps_through_work_on_federation_day():
    data = json.loads((REPO / "perfbench" / "federation_day.json")
                      .read_text())
    compiled = compile_scenario(ScenarioSpec.from_dict(data), seed=1)
    checks, violations = _sleep_probe(compiled.deployment)
    compiled.deployment.run(until=24 * HOUR)
    assert len(checks) >= 24 * HOUR / 15.0 - 1
    assert violations == []
    assert compiled.deployment.audit() == []
    assert handler_errors.unexpected(compiled.deployment) == {}


def test_no_loop_sleeps_through_work_with_a_forger():
    data = test_scenarios_runner.chaos_scenario().to_dict()
    data["adversaries"] = [{"site": "south", "mode": "forge",
                            "start_hour": 1.0}]
    compiled = compile_scenario(ScenarioSpec.from_dict(data), seed=3)
    checks, violations = _sleep_probe(compiled.deployment)
    compiled.run()
    assert len(checks) >= compiled.horizon / 15.0 - 1
    assert violations == []
    # The probe is read-only: the run is the pinned one, event for event.
    assert (test_fault_model.event_log_digest(compiled.deployment)
            == test_fault_model.CHAOS_WITH_FORGER)
