"""The fault model: one window type, one schedule, one driver.

The first part pins absolute event logs.  Every other behavioural
test compares two engines or two runs against each other, so a change
to when a fault fires would move both sides together; these SHA-256
digests of canonicalised event logs move on their own.  Each covers a
run that drives outages, crashes or Byzantine windows through the
fault driver.
"""

import ast
import hashlib
import json
import re
from pathlib import Path

import pytest

import test_byzantine_chaos
import test_control_plane_chaos
import test_scenarios_runner
from repro.federation import (
    BYZANTINE_MODES,
    FaultSchedule,
    FaultWindow,
    FederatedDeployment,
    adversary,
)
from repro.scenarios import ScenarioSpec, compile_scenario
from repro.units import HOUR

REPO = Path(__file__).resolve().parent.parent

#: Digests recorded before the three injection stacks became one driver;
#: a refactor of the fault model must leave every one unchanged.
FEDERATION_DAY = (
    "7fcab484295c79419aeea67b5b2f4eb9"
    "54d8e8f0a0c786987d934a1143ad41b8")
CHAOS_WITH_FORGER = (
    "84d3e8fece27ad51e91138c17d05926c"
    "1892d8239a313772b9147c4405a4d8c8")
CONTROL_PLANE_CHAOS = (
    "7eb644247e417be93b74fa9c006525d7"
    "3b8653cf9b45aa91b2dd865f4e2d07c8")
OVER_REPORT = (
    "624738e7864f8ad3c064f5ffaa49be09"
    "248b7f10766686fb36ed15359a38fc96")
UNDER_BILL = (
    "44c5b7db23e4ba630e36965df345aed2"
    "0be12d6b1af1db8a0c2e4e2eb88efda3")


def event_log_digest(fed) -> str:
    """SHA-256 over every site's event log, ids canonicalised.

    Generated identifiers (``job-NNNN``, ``node-NNNN``, ...) come from
    module-global counters, so their values depend on what ran earlier
    in the process.  They are aliased in first-seen order over the
    deterministic log, the same scheme the full-stack golden run uses.
    """
    alias = {}
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
    return hashlib.sha256(repr(log).encode()).hexdigest()


def test_federation_day_digest():
    """The benchmark scenario: an outage at 30 h, a gateway crash at
    50 h, a verified ledger."""
    data = json.loads((REPO / "perfbench" / "federation_day.json")
                      .read_text())
    compiled = compile_scenario(ScenarioSpec.from_dict(data), seed=1)
    compiled.deployment.run(until=52 * HOUR)
    assert event_log_digest(compiled.deployment) == FEDERATION_DAY


def test_chaos_scenario_with_forger_digest():
    """Outage, coordinator and gateway crashes, and a forging site."""
    data = test_scenarios_runner.chaos_scenario().to_dict()
    data["adversaries"] = [{"site": "south", "mode": "forge",
                            "start_hour": 1.0}]
    compiled = compile_scenario(ScenarioSpec.from_dict(data), seed=3)
    compiled.run()
    assert event_log_digest(compiled.deployment) == CHAOS_WITH_FORGER


def test_control_plane_chaos_digest():
    """Random partitions and crashes on both components, seed 7."""
    fed, _jobs, _partitions, _crashes = test_control_plane_chaos._chaos_run(7)
    assert event_log_digest(fed) == CONTROL_PLANE_CHAOS


def test_byzantine_over_report_digest():
    fed, _jobs = test_byzantine_chaos._run_chaos("over-report", 7)
    assert event_log_digest(fed) == OVER_REPORT


def test_byzantine_under_bill_digest():
    fed, _jobs = test_byzantine_chaos._run_chaos("under-bill", 7)
    assert event_log_digest(fed) == UNDER_BILL


# -- overlapping windows nest, for every kind ------------------------------

def _pair():
    fed = FederatedDeployment(seed=5)
    north = fed.add_campus("north")
    fed.add_campus("south")
    fed.connect("north", "south")
    return fed, north


def _inject(fed, *windows):
    fed.inject_faults(FaultSchedule(windows=windows))


def test_overlapping_gateway_crashes_nest():
    fed, north = _pair()
    _inject(fed, FaultWindow("gateway", "north", 100.0, 200.0),
            FaultWindow("gateway", "north", 150.0, 50.0))
    fed.run(until=250.0)
    # The inner window closed at 200; the outer one still holds.
    assert north.gateway.is_crashed
    fed.run(until=301.0)
    assert not north.gateway.is_crashed
    assert north.gateway.restarts == 1


def test_overlapping_byzantine_windows_nest():
    fed, north = _pair()
    _inject(fed, FaultWindow("forge", "north", 0.0, 1000.0),
            FaultWindow("forge", "north", 500.0, 100.0))
    fed.run(until=700.0)
    assert north.gateway.adversary.modes == {"forge"}
    fed.run(until=1001.0)
    assert north.gateway.adversary.modes == set()


def test_overlapping_coordinator_window_spares_the_promoted_backup():
    fed, north = _pair()
    _inject(fed, FaultWindow("coordinator", "north", 100.0, 600.0),
            FaultWindow("coordinator", "north", 300.0, 100.0))
    fed.run(until=650.0)
    ha = fed.failover["north"]
    assert ha.takeovers == 1
    assert not ha.headless  # the backup took over and still leads
    assert north.platform.events.count("coordinator-crashed") == 1


# -- no silently dropped windows -------------------------------------------

def test_crash_window_enables_failover_itself():
    fed, north = _pair()
    assert fed.failover == {}
    _inject(fed, FaultWindow("coordinator", "north", 100.0, 50.0))
    assert set(fed.failover) == {"north", "south"}
    fed.run(until=200.0)
    assert north.platform.events.count("coordinator-crashed") == 1


def test_window_for_a_missing_link_is_refused():
    fed, _north = _pair()
    fed.add_campus("east")
    with pytest.raises(ValueError, match="not a link"):
        _inject(fed, FaultWindow("link", ("east", "north"), 1.0, 1.0))
    with pytest.raises(ValueError, match="unknown site"):
        _inject(fed, FaultWindow("forge", "west"))


# -- the adversary lives outside the honest gateway ------------------------

LIE_NAMES = {
    "BYZANTINE_MODES", "CHAIN_VISIBLE_MODES", "OVER_REPORT_PHANTOM_GPUS",
    "OVER_REPORT_PHANTOM_CARD", "OVER_BILL_FACTOR", "UNDER_BILL_FACTOR",
    "FORGED_ENTRY_HOURS", "forge", "reissue",
}


def test_honest_gateway_has_no_lie_modes():
    path = REPO / "src" / "repro" / "federation" / "gateway.py"
    tree = ast.parse(path.read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant):
            assert node.value not in BYZANTINE_MODES, node.lineno
        elif isinstance(node, ast.Name):
            assert node.id not in LIE_NAMES, node.lineno
        elif isinstance(node, ast.Attribute):
            assert node.attr not in LIE_NAMES, node.lineno
        elif isinstance(node, ast.alias):
            assert node.name not in LIE_NAMES
    for name in LIE_NAMES - {"forge", "reissue"}:
        assert hasattr(adversary, name)
    _fed, north = _pair()
    for name in ("set_byzantine", "clear_byzantine", "byzantine_modes"):
        assert not hasattr(north.gateway, name)
    assert north.gateway.adversary is None


def test_forger_pauses_across_a_gateway_crash():
    fed, north = _pair()
    _inject(fed, FaultWindow("forge", "north", 0.0),
            FaultWindow("gateway", "north", 630.0, 600.0))

    def forged():
        return len(north.gateway.sharechain.chain("north"))

    fed.run(until=640.0)
    before = forged()
    assert before > 0
    fed.run(until=1220.0)
    assert forged() == before  # a dead gateway forges nothing
    assert north.gateway.adversary.modes == {"forge"}
    fed.run(until=1500.0)
    assert forged() > before  # the loop resumed at restart
    assert north.gateway.adversary.modes == {"forge"}


def test_forger_resumes_after_a_same_instant_crash_and_restart():
    fed, north = _pair()
    _inject(fed, FaultWindow("forge", "north", 0.0))
    fed.run(until=640.0)
    gateway = north.gateway

    def forged():
        return len(gateway.sharechain.chain("north"))

    # Crash and restart before the crash's interrupt reaches the loop.
    gateway.crash()
    gateway.restart()
    before = forged()
    fed.run(until=1500.0)
    assert forged() > before
    assert gateway.adversary.modes == {"forge"}
