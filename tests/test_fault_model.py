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

import handler_errors
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
    "08e314b0b2fb0895c8012ea2e9b222c9"
    "22e7a3960c378f919d9a5bc40c7c4606")
CHAOS_WITH_FORGER = (
    "f668a3e757d8bce3c1b7ad0587299e15"
    "24a8296c4724ffb1b054d3e0e44abd52")
CONTROL_PLANE_CHAOS = (
    "b66ed96e3f66631bdde8b3ac930409c7"
    "3c20a70e0009d289ade136ad4879a2bb")
OVER_REPORT = (
    "4d0d4492ac23948fca0cf03e878f1c5e"
    "2dda627ef68fa6a5dad2817b39643e87")
UNDER_BILL = (
    "34bfe3704542e906c32831b0a1ce14e8"
    "6f305363dd632beabe4ce41c37a1bec0")


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
    assert compiled.deployment.audit() == []
    assert handler_errors.unexpected(compiled.deployment) == {}


def test_chaos_scenario_with_forger_digest():
    """Outage, coordinator and gateway crashes, and a forging site."""
    data = test_scenarios_runner.chaos_scenario().to_dict()
    data["adversaries"] = [{"site": "south", "mode": "forge",
                            "start_hour": 1.0}]
    compiled = compile_scenario(ScenarioSpec.from_dict(data), seed=3)
    compiled.run()
    assert event_log_digest(compiled.deployment) == CHAOS_WITH_FORGER
    assert compiled.deployment.audit() == []
    assert handler_errors.unexpected(compiled.deployment) == {}


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
