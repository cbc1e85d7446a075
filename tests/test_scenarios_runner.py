"""Scenario compilation and seed-swept execution with invariants."""

import json
from dataclasses import replace

import pytest

import handler_errors
from repro.experiments import load_scenario
from repro.observability.trace import TraceContext
from repro.scenarios import (
    AdversarySpec,
    CrashSpec,
    ScenarioReport,
    ScenarioRunner,
    ScenarioSpec,
    compile_scenario,
    example_scenario,
    summarize,
)
from repro.server import SimulationServer
from repro.workloads.training import JobStatus


def chaos_scenario():
    """Flash crowd + provider churn + WAN outage + control-plane crash."""
    base = example_scenario().to_dict()
    base["name"] = "chaos-sweep"
    base["crashes"] = [
        {"site": "north", "component": "coordinator",
         "start_hour": 3.0, "downtime_minutes": 12.0},
        {"site": "south", "component": "gateway",
         "start_hour": 5.0, "downtime_minutes": 8.0},
    ]
    return ScenarioSpec.from_dict(base)


# -- compilation -------------------------------------------------------------

def test_compile_is_deterministic():
    first = compile_scenario(example_scenario(), seed=11)
    second = compile_scenario(example_scenario(), seed=11)
    assert first.job_ids == second.job_ids
    assert [(j.at, j.site) for j in first.jobs] == \
           [(j.at, j.site) for j in second.jobs]
    assert [(s.at, s.site, s.flash_crowd) for s in first.sessions] == \
           [(s.at, s.site, s.flash_crowd) for s in second.sessions]


def test_compile_seeds_differ():
    a = compile_scenario(example_scenario(), seed=1)
    b = compile_scenario(example_scenario(), seed=2)
    assert [j.at for j in a.jobs] != [j.at for j in b.jobs]
    assert [s.at for s in a.sessions] != [s.at for s in b.sessions]


def test_compiled_structure_matches_spec():
    spec = example_scenario()
    compiled = compile_scenario(spec, seed=5)
    assert set(compiled.deployment.sites) == {"north", "south"}
    assert compiled.horizon == spec.duration_hours * 3600.0
    # every planned job targets a declared site and carries the
    # scenario-local id scheme (stable across processes)
    for planned in compiled.jobs:
        assert planned.site in compiled.deployment.sites
        assert planned.spec.job_id.startswith(f"sc-{planned.site}-job-")
    assert any(s.flash_crowd for s in compiled.sessions)


def test_trace_override():
    compiled = compile_scenario(example_scenario(), seed=1, trace=False)
    assert compiled.deployment.tracer is None


# -- the runner --------------------------------------------------------------

def checked_in(name, hours=24.0, **change):
    """A checked-in scenario, traced, over a short horizon."""
    return replace(load_scenario(name), duration_hours=hours, trace=True,
                   **change)


#: The chaos scenario, every checked-in scenario, and the Byzantine
#: experiment's forging variant.
SWEEPS = {
    "chaos-sweep": chaos_scenario,
    "federation-mesh": lambda: checked_in("federation-mesh"),
    "federation-line": lambda: checked_in("federation-line"),
    # Forged entries multiply with the horizon, so this one runs half.
    "federation-mesh-forge": lambda: checked_in(
        "federation-mesh", hours=12.0,
        adversaries=(AdversarySpec("east", "forge"),)),
    "paper-campus": lambda: checked_in("paper-campus"),
}


@pytest.mark.parametrize("name", list(SWEEPS))
def test_three_seed_sweep_holds_invariants(name):
    spec = SWEEPS[name]()
    assert ScenarioSpec.from_json(spec.to_json()) == spec
    runner = ScenarioRunner(spec, seeds=(1, 2, 3))
    results = []
    for seed in runner.seeds:
        compiled = compile_scenario(spec, seed=seed)
        results.append(runner.run_seed(seed, compiled))
        assert handler_errors.unexpected(compiled.deployment) == {}
    report = ScenarioReport(spec=spec, results=results)
    assert report.ok, report.violations
    aggregate = report.aggregate()
    assert aggregate["seeds"] == 3
    assert aggregate["jobs_planned"] > 0
    assert aggregate["jobs_completed"] > 0
    assert aggregate["sessions_planned"] > 0
    for result in report.results:
        summary = result.summary
        assert summary["invariants"]["duplicate_executions"] == 0
        assert summary["invariants"]["orphan_spans"] == 0
        assert abs(summary["invariants"]["ledger_sum_gpu_hours"]) < 1e-6
        assert (summary["sessions"]["flash_crowd"] > 0) \
            == bool(spec.flash_crowds)


def test_same_seed_produces_identical_summary():
    runner = ScenarioRunner(example_scenario(), seeds=(2,))
    first = runner.run_seed(2).summary
    second = runner.run_seed(2).summary
    assert first == second


def test_report_document_is_json_serializable():
    report = ScenarioRunner(example_scenario(), seeds=(1,)).sweep()
    document = report.to_dict()
    assert json.loads(json.dumps(document)) == document
    assert document["scenario"]["name"] == "demo-flash-crowd"
    assert len(document["per_seed"]) == 1


def test_runner_rejects_empty_seed_list():
    with pytest.raises(ValueError, match="at least one seed"):
        ScenarioRunner(example_scenario(), seeds=())


def test_summarize_counts_every_planned_job():
    compiled = compile_scenario(example_scenario(), seed=4).run()
    summary = summarize(compiled)
    assert summary["jobs"]["planned"] == len(compiled.jobs)
    assert sum(summary["jobs"]["by_status"].values()) == len(compiled.jobs)
    assert summary["seed"] == 4


# -- the audit: every invariant can fire -------------------------------------

def forger_scenario():
    """The demo scenario with ``south`` forging chain entries from 0.5 h."""
    base = example_scenario().to_dict()
    base["name"] = "audit-forger"
    base["adversaries"] = [{"site": "south", "mode": "forge",
                            "start_hour": 0.5}]
    return ScenarioSpec.from_dict(base)


def _complete_again_elsewhere(fed):
    north = fed.site("north").coordinator
    job_id = next(job_id for job_id, job in north.jobs.items()
                  if job.status is JobStatus.COMPLETED)
    fed.site("south").platform.events.emit("job-completed", job_id=job_id)


def _drop_from_origin_book(fed):
    jobs = fed.site("north").coordinator.jobs
    del jobs[next(job_id for job_id in jobs if job_id.startswith("sc-north"))]


def _credit_without_debit(ledger):
    ledger.record_donation("north", "south", 0.5, "ghost", 0.0)
    ledger._balances["south"] += 0.5  # the debit never landed


def _span_with_unrecorded_parent(fed):
    fed.tracer.start("ghost", parent=TraceContext("ghost", span_id=-1))


def _keep_blocked_signers_entry(fed):
    forged = fed.site("south").gateway.sharechain.chain("south")[0]
    fed.site("north").gateway.sharechain._accept(forged)


def _forget_detection(fed):
    del fed.site("north").gateway.trust.detected_at["south"]


def _kill_gossip_loop(fed):
    """North's gossip round raises, as a bug in it would: the loop
    dies with the exception and nothing else notices."""
    gossip = fed.site("north").gateway.gossip
    assert not gossip._wake.triggered  # asleep between rounds
    gossip._pushed_at = None
    gossip._wake.succeed()
    fed.run(until=fed.env.now)
    assert isinstance(gossip.loop.value, AttributeError)


BREAKS = {
    "exactly-once": _complete_again_elsewhere,
    "no-job-lost": _drop_from_origin_book,
    "ledger-conservation": lambda fed: _credit_without_debit(fed.ledger),
    "orphan-free-traces": _span_with_unrecorded_parent,
    "quarantine-purge": _keep_blocked_signers_entry,
    "view-conservation": lambda fed: _credit_without_debit(
        fed.site("north").gateway.sharechain.view),
    "byzantine-detection": _forget_detection,
    "loop-liveness": _kill_gossip_loop,
}


@pytest.mark.parametrize("invariant", list(BREAKS))
def test_audit_reports_each_broken_invariant(invariant):
    """Break one invariant by hand after a clean run: the runner's
    audit names that invariant and only it, and the live service's
    audit of the same deployment says the same."""
    spec = forger_scenario()
    server = SimulationServer(spec, seed=1)
    compiled = server.compiled.run()
    BREAKS[invariant](compiled.deployment)
    violations = ScenarioRunner(spec, seeds=(1,)).run_seed(
        1, compiled).violations
    assert [line.split(":")[0] for line in violations] == [invariant], \
        violations
    assert server.audit() == violations
