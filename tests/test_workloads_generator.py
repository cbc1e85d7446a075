"""Per-lab campus demand, as the scenario compiler plans it."""

import pytest

from repro.scenarios import (
    DemandSpec,
    LabDemandSpec,
    ProviderSpec,
    ScenarioSpec,
    SiteSpec,
    compile_scenario,
)
from repro.units import DAY, HOUR
from repro.workloads import (
    InteractiveSessionSpec,
    TrainingJobSpec,
    diurnal_weight,
)

VISION = LabDemandSpec("vision", DemandSpec(
    jobs_per_day=6.0,
    sessions_per_day=4.0,
    job_mix=(("resnet50-cifar", 2.0), ("vit-large-finetune", 1.0)),
    mean_job_compute_hours=6.0,
))

NLP = LabDemandSpec("nlp", DemandSpec(
    jobs_per_day=3.0,
    sessions_per_day=2.0,
    job_mix=(("bert-base-finetune", 1.0),),
))


def campus(*labs, days=7.0, demand=DemandSpec()):
    """A one-site scenario with ``labs`` (and ``demand``) as its users."""
    return ScenarioSpec(
        name="lab-demand", duration_hours=days * DAY / HOUR,
        sites=(SiteSpec(
            name="campus",
            providers=(ProviderSpec("ws1", ("rtx3090",), lab="vision"),),
            demand=demand, labs=labs),))


def plan(*labs, seed=5, **kwargs):
    return compile_scenario(campus(*labs, **kwargs), seed=seed)


def of_lab(planned, lab):
    return [item for item in planned if item.spec.lab == lab]


def test_profile_validation():
    with pytest.raises(ValueError):
        LabDemandSpec("bad", DemandSpec(jobs_per_day=-1))
    with pytest.raises(ValueError):
        LabDemandSpec("bad", DemandSpec(job_mix=()))
    with pytest.raises(ValueError, match="duplicate labs"):
        campus(VISION, VISION)


def test_diurnal_weight_shape():
    # Minimum near 04:00, maximum near 16:00.
    assert diurnal_weight(4 * HOUR) < 0.2
    assert diurnal_weight(16 * HOUR) > 0.9
    for t in range(0, int(DAY), 3600):
        assert 0.0 <= diurnal_weight(t) <= 1.0


def test_training_jobs_deterministic():
    trace_a = plan(VISION, seed=11).jobs
    trace_b = plan(VISION, seed=11).jobs
    assert [a.at for a in trace_a] == [b.at for b in trace_b]
    assert [a.spec.model.name for a in trace_a] == [
        b.spec.model.name for b in trace_b
    ]


def test_training_job_rate_plausible():
    trace = plan(VISION, seed=3, days=28.0).jobs
    # Diurnal thinning keeps roughly 55% of peak-rate arrivals.
    per_day = len(trace) / 28
    assert 1.5 <= per_day <= 6.0


def test_job_specs_well_formed():
    trace = plan(VISION).jobs
    assert trace, "expected at least one arrival in a week"
    for planned in trace:
        assert isinstance(planned.spec, TrainingJobSpec)
        assert planned.spec.lab == "vision"
        assert planned.spec.job_id.startswith("sc-campus/vision-job-")
        assert planned.spec.total_compute > 0
        assert planned.spec.model.name in (
            "resnet50-cifar", "vit-large-finetune",
        )


def test_interactive_sessions_well_formed():
    trace = plan(NLP).sessions
    assert trace
    for planned in trace:
        assert isinstance(planned.spec, InteractiveSessionSpec)
        assert planned.spec.lab == "nlp"
        assert planned.spec.has_lab_gpus
        assert planned.spec.duration >= 15 * 60


def test_unaffiliated_sessions_have_no_lab():
    unaffiliated = LabDemandSpec("", DemandSpec(sessions_per_day=5.0))
    trace = plan(unaffiliated).sessions
    assert trace
    for planned in trace:
        assert planned.spec.lab == ""
        assert not planned.spec.has_lab_gpus
        assert planned.spec.session_id.startswith(
            "sc-campus/unaffiliated-sess-")


def test_combined_trace_sorted():
    unaffiliated = LabDemandSpec("", DemandSpec(sessions_per_day=3.0))
    compiled = plan(VISION, NLP, unaffiliated, seed=9)
    trace = compiled.jobs + compiled.sessions
    assert {"vision", "nlp", ""}.issubset(
        {planned.spec.lab for planned in trace})
    # Each lab's arrivals come in time order from its own streams.
    for lab in ("vision", "nlp", ""):
        for planned in (compiled.jobs, compiled.sessions):
            times = [item.at for item in of_lab(planned, lab)]
            assert times == sorted(times)


def test_zero_rate_produces_nothing():
    compiled = plan(LabDemandSpec("", DemandSpec()), seed=1)
    assert compiled.jobs == [] and compiled.sessions == []


def test_labs_leave_the_site_demand_draws_unchanged():
    site_demand = DemandSpec(jobs_per_day=8.0, sessions_per_day=4.0)
    alone = plan(demand=site_demand)
    with_labs = plan(VISION, NLP, demand=site_demand)
    assert [(p.at, p.spec) for p in alone.jobs] == \
        [(p.at, p.spec) for p in with_labs.jobs if p.spec.lab == "campus"]
    assert [(p.at, p.spec) for p in alone.sessions] == \
        [(p.at, p.spec) for p in with_labs.sessions
         if p.spec.lab == "campus"]
