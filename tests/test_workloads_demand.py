"""DemandProcess: the extracted diurnal-Poisson primitive."""

import math
import random

import pytest

from repro.scenarios import (
    DemandSpec,
    LabDemandSpec,
    ProviderSpec,
    ScenarioSpec,
    SiteSpec,
    compile_scenario,
)
from repro.sim import RngStreams
from repro.sim.rng import derive_seed
from repro.units import DAY, HOUR
from repro.workloads import DemandProcess, diurnal_weight


def _legacy_poisson_arrivals(rng, rate_per_day, horizon, modulated=True):
    """The original inline arrival code (the bit-for-bit oracle: same
    draws, same thinning, same accept order)."""
    if rate_per_day <= 0:
        return []
    peak_rate = rate_per_day / DAY
    times = []
    t = 0.0
    while True:
        t += rng.expovariate(peak_rate)
        if t >= horizon:
            break
        if modulated and rng.random() > diurnal_weight(t % DAY):
            continue
        times.append(t)
    return times


@pytest.mark.parametrize("rate,modulated", [
    (6.0, True), (6.0, False), (0.4, True), (25.0, True),
])
def test_bit_for_bit_with_legacy_generator_code(rate, modulated):
    seed_rng = RngStreams(seed=77).stream("jobs:vision")
    oracle_rng = RngStreams(seed=77).stream("jobs:vision")
    process = DemandProcess(rate, modulated=modulated)
    assert process.arrivals(seed_rng, 14 * DAY) == _legacy_poisson_arrivals(
        oracle_rng, rate, 14 * DAY, modulated=modulated)


def test_lab_demand_draws_through_demand_process():
    # The scenario compiler draws a lab's sessions through DemandProcess
    # on the lab's own named stream.
    spec = ScenarioSpec(
        name="one-lab", duration_hours=7 * DAY / HOUR,
        sites=(SiteSpec(
            name="campus", providers=(ProviderSpec("ws1", ("rtx3090",)),),
            labs=(LabDemandSpec("nlp", DemandSpec(sessions_per_day=3.0)),)),))
    compiled = compile_scenario(spec, seed=5)
    streams = RngStreams(derive_seed(5, "scenario-demand:one-lab"))
    expected = DemandProcess(3.0).arrivals(
        streams.stream("sessions:campus/nlp"), 7 * DAY)
    assert expected
    assert [planned.at for planned in compiled.sessions] == expected


def test_zero_rate_draws_nothing():
    rng = random.Random(1)
    assert DemandProcess(0.0).arrivals(rng, DAY) == []
    state = rng.getstate()
    DemandProcess(0.0).arrivals(rng, DAY)
    assert rng.getstate() == state  # no draws consumed


def test_negative_rate_rejected():
    with pytest.raises(ValueError):
        DemandProcess(-1.0)


def test_phase_shifts_the_diurnal_peak():
    # phase_hours=12 moves the 16:00 peak to 04:00 sim time.
    shifted = DemandProcess(1.0, phase_hours=12.0)
    baseline = DemandProcess(1.0)
    assert shifted.weight(4 * HOUR) == pytest.approx(
        baseline.weight(16 * HOUR))
    assert shifted.weight(4 * HOUR) > 0.9
    assert baseline.weight(4 * HOUR) < 0.2


def test_phase_shift_changes_arrival_density_not_count_scale():
    rng_a = random.Random(42)
    rng_b = random.Random(42)
    base = DemandProcess(48.0).arrivals(rng_a, 30 * DAY)
    shifted = DemandProcess(48.0, phase_hours=12.0).arrivals(rng_b, 30 * DAY)

    def night_fraction(times):
        night = sum(1 for t in times if (t % DAY) < 8 * HOUR)
        return night / len(times)

    # The unshifted process is quiet before 08:00; the 12h-shifted one
    # concentrates there instead.
    assert night_fraction(base) < 0.25
    assert night_fraction(shifted) > 0.45
    # Total thinned volume stays comparable (same mean weight).
    assert len(shifted) == pytest.approx(len(base), rel=0.15)


def test_unmodulated_weight_is_flat():
    process = DemandProcess(2.0, modulated=False)
    assert process.weight(0.0) == 1.0
    assert process.weight(16 * HOUR) == 1.0


def test_weight_matches_diurnal_curve():
    process = DemandProcess(2.0)
    for hour in range(24):
        assert process.weight(hour * HOUR) == pytest.approx(
            diurnal_weight(hour * HOUR))
