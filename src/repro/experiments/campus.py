"""The paper's campus deployment (§4), as a checked-in scenario.

"We deploy GPUnion in a campus network environment comprising 11 GPU
services.  Among these, 8 servers functioned as workstations, each
equipped with a single NVIDIA 3090 GPU; one server featured 8 4090
GPUs; another two servers housed 2 A100 and 4 A6000, respectively.  An
additional CPU-only server served as the central coordinator."

That fleet (22 GPUs, 11 servers) and its per-lab demand are the
single-site scenario ``paper-campus`` (package data under
``scenarios/``).  The demand encodes the imbalance the paper
motivates: workstation labs near their own capacity, a GPU farm mostly
idle, compute-poor labs and unaffiliated students with nowhere to run.

The GPUnion phase is the compiled scenario.  The manual-coordination
phase is the same providers with no platform, replaying the arrivals
:func:`~repro.scenarios.compile_scenario` planned, so both phases see
identical demand by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..baselines.manual import ManualCoordinationSimulation
from ..core.platform import GPUnionPlatform
from ..gpu.node import GPUNode
from ..gpu.specs import lookup
from ..scenarios import CompiledScenario, ScenarioSpec, compile_scenario
from ..sim import Environment, RngStreams
from ..units import HOUR
from .federation import load_scenario


def paper_campus(seconds: float) -> ScenarioSpec:
    """``paper-campus`` over ``seconds``."""
    return replace(load_scenario("paper-campus"),
                   duration_hours=seconds / HOUR)


def campus_platform(compiled: CompiledScenario) -> GPUnionPlatform:
    """The one campus of a compiled single-site scenario."""
    (handle,) = compiled.deployment.sites.values()
    return handle.platform


def manual_campus(spec: ScenarioSpec,
                  seed: int) -> ManualCoordinationSimulation:
    """The manual-coordination phase: the spec's providers, no platform."""
    env = Environment()
    manual = ManualCoordinationSimulation(env, RngStreams(seed))
    for site in spec.sites:
        for provider in site.providers:
            manual.add_lab_server(GPUNode(
                env, provider.name, [lookup(gpu) for gpu in provider.gpus],
                owner_lab=provider.lab))
    return manual


@dataclass
class CampusRun:
    """Both phases of the paper campus, run to the same horizon."""

    horizon: float
    manual: ManualCoordinationSimulation
    gpunion: GPUnionPlatform


def run_campus(seed: int, seconds: float) -> CampusRun:
    """Run both phases over one planned demand trace."""
    compiled = compile_scenario(paper_campus(seconds), seed=seed)
    manual = manual_campus(compiled.spec, seed)
    manual.play_trace(compiled.jobs + compiled.sessions)
    manual.env.run(until=compiled.horizon)
    compiled.run()
    return CampusRun(compiled.horizon, manual, campus_platform(compiled))
