"""Declarative scenarios: simulation-as-data.

``repro.scenarios`` turns hand-coded experiment scripts into data: a
:class:`ScenarioSpec` (dict/JSON round-trippable, strictly validated)
describes campuses, heterogeneous GPU fleets, diurnal multi-timezone
per-site or per-lab demand, flash crowds, spot-style churn, and chaos
windows;
:func:`compile_scenario` wires it into a ready
:class:`~repro.federation.deployment.FederatedDeployment`; and
:class:`ScenarioRunner` sweeps seeds while auditing the federation's
standing invariants (exactly-once, ledger conservation, orphan-free
traces).
"""

from .compile import (
    CompiledScenario,
    PlannedJob,
    PlannedSession,
    compile_scenario,
)
from .runner import ScenarioReport, ScenarioRunner, SeedResult, summarize
from .spec import (
    AdversarySpec,
    ChurnSpec,
    CrashSpec,
    DemandSpec,
    FlashCrowdSpec,
    LabDemandSpec,
    OutageSpec,
    ProviderSpec,
    ScenarioError,
    ScenarioSpec,
    SiteSpec,
    WanLinkSpec,
    example_scenario,
)

__all__ = [
    "AdversarySpec",
    "ScenarioSpec",
    "SiteSpec",
    "ProviderSpec",
    "DemandSpec",
    "LabDemandSpec",
    "ChurnSpec",
    "FlashCrowdSpec",
    "WanLinkSpec",
    "OutageSpec",
    "CrashSpec",
    "ScenarioError",
    "example_scenario",
    "CompiledScenario",
    "PlannedJob",
    "PlannedSession",
    "compile_scenario",
    "ScenarioRunner",
    "ScenarioReport",
    "SeedResult",
    "summarize",
]
