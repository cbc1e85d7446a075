"""Experiments reproducing every table and figure in the paper."""

from .campus import (
    campus_platform,
    manual_campus,
    paper_campus,
    run_campus,
)
from .federation import (
    ByzantineResult,
    FederationResult,
    PartitionResult,
    RelayResult,
    load_scenario,
    run_byzantine_experiment,
    run_federation,
    run_partition_experiment,
    run_relay_experiment,
)
from .fig2_utilization import Fig2Result, run_fig2, weekly_series
from .fig3_migration import (
    Fig3Result,
    run_fig3,
    sweep_interruption_frequency,
)
from .interactive import InteractiveResult, run_interactive
from .network_traffic import (
    TrafficResult,
    run_network_traffic,
    traffic_table,
)
from .scalability import (
    ScalabilityPoint,
    run_scalability,
    scalability_table,
)
from .training_impact import ImpactRow, impact_table, run_training_impact

__all__ = [
    "campus_platform",
    "manual_campus",
    "paper_campus",
    "run_campus",
    "FederationResult",
    "ByzantineResult",
    "PartitionResult",
    "RelayResult",
    "load_scenario",
    "run_federation",
    "run_byzantine_experiment",
    "run_partition_experiment",
    "run_relay_experiment",
    "Fig2Result",
    "run_fig2",
    "weekly_series",
    "Fig3Result",
    "run_fig3",
    "sweep_interruption_frequency",
    "InteractiveResult",
    "run_interactive",
    "ImpactRow",
    "run_training_impact",
    "impact_table",
    "TrafficResult",
    "run_network_traffic",
    "traffic_table",
    "ScalabilityPoint",
    "run_scalability",
    "scalability_table",
]
