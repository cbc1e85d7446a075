"""Discrete-event simulation substrate for the GPUnion reproduction."""

from .core import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Timeout,
    Timer,
    due_time,
    grid_point,
)
from .resources import PriorityStore, Resource, Store
from .rng import RngStreams, derive_seed

__all__ = [
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "Interrupt",
    "Process",
    "SimulationError",
    "Timeout",
    "Timer",
    "due_time",
    "grid_point",
    "PriorityStore",
    "Resource",
    "Store",
    "RngStreams",
    "derive_seed",
]
