"""GPUnion core: coordinator, schedulers, registry, platform facade."""

from .autosubmit import ResourceEstimate, auto_submit, estimate_resources
from .failover import CoordinatorHA, FailoverConfig
from .partition import (
    ModelLayer,
    PipelinePlan,
    StageAssignment,
    make_transformer_layers,
    partition_pipeline,
)
from .coordinator import Coordinator, DispatchLease, RunningWorkload
from .heartbeat import HeartbeatMonitor
from .messages import DispatchResult, Placement, RequestKind, ResourceRequest
from .migration import (
    DEFAULT_MIGRATION_DEADLINE,
    MigrateBackSummary,
    MigrationStats,
    build_migration_report,
    displaced_return_stats,
    migrate_back_summary,
)
from .platform import COMMON_IMAGES, GPUnionPlatform
from .queue import DispatchQueue
from .registry import GpuInventory, NodeRecord, NodeRegistry, NodeStatus
from .reliability import ReliabilityPredictor
from .scheduler import (
    BestFitScheduler,
    FairShareScheduler,
    ReliabilityAwareScheduler,
    RoundRobinScheduler,
    Scheduler,
    SchedulingContext,
    make_scheduler,
)

__all__ = [
    "auto_submit",
    "estimate_resources",
    "ResourceEstimate",
    "ModelLayer",
    "PipelinePlan",
    "StageAssignment",
    "make_transformer_layers",
    "partition_pipeline",
    "Coordinator",
    "CoordinatorHA",
    "DispatchLease",
    "FailoverConfig",
    "RunningWorkload",
    "GPUnionPlatform",
    "COMMON_IMAGES",
    "HeartbeatMonitor",
    "ResourceRequest",
    "RequestKind",
    "Placement",
    "DispatchResult",
    "DispatchQueue",
    "NodeRegistry",
    "NodeRecord",
    "NodeStatus",
    "GpuInventory",
    "ReliabilityPredictor",
    "Scheduler",
    "SchedulingContext",
    "RoundRobinScheduler",
    "BestFitScheduler",
    "ReliabilityAwareScheduler",
    "FairShareScheduler",
    "make_scheduler",
    "MigrationStats",
    "build_migration_report",
    "MigrateBackSummary",
    "migrate_back_summary",
    "displaced_return_stats",
    "DEFAULT_MIGRATION_DEADLINE",
]
