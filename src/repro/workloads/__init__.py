"""Workload models, job specs, and the diurnal demand process."""

from .demand import DemandProcess, diurnal_weight
from .interactive import (
    InteractiveSessionSpec,
    SessionOutcome,
    SessionRecord,
    next_session_id,
)
from .models import (
    BERT_BASE,
    GPT2_MEDIUM,
    MODEL_CATALOG,
    RESNET50,
    RESNET152,
    UNET_SEG,
    VIT_LARGE,
    WorkloadModel,
    model_by_name,
)
from .training import (
    InterruptionRecord,
    JobStatus,
    TrainingJobSpec,
    TrainingJobState,
    next_job_id,
)

__all__ = [
    "WorkloadModel",
    "MODEL_CATALOG",
    "model_by_name",
    "RESNET50",
    "RESNET152",
    "UNET_SEG",
    "BERT_BASE",
    "GPT2_MEDIUM",
    "VIT_LARGE",
    "TrainingJobSpec",
    "TrainingJobState",
    "JobStatus",
    "InterruptionRecord",
    "next_job_id",
    "InteractiveSessionSpec",
    "SessionRecord",
    "SessionOutcome",
    "next_session_id",
    "DemandProcess",
    "diurnal_weight",
]
