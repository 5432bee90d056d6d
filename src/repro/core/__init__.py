"""MLIMP core: jobs, performance models, predictors, schedulers, runtime."""

from .dispatcher import DispatchError, Dispatcher, DispatchResult, JobRecord
from .job import Job, JobPerfProfile
from .perfmodel import (
    DEFAULT_BETA,
    ScaleFreeEstimate,
    allocation_grid,
    estimate_from_profile,
    fit_beta,
    knee_allocation,
    min_time_allocation,
)
from .predictor import (
    MLPPredictor,
    NaiveThresholdClassifier,
    NoisyPredictor,
    OnlinePredictor,
    OraclePredictor,
    PerformancePredictor,
    naive_metric,
)
from .runtime import MLIMPRuntime
from .scheduler import (
    AdaptiveScheduler,
    Dispatch,
    DispatchPolicy,
    EWTScheduler,
    GlobalScheduler,
    JohnsonScheduler,
    LJFScheduler,
    MLIMPSystem,
    ResourceView,
    Scheduler,
    oracle_makespan,
)

__all__ = [
    "DispatchError",
    "Dispatcher",
    "DispatchResult",
    "JobRecord",
    "Job",
    "JobPerfProfile",
    "DEFAULT_BETA",
    "ScaleFreeEstimate",
    "allocation_grid",
    "estimate_from_profile",
    "fit_beta",
    "knee_allocation",
    "min_time_allocation",
    "MLPPredictor",
    "NaiveThresholdClassifier",
    "NoisyPredictor",
    "OnlinePredictor",
    "OraclePredictor",
    "PerformancePredictor",
    "naive_metric",
    "MLIMPRuntime",
    "AdaptiveScheduler",
    "Dispatch",
    "DispatchPolicy",
    "EWTScheduler",
    "GlobalScheduler",
    "JohnsonScheduler",
    "LJFScheduler",
    "MLIMPSystem",
    "ResourceView",
    "Scheduler",
    "oracle_makespan",
]
