"""MLIMP job schedulers: LJF baseline, adaptive, global, EWT, the
exact branch-and-bound reference, and the fluid oracle bound."""

from .adaptive import AdaptivePolicy, AdaptiveScheduler
from .adjustments import PlannedJob, inter_queue_adjust, intra_queue_adjust
from .base import Dispatch, DispatchPolicy, MLIMPSystem, ResourceView, Scheduler
from .ewt import EWTPolicy, EWTScheduler
from .exact import ExactSolution, ExactSolverError, solve_exact
from .globalsched import GlobalPolicy, GlobalScheduler
from .johnson import JohnsonScheduler, flow_shop_makespan, johnson_order
from .ljf import LJFPolicy, LJFScheduler
from .oracle import oracle_makespan

__all__ = [
    "AdaptivePolicy",
    "AdaptiveScheduler",
    "PlannedJob",
    "inter_queue_adjust",
    "intra_queue_adjust",
    "Dispatch",
    "DispatchPolicy",
    "MLIMPSystem",
    "ResourceView",
    "Scheduler",
    "EWTPolicy",
    "EWTScheduler",
    "ExactSolution",
    "ExactSolverError",
    "solve_exact",
    "GlobalPolicy",
    "GlobalScheduler",
    "JohnsonScheduler",
    "flow_shop_makespan",
    "johnson_order",
    "LJFPolicy",
    "LJFScheduler",
    "oracle_makespan",
]
