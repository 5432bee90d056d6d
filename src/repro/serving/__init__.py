"""Open-system serving: arrivals, multi-tenant admission, SLO reports.

The closed-batch runtime answers "how fast does this batch finish";
this package answers the serving questions -- what sojourn time and
SLO attainment each tenant sees when jobs *arrive over time*, how the
three schedulers behave under contention, and how much load must be
shed to keep the system stable.  See ``docs/SCHEDULERS.md`` for where
arrival events enter each scheduling policy.

    python -m repro serve --arrivals poisson --rate 50 --tenants 3 --slo 10
"""

from .admission import AdmissionController, PredictiveAdmission
from .arrivals import (
    ArrivalProcess,
    PoissonArrivals,
    TimelineArrivals,
    TraceArrivals,
)
from .autoscale import Autoscaler, ScaleEvent, scale_system
from .report import ServingReport, TenantReport, build_serving_report
from .runtime import ServingResult, ServingRuntime
from .tenants import OpenLoop, Tenant
from .workload import KERNEL_SHAPES, OpenWorkload

__all__ = [
    "AdmissionController",
    "PredictiveAdmission",
    "ArrivalProcess",
    "PoissonArrivals",
    "TimelineArrivals",
    "TraceArrivals",
    "Autoscaler",
    "ScaleEvent",
    "scale_system",
    "ServingReport",
    "TenantReport",
    "build_serving_report",
    "ServingResult",
    "ServingRuntime",
    "OpenLoop",
    "Tenant",
    "KERNEL_SHAPES",
    "OpenWorkload",
]
