"""ServingRuntime: the open-system facade over the MLIMP runtime.

Where :class:`~repro.core.runtime.MLIMPRuntime` runs one closed batch
to completion, :class:`ServingRuntime` keeps the same scheduler +
dispatcher stack but feeds it an **arrival stream**: timed
:class:`~repro.sim.events.JobArrival` events enter the running
simulation, pass the multi-tenant admission layer
(:class:`~repro.serving.tenants.OpenLoop`), and reach the policy's
``admit`` hook while earlier jobs are still executing.  The run lasts
until the system drains -- the arrival horizon bounds *generation*,
not execution -- and the result carries a per-tenant SLO report.

Usage::

    from repro.harness.config import full_system
    from repro.serving import PoissonArrivals, ServingRuntime, Tenant

    runtime = ServingRuntime(full_system(), scheduler="adaptive")
    serving = runtime.serve(
        PoissonArrivals(rate=50.0, horizon=1.0, seed=7,
                        tenants=("a", "b")),
        tenants=[Tenant("a"), Tenant("b", weight=2.0)],
        slo_s=0.010,
    )
    print(serving.report)          # per-tenant p50/p95/p99 + SLO table
    serving.result                 # the underlying DispatchResult

Fault plans compose: ``serve(..., faults=plan)`` degrades the open
system exactly like the closed runs of ``repro.faults`` -- arrivals
keep landing while devices stall, derate, or die, and unplaceable
jobs are counted as shed rather than crashing the run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.dispatcher import Dispatcher, DispatchResult
from ..core.job import Job
from ..core.predictor import OraclePredictor, PerformancePredictor
from ..core.runtime import make_scheduler
from ..core.scheduler.base import MLIMPSystem, Scheduler
from ..faults.plan import FaultPlan
from .admission import AdmissionController, PredictiveAdmission
from .arrivals import ArrivalProcess
from .report import ServingReport, build_serving_report
from .tenants import OpenLoop, Tenant
from .workload import OpenWorkload

__all__ = ["ServingResult", "ServingRuntime"]

#: Default per-tenant SLO when the caller names none: 10 ms.
DEFAULT_SLO_S = 0.010


@dataclass
class ServingResult:
    """One serving run: the raw dispatch result + the SLO report."""

    result: DispatchResult
    report: ServingReport
    open_loop: OpenLoop


@dataclass
class ServingRuntime:
    """Open-system serving on one MLIMP system."""

    system: MLIMPSystem
    scheduler: str | Scheduler = "adaptive"
    predictor: PerformancePredictor | None = None
    #: Released-but-undispatched jobs the policy may hold at once.
    max_backlog: int = 32

    def __post_init__(self) -> None:
        make_scheduler(self.scheduler)  # an unknown name fails here

    # ------------------------------------------------------------------
    def serve(
        self,
        arrivals: ArrivalProcess,
        tenants: list[Tenant],
        slo_s: float = DEFAULT_SLO_S,
        initial_jobs: list[Job] | None = None,
        label: str = "",
        faults: FaultPlan | None = None,
        workload: OpenWorkload | None = None,
        admission: str | AdmissionController | None = None,
        admission_margin: float = 1.0,
    ) -> ServingResult:
        """Run the arrival stream to drain and report per-tenant SLOs.

        ``initial_jobs`` seeds the policy with a closed batch already
        queued at time zero (the closed-vs-open comparison's mixed
        mode); with an empty arrival stream and ``initial_jobs`` the
        run is byte-identical to ``MLIMPRuntime.run`` on that batch.

        ``admission`` selects the arrival-time gate: ``None`` or
        ``"shed"`` keep the historical shed-only backpressure (the
        exact pre-admission code path), ``"predictive"`` builds a
        :class:`~repro.serving.admission.PredictiveAdmission` around
        the runtime's predictor (oracle by default) and the run SLO
        scaled by ``admission_margin``; a ready-made controller
        instance is used as-is.
        """
        scheduler = make_scheduler(self.scheduler, self.predictor)
        controller = self._make_admission(admission, slo_s, admission_margin)
        maker = workload or OpenWorkload(self.system)
        timeline = arrivals.generate(maker.make_job)
        open_loop = OpenLoop(
            timeline,
            tenants=tenants,
            max_backlog=self.max_backlog,
            admission=controller,
        )
        policy = scheduler.plan(
            list(initial_jobs or []),
            self.system,
            upcoming=[arrival.job for arrival in timeline],
        )
        result = Dispatcher(self.system).run(
            policy,
            label=label or scheduler.name,
            faults=faults,
            open_loop=open_loop,
            predictor=self.predictor,
        )
        report = build_serving_report(
            result,
            open_loop,
            slo_s,
            predictor=self.predictor,
            admission=controller,
        )
        return ServingResult(result=result, report=report, open_loop=open_loop)

    def _make_admission(
        self,
        admission: str | AdmissionController | None,
        slo_s: float,
        margin: float,
    ) -> AdmissionController | None:
        if admission is None or admission == "shed":
            return None
        if isinstance(admission, AdmissionController):
            return admission
        if admission == "predictive":
            return PredictiveAdmission(
                predictor=self.predictor or OraclePredictor(),
                system=self.system,
                slo_s=slo_s,
                margin=margin,
            )
        raise ValueError(
            f"unknown admission mode {admission!r}; choose 'shed', "
            "'predictive', or pass an AdmissionController"
        )
