"""MLIMPRuntime: the system-software facade of Figure 6.

The paper's runtime flow: a call to a function marked for in-memory
processing generates MLIMP jobs; the scheduler (fed by the performance
predictor) sizes and places them; per-memory queues drain onto the
devices.  :class:`MLIMPRuntime` packages that flow behind a small API:

    runtime = MLIMPRuntime(gnn_system())
    runtime.submit(make_spmm_job(...))
    runtime.submit_many(batch_jobs(...))
    result = runtime.run()          # schedule + simulate the queue

Swap the scheduler (``"ljf" | "adaptive" | "global" | "ewt"``) or inject a
trained :class:`~repro.core.predictor.MLPPredictor` without touching
the call sites.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..faults.plan import FaultPlan
from .dispatcher import Dispatcher, DispatchResult
from .job import Job
from .predictor import OraclePredictor, PerformancePredictor
from .scheduler import (
    AdaptiveScheduler,
    EWTScheduler,
    GlobalScheduler,
    LJFScheduler,
    MLIMPSystem,
    Scheduler,
)

__all__ = ["MLIMPRuntime", "make_scheduler"]

_SCHEDULERS = {
    "ljf": LJFScheduler,
    "adaptive": AdaptiveScheduler,
    "global": GlobalScheduler,
    "ewt": EWTScheduler,
}


def make_scheduler(
    scheduler: str | Scheduler, predictor: PerformancePredictor | None = None
) -> Scheduler:
    """The scheduler a name selects, planning with ``predictor`` (the
    oracle by default); a :class:`Scheduler` instance is returned
    as-is.  An unknown name raises a one-line ``ValueError``."""
    if isinstance(scheduler, Scheduler):
        return scheduler
    if scheduler not in _SCHEDULERS:
        raise ValueError(
            f"unknown scheduler {scheduler!r}; "
            f"choose from {sorted(_SCHEDULERS)} or pass a Scheduler"
        )
    return _SCHEDULERS[scheduler](predictor or OraclePredictor())


@dataclass
class MLIMPRuntime:
    """Job queue + scheduler + dispatcher for one MLIMP system."""

    system: MLIMPSystem
    scheduler: str | Scheduler = "global"
    predictor: PerformancePredictor | None = None
    _queue: list[Job] = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        make_scheduler(self.scheduler)  # an unknown name fails here

    # ------------------------------------------------------------------
    def submit(self, job: Job) -> None:
        """Enqueue one job (a marked in-memory function call)."""
        self._queue.append(job)

    def submit_many(self, jobs) -> None:
        for job in jobs:
            self.submit(job)

    @property
    def pending(self) -> int:
        return len(self._queue)

    def run(
        self,
        label: str = "",
        faults: FaultPlan | None = None,
        fault_baseline: bool = False,
    ) -> DispatchResult:
        """Schedule and execute the queued jobs; clears the queue.

        ``faults`` injects a :class:`~repro.faults.plan.FaultPlan` into
        the run (device stalls, derating, wear-out, permanent failure)
        with graceful degradation; ``fault_baseline`` additionally runs
        the same batch fault-free first and stores its makespan on
        ``result.fault_free_makespan`` so the report can quantify the
        degradation.
        """
        scheduler = make_scheduler(self.scheduler, self.predictor)
        jobs, self._queue = self._queue, []
        fault_free_makespan = None
        if fault_baseline and faults is not None and len(faults) > 0:
            baseline = Dispatcher(self.system).run(
                scheduler.plan(list(jobs), self.system),
                label=(label or scheduler.name) + ":fault-free",
            )
            fault_free_makespan = baseline.makespan
        policy = scheduler.plan(jobs, self.system)
        # The completion hook feeds only the main run -- the fault-free
        # baseline above would otherwise train the predictor twice on
        # the same batch.
        result = Dispatcher(self.system).run(
            policy,
            label=label or scheduler.name,
            faults=faults,
            predictor=self.predictor,
        )
        if fault_free_makespan is not None:
            result.fault_free_makespan = fault_free_makespan
        return result
