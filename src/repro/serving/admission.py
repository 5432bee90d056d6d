"""Predictive SLO-aware admission control (the predict-time gate).

The bounded tenant queues of :class:`~repro.serving.tenants.OpenLoop`
shed load *after* the fact: a job is only rejected once a queue
physically overflows, so under sustained overload the system admits
work it can never finish inside the SLO and burns capacity on jobs
that arrive dead.  :class:`PredictiveAdmission` moves the decision to
arrival time, the way predict-time-based schedulers do (CraneSched's
``use_predict`` swaps the declared timelimit for a learned estimate):
the controller consults the serving stack's *performance predictor* --
oracle, offline MLP artifact, or the self-training
:class:`~repro.core.predictor.OnlinePredictor` -- and rejects any job
whose **predicted sojourn** would miss the run's SLO.

The sojourn forecast is a deterministic fluid model:

* *service* -- the predictor's best-device execution time at the unit
  allocation, ``min over kinds of estimate(job, kind).total_time(
  unit_arrays)`` (the same surface cluster placement sizes transfers
  with);
* *wait* -- the predicted work already admitted and not yet finished,
  divided by the system's total job slots (the fleet of parallel
  servers a fluid backlog drains through);
* admit iff ``wait + service <= slo * margin``.

Rejections surface as a first-class shed cause
(``serving.shed.predicted`` / ``shed_predicted`` in the report), and
the outstanding-work ledger is returned on every exit path: job
completion, job failure under faults, and unplaced-shed.  The
controller is pure bookkeeping -- it owns no simulator events and no
metric series -- so a loop constructed *without* one takes exactly
the pre-admission code path, byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.job import Job
from ..core.predictor import PerformancePredictor
from ..core.scheduler.base import MLIMPSystem
from .tenants import Tenant

__all__ = ["AdmissionController", "PredictiveAdmission"]


class AdmissionController:
    """Interface: decide a job's fate at arrival time.

    ``decide`` runs once per arrival (before the queue-limit check);
    ``release`` runs once per admitted job leaving the system, on any
    path -- completed, failed, or shed as unplaced.
    """

    name = "admission"

    def decide(self, job: Job, tenant: Tenant, now: float) -> bool:
        raise NotImplementedError

    def release(self, job_id: str) -> None:  # pragma: no cover - interface
        pass


@dataclass
class PredictiveAdmission(AdmissionController):
    """Reject jobs whose predicted sojourn misses the run's SLO.

    ``margin`` scales the SLO budget: 1.0 admits exactly up to the
    target, < 1.0 keeps headroom for prediction error, > 1.0 gambles
    on it.
    """

    predictor: PerformancePredictor
    system: MLIMPSystem
    slo_s: float
    margin: float = 1.0
    #: job_id -> predicted service seconds, while the job is in-system.
    outstanding: dict[str, float] = field(default_factory=dict)
    admitted: int = 0
    rejected: int = 0

    def __post_init__(self) -> None:
        if self.slo_s <= 0:
            raise ValueError(f"slo must be positive, got {self.slo_s}")
        if self.margin <= 0:
            raise ValueError(f"margin must be positive, got {self.margin}")
        self._parallelism = max(
            1, sum(self.system.slots(kind) for kind in self.system.kinds)
        )
        self._outstanding_work = 0.0

    @property
    def name(self) -> str:  # type: ignore[override]
        return "predictive"

    # ------------------------------------------------------------------
    def service_estimate(self, job: Job) -> float:
        """Predicted best-device execution time at the unit allocation."""
        best = float("inf")
        for kind in job.profiles:
            if kind not in self.system.specs:
                continue
            est = self.predictor.estimate(job, kind)
            best = min(best, est.total_time(est.unit_arrays))
        return best

    def decide(self, job: Job, tenant: Tenant, now: float) -> bool:
        service = self.service_estimate(job)
        wait = self._outstanding_work / self._parallelism
        if wait + service > self.slo_s * self.margin:
            self.rejected += 1
            return False
        self.outstanding[job.job_id] = service
        self._outstanding_work += service
        self.admitted += 1
        return True

    def release(self, job_id: str) -> None:
        service = self.outstanding.pop(job_id, None)
        if service is not None:
            self._outstanding_work -= service
            if not self.outstanding:
                # Re-anchor the float accumulator whenever the system
                # drains, so subtraction residue never compounds across
                # a long replay horizon.
                self._outstanding_work = 0.0
