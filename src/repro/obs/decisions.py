"""Scheduler decision log: every dispatch, predicted vs. actual.

The paper's predictor study (Section III-E, Fig. 10/15) asks how much
scheduling quality suffers when the performance predictor is wrong.
To make that measurable on *every* run -- not only in the dedicated
predictor experiments -- the dispatcher records one
:class:`DispatchDecision` per launched job: the chosen memory, the
allocation, the total time the scheduler's estimate
(:class:`~repro.core.perfmodel.ScaleFreeEstimate` or
:class:`~repro.core.perfmodel.ProfileEstimate`) predicted for that
allocation, and -- once the job finishes -- the actual latency from
the :class:`~repro.core.dispatcher.JobRecord`.  Predictor error then
falls out as a per-run metric via :meth:`DecisionLog.error_summary`.

Usage::

    result = runtime.run()
    log = result.decisions
    log.error_summary()         # {"count": ..., "mean_abs_rel_error": ...,
                                #  "p50_abs_rel_error": ..., "p90_abs_rel_error": ...}
    worst = max(log, key=lambda d: abs(d.relative_error or 0.0))
    print(worst.job_id, worst.device, worst.predicted_time, worst.actual_time)

    # Slice by device to see where the predictor struggles:
    reram = [d for d in log if d.device == "reram"]
"""

from __future__ import annotations

from dataclasses import dataclass

from .metrics import nearest_rank

__all__ = ["DispatchDecision", "DecisionLog"]


@dataclass
class DispatchDecision:
    """One launch decision and its eventual outcome."""

    job_id: str
    device: str
    arrays: int
    decided_at: float
    predicted_time: float | None = None
    queue_depth: int = 0
    actual_time: float | None = None

    @property
    def resolved(self) -> bool:
        """Both sides of the prediction are known."""
        return self.predicted_time is not None and self.actual_time is not None

    @property
    def relative_error(self) -> float | None:
        """Signed (actual - predicted) / actual; negative = overestimate."""
        if not self.resolved or self.actual_time <= 0:
            return None
        return (self.actual_time - self.predicted_time) / self.actual_time

    def as_dict(self) -> dict:
        return {
            "job_id": self.job_id,
            "device": self.device,
            "arrays": self.arrays,
            "decided_at": self.decided_at,
            "predicted_time": self.predicted_time,
            "actual_time": self.actual_time,
            "queue_depth": self.queue_depth,
            "relative_error": self.relative_error,
        }


class DecisionLog:
    """Append-only log of dispatch decisions for one run."""

    def __init__(self) -> None:
        self._decisions: list[DispatchDecision] = []
        self._by_job: dict[str, DispatchDecision] = {}

    def record(
        self,
        job_id: str,
        device: str,
        arrays: int,
        decided_at: float,
        predicted_time: float | None = None,
        queue_depth: int = 0,
    ) -> DispatchDecision:
        if job_id in self._by_job:
            raise ValueError(f"decision for job {job_id!r} already recorded")
        decision = DispatchDecision(
            job_id=job_id,
            device=device,
            arrays=arrays,
            decided_at=decided_at,
            predicted_time=predicted_time,
            queue_depth=queue_depth,
        )
        self._decisions.append(decision)
        self._by_job[job_id] = decision
        return decision

    def complete(self, job_id: str, actual_time: float) -> None:
        """Attach the measured latency once the job finished."""
        try:
            self._by_job[job_id].actual_time = actual_time
        except KeyError:
            raise KeyError(f"no decision recorded for job {job_id!r}") from None

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._decisions)

    def __iter__(self):
        return iter(self._decisions)

    def __contains__(self, job_id: str) -> bool:
        """A decision for ``job_id`` is already recorded (fault-retry
        relaunches consult this to keep the log one-entry-per-job)."""
        return job_id in self._by_job

    def error_summary(self) -> dict | None:
        """Predictor-error statistics over the resolved decisions.

        Returns ``None`` when no decision carried a prediction (e.g.
        hand-built policies); otherwise a dict with the decision count,
        mean/percentile *absolute* relative error, and the signed mean
        (bias: positive = the predictor underestimates).
        """
        resolved = [d for d in self._decisions if d.resolved and d.actual_time > 0]
        if not resolved:
            return None
        abs_errors = sorted(abs(d.relative_error) for d in resolved)
        signed = [d.relative_error for d in resolved]
        return {
            "count": len(resolved),
            "mean_abs_rel_error": sum(abs_errors) / len(abs_errors),
            "p50_abs_rel_error": nearest_rank(abs_errors, 0.5),
            "p90_abs_rel_error": nearest_rank(abs_errors, 0.9),
            "max_abs_rel_error": abs_errors[-1],
            "mean_signed_rel_error": sum(signed) / len(signed),
        }
