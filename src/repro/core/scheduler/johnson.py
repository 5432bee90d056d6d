"""Johnson's rule: the one RCPSP special case with a known optimum.

The paper (III-C1) notes that the MLIMP scheduling problem is NP-hard
RCPSP, with "no known golden solution ... (except for a special case
of Johnson's rule [36])".  That special case is the two-machine flow
shop -- and an MLIMP job on a single memory *is* one: every job first
occupies the shared off-chip pipe (fill) and then the device
(compute).  With one job slot, sequencing the queue by Johnson's rule
provably minimises the makespan.

:func:`johnson_order` implements the classic rule — jobs whose first
stage is shorter go first in ascending first-stage order; the rest go
last in descending second-stage order — and
:class:`JohnsonScheduler` applies it to a single-memory MLIMP system
(an optimal reference for the degenerate case, a heuristic beyond
it).  :func:`flow_shop_makespan` is the exact two-machine recurrence
used by the optimality tests.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from ...memories.base import MemoryKind
from ..job import Job
from ..predictor import PerformancePredictor
from .base import Dispatch, DispatchPolicy, MLIMPSystem, ResourceView, Scheduler

__all__ = ["johnson_order", "flow_shop_makespan", "JohnsonScheduler"]


def johnson_order(stage_times: list[tuple[float, float]]) -> list[int]:
    """Optimal two-machine flow-shop sequence (job indices).

    ``stage_times[i] = (a_i, b_i)``: time of job i on machine 1 then
    machine 2.  Johnson (1954): schedule jobs with ``a_i < b_i`` first,
    ascending in ``a_i``; the remainder last, descending in ``b_i``.
    """
    for a, b in stage_times:
        if a < 0 or b < 0:
            raise ValueError("stage times must be non-negative")
    first = sorted(
        (i for i, (a, b) in enumerate(stage_times) if a < b),
        key=lambda i: stage_times[i][0],
    )
    last = sorted(
        (i for i, (a, b) in enumerate(stage_times) if a >= b),
        key=lambda i: stage_times[i][1],
        reverse=True,
    )
    return first + last


def flow_shop_makespan(
    stage_times: list[tuple[float, float]], order: list[int]
) -> float:
    """Exact makespan of a two-machine flow shop under ``order``."""
    if sorted(order) != list(range(len(stage_times))):
        raise ValueError("order must be a permutation of the jobs")
    machine1 = 0.0
    machine2 = 0.0
    for index in order:
        a, b = stage_times[index]
        machine1 += a
        machine2 = max(machine2, machine1) + b
    return machine2


class _JohnsonPolicy(DispatchPolicy):
    """Dispatch the Johnson sequence in order onto one memory."""

    def __init__(
        self, sequence: list[tuple[Job, int, float]], kind: MemoryKind
    ) -> None:
        self._sequence = list(sequence)
        self._kind = kind

    def pending(self) -> int:
        return len(self._sequence)

    def queue_depths(self) -> dict[str, int]:
        return {self._kind.value: len(self._sequence)}

    def next_dispatches(self, view: ResourceView) -> list[Dispatch]:
        dispatches: list[Dispatch] = []
        free_slots = view.free_slots.get(self._kind, 0)
        free_run = view.largest_free_run.get(self._kind, 0)
        while self._sequence:
            job, arrays, est_time = self._sequence[0]
            if free_slots <= 0 or free_run < arrays:
                break  # the sequence is the schedule; no reordering
            self._sequence.pop(0)
            dispatches.append(
                Dispatch(
                    job=job, kind=self._kind, arrays=arrays, predicted_time=est_time
                )
            )
            free_slots -= 1
            free_run -= arrays
        return dispatches


@dataclass
class JohnsonScheduler(Scheduler):
    """Johnson's-rule sequencing for a single-memory MLIMP system.

    Stage 1 is the job's estimated load time (the shared fill pipe),
    stage 2 its estimated compute time, both at the fair-share
    allocation.  Optimal for the one-slot flow-shop special case the
    paper cites; a sequencing heuristic when the device overlaps
    several jobs.
    """

    predictor: PerformancePredictor
    name: str = "johnson"

    def plan(
        self, jobs: list[Job], system: MLIMPSystem, upcoming: Sequence[Job] = ()
    ) -> _JohnsonPolicy:
        if len(system.kinds) != 1:
            raise ValueError(
                "Johnson's rule applies to a single-memory system; "
                f"got {len(system.kinds)} memories"
            )
        kind = system.kinds[0]
        allocations: list[int] = []
        est_times: list[float] = []
        stage_times: list[tuple[float, float]] = []
        for job in jobs:
            estimate = self.predictor.estimate(job, kind)
            if estimate.unit_arrays > system.arrays(kind):
                raise ValueError(f"job {job.job_id} does not fit {kind}")
            arrays = system.fair_allocation(kind, estimate.unit_arrays)
            allocations.append(arrays)
            est_times.append(estimate.total_time(arrays))
            stage_times.append(
                (estimate.load_time(arrays), estimate.compute_time(arrays))
            )
        order = johnson_order(stage_times)
        sequence = [(jobs[i], allocations[i], est_times[i]) for i in order]
        return _JohnsonPolicy(sequence, kind)
