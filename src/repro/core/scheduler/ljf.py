"""Baseline: naive Longest-Job-First scheduling (paper III-C2).

The baseline does *not* adjust memory allocation sizes: every job gets
the fixed fair share ``a_unit = max_size / P`` (P = outstanding job
slots).  Jobs enter a single queue in descending order of their
shortest estimated execution time; whenever a spot opens, the job at
the *head* is dispatched to its best-performing memory.  Head-of-line
blocking is deliberate -- the paper notes this naive policy "is likely
to result in the single processor performance of the best in-memory
processor" (V-B3), which is what Figure 16's 34%-of-oracle baseline
shows.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from ...memories.base import MemoryKind
from ..job import Job
from ..predictor import PerformancePredictor
from .adjustments import PlannedJob, PlanQueue, PlanTable, TablePolicy
from .base import Dispatch, MLIMPSystem, ResourceView, Scheduler

__all__ = ["LJFScheduler", "LJFPolicy"]


class LJFPolicy(TablePolicy):
    """Single queue, longest derate-scaled estimate first, with strict
    head-of-line dispatch.

    The queue holds one fair-share sized :class:`PlannedJob` per job,
    on the job's best memory in ``table``; when a device is lost or
    derated the queue re-points each affected job to its best
    surviving option.
    """

    def __init__(self, table: PlanTable, queue: list[PlannedJob]) -> None:
        super().__init__(table)
        scaled = table.scaled
        self._key = lambda entry: -scaled(entry)  # longest scaled time first
        self._queue = PlanQueue(self._key, queue)

    def pending(self) -> int:
        return len(self._queue)

    def queue_depths(self) -> dict[str, int]:
        return {"shared": len(self._queue)}

    def next_dispatches(self, view: ResourceView) -> list[Dispatch]:
        dispatches: list[Dispatch] = []
        free_slots = dict(view.free_slots)
        free_run = dict(view.largest_free_run)
        queue = self._queue
        while queue.size:
            head = queue.entries[queue.head]
            kind = head.kind
            if free_slots.get(kind, 0) <= 0 or free_run.get(kind, 0) < head.arrays:
                break  # naive head-of-line blocking
            queue.take(queue.head)
            dispatches.append(
                Dispatch(
                    job=head.job,
                    kind=kind,
                    arrays=head.arrays,
                    predicted_time=self.table.scaled(head),
                )
            )
            free_slots[kind] -= 1
            free_run[kind] -= head.arrays
        return dispatches

    # -- online admission (repro.serving) ------------------------------
    def admit(self, jobs: list[Job], now: float) -> list[Job]:
        """Arrival-awareness: size each arrival on every surviving
        memory and insert it into the single queue in LJF order.

        The naive baseline stays naive under open arrivals: an arrival
        goes behind every waiting job at least as long as it, and
        head-of-line blocking still applies at dispatch time.
        """
        unplaced: list[Job] = []
        for job in jobs:
            if self.table.admit(job):
                self._queue.insert(self.table.best(job.job_id))
            else:
                unplaced.append(job)
        return unplaced

    # -- graceful degradation (repro.faults) ---------------------------
    def device_lost(
        self, kind: MemoryKind, jobs: list[Job], now: float
    ) -> list[Job]:
        self.table.lose(kind)
        unplaced: list[Job] = []
        rebuilt: list[PlannedJob] = []
        waiting = [(entry.job, entry) for entry in self._queue]
        for job, entry in waiting + [(job, None) for job in jobs]:
            if entry is None or entry.kind is kind:
                entry = self.table.best(job.job_id)
            if entry is None:
                unplaced.append(job)
            else:
                rebuilt.append(entry)
        self.table.drop(unplaced)
        self._queue = PlanQueue(self._key, rebuilt)
        return unplaced

    def device_derated(self, kind: MemoryKind, factor: float, now: float) -> None:
        self.table.derate(kind, factor)
        # Re-pick each queued job's best memory under the new scaling.
        self._queue = PlanQueue(
            self._key,
            [self.table.best(entry.job.job_id) or entry for entry in self._queue],
        )


@dataclass
class LJFScheduler(Scheduler):
    """Longest-Job-First with fixed fair-share allocations."""

    predictor: PerformancePredictor
    name: str = "ljf"

    def fair_share_options(
        self, job: Job, system: MLIMPSystem
    ) -> dict[MemoryKind, PlannedJob]:
        """One fixed fair-share sized :class:`PlannedJob` per memory
        the job fits (the III-C2 ``a_unit = max_size / P`` sizing)."""
        options: dict[MemoryKind, PlannedJob] = {}
        for kind in system.kinds:
            if kind not in job.profiles:
                continue
            estimate = self.predictor.estimate(job, kind)
            if estimate.unit_arrays > system.arrays(kind):
                continue  # one replica does not even fit this device
            arrays = system.fair_allocation(kind, estimate.unit_arrays)
            options[kind] = PlannedJob(
                job=job, kind=kind, arrays=arrays, estimate=estimate
            )
        return options

    def plan(
        self, jobs: list[Job], system: MLIMPSystem, upcoming: Sequence[Job] = ()
    ) -> LJFPolicy:
        table = PlanTable(system, lambda job: self.fair_share_options(job, system))
        queue: list[PlannedJob] = []
        for job in jobs:
            if not table.admit(job):
                raise ValueError(f"job {job.job_id} fits no memory in the system")
            queue.append(table.best(job.job_id))
        return LJFPolicy(table, queue)
