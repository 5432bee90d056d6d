"""Adaptive scheduling (paper III-C4).

Planning: each job is sized with the knee heuristic on every memory,
queued on the memory where it is estimated fastest, and the queues are
balanced with the inter-queue adjustment (Algorithm 1).

Dispatching is greedy and *local*: whenever resources free up, queued
jobs run if their requested allocation fits, larger jobs first; any
remainder resources are *backfilled* with a waiting job if it can
finish before the jobs already in flight.  Because dispatch decisions
re-evaluate at every completion event, the adaptive scheduler absorbs
prediction error -- at the price of scheduling bubbles from fragmented
remainders (III-C5).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from ...memories.base import MemoryKind
from ..job import Job
from ..predictor import PerformancePredictor
from .adjustments import (
    JobSizing,
    PlannedJob,
    PlanQueue,
    PlanTable,
    QueueBalance,
    TablePolicy,
    first_fit_launches,
    inter_queue_adjust,
    longest_first,
)
from .base import Dispatch, MLIMPSystem, ResourceView, Scheduler

__all__ = ["AdaptiveScheduler", "AdaptivePolicy"]


class AdaptivePolicy(TablePolicy):
    """Greedy largest-first dispatch with remainder backfill.

    ``queues`` holds the planned entries of the table's live memories
    (a memory missing from it starts with an empty queue).  The queues
    and Algorithm 1's rankings live in one :class:`QueueBalance` for
    the whole run: arrivals and migrations insert, launches remove,
    and only a device loss or derate builds a new one."""

    def __init__(
        self,
        table: PlanTable,
        queues: dict[MemoryKind, list[PlannedJob]],
        backfill: bool = True,
    ) -> None:
        super().__init__(table)
        self._keep(
            {kind: PlanQueue(longest_first, queues.get(kind, ())) for kind in table.live}
        )
        self._backfill = backfill
        # Estimated completion times of in-flight jobs, per memory.
        self._inflight: dict[MemoryKind, dict[str, float]] = {
            kind: {} for kind in self._queues
        }

    def _keep(self, queues: dict[MemoryKind, PlanQueue]) -> None:
        """Balance ``queues`` from now on (ranked from the table)."""
        self._queues = queues
        self._balance = QueueBalance(queues, self.table.plans, self.table.system)

    def pending(self) -> int:
        return sum(map(len, self._queues.values()))

    def queue_depths(self) -> dict[str, int]:
        return {kind.value: len(queue) for kind, queue in self._queues.items()}

    def notify_completion(self, job: Job, kind: MemoryKind, now: float) -> None:
        self._inflight.get(kind, {}).pop(job.job_id, None)
        super().notify_completion(job, kind, now)

    def notify_failed(self, job: Job, now: float) -> None:
        # A failed job's predicted end must not stay a backfill horizon.
        for inflight in self._inflight.values():
            inflight.pop(job.job_id, None)
        super().notify_failed(job, now)

    def _requeue(self, jobs: list[Job]) -> list[Job]:
        """Queue each job on its table ``best`` memory and run Algorithm
        1 over every queue; returns (and drops) the jobs with no live
        option."""
        arrivals: dict[MemoryKind, list[PlannedJob]] = {}
        unplaced: list[Job] = []
        for job in jobs:
            best = self.table.best(job.job_id)
            if best is None:
                unplaced.append(job)
            else:
                arrivals.setdefault(best.kind, []).append(best)
        self.table.drop(unplaced)
        self._balance.balance(arrivals)
        return unplaced

    # -- graceful degradation (repro.faults) ---------------------------
    def device_lost(
        self, kind: MemoryKind, jobs: list[Job], now: float
    ) -> list[Job]:
        """Re-place the lost queue and the victims on their surviving
        ``best`` memories; Algorithm 1 then balances the degraded
        system, not merely a feasible one."""
        if kind not in self._queues:
            return list(jobs)
        self.table.lose(kind)
        orphans = self._queues.pop(kind)
        self._inflight.pop(kind, None)
        self._keep(self._queues)
        return self._requeue([entry.job for entry in orphans] + jobs)

    # -- online admission (repro.serving) ------------------------------
    def admit(self, jobs: list[Job], now: float) -> list[Job]:
        """Arrival-awareness: knee-size each arrival on every live
        memory, queue it where it is estimated fastest (derate-aware),
        and run the inter-queue adjustment (Algorithm 1) so the
        open-system queues stay balanced as load shifts.

        Returns the jobs that fit no surviving memory (the serving
        layer counts them as shed).
        """
        placed: list[Job] = []
        unplaced: list[Job] = []
        for job in jobs:
            (placed if self.table.admit(job) else unplaced).append(job)
        if placed:
            self._requeue(placed)
        return unplaced

    def device_derated(self, kind: MemoryKind, factor: float, now: float) -> None:
        self.table.derate(kind, factor)
        # Re-pick every queued job's best memory under the new scaling
        # (an inter-queue migration pass with derated estimates).  A
        # queue holds one memory, so its estimated times still order it.
        queues: dict[MemoryKind, list[PlannedJob]] = {k: [] for k in self._queues}
        for queue in self._queues.values():
            for entry in queue:
                best = self.table.best(entry.job.job_id) or entry
                queues[best.kind].append(best)
        self._keep(
            {kind: PlanQueue(longest_first, entries) for kind, entries in queues.items()}
        )

    # ------------------------------------------------------------------
    def next_dispatches(self, view: ResourceView) -> list[Dispatch]:
        dispatches: list[Dispatch] = []
        now = view.now
        # (free slots, largest free run) per memory after pass 1.
        left: dict[MemoryKind, tuple[int, int]] = {}

        # Pass 1: greedy, priority to larger jobs with their requested
        # allocation -- each launch is the first queued entry that fits
        # what the earlier launches left.
        scaled = self.table.scaled
        unrank = self._balance.unrank
        for kind, queue in self._queues.items():
            first = len(dispatches)
            left[kind] = first_fit_launches(queue, kind, view, scaled, dispatches)
            inflight = self._inflight[kind]
            for dispatch in dispatches[first:]:
                job_id = dispatch.job.job_id
                inflight[job_id] = now + dispatch.predicted_time
                unrank(job_id, kind)

        # Pass 2: backfill remainders with jobs that finish before the
        # current in-flight work: the first queued entry (lowest
        # position) whose snapped remainder allocation finishes by the
        # horizon.
        if self._backfill:
            for kind, queue in self._queues.items():
                slots, run = left[kind]
                if slots <= 0 or run <= 0 or not queue:
                    continue
                inflight = self._inflight[kind]
                if not inflight:
                    continue  # nothing to hide behind; pass 1 covers idle devices
                horizon = min(inflight.values())
                derate = self.table.factor(kind)
                live = queue.live
                chosen = None
                # Division and addition round monotonically, so the
                # rows that finish by the horizon are a prefix.
                for row in queue.backfill_rows(run):
                    if now + row[0] / derate > horizon:
                        break
                    if live[row[1]] and (chosen is None or row[1] < chosen[1]):
                        chosen = row
                if chosen is None:
                    continue
                t, pos, arrays = chosen
                entry = queue.take(pos)
                est_time = t / derate
                dispatches.append(
                    Dispatch(
                        job=entry.job,
                        kind=kind,
                        arrays=arrays,
                        predicted_time=est_time,
                    )
                )
                inflight[entry.job.job_id] = now + est_time
                unrank(entry.job.job_id, kind)
        return dispatches


@dataclass
class AdaptiveScheduler(JobSizing, Scheduler):
    """Knee-sized multi-queue LJF with inter-queue adjustment."""

    predictor: PerformancePredictor
    backfill: bool = True
    inter_queue: bool = True
    allocation_cap_fraction: float = 0.5
    sizing: str = "knee"
    name: str = "adaptive"

    def build_plans(
        self, jobs: list[Job], table: PlanTable
    ) -> dict[MemoryKind, list[PlannedJob]]:
        """Knee-size every job into ``table`` and queue it on its best
        memory, then apply Algorithm 1 (shared with the global
        scheduler).  Returns the balanced per-memory queues; the table
        keeps every job's sized plan on every memory it fits -- what
        arrivals and the graceful-degradation hooks re-place jobs from.
        """
        system = table.system
        queues: dict[MemoryKind, list[PlannedJob]] = {k: [] for k in system.kinds}
        for job, options in zip(jobs, self.plan_many(jobs, system)):
            if not table.record(job, options):
                raise ValueError(f"job {job.job_id} fits no memory in the system")
            best = table.best(job.job_id)
            queues[best.kind].append(best)
        if self.inter_queue:
            queues = inter_queue_adjust(queues, table.plans, system)
        return queues

    def plan(
        self, jobs: list[Job], system: MLIMPSystem, upcoming: Sequence[Job] = ()
    ) -> AdaptivePolicy:
        table = self.plan_table(system, upcoming)
        queues = self.build_plans(jobs, table)
        return AdaptivePolicy(table, queues, backfill=self.backfill)
