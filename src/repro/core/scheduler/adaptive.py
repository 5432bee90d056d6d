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
from dataclasses import dataclass, field
from typing import Callable

from ...memories.base import MemoryKind
from ..job import Job
from ..predictor import PerformancePredictor
from .adjustments import JobSizing, PlannedJob, drop_plans, inter_queue_adjust
from .base import Dispatch, DispatchPolicy, MLIMPSystem, ResourceView, Scheduler

__all__ = ["AdaptiveScheduler", "AdaptivePolicy"]


class AdaptivePolicy(DispatchPolicy):
    """Greedy largest-first dispatch with remainder backfill."""

    def __init__(
        self,
        queues: dict[MemoryKind, list[PlannedJob]],
        backfill: bool = True,
        plans: dict[str, dict[MemoryKind, PlannedJob]] | None = None,
        system: MLIMPSystem | None = None,
        planner: Callable[[Job], dict[MemoryKind, PlannedJob]] | None = None,
    ) -> None:
        # Largest estimated time first within each queue.
        self._queues = {
            kind: sorted(entries, key=lambda e: e.est_time, reverse=True)
            for kind, entries in queues.items()
        }
        self._backfill = backfill
        # Estimated completion times of in-flight jobs, per memory.
        self._inflight: dict[MemoryKind, dict[str, float]] = {
            kind: {} for kind in queues
        }
        # Per-job plans on every supported memory + the system: what
        # the graceful-degradation hooks re-plan with (optional -- the
        # hooks fall back to base-class behaviour without them).
        self._plans = plans
        self._system = system
        # Knee-sizes a newly arrived job on every memory it fits;
        # enables online admission (repro.serving).
        self._planner = planner
        self._derate: dict[MemoryKind, float] = {}

    def pending(self) -> int:
        return sum(len(entries) for entries in self._queues.values())

    def queue_depths(self) -> dict[str, int]:
        return {kind.value: len(entries) for kind, entries in self._queues.items()}

    def notify_completion(self, job: Job, kind: MemoryKind, now: float) -> None:
        self._inflight.get(kind, {}).pop(job.job_id, None)
        drop_plans(self._plans, [job])

    def notify_failed(self, job: Job, now: float) -> None:
        drop_plans(self._plans, [job])

    # -- graceful degradation (repro.faults) ---------------------------
    def _scaled_time(self, entry: PlannedJob, kind: MemoryKind) -> float:
        return entry.est_time / self._derate.get(kind, 1.0)

    def _best_placement(self, job_id: str) -> PlannedJob | None:
        """The job's fastest (derate-scaled) option on a live queue."""
        options = [
            (self._scaled_time(entry, kind), kind.value, entry)
            for kind, entry in self._plans.get(job_id, {}).items()
            if kind in self._queues
        ]
        if not options:
            return None
        return min(options)[2]

    def device_lost(
        self, kind: MemoryKind, jobs: list[Job], now: float
    ) -> list[Job]:
        if self._plans is None or kind not in self._queues:
            return list(jobs)
        orphans = self._queues.pop(kind)
        self._inflight.pop(kind, None)
        unplaced: list[Job] = []
        for entry in orphans:
            best = self._best_placement(entry.job.job_id)
            if best is None:
                unplaced.append(entry.job)
            else:
                self._queues[best.kind].append(best)
        for job in jobs:
            best = self._best_placement(job.job_id)
            if best is None:
                unplaced.append(job)
            else:
                self._queues[best.kind].append(best)
        drop_plans(self._plans, unplaced)
        # Re-run Algorithm 1 over the survivors so the degraded system
        # is balanced, not merely feasible.
        self._rebalance()
        return unplaced

    def _rebalance(self) -> None:
        """Algorithm 1 over the currently *queued* jobs (the live
        queues), then restore longest-first dispatch order."""
        if self._system is not None and self._queues and self._plans is not None:
            # Algorithm 1 only reads the options of queued jobs on live
            # queues, so the plan table goes in unfiltered.
            alive = [k for k in self._system.kinds if k in self._queues]
            self._queues = inter_queue_adjust(
                self._queues, self._plans, self._system.subset(alive)
            )
        self._queues = {
            k: sorted(entries, key=lambda e: e.est_time, reverse=True)
            for k, entries in self._queues.items()
        }

    # -- online admission (repro.serving) ------------------------------
    def admit(self, jobs: list[Job], now: float) -> list[Job]:
        """Arrival-awareness: knee-size each arrival on every live
        memory, queue it where it is estimated fastest (derate-aware),
        and re-run the inter-queue adjustment (Algorithm 1) so the
        open-system queues stay balanced as load shifts.

        Returns the jobs that fit no surviving memory (the serving
        layer counts them as shed).
        """
        if not jobs:
            return []  # admit contract: an empty batch is a pure no-op
        if self._planner is None:
            return list(jobs)
        unplaced: list[Job] = []
        admitted = False
        for job in jobs:
            options = {
                kind: entry
                for kind, entry in self._planner(job).items()
                if kind in self._queues
            }
            if not options:
                unplaced.append(job)
                continue
            if self._plans is not None:
                self._plans[job.job_id] = options
            best = min(
                options.items(),
                key=lambda kv: (self._scaled_time(kv[1], kv[0]), kv[0].value),
            )[1]
            self._queues[best.kind].append(best)
            admitted = True
        if admitted:
            self._rebalance()
        return unplaced

    def device_derated(self, kind: MemoryKind, factor: float, now: float) -> None:
        self._derate[kind] = factor
        if self._plans is None:
            return
        # Re-pick every queued job's best memory under the new scaling
        # (an inter-queue migration pass with derated estimates).
        queued = [e for entries in self._queues.values() for e in entries]
        self._queues = {k: [] for k in self._queues}
        for entry in queued:
            best = self._best_placement(entry.job.job_id) or entry
            self._queues[best.kind].append(best)
        self._queues = {
            k: sorted(
                entries, key=lambda e: self._scaled_time(e, k), reverse=True
            )
            for k, entries in self._queues.items()
        }

    # ------------------------------------------------------------------
    def next_dispatches(self, view: ResourceView) -> list[Dispatch]:
        dispatches: list[Dispatch] = []
        free_slots = dict(view.free_slots)
        free_run = dict(view.largest_free_run)

        # Pass 1: greedy, priority to larger jobs with their requested
        # allocation.
        for kind, queue in self._queues.items():
            remaining: list[PlannedJob] = []
            for entry in queue:
                if free_slots.get(kind, 0) > 0 and free_run.get(kind, 0) >= entry.arrays:
                    est_time = self._scaled_time(entry, kind)
                    dispatches.append(
                        Dispatch(
                            job=entry.job,
                            kind=kind,
                            arrays=entry.arrays,
                            predicted_time=est_time,
                        )
                    )
                    free_slots[kind] -= 1
                    free_run[kind] -= entry.arrays
                    self._inflight[kind][entry.job.job_id] = (
                        view.now + est_time
                    )
                else:
                    remaining.append(entry)
            self._queues[kind] = remaining

        # Pass 2: backfill remainders with jobs that finish before the
        # current in-flight work.
        if self._backfill:
            for kind, queue in self._queues.items():
                run = free_run.get(kind, 0)
                if free_slots.get(kind, 0) <= 0 or run <= 0 or not queue:
                    continue
                inflight = self._inflight.get(kind, {})
                if not inflight:
                    continue  # nothing to hide behind; pass 1 covers idle devices
                horizon = min(inflight.values())
                for entry in list(queue):
                    if entry.estimate.unit_arrays > run:
                        continue
                    arrays = entry.estimate.snap_to_replica(run)
                    est_time = entry.estimate.total_time(arrays) / self._derate.get(
                        kind, 1.0
                    )
                    finish = view.now + est_time
                    if finish <= horizon:
                        dispatches.append(
                            Dispatch(
                                job=entry.job,
                                kind=kind,
                                arrays=arrays,
                                predicted_time=est_time,
                            )
                        )
                        queue.remove(entry)
                        free_slots[kind] -= 1
                        inflight[entry.job.job_id] = finish
                        break
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
        self, jobs: list[Job], system: MLIMPSystem
    ) -> tuple[
        dict[MemoryKind, list[PlannedJob]],
        dict[str, dict[MemoryKind, PlannedJob]],
    ]:
        """Knee-size every job and queue it on its best memory, then
        apply Algorithm 1 (shared with the global scheduler).

        Returns ``(queues, plans)``: the balanced per-memory queues
        plus every job's sized plan on every memory it fits -- the
        lookup table the graceful-degradation hooks re-place jobs from.
        """
        queues: dict[MemoryKind, list[PlannedJob]] = {k: [] for k in system.kinds}
        plans: dict[str, dict[MemoryKind, PlannedJob]] = {}
        for job, options in zip(jobs, self.plan_many(jobs, system)):
            if not options:
                raise ValueError(f"job {job.job_id} fits no memory in the system")
            plans[job.job_id] = options
            best = min(options.values(), key=lambda entry: entry.est_time)
            queues[best.kind].append(best)
        if self.inter_queue:
            queues = inter_queue_adjust(queues, plans, system)
        return queues, plans

    def build_queues(
        self, jobs: list[Job], system: MLIMPSystem
    ) -> dict[MemoryKind, list[PlannedJob]]:
        """The balanced queues alone (see :meth:`build_plans`)."""
        return self.build_plans(jobs, system)[0]

    def plan(
        self, jobs: list[Job], system: MLIMPSystem, upcoming: Sequence[Job] = ()
    ) -> AdaptivePolicy:
        queues, plans = self.build_plans(jobs, system)
        return AdaptivePolicy(
            queues,
            backfill=self.backfill,
            plans=plans,
            system=system,
            planner=self.admission_planner(system, upcoming),
        )
