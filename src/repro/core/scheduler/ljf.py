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

from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Callable

from ...memories.base import MemoryKind
from ..job import Job
from ..predictor import PerformancePredictor
from .base import Dispatch, DispatchPolicy, MLIMPSystem, ResourceView, Scheduler

__all__ = ["LJFScheduler", "LJFPolicy"]


@dataclass
class _QueuedJob:
    job: Job
    best_kind: MemoryKind
    best_time: float
    arrays: int


class LJFPolicy(DispatchPolicy):
    """Single FIFO queue with strict head-of-line dispatch.

    ``candidates`` (one sized :class:`_QueuedJob` per memory a job
    fits, per job) powers the graceful-degradation hooks: when a
    device is lost or derated the queue re-points each affected job to
    its best surviving option.  Without candidates (legacy
    construction) the hooks degrade to the base-class no-ops.
    """

    def __init__(
        self,
        queue: list[_QueuedJob],
        candidates: dict[str, list[_QueuedJob]] | None = None,
        planner: Callable[[Job], list[_QueuedJob]] | None = None,
    ) -> None:
        self._queue = deque(queue)
        self._candidates = candidates
        # Sizes a newly arrived job on every memory it fits (the plan
        # loop as a closure); enables online admission (repro.serving).
        self._planner = planner
        self._lost: set[MemoryKind] = set()
        self._derate: dict[MemoryKind, float] = {}

    def pending(self) -> int:
        return len(self._queue)

    def queue_depths(self) -> dict[str, int]:
        return {"shared": len(self._queue)}

    def _effective_time(self, entry: _QueuedJob) -> float:
        return entry.best_time / self._derate.get(entry.best_kind, 1.0)

    def next_dispatches(self, view: ResourceView) -> list[Dispatch]:
        dispatches: list[Dispatch] = []
        free_slots = dict(view.free_slots)
        free_run = dict(view.largest_free_run)
        while self._queue:
            head = self._queue[0]
            kind = head.best_kind
            if free_slots.get(kind, 0) <= 0 or free_run.get(kind, 0) < head.arrays:
                break  # naive head-of-line blocking
            self._queue.popleft()
            dispatches.append(
                Dispatch(
                    job=head.job,
                    kind=kind,
                    arrays=head.arrays,
                    predicted_time=self._effective_time(head),
                )
            )
            free_slots[kind] -= 1
            free_run[kind] -= head.arrays
        return dispatches

    # -- online admission (repro.serving) ------------------------------
    def admit(self, jobs: list[Job], now: float) -> list[Job]:
        """Arrival-awareness: size each arrival on every surviving
        memory and insert it into the single queue in LJF order.

        The naive baseline stays naive under open arrivals: the queue
        is re-sorted longest-first over the *waiting* jobs only, and
        head-of-line blocking still applies at dispatch time.
        """
        if not jobs:
            return []  # admit contract: an empty batch is a pure no-op
        if self._planner is None:
            return list(jobs)
        unplaced: list[Job] = []
        for job in jobs:
            options = [
                entry
                for entry in self._planner(job)
                if entry.best_kind not in self._lost
            ]
            if not options:
                unplaced.append(job)
                continue
            if self._candidates is not None:
                self._candidates[job.job_id] = options
            self._queue.append(min(options, key=self._effective_time))
        self._resort()
        return unplaced

    # -- graceful degradation (repro.faults) ---------------------------
    def _best_candidate(self, job: Job) -> _QueuedJob | None:
        if self._candidates is None:
            return None
        options = [
            entry
            for entry in self._candidates.get(job.job_id, [])
            if entry.best_kind not in self._lost
        ]
        if not options:
            return None
        return min(options, key=self._effective_time)

    def _resort(self) -> None:
        self._queue = deque(
            sorted(self._queue, key=self._effective_time, reverse=True)
        )

    def device_lost(
        self, kind: MemoryKind, jobs: list[Job], now: float
    ) -> list[Job]:
        if self._candidates is None:
            return list(jobs)
        self._lost.add(kind)
        unplaced: list[Job] = []
        rebuilt: list[_QueuedJob] = []
        for entry in self._queue:
            if entry.best_kind is not kind:
                rebuilt.append(entry)
                continue
            alt = self._best_candidate(entry.job)
            if alt is None:
                unplaced.append(entry.job)
            else:
                rebuilt.append(alt)
        for job in jobs:
            alt = self._best_candidate(job)
            if alt is None:
                unplaced.append(job)
            else:
                rebuilt.append(alt)
        self._queue = rebuilt
        self._resort()
        return unplaced

    def device_derated(self, kind: MemoryKind, factor: float, now: float) -> None:
        self._derate[kind] = factor
        if self._candidates is None:
            return
        # Re-pick each queued job's best memory under the new scaling.
        self._queue = [
            self._best_candidate(entry.job) or entry for entry in self._queue
        ]
        self._resort()


@dataclass
class LJFScheduler(Scheduler):
    """Longest-Job-First with fixed fair-share allocations."""

    predictor: PerformancePredictor
    name: str = "ljf"

    def fair_share_options(
        self, job: Job, system: MLIMPSystem
    ) -> list[_QueuedJob]:
        """One fixed fair-share sized :class:`_QueuedJob` per memory
        the job fits (the III-C2 ``a_unit = max_size / P`` sizing)."""
        options: list[_QueuedJob] = []
        for kind in system.kinds:
            if kind not in job.profiles:
                continue
            estimate = self.predictor.estimate(job, kind)
            if estimate.unit_arrays > system.arrays(kind):
                continue  # one replica does not even fit this device
            arrays = max(system.fair_share(kind), estimate.unit_arrays)
            arrays = min(arrays, system.arrays(kind))
            options.append(
                _QueuedJob(
                    job=job,
                    best_kind=kind,
                    best_time=estimate.total_time(arrays),
                    arrays=arrays,
                )
            )
        return options

    def plan(
        self, jobs: list[Job], system: MLIMPSystem, upcoming: Sequence[Job] = ()
    ) -> LJFPolicy:
        planner = lambda job: self.fair_share_options(job, system)  # noqa: E731
        if not jobs:
            return LJFPolicy([], candidates={}, planner=planner)
        entries: list[_QueuedJob] = []
        candidates: dict[str, list[_QueuedJob]] = {}
        for job in jobs:
            options = self.fair_share_options(job, system)
            if not options:
                raise ValueError(f"job {job.job_id} fits no memory in the system")
            candidates[job.job_id] = options
            entries.append(min(options, key=lambda entry: entry.best_time))
        # Longest (shortest-execution-time metric) first.
        entries.sort(key=lambda entry: entry.best_time, reverse=True)
        return LJFPolicy(entries, candidates=candidates, planner=planner)
