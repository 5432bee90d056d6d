"""Global scheduling (paper III-C5).

Starts from the adaptive scheduler's balanced queues, then applies the
*intra-queue adjustment* (Algorithm 2): allocation is traded from the
shortest jobs to the longest within each queue so every job finishes
near the queue's mean -- removing the fragmented-remainder bubbles the
adaptive scheduler suffers.  A **complete dispatch schedule is then
generated in advance** by list-scheduling the adjusted queues against
the device capacities with the *estimated* durations, including a
full-utilisation adjustment that grows the last placeable job over
remainder arrays no waiting job could use.

At runtime the plan is executed as planned: each job launches at its
planned start (once its planned resources are actually free), with no
reordering, re-sizing, or backfill.  This yields the best utilisation
when predictions are accurate -- and degrades under predictor noise,
when honouring a stale plan inflates tail latency, which is exactly
the sigma ~ 0.39 adaptive/global crossover of Section V-B3.
"""

from __future__ import annotations

import heapq
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass

from ...memories.base import MemoryKind
from ..job import Job
from ..predictor import PerformancePredictor
from .adaptive import AdaptiveScheduler
from .adjustments import (
    PIPE_BANDWIDTH_BPS,
    PlannedJob,
    PlanQueue,
    PlanTable,
    TablePolicy,
    check_sizing,
    intra_queue_adjust,
    longest_first,
)
from .base import DISPATCH_OVERHEAD_S, Dispatch, MLIMPSystem, ResourceView, Scheduler

__all__ = ["GlobalScheduler", "GlobalPolicy", "ScheduledEntry", "build_static_schedule"]


@dataclass(frozen=True)
class ScheduledEntry:
    """One line of the precomputed dispatch schedule."""

    planned_start: float
    entry: PlannedJob


def build_static_schedule(
    queues: dict[MemoryKind, list[PlannedJob]],
    system: MLIMPSystem,
) -> list[ScheduledEntry]:
    """List-schedule the queues offline with estimated durations.

    Every allocation is first capped at its device size, so the plan is
    feasible.  Jobs of every memory are placed jointly: per memory,
    longest-first order; at every (estimated) completion event, place
    every job whose allocation fits the free arrays and slots.  If the
    remainder after a placement cannot host any waiting job, the
    placed job's allocation is grown to soak it up (the III-C5
    full-utilisation adjustment).  Planned durations model what the
    runtime charges: the dispatch overhead and the *shared* off-chip
    fill pipe (approximated FIFO at nominal bandwidth; in-DRAM fills
    bypass it).  Returns planned (start, job, allocation) entries.

    Each memory's waiting jobs are a :class:`PlanQueue` (the adaptive
    dispatch index): a placement is one min-tree descent, and the
    tree's root after taking the job is the smallest allocation among
    the other waiting jobs.  Running jobs are a heap keyed by
    ``(estimated end, memory position, arrays)``, so the whole plan
    costs O(B log B) for B jobs.
    """
    kinds = list(queues)
    waiting: list[PlanQueue] = []
    for kind in kinds:
        cap = system.arrays(kind)
        capped = [e if e.arrays <= cap else e.with_arrays(cap) for e in queues[kind]]
        waiting.append(PlanQueue(longest_first, capped))
    free_arrays = [system.arrays(kind) for kind in kinds]
    free_slots = [system.slots(kind) for kind in kinds]
    running: list[tuple[float, int, int]] = []  # (est end, memory position, arrays)
    pipe_free_at = 0.0
    now = 0.0
    schedule: list[ScheduledEntry] = []

    def place_all(i: int) -> None:
        """Place every job that fits memory ``i``, in queue order.

        Free arrays only shrink during a sweep, so a job that did not
        fit stays unfit: the next placement is the first waiting job
        that fits what is left.  Placements on one memory never free
        resources on another, so a completion sweeps only its own.
        """
        nonlocal pipe_free_at
        kind = kinds[i]
        queue = waiting[i]
        while free_slots[i] > 0 and queue.size:
            pos = queue.first_fitting(free_arrays[i])
            if pos is None:
                break
            entry = queue.take(pos)
            free = free_arrays[i]
            arrays = entry.arrays
            if free - arrays < queue.smallest():
                ceiling = entry.estimate.max_useful_arrays or free
                arrays = entry.estimate.snap_to_replica(min(free, max(arrays, ceiling)))
            fill = queue.fills[pos]
            start = now
            end = start + DISPATCH_OVERHEAD_S + entry.estimate.total_time(arrays)
            if kind is not MemoryKind.DRAM and fill > 0:
                # FIFO approximation of the shared pipe: the fill waits
                # behind earlier fills.
                fill_time = fill / PIPE_BANDWIDTH_BPS
                fill_start = max(start + DISPATCH_OVERHEAD_S, pipe_free_at)
                pipe_free_at = fill_start + fill_time
                end += max(0.0, fill_start - (start + DISPATCH_OVERHEAD_S))
            schedule.append(
                ScheduledEntry(planned_start=start, entry=entry.with_arrays(arrays))
            )
            heapq.heappush(running, (end, i, arrays))
            free_arrays[i] = free - arrays
            free_slots[i] -= 1

    for i in range(len(kinds)):
        place_all(i)
    while any(queue.size for queue in waiting):
        if not running:  # nothing fits an empty device: impossible
            stuck = {k.value: q.size for k, q in zip(kinds, waiting) if q.size}
            raise ValueError(f"static schedule stuck with jobs pending: {stuck}")
        now, i, arrays = heapq.heappop(running)
        free_arrays[i] += arrays
        free_slots[i] += 1
        place_all(i)
    schedule.sort(key=lambda s: s.planned_start)
    return schedule


class GlobalPolicy(TablePolicy):
    """Executes the precomputed schedule, strictly as planned.

    A job launches no earlier than its planned start, in plan order
    per memory, with its planned allocation.  If the actual execution
    runs behind the plan (mispredicted durations), launches wait for
    the planned resources to free up -- the tail-latency failure mode
    the paper ascribes to global scheduling under predictor noise.
    """

    def __init__(
        self,
        table: PlanTable,
        schedule: list[ScheduledEntry],
        intra_queue: bool = True,
    ) -> None:
        super().__init__(table)
        self._load(schedule)
        self._intra_queue = intra_queue

    def _load(self, schedule: list[ScheduledEntry]) -> None:
        """Split the time-ordered ``schedule`` into one lane per memory,
        each entry tagged with its plan position: launches pop lane
        heads, and the tags restore the cross-memory plan order."""
        self._lanes: dict[MemoryKind, deque[tuple[int, ScheduledEntry]]] = {}
        for position, scheduled in enumerate(schedule):
            self._lanes.setdefault(scheduled.entry.kind, deque()).append(
                (position, scheduled)
            )

    def _scheduled(self) -> list[ScheduledEntry]:
        """The unlaunched schedule, in plan order."""
        return [scheduled for _, scheduled in heapq.merge(*self._lanes.values())]

    def pending(self) -> int:
        return sum(len(lane) for lane in self._lanes.values())

    def queue_depths(self) -> dict[str, int]:
        return {kind.value: len(lane) for kind, lane in self._lanes.items() if lane}

    def next_event_time(self, now: float) -> float | None:
        heads = [lane[0][1].planned_start for lane in self._lanes.values() if lane]
        return min(heads) if heads else None

    def next_dispatches(self, view: ResourceView) -> list[Dispatch]:
        # Each memory launches a prefix of its lane: entries due by now
        # that fit, up to the first that does not (strict per-memory
        # plan order).  Memories never share resources, so the lanes
        # are independent; the launches come back in plan order.
        launched: list[tuple[int, Dispatch]] = []
        for kind, lane in self._lanes.items():
            slots = view.free_slots.get(kind, 0)
            run = view.largest_free_run.get(kind, 0)
            while lane:
                position, scheduled = lane[0]
                entry = scheduled.entry
                if (
                    scheduled.planned_start > view.now
                    or slots <= 0
                    or run < entry.arrays
                ):
                    break
                lane.popleft()
                dispatch = Dispatch(
                    job=entry.job,
                    kind=kind,
                    arrays=entry.arrays,
                    predicted_time=self.table.scaled(entry),
                )
                launched.append((position, dispatch))
                slots -= 1
                run -= entry.arrays
        launched.sort(key=lambda item: item[0])
        return [dispatch for _, dispatch in launched]

    # -- re-planning core (shared by device_lost and admit) ------------
    def _replan(self, new_jobs: list[Job], now: float) -> list[Job]:
        """Rebuild the static schedule over the surviving devices.

        Every unlaunched entry plus ``new_jobs`` (in-flight victims of
        a device loss, or newly arrived open-system jobs) are re-queued
        on each job's best surviving plan, Algorithm 2 re-balances the
        queues, and a fresh schedule is list-scheduled from ``now``.
        Returns the jobs that fit no surviving device (once every
        device is lost, that is all of them and the schedule is empty).
        """
        table = self.table
        queues: dict[MemoryKind, list[PlannedJob]] = {k: [] for k in table.live}
        unplaced: list[Job] = []
        waiting = [(s.entry.job, s.entry) for s in self._scheduled()]
        for job, entry in waiting + [(job, None) for job in new_jobs]:
            if entry is None or entry.kind not in queues:
                entry = table.best(job.job_id)
            if entry is None:
                unplaced.append(job)
            else:
                queues[entry.kind].append(entry)
        if self._intra_queue:
            queues = intra_queue_adjust(queues, table.system)
        self._load(
            [
                ScheduledEntry(planned_start=now + s.planned_start, entry=s.entry)
                for s in build_static_schedule(queues, table.system)
            ]
        )
        table.drop(unplaced)
        return unplaced

    # -- online admission (repro.serving) ------------------------------
    def admit(self, jobs: list[Job], now: float) -> list[Job]:
        """Arrival-awareness: fold arrivals into a *fresh* static plan.

        The global scheduler's contract is a complete precomputed
        schedule, so an arrival triggers a full re-plan of the not-yet-
        launched remainder: new jobs are knee-sized, every waiting
        entry keeps its current placement, Algorithm 2 re-balances
        allocations, and the list schedule is rebuilt from ``now``
        (in-flight jobs keep running; launches still wait for their
        planned resources to actually free up).
        """
        if not jobs:
            return []  # admit contract: an empty batch is a pure no-op
        placeable: list[Job] = []
        unplaced: list[Job] = []
        for job in jobs:
            (placeable if self.table.admit(job) else unplaced).append(job)
        if placeable:
            unplaced.extend(self._replan(placeable, now))
        return unplaced

    # -- graceful degradation (repro.faults) ---------------------------
    def device_lost(
        self, kind: MemoryKind, jobs: list[Job], now: float
    ) -> list[Job]:
        """Re-plan the remaining schedule over the surviving devices
        (see :meth:`_replan`)."""
        self.table.lose(kind)
        return self._replan(jobs, now)

    def device_derated(self, kind: MemoryKind, factor: float, now: float) -> None:
        """Record the derate so predictions stay honest.

        The static plan itself is *not* re-timed: executing a stale
        plan under changed device speed is exactly the degradation
        mode the paper ascribes to global scheduling under predictor
        noise (V-B3), and the launch-no-earlier-than-planned policy
        stays correct -- launches simply wait for the planned
        resources to actually free up.
        """
        self.table.derate(kind, factor)


@dataclass
class GlobalScheduler(Scheduler):
    """Adaptive planning + Algorithm 2 + a static dispatch schedule."""

    predictor: PerformancePredictor
    intra_queue: bool = True
    allocation_cap_fraction: float = 0.5
    name: str = "global"

    def __post_init__(self) -> None:
        # The global scheduler always knee-sizes; only the cap varies.
        check_sizing("knee", self.allocation_cap_fraction)

    def plan(
        self, jobs: list[Job], system: MLIMPSystem, upcoming: Sequence[Job] = ()
    ) -> GlobalPolicy:
        base = AdaptiveScheduler(
            predictor=self.predictor,
            allocation_cap_fraction=self.allocation_cap_fraction,
        )
        table = base.plan_table(system, upcoming)
        queues = base.build_plans(jobs, table)
        if self.intra_queue:
            queues = intra_queue_adjust(queues, system)
        return GlobalPolicy(
            table, build_static_schedule(queues, system), intra_queue=self.intra_queue
        )
