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
from itertools import compress

from ...memories.base import MemoryKind
from ..job import Job
from ..predictor import PerformancePredictor
from .adjustments import (
    JobSizing,
    PlannedJob,
    PlanTable,
    TablePolicy,
    inter_queue_adjust,
    no_options,
)
from .base import Dispatch, MLIMPSystem, ResourceView, Scheduler

__all__ = ["AdaptiveScheduler", "AdaptivePolicy"]


#: Tree value of a launched position: larger than any free run.
_GONE = float("inf")


class _Queue:
    """One memory's queue in dispatch order, with the two exact indexes
    :meth:`AdaptivePolicy.next_dispatches` answers from.

    An entry keeps the position it had when the queue was built, and a
    launch only marks its position gone, so queue order is position
    order for the queue's whole life.  Anything that adds to or
    re-orders a queue (admission, Algorithm 1, device loss or derate)
    builds a new one instead, which drops both indexes.  The policy
    wraps a queue's list in a ``_Queue`` only when dispatch first reads
    it, and each index is built on first use.

    * ``_levels`` -- a min tree over the entries' ``arrays`` (root
      first, leaves last, launched leaves at ``_GONE``): the leftmost
      queued entry that fits a free run, or none if the root says even
      the smallest queued allocation does not fit.  A ``head`` (first
      queued position) that fits is that entry too, so the short
      queues of an open system rarely build the tree.
    * ``_backfill[run]`` -- ``(t, position, arrays)`` rows of the
      entries with ``unit_arrays <= run`` sorted by ``t``, where
      ``arrays = snap_to_replica(run)`` and ``t = total_time(arrays)``:
      the entries that finish by a horizon are a prefix of the rows.

    ``build_static_schedule`` plans each memory's waiting jobs on the
    same min tree (:meth:`first_fitting`, :meth:`take`,
    :meth:`smallest`).
    """

    __slots__ = ("entries", "live", "size", "head", "_levels", "_backfill")

    def __init__(self, entries: list[PlannedJob]) -> None:
        self.entries = entries
        self.live = [True] * len(entries)
        self.size = len(entries)
        self.head = 0
        self._levels: list[list[float]] | None = None
        self._backfill: dict[int, list[tuple[float, int, int]]] = {}

    def __len__(self) -> int:
        return self.size

    def __iter__(self):
        """The queued entries, in dispatch order."""
        return compress(self.entries, self.live)

    def _tree(self) -> list[list[float]]:
        levels = self._levels
        if levels is None:
            level = [
                e.arrays if live else _GONE for e, live in zip(self.entries, self.live)
            ]
            width = 1
            while width < len(level):
                width *= 2
            level += [_GONE] * (width - len(level))
            levels = [level]
            while len(level) > 1:
                level = list(map(min, level[::2], level[1::2]))
                levels.append(level)
            levels.reverse()
            self._levels = levels
        return levels

    def first_fitting(self, run: int) -> int | None:
        """Position of the first queued entry with ``arrays <= run``
        (the queue must not be empty)."""
        if self.entries[self.head].arrays <= run:
            return self.head  # a head that fits needs no tree
        levels = self._tree()
        if levels[0][0] > run:
            return None
        pos = 0
        for level in levels[1:]:
            pos *= 2
            if level[pos] > run:
                pos += 1
        return pos

    def smallest(self) -> float:
        """The smallest queued allocation (``_GONE`` when none is queued)."""
        return self._tree()[0][0]

    def backfill_rows(self, run: int) -> list[tuple[float, int, int]]:
        """The ``(t, position, arrays)`` rows for a free run of ``run``."""
        rows = self._backfill.get(run)
        if rows is None:
            rows = []
            for pos, entry in enumerate(self.entries):
                estimate = entry.estimate
                if self.live[pos] and estimate.unit_arrays <= run:
                    arrays = estimate.snap_to_replica(run)
                    rows.append((estimate.total_time(arrays), pos, arrays))
            rows.sort()
            self._backfill[run] = rows
        return rows

    def take(self, pos: int) -> PlannedJob:
        """Remove the entry at ``pos`` from the queue and return it."""
        live = self.live
        live[pos] = False
        self.size -= 1
        if pos == self.head:
            head = pos + 1
            while head < len(live) and not live[head]:
                head += 1
            self.head = head
        levels = self._levels
        if levels is not None:
            depth = len(levels) - 1
            levels[depth][pos] = _GONE
            node = pos
            while depth:
                below = levels[depth]
                value = min(below[node & ~1], below[node | 1])
                depth -= 1
                node >>= 1
                if levels[depth][node] == value:
                    break  # unchanged here, so unchanged above
                levels[depth][node] = value
        return self.entries[pos]


class AdaptivePolicy(TablePolicy):
    """Greedy largest-first dispatch with remainder backfill.

    ``queues`` holds the planned entries of the table's live memories
    (a memory missing from it starts with an empty queue)."""

    def __init__(
        self,
        table: PlanTable,
        queues: dict[MemoryKind, list[PlannedJob]],
        backfill: bool = True,
    ) -> None:
        super().__init__(table)
        # Largest estimated time first within each queue: a plain list
        # until dispatch first reads it (see _indexed).
        self._queues: dict[MemoryKind, list[PlannedJob] | _Queue] = {
            kind: sorted(queues.get(kind, ()), key=lambda e: e.est_time, reverse=True)
            for kind in table.live
        }
        self._backfill = backfill
        # Estimated completion times of in-flight jobs, per memory.
        self._inflight: dict[MemoryKind, dict[str, float]] = {
            kind: {} for kind in self._queues
        }

    def pending(self) -> int:
        return sum(map(len, self._queues.values()))

    def queue_depths(self) -> dict[str, int]:
        return {kind.value: len(queue) for kind, queue in self._queues.items()}

    def notify_completion(self, job: Job, kind: MemoryKind, now: float) -> None:
        self._inflight.get(kind, {}).pop(job.job_id, None)
        super().notify_completion(job, kind, now)

    def _queued(self) -> dict[MemoryKind, list[PlannedJob]]:
        """The live queues as plain lists, for a pass that rebuilds them."""
        return {kind: list(queue) for kind, queue in self._queues.items()}

    def _indexed(self, kind: MemoryKind) -> _Queue:
        """``kind``'s queue, wrapped for dispatch on first use."""
        queue = self._queues[kind]
        if type(queue) is list:
            queue = self._queues[kind] = _Queue(queue)
        return queue

    # -- graceful degradation (repro.faults) ---------------------------
    def device_lost(
        self, kind: MemoryKind, jobs: list[Job], now: float
    ) -> list[Job]:
        if kind not in self._queues:
            return list(jobs)
        self.table.lose(kind)
        orphans = self._queues.pop(kind)
        self._inflight.pop(kind, None)
        queues = self._queued()
        unplaced: list[Job] = []
        for job in [entry.job for entry in orphans] + jobs:
            best = self.table.best(job.job_id)
            if best is None:
                unplaced.append(job)
            else:
                queues[best.kind].append(best)
        self.table.drop(unplaced)
        # Re-run Algorithm 1 over the survivors so the degraded system
        # is balanced, not merely feasible.
        self._rebalance(queues)
        return unplaced

    def _rebalance(self, queues: dict[MemoryKind, list[PlannedJob]]) -> None:
        """Algorithm 1 over the queued jobs ``queues`` (the live
        queues), then restore longest-first dispatch order."""
        if queues:
            # Algorithm 1 only reads the options of queued jobs, so the
            # plan table goes in unfiltered.
            queues = inter_queue_adjust(queues, self.table.plans, self.table.system)
        self._queues = {
            k: sorted(entries, key=lambda e: e.est_time, reverse=True)
            for k, entries in queues.items()
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
        unplaced: list[Job] = []
        queues: dict[MemoryKind, list[PlannedJob]] | None = None
        for job in jobs:
            if not self.table.admit(job):
                unplaced.append(job)
                continue
            best = self.table.best(job.job_id)
            if queues is None:
                queues = self._queued()
            queues[best.kind].append(best)
        if queues is not None:
            self._rebalance(queues)
        return unplaced

    def device_derated(self, kind: MemoryKind, factor: float, now: float) -> None:
        self.table.derate(kind, factor)
        # Re-pick every queued job's best memory under the new scaling
        # (an inter-queue migration pass with derated estimates).
        queues: dict[MemoryKind, list[PlannedJob]] = {k: [] for k in self._queues}
        for queue in self._queues.values():
            for entry in queue:
                best = self.table.best(entry.job.job_id) or entry
                queues[best.kind].append(best)
        self._queues = {
            k: sorted(entries, key=self.table.scaled, reverse=True)
            for k, entries in queues.items()
        }

    # ------------------------------------------------------------------
    def next_dispatches(self, view: ResourceView) -> list[Dispatch]:
        dispatches: list[Dispatch] = []
        now = view.now
        # (free slots, largest free run) per memory after pass 1.
        left: dict[MemoryKind, tuple[int, int]] = {}

        # Pass 1: greedy, priority to larger jobs with their requested
        # allocation -- each launch is the first queued entry that fits
        # what the earlier launches left.
        for kind in self._queues:
            slots = view.free_slots.get(kind, 0)
            run = view.largest_free_run.get(kind, 0)
            if slots > 0 and self._queues[kind]:
                queue = self._indexed(kind)
                inflight = self._inflight[kind]
                while slots > 0 and queue.size:
                    pos = queue.first_fitting(run)
                    if pos is None:
                        break
                    entry = queue.take(pos)
                    est_time = self.table.scaled(entry)
                    dispatches.append(
                        Dispatch(
                            job=entry.job,
                            kind=kind,
                            arrays=entry.arrays,
                            predicted_time=est_time,
                        )
                    )
                    slots -= 1
                    run -= entry.arrays
                    inflight[entry.job.job_id] = now + est_time
            left[kind] = (slots, run)

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
                queue = self._indexed(kind)
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

    def build_queues(
        self, jobs: list[Job], system: MLIMPSystem
    ) -> dict[MemoryKind, list[PlannedJob]]:
        """The balanced queues alone (see :meth:`build_plans`)."""
        return self.build_plans(jobs, PlanTable(system, no_options))

    def plan(
        self, jobs: list[Job], system: MLIMPSystem, upcoming: Sequence[Job] = ()
    ) -> AdaptivePolicy:
        table = self.plan_table(system, upcoming)
        queues = self.build_plans(jobs, table)
        return AdaptivePolicy(table, queues, backfill=self.backfill)
