"""Expected-wait-time priority scheduling (the EWT rule family).

The serving experiments showed the closed-batch ordering inverting
under open arrivals (EXPERIMENTS.md): plans laid down at admission go
stale while a job queues, and none of the existing policies feed the
accumulated wait back into the dispatch order.  EWT does.  Following
the priority-rule-based scheduler shape of accasim (PRB: score each
queued job, dispatch in score order, skip what does not fit), every
queued job carries its *admission time*; at each dispatch opportunity
jobs are ranked by

    score = (now - arrived) + est_time / derate(kind)

-- the expected wait this job will have suffered by the time it
completes if launched right now -- and dispatched greedily in
descending score with fit-skip: a job whose allocation does not fit
is skipped, not blocked on, so small jobs flow around a large head
while the large job's growing wait raises its score until it wins.
On a closed batch (all ``arrived == 0``) the rule degenerates to
longest-estimate-first, keeping EWT comparable with the other three
policies in the differential suites.

Placement picks the queue minimising the derate-scaled drain estimate
plus the job's own scaled runtime -- the same fluid drain metric
Algorithm 1 balances -- so EWT composes with the standard hooks:
``admit`` scores fresh arrivals, ``device_lost`` re-places orphans
*keeping their original admission times* (a migrated job keeps its
accumulated wait), and ``device_derated`` only rescales scores.
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
    PlanTable,
    TablePolicy,
    queue_drain_estimate,
)
from .base import Dispatch, MLIMPSystem, ResourceView, Scheduler

__all__ = ["EWTScheduler", "EWTPolicy"]


@dataclass(frozen=True)
class _Waiting:
    """One queued job: its sized plan plus when it entered the system."""

    entry: PlannedJob
    arrived: float


class EWTPolicy(TablePolicy):
    """Fit-skip greedy dispatch in descending expected-wait order."""

    def __init__(self, table: PlanTable) -> None:
        super().__init__(table)
        self._queues: dict[MemoryKind, list[_Waiting]] = {
            kind: [] for kind in table.live
        }

    # ------------------------------------------------------------------
    def _score(self, waiting: _Waiting, now: float) -> float:
        return (now - waiting.arrived) + self.table.scaled(waiting.entry)

    def _place(self, options: dict[MemoryKind, PlannedJob], arrived: float) -> None:
        """Queue a job where (drain + own runtime) is smallest, both
        derate-scaled; ties break on the kind name for determinism."""
        table = self.table

        def cost(kind: MemoryKind, entry: PlannedJob) -> tuple[float, str]:
            drain = queue_drain_estimate(
                [w.entry for w in self._queues[kind]], kind, table.system
            )
            return drain / table.factor(kind) + table.scaled(entry), kind.value

        kind, entry = min(options.items(), key=lambda kv: cost(*kv))
        self._queues[kind].append(_Waiting(entry=entry, arrived=arrived))

    # ------------------------------------------------------------------
    def pending(self) -> int:
        return sum(len(entries) for entries in self._queues.values())

    def queue_depths(self) -> dict[str, int]:
        return {kind.value: len(entries) for kind, entries in self._queues.items()}

    def next_dispatches(self, view: ResourceView) -> list[Dispatch]:
        dispatches: list[Dispatch] = []
        free_slots = dict(view.free_slots)
        free_run = dict(view.largest_free_run)
        for kind, queue in self._queues.items():
            ranked = sorted(
                queue,
                key=lambda w: (-self._score(w, view.now), w.entry.job.job_id),
            )
            taken: list[_Waiting] = []
            for waiting in ranked:
                entry = waiting.entry
                if free_slots.get(kind, 0) <= 0:
                    break
                if free_run.get(kind, 0) < entry.arrays:
                    continue  # fit-skip: let smaller jobs flow around it
                dispatches.append(
                    Dispatch(
                        job=entry.job,
                        kind=kind,
                        arrays=entry.arrays,
                        predicted_time=self.table.scaled(entry),
                    )
                )
                free_slots[kind] -= 1
                free_run[kind] -= entry.arrays
                taken.append(waiting)
            if taken:
                self._queues[kind] = [w for w in queue if w not in taken]
        return dispatches

    # -- online admission (repro.serving) ------------------------------
    def admit(self, jobs: list[Job], now: float) -> list[Job]:
        """Score-and-place each arrival (admission time = ``now``).

        An empty ``jobs`` list is a pure no-op (the admit contract);
        jobs fitting no surviving memory come back as shed.
        """
        if not jobs:
            return []
        unplaced: list[Job] = []
        for job in jobs:
            options = self.table.admit(job)
            if options:
                self._place(options, arrived=now)
            else:
                unplaced.append(job)
        return unplaced

    # -- graceful degradation (repro.faults) ---------------------------
    def device_lost(
        self, kind: MemoryKind, jobs: list[Job], now: float
    ) -> list[Job]:
        """Migrate the lost queue and the in-flight victims.

        Queued orphans keep their original admission time -- their
        accumulated wait moves with them -- while interrupted victims
        re-enter at ``now`` (their wait clock restarts with the retry).
        """
        if kind not in self._queues:
            return list(jobs)
        self.table.lose(kind)
        orphans = self._queues.pop(kind)
        unplaced: list[Job] = []
        arrivals = [(w.entry.job, w.arrived) for w in orphans] + [
            (job, now) for job in jobs
        ]
        for job, arrived in arrivals:
            options = self.table.plans.get(job.job_id)
            if options:
                self._place(options, arrived=arrived)
            else:
                unplaced.append(job)
        self.table.drop(unplaced)
        return unplaced

    def device_derated(self, kind: MemoryKind, factor: float, now: float) -> None:
        # Scores and placement read the derate lazily; nothing to
        # migrate eagerly (a derated device drains slower, so new
        # placements steer away from it on their own).
        self.table.derate(kind, factor)


@dataclass
class EWTScheduler(JobSizing, Scheduler):
    """Expected-wait-time priority rule over knee-sized plans."""

    predictor: PerformancePredictor
    allocation_cap_fraction: float = 0.5
    sizing: str = "knee"
    name: str = "ewt"

    def plan(
        self, jobs: list[Job], system: MLIMPSystem, upcoming: Sequence[Job] = ()
    ) -> EWTPolicy:
        table = self.plan_table(system, upcoming)
        policy = EWTPolicy(table)
        # Closed batch: everything "arrived" at time zero, so the EWT
        # score is pure estimated time and placement is incremental
        # drain-balancing in input order (deterministic).
        for job, options in zip(jobs, self.plan_many(jobs, system)):
            options = table.record(job, options)
            if not options:
                raise ValueError(f"job {job.job_id} fits no memory in the system")
            policy._place(options, arrived=0.0)
        return policy
