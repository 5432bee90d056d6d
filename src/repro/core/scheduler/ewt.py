"""Expected-wait-time priority scheduling (the EWT rule family).

The serving experiments showed the closed-batch ordering inverting
under open arrivals (EXPERIMENTS.md): plans laid down at admission go
stale while a job queues, and none of the existing policies feed the
accumulated wait back into the dispatch order.  EWT does.  Following
the priority-rule-based scheduler shape of accasim (PRB: score each
queued job, dispatch in score order, skip what does not fit), every
queued job carries its *admission time*, and jobs are dispatched in
descending

    score = (now - arrived) + est_time / derate(kind)

-- the expected wait this job will have suffered by the time it
completes if launched right now -- greedily, with fit-skip: a job
whose allocation does not fit is skipped, not blocked on, so small
jobs flow around a large head while the large job's growing wait
raises its score until it wins.  ``now`` shifts every score alike, so
each queue is kept in ascending ``(arrived - est_time / derate, job
id)`` order and dispatch is a first fit over it.  On a closed batch
(all ``arrived == 0``) the rule degenerates to longest-estimate-first,
keeping EWT comparable with the other three policies in the
differential suites.

Placement picks the queue minimising the derate-scaled drain estimate
plus the job's own scaled runtime -- the same fluid drain metric
Algorithm 1 balances -- so EWT composes with the standard hooks:
``admit`` queues fresh arrivals, ``device_lost`` re-places orphans
*keeping their original admission times* (a migrated job keeps its
accumulated wait), and ``device_derated`` re-keys the derated
memory's queue.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import partial

from ...memories.base import MemoryKind
from ..job import Job
from ..predictor import PerformancePredictor
from .adjustments import (
    JobSizing,
    PlannedJob,
    PlanQueue,
    PlanTable,
    TablePolicy,
    first_fit_launches,
    queue_drain_estimate,
)
from .base import Dispatch, MLIMPSystem, ResourceView, Scheduler

__all__ = ["EWTScheduler", "EWTPolicy"]


def _wait_key(
    scaled: Callable[[PlannedJob], float], arrived: dict[str, float], entry: PlannedJob
) -> tuple[float, str]:
    """The queue key: ascending ``arrived - scaled time``, ties on the
    job id (descending expected wait at any ``now``)."""
    job_id = entry.job.job_id
    return arrived[job_id] - scaled(entry), job_id


class EWTPolicy(TablePolicy):
    """Fit-skip greedy dispatch in descending expected-wait order."""

    def __init__(self, table: PlanTable) -> None:
        super().__init__(table)
        #: Admission time of every queued job, in the order the jobs
        #: were (last) placed.
        self._arrived: dict[str, float] = {}
        self._key = partial(_wait_key, table.scaled, self._arrived)
        self._queues = {kind: PlanQueue(self._key) for kind in table.live}

    def _place(self, arrivals: list[tuple[Job, float]]) -> list[Job]:
        """Queue each ``(job, admission time)`` where (drain + own
        runtime) is smallest, both derate-scaled; ties break on the kind
        name for determinism.  Returns (and drops) the jobs with no live
        option."""
        table = self.table

        def cost(kind: MemoryKind, entry: PlannedJob) -> tuple[float, str]:
            drain = queue_drain_estimate(self._queues[kind], kind, table.system)
            return drain / table.factor(kind) + table.scaled(entry), kind.value

        unplaced: list[Job] = []
        for job, arrived in arrivals:
            self._arrived.pop(job.job_id, None)
            options = table.plans.get(job.job_id)
            if not options:
                unplaced.append(job)
                continue
            kind, entry = min(options.items(), key=lambda kv: cost(*kv))
            self._arrived[job.job_id] = arrived
            self._queues[kind].insert(entry)
        table.drop(unplaced)
        return unplaced

    # ------------------------------------------------------------------
    def pending(self) -> int:
        return sum(map(len, self._queues.values()))

    def queue_depths(self) -> dict[str, int]:
        return {kind.value: len(queue) for kind, queue in self._queues.items()}

    def next_dispatches(self, view: ResourceView) -> list[Dispatch]:
        dispatches: list[Dispatch] = []
        for kind, queue in self._queues.items():
            first_fit_launches(queue, kind, view, self.table.scaled, dispatches)
        for dispatch in dispatches:
            del self._arrived[dispatch.job.job_id]
        return dispatches

    # -- online admission (repro.serving) ------------------------------
    def admit(self, jobs: list[Job], now: float) -> list[Job]:
        """Size and place each arrival (admission time = ``now``); jobs
        fitting no surviving memory come back as shed."""
        for job in jobs:
            self.table.admit(job)
        return self._place([(job, now) for job in jobs])

    # -- graceful degradation (repro.faults) ---------------------------
    def device_lost(
        self, kind: MemoryKind, jobs: list[Job], now: float
    ) -> list[Job]:
        """Migrate the lost queue and the in-flight victims.

        Queued orphans keep their original admission time -- their
        accumulated wait moves with them -- and are re-placed in the
        order they were queued; interrupted victims re-enter at
        ``now`` (their wait clock restarts with the retry).
        """
        if kind not in self._queues:
            return list(jobs)
        self.table.lose(kind)
        lost = {entry.job.job_id: entry.job for entry in self._queues.pop(kind)}
        orphans = [(lost[j], at) for j, at in self._arrived.items() if j in lost]
        return self._place(orphans + [(job, now) for job in jobs])

    def device_derated(self, kind: MemoryKind, factor: float, now: float) -> None:
        # Only the derated memory's keys change; placement reads the
        # factor lazily, so new placements steer away on their own.
        self.table.derate(kind, factor)
        if kind in self._queues:
            self._queues[kind] = PlanQueue(self._key, self._queues[kind])


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
        for job, options in zip(jobs, self.plan_many(jobs, system)):
            if not table.record(job, options):
                raise ValueError(f"job {job.job_id} fits no memory in the system")
        # Closed batch: everything "arrived" at time zero, so the EWT
        # score is pure estimated time and placement is incremental
        # drain-balancing in input order (deterministic).
        policy = EWTPolicy(table)
        policy._place([(job, 0.0) for job in jobs])
        return policy
