"""Queue-balancing heuristics: Algorithms 1 and 2 of the paper.

*Inter-queue adjustment* (Algorithm 1) balances the mean estimated
execution time across the per-memory queues by migrating the job that
is cheapest on the under-loaded memory out of the most loaded queue.

*Intra-queue adjustment* (Algorithm 2) balances job completion times
*within* each queue by trading allocation away from the smallest job
to the longest one until the longest meets the queue mean.

Both operate on :class:`PlannedJob` entries -- (job, memory,
allocation, estimate) tuples produced during planning -- and on the
smooth scale-free estimates, never on ground truth.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from collections.abc import Callable, Iterable, Sequence
from itertools import chain, compress
from operator import neg
from typing import Any

from ...memories.base import MemoryKind
from ...sim.mainmem import DDR4Config
from ..job import Job
from ..perfmodel import ScaleFreeEstimate, knee_points, min_time_allocation
from ..predictor import PerformancePredictor
from .base import Dispatch, DispatchPolicy, MLIMPSystem, ResourceView

__all__ = [
    "PlannedJob",
    "PlanQueue",
    "longest_first",
    "first_fit_launches",
    "plan_jobs",
    "PlanTable",
    "TablePolicy",
    "no_options",
    "AdmissionPlanner",
    "JobSizing",
    "check_sizing",
    "inter_queue_adjust",
    "intra_queue_adjust",
]

#: Maximum balancing iterations (the paper's "up to N times").
MAX_ROUNDS = 64

#: Relative acceptable gap between queue means / job times.
EPSILON_FRACTION = 0.05

#: Allocation sizing heuristics (see :func:`plan_jobs`).
SIZINGS = ("knee", "min", "unit")

#: Upcoming arrivals :class:`AdmissionPlanner` sizes per cohort.
LOOKAHEAD_JOBS = 64


class PlannedJob:
    """One queue entry: where a job will run and with how much memory.

    ``est_time`` is ``estimate.total_time(arrays)``, a field set at
    construction: the sizer that chose ``arrays`` may hand in the time
    it already computed (bit-identical to ``total_time``), otherwise it
    is evaluated here.  Entries are treated as immutable --
    :meth:`with_arrays` builds a new one -- and compared by identity:
    queue entries are unique tokens."""

    __slots__ = ("job", "kind", "arrays", "estimate", "est_time")

    def __init__(
        self,
        job: Job,
        kind: MemoryKind,
        arrays: int,
        estimate: ScaleFreeEstimate,
        est_time: float | None = None,
    ) -> None:
        self.job = job
        self.kind = kind
        self.arrays = arrays
        self.estimate = estimate
        self.est_time = estimate.total_time(arrays) if est_time is None else est_time

    def __repr__(self) -> str:
        job_id = getattr(self.job, "job_id", None)
        return (
            f"PlannedJob(job={job_id!r}, kind={self.kind}, arrays={self.arrays}, "
            f"est_time={self.est_time!r})"
        )

    def with_arrays(self, arrays: int) -> "PlannedJob":
        return PlannedJob(self.job, self.kind, arrays, self.estimate)


def longest_first(entry: PlannedJob) -> float:
    """Queue key of the longest-estimate-first order."""
    return -entry.est_time


#: Tree value of a launched position: larger than any free run.
_GONE = float("inf")


def fill_bytes(entry: PlannedJob) -> float:
    """Bytes the entry's fills move over its whole run."""
    profile = entry.job.profile(entry.kind)
    return profile.fill_bytes * profile.n_iter


class PlanQueue:
    """A queue of :class:`PlannedJob` entries in stable ascending
    ``key`` order, with the columns Algorithm 1 and EWT placement sum
    and the two exact indexes dispatch answers from.

    :meth:`insert` puts an entry where a stable re-sort with it appended
    would.  A launch (:meth:`take`) only marks its position gone, so
    queue order is position order.  An insert drops both indexes and,
    once launched positions are at least as many as queued ones,
    compacts them away.  Aligned with ``entries`` (launched positions
    included, ``live`` tells them apart) are the ``keys`` and three
    columns: ``times`` (``est_time``), ``work`` (``est_time * arrays``)
    and ``fills`` (:func:`fill_bytes`), so a queue's totals are one
    builtin ``sum`` over ``compress(column, live)``, in queue order.
    Each index is built on first use:

    * ``_levels`` -- a min tree over the entries' ``arrays`` (root
      first, leaves last, launched leaves at ``_GONE``): the leftmost
      queued entry that fits a free run, or none if the root says even
      the smallest queued allocation does not fit.  A ``head`` (first
      queued position) that fits is that entry too, so short queues
      rarely build the tree.
    * ``_backfill[run]`` -- ``(t, position, arrays)`` rows of the
      entries with ``unit_arrays <= run`` sorted by ``t``, where
      ``arrays = snap_to_replica(run)`` and ``t = total_time(arrays)``:
      the entries that finish by a horizon are a prefix of the rows.

    A key must not change while its entry is queued: a policy whose
    keys change (a derate) builds a new queue.
    """

    __slots__ = (
        "key", "entries", "keys", "times", "work", "fills", "live", "size", "head",
        "_levels", "_backfill",
    )

    def __init__(
        self, key: Callable[[PlannedJob], Any], entries: Iterable[PlannedJob] = ()
    ) -> None:
        self.key = key
        self.entries = sorted(entries, key=key)
        self.size = len(self.entries)
        self.live = [True] * self.size
        self._compact()

    def _compact(self) -> None:
        """Drop the launched positions and rebuild the keys, the columns
        and the head; both indexes go.  A queued entry's key and columns
        do not change, so they are computed again rather than carried
        along."""
        entries = self.entries = list(compress(self.entries, self.live))
        self.keys = list(map(self.key, entries))
        self.times = [entry.est_time for entry in entries]
        self.work = [entry.est_time * entry.arrays for entry in entries]
        self.fills = list(map(fill_bytes, entries))
        self.live = [True] * self.size
        self.head = 0
        self._levels: list[list[float]] | None = None
        self._backfill: dict[int, list[tuple[float, int, int]]] = {}

    def __len__(self) -> int:
        return self.size

    def __iter__(self):
        """The queued entries, in queue order."""
        return compress(self.entries, self.live)

    def insert(self, entry: PlannedJob) -> None:
        """Queue ``entry`` after every queued entry whose key is not
        larger than its own."""
        launched = len(self.entries) - self.size
        if launched and launched >= self.size:
            self._compact()
        key = self.key(entry)
        pos = bisect_right(self.keys, key)
        est_time = entry.est_time
        self.entries.insert(pos, entry)
        self.keys.insert(pos, key)
        self.times.insert(pos, est_time)
        self.work.insert(pos, est_time * entry.arrays)
        self.fills.insert(pos, fill_bytes(entry))
        self.live.insert(pos, True)
        self.size += 1
        if pos <= self.head:
            self.head = pos
        self._levels = None
        self._backfill = {}

    def remove(self, entry: PlannedJob) -> None:
        """Take the queued ``entry`` (by identity) out of the queue."""
        pos = bisect_left(self.keys, self.key(entry))
        entries, live = self.entries, self.live
        while entries[pos] is not entry or not live[pos]:
            pos += 1
        self.take(pos)

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


def first_fit_launches(
    queue: PlanQueue,
    kind: MemoryKind,
    view: ResourceView,
    scaled: Callable[[PlannedJob], float],
    dispatches: list[Dispatch],
) -> tuple[int, int]:
    """Greedy first fit on ``kind``: while a slot is free, launch the
    first queued entry that fits what the earlier launches left of the
    largest free run (free arrays only shrink, so a passed-over entry
    stays unfit).  Appends the launches; returns the slots and run
    left."""
    slots = view.free_slots.get(kind, 0)
    run = view.largest_free_run.get(kind, 0)
    while slots > 0 and queue.size:
        pos = queue.first_fitting(run)
        if pos is None:
            break
        entry = queue.take(pos)
        dispatches.append(
            Dispatch(
                job=entry.job,
                kind=kind,
                arrays=entry.arrays,
                predicted_time=scaled(entry),
            )
        )
        slots -= 1
        run -= entry.arrays
    return slots, run


def job_fits(job: Job, kind: MemoryKind, system: MLIMPSystem) -> bool:
    """A job is eligible on a memory only if one replica fits it."""
    return (
        kind in job.profiles
        and job.profile(kind).unit_arrays <= system.arrays(kind)
    )


def check_sizing(sizing: str, allocation_cap_fraction: float) -> None:
    """Reject a sizing heuristic or allocation cap no planner can use."""
    if sizing not in SIZINGS:
        raise ValueError(
            f"unknown sizing policy {sizing!r}; choose from {', '.join(SIZINGS)}"
        )
    if not 0.0 < allocation_cap_fraction <= 1.0:
        raise ValueError(
            "allocation_cap_fraction must be in (0, 1], "
            f"got {allocation_cap_fraction!r}"
        )


def plan_jobs(
    jobs: Sequence[Job],
    predictor: PerformancePredictor,
    system: MLIMPSystem,
    allocation_cap_fraction: float = 0.5,
    sizing: str = "knee",
) -> list[dict[MemoryKind, PlannedJob]]:
    """Size every job on every memory it fits: one options table per
    job, in order (empty for a job that fits nowhere).

    Each allocation is capped at ``allocation_cap_fraction`` of the
    device.  ``sizing`` selects the heuristic: ``"knee"`` (the paper's
    III-C3 choice; every pair's search runs in one
    :func:`~repro.core.perfmodel.knee_points` cohort, which also hands
    each entry its time), ``"min"``
    (strict t(x, m) minimiser -- over-provisions), or ``"unit"`` (no
    replication; the ablation baseline for the replication study).
    """
    check_sizing(sizing, allocation_cap_fraction)
    pairs: list[tuple[int, MemoryKind, ScaleFreeEstimate]] = []
    caps: list[int] = []
    for index, job in enumerate(jobs):
        for kind in system.kinds:
            if not job_fits(job, kind, system):
                continue
            estimate = predictor.estimate(job, kind)
            device = system.arrays(kind)
            cap = max(estimate.unit_arrays, int(device * allocation_cap_fraction))
            pairs.append((index, kind, estimate))
            caps.append(min(cap, device))
    # (arrays, est_time or None to evaluate it) per pair.
    if sizing == "knee":
        sized = knee_points([estimate for _, _, estimate in pairs], caps)
    elif sizing == "min":
        sized = [
            (min_time_allocation(estimate, cap), None)
            for (_, _, estimate), cap in zip(pairs, caps)
        ]
    else:
        sized = [(estimate.unit_arrays, None) for _, _, estimate in pairs]
    tables: list[dict[MemoryKind, PlannedJob]] = [{} for _ in jobs]
    for (index, kind, estimate), (arrays, est_time) in zip(pairs, sized):
        tables[index][kind] = PlannedJob(jobs[index], kind, arrays, estimate, est_time)
    return tables


class AdmissionPlanner:
    """Sizes the jobs a policy's ``admit`` hook receives.

    A serving run knows its arrivals up front (``upcoming``, in arrival
    order), so the planner sizes them ahead in cohorts and keeps one
    table of plans, by ``upcoming`` position, across cohorts.  A job
    missing from the table has the not-yet-sized jobs among the next
    :data:`LOOKAHEAD_JOBS` upcoming positions, itself first, sized in
    one :func:`plan_jobs` call and merged in, so tenant queues that
    release jobs out of arrival order size each job once.  Each
    admitted job's options are popped.  Past ``2 * LOOKAHEAD_JOBS``
    entries the lowest positions -- the furthest-behind jobs, under
    overload mostly shed before admission -- are evicted; an evicted
    job, like one not in ``upcoming``, is sized alone if admitted.

    A learning predictor (one with an ``on_completion`` hook, which the
    dispatcher feeds) changes its estimates between arrivals, so with
    one -- or with no upcoming jobs -- every job is sized when it is
    admitted.
    """

    def __init__(
        self,
        predictor: PerformancePredictor,
        system: MLIMPSystem,
        upcoming: Sequence[Job] = (),
        allocation_cap_fraction: float = 0.5,
        sizing: str = "knee",
    ) -> None:
        self._sizing = (predictor, system, allocation_cap_fraction, sizing)
        learning = getattr(predictor, "on_completion", None) is not None
        self._upcoming = [] if learning else list(upcoming)
        # Keyed by identity: upcoming jobs stay alive in the list.
        self._position = {id(job): i for i, job in enumerate(self._upcoming)}
        self._sized = [False] * len(self._upcoming)
        self._table: dict[int, dict[MemoryKind, PlannedJob]] = {}

    def __call__(self, job: Job) -> dict[MemoryKind, PlannedJob]:
        at = self._position.get(id(job))
        options = self._table.pop(at, None)
        if options is not None:
            return options
        if at is None or self._sized[at]:
            return plan_jobs([job], *self._sizing)[0]
        window = range(at, min(at + LOOKAHEAD_JOBS, len(self._upcoming)))
        cohort = [p for p in window if not self._sized[p]]
        tables = plan_jobs([self._upcoming[p] for p in cohort], *self._sizing)
        for p in cohort:
            self._sized[p] = True
        self._table.update(zip(cohort[1:], tables[1:]))
        excess = len(self._table) - 2 * LOOKAHEAD_JOBS
        if excess > 0:
            for p in sorted(self._table)[:excess]:
                del self._table[p]
        return tables[0]


def no_options(job: Job) -> dict[MemoryKind, PlannedJob]:
    """The planner of a table that sizes nothing: every arrival, and
    every job without recorded options, is handed back."""
    return {}


class PlanTable:
    """Where a policy's jobs may run: each queued or in-flight job's
    sized options, the live memories and a derate factor per memory.

    Every dispatch policy picks memories through one table.  ``planner``
    sizes an arriving job on every memory it fits (:meth:`admit`); only
    options on live memories are kept.  :meth:`best` is the placement
    rule: the live option with the smallest derate-scaled estimate,
    ties broken on the memory name.  A policy drops a job's options
    when the job leaves it (finished, failed or handed back unplaced),
    so the table holds exactly its queued and in-flight jobs.  A table
    built with :func:`no_options` and nothing recorded hands every job
    back.
    """

    def __init__(
        self, system: MLIMPSystem, planner: Callable[[Job], dict[MemoryKind, PlannedJob]]
    ) -> None:
        #: The live subsystem Algorithms 1 and 2 run on (``None`` once
        #: every memory is lost), and its memories in system order.
        self.system: MLIMPSystem | None = system
        self.live: list[MemoryKind] = system.kinds
        self.plans: dict[str, dict[MemoryKind, PlannedJob]] = {}
        self._planner = planner
        self._derate: dict[MemoryKind, float] = {}

    def admit(self, job: Job) -> dict[MemoryKind, PlannedJob]:
        """Size an arriving job and record its live options (see
        :meth:`record`)."""
        return self.record(job, self._planner(job))

    def record(
        self, job: Job, options: dict[MemoryKind, PlannedJob]
    ) -> dict[MemoryKind, PlannedJob]:
        """Keep the options on live memories; empty (and nothing kept)
        when no live memory fits the job."""
        live = {kind: entry for kind, entry in options.items() if kind in self.live}
        if live:
            self.plans[job.job_id] = live
        return live

    def best(self, job_id: str) -> PlannedJob | None:
        """The job's live option with the smallest ``(scaled time,
        memory name)``, or ``None`` if it has none."""
        options = self.plans.get(job_id)
        if not options:
            return None
        return min(options.values(), key=lambda e: (self.scaled(e), e.kind.value))

    def factor(self, kind: MemoryKind) -> float:
        """``kind``'s throughput as a fraction of nominal."""
        return self._derate.get(kind, 1.0)

    def scaled(self, entry: PlannedJob) -> float:
        """The entry's estimated time on its derated memory."""
        return entry.est_time / self._derate.get(entry.kind, 1.0)

    def drop(self, jobs: Sequence[Job]) -> None:
        """Forget the options of jobs that left the policy."""
        for job in jobs:
            self.plans.pop(job.job_id, None)

    def lose(self, kind: MemoryKind) -> None:
        """``kind`` failed: drop it from the live memories and every
        job's options on it."""
        if kind not in self.live:
            return
        self.live = [k for k in self.live if k is not kind]
        self.system = self.system.subset(self.live) if self.live else None
        for options in self.plans.values():
            options.pop(kind, None)

    def derate(self, kind: MemoryKind, factor: float) -> None:
        """``kind`` now runs at ``factor`` of nominal throughput."""
        self._derate[kind] = factor


class TablePolicy(DispatchPolicy):
    """A dispatch policy that places jobs from a :class:`PlanTable`:
    a job that finishes or fails leaves the table."""

    def __init__(self, table: PlanTable) -> None:
        self.table = table

    def notify_completion(self, job: Job, kind: MemoryKind, now: float) -> None:
        self.table.drop([job])

    def notify_failed(self, job: Job, now: float) -> None:
        self.table.drop([job])


class JobSizing:
    """Planning surface of the schedulers that size jobs with
    :func:`plan_jobs` (adaptive, EWT): a mixin over their
    ``predictor``, ``allocation_cap_fraction`` and ``sizing`` fields,
    which it validates at construction."""

    predictor: PerformancePredictor
    allocation_cap_fraction: float
    sizing: str

    def __post_init__(self) -> None:
        check_sizing(self.sizing, self.allocation_cap_fraction)

    def plan_many(
        self, jobs: Sequence[Job], system: MLIMPSystem
    ) -> list[dict[MemoryKind, PlannedJob]]:
        """Each job's options on every memory it fits (one row of the
        per-job plan table each), sized in one cohort."""
        return plan_jobs(
            jobs, self.predictor, system, self.allocation_cap_fraction, self.sizing
        )

    def plan_table(
        self, system: MLIMPSystem, upcoming: Sequence[Job] = ()
    ) -> PlanTable:
        """An empty plan table whose planner sizes arrivals with an
        :class:`AdmissionPlanner` over ``upcoming``."""
        return PlanTable(
            system,
            AdmissionPlanner(
                self.predictor,
                system,
                upcoming,
                self.allocation_cap_fraction,
                self.sizing,
            ),
        )


def queue_drain_estimate(queue: PlanQueue, kind: MemoryKind, system: MLIMPSystem) -> float:
    """Estimated time for ``kind`` to drain its queue.

    The device is limited both by job slots and by array-seconds, so
    the drain estimate is the larger of the two fluid bounds.  This is
    the balancing metric of our Algorithm 1 implementation: the
    paper's get_mean balances per-job means, which coincides with the
    drain time for same-length queues but under-weights a queue
    holding many more jobs; balancing drain times is what actually
    equalises "the execution time between queues" (Fig. 8 middle).
    Both sums run over the queue's kept columns, in queue order.
    """
    if not queue:
        return 0.0
    live = queue.live
    return max(
        sum(compress(queue.times, live)) / system.slots(kind),
        sum(compress(queue.work, live)) / system.arrays(kind),
    )


#: Aggregate DDR4 bandwidth the planners drain fills through: the
#: evaluated system's 4 x DDR4-2400 (:class:`DDR4Config` defaults).
PIPE_BANDWIDTH_BPS = DDR4Config().total_bandwidth_bps


class QueueBalance:
    """Algorithm 1's state: per-memory queues and, for every
    ``(target, source)`` pair of their memories, the jobs queued on
    ``source`` ranked by ``(est_time on target, job id)``.

    ``queues`` map memories to :class:`PlanQueue` objects in
    :func:`longest_first` order (they may hold launched positions).
    ``plans`` holds every queued job's options; only the options of
    queued jobs on queued memories are read, so the table may hold
    more (in-flight jobs, lost kinds).
    A job without options is queued but never ranked, so never moved.
    The state lives as long as the queues and the table's options do:
    :meth:`balance` queues arrivals and migrates, :meth:`unrank`
    forgets a job dispatch took, and anything that changes options or
    memories (a loss, a derate) builds a new state.
    """

    __slots__ = ("queues", "_plans", "_slots", "_arrays", "_rank")

    def __init__(
        self,
        queues: dict[MemoryKind, PlanQueue],
        plans: dict[str, dict[MemoryKind, PlannedJob]],
        system: MLIMPSystem | None,
    ) -> None:
        self.queues = queues
        self._plans = plans
        self._slots = {kind: system.slots(kind) for kind in queues}
        self._arrays = {kind: system.arrays(kind) for kind in queues}
        #: ``_rank[target][source]``: sorted ``(time on target, job id,
        #: entry queued on source, option on target)``; a job id is
        #: unique, so a comparison never reaches the entries.
        self._rank: dict[MemoryKind, dict[MemoryKind, list[tuple]]] = {
            target: {source: [] for source in queues if source is not target}
            for target in queues
        }
        for source, queue in queues.items():
            for entry in queue:
                for target, row in self._rows(entry):
                    self._rank[target][source].append(row)
        for by_source in self._rank.values():
            for ranking in by_source.values():
                ranking.sort()

    def _rows(self, entry: PlannedJob):
        """``(target, ranking row)`` of ``entry`` for each other queued
        memory it has an option on."""
        job_id = entry.job.job_id
        for target, option in self._plans.get(job_id, {}).items():
            if target is not entry.kind and target in self._rank:
                yield target, (option.est_time, job_id, entry, option)

    def _enter(self, entry: PlannedJob) -> None:
        """Queue ``entry`` on its memory and rank it."""
        self.queues[entry.kind].insert(entry)
        rank = self._rank
        for target, row in self._rows(entry):
            insort(rank[target][entry.kind], row)

    def unrank(self, job_id: str, source: MemoryKind) -> None:
        """Forget the rows of a job that left ``source``'s queue (a
        launch or a migration)."""
        rank = self._rank
        for target, option in self._plans.get(job_id, {}).items():
            by_source = rank.get(target)
            if by_source is None or target is source:
                continue
            ranking = by_source[source]
            at = bisect_left(ranking, (option.est_time, job_id))
            if at < len(ranking) and ranking[at][1] == job_id:
                del ranking[at]

    def _cheapest(self, target: MemoryKind, source: MemoryKind) -> tuple | None:
        """The row of the job queued on ``source`` that is cheapest on
        ``target`` (ties to the smaller job id), if any."""
        ranking = self._rank[target][source]
        return ranking[0] if ranking else None

    def _totals(
        self, arrivals: dict[MemoryKind, list[PlannedJob]]
    ) -> tuple[dict[MemoryKind, float], dict[MemoryKind, float], float]:
        """Each queue's slot-seconds and array-seconds with its
        arrivals, and the pipe's fill bytes: one builtin ``sum`` per
        queue over the kept column followed by the arrivals in order
        (3.12's ``sum`` is compensated, so only one call over the same
        sequence rounds the same everywhere), the pipe adding the
        non-DRAM queues in ``queues`` order."""
        slot_s: dict[MemoryKind, float] = {}
        arr_s: dict[MemoryKind, float] = {}
        pipe_bytes = 0.0
        for kind, queue in self.queues.items():
            live = queue.live
            fresh = arrivals.get(kind, ())
            slot_s[kind] = sum(
                chain(compress(queue.times, live), [e.est_time for e in fresh])
            )
            arr_s[kind] = sum(
                chain(compress(queue.work, live), [e.est_time * e.arrays for e in fresh])
            )
            if kind is not MemoryKind.DRAM:
                pipe_bytes += sum(
                    chain(compress(queue.fills, live), map(fill_bytes, fresh))
                )
        return slot_s, arr_s, pipe_bytes

    def balance(self, arrivals: dict[MemoryKind, list[PlannedJob]]) -> None:
        """Algorithm 1: queue ``arrivals`` (per memory, in order), then
        balance estimated drain time across the queues.

        Each round migrates the job out of the most-loaded queue that
        best reduces the drain-time spread; the loop stops when the
        queues are within epsilon or no migration improves (the
        paper's "if t-bar improves else break").  Candidate probes and
        commits are O(1) arithmetic over per-queue aggregates
        (slot-seconds, array-seconds, pipe fill bytes), and the
        cheapest-on-target candidate is the head of one ranking.

        The aggregates start from :meth:`_totals`: the floats a fresh
        pass over queue-then-arrivals lists gives.  A migration is one
        :meth:`PlanQueue.remove` and one :meth:`PlanQueue.insert`, so
        the queues end as a stable re-sort of those lists with the
        migrants appended in order.
        """
        queues = self.queues
        if not queues:
            return
        slot_s, arr_s, pipe_bytes = self._totals(arrivals)
        for entries in arrivals.values():
            for entry in entries:
                self._enter(entry)
        # Balancing may need to move a sizeable fraction of the batch.
        max_rounds = max(MAX_ROUNDS, sum(map(len, queues.values())))
        slots, arrays = self._slots, self._arrays

        for _ in range(max_rounds):
            current = {
                kind: max(slot_s[kind] / slots[kind], arr_s[kind] / arrays[kind])
                for kind in queues
            }
            max_kind = max(current, key=current.get)  # type: ignore[arg-type]
            spread = current[max_kind] - min(current.values())
            overall = sum(current.values()) / max(1, len(current))
            if spread <= EPSILON_FRACTION * max(overall, 1e-30):
                break
            current_max = max(current[max_kind], pipe_bytes / PIPE_BANDWIDTH_BPS)
            # Consider every under-loaded target; take the move with the
            # smallest post-migration maximum drain (pipe included).
            best_move: tuple[float, PlannedJob, MemoryKind, PlannedJob] | None = None
            for target, target_drain in current.items():
                if target is max_kind or target_drain >= current[max_kind]:
                    continue
                row = self._cheapest(target, max_kind)
                if row is None:
                    continue
                _, _, moved, replanned = row
                new_src = max(
                    (slot_s[max_kind] - moved.est_time) / slots[max_kind],
                    (arr_s[max_kind] - moved.est_time * moved.arrays) / arrays[max_kind],
                )
                new_dst = max(
                    (slot_s[target] + replanned.est_time) / slots[target],
                    (arr_s[target] + replanned.est_time * replanned.arrays)
                    / arrays[target],
                )
                new_bytes = pipe_bytes
                if max_kind is not MemoryKind.DRAM:
                    new_bytes -= fill_bytes(moved)
                if target is not MemoryKind.DRAM:
                    new_bytes += fill_bytes(replanned)
                new_max = max(new_src, new_dst, new_bytes / PIPE_BANDWIDTH_BPS)
                for kind, drain in current.items():
                    if kind is not max_kind and kind is not target and drain > new_max:
                        new_max = drain
                if new_max < current_max and (
                    best_move is None or new_max < best_move[0]
                ):
                    best_move = (new_max, moved, target, replanned)
            if best_move is None:
                break
            _, moved, target, replanned = best_move
            queues[max_kind].remove(moved)
            self.unrank(moved.job.job_id, max_kind)
            self._enter(replanned)
            slot_s[max_kind] -= moved.est_time
            arr_s[max_kind] -= moved.est_time * moved.arrays
            slot_s[target] += replanned.est_time
            arr_s[target] += replanned.est_time * replanned.arrays
            if max_kind is not MemoryKind.DRAM:
                pipe_bytes -= fill_bytes(moved)
            if target is not MemoryKind.DRAM:
                pipe_bytes += fill_bytes(replanned)


def inter_queue_adjust(
    queues: dict[MemoryKind, list[PlannedJob]],
    plans: dict[str, dict[MemoryKind, PlannedJob]],
    system: MLIMPSystem,
) -> dict[MemoryKind, list[PlannedJob]]:
    """Algorithm 1 on a closed batch: :meth:`QueueBalance.balance` of
    ``queues`` arriving at empty queues.  ``plans`` holds every job's
    pre-computed plan on every supported memory (built once during
    planning), so candidate evaluation is a lookup.  Returns each
    queue's entries in :func:`longest_first` order."""
    balance = QueueBalance(
        {kind: PlanQueue(longest_first) for kind in queues}, plans, system
    )
    balance.balance(queues)
    return {kind: list(queue) for kind, queue in balance.queues.items()}


def intra_queue_adjust(
    queues: dict[MemoryKind, list[PlannedJob]], system: MLIMPSystem
) -> dict[MemoryKind, list[PlannedJob]]:
    """Algorithm 2: trade allocation from short jobs to the longest.

    Each round orders the queue longest-first (a stable sort) and, if
    the longest job is more than epsilon above the queue mean, moves
    arrays to it from the shortest job above its unit allocation.  When
    ``max_rounds`` runs out, the last trade is returned unsorted.
    """
    adjusted: dict[MemoryKind, list[PlannedJob]] = {}
    for kind, entries in queues.items():
        queue = list(entries)
        if len(queue) >= 2:
            queue = _balance_queue(queue, system.arrays(kind))
        adjusted[kind] = queue
    return adjusted


def _balance_queue(
    queue: list[PlannedJob], cap: int, max_rounds: int = MAX_ROUNDS
) -> list[PlannedJob]:
    """Algorithm 2's rounds on one queue of two or more entries.

    The queue is sorted once and kept sorted, with ``times`` holding
    each entry's ``est_time`` in the same order, so the mean is the
    same float the sorted queue sums to.  A trade changes two entries,
    and the next round moves only those two to where the stable sort
    puts them (:func:`_resort`): a round costs one sum and a few list
    moves, not a sort with a Python key.
    """
    times = [entry.est_time for entry in queue]
    order = sorted(range(len(queue)), key=times.__getitem__, reverse=True)
    queue = [queue[i] for i in order]
    times = [times[i] for i in order]
    count = len(queue)
    traded = 0  # position of the last round's donor; 0: no trade yet
    for _ in range(max_rounds):
        if traded:
            _resort(queue, times, traded)
        longest = queue[0]
        longest_t = times[0]
        mean_t = sum(times) / count
        if longest_t - mean_t <= EPSILON_FRACTION * max(mean_t, 1e-30):
            break
        # Arrays the longest job needs to reach the mean (already a
        # whole replica multiple of its unit allocation).  If no
        # allocation improves the longest job, stop.
        estimate = longest.estimate
        needed = estimate.invert_total_time(mean_t, cap)
        if estimate.total_time(needed) >= longest_t:
            break
        swap_cnt = needed - longest.arrays
        if swap_cnt <= 0:
            break
        # Donor: the shortest job with spare allocation above its unit
        # minimum, found from the tail.
        at = count - 1
        while at and queue[at].arrays <= queue[at].estimate.unit_arrays:
            at -= 1
        if not at:
            break
        donor = queue[at]
        donor_new = donor.estimate.snap_to_replica(
            max(donor.estimate.unit_arrays, donor.arrays - swap_cnt)
        )
        released = donor.arrays - donor_new
        longest_new = estimate.snap_to_replica(longest.arrays + released)
        if released <= 0 or longest_new <= longest.arrays:
            break
        queue[at] = donor = donor.with_arrays(donor_new)
        times[at] = donor.est_time
        queue[0] = longest = longest.with_arrays(longest_new)
        times[0] = longest.est_time
        traded = at
    return queue


def _resort(queue: list[PlannedJob], times: list[float], traded: int) -> None:
    """Restore the stable longest-first order after a trade changed the
    entries at 0 (the longest job) and at ``traded`` (the donor).

    The other entries are still sorted.  Among equal times the stable
    sort keeps list order, so the donor follows the ``traded - 1``
    entries that were before it, clamped into its equal-time range,
    and the longest job, which was first, goes before all its equals.
    """
    donor, donor_t = queue.pop(traded), times.pop(traded)
    longest, longest_t = queue.pop(0), times.pop(0)
    # ``times`` is descending, so search it negated (ascending).
    lo = bisect_left(times, -donor_t, key=neg)
    hi = bisect_right(times, -donor_t, key=neg)
    at = min(max(traded - 1, lo), hi)
    queue.insert(at, donor)
    times.insert(at, donor_t)
    at = bisect_left(times, -longest_t, key=neg)
    queue.insert(at, longest)
    times.insert(at, longest_t)
