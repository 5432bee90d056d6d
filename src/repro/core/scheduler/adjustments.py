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

from collections.abc import Sequence
from dataclasses import dataclass, replace

from ...memories.base import MemoryKind
from ..job import Job
from ..perfmodel import ScaleFreeEstimate, knee_allocations, min_time_allocation
from ..predictor import PerformancePredictor
from .base import MLIMPSystem

__all__ = [
    "PlannedJob",
    "plan_job",
    "plan_jobs",
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


@dataclass(frozen=True, eq=False)
class PlannedJob:
    """One queue entry: where a job will run and with how much memory.

    Compared by identity (``eq=False``): queue entries are unique
    tokens, and the balancing loops' ``list.remove`` / ``list.index``
    calls would otherwise deep-compare jobs, profiles and estimates
    field by field on every probe."""

    job: Job
    kind: MemoryKind
    arrays: int
    estimate: ScaleFreeEstimate

    @property
    def est_time(self) -> float:
        # Memoised: the balancing loops (Algorithms 1-2) evaluate this
        # O(queue^2) times per round, and both fields it depends on are
        # frozen.  Writing through __dict__ bypasses the frozen-dataclass
        # __setattr__; dataclasses.replace() builds a fresh instance, so
        # with_arrays() never inherits a stale memo.
        cached = self.__dict__.get("_est_time")
        if cached is not None:
            return cached
        value = self.estimate.total_time(self.arrays)
        self.__dict__["_est_time"] = value
        return value

    def with_arrays(self, arrays: int) -> "PlannedJob":
        return replace(self, arrays=arrays)


def job_fits(job: Job, kind: MemoryKind, system: MLIMPSystem) -> bool:
    """A job is eligible on a memory only if one replica fits it."""
    return (
        kind in job.profiles
        and job.profile(kind).unit_arrays <= system.arrays(kind)
    )


def drop_plans(
    plans: dict[str, dict[MemoryKind, PlannedJob]] | None, jobs: list[Job]
) -> None:
    """Forget the plans of jobs that left a policy (finished, failed
    or handed back unplaced), so a policy's plan table holds exactly
    its queued and in-flight jobs."""
    if plans is not None:
        for job in jobs:
            plans.pop(job.job_id, None)


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
    :func:`~repro.core.perfmodel.knee_allocations` cohort), ``"min"``
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
    if sizing == "knee":
        sizes = knee_allocations([estimate for _, _, estimate in pairs], caps)
    elif sizing == "min":
        sizes = [
            min_time_allocation(estimate, cap)
            for (_, _, estimate), cap in zip(pairs, caps)
        ]
    else:
        sizes = [estimate.unit_arrays for _, _, estimate in pairs]
    tables: list[dict[MemoryKind, PlannedJob]] = [{} for _ in jobs]
    for (index, kind, estimate), arrays in zip(pairs, sizes):
        tables[index][kind] = PlannedJob(
            job=jobs[index], kind=kind, arrays=arrays, estimate=estimate
        )
    return tables


def plan_job(
    job: Job,
    kind: MemoryKind,
    predictor: PerformancePredictor,
    system: MLIMPSystem,
    allocation_cap_fraction: float = 0.5,
    sizing: str = "knee",
) -> PlannedJob:
    """Size one job on one memory (see :func:`plan_jobs`)."""
    if not job_fits(job, kind, system):
        raise ValueError(f"job {job.job_id} does not fit on {kind}")
    return plan_jobs(
        [job], predictor, system.subset([kind]), allocation_cap_fraction, sizing
    )[0][kind]


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

    def plan_options(
        self, job: Job, system: MLIMPSystem
    ) -> dict[MemoryKind, PlannedJob]:
        """Size one job on every memory it fits (one row of the
        per-job plan table)."""
        return self.plan_many([job], system)[0]

    def plan_many(
        self, jobs: Sequence[Job], system: MLIMPSystem
    ) -> list[dict[MemoryKind, PlannedJob]]:
        """:meth:`plan_options` of every job, sized in one cohort."""
        return plan_jobs(
            jobs, self.predictor, system, self.allocation_cap_fraction, self.sizing
        )

    def admission_planner(
        self, system: MLIMPSystem, upcoming: Sequence[Job] = ()
    ) -> AdmissionPlanner:
        """The planner a policy's ``admit`` hook sizes arrivals with."""
        return AdmissionPlanner(
            self.predictor, system, upcoming, self.allocation_cap_fraction, self.sizing
        )


def _queue_mean(queue: list[PlannedJob]) -> float:
    if not queue:
        return 0.0
    return sum(entry.est_time for entry in queue) / len(queue)


def pipe_drain_estimate(
    queues: dict[MemoryKind, list[PlannedJob]],
    pipe_bandwidth_bps: float,
) -> float:
    """Time for the shared off-chip pipe to stream every queued fill.

    All non-DRAM fills share the DDR4 channels (the dispatcher's
    processor-sharing pipe); in-DRAM jobs fill in situ and stay off
    the pipe.  Without this term the balancer happily migrates
    multi-GB database scans off DRAM and the pipe becomes the actual
    bottleneck.
    """
    total_bytes = 0.0
    for kind, entries in queues.items():
        if kind is MemoryKind.DRAM:
            continue
        for entry in entries:
            profile = entry.job.profile(kind)
            total_bytes += profile.fill_bytes * profile.n_iter
    return total_bytes / pipe_bandwidth_bps


def queue_drain_estimate(
    queue: list[PlannedJob], kind: MemoryKind, system: MLIMPSystem
) -> float:
    """Estimated time for ``kind`` to drain its queue.

    The device is limited both by job slots and by array-seconds, so
    the drain estimate is the larger of the two fluid bounds.  This is
    the balancing metric of our Algorithm 1 implementation: the
    paper's get_mean balances per-job means, which coincides with the
    drain time for same-length queues but under-weights a queue
    holding many more jobs; balancing drain times is what actually
    equalises "the execution time between queues" (Fig. 8 middle).
    """
    if not queue:
        return 0.0
    slot_seconds = sum(entry.est_time for entry in queue)
    array_seconds = sum(entry.est_time * entry.arrays for entry in queue)
    return max(
        slot_seconds / system.slots(kind),
        array_seconds / system.arrays(kind),
    )


#: Aggregate DDR4 bandwidth of the evaluated system (4 x DDR4-2400);
#: kept in sync with :class:`repro.sim.mainmem.DDR4Config` defaults.
DEFAULT_PIPE_BANDWIDTH_BPS = 76.8e9


def inter_queue_adjust(
    queues: dict[MemoryKind, list[PlannedJob]],
    plans: dict[str, dict[MemoryKind, PlannedJob]],
    system: MLIMPSystem,
    epsilon_fraction: float = EPSILON_FRACTION,
    max_rounds: int | None = None,
    pipe_bandwidth_bps: float = DEFAULT_PIPE_BANDWIDTH_BPS,
) -> dict[MemoryKind, list[PlannedJob]]:
    """Algorithm 1: balance estimated drain time across queues.

    ``plans`` holds every job's pre-computed plan on every supported
    memory (built once during planning), so candidate evaluation is a
    lookup.  Only the options of jobs in ``queues`` on kinds in
    ``queues`` are read, so the table may hold more (finished jobs,
    lost kinds) and the cost scales with the queued backlog, not the
    table.  Each round migrates the job out of the most-loaded queue
    that best reduces the drain-time spread; the loop stops when the
    queues are within epsilon or no migration improves (the paper's
    "if t-bar improves else break").
    """
    queues = {kind: list(entries) for kind, entries in queues.items()}
    if max_rounds is None:
        # Balancing may need to move a sizeable fraction of the batch.
        max_rounds = max(MAX_ROUNDS, sum(len(q) for q in queues.values()))

    # Candidate probes and commits are O(1) arithmetic over cached
    # per-queue aggregates (slot-seconds, array-seconds, pipe fill
    # bytes) rather than re-summing every queue per probe, and the
    # cheapest-on-target candidate comes from a per-target list sorted
    # once up front (plans are immutable for the whole loop, so each
    # job's estimated time on each target never changes).
    slot_caps = {kind: system.slots(kind) for kind in queues}
    array_caps = {kind: system.arrays(kind) for kind in queues}

    def entry_bytes(entry: PlannedJob) -> float:
        profile = entry.job.profile(entry.kind)
        return profile.fill_bytes * profile.n_iter

    slot_s: dict[MemoryKind, float] = {}
    arr_s: dict[MemoryKind, float] = {}
    pipe_bytes = 0.0
    for kind, entries in queues.items():
        slot_s[kind] = sum(e.est_time for e in entries)
        arr_s[kind] = sum(e.est_time * e.arrays for e in entries)
        if kind is not MemoryKind.DRAM:
            pipe_bytes += sum(entry_bytes(e) for e in entries)

    # Which queue each job currently sits in, its current entry, and
    # per-target job ids ordered by estimated time on that target.
    member: dict[str, MemoryKind] = {}
    entry_of: dict[str, PlannedJob] = {}
    for kind, entries in queues.items():
        for entry in entries:
            member[entry.job.job_id] = kind
            entry_of[entry.job.job_id] = entry
    # Ranked from the queued jobs alone: ``plans`` may also hold
    # finished or in-flight jobs and options on lost kinds, none of
    # which Algorithm 1 may move.  ``(est_time, job_id)`` is a total
    # order, so the ranking does not depend on iteration order.
    by_target: dict[MemoryKind, list[str]] = {}
    for kind in queues:
        ranked = []
        for job_id in member:
            option = plans.get(job_id, {}).get(kind)
            if option is not None:
                ranked.append((option.est_time, job_id))
        ranked.sort()
        by_target[kind] = [job_id for _, job_id in ranked]

    def drain_of(kind: MemoryKind, slot: float, arr: float) -> float:
        return max(slot / slot_caps[kind], arr / array_caps[kind])

    for _ in range(max_rounds):
        current = {
            kind: drain_of(kind, slot_s[kind], arr_s[kind]) for kind in queues
        }
        max_kind = max(current, key=current.get)  # type: ignore[arg-type]
        spread = current[max_kind] - min(current.values())
        overall = sum(current.values()) / max(1, len(current))
        if spread <= epsilon_fraction * max(overall, 1e-30):
            break
        current_max = max(
            current[max_kind], pipe_bytes / pipe_bandwidth_bps
        )
        # Consider every under-loaded target; take the move with the
        # smallest post-migration maximum drain (pipe included).
        best_move: tuple[float, PlannedJob, MemoryKind, PlannedJob] | None = None
        for target, target_drain in current.items():
            if target is max_kind or target_drain >= current[max_kind]:
                continue
            moved: PlannedJob | None = None
            for job_id in by_target[target]:
                if member.get(job_id) is max_kind:
                    moved = entry_of[job_id]
                    break
            if moved is None:
                continue
            replanned = plans[moved.job.job_id][target]
            new_src = drain_of(
                max_kind,
                slot_s[max_kind] - moved.est_time,
                arr_s[max_kind] - moved.est_time * moved.arrays,
            )
            new_dst = drain_of(
                target,
                slot_s[target] + replanned.est_time,
                arr_s[target] + replanned.est_time * replanned.arrays,
            )
            new_bytes = pipe_bytes
            if max_kind is not MemoryKind.DRAM:
                new_bytes -= entry_bytes(moved)
            if target is not MemoryKind.DRAM:
                new_bytes += entry_bytes(replanned)
            new_max = max(new_src, new_dst, new_bytes / pipe_bandwidth_bps)
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
        queues[target].append(replanned)
        job_id = moved.job.job_id
        member[job_id] = target
        entry_of[job_id] = replanned
        slot_s[max_kind] -= moved.est_time
        arr_s[max_kind] -= moved.est_time * moved.arrays
        slot_s[target] += replanned.est_time
        arr_s[target] += replanned.est_time * replanned.arrays
        if max_kind is not MemoryKind.DRAM:
            pipe_bytes -= entry_bytes(moved)
        if target is not MemoryKind.DRAM:
            pipe_bytes += entry_bytes(replanned)
    return queues


def intra_queue_adjust(
    queues: dict[MemoryKind, list[PlannedJob]],
    system: MLIMPSystem,
    epsilon_fraction: float = EPSILON_FRACTION,
    max_rounds: int = MAX_ROUNDS,
) -> dict[MemoryKind, list[PlannedJob]]:
    """Algorithm 2: trade allocation from short jobs to the longest."""
    adjusted: dict[MemoryKind, list[PlannedJob]] = {}
    for kind, entries in queues.items():
        queue = list(entries)
        cap = system.arrays(kind)
        for _ in range(max_rounds):
            if len(queue) < 2:
                break
            queue.sort(key=lambda entry: entry.est_time, reverse=True)
            longest = queue[0]
            mean_t = _queue_mean(queue)
            if longest.est_time - mean_t <= epsilon_fraction * max(mean_t, 1e-30):
                break
            # Arrays the longest job needs to reach the mean (already a
            # whole replica multiple of its unit allocation).  If no
            # allocation improves the longest job, stop.
            needed = longest.estimate.invert_total_time(mean_t, cap)
            if longest.estimate.total_time(needed) >= longest.est_time:
                break
            swap_cnt = needed - longest.arrays
            # Donor: the shortest job with spare allocation above its
            # unit minimum.
            donors = [
                entry
                for entry in reversed(queue)
                if entry is not longest and entry.arrays > entry.estimate.unit_arrays
            ]
            if not donors or swap_cnt <= 0:
                break
            donor = donors[0]
            donor_new = donor.estimate.snap_to_replica(
                max(donor.estimate.unit_arrays, donor.arrays - swap_cnt)
            )
            released = donor.arrays - donor_new
            longest_new = longest.estimate.snap_to_replica(longest.arrays + released)
            if released <= 0 or longest_new <= longest.arrays:
                break
            queue[queue.index(donor)] = donor.with_arrays(donor_new)
            queue[queue.index(longest)] = longest.with_arrays(longest_new)
        adjusted[kind] = queue
    return adjusted
