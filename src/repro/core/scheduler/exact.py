"""Exact branch-and-bound reference scheduler (the optimality oracle).

Every heuristic in this package is measured against fluid *bounds*
(:mod:`repro.core.scheduler.oracle`), which are unachievable in
general, so "how far from optimal is the adaptive scheduler?" had no
answer.  This module computes one: on small instances it enumerates
the full MLIMP scheduling decision -- for every job a device kind, a
replica-multiple allocation, and an execution order -- with branch and
bound, and returns a **provably optimal makespan** plus the realised
schedule in the same :class:`~repro.core.scheduler.globalsched.ScheduledEntry`
plan format the dispatcher consumes ("Multiprocessor Scheduling with
Memory Constraints" shows exact B&B with memory-feasibility pruning is
tractable at this scale).

Scope of the exactness claim
----------------------------
The solver models the dispatcher's event cascade *bit-exactly* for
compute-pure jobs (``fill_bytes == 0``): launch overhead, the
main-memory access latency non-DRAM fills pay even when empty, the
replication phase, and the discrete ground-truth compute curve, each
applied in the dispatcher's own floating-point addition order.  Zero
fill bytes keep the shared DDR4 pipe out of the picture, so device
kinds are independent machines; jobs with off-chip fills are rejected
with :class:`ExactSolverError` rather than silently mis-modelled.

Capacity is modelled per kind as job slots plus *total* arrays (the
relaxed, non-contiguous capacity model).  Relaxation matters for the
direction of the guarantee: any execution the real dispatcher can
produce -- under its contiguous first-fit allocator, any policy, any
backfill -- maps to a feasible schedule of this model with identical
completion times, and serial schedule generation over all orders
contains an optimum for regular measures, so the returned makespan is
a certified **lower bound on every heuristic run**.  It is also
*achieved* by replaying the returned schedule through
:class:`~repro.core.scheduler.globalsched.GlobalPolicy` whenever the
planned allocations never fragment the scratchpad (the optgap harness
sizes its instances with that margin, and the differential suite
asserts the replayed makespan equals the prediction exactly).

Pruning is floating-point-safe: a node is cut only when its lower
bound exceeds the incumbent by more than :data:`PRUNE_SLACK`
relative, so ulp-level bound noise can never change the returned
optimum -- ``brute_force=True`` (bound pruning disabled) returns the
bit-identical makespan, and so does any permutation of the input jobs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ...memories.base import MemoryKind
from ...sim.mainmem import DDR4Config
from ..job import Job
from ..perfmodel import estimate_from_profile
from .adjustments import PlannedJob, PlanTable, no_options
from .base import DISPATCH_OVERHEAD_S, MLIMPSystem
from .globalsched import GlobalPolicy, ScheduledEntry

__all__ = [
    "ExactSolverError",
    "ExactSolution",
    "solve_exact",
    "MAX_EXACT_JOBS",
]

#: Instance-size ceiling: the search is exponential by design, and the
#: oracle exists for small differential instances, not production runs.
MAX_EXACT_JOBS = 10

#: The main-memory access latency a non-DRAM fill pays even when it
#: moves no bytes (the dispatcher's pipe at its DDR4 defaults).
_FILL_LATENCY_S = DDR4Config().access_latency_ns * 1e-9

#: Relative slack on bound pruning.  Bounds are true lower bounds
#: mathematically but are computed in floating point; cutting only
#: when ``bound > incumbent * (1 + PRUNE_SLACK)`` leaves orders of
#: magnitude more headroom than the few-ulp error a handful of float
#: operations can accumulate, so pruning can never drop the optimum.
PRUNE_SLACK = 1e-9

#: Search-node ceiling before the solver gives up with a clear error
#: instead of hanging (a backstop, not a tuning knob: in-scope
#: instances stay far below it).
DEFAULT_NODE_BUDGET = 2_000_000


class ExactSolverError(ValueError):
    """The instance is outside the solver's exact model (too large,
    memory-infeasible, or coupled through the shared fill pipe)."""


@dataclass(frozen=True)
class _Option:
    """One (device kind, replica count) choice for one job.

    The four duration components are kept separate because the
    dispatcher charges them as *separate* event-time additions; a
    pre-summed duration would drift from the simulated completion time
    by ulps and break bit-exact replay.
    """

    kind: MemoryKind
    arrays: int
    replicas: int
    overhead: float
    latency: float
    rep_time: float
    compute: float
    duration: float

    def end(self, start: float) -> float:
        """Completion time of a launch at ``start``, reproducing the
        dispatcher's addition order: overhead, then the (possibly
        zero-latency) fill, then replication, then compute."""
        t = start + self.overhead
        t = t + self.latency
        t = t + self.rep_time
        t = t + self.compute
        return t

    @property
    def key(self) -> tuple:
        """Interchangeability key: options equal under this key are
        indistinguishable to the per-kind scheduling subproblem."""
        return (
            self.duration,
            self.arrays,
            self.overhead,
            self.latency,
            self.rep_time,
            self.compute,
        )


@dataclass
class ExactSolution:
    """A certified-optimal plan for one small instance."""

    makespan: float
    schedule: list[ScheduledEntry]
    #: job_id -> {"kind", "arrays", "start", "end"} of the optimal plan.
    assignments: dict[str, dict]
    nodes: int = 0

    def policy(self, system: MLIMPSystem) -> GlobalPolicy:
        """The schedule as a dispatchable policy on ``system`` (plan
        replay).  It sizes no arrival and has no plans to re-place a
        job from, so it hands every such job back."""
        return GlobalPolicy(PlanTable(system, no_options), list(self.schedule))


class _Budget:
    """Shared node counter with a hard ceiling."""

    __slots__ = ("used", "limit")

    def __init__(self, limit: int) -> None:
        self.used = 0
        self.limit = limit

    def spend(self, amount: int = 1) -> None:
        self.used += amount
        if self.used > self.limit:
            raise ExactSolverError(
                f"exact search exceeded the node budget ({self.limit}); "
                "the instance is too large for the oracle"
            )


def _job_options(job: Job, system: MLIMPSystem) -> list[_Option]:
    """Pareto frontier of (kind, replicas) choices for one job.

    Per kind, replica counts sweep 1..min(waves, arrays // unit); an
    option is kept only while it strictly improves the duration, since
    a choice with more arrays and no better duration can never help
    under the relaxed capacity model (memory-feasibility pruning at
    the option level).
    """
    options: list[_Option] = []
    for kind in system.kinds:
        if kind not in job.profiles:
            continue
        profile = job.profile(kind)
        if profile.fill_bytes * profile.n_iter != 0.0:
            raise ExactSolverError(
                f"job {job.job_id}: exact model requires fill_bytes == 0 "
                f"(profile on {kind.value} streams off-chip bytes through "
                "the shared pipe, which couples the devices)"
            )
        capacity = system.arrays(kind)
        if profile.unit_arrays > capacity:
            continue  # one replica does not even fit this device
        r_max = min(profile.waves_unit, capacity // profile.unit_arrays)
        latency = 0.0 if kind is MemoryKind.DRAM else _FILL_LATENCY_S
        best = math.inf
        for replicas in range(1, r_max + 1):
            arrays = replicas * profile.unit_arrays
            # Same expressions (and evaluation order) as the
            # dispatcher's replicate/compute phases.
            rep_time = profile.n_iter * profile.t_replica_unit * (replicas - 1)
            compute = profile.n_iter * profile.compute_time(arrays)
            option = _Option(
                kind=kind,
                arrays=arrays,
                replicas=replicas,
                overhead=DISPATCH_OVERHEAD_S,
                latency=latency,
                rep_time=rep_time,
                compute=compute,
                duration=0.0,
            )
            duration = option.end(0.0)
            if duration >= best:
                continue  # dominated: more arrays, no faster
            best = duration
            options.append(
                _Option(
                    kind=kind,
                    arrays=arrays,
                    replicas=replicas,
                    overhead=DISPATCH_OVERHEAD_S,
                    latency=latency,
                    rep_time=rep_time,
                    compute=compute,
                    duration=duration,
                )
            )
    options.sort(key=lambda o: (o.duration, o.arrays, o.kind.value))
    return options


def _earliest_start(
    placed: list[tuple[float, float, int]],
    option: _Option,
    slots: int,
    arrays: int,
) -> tuple[float, float]:
    """Serial-SGS placement: the earliest resource-feasible start.

    Resource usage is piecewise constant and only *drops* at placed
    completion times, so the earliest feasible start is 0.0 or a
    placed end; feasibility of the candidate interval is checked at
    its own start and at every placed start inside it (intervals are
    half-open ``[start, end)``, matching the dispatcher, which frees a
    completing job's resources before pumping new launches at the same
    timestamp).
    """
    need = option.arrays
    candidates = sorted({0.0, *(p[1] for p in placed)})
    for t in candidates:
        e = option.end(t)
        conflicts = [p for p in placed if p[0] < e and p[1] > t]
        checks = [t] + [p[0] for p in conflicts if p[0] > t]
        feasible = True
        for u in checks:
            used_slots = 0
            used_arrays = 0
            for p in conflicts:
                if p[0] <= u < p[1]:
                    used_slots += 1
                    used_arrays += p[2]
            if used_slots + 1 > slots or used_arrays + need > arrays:
                feasible = False
                break
        if feasible:
            return t, e
    raise AssertionError("an empty device always admits the job")


def _solve_kind(
    items: list[_Option],
    slots: int,
    arrays: int,
    brute_force: bool,
    budget: _Budget,
) -> tuple[float, list[float]]:
    """Exact makespan of one kind's item multiset, plus start times
    aligned with ``items`` order.

    Two closed forms are exact and shared by both modes (they are not
    pruning): everything fits concurrently -> all start at 0; a single
    job slot -> a sequential chain in descending-duration order.  The
    general case is branch and bound over serial-SGS orders, which
    reaches every active schedule and therefore an optimum.
    """
    n = len(items)
    if n == 0:
        return 0.0, []
    if n <= slots and sum(o.arrays for o in items) <= arrays:
        return max(o.end(0.0) for o in items), [0.0] * n
    order = sorted(range(n), key=lambda i: (-items[i].duration, items[i].key))
    if slots == 1:
        starts = [0.0] * n
        t = 0.0
        for i in order:
            starts[i] = t
            t = items[i].end(t)
        return t, starts

    sum_d = sum(o.duration for o in items)
    sum_da = sum(o.duration * o.arrays for o in items)
    fluid = max(sum_d / slots, sum_da / arrays, max(o.duration for o in items))
    best = math.inf
    best_starts: list[float] | None = None
    placed: list[tuple[float, float, int]] = []
    starts = [0.0] * n

    def dfs(remaining: tuple[int, ...]) -> None:
        nonlocal best, best_starts
        budget.spend()
        if not remaining:
            makespan = max(p[1] for p in placed)
            if makespan < best:
                best = makespan
                best_starts = list(starts)
            return
        seen: set[tuple] = set()
        for pick in remaining:
            option = items[pick]
            if option.key in seen:
                continue  # identical items: one order suffices
            seen.add(option.key)
            t, e = _earliest_start(placed, option, slots, arrays)
            if not brute_force and e > best * (1.0 + PRUNE_SLACK):
                # Within this subtree the item only starts later, so
                # every completion ends at >= e: cannot improve.
                continue
            if not brute_force and fluid > best * (1.0 + PRUNE_SLACK):
                return
            placed.append((t, e, option.arrays))
            starts[pick] = t
            dfs(tuple(i for i in remaining if i != pick))
            placed.pop()
        return

    # Descending-duration first gives a strong initial incumbent fast.
    dfs(tuple(order))
    assert best_starts is not None
    return best, best_starts


def solve_exact(
    jobs: list[Job],
    system: MLIMPSystem,
    *,
    brute_force: bool = False,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> ExactSolution:
    """Branch-and-bound over (job -> kind, allocation, order).

    Returns the provably optimal makespan of the relaxed capacity
    model (see the module docstring for what that certifies) and a
    realising schedule in dispatcher plan format.  Raises
    :class:`ExactSolverError` on oversize instances, jobs with
    off-chip fill bytes, and jobs that fit no device.

    ``brute_force=True`` disables bound pruning everywhere (the
    exhaustive reference the property suite compares against); it must
    return the bit-identical makespan.
    """
    if len(jobs) > MAX_EXACT_JOBS:
        raise ExactSolverError(
            f"{len(jobs)} jobs exceed the exact-instance limit ({MAX_EXACT_JOBS})"
        )
    ids = [job.job_id for job in jobs]
    if len(set(ids)) != len(ids):
        raise ExactSolverError("duplicate job ids in the instance")
    if not jobs:
        return ExactSolution(makespan=0.0, schedule=[], assignments={}, nodes=0)

    options_by_job: dict[str, list[_Option]] = {}
    for job in jobs:
        options = _job_options(job, system)
        if not options:
            raise ExactSolverError(
                f"job {job.job_id} fits no memory in the system: its unit "
                "allocation exceeds every device"
            )
        options_by_job[job.job_id] = options

    # Deterministic internal order: hardest job first, id tie-break.
    # The search (and hence the returned optimum, bit for bit) is a
    # function of the job *set*, never of the caller's ordering.
    ordered = sorted(
        jobs, key=lambda j: (-options_by_job[j.job_id][0].duration, j.job_id)
    )
    n = len(ordered)
    min_d = [options_by_job[j.job_id][0].duration for j in ordered]
    min_da = [
        min(o.duration * o.arrays for o in options_by_job[j.job_id])
        for j in ordered
    ]
    # Suffix aggregates for the unassigned-remainder bounds.
    suffix_d = [0.0] * (n + 1)
    suffix_da = [0.0] * (n + 1)
    suffix_max = [0.0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix_d[i] = suffix_d[i + 1] + min_d[i]
        suffix_da[i] = suffix_da[i + 1] + min_da[i]
        suffix_max[i] = max(suffix_max[i + 1], min_d[i])

    kinds = list(system.kinds)
    caps = {k: (system.slots(k), system.arrays(k)) for k in kinds}
    total_slots = sum(system.slots(k) for k in kinds)
    total_arrays = sum(system.arrays(k) for k in kinds)

    budget = _Budget(node_budget)
    assigned: dict[MemoryKind, list[tuple[_Option, Job]]] = {k: [] for k in kinds}
    slot_s = {k: 0.0 for k in kinds}
    arr_s = {k: 0.0 for k in kinds}
    best = math.inf
    best_plan: dict[str, tuple[_Option, float]] | None = None
    kind_memo: dict[tuple, tuple[float, list[float]]] = {}

    def kind_makespan(kind: MemoryKind) -> tuple[float, list[float]]:
        """Exact makespan of ``kind``'s committed items (memoised on
        the item multiset; identical multisets recur across leaves)."""
        items = sorted((option for option, _ in assigned[kind]), key=lambda o: o.key)
        key = (kind, tuple(o.key for o in items))
        hit = kind_memo.get(key)
        if hit is None:
            slots, arrays = caps[kind]
            hit = _solve_kind(items, slots, arrays, brute_force, budget)
            kind_memo[key] = hit
        return hit

    def leaf() -> None:
        nonlocal best, best_plan
        # Most-loaded kind first so a hopeless leaf stops early (the
        # running max only grows; exact reasoning, not a bound guess).
        ranked = sorted(
            kinds,
            key=lambda k: -max(
                slot_s[k] / caps[k][0], arr_s[k] / caps[k][1]
            ),
        )
        makespan = 0.0
        for kind in ranked:
            if not assigned[kind]:
                continue
            kind_mk, _ = kind_makespan(kind)
            makespan = max(makespan, kind_mk)
            if not brute_force and makespan > best * (1.0 + PRUNE_SLACK):
                return
        if makespan >= best:
            return
        best = makespan
        plan: dict[str, tuple[_Option, float]] = {}
        for kind in kinds:
            if not assigned[kind]:
                continue
            _, starts = kind_makespan(kind)
            items = sorted(
                assigned[kind], key=lambda pair: (pair[0].key, pair[1].job_id)
            )
            for (option, job), start in zip(items, starts):
                plan[job.job_id] = (option, start)
        best_plan = plan

    def dfs(i: int) -> None:
        budget.spend()
        if i == n:
            leaf()
            return
        if not brute_force:
            committed = max(
                max(slot_s[k] / caps[k][0], arr_s[k] / caps[k][1])
                for k in kinds
            )
            critical = max(
                (o.duration for k in kinds for o, _ in assigned[k]),
                default=0.0,
            )
            agg_slots = (sum(slot_s.values()) + suffix_d[i]) / total_slots
            agg_arrays = (sum(arr_s.values()) + suffix_da[i]) / total_arrays
            bound = max(committed, critical, suffix_max[i], agg_slots, agg_arrays)
            if bound > best * (1.0 + PRUNE_SLACK):
                return
        job = ordered[i]
        for option in options_by_job[job.job_id]:
            kind = option.kind
            assigned[kind].append((option, job))
            slot_s[kind] += option.duration
            arr_s[kind] += option.duration * option.arrays
            dfs(i + 1)
            assigned[kind].pop()
            slot_s[kind] -= option.duration
            arr_s[kind] -= option.duration * option.arrays

    dfs(0)
    assert best_plan is not None

    schedule: list[ScheduledEntry] = []
    assignments: dict[str, dict] = {}
    for job in ordered:
        option, start = best_plan[job.job_id]
        entry = PlannedJob(
            job=job,
            kind=option.kind,
            arrays=option.arrays,
            estimate=estimate_from_profile(job.profile(option.kind)),
        )
        schedule.append(ScheduledEntry(planned_start=start, entry=entry))
        assignments[job.job_id] = {
            "kind": option.kind.value,
            "arrays": option.arrays,
            "start": start,
            "end": option.end(start),
        }
    schedule.sort(
        key=lambda s: (s.planned_start, s.entry.kind.value, s.entry.job.job_id)
    )
    return ExactSolution(
        makespan=best,
        schedule=schedule,
        assignments=assignments,
        nodes=budget.used,
    )

