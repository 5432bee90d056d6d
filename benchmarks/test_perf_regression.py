"""Perf-layer regression checks: the caches must make repeat work
visibly cheaper, admission must size each arrival about once, adaptive
and EWT dispatch must not re-evaluate every queued curve or scaled
time per call, the global
planning passes must not rescan their queues, a workload must not
sample its predictor training set until it is read, and the batched
event drain must not change the event order.  Byte-identity
of the simulated output is pinned by the golden digests
(``tests/golden/``).

Unlike the figure benchmarks these are plain assertions (no
pytest-benchmark fixture): run with ``pytest benchmarks/test_perf_regression.py -q``.
The full timed suite with the JSON artifact is ``python -m repro bench``.
"""

import random
import time

from repro.core import perfmodel
from repro.core.perfmodel import (
    ProfileEstimate,
    ScaleFreeEstimate,
    knee_allocation,
    knee_points,
)
from repro.core import EWTScheduler, GlobalScheduler, OraclePredictor
from repro.core.scheduler import (
    AdaptivePolicy,
    EWTPolicy,
    adaptive,
    adjustments,
    globalsched,
)
from repro.core.scheduler.adjustments import AdmissionPlanner, PlannedJob, PlanTable
from repro.harness.ablations import ablation_knee
from repro.harness.config import full_system, gnn_system
from repro.harness import gnn
from repro.harness.gnn import build_workload
from repro.kernels import spmm
from repro.serving import PoissonArrivals, ServingRuntime, Tenant
from repro.serving.workload import OpenWorkload
from repro.sim import Simulator


def test_knee_cache_speedup():
    """Repeated knee searches over a small estimate population -- the
    scheduler's actual access pattern -- must be visibly faster warm
    than cold (caches cleared before every search).  The bound is
    deliberately loose (the measured win is >10x); this guards against
    the cache being silently bypassed."""
    estimates = [
        ScaleFreeEstimate(
            unit_arrays=unit,
            t_load=1e-6,
            t_replica_unit=5e-8,
            t_compute_unit=1e-4,
            beta=beta,
        )
        for unit in (4, 8, 16)
        for beta in (0.6, 0.8, 0.92, 1.0)
    ]
    rounds = 300

    def sweep(cold: bool) -> float:
        start = time.perf_counter()
        for _ in range(rounds):
            for est in estimates:
                if cold:
                    perfmodel.clear_caches()
                knee_allocation(est, 5120)
        return time.perf_counter() - start

    try:
        uncached = sweep(cold=True)
        perfmodel.clear_caches()
        cached = sweep(cold=False)
    finally:
        perfmodel.clear_caches()
    assert cached < uncached / 1.3, (
        f"knee memo speedup only {uncached / cached:.2f}x"
    )


def test_cohort_knee_speedup():
    """Serving traffic misses the knee cache on every arrival, so its
    searches are sized as cohorts: 600 serving-shaped curves (200
    arrivals on every memory of the full system) in one
    ``knee_points`` call must be visibly faster than 600 cold
    single-curve searches, with the same answers.  The bound is loose
    (the measured win is about 4x); this guards against the cohort
    pass falling back to per-curve NumPy work."""
    system = full_system()
    workload = OpenWorkload(system)
    rng = random.Random(14)
    jobs = [workload.make_job(i, "tenant-0", rng, {}) for i in range(200)]
    curves = [
        (ProfileEstimate(job.profile(kind)), system.arrays(kind) // 2)
        for job in jobs
        for kind in system.kinds
    ]
    estimates = [estimate for estimate, _ in curves]
    caps = [cap for _, cap in curves]

    def best_of(runs: int, fn) -> float:
        times = []
        for _ in range(runs):
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
        return min(times)

    def singles():
        for estimate, cap in curves:
            perfmodel.clear_caches()
            knee_allocation(estimate, cap)

    def cohort():
        perfmodel.clear_caches()
        knee_points(estimates, caps)

    try:
        perfmodel.clear_caches()
        expected = [knee_allocation(e, c) for e, c in curves]
        perfmodel.clear_caches()
        assert [knee for knee, _ in knee_points(estimates, caps)] == expected
        single = best_of(3, singles)
        batched = best_of(3, cohort)
    finally:
        perfmodel.clear_caches()
    assert batched < single / 2, f"cohort speedup only {single / batched:.2f}x"


def test_out_of_order_admission_sizes_once(monkeypatch):
    """Overloaded, weighted tenant queues release arrivals out of
    arrival order; the admission planner must still size each upcoming
    job about once (a replaced table re-sized them 7-12x).  Counts
    only: one serve shaped like a ``replay`` window (weights 3:2:1,
    tenant queues of 32, predictive admission)."""
    sized: list = []
    admitted: list[int] = []
    plan_jobs = adjustments.plan_jobs
    call = AdmissionPlanner.__call__
    inside = []

    def counted(jobs, *args):
        if inside:
            sized.extend(jobs)
        return plan_jobs(jobs, *args)

    def admit(planner, job):
        inside.append(job)
        try:
            return call(planner, job)
        finally:
            inside.pop()
            admitted.append(planner._position[id(job)])

    monkeypatch.setattr(adjustments, "plan_jobs", counted)
    monkeypatch.setattr(AdmissionPlanner, "__call__", admit)
    tenants = [Tenant(f"tenant-{i}", weight=3.0 - i, queue_limit=32) for i in range(3)]
    arrivals = PoissonArrivals(
        rate=2e6,
        horizon=2.5e-4,
        seed=3,
        tenants=tuple(t.name for t in tenants),
        weights=tuple(t.weight for t in tenants),
    )
    served = ServingRuntime(gnn_system(), max_backlog=16).serve(
        arrivals, tenants=tenants, slo_s=1e-4, admission="predictive"
    )
    assert sum(
        s["shed_queue_full"] + s["shed_unplaced"] + s["shed_predicted"]
        for s in served.open_loop.tenant_stats().values()
    ) > 0
    assert sum(later < earlier for earlier, later in zip(admitted, admitted[1:])) > 50
    distinct = {id(job) for job in sized}
    assert len(sized) <= 1.1 * len(distinct), (
        f"sized {len(sized)} jobs for {len(distinct)} distinct upcoming ones"
    )


def test_adaptive_dispatch_evaluates_few_curves(monkeypatch):
    """Adaptive dispatch runs at every completion event; it must not
    re-evaluate the allocation curve of every queued job per call (a
    queue-order backfill scan made 41.9 ``snap_to_replica`` +
    ``total_time`` calls per dispatch here).  Counts only: the Fig. 10
    sizing sweep on one ``collab`` batch."""
    counts = {"curve": 0, "dispatched": 0}
    inside: list = []
    dispatch = AdaptivePolicy.next_dispatches

    def counted_dispatch(policy, view):
        inside.append(policy)
        try:
            launched = dispatch(policy, view)
        finally:
            inside.pop()
        counts["dispatched"] += len(launched)
        return launched

    def counting(method):
        def wrapper(estimate, arrays):
            if inside:
                counts["curve"] += 1
            return method(estimate, arrays)

        return wrapper

    for cls in (ProfileEstimate, ScaleFreeEstimate):
        for name in ("snap_to_replica", "total_time"):
            monkeypatch.setattr(cls, name, counting(getattr(cls, name)))
    monkeypatch.setattr(AdaptivePolicy, "next_dispatches", counted_dispatch)
    ablation_knee("collab", workload=build_workload("collab", num_batches=1, seed=0))
    assert counts["dispatched"] > 1000
    per_dispatch = counts["curve"] / counts["dispatched"]
    assert per_dispatch <= 8, (
        f"{counts['curve']} curve evaluations for {counts['dispatched']} "
        f"dispatches ({per_dispatch:.1f} per dispatch)"
    )


def test_ewt_dispatch_scales_each_launch_once(monkeypatch):
    """EWT keeps each memory's queue in expected-wait order, so a
    dispatch reads the derate-scaled time of what it launches and of
    nothing else (ranking every queued job per call read it once per
    queued entry on every call).  Counts only: an overloaded EWT serve
    with a backlog of up to 32 jobs."""
    counts = {"scaled": 0, "dispatched": 0, "calls": 0}
    inside: list = []
    dispatch = EWTPolicy.next_dispatches
    scaled = PlanTable.scaled

    def counted_dispatch(policy, view):
        inside.append(policy)
        try:
            launched = dispatch(policy, view)
        finally:
            inside.pop()
        counts["calls"] += 1
        counts["dispatched"] += len(launched)
        return launched

    def counted_scaled(table, entry):
        if inside:
            counts["scaled"] += 1
        return scaled(table, entry)

    monkeypatch.setattr(EWTPolicy, "next_dispatches", counted_dispatch)
    monkeypatch.setattr(PlanTable, "scaled", counted_scaled)
    arrivals = PoissonArrivals(
        rate=1e6, horizon=1e-3, seed=13, tenants=("a", "b", "c")
    )
    served = ServingRuntime(gnn_system(), scheduler="ewt", max_backlog=32).serve(
        arrivals, tenants=[Tenant(n) for n in "abc"], slo_s=1e-4
    )
    assert served.report.completed > 100
    assert counts["calls"] > counts["dispatched"] / 4
    assert counts["scaled"] <= counts["dispatched"], (
        f"{counts['scaled']} scaled-time reads for {counts['dispatched']} launches"
    )


def test_admission_writes_rankings_per_arrival_and_migration(monkeypatch):
    """The adaptive policy keeps Algorithm 1's rankings across
    arrivals: an admitted job writes one row per other live memory,
    and each migration one more per memory, instead of every call
    re-ranking the whole backlog.  Counts only: a predictive
    ``gnn_system`` serve, per ``admit`` call."""
    counts = {"writes": 0, "migrations": 0}
    calls: list[tuple[int, int, int, int]] = []
    insort, remove = adjustments.insort, adjustments.PlanQueue.remove
    admit = AdaptivePolicy.admit

    def counted_insort(*args, **kwargs):
        counts["writes"] += 1
        return insort(*args, **kwargs)

    def counted_remove(queue, entry):
        counts["migrations"] += 1
        return remove(queue, entry)

    def counted_admit(policy, jobs, now):
        before = dict(counts)
        unplaced = admit(policy, jobs, now)
        calls.append((
            len(jobs) - len(unplaced),
            len(policy._queues),
            counts["writes"] - before["writes"],
            counts["migrations"] - before["migrations"],
        ))
        return unplaced

    monkeypatch.setattr(adjustments, "insort", counted_insort)
    monkeypatch.setattr(adjustments.PlanQueue, "remove", counted_remove)
    monkeypatch.setattr(AdaptivePolicy, "admit", counted_admit)
    tenants = [Tenant(f"tenant-{i}", queue_limit=32) for i in range(3)]
    arrivals = PoissonArrivals(
        rate=2e6, horizon=2.5e-4, seed=3, tenants=tuple(t.name for t in tenants)
    )
    ServingRuntime(gnn_system(), max_backlog=16).serve(
        arrivals, tenants=tenants, slo_s=1e-4, admission="predictive"
    )
    assert len(calls) > 100
    assert sum(migrated for *_, migrated in calls) > 0
    for admitted, live, writes, migrated in calls:
        assert writes <= admitted * live * (1 + migrated), (
            f"{writes} ranking rows written for {admitted} admitted jobs "
            f"and {migrated} migrations on {live} memories"
        )


def test_closed_batch_balance_reads_one_ranking_head_per_target(monkeypatch):
    """Algorithm 1 on a closed batch takes each target's candidate from
    the head of one ``(target, source)`` ranking; walking one ranking
    per target past every job queued elsewhere made 894,037 lookups in
    41 calls.  Counts only: the Fig. 10 sizing sweep on one ``collab``
    batch, where every round inspects at most one row per memory."""
    counts = {"inside": False, "rows": 0, "migrations": 0, "calls": 0}
    cheapest, remove = adjustments.QueueBalance._cheapest, adjustments.PlanQueue.remove
    inter_queue_adjust = adaptive.inter_queue_adjust

    def counted_cheapest(balance, target, source):
        row = cheapest(balance, target, source)
        if counts["inside"] and row is not None:
            counts["rows"] += 1
        return row

    def counted_remove(queue, entry):
        if counts["inside"]:
            counts["migrations"] += 1
        return remove(queue, entry)

    def counted_adjust(queues, *args, **kwargs):
        counts["inside"] = True
        counts["calls"] += 1
        try:
            return inter_queue_adjust(queues, *args, **kwargs)
        finally:
            counts["inside"] = False

    monkeypatch.setattr(adjustments.QueueBalance, "_cheapest", counted_cheapest)
    monkeypatch.setattr(adjustments.PlanQueue, "remove", counted_remove)
    monkeypatch.setattr(adaptive, "inter_queue_adjust", counted_adjust)
    ablation_knee("collab", workload=build_workload("collab", num_batches=1, seed=0))
    memories = len(gnn_system().kinds)
    # Every round migrates one job or ends its call.
    rounds = counts["migrations"] + counts["calls"]
    assert counts["migrations"] > 100
    assert 0 < counts["rows"] <= memories * rounds, (
        f"{counts['rows']} ranking rows inspected in at most {rounds} rounds"
    )


def test_ewt_placement_sums_kept_columns(monkeypatch):
    """EWT placement sums each candidate queue's drain from its kept
    columns; re-summing ``list(queue)`` per placement made planning one
    576-job ``collab`` batch quadratic in Python (0.125 s against
    0.020 s for adaptive).  Counts only: ``_place`` iterates no queue
    entries."""
    counts = {"inside": False, "iterated": 0, "placed": 0}
    place, iterate = EWTPolicy._place, adjustments.PlanQueue.__iter__

    def counted_place(policy, arrivals):
        counts["inside"] = True
        counts["placed"] += len(arrivals)
        try:
            return place(policy, arrivals)
        finally:
            counts["inside"] = False

    def counted_iter(queue):
        if counts["inside"]:
            counts["iterated"] += 1
        return iterate(queue)

    monkeypatch.setattr(EWTPolicy, "_place", counted_place)
    monkeypatch.setattr(adjustments.PlanQueue, "__iter__", counted_iter)
    jobs = build_workload("collab", num_batches=1, seed=0).jobs_per_batch[0]
    policy = EWTScheduler(OraclePredictor()).plan(jobs, gnn_system())
    assert policy.pending() == counts["placed"] == 576
    assert counts["iterated"] == 0


def _plan_collab_batch(monkeypatch, name: str, counts: dict):
    """``GlobalScheduler.plan`` of one 576-job ``collab`` batch, with
    ``counts["inside"]`` set while the ``globalsched`` module function
    ``name`` runs.  Returns the jobs and the planned policy."""
    function = getattr(globalsched, name)

    def wrapped(*args, **kwargs):
        counts["inside"] = True
        try:
            return function(*args, **kwargs)
        finally:
            counts["inside"] = False

    monkeypatch.setattr(globalsched, name, wrapped)
    jobs = build_workload("collab", num_batches=1, seed=0).jobs_per_batch[0]
    return jobs, GlobalScheduler(OraclePredictor()).plan(jobs, gnn_system())


def test_intra_queue_adjust_reads_each_time_a_few_times(monkeypatch):
    """Algorithm 2 keeps its queue sorted across rounds; re-sorting and
    re-summing the whole queue every round read ``est_time`` 32,280
    times on this batch (about 56 per job).  ``est_time`` is a field,
    so the count is what produces one: ``total_time`` calls plus
    ``PlannedJob`` constructions.  Counts only."""
    counts = {"inside": False, "reads": 0}
    init = PlannedJob.__init__

    def counted_init(entry, *args, **kwargs):
        if counts["inside"]:
            counts["reads"] += 1
        init(entry, *args, **kwargs)

    def counting(method):
        def wrapper(estimate, arrays):
            if counts["inside"]:
                counts["reads"] += 1
            return method(estimate, arrays)

        return wrapper

    monkeypatch.setattr(PlannedJob, "__init__", counted_init)
    for cls in (ProfileEstimate, ScaleFreeEstimate):
        monkeypatch.setattr(cls, "total_time", counting(cls.total_time))
    jobs, _ = _plan_collab_batch(monkeypatch, "intra_queue_adjust", counts)
    assert len(jobs) == 576
    per_job = counts["reads"] / len(jobs)
    assert 0 < per_job <= 4, (
        f"{counts['reads']} time evaluations for {len(jobs)} jobs ({per_job:.1f} per job)"
    )


def test_static_schedule_inspects_few_entries_per_placement(monkeypatch):
    """The static schedule finds each placement on the dispatch min
    tree; rescanning the waiting queue after every placement read
    every waiting entry's allocation (461.8 reads per placement on
    this batch).  Counts reads of ``PlannedJob.arrays`` while
    ``build_static_schedule`` runs."""
    counts = {"inside": False, "reads": 0}
    slot = PlannedJob.arrays

    def read(entry):
        if counts["inside"]:
            counts["reads"] += 1
        return slot.__get__(entry)

    monkeypatch.setattr(PlannedJob, "arrays", property(read, slot.__set__))
    jobs, policy = _plan_collab_batch(monkeypatch, "build_static_schedule", counts)
    placed = policy.pending()
    assert placed == len(jobs) == 576
    per_placement = counts["reads"] / placed
    assert 0 < per_placement <= 8, (
        f"{counts['reads']} allocation reads for {placed} placements "
        f"({per_placement:.1f} per placement)"
    )


def test_spmm_job_scans_strips_once_per_memory(monkeypatch):
    """Lowering an SpMM job must scan the adjacency's strips at most
    once per memory layer, sharing that population between the job's
    profile and its ``h_w`` tag (each was scanned separately before:
    6 scans per job).  Counts only: every SpMM job of one ``collab``
    batch and its predictor training set."""
    scans: list[int] = []
    population = spmm.prow_population

    def counted(graph, width):
        scans.append(width)
        return population(graph, width)

    monkeypatch.setattr(spmm, "prow_population", counted)
    workload = build_workload("collab", num_batches=1, seed=0)
    jobs = len(workload.spmm_jobs()) + len(workload.training_jobs)
    assert jobs > 100
    per_job = len(scans) / jobs
    assert 0 < per_job <= 3, f"{len(scans)} strip scans for {jobs} SpMM jobs"


def test_training_set_is_sampled_on_first_read(monkeypatch):
    """Building a workload samples only its batches; the predictor's
    held-out training set is sampled when ``training_jobs`` is first
    read, and only then.  Counts only: ``sample_batches`` calls."""
    calls: list[int] = []
    sample = gnn.sample_batches

    def counted(*args, **kwargs):
        calls.append(kwargs["seed"])
        return sample(*args, **kwargs)

    monkeypatch.setattr(gnn, "sample_batches", counted)
    workload = build_workload("collab", num_batches=1, seed=0)
    assert calls == [0]
    assert workload.training_jobs
    assert calls == [0, 1000]
    assert workload.training_jobs is workload.training_jobs
    assert calls == [0, 1000]


def test_chunked_run_matches_step_trace():
    """``run()``'s batched same-timestamp drain must visit events in
    exactly the order the one-at-a-time ``step()`` loop does."""

    def build(log):
        sim = Simulator()
        for i in range(200):
            # Deliberately collide timestamps (i % 7) to form chunks.
            sim.at(float(i % 7), lambda i=i: log.append((sim.now, i)))
        return sim

    run_log: list = []
    sim = build(run_log)
    sim.run()

    step_log: list = []
    stepped = build(step_log)
    while stepped.step():
        pass

    assert run_log == step_log
    assert sim.now == stepped.now
    assert sim.processed == stepped.processed == 200
