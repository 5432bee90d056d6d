"""Property-based scheduler invariants over random job batches."""

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.core import (
    AdaptiveScheduler,
    Dispatcher,
    GlobalScheduler,
    Job,
    JobPerfProfile,
    LJFScheduler,
    MLIMPSystem,
    OraclePredictor,
    ResourceView,
    ScaleFreeEstimate,
    oracle_makespan,
)
from repro.core.scheduler import AdaptivePolicy, EWTPolicy, GlobalPolicy
from repro.core.scheduler.globalsched import ScheduledEntry, build_static_schedule
from repro.core.scheduler import adjustments
from repro.core.scheduler.adjustments import (
    PlannedJob,
    PlanQueue,
    PlanTable,
    QueueBalance,
    _balance_queue,
    inter_queue_adjust,
    intra_queue_adjust,
    longest_first,
    no_options,
)
from repro.harness.config import full_system, gnn_system
from repro.memories import ArrayGeometry, MemoryKind, MemorySpec


def small_spec(kind: MemoryKind, arrays: int) -> MemorySpec:
    return MemorySpec(
        kind=kind,
        name=f"p-{kind.value}",
        geometry=ArrayGeometry(32, 32),
        num_arrays=arrays,
        alus_per_array=32,
        clock_mhz=500.0,
        mac_cycles_2op=10,
        multi_operand_alpha=1.0,
        max_operands=4,
        pack_limit=2,
        energy_per_mac_pj=1.0,
        energy_per_bitop_pj=0.1,
        fill_bandwidth_gbps=50.0,
        copy_bandwidth_gbps=50.0,
        max_outstanding_jobs=3,
    )


SYSTEM = MLIMPSystem(
    specs={
        MemoryKind.SRAM: small_spec(MemoryKind.SRAM, 24),
        MemoryKind.RERAM: small_spec(MemoryKind.RERAM, 48),
    }
)


def job_from_seed(i: int, seed: int) -> Job:
    rng = np.random.default_rng(seed * 1000 + i)
    profiles = {}
    for kind in SYSTEM.kinds:
        profiles[kind] = JobPerfProfile(
            unit_arrays=int(rng.integers(1, 9)),
            t_load=float(rng.uniform(0, 2e-6)),
            t_replica_unit=float(rng.uniform(0, 2e-7)),
            t_compute_unit=float(rng.uniform(1e-6, 5e-5)),
            waves_unit=int(rng.integers(1, 30)),
            fill_bytes=float(rng.uniform(0, 5e4)),
            compute_energy_j=1e-10,
        )
    return Job(job_id=f"h{i}", kernel="app", profiles=profiles)


@settings(max_examples=25, deadline=None)
@given(
    n_jobs=st.integers(min_value=1, max_value=24),
    seed=st.integers(min_value=0, max_value=50),
    scheduler_name=st.sampled_from(["ljf", "adaptive", "global"]),
)
def test_every_scheduler_completes_every_job(n_jobs, seed, scheduler_name):
    """All jobs finish exactly once, the makespan covers every record,
    and the fluid oracle lower-bounds the result."""
    jobs = [job_from_seed(i, seed) for i in range(n_jobs)]
    scheduler = {
        "ljf": LJFScheduler(OraclePredictor()),
        "adaptive": AdaptiveScheduler(OraclePredictor()),
        "global": GlobalScheduler(OraclePredictor()),
    }[scheduler_name]
    result = Dispatcher(SYSTEM).run(scheduler.plan(jobs, SYSTEM))
    assert set(result.records) == {job.job_id for job in jobs}
    assert all(r.finished_at <= result.makespan + 1e-12 for r in result.records.values())
    bound = oracle_makespan(jobs, SYSTEM)
    assert result.makespan >= bound * 0.999


@settings(max_examples=25, deadline=None)
@given(
    n_jobs=st.integers(min_value=2, max_value=24),
    seed=st.integers(min_value=0, max_value=50),
)
def test_static_schedule_respects_capacity(n_jobs, seed):
    """The offline plan never over-subscribes arrays or job slots at
    any planned instant, and plans every job exactly once."""
    jobs = [job_from_seed(i, seed) for i in range(n_jobs)]
    scheduler = AdaptiveScheduler(OraclePredictor())
    queues = scheduler.build_plans(jobs, PlanTable(SYSTEM, no_options))
    queues = intra_queue_adjust(queues, SYSTEM)
    schedule = build_static_schedule(queues, SYSTEM)
    assert len(schedule) == n_jobs
    assert [s.planned_start for s in schedule] == sorted(
        s.planned_start for s in schedule
    )
    # Sweep the plan: active allocations within capacity at every
    # planned start instant (a start coinciding with an end reuses the
    # freed arrays, so the interval is half-open).
    for kind in SYSTEM.kinds:
        entries = [
            (s.planned_start, s.planned_start + s.entry.estimate.total_time(s.entry.arrays), s.entry.arrays)
            for s in schedule
            if s.entry.kind is kind
        ]
        for probe, _, _ in entries:
            active = sum(a for s, e, a in entries if s <= probe < e)
            assert active <= SYSTEM.arrays(kind)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=40))
def test_intra_queue_conserves_feasibility(seed):
    """Algorithm 2 never drops a job, never goes below unit
    allocations, and never exceeds the device."""
    jobs = [job_from_seed(i, seed) for i in range(12)]
    scheduler = AdaptiveScheduler(OraclePredictor())
    queues = scheduler.build_plans(jobs, PlanTable(SYSTEM, no_options))
    adjusted = intra_queue_adjust(queues, SYSTEM)
    before = sorted(
        entry.job.job_id for q in queues.values() for entry in q
    )
    after = sorted(
        entry.job.job_id for q in adjusted.values() for entry in q
    )
    assert before == after
    for kind, queue in adjusted.items():
        for entry in queue:
            assert entry.arrays >= entry.estimate.unit_arrays
            assert entry.arrays <= SYSTEM.arrays(kind)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=40))
def test_trace_array_occupancy_never_exceeds_device(seed):
    """At runtime, concurrently-held arrays stay within the device."""
    jobs = [job_from_seed(i, seed) for i in range(16)]
    result = Dispatcher(SYSTEM).run(
        AdaptiveScheduler(OraclePredictor()).plan(jobs, SYSTEM)
    )
    for kind in SYSTEM.kinds:
        intervals = [
            (r.dispatched_at, r.finished_at, r.arrays)
            for r in result.records.values()
            if r.kind is kind
        ]
        points = sorted({t for s, e, _ in intervals for t in (s, e)})
        for t in points:
            active = sum(a for s, e, a in intervals if s <= t < e)
            assert active <= SYSTEM.arrays(kind)


def reference_dispatches(queues, inflight, derate, view, backfill):
    """Adaptive dispatch as a queue-order scan: the specification the
    indexed ``AdaptivePolicy.next_dispatches`` must reproduce exactly.
    Consumes ``queues`` and records launches in ``inflight`` the way
    the policy does; returns ``(job_id, kind, arrays, predicted_time)``
    per launch."""
    launched = []
    free_slots = dict(view.free_slots)
    free_run = dict(view.largest_free_run)
    for kind, queue in queues.items():
        remaining = []
        for entry in queue:
            if free_slots.get(kind, 0) > 0 and free_run.get(kind, 0) >= entry.arrays:
                est = entry.est_time / derate.get(kind, 1.0)
                launched.append((entry.job.job_id, kind, entry.arrays, est))
                free_slots[kind] -= 1
                free_run[kind] -= entry.arrays
                inflight[kind][entry.job.job_id] = view.now + est
            else:
                remaining.append(entry)
        queue[:] = remaining
    if not backfill:
        return launched
    for kind, queue in queues.items():
        run = free_run.get(kind, 0)
        if free_slots.get(kind, 0) <= 0 or run <= 0 or not queue or not inflight[kind]:
            continue
        horizon = min(inflight[kind].values())
        for entry in queue:
            if entry.estimate.unit_arrays > run:
                continue
            arrays = entry.estimate.snap_to_replica(run)
            est = entry.estimate.total_time(arrays) / derate.get(kind, 1.0)
            if view.now + est <= horizon:
                launched.append((entry.job.job_id, kind, arrays, est))
                queue.remove(entry)
                free_slots[kind] -= 1
                inflight[kind][entry.job.job_id] = view.now + est
                break
    return launched


KINDS = tuple(SYSTEM.kinds)


#: A few shared curves, so queues hold ties in ``est_time`` and
#: backfill times equal to in-flight horizons.
CURVES = [
    ScaleFreeEstimate(
        unit_arrays=unit,
        t_load=1e-6,
        t_replica_unit=t_replica,
        t_compute_unit=2e-5,
        beta=beta,
        max_useful_arrays=max_useful,
    )
    for unit, t_replica, beta, max_useful in (
        (1, 0.0, 1.0, None),
        (1, 1e-7, 0.5, 8),
        (2, 0.0, 0.5, None),
        (3, 1e-7, 1.0, 8),
    )
]


@st.composite
def planned_options(draw, job: Job) -> dict:
    """A plan per memory from the shared curves."""
    options = {}
    for kind in KINDS:
        estimate = draw(st.sampled_from(CURVES))
        arrays = estimate.unit_arrays * draw(st.integers(min_value=1, max_value=4))
        options[kind] = PlannedJob(job=job, kind=kind, arrays=arrays, estimate=estimate)
    return options


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    n_jobs=st.integers(min_value=0, max_value=20),
    backfill=st.booleans(),
)
def test_indexed_adaptive_dispatch_matches_queue_scan(data, n_jobs, backfill):
    """Every ``next_dispatches`` call emits exactly the launches of the
    queue-order scan on the policy's current queues -- also after the
    calls that rebuild the queues (admit, derate, device loss) or
    shrink the in-flight horizons (completion, failure)."""
    jobs = {f"h{i}": job_from_seed(i, 0) for i in range(n_jobs + 6)}
    options = {job_id: data.draw(planned_options(job)) for job_id, job in jobs.items()}
    initial = list(jobs)[:n_jobs]
    arrivals = list(jobs)[n_jobs:]
    queues = {kind: [] for kind in KINDS}
    for job_id in initial:
        kind = data.draw(st.sampled_from(KINDS))
        queues[kind].append(options[job_id][kind])
    table = PlanTable(SYSTEM, lambda job: dict(options[job.job_id]))
    for job_id in initial:
        table.admit(jobs[job_id])
    policy = AdaptivePolicy(table, queues, backfill=backfill)
    now = 0.0
    steps = data.draw(st.lists(
        st.sampled_from(
            ["dispatch"] * 4 + ["admit", "derate", "lost", "complete", "fail"]
        ),
        min_size=1,
        max_size=20,
    ))
    for step in steps:
        inflight = [(k, j) for k, ids in policy._inflight.items() for j in ids]
        if step == "dispatch":
            now += data.draw(st.sampled_from([0.0, 0.0, 2e-6, 1e-5]))
            view = ResourceView(
                now=now,
                free_slots={k: data.draw(st.integers(0, 3)) for k in KINDS},
                free_arrays={k: SYSTEM.arrays(k) for k in KINDS},
                largest_free_run={
                    k: data.draw(st.integers(0, SYSTEM.arrays(k))) for k in KINDS
                },
            )
            expected_queues = {k: list(q) for k, q in policy._queues.items()}
            expected_inflight = {k: dict(v) for k, v in policy._inflight.items()}
            expected = reference_dispatches(
                expected_queues,
                expected_inflight,
                {k: policy.table.factor(k) for k in KINDS},
                view,
                backfill,
            )
            got = [
                (d.job.job_id, d.kind, d.arrays, d.predicted_time)
                for d in policy.next_dispatches(view)
            ]
            assert got == expected
            assert {k: list(q) for k, q in policy._queues.items()} == expected_queues
            assert policy._inflight == expected_inflight
            assert policy.pending() == sum(map(len, expected_queues.values()))
        elif step == "admit" and arrivals:
            count = data.draw(st.integers(1, min(2, len(arrivals))))
            batch, arrivals = arrivals[:count], arrivals[count:]
            assert policy.admit([jobs[j] for j in batch], now) == []
        elif step == "derate":
            kind = data.draw(st.sampled_from(KINDS))
            policy.device_derated(kind, data.draw(st.sampled_from([0.5, 0.8])), now)
        elif step == "lost" and len(policy._queues) > 1:
            kind = data.draw(st.sampled_from(sorted(policy._queues, key=str)))
            victims = [jobs[j] for k, j in inflight if k is kind]
            policy.device_lost(kind, victims, now)
        elif step in ("complete", "fail") and inflight:
            kind, job_id = data.draw(st.sampled_from(inflight))
            if step == "complete":
                policy.notify_completion(jobs[job_id], kind, now)
            else:
                policy.notify_failed(jobs[job_id], now)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n_initial=st.integers(min_value=0, max_value=12))
def test_plan_queue_matches_stable_resort(data, n_initial):
    """Random inserts, launches (first fits and arbitrary positions) and
    the compactions inserts trigger, with tied keys: the queue holds
    exactly what a list stably re-sorted after every operation holds, in
    the same order, and its head, first fit and smallest allocation are
    that list's."""
    kind = KINDS[0]
    rank: dict[str, int] = {}

    def key(entry: PlannedJob) -> int:
        return rank[entry.job.job_id]

    def planned(i: int) -> PlannedJob:
        job = job_from_seed(i, 0)
        rank[job.job_id] = data.draw(st.integers(0, 3), label="key")
        arrays = data.draw(st.integers(1, 8), label="arrays")
        return PlannedJob(job=job, kind=kind, arrays=arrays, estimate=CURVES[0])

    model = [planned(i) for i in range(n_initial)]
    queue = PlanQueue(key, model)
    model = sorted(model, key=key)
    made = n_initial
    steps = data.draw(st.lists(st.sampled_from(["insert", "fit", "take"]), max_size=40))
    for step in steps:
        if step == "insert":
            entry = planned(made)
            made += 1
            queue.insert(entry)
            model = sorted(model + [entry], key=key)
            launched = len(queue.entries) - len(queue)
            assert launched < len(queue)  # compacted before it could reach it
        elif step == "fit" and model:
            run = data.draw(st.integers(0, 9), label="run")
            pos = queue.first_fitting(run)
            fits = [e for e in model if e.arrays <= run]
            assert (pos is None) == (not fits)
            if fits:
                assert queue.take(pos) is fits[0]
                model.remove(fits[0])
        elif step == "take" and model:
            entry = data.draw(st.sampled_from(model), label="taken")
            assert queue.take(queue.entries.index(entry)) is entry
            model.remove(entry)
        assert list(queue) == model
        assert len(queue) == len(model)
        assert queue.smallest() == min((e.arrays for e in model), default=float("inf"))
        if model:
            assert queue.entries[queue.head] is model[0]


def _ewt_key(policy: EWTPolicy, entry: PlannedJob) -> tuple[float, str]:
    job_id = entry.job.job_id
    return policy._arrived[job_id] - policy.table.scaled(entry), job_id


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n_jobs=st.integers(min_value=1, max_value=16))
def test_ewt_kept_order_is_a_fresh_sort(data, n_jobs):
    """Over random admits, dispatches, derates, device losses and
    completions, each EWT queue stays in the order a fresh sort by
    ``(arrived - scaled time, job id)`` gives, and every dispatch is the
    fit-skip scan of that order."""
    jobs = {f"h{i}": job_from_seed(i, 0) for i in range(n_jobs)}
    options = {job_id: data.draw(planned_options(job)) for job_id, job in jobs.items()}
    waiting = list(jobs)
    policy = EWTPolicy(PlanTable(SYSTEM, lambda job: dict(options[job.job_id])))
    inflight: list[tuple[MemoryKind, str]] = []
    now = 0.0
    steps = data.draw(st.lists(
        st.sampled_from(["admit"] * 3 + ["dispatch"] * 3 + ["derate", "lost", "complete"]),
        min_size=1,
        max_size=24,
    ))
    for step in steps:
        now += data.draw(st.sampled_from([0.0, 1e-6, 1e-5]))
        if step == "admit" and waiting:
            count = data.draw(st.integers(1, min(3, len(waiting))))
            batch, waiting = waiting[:count], waiting[count:]
            assert policy.admit([jobs[j] for j in batch], now) == []
        elif step == "dispatch":
            slots = {k: data.draw(st.integers(0, 3)) for k in KINDS}
            run = {k: data.draw(st.integers(0, SYSTEM.arrays(k))) for k in KINDS}
            expected = []
            for kind, queue in policy._queues.items():
                left, free = slots[kind], run[kind]
                for entry in sorted(queue, key=lambda e: _ewt_key(policy, e)):
                    if left <= 0:
                        break
                    if entry.arrays <= free:
                        expected.append((entry.job.job_id, kind, entry.arrays))
                        left -= 1
                        free -= entry.arrays
            view = ResourceView(
                now=now, free_slots=slots, free_arrays=run, largest_free_run=run
            )
            got = policy.next_dispatches(view)
            assert [(d.job.job_id, d.kind, d.arrays) for d in got] == expected
            inflight += [(d.kind, d.job.job_id) for d in got]
        elif step == "derate":
            kind = data.draw(st.sampled_from(KINDS))
            policy.device_derated(kind, data.draw(st.sampled_from([0.5, 0.8])), now)
        elif step == "lost" and len(policy._queues) > 1:
            kind = data.draw(st.sampled_from(sorted(policy._queues, key=str)))
            victims = [jobs[j] for k, j in inflight if k is kind]
            inflight = [(k, j) for k, j in inflight if k is not kind]
            assert policy.device_lost(kind, victims, now) == []
        elif step == "complete" and inflight:
            kind, job_id = inflight.pop(data.draw(st.integers(0, len(inflight) - 1)))
            policy.notify_completion(jobs[job_id], kind, now)
        queued = [e for queue in policy._queues.values() for e in queue]
        assert sorted(policy._arrived) == sorted(e.job.job_id for e in queued)
        for queue in policy._queues.values():
            kept = list(queue)
            assert kept == sorted(kept, key=lambda e: _ewt_key(policy, e))


def test_first_fit_after_out_of_order_launches():
    """A launch behind the queue head, then the head itself: the next
    first fit is the entry after both, not the one launched first."""
    kind = KINDS[0]
    entries = [
        PlannedJob(
            job=job_from_seed(i, 0),
            kind=kind,
            arrays=arrays,
            estimate=ScaleFreeEstimate(
                unit_arrays=1, t_load=0.0, t_replica_unit=0.0, t_compute_unit=t
            ),
        )
        for i, (arrays, t) in enumerate(((8, 1e-3), (2, 2e-5), (2, 1e-5)))
    ]
    policy = AdaptivePolicy(
        PlanTable(SYSTEM.subset([kind]), no_options), {kind: entries}, backfill=False
    )

    def launch(slots, run):
        view = ResourceView(
            now=0.0,
            free_slots={kind: slots},
            free_arrays={kind: run},
            largest_free_run={kind: run},
        )
        return [d.job.job_id for d in policy.next_dispatches(view)]

    assert launch(1, 4) == ["h1"]
    assert launch(1, 8) == ["h0"]
    assert launch(1, 4) == ["h2"]
    assert policy.pending() == 0


def test_derated_backfill_matches_queue_scan():
    """A backfill on a derated memory: the launch and its predicted
    time are the queue-order scan's."""
    kind = KINDS[0]
    entries = [
        PlannedJob(
            job=job_from_seed(i, 0),
            kind=kind,
            arrays=arrays,
            estimate=ScaleFreeEstimate(
                unit_arrays=1, t_load=0.0, t_replica_unit=0.0, t_compute_unit=t
            ),
        )
        for i, (arrays, t) in enumerate(((8, 1e-3), (4, 1e-5)))
    ]
    policy = AdaptivePolicy(
        PlanTable(SYSTEM.subset([kind]), no_options), {kind: entries}
    )
    policy.device_derated(kind, 0.5, 0.0)
    view = ResourceView(
        now=0.0,
        free_slots={kind: 2},
        free_arrays={kind: 10},
        largest_free_run={kind: 10},
    )
    expected = reference_dispatches(
        {kind: list(entries)}, {kind: {}}, {kind: 0.5}, view, backfill=True
    )
    got = [
        (d.job.job_id, d.kind, d.arrays, d.predicted_time)
        for d in policy.next_dispatches(view)
    ]
    assert [(job, arrays) for job, _, arrays, _ in got] == [("h0", 8), ("h1", 2)]
    assert got == expected


def reference_plan_launches(schedule, view):
    """Plan execution as a scan of the whole time-ordered schedule: the
    specification ``GlobalPolicy.next_dispatches`` must reproduce.
    Removes the launched entries from ``schedule``."""
    launched, taken, blocked = [], set(), set()
    free_slots = dict(view.free_slots)
    free_run = dict(view.largest_free_run)
    for index, scheduled in enumerate(schedule):
        if scheduled.planned_start > view.now:
            break
        entry = scheduled.entry
        kind = entry.kind
        if kind in blocked:
            continue
        if free_slots.get(kind, 0) <= 0 or free_run.get(kind, 0) < entry.arrays:
            blocked.add(kind)
            continue
        taken.add(index)
        launched.append((entry.job.job_id, kind, entry.arrays, entry.est_time))
        free_slots[kind] -= 1
        free_run[kind] -= entry.arrays
    schedule[:] = [s for i, s in enumerate(schedule) if i not in taken]
    return launched


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n_jobs=st.integers(min_value=0, max_value=16))
def test_plan_lanes_match_schedule_scan(data, n_jobs):
    """Per-memory lanes launch exactly what a scan of the whole plan
    launches, in plan order, with ties in ``planned_start``."""
    schedule = []
    for i in range(n_jobs):
        job = job_from_seed(i, 0)
        entry = data.draw(planned_options(job))[data.draw(st.sampled_from(KINDS))]
        start = data.draw(st.sampled_from([0.0, 1e-6, 2e-6, 5e-6]))
        schedule.append(ScheduledEntry(planned_start=start, entry=entry))
    schedule.sort(key=lambda s: s.planned_start)
    policy = GlobalPolicy(PlanTable(SYSTEM, no_options), schedule)
    now = 0.0
    for _ in range(data.draw(st.integers(min_value=1, max_value=8))):
        expected_next = schedule[0].planned_start if schedule else None
        assert policy.next_event_time(now) == expected_next
        now += data.draw(st.sampled_from([0.0, 1e-6, 3e-6]))
        view = ResourceView(
            now=now,
            free_slots={k: data.draw(st.integers(0, 3)) for k in KINDS},
            free_arrays={k: SYSTEM.arrays(k) for k in KINDS},
            largest_free_run={
                k: data.draw(st.integers(0, SYSTEM.arrays(k))) for k in KINDS
            },
        )
        expected = reference_plan_launches(schedule, view)
        got = [
            (d.job.job_id, d.kind, d.arrays, d.predicted_time)
            for d in policy.next_dispatches(view)
        ]
        assert got == expected
        assert policy._scheduled() == schedule
        assert policy.pending() == len(schedule)
        assert policy.queue_depths() == Counter(s.entry.kind.value for s in schedule)


def reference_intra_queue_adjust(queues, system, epsilon_fraction=0.05, max_rounds=64):
    """Algorithm 2 as a full re-sort per round: the specification the
    kept-sorted ``intra_queue_adjust`` must reproduce exactly, down to
    leaving the last trade unsorted when ``max_rounds`` runs out."""
    adjusted = {}
    for kind, entries in queues.items():
        queue = list(entries)
        cap = system.arrays(kind)
        for _ in range(max_rounds):
            if len(queue) < 2:
                break
            queue.sort(key=lambda entry: entry.est_time, reverse=True)
            longest = queue[0]
            mean_t = sum(entry.est_time for entry in queue) / len(queue)
            if longest.est_time - mean_t <= epsilon_fraction * max(mean_t, 1e-30):
                break
            needed = longest.estimate.invert_total_time(mean_t, cap)
            if longest.estimate.total_time(needed) >= longest.est_time:
                break
            swap_cnt = needed - longest.arrays
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


def reference_static_schedule(
    queues, system, dispatch_overhead_s=2e-6, pipe_bandwidth_bps=76.8e9
):
    """List scheduling by rescanning the waiting queues: the
    specification ``build_static_schedule`` must reproduce.  Every
    sweep walks a copy of the queue, and the smallest other waiting
    allocation is recomputed for every placement.  The queues come in
    capped at the device size; running jobs are ordered by ``(end,
    memory position, arrays)``."""
    kinds = list(queues)
    waiting = {
        kind: sorted(entries, key=lambda e: e.est_time, reverse=True)
        for kind, entries in queues.items()
    }
    free_arrays = {kind: system.arrays(kind) for kind in queues}
    free_slots = {kind: system.slots(kind) for kind in queues}
    running = []
    pipe_free_at = 0.0
    now = 0.0
    schedule = []

    def place_all(only=None):
        nonlocal pipe_free_at
        placed_any = True
        while placed_any:
            placed_any = False
            for kind, queue in waiting.items():
                if only is not None and kind is not only:
                    continue
                for entry in list(queue):
                    if free_slots[kind] <= 0:
                        break
                    if entry.arrays > free_arrays[kind]:
                        continue
                    arrays = entry.arrays
                    others = [e.arrays for e in queue if e is not entry]
                    if not others or free_arrays[kind] - arrays < min(others):
                        ceiling = entry.estimate.max_useful_arrays or free_arrays[kind]
                        arrays = entry.estimate.snap_to_replica(
                            min(free_arrays[kind], max(arrays, ceiling))
                        )
                    queue.remove(entry)
                    profile = entry.job.profile(kind)
                    fill_bytes = profile.fill_bytes * profile.n_iter
                    start = now
                    end = start + dispatch_overhead_s + entry.estimate.total_time(arrays)
                    if kind is not MemoryKind.DRAM and fill_bytes > 0:
                        fill_time = fill_bytes / pipe_bandwidth_bps
                        fill_start = max(start + dispatch_overhead_s, pipe_free_at)
                        pipe_free_at = fill_start + fill_time
                        end += max(0.0, fill_start - (start + dispatch_overhead_s))
                    schedule.append(
                        ScheduledEntry(planned_start=start, entry=entry.with_arrays(arrays))
                    )
                    running.append((end, kinds.index(kind), arrays))
                    free_arrays[kind] -= arrays
                    free_slots[kind] -= 1
                    placed_any = True

    place_all()
    while any(waiting.values()):
        assert running, "reference schedule stuck"
        running.sort()
        end, position, arrays = running.pop(0)
        kind = kinds[position]
        now = end
        free_arrays[kind] += arrays
        free_slots[kind] += 1
        place_all(only=kind)
    schedule.sort(key=lambda s: s.planned_start)
    return schedule


#: Curves for the planning-pass models: shared, so queues hold ties in
#: ``est_time`` and in planned end times across memories.  The first
#: is flat (no gain past its unit allocation); it and every curve of
#: ``CURVES`` at its unit allocation take the same time, so a donor
#: shrunk to its unit ties entries queued before it.
PLAN_CURVES = [
    ScaleFreeEstimate(
        unit_arrays=2,
        t_load=1e-6,
        t_replica_unit=0.0,
        t_compute_unit=2e-5,
        beta=0.5,
        max_useful_arrays=2,
    ),
    *CURVES,
    ScaleFreeEstimate(
        unit_arrays=2,
        t_load=1e-6,
        t_replica_unit=0.0,
        t_compute_unit=1e-4,
        beta=1.0,
    ),
    ScaleFreeEstimate(
        unit_arrays=4,
        t_load=2e-6,
        t_replica_unit=1e-7,
        t_compute_unit=4e-4,
        beta=0.8,
        max_useful_arrays=16,
    ),
]

#: Jobs whose fills are none, small or pipe-bound.
PLAN_JOBS = [
    Job(
        job_id=f"p{i}",
        kernel="app",
        profiles={
            kind: JobPerfProfile(
                unit_arrays=1,
                t_load=1e-6,
                t_replica_unit=0.0,
                t_compute_unit=1e-5,
                fill_bytes=(0.0, 0.0, 4e3, 2e5)[i % 4],
            )
            for kind in KINDS
        },
    )
    for i in range(40)
]


@st.composite
def planned_queues(draw, max_jobs: int, max_multiple: int) -> dict:
    """Queues per memory of entries on the shared curves; a multiple
    of 1 is an entry at its unit allocation (never a donor)."""
    drawn = draw(
        st.lists(
            st.tuples(
                st.sampled_from(KINDS),
                st.sampled_from(PLAN_CURVES),
                st.integers(min_value=1, max_value=max_multiple),
            ),
            max_size=max_jobs,
        )
    )
    queues = {kind: [] for kind in KINDS}
    for job, (kind, estimate, multiple) in zip(PLAN_JOBS, drawn):
        queues[kind].append(
            PlannedJob(
                job=job,
                kind=kind,
                arrays=estimate.unit_arrays * multiple,
                estimate=estimate,
            )
        )
    return queues


def drawn_system(draw) -> MLIMPSystem:
    specs = {}
    for kind in KINDS:
        spec = small_spec(kind, draw(st.sampled_from([4, 8, 12, 24, 48])))
        slots = draw(st.integers(min_value=1, max_value=4))
        specs[kind] = replace(spec, max_outstanding_jobs=slots)
    return MLIMPSystem(specs=specs)


def entry_rows(queue, originals):
    """Each entry as (original object or None, job, arrays)."""
    return [
        (entry if entry in originals else None, entry.job.job_id, entry.arrays)
        for entry in queue
    ]


@settings(max_examples=1000, deadline=None)
@given(
    data=st.data(),
    max_rounds=st.sampled_from([1, 2, 3, 64]),
)
def test_intra_queue_adjust_matches_full_resort(data, max_rounds):
    """Algorithm 2 on a kept-sorted queue moves exactly the entries the
    per-round full re-sort moves: same trades, same order among tied
    times, and the last trade left unsorted when the rounds run out."""
    queues = data.draw(planned_queues(max_jobs=24, max_multiple=6))
    system = drawn_system(data.draw)
    originals = {entry for queue in queues.values() for entry in queue}
    expected = reference_intra_queue_adjust(queues, system, max_rounds=max_rounds)
    # Algorithm 2's rounds on each queue, as ``intra_queue_adjust`` runs
    # them, but with the round budget of this case.
    got = {
        kind: _balance_queue(list(queue), system.arrays(kind), max_rounds)
        if len(queue) >= 2
        else list(queue)
        for kind, queue in queues.items()
    }
    if max_rounds == adjustments.MAX_ROUNDS:
        full = intra_queue_adjust(queues, system)
        assert {k: entry_rows(q, originals) for k, q in full.items()} == {
            k: entry_rows(q, originals) for k, q in got.items()
        }
    assert list(got) == list(expected)
    for kind in expected:
        assert entry_rows(got[kind], originals) == entry_rows(expected[kind], originals)


def test_intra_queue_donor_keeps_its_place_among_ties():
    """A donor shrunk to a time it shares with an entry queued before
    it stays behind that entry, as the full re-sort keeps it."""
    kind = KINDS[1]
    flat, big = PLAN_CURVES[0], PLAN_CURVES[-1]
    queue = [
        PlannedJob(job=job, kind=kind, arrays=arrays, estimate=estimate)
        for job, (estimate, arrays) in zip(
            PLAN_JOBS, ((CURVES[0], 5), (flat, 10), (big, 8))
        )
    ]
    originals = set(queue)
    expected = reference_intra_queue_adjust({kind: queue}, SYSTEM)[kind]
    got = intra_queue_adjust({kind: queue}, SYSTEM)[kind]
    # The shrunk donor ties the flat-curve entry.
    assert expected[1].est_time == expected[2].est_time
    assert entry_rows(got, originals) == entry_rows(expected, originals)


def schedule_rows(schedule):
    return [
        (s.planned_start, s.entry.job.job_id, s.entry.kind, s.entry.arrays)
        for s in schedule
    ]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_static_schedule_matches_queue_rescan(data):
    """The indexed list schedule places exactly what rescanning the
    waiting queues places, at the same planned starts, with the same
    grown allocations and the same order of tied completions, after
    capping every allocation at its device size."""
    queues = data.draw(planned_queues(max_jobs=30, max_multiple=12))
    system = drawn_system(data.draw)
    capped = {
        kind: [e.with_arrays(min(e.arrays, system.arrays(kind))) for e in entries]
        for kind, entries in queues.items()
    }
    assert schedule_rows(build_static_schedule(queues, system)) == schedule_rows(
        reference_static_schedule(capped, system)
    )


def test_static_schedule_orders_tied_ends_by_memory():
    """Jobs on both memories end at the same planned instant with
    different allocations: the first memory's completion is handled
    first, whatever the allocations."""
    flat = PLAN_CURVES[0]
    no_fill = [job for job in PLAN_JOBS if job.profile(KINDS[0]).fill_bytes == 0]
    queues = {
        kind: [
            PlannedJob(job=job, kind=kind, arrays=arrays, estimate=flat)
            for job in jobs
        ]
        for kind, arrays, jobs in ((KINDS[0], 4, no_fill[:4]), (KINDS[1], 2, no_fill[4:8]))
    }
    got = schedule_rows(build_static_schedule(queues, SYSTEM))
    assert got == schedule_rows(reference_static_schedule(queues, SYSTEM))
    later = [row for row in got if row[0] > 0.0]
    assert [row[2] for row in later] == [KINDS[0], KINDS[1]]


def reference_inter_queue_adjust(
    queues, plans, system, epsilon_fraction=0.05, max_rounds=None, pipe_bandwidth_bps=76.8e9
):
    """Algorithm 1 rebuilt from scratch on every call: membership, one
    ranking per target and the queue sums, then rounds that walk each
    target's ranking past the jobs queued elsewhere.  The specification
    the kept ``QueueBalance`` must reproduce; returns the lists as its
    moves leave them (migrants appended)."""
    queues = {kind: list(entries) for kind, entries in queues.items()}
    if max_rounds is None:
        max_rounds = max(64, sum(len(q) for q in queues.values()))
    slot_caps = {kind: system.slots(kind) for kind in queues}
    array_caps = {kind: system.arrays(kind) for kind in queues}

    def entry_bytes(entry):
        profile = entry.job.profile(entry.kind)
        return profile.fill_bytes * profile.n_iter

    slot_s, arr_s, pipe_bytes = {}, {}, 0.0
    for kind, entries in queues.items():
        slot_s[kind] = sum(e.est_time for e in entries)
        arr_s[kind] = sum(e.est_time * e.arrays for e in entries)
        if kind is not MemoryKind.DRAM:
            pipe_bytes += sum(entry_bytes(e) for e in entries)
    member, entry_of = {}, {}
    for kind, entries in queues.items():
        for entry in entries:
            member[entry.job.job_id] = kind
            entry_of[entry.job.job_id] = entry
    by_target = {}
    for kind in queues:
        ranked = []
        for job_id in member:
            option = plans.get(job_id, {}).get(kind)
            if option is not None:
                ranked.append((option.est_time, job_id))
        ranked.sort()
        by_target[kind] = [job_id for _, job_id in ranked]

    def drain_of(kind, slot, arr):
        return max(slot / slot_caps[kind], arr / array_caps[kind])

    for _ in range(max_rounds):
        current = {kind: drain_of(kind, slot_s[kind], arr_s[kind]) for kind in queues}
        max_kind = max(current, key=current.get)
        spread = current[max_kind] - min(current.values())
        overall = sum(current.values()) / max(1, len(current))
        if spread <= epsilon_fraction * max(overall, 1e-30):
            break
        current_max = max(current[max_kind], pipe_bytes / pipe_bandwidth_bps)
        best_move = None
        for target, target_drain in current.items():
            if target is max_kind or target_drain >= current[max_kind]:
                continue
            moved = None
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
            if new_max < current_max and (best_move is None or new_max < best_move[0]):
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


def reference_requeue(queues, table, jobs):
    """The adaptive policy's re-placement rebuilt on every call: queue
    each job on its table ``best`` memory, run the rebuilt Algorithm 1
    over every queue and sort each queue longest first.  Returns the new
    queues and the jobs with no live option (dropped from the table)."""
    queues = {kind: list(queue) for kind, queue in queues.items()}
    unplaced = []
    for job in jobs:
        best = table.best(job.job_id)
        if best is None:
            unplaced.append(job)
        else:
            queues[best.kind].append(best)
    table.drop(unplaced)
    if queues:
        queues = reference_inter_queue_adjust(queues, table.plans, table.system)
    return {kind: sorted(entries, key=longest_first) for kind, entries in queues.items()}, unplaced


class ReferenceAdaptive:
    """The adaptive policy with every queue rebuilt per call (the
    specification of the kept balance state): queues are lists in
    longest-first order, dispatch is the queue-order scan."""

    def __init__(self, table, queues, backfill):
        self.table = table
        self.queues = {
            kind: sorted(queues.get(kind, ()), key=longest_first) for kind in table.live
        }
        self.inflight = {kind: {} for kind in self.queues}
        self.backfill = backfill

    def admit(self, jobs):
        placed = [job for job in jobs if self.table.admit(job)]
        if placed:
            self.queues, _ = reference_requeue(self.queues, self.table, placed)
        return [job for job in jobs if job not in placed]

    def next_dispatches(self, view):
        derate = {kind: self.table.factor(kind) for kind in self.queues}
        return reference_dispatches(self.queues, self.inflight, derate, view, self.backfill)

    def notify_completion(self, job, kind):
        self.inflight.get(kind, {}).pop(job.job_id, None)
        self.table.drop([job])

    def notify_failed(self, job):
        for inflight in self.inflight.values():
            inflight.pop(job.job_id, None)
        self.table.drop([job])

    def device_derated(self, kind, factor):
        self.table.derate(kind, factor)
        queues = {k: [] for k in self.queues}
        for queue in self.queues.values():
            for entry in queue:
                best = self.table.best(entry.job.job_id) or entry
                queues[best.kind].append(best)
        self.queues = {k: sorted(entries, key=longest_first) for k, entries in queues.items()}

    def device_lost(self, kind, jobs):
        self.table.lose(kind)
        orphans = self.queues.pop(kind)
        self.inflight.pop(kind, None)
        self.queues, unplaced = reference_requeue(
            self.queues, self.table, [entry.job for entry in orphans] + jobs
        )
        return unplaced


def balance_job(i: int, kinds) -> Job:
    """A job whose fills are none, small, pipe-scale or pipe-bound."""
    return Job(
        job_id=f"b{(7 * i) % 40:02d}",  # ids out of arrival order
        kernel="app",
        profiles={
            kind: JobPerfProfile(
                unit_arrays=1,
                t_load=1e-6,
                t_replica_unit=0.0,
                t_compute_unit=1e-5,
                fill_bytes=(0.0, 4e3, 2e5, 2e6)[i % 4],
            )
            for kind in kinds
        },
    )


@st.composite
def balance_options(draw, job: Job, system: MLIMPSystem) -> dict:
    """A plan per memory from the shared curves, so queued times and
    times on a target tie across jobs."""
    options = {}
    for kind in system.kinds:
        estimate = draw(st.sampled_from(PLAN_CURVES))
        multiple = draw(st.integers(min_value=1, max_value=4))
        arrays = min(estimate.unit_arrays * multiple, system.arrays(kind))
        options[kind] = PlannedJob(job=job, kind=kind, arrays=arrays, estimate=estimate)
    return options


class AdaptiveBalanceMachine(RuleBasedStateMachine):
    """The adaptive policy's kept balance state against the policy
    rebuilt per call, over admits, launches, completions, failures,
    derates and device losses on the GNN and full systems.  After every
    step each queue holds the same entries (identity, order, arrays),
    the in-flight horizons agree, and the kept rankings equal a fresh
    build."""

    @initialize(
        data=st.data(),
        system=st.sampled_from([gnn_system, full_system]),
        backfill=st.booleans(),
        n_initial=st.integers(min_value=0, max_value=14),
    )
    def start(self, data, system, backfill, n_initial):
        system = system()
        jobs = [balance_job(i, system.kinds) for i in range(40)]
        options = {job.job_id: data.draw(balance_options(job, system)) for job in jobs}

        def planner(job):
            return dict(options[job.job_id])

        sides = []
        for _ in range(2):
            table = PlanTable(system, planner)
            queues = {kind: [] for kind in system.kinds}
            for job in jobs[:n_initial]:
                table.admit(job)
                best = table.best(job.job_id)
                queues[best.kind].append(best)
            sides.append((table, queues))
        (table, queues), (ref_table, ref_queues) = sides
        self.policy = AdaptivePolicy(
            table, inter_queue_adjust(queues, table.plans, system), backfill=backfill
        )
        self.reference = ReferenceAdaptive(
            ref_table,
            reference_inter_queue_adjust(ref_queues, ref_table.plans, system),
            backfill,
        )
        self.system = system
        self.jobs = {job.job_id: job for job in jobs}
        self.waiting = [job.job_id for job in jobs[n_initial:]]
        self.running: list[tuple[MemoryKind, str]] = []
        self.now = 0.0

    @rule(data=st.data())
    def admit(self, data):
        if not self.waiting:
            return
        count = data.draw(st.integers(1, min(3, len(self.waiting))))
        batch = [self.jobs[j] for j in self.waiting[:count]]
        del self.waiting[:count]
        assert self.policy.admit(batch, self.now) == self.reference.admit(batch)

    @rule(data=st.data())
    def dispatch(self, data):
        kinds = self.system.kinds
        self.now += data.draw(st.sampled_from([0.0, 2e-6, 1e-5]))
        view = ResourceView(
            now=self.now,
            free_slots={k: data.draw(st.integers(0, 3)) for k in kinds},
            free_arrays={k: self.system.arrays(k) for k in kinds},
            largest_free_run={
                k: data.draw(st.integers(0, self.system.arrays(k))) for k in kinds
            },
        )
        got = [
            (d.job.job_id, d.kind, d.arrays, d.predicted_time)
            for d in self.policy.next_dispatches(view)
        ]
        assert got == self.reference.next_dispatches(view)
        self.running += [(kind, job_id) for job_id, kind, _, _ in got]

    @rule(data=st.data(), failed=st.booleans())
    def finish(self, data, failed):
        if not self.running:
            return
        kind, job_id = self.running.pop(data.draw(st.integers(0, len(self.running) - 1)))
        job = self.jobs[job_id]
        if failed:
            self.policy.notify_failed(job, self.now)
            self.reference.notify_failed(job)
        else:
            self.policy.notify_completion(job, kind, self.now)
            self.reference.notify_completion(job, kind)

    @rule(data=st.data(), factor=st.sampled_from([0.5, 0.8]))
    def derate(self, data, factor):
        kind = data.draw(st.sampled_from(self.system.kinds))
        self.policy.device_derated(kind, factor, self.now)
        self.reference.device_derated(kind, factor)

    @rule(data=st.data())
    def lose(self, data):
        live = list(self.policy._queues)
        if not live:
            return
        kind = data.draw(st.sampled_from(live))
        victims = [self.jobs[j] for k, j in self.running if k is kind]
        self.running = [(k, j) for k, j in self.running if k is not kind]
        assert self.policy.device_lost(kind, victims, self.now) == (
            self.reference.device_lost(kind, victims)
        )

    @invariant()
    def queues_match(self):
        policy = self.policy
        assert list(policy._queues) == list(self.reference.queues)
        for kind, queue in policy._queues.items():
            got, expected = list(queue), self.reference.queues[kind]
            assert [id(e) for e in got] == [id(e) for e in expected]
            assert [e.arrays for e in got] == [e.arrays for e in expected]
        assert policy._inflight == self.reference.inflight
        fresh = QueueBalance(policy._queues, policy.table.plans, policy.table.system)
        assert policy._balance._rank == fresh._rank


TestAdaptiveBalanceMachine = AdaptiveBalanceMachine.TestCase
TestAdaptiveBalanceMachine.settings = settings(
    max_examples=150, stateful_step_count=30, deadline=None
)


def test_algorithm_1_breaks_target_time_ties_on_job_id():
    """Two jobs queued on the loaded memory tie on their time on the
    target and differ only by id: the migration takes the smaller id,
    though it is queued second, as the rebuilt reference does -- on a
    closed batch and through admission."""
    sram, reram = MemoryKind.SRAM, MemoryKind.RERAM
    curve = CURVES[0]
    jobs = [
        Job(
            job_id=job_id,
            kernel="app",
            profiles={kind: JobPerfProfile(1, 1e-6, 0.0, 1e-5) for kind in KINDS},
        )
        for job_id in ("t1", "t0")
    ]
    options = {
        job.job_id: {
            kind: PlannedJob(job=job, kind=kind, arrays=2, estimate=curve)
            for kind in KINDS
        }
        for job in jobs
    }
    plans = {job_id: dict(row) for job_id, row in options.items()}
    queues = {sram: [options[job.job_id][sram] for job in jobs], reram: []}
    expected = reference_inter_queue_adjust(queues, plans, SYSTEM)
    assert [e.job.job_id for e in expected[reram]] == ["t0"]
    got = inter_queue_adjust(queues, plans, SYSTEM)
    assert {k: [id(e) for e in q] for k, q in got.items()} == {
        k: [id(e) for e in q] for k, q in expected.items()
    }
    # The same two jobs admitted together onto empty queues: both are
    # best on ReRAM (the memory-name tie-break), and t0 moves to SRAM.
    policy = AdaptivePolicy(
        PlanTable(SYSTEM, lambda job: dict(options[job.job_id])), {}
    )
    reference = ReferenceAdaptive(
        PlanTable(SYSTEM, lambda job: dict(options[job.job_id])), {}, backfill=True
    )
    assert policy.admit(jobs, 0.0) == reference.admit(jobs) == []
    assert {k: [e.job.job_id for e in q] for k, q in policy._queues.items()} == {
        sram: ["t0"],
        reram: ["t1"],
    }
    for kind, queue in policy._queues.items():
        assert [id(e) for e in queue] == [id(e) for e in reference.queues[kind]]


def neumaier_sum(values, start=0.0):
    """Compensated summation in the manner of Python 3.12's builtin
    ``sum`` over floats: with it, one sum over a sequence and partial
    sums added up round differently on any Python."""
    total, compensation = start, 0.0
    for value in values:
        step = total + value
        if abs(total) >= abs(value):
            compensation += (total - step) + value
        else:
            compensation += (value - step) + total
        total = step
    return total + compensation


def test_balance_sums_kept_column_then_arrivals_once(monkeypatch):
    """Each queue's aggregate is one ``sum`` over its kept column (a
    launched position excluded) followed by that call's arrivals in
    order, and the pipe adds the non-DRAM queues in queue order: under
    a compensated ``sum`` the result is the rebuilt lists' sum, which
    adding the arrivals to a kept total with ``+`` would miss."""
    monkeypatch.setattr(adjustments, "sum", neumaier_sum, raising=False)
    sram, reram = MemoryKind.SRAM, MemoryKind.RERAM

    def planned(job_id, kind, value):
        job = Job(
            job_id=job_id,
            kernel="app",
            profiles={k: JobPerfProfile(1, 1e-6, 0.0, 1e-5, fill_bytes=value) for k in KINDS},
        )
        # Exactly ``value`` seconds at one array.
        estimate = ScaleFreeEstimate(
            unit_arrays=1, t_load=0.0, t_replica_unit=0.0, t_compute_unit=value, beta=1.0
        )
        return PlannedJob(job=job, kind=kind, arrays=1, estimate=estimate)

    kept = {
        sram: [planned("k0", sram, 1e16), planned("k1", sram, 1.0), planned("k2", sram, 3.0)],
        reram: [planned("k3", reram, 1.0)],
    }
    queues = {kind: PlanQueue(longest_first, entries) for kind, entries in kept.items()}
    launched = queues[sram].take(1)  # k2, between k0 and k1
    arrivals = {
        sram: [planned("a0", sram, 1.0), planned("a1", sram, 1.0)],
        reram: [planned("a2", reram, 1e16), planned("a3", reram, 1.0)],
    }
    balance = QueueBalance(queues, {}, SYSTEM)
    slot_s, arr_s, pipe_bytes = balance._totals(arrivals)
    expected_pipe = 0.0
    for kind in (sram, reram):
        rows = [e for e in queues[kind]] + arrivals[kind]
        assert launched not in rows
        assert slot_s[kind] == neumaier_sum(e.est_time for e in rows)
        assert arr_s[kind] == neumaier_sum(e.est_time * e.arrays for e in rows)
        expected_pipe += neumaier_sum(e.job.profile(kind).fill_bytes for e in rows)
    assert pipe_bytes == expected_pipe
    # The aggregates this guards: a kept total plus arrivals differs.
    assert slot_s[sram] != neumaier_sum(e.est_time for e in queues[sram]) + 1.0 + 1.0
