"""Property-based scheduler invariants over random job batches."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from repro.core.scheduler import AdaptivePolicy, GlobalPolicy
from repro.core.scheduler.globalsched import ScheduledEntry, build_static_schedule
from repro.core.scheduler.adjustments import PlannedJob, intra_queue_adjust
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
    queues = scheduler.build_queues(jobs, SYSTEM)
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
    queues = scheduler.build_queues(jobs, SYSTEM)
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
    policy = AdaptivePolicy(
        queues,
        backfill=backfill,
        plans={job_id: dict(options[job_id]) for job_id in initial},
        system=SYSTEM,
        planner=lambda job: dict(options[job.job_id]),
    )
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
                expected_queues, expected_inflight, dict(policy._derate), view, backfill
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
    policy = AdaptivePolicy({kind: entries}, backfill=False)

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
    policy = AdaptivePolicy({kind: entries})
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
    policy = GlobalPolicy(schedule)
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
