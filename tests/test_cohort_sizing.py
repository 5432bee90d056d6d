"""Cohort sizing: many knee searches in one pass, arrivals sized ahead.

* **Segmented knee pass** -- :func:`knee_allocations` over a seeded
  cohort of mixed curves (scale-free and profile curves, scaled
  compute, one-point grids, flat curves, repeats within the cohort)
  equals the one-curve ``np.gradient`` reference item by item, from
  cold caches and from partly warm ones.
* **Admission lookahead** -- in a seeded serve, the options the
  admission planner hands ``admit`` for every admitted job equal
  ``plan_options(job, system)`` (kind, arrays and estimate), and its
  table never holds more than ``2 * LOOKAHEAD_JOBS`` plans.  Tenant
  queues that release out of arrival order do not make it size a job
  twice unless the job was evicted in between; eviction drops the
  lowest positions first, and an evicted job is sized alone to its
  ``plan_options``.  A learning predictor is never asked ahead.
* **Sizing parameters** -- a bad ``sizing`` or
  ``allocation_cap_fraction`` fails when the scheduler is built.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core import perfmodel
from repro.core.job import JobPerfProfile
from repro.core.perfmodel import (
    ProfileEstimate,
    ScaleFreeEstimate,
    allocation_grid,
    knee_allocations,
)
from repro.core.predictor import NoisyPredictor, OnlinePredictor, OraclePredictor
from repro.core.scheduler import AdaptiveScheduler, EWTScheduler, GlobalScheduler
from repro.core.scheduler import adjustments
from repro.core.scheduler.adjustments import LOOKAHEAD_JOBS, AdmissionPlanner
from repro.harness.config import gnn_system
from repro.serving import PoissonArrivals, ServingRuntime, Tenant
from repro.serving.workload import OpenWorkload

from tests.test_perf_cache import _random_curve, _reference_knee


@pytest.fixture(autouse=True)
def _fresh_perf_layer():
    perfmodel.clear_caches()
    yield
    perfmodel.clear_caches()


def _flat_curve(rng):
    """A curve with no knee: nothing but a constant load time."""
    unit = int(rng.integers(1, 9))
    if rng.random() < 0.5:
        return ScaleFreeEstimate(
            unit_arrays=unit,
            t_load=float(rng.uniform(0.0, 1e-3)),
            t_replica_unit=0.0,
            t_compute_unit=0.0,
        )
    profile = JobPerfProfile(
        unit_arrays=unit,
        t_load=float(rng.uniform(0.0, 1e-3)),
        t_replica_unit=0.0,
        t_compute_unit=0.0,
        waves_unit=int(rng.integers(1, 50)),
    )
    return ProfileEstimate(profile, compute_scale=float(rng.uniform(0.5, 2.0)))


def _mixed_cohort(seed: int, size: int = 2400) -> tuple[list, list]:
    """Seeded (estimate, cap) pairs covering every branch of the pass."""
    rng = np.random.default_rng(seed)
    estimates: list = []
    caps: list = []
    for _ in range(size):
        roll = rng.random()
        estimate = _flat_curve(rng) if roll < 0.05 else _random_curve(rng)
        if roll < 0.1:
            cap = estimate.unit_arrays  # one-point grid
        else:
            cap = estimate.unit_arrays * int(rng.integers(1, 300))
        estimates.append(estimate)
        caps.append(cap)
    # Repeats: the same search again, and value-equal copies.
    for i in rng.choice(size, size=size // 12, replace=False).tolist():
        estimate = estimates[i]
        if isinstance(estimate, ProfileEstimate):
            copy = ProfileEstimate(estimate.profile, estimate.compute_scale)
        else:
            copy = estimate
        estimates.append(copy)
        caps.append(caps[i])
    order = rng.permutation(len(estimates)).tolist()
    return [estimates[i] for i in order], [caps[i] for i in order]


class TestKneePass:
    @pytest.mark.parametrize("cold", [True, False])
    def test_cohort_equals_one_curve_reference(self, cold):
        estimates, caps = _mixed_cohort(seed=14)
        expected = [_reference_knee(e, c) for e, c in zip(estimates, caps)]
        perfmodel.clear_caches()
        if not cold:
            # Partly warm: every third search is already in the cache.
            knee_allocations(estimates[::3], caps[::3])
        assert knee_allocations(estimates, caps) == expected
        # Again, all from the cache.
        assert knee_allocations(estimates, caps) == expected

    def test_cohort_covers_every_branch(self):
        estimates, caps = _mixed_cohort(seed=14)
        grids = [allocation_grid(e, c) for e, c in zip(estimates, caps)]
        knees = [_reference_knee(e, c) for e, c in zip(estimates, caps)]
        assert sum(len(g) == 1 for g in grids) >= 100
        assert sum(e.compute_scale != 1.0 for e in estimates
                   if isinstance(e, ProfileEstimate)) >= 500
        assert sum(k != int(g[0]) for k, g in zip(knees, grids)) >= 500
        keys = [perfmodel._estimate_key(e, c) for e, c in zip(estimates, caps)]
        assert len(set(keys)) < len(keys)

    def test_repeats_count_as_hits(self):
        estimates, caps = _mixed_cohort(seed=3, size=300)
        unique = len({perfmodel._estimate_key(e, c) for e, c in zip(estimates, caps)})
        knee_allocations(estimates, caps)
        stats = perfmodel.cache_stats()["perfmodel.knee"]
        assert stats["misses"] == unique
        assert stats["hits"] == len(estimates) - unique

    def test_empty_cohort(self):
        assert knee_allocations([], []) == []

    def test_mismatched_lengths_rejected(self):
        estimates, caps = _mixed_cohort(seed=3, size=4)
        with pytest.raises(ValueError):
            knee_allocations(estimates, caps[:-1])


def _serve(scheduler, rate: float = 3e5, horizon: float = 0.003):
    runtime = ServingRuntime(gnn_system(), scheduler=scheduler, max_backlog=32)
    return runtime.serve(
        PoissonArrivals(rate=rate, horizon=horizon, seed=11, tenants=("a", "b", "c")),
        tenants=[Tenant("a", weight=2.0), Tenant("b"), Tenant("c", queue_limit=8)],
        slo_s=1e-4,
    )


class _Recorder:
    """Wraps :class:`AdmissionPlanner` calls: what each admitted job got,
    how many options the table held afterwards, and the planner's
    history by ``upcoming`` position -- ``("sized", positions)`` per
    :func:`plan_jobs` call it made, then ``("evicted", positions)`` and
    ``("admitted", [position])`` -- plus ``(evicted, kept)`` table
    positions for every call that evicted."""

    def __init__(self, monkeypatch) -> None:
        self.calls: list[tuple] = []
        self.table_sizes: list[int] = []
        self.events: list[tuple[str, list]] = []
        self.evictions: list[tuple[list[int], list[int]]] = []
        recorder = self
        call = AdmissionPlanner.__call__
        plan_jobs = adjustments.plan_jobs
        active: list[AdmissionPlanner] = []

        def sized(jobs, *args):
            if active:
                where = active[-1]._position
                recorder.events.append(("sized", [where.get(id(job)) for job in jobs]))
            return plan_jobs(jobs, *args)

        def recorded(planner, job):
            before = set(planner._table)
            start = len(recorder.events)
            active.append(planner)
            try:
                options = call(planner, job)
            finally:
                active.pop()
            at = planner._position.get(id(job))
            after = set(planner._table)
            for _, positions in recorder.events[start:]:
                before.update(positions)
            evicted = sorted(before - after - {at})
            if evicted:
                recorder.events.append(("evicted", evicted))
                recorder.evictions.append((evicted, sorted(after)))
            recorder.events.append(("admitted", [at]))
            recorder.calls.append((job, options))
            recorder.table_sizes.append(len(planner._table))
            return options

        monkeypatch.setattr(adjustments, "plan_jobs", sized)
        monkeypatch.setattr(AdmissionPlanner, "__call__", recorded)


SCHEDULERS = [
    lambda p: AdaptiveScheduler(p),
    lambda p: EWTScheduler(p),
    lambda p: GlobalScheduler(p),
]
SCHEDULER_IDS = ["adaptive", "ewt", "global"]


@pytest.mark.parametrize("make", SCHEDULERS, ids=SCHEDULER_IDS)
@pytest.mark.parametrize(
    "predictor",
    [OraclePredictor(), NoisyPredictor(OraclePredictor(), sigma=0.3)],
    ids=["oracle", "noisy"],
)
@pytest.mark.parametrize("rate", [3e5, 1e6], ids=["nominal", "overload"])
def test_lookahead_options_equal_plan_options(monkeypatch, make, predictor, rate):
    """Overloaded, tenant queues shed arrivals before admission and
    release the rest out of arrival order: plans sized for the shed
    ones must not pile up in the table."""
    recorder = _Recorder(monkeypatch)
    served = _serve(make(predictor), rate=rate)
    if rate > 3e5:
        assert served.open_loop.total_shed() > 0
        # Some admitted jobs had been evicted and were sized alone.
        assert recorder.evictions
    assert len(recorder.calls) >= 3 * LOOKAHEAD_JOBS
    assert max(recorder.table_sizes) <= 2 * LOOKAHEAD_JOBS
    # The lookahead ran: admissions were served from the table.
    assert max(recorder.table_sizes) > 0
    system = gnn_system()
    reference = AdaptiveScheduler(predictor)
    for job, options in recorder.calls:
        fresh = reference.plan_options(job, system)
        assert list(options) == list(fresh)
        for kind, entry in options.items():
            assert entry.job is job
            assert entry.kind is fresh[kind].kind
            assert entry.arrays == fresh[kind].arrays
            assert entry.estimate == fresh[kind].estimate
    assert served.report.as_dict()


@pytest.mark.parametrize("make", SCHEDULERS, ids=SCHEDULER_IDS)
def test_upcoming_jobs_enter_one_cohort_unless_evicted(monkeypatch, make):
    """Overloaded, tenant queues release out of arrival order: the
    planner keeps its table, so a job is sized again only after it was
    evicted (and then alone)."""
    recorder = _Recorder(monkeypatch)
    _serve(make(OraclePredictor()), rate=1e6)
    admitted = [p[0] for event, p in recorder.events if event == "admitted"]
    assert any(later < earlier for earlier, later in zip(admitted, admitted[1:]))
    state: dict[int, str] = {}
    resized = 0
    for event, positions in recorder.events:
        if event == "sized":
            for position in positions:
                assert state.get(position) in (None, "evicted"), (position, state)
                resized += state.get(position) == "evicted"
        for position in positions:
            state[position] = event
    assert resized > 0


@pytest.mark.parametrize("make", SCHEDULERS, ids=SCHEDULER_IDS)
def test_eviction_drops_lowest_positions_first(monkeypatch, make):
    """The table is trimmed only past ``2 * LOOKAHEAD_JOBS`` plans, and
    then only below every plan it keeps."""
    recorder = _Recorder(monkeypatch)
    _serve(make(OraclePredictor()), rate=1e6)
    assert recorder.evictions
    for evicted, kept in recorder.evictions:
        assert len(kept) == 2 * LOOKAHEAD_JOBS
        assert max(evicted) < min(kept)


def test_evicted_job_is_sized_alone_to_its_plan_options(monkeypatch):
    system = gnn_system()
    arrivals = PoissonArrivals(rate=1e6, horizon=3e-4, seed=11, tenants=("a",))
    jobs = [arrival.job for arrival in arrivals.generate(OpenWorkload(system).make_job)]
    assert len(jobs) > 3 * LOOKAHEAD_JOBS
    predictor = NoisyPredictor(OraclePredictor(), sigma=0.3)
    planner = AdmissionPlanner(predictor, system, jobs)
    for at in (0, LOOKAHEAD_JOBS, 2 * LOOKAHEAD_JOBS):
        planner(jobs[at])
    # Three cohorts leave 3 * 63 plans; the 61 lowest positions go.
    evicted = range(1, 3 * (LOOKAHEAD_JOBS - 1) - 2 * LOOKAHEAD_JOBS + 1)
    assert min(planner._table) == evicted[-1] + 1
    assert len(planner._table) == 2 * LOOKAHEAD_JOBS
    positions = (evicted[0], evicted[-1], evicted[-1] + 1)
    reference = AdaptiveScheduler(predictor)
    expected = [reference.plan_options(jobs[at], system) for at in positions]
    cohorts = []
    plan_jobs = adjustments.plan_jobs

    def sized(cohort, *args):
        cohorts.append(cohort)
        return plan_jobs(cohort, *args)

    monkeypatch.setattr(adjustments, "plan_jobs", sized)
    for at, fresh in zip(positions, expected):
        options = planner(jobs[at])
        assert options and list(options) == list(fresh)
        for kind, entry in options.items():
            assert entry.job is jobs[at]
            assert (entry.kind, entry.arrays, entry.estimate) == (
                fresh[kind].kind,
                fresh[kind].arrays,
                fresh[kind].estimate,
            )
    # The two evicted jobs were sized alone; the kept one was not resized.
    assert [[job.job_id for job in cohort] for cohort in cohorts] == [
        [jobs[evicted[0]].job_id],
        [jobs[evicted[-1]].job_id],
    ]


def test_learning_predictor_is_never_asked_ahead(monkeypatch):
    """Out of order and with evictions possible, a learning predictor
    is still asked about each job alone, when it is admitted."""
    recorder = _Recorder(monkeypatch)
    _serve(AdaptiveScheduler(OnlinePredictor()), rate=1e6)
    assert recorder.calls
    assert max(recorder.table_sizes) == 0
    assert not recorder.evictions
    sized = [positions for event, positions in recorder.events if event == "sized"]
    assert len(sized) == len(recorder.calls)
    assert all(positions == [None] for positions in sized)


def test_planner_without_upcoming_sizes_on_demand():
    system = gnn_system()
    served = _serve("adaptive", horizon=0.0005)
    jobs = [record.job for record in served.open_loop.arrivals][:5]
    planner = AdmissionPlanner(OraclePredictor(), system)
    reference = AdaptiveScheduler(OraclePredictor())
    for job in jobs:
        options = planner(job)
        assert {k: e.arrays for k, e in options.items()} == {
            k: e.arrays for k, e in reference.plan_options(job, system).items()
        }
    assert planner._table == {}


class TestSizingValidation:
    @pytest.mark.parametrize("cls", [AdaptiveScheduler, EWTScheduler])
    def test_unknown_sizing_rejected_at_construction(self, cls):
        with pytest.raises(ValueError, match="unknown sizing policy 'bogus'"):
            cls(OraclePredictor(), sizing="bogus")

    @pytest.mark.parametrize("cls", [AdaptiveScheduler, EWTScheduler, GlobalScheduler])
    @pytest.mark.parametrize("fraction", [-3.0, 0.0, 1.5, math.nan])
    def test_bad_cap_fraction_rejected_at_construction(self, cls, fraction):
        with pytest.raises(ValueError, match="allocation_cap_fraction"):
            cls(OraclePredictor(), allocation_cap_fraction=fraction)

    @pytest.mark.parametrize("cls", [AdaptiveScheduler, EWTScheduler, GlobalScheduler])
    def test_whole_device_cap_accepted(self, cls):
        cls(OraclePredictor(), allocation_cap_fraction=1.0)

    @pytest.mark.parametrize("sizing", ["knee", "min", "unit"])
    def test_every_sizing_accepted(self, sizing):
        AdaptiveScheduler(OraclePredictor(), sizing=sizing)
        EWTScheduler(OraclePredictor(), sizing=sizing)
