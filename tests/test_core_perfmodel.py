"""Scale-free estimates, knee allocation, beta fitting."""

import numpy as np
import pytest

from repro.core import (
    JobPerfProfile,
    ScaleFreeEstimate,
    allocation_grid,
    estimate_from_profile,
    fit_beta,
    knee_allocation,
    min_time_allocation,
)


def estimate(**overrides) -> ScaleFreeEstimate:
    params = dict(
        unit_arrays=8,
        t_load=1e-6,
        t_replica_unit=5e-8,
        t_compute_unit=1e-4,
        beta=0.92,
    )
    params.update(overrides)
    return ScaleFreeEstimate(**params)


class TestEstimate:
    def test_eq3_power_law(self):
        est = estimate()
        assert est.compute_time(8) == pytest.approx(1e-4)
        assert est.compute_time(16) == pytest.approx(1e-4 * 0.5**0.92)

    def test_eq2_replication_cost(self):
        est = estimate()
        assert est.load_time(8) == pytest.approx(1e-6)
        assert est.load_time(16) == pytest.approx(1e-6 + 5e-8)

    def test_eq1_total(self):
        est = estimate(n_iter=2)
        assert est.total_time(8) == pytest.approx(2 * (1e-6 + 1e-4))

    def test_max_useful_clamps(self):
        est = estimate(max_useful_arrays=16)
        assert est.compute_time(64) == est.compute_time(16)

    def test_below_unit_rejected(self):
        with pytest.raises(ValueError):
            estimate().total_time(7)

    def test_validation(self):
        with pytest.raises(ValueError):
            estimate(beta=0.0)
        with pytest.raises(ValueError):
            estimate(beta=1.5)
        with pytest.raises(ValueError):
            estimate(unit_arrays=0)

    def test_snap_to_replica(self):
        est = estimate()
        assert est.snap_to_replica(8) == 8
        assert est.snap_to_replica(15) == 8
        assert est.snap_to_replica(16) == 16
        assert est.snap_to_replica(7) == 8  # floor at the unit

    def test_snap_respects_max_useful(self):
        est = estimate(max_useful_arrays=24)
        assert est.snap_to_replica(64) == 24

    def test_invert_total_time(self):
        est = estimate()
        target = est.total_time(32)
        found = est.invert_total_time(target, 512)
        assert found <= 32
        assert est.total_time(found) <= target * 1.0001

    def test_invert_unreachable_returns_cap(self):
        est = estimate()
        assert est.invert_total_time(1e-12, 64) == 64

    def test_invert_trivial_target(self):
        est = estimate()
        assert est.invert_total_time(1.0, 64) == 8


class TestEstimateFromProfile:
    def make_profile(self) -> JobPerfProfile:
        return JobPerfProfile(
            unit_arrays=8,
            t_load=1e-6,
            t_replica_unit=5e-8,
            t_compute_unit=1e-4,
            waves_unit=64,
        )

    def test_oracle_reads_true_unit_time(self):
        est = estimate_from_profile(self.make_profile())
        assert est.t_compute_unit == 1e-4
        assert est.max_useful_arrays == 8 * 64

    def test_predicted_time_overrides(self):
        est = estimate_from_profile(self.make_profile(), t_compute_unit=5e-4)
        assert est.t_compute_unit == 5e-4

    def test_estimate_tracks_truth_within_tolerance(self):
        """The smooth Eq. 3 model approximates the discrete truth well
        at replica multiples (this is why the paper's fit has high R^2)."""
        profile = self.make_profile()
        est = estimate_from_profile(profile)
        for replicas in (1, 2, 4, 8, 16):
            arrays = replicas * profile.unit_arrays
            truth = profile.compute_time(arrays)
            model = est.compute_time(arrays)
            assert model == pytest.approx(truth, rel=0.25)


class TestKnee:
    def test_grid_contains_only_replica_multiples(self):
        est = estimate()
        grid = allocation_grid(est, 100)
        assert all(g % est.unit_arrays == 0 for g in grid)
        assert grid[0] == est.unit_arrays

    def test_grid_single_point(self):
        est = estimate()
        assert list(allocation_grid(est, 8)) == [8]
        assert list(allocation_grid(est, 15)) == [8]

    def test_grid_validates_cap(self):
        with pytest.raises(ValueError):
            allocation_grid(estimate(), 4)

    def test_knee_below_min_time(self):
        """III-C3: the knee avoids the over-provisioning of the strict
        minimiser."""
        est = estimate(t_replica_unit=1e-9)  # nearly-free replication
        knee = knee_allocation(est, 4096)
        best = min_time_allocation(est, 4096)
        assert knee <= best

    def test_knee_never_worse_than_unit(self):
        est = estimate(t_replica_unit=1e-3)  # replication dominates
        knee = knee_allocation(est, 4096)
        assert est.total_time(knee) <= est.total_time(est.unit_arrays) * 1.0001

    def test_knee_is_replica_multiple(self):
        est = estimate()
        assert knee_allocation(est, 1000) % est.unit_arrays == 0

    def test_flat_curve_stays_at_unit(self):
        est = estimate(t_compute_unit=0.0)
        assert knee_allocation(est, 1000) == est.unit_arrays


class TestFitBeta:
    def test_recovers_exact_power_law(self):
        m = np.asarray([1, 2, 4, 8, 16], dtype=float)
        t = 3.0 * m**-0.9
        beta, r2 = fit_beta(m, t)
        assert beta == pytest.approx(0.9, abs=1e-6)
        assert r2 == pytest.approx(1.0)

    def test_fit_on_discrete_truth_is_tight(self):
        """The paper reports a median R^2 of 0.998 fitting the scale
        free model to measured SpMM scaling; our discrete ground truth
        fits comparably."""
        profile = JobPerfProfile(
            unit_arrays=8,
            t_load=0.0,
            t_replica_unit=0.0,
            t_compute_unit=1e-4,
            waves_unit=160,
        )
        replicas = np.asarray([1, 2, 3, 4, 6, 8, 12, 16])
        arrays = replicas * 8
        times = [profile.compute_time(int(a)) for a in arrays]
        beta, r2 = fit_beta(arrays, times)
        assert r2 > 0.99
        assert 0.8 < beta <= 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_beta([1], [1.0])
        with pytest.raises(ValueError):
            fit_beta([1, 2], [1.0, -1.0])
        with pytest.raises(ValueError):
            fit_beta([1, 2], [1.0])

    def test_duplicate_allocations_rejected(self):
        """All points at one allocation: the log-log line is
        underdetermined even though there are 'enough' samples."""
        with pytest.raises(ValueError, match="distinct allocations"):
            fit_beta([4, 4, 4], [1.0, 1.1, 0.9])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            fit_beta([1, 2], [1.0, float("nan")])
        with pytest.raises(ValueError, match="finite"):
            fit_beta([1, float("inf")], [1.0, 2.0])

    def test_shape_mismatch_message_names_shapes(self):
        with pytest.raises(ValueError, match=r"\(3,\) and \(2,\)"):
            fit_beta([1, 2, 3], [1.0, 2.0])

    def test_two_distinct_points_suffice(self):
        beta, r2 = fit_beta([2, 4], [1.0, 2.0 ** -0.7])
        assert beta == pytest.approx(0.7, abs=1e-9)
        assert r2 == pytest.approx(1.0)


# ----------------------------------------------------------------------
# The bit-exactness sizing relies on: the knee pass hands each entry
# the time it computed, so that time must be the scalar ``total_time``.
# ----------------------------------------------------------------------
def _sized_estimates(system, jobs):
    """Oracle and noisy estimates of ``jobs`` on ``system``, after
    sizing them through the knee cohort (which fills the grid cache)."""
    from repro.core.predictor import NoisyPredictor, OraclePredictor
    from repro.core.scheduler.adjustments import job_fits, plan_jobs

    estimates = []
    for predictor in (OraclePredictor(), NoisyPredictor(OraclePredictor(), 0.4, seed=3)):
        for cap_fraction in (0.25, 0.5, 1.0):
            plan_jobs(jobs, predictor, system, cap_fraction)
        estimates += [
            predictor.estimate(job, kind)
            for job in jobs
            for kind in system.kinds
            if job_fits(job, kind, system)
        ]
    return estimates


def _bench_systems():
    from repro.apps.combos import combo_jobs
    from repro.harness.config import full_system, gnn_system
    from repro.harness.gnn import build_workload

    gnn = gnn_system()
    full = full_system()
    return [
        (gnn, build_workload("collab", num_batches=1, batch_size=32, seed=0).jobs_per_batch[0]),
        (full, combo_jobs("A", full.specs)),
    ]


@pytest.mark.parametrize("which", [0, 1], ids=["gnn", "full"])
def test_profile_times_match_total_time_on_every_cached_grid(which):
    """``_profile_times`` over the exact rows of every cached grid's
    shape is ``ProfileEstimate.total_time`` at every point, bit for bit,
    for oracle and noisy estimates: the knee pass reads its guard and
    the entry's ``est_time`` from those times."""
    from repro.core import perfmodel

    perfmodel.clear_caches()
    system, jobs = _bench_systems()[which]
    estimates = _sized_estimates(system, jobs)
    grids = [
        entry
        for entry in perfmodel._GRID_CACHE._data.values()
        if isinstance(entry, perfmodel._GridEntry)
    ]
    points = 0
    for estimate in estimates:
        assert isinstance(estimate, perfmodel.ProfileEstimate)
        for entry in grids:
            if int(entry.grid[0]) != estimate.unit_arrays:
                continue
            shape = perfmodel._profile_shape(estimate.profile, entry)
            exact = shape[perfmodel._EXACT_ROWS]
            flat = perfmodel._profile_times(estimate.curve_params(), exact).tolist()
            assert flat == [estimate.total_time(int(a)) for a in entry.grid]
            points += len(flat)
    assert points > 10_000


def _scalar_guard_knee(estimate, cap):
    """The knee search on ``np.gradient`` with its guard on scalar
    ``total_time`` calls."""
    grid = allocation_grid(estimate, cap)
    unit = int(grid[0])
    if len(grid) == 1:
        return unit
    times = estimate.total_time_batch(grid)
    span = times.max() - times.min()
    if span <= 0.0:
        return unit
    x = (grid - grid[0]) / max(1, (grid[-1] - grid[0]))
    theta = np.arctan(np.gradient((times - times.min()) / span, x))
    knee = int(grid[int(np.argmax(np.abs(np.gradient(theta, x))))])
    if knee != unit and estimate.total_time(knee) > estimate.total_time(unit):
        return unit
    return knee


def test_knee_points_match_the_scalar_guard_and_time():
    """Batch times can differ from the scalar ones in the last bit (a
    SIMD power), so the knee guard must decide as scalar ``total_time``
    calls would: over seeded scale-free and profile curves, the
    cohort's knees equal the scalar-guard reference, and each
    handed-back time is the scalar time at the knee."""
    from repro.core import perfmodel
    from repro.core.perfmodel import knee_points

    from tests.test_perf_cache import _random_curve

    perfmodel.clear_caches()
    rng = np.random.default_rng(23)
    estimates, caps = [], []
    for _ in range(2000):
        estimate = _random_curve(rng)
        estimates.append(estimate)
        caps.append(estimate.unit_arrays * int(rng.integers(1, 300)))
    points = knee_points(estimates, caps)
    for estimate, cap, (knee, time) in zip(estimates, caps, points):
        assert knee == _scalar_guard_knee(estimate, cap)
        if len(allocation_grid(estimate, cap)) > 1:
            assert time == estimate.total_time(knee)
        else:
            assert time is None
