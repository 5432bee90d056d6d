"""Perf layer: memoised allocation searches and vectorised grid math.

The caches and the NumPy batch path must be *pure speedups* -- every
answer here is compared against a reference search written out in this
module (``np.gradient`` knee, scalar ``total_time`` loops, no caches)
across a parameter sweep.
"""

import numpy as np
import pytest

from repro.core import perfmodel
from repro.core.job import JobPerfProfile
from repro.core.perfmodel import (
    ProfileEstimate,
    ScaleFreeEstimate,
    _LRUCache,
    allocation_grid,
    knee_allocation,
    min_time_allocation,
)
from repro.core.scheduler.adjustments import PlannedJob
from repro.memories import MemoryKind


@pytest.fixture(autouse=True)
def _fresh_perf_layer():
    """Every test starts from (and leaves behind) empty caches -- the
    caches are process-global."""
    perfmodel.clear_caches()
    yield
    perfmodel.clear_caches()


def sweep_estimates() -> list:
    """A grid of estimates covering replication cost on/off, capped and
    uncapped useful allocations, and the discrete (profile-backed)
    estimate the oracle predictor uses."""
    estimates = []
    for unit in (1, 4, 9):
        for beta in (0.5, 0.92, 1.0):
            for t_rep in (0.0, 8e-4):
                for max_useful in (None, unit * 12):
                    estimates.append(
                        ScaleFreeEstimate(
                            unit_arrays=unit,
                            t_load=1e-4,
                            t_replica_unit=t_rep,
                            t_compute_unit=5e-3,
                            beta=beta,
                            max_useful_arrays=max_useful,
                        )
                    )
    for waves in (1, 7, 64):
        for delta in (0.0, 0.3):
            estimates.append(
                ProfileEstimate(
                    JobPerfProfile(
                        unit_arrays=4,
                        t_load=1e-4,
                        t_replica_unit=3e-5,
                        t_compute_unit=4e-3,
                        waves_unit=waves,
                        overhead_delta=delta,
                    )
                )
            )
    return estimates


class TestCacheCorrectness:
    def test_memoised_searches_equal_uncached_across_sweep(self):
        """The acceptance property: knee/min-time answers equal the
        uncached reference searches, on a miss and on a hit."""
        for est in sweep_estimates():
            for cap in (est.unit_arrays, 64, 501):
                if cap < est.unit_arrays:
                    continue
                knee_ref = _reference_knee(est, cap)
                min_ref = _reference_min_time(est, cap)
                assert knee_allocation(est, cap) == knee_ref  # miss
                assert knee_allocation(est, cap) == knee_ref  # hit
                assert min_time_allocation(est, cap) == min_ref
                assert min_time_allocation(est, cap) == min_ref

    def test_value_equal_estimates_share_cache_entries(self):
        """Frozen dataclasses hash by value, so two jobs with identical
        parameters hit the same entry."""
        a = ScaleFreeEstimate(
            unit_arrays=8, t_load=1e-6, t_replica_unit=5e-8,
            t_compute_unit=1e-4, beta=0.92,
        )
        b = ScaleFreeEstimate(
            unit_arrays=8, t_load=1e-6, t_replica_unit=5e-8,
            t_compute_unit=1e-4, beta=0.92,
        )
        assert a is not b
        knee_allocation(a, 1000)
        stats_before = perfmodel.cache_stats()["perfmodel.knee"]
        knee_allocation(b, 1000)
        stats_after = perfmodel.cache_stats()["perfmodel.knee"]
        assert stats_after["hits"] == stats_before["hits"] + 1
        assert stats_after["size"] == stats_before["size"]

    def test_cache_stats_and_clear(self):
        est = ScaleFreeEstimate(
            unit_arrays=8, t_load=1e-6, t_replica_unit=5e-8,
            t_compute_unit=1e-4, beta=0.92,
        )
        knee_allocation(est, 1000)
        knee_allocation(est, 1000)
        stats = perfmodel.cache_stats()["perfmodel.knee"]
        assert stats["misses"] >= 1 and stats["hits"] >= 1
        assert 0.0 < stats["hit_rate"] <= 1.0
        perfmodel.clear_caches()
        for entry in perfmodel.cache_stats().values():
            assert entry["size"] == 0
            assert entry["hits"] == 0 and entry["misses"] == 0

    def test_cached_grid_is_shared_and_readonly(self):
        est = ScaleFreeEstimate(
            unit_arrays=8, t_load=1e-6, t_replica_unit=5e-8,
            t_compute_unit=1e-4, beta=0.92,
        )
        grid = allocation_grid(est, 1000)
        again = allocation_grid(est, 1000)
        assert grid is again
        with pytest.raises(ValueError):
            grid[0] = 1


class TestVectorisedParity:
    def test_batch_total_time_matches_scalar(self):
        for est in sweep_estimates():
            grid = allocation_grid(est, 777)
            scalar = np.array([est.total_time(int(m)) for m in grid])
            batch = est.total_time_batch(grid)
            np.testing.assert_allclose(batch, scalar, rtol=1e-12, atol=0.0)

    def test_vectorised_and_scalar_searches_agree(self):
        """The batch-evaluated searches pick what the same searches
        pick over a per-point ``total_time`` loop."""
        for est in sweep_estimates():
            knee_ref = _reference_knee(est, 900, grid_times=_scalar_times)
            min_ref = _reference_min_time(est, 900)
            assert knee_allocation(est, 900) == knee_ref
            assert min_time_allocation(est, 900) == min_ref

    def test_batch_rejects_below_unit_allocation(self):
        est = ScaleFreeEstimate(
            unit_arrays=8, t_load=1e-6, t_replica_unit=5e-8,
            t_compute_unit=1e-4, beta=0.92,
        )
        with pytest.raises(ValueError):
            est.total_time_batch([4])


class TestPlannedJobTime:
    """``PlannedJob.est_time`` is a field set at construction: the
    entry's ``total_time``, evaluated then unless the sizer hands it in."""

    def _planned(self, arrays: int, **kwargs) -> PlannedJob:
        est = ScaleFreeEstimate(
            unit_arrays=8, t_load=1e-6, t_replica_unit=5e-8,
            t_compute_unit=1e-4, beta=0.92,
        )
        # est_time only reads .estimate and .arrays; no Job needed.
        return PlannedJob(
            job=None, kind=MemoryKind.SRAM, arrays=arrays, estimate=est, **kwargs
        )

    def test_est_time_is_total_time_at_construction(self, monkeypatch):
        pj = self._planned(16)
        assert pj.est_time == pj.estimate.total_time(16)
        assert not hasattr(pj, "__dict__")  # slotted: no memo to go stale
        # Reading the field never evaluates the curve again.
        calls = []
        monkeypatch.setattr(
            ScaleFreeEstimate, "total_time", lambda est, arrays: calls.append(arrays)
        )
        assert pj.est_time == pj.est_time
        assert calls == []

    def test_handed_in_time_is_kept(self):
        assert self._planned(16, est_time=0.5).est_time == 0.5

    def test_with_arrays_recomputes_est_time(self):
        pj = self._planned(16, est_time=0.5)
        bigger = pj.with_arrays(32)
        assert bigger.est_time == pj.estimate.total_time(32)
        assert bigger.arrays == 32 and pj.arrays == 16


class TestMinTimeCacheOnFig10Sweep:
    """Regression gate for the dead ``perfmodel.min_time`` cache.

    The Fig. 10 sizing ablation is the one workload that calls
    :func:`min_time_allocation` in anger (``sizing="min"``).  Before
    the key normalisation fix, every lookup missed -- value-equal
    searches landed on distinct keys because non-timing profile fields
    (``fill_bytes``, ``compute_energy_j``, ``vector_width``) entered
    the key -- and the 0% hit rate went unnoticed because the cache is
    slow-but-correct.  Pin a real hit rate on the real sweep.
    """

    def test_fig10_sweep_produces_min_time_hits(self):
        from repro.harness.ablations import ablation_knee

        ablation_knee("collab")
        stats = perfmodel.cache_stats()["perfmodel.min_time"]
        lookups = stats["hits"] + stats["misses"]
        assert lookups > 0, "sweep never reached min_time_allocation"
        assert stats["hits"] > 0, "min_time cache is dead again (0% hit rate)"
        # Well clear of zero, well short of flaky: the collab sweep
        # measured ~54% when the key fix landed.
        assert stats["hit_rate"] > 0.25


class TestCacheShrink:
    def test_shrinking_maxsize_evicts_down_to_the_cap(self):
        """A cache filled past its cap keeps exactly the ``maxsize``
        most recently used entries; a hit refreshes an entry's age."""
        cache = _LRUCache("test", maxsize=3)
        for key in range(10):
            cache.put(key, key)
        assert cache.info()["size"] == 3
        assert cache.get(0) is perfmodel._MISSING
        assert cache.get(7) == 7  # 7 is now the most recent
        cache.put(10, 10)  # evicts 8, the least recently used
        assert cache.get(8) is perfmodel._MISSING
        assert [cache.get(key) for key in (7, 9, 10)] == [7, 9, 10]
        assert cache.info()["size"] == 3


def _scalar_times(estimate, grid) -> np.ndarray:
    return np.array([estimate.total_time(int(m)) for m in grid], dtype=float)


def _batch_times(estimate, grid) -> np.ndarray:
    return np.asarray(estimate.total_time_batch(grid), dtype=float)


def _reference_min_time(estimate, max_arrays: int) -> int:
    """The strict t(x, m) minimiser over a per-point loop."""
    grid = allocation_grid(estimate, max_arrays)
    return int(grid[int(np.argmin(_scalar_times(estimate, grid)))])


def _reference_knee(estimate, max_arrays: int, grid_times=_batch_times) -> int:
    """The knee search written out on ``np.gradient``: the contract
    the precomputed stencil must match bit for bit."""
    grid = allocation_grid(estimate, max_arrays)
    if len(grid) == 1:
        return int(grid[0])
    times = grid_times(estimate, grid)
    x = (grid - grid[0]) / max(1, (grid[-1] - grid[0]))
    t_span = times.max() - times.min()
    if t_span <= 0.0:
        return int(grid[0])
    y = (times - times.min()) / t_span
    theta = np.arctan(np.gradient(y, x))
    knee = int(grid[int(np.argmax(np.abs(np.gradient(theta, x))))])
    if estimate.total_time(knee) > estimate.total_time(int(grid[0])):
        return int(grid[0])
    return knee


def _random_curve(rng):
    unit = int(rng.integers(1, 17))
    if rng.random() < 0.5:
        return ScaleFreeEstimate(
            unit_arrays=unit,
            t_load=float(rng.uniform(0.0, 1e-3)),
            t_replica_unit=float(rng.choice([0.0, rng.uniform(0.0, 1e-3)])),
            t_compute_unit=float(rng.uniform(1e-6, 1e-2)),
            beta=float(rng.uniform(0.05, 1.0)),
            n_iter=int(rng.integers(1, 5)),
            max_useful_arrays=(
                None if rng.random() < 0.5 else unit * int(rng.integers(1, 80))
            ),
        )
    profile = JobPerfProfile(
        unit_arrays=unit,
        t_load=float(rng.uniform(0.0, 1e-3)),
        t_replica_unit=float(rng.uniform(0.0, 1e-4)),
        t_compute_unit=float(rng.uniform(1e-6, 1e-2)),
        waves_unit=int(rng.integers(1, 200)),
        overhead_delta=float(rng.uniform(0.0, 0.5)),
        n_iter=int(rng.integers(1, 5)),
    )
    return ProfileEstimate(profile, compute_scale=float(rng.uniform(0.5, 2.0)))


class TestKneeStencil:
    @pytest.mark.parametrize("cold", [True, False])
    def test_knee_matches_np_gradient_reference(self, cold):
        """``cold`` empties the caches before every search, so each one
        rebuilds its grid and stencil; warm searches share them."""
        rng = np.random.default_rng(2022)
        interior = 0
        for _ in range(600):
            est = _random_curve(rng)
            cap = est.unit_arrays * int(rng.integers(1, 300))
            expected = _reference_knee(est, cap)
            if cold:
                perfmodel.clear_caches()
            assert knee_allocation(est, cap) == expected
            # Again: served from the knee cache.
            assert knee_allocation(est, cap) == expected
            interior += expected != int(allocation_grid(est, cap)[0])
        # Enough curves have a knee past the unit allocation for the
        # stencil's interior coefficients to matter.
        assert interior >= 100
