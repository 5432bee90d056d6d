"""Job profiles and the ground-truth timing model."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Job, JobPerfProfile
from repro.memories import MemoryKind


def profile(**overrides) -> JobPerfProfile:
    params = dict(
        unit_arrays=10,
        t_load=1e-6,
        t_replica_unit=2e-7,
        t_compute_unit=1e-5,
        waves_unit=20,
        overhead_delta=0.05,
        fill_bytes=1000.0,
        compute_energy_j=1e-9,
    )
    params.update(overrides)
    return JobPerfProfile(**params)


class TestProfile:
    def test_unit_allocation_times(self):
        p = profile()
        assert p.load_time(10) == pytest.approx(1e-6)
        assert p.compute_time(10) == pytest.approx(1e-5)
        assert p.total_time(10) == pytest.approx(1.1e-5)

    def test_replicas_floor_to_unit_multiples(self):
        p = profile()
        assert p.replicas(10) == 1
        assert p.replicas(19) == 1  # fractional replicas are waste
        assert p.replicas(20) == 2
        assert p.replicas(1000) == 20  # capped at waves_unit

    def test_compute_speedup_with_replicas(self):
        p = profile()
        t1 = p.compute_time(10)
        t2 = p.compute_time(20)
        # Two replicas halve the waves, modulo the sync overhead.
        assert t2 == pytest.approx(t1 / 2 * 2**0.05)

    def test_replication_adds_load_time(self):
        p = profile()
        assert p.load_time(20) == pytest.approx(1e-6 + 2e-7)
        assert p.load_time(40) == pytest.approx(1e-6 + 3 * 2e-7)

    def test_n_iter_multiplies_everything(self):
        p1 = profile(n_iter=1)
        p3 = profile(n_iter=3)
        assert p3.total_time(10) == pytest.approx(3 * p1.total_time(10))

    def test_below_unit_allocation_rejected(self):
        with pytest.raises(ValueError):
            profile().total_time(9)

    def test_useful_max(self):
        assert profile().useful_max_arrays() == 200

    def test_validation(self):
        with pytest.raises(ValueError):
            profile(unit_arrays=0)
        with pytest.raises(ValueError):
            profile(waves_unit=0)
        with pytest.raises(ValueError):
            profile(overhead_delta=-0.1)
        with pytest.raises(ValueError):
            profile(t_load=-1.0)
        with pytest.raises(ValueError):
            profile(n_iter=0)


class TestJob:
    def make_job(self) -> Job:
        return Job(
            job_id="j",
            kernel="spmm",
            profiles={
                MemoryKind.SRAM: profile(t_compute_unit=1e-5),
                MemoryKind.RERAM: profile(t_compute_unit=3e-5),
            },
        )

    def test_profile_lookup(self):
        job = self.make_job()
        assert job.profile(MemoryKind.SRAM).t_compute_unit == 1e-5
        with pytest.raises(KeyError):
            job.profile(MemoryKind.DRAM)

    def test_true_time(self):
        job = self.make_job()
        assert job.profile(MemoryKind.SRAM).total_time(10) == pytest.approx(1.1e-5)

    def test_best_memory(self):
        job = self.make_job()
        best = job.best_memory({MemoryKind.SRAM: 10, MemoryKind.RERAM: 10})
        assert best is MemoryKind.SRAM
        # With a big ReRAM allocation and tiny SRAM, preference flips
        # only if ReRAM actually gets faster -- verify consistency.
        allocations = {MemoryKind.SRAM: 10, MemoryKind.RERAM: 200}
        best2 = job.best_memory(allocations)
        t_sram = job.profile(MemoryKind.SRAM).total_time(10)
        t_reram = job.profile(MemoryKind.RERAM).total_time(200)
        assert (best2 is MemoryKind.RERAM) == (t_reram < t_sram)

    def test_best_memory_ignores_unsupported(self):
        job = self.make_job()
        assert job.best_memory({MemoryKind.SRAM: 10, MemoryKind.DRAM: 99}) is (
            MemoryKind.SRAM
        )
        with pytest.raises(ValueError):
            job.best_memory({MemoryKind.DRAM: 10})

    def test_empty_profiles_rejected(self):
        with pytest.raises(ValueError):
            Job(job_id="x", kernel="gemm", profiles={})


@settings(max_examples=100, deadline=None)
@given(
    unit=st.integers(min_value=1, max_value=50),
    waves=st.integers(min_value=1, max_value=100),
    factor=st.integers(min_value=1, max_value=30),
)
def test_more_arrays_never_slow_compute_property(unit, waves, factor):
    """Monotonicity: granting whole extra replicas never increases
    compute time (the delta overhead never dominates a halving)."""
    p = JobPerfProfile(
        unit_arrays=unit,
        t_load=0.0,
        t_replica_unit=0.0,
        t_compute_unit=1.0,
        waves_unit=waves,
        overhead_delta=0.05,
    )
    times = [p.compute_time(r * unit) for r in range(1, factor + 1)]
    for a, b in zip(times, times[1:]):
        assert b <= a * 1.0001
