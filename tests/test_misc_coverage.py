"""Smaller surfaces: report formatting, mapping helpers, estimates."""

import pytest

from repro.core import JobPerfProfile
from repro.core.perfmodel import ProfileEstimate
from repro.harness import fmt_time
from repro.kernels.mapping import cap_unit_arrays, spmm_strip_width
from repro.memories import DRAM_SPEC, RERAM_SPEC, SRAM_SPEC


class TestFormatting:
    def test_fmt_time_scales(self):
        assert fmt_time(0) == "0"
        assert fmt_time(1.5) == "1.50s"
        assert fmt_time(2.5e-3) == "2.50ms"
        assert fmt_time(3.2e-6) == "3.20us"
        assert fmt_time(8e-9) == "8.00ns"


class TestCapUnit:
    def test_within_cap_untouched(self):
        unit, n_iter = cap_unit_arrays(SRAM_SPEC, 100)
        assert (unit, n_iter) == (100, 1)

    def test_oversized_unit_iterates(self):
        huge = SRAM_SPEC.num_arrays * 3
        unit, n_iter = cap_unit_arrays(SRAM_SPEC, huge)
        assert unit == SRAM_SPEC.num_arrays // 2
        assert unit * n_iter >= huge

    def test_strip_width_monotone_in_feature_dim(self):
        # Wider features leave room for fewer stationary B rows.
        assert spmm_strip_width(SRAM_SPEC, 64) >= spmm_strip_width(SRAM_SPEC, 256)
        # ReRAM strips are crossbar-height regardless of feature width.
        assert spmm_strip_width(RERAM_SPEC, 64) == spmm_strip_width(RERAM_SPEC, 256)

    def test_dram_strip_width_huge(self):
        assert spmm_strip_width(DRAM_SPEC, 256) > 10_000


class TestProfileEstimate:
    def make(self) -> ProfileEstimate:
        return ProfileEstimate(
            JobPerfProfile(
                unit_arrays=5,
                t_load=1e-6,
                t_replica_unit=1e-7,
                t_compute_unit=1e-4,
                waves_unit=12,
            )
        )

    def test_matches_truth_exactly(self):
        est = self.make()
        for arrays in (5, 10, 25, 60):
            assert est.total_time(arrays) == est.profile.total_time(arrays)

    def test_compute_scale_perturbs_compute_only(self):
        est = self.make()
        noisy = ProfileEstimate(est.profile, compute_scale=2.0)
        assert noisy.compute_time(5) == pytest.approx(2 * est.compute_time(5))
        assert noisy.load_time(5) == est.load_time(5)

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            ProfileEstimate(self.make().profile, compute_scale=0.0)

    def test_snap_and_invert(self):
        est = self.make()
        assert est.snap_to_replica(14) == 10
        assert est.snap_to_replica(3) == 5
        found = est.invert_total_time(est.total_time(25), 60)
        assert found <= 25
        with pytest.raises(ValueError):
            est.invert_total_time(0.0, 60)

    def test_properties_mirror_profile(self):
        est = self.make()
        assert est.unit_arrays == 5
        assert est.max_useful_arrays == 60
        assert est.t_compute_unit == 1e-4
        assert est.t_load == 1e-6
        assert est.n_iter == 1
