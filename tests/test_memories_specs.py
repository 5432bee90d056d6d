"""The Table III configuration must reproduce the published numbers."""

import math

import pytest

from repro.memories import (
    DEFAULT_SPECS,
    DRAM_SPEC,
    RERAM_SPEC,
    SRAM_SPEC,
    ArrayGeometry,
    MemoryKind,
    MemorySpec,
    bit_serial_add_cycles,
    bit_serial_mul_cycles,
)


def aggregate_mops(spec: MemorySpec, operands: int) -> float:
    """Whole-device MAC throughput at full utilisation."""
    return spec.mac_mops(operands) * spec.total_alus


class TestTableIII:
    def test_sram_alu_count(self):
        assert SRAM_SPEC.total_alus == 5120 * 256 == 1_310_720

    def test_dram_alu_count(self):
        assert DRAM_SPEC.total_alus == 1024 * 65536 == 67_108_864

    def test_reram_alu_count(self):
        assert RERAM_SPEC.total_alus == 86016 * 16 == 1_376_256

    def test_sram_mac_cycles_match_bit_serial_formula(self):
        # n^2 + 3n - 2 at n=16 -> 302 cycles (Table III).
        assert SRAM_SPEC.mac_cycles_2op == 302 == bit_serial_mul_cycles(16)

    def test_dram_mac_cycles(self):
        assert DRAM_SPEC.mac_cycles_2op == 1510

    def test_reram_mac_cycles(self):
        assert RERAM_SPEC.mac_cycles_2op == 8

    @pytest.mark.parametrize(
        "spec, mops2, mops4",
        [(SRAM_SPEC, 8.278, 2.070), (DRAM_SPEC, 0.199, 0.050), (RERAM_SPEC, 2.500, 2.500)],
    )
    def test_mac_mops_match_table(self, spec, mops2, mops4):
        assert spec.mac_mops(2) == pytest.approx(mops2, rel=1e-2)
        assert spec.mac_mops(4) == pytest.approx(mops4, rel=1e-2)

    def test_reram_capacity_is_336mb(self):
        # "We assume 336 MB ReRAM accelerator chip" (Section V-A).
        assert RERAM_SPEC.capacity_mb == pytest.approx(336, rel=0.01)

    def test_sram_capacity_is_half_llc(self):
        # Half of an 80 MB dual-socket LLC reserved for compute.
        assert SRAM_SPEC.capacity_mb == pytest.approx(40, rel=0.01)

    def test_dram_is_64gb_main_memory(self):
        assert DRAM_SPEC.capacity_bytes == 64 * (1 << 30)

    def test_dram_bank_count_matches_channel_config(self):
        # 4 channels x 1 rank x 16 chips x 16 banks (Section V-A).
        assert DRAM_SPEC.num_arrays == 4 * 1 * 16 * 16

    def test_max_outstanding_jobs_is_eight(self):
        for spec in DEFAULT_SPECS.values():
            assert spec.max_outstanding_jobs == 8

    def test_default_specs_cover_all_kinds(self):
        assert set(DEFAULT_SPECS) == set(MemoryKind)
        for kind, spec in DEFAULT_SPECS.items():
            assert spec.kind is kind


class TestMultiOperandScaling:
    def test_reram_flat_with_operand_count(self):
        assert RERAM_SPEC.mac_cycles(128) == RERAM_SPEC.mac_cycles(2)

    def test_reram_chains_beyond_crossbar_height(self):
        assert RERAM_SPEC.mac_cycles(256) == 2 * RERAM_SPEC.mac_cycles(128)

    def test_bit_serial_quadratic(self):
        assert SRAM_SPEC.mac_cycles(4) == pytest.approx(4 * SRAM_SPEC.mac_cycles(2))

    def test_single_operand_clamps_to_two(self):
        assert SRAM_SPEC.mac_cycles(1) == SRAM_SPEC.mac_cycles(2)

    def test_invalid_operand_count(self):
        with pytest.raises(ValueError):
            SRAM_SPEC.mac_cycles(0)


class TestSpecDerived:
    def test_seconds_conversion(self):
        assert SRAM_SPEC.seconds(2500e6) == pytest.approx(1.0)

    def test_fill_seconds_scales_with_write_cost(self):
        base = MemorySpec(
            kind=MemoryKind.SRAM,
            name="x",
            geometry=ArrayGeometry(16, 16),
            num_arrays=4,
            alus_per_array=16,
            clock_mhz=100.0,
            mac_cycles_2op=10,
            multi_operand_alpha=1.0,
            max_operands=2,
            pack_limit=1,
            energy_per_mac_pj=1.0,
            energy_per_bitop_pj=1.0,
            fill_bandwidth_gbps=1.0,
            copy_bandwidth_gbps=1.0,
            write_cost_factor=3.0,
        )
        assert base.fill_seconds(1e9) == pytest.approx(3.0)
        assert base.copy_seconds(1e9) == pytest.approx(1.0)

    def test_geometry_bits(self):
        geometry = ArrayGeometry(rows=128, cols=128, bits_per_cell=2)
        assert geometry.bits == 128 * 128 * 2
        assert geometry.bytes == geometry.bits // 8

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            ArrayGeometry(rows=0, cols=8)
        with pytest.raises(ValueError):
            ArrayGeometry(rows=8, cols=8, bits_per_cell=0)

    def test_bit_serial_add_formula(self):
        assert bit_serial_add_cycles(16) == 16
        with pytest.raises(ValueError):
            bit_serial_add_cycles(0)

    def test_aggregate_throughput_ordering(self):
        # At 2-operand MACs all three devices land in the same order of
        # magnitude (paper V-B1: SRAM and ReRAM have "similar SIMD
        # width and average MAC throughput").
        aggregates = {k: aggregate_mops(s, 2) for k, s in DEFAULT_SPECS.items()}
        assert max(aggregates.values()) / min(aggregates.values()) < 5

    def test_reram_multi_operand_aggregate_wins(self):
        # With wide accumulations ReRAM's analog bitline sum dominates.
        assert aggregate_mops(RERAM_SPEC, 64) > aggregate_mops(SRAM_SPEC, 64)
        assert aggregate_mops(RERAM_SPEC, 64) > aggregate_mops(DRAM_SPEC, 64)
