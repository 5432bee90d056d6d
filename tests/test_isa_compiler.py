"""Cross-compilation of DFGs to per-target compiled kernels."""

import math

import pytest

from repro.isa import DFG, CompiledKernel, Op, compile_dfg, compile_for_all, op_cycles
from repro.memories import DEFAULT_SPECS, DRAM_SPEC, RERAM_SPEC, SRAM_SPEC, MemoryKind


def mac_kernel() -> DFG:
    d = DFG("mac")
    a = d.input("a")
    b = d.input("b")
    m = d.node("m", Op.MAC, a, b)
    d.output(m)
    return d


def bitwise_kernel() -> DFG:
    d = DFG("bitscan")
    x = d.input("x")
    k = d.const("mask")
    a = d.node("a", Op.AND, x, k)
    o = d.node("o", Op.XOR, a, k)
    d.output(o)
    return d


class TestCompile:
    def test_cycles_sum_of_node_costs(self):
        ck = compile_dfg(mac_kernel(), SRAM_SPEC)
        assert ck.cycles_per_element == op_cycles(MemoryKind.SRAM, Op.MAC)

    def test_compile_for_all_targets(self):
        kernels = compile_for_all(mac_kernel(), DEFAULT_SPECS)
        assert set(kernels) == set(MemoryKind)
        assert kernels[MemoryKind.RERAM].cycles_per_element == 8
        assert kernels[MemoryKind.DRAM].cycles_per_element == 1510

    def test_input_bytes_counted(self):
        ck = compile_dfg(mac_kernel(), SRAM_SPEC)
        assert ck.input_bytes_per_element == 2 * 2  # two 16-bit inputs
        assert ck.output_bytes_per_element == 2

    def test_invalid_dfg_rejected(self):
        d = DFG("empty")
        d.input("x")
        with pytest.raises(Exception):
            compile_dfg(d, SRAM_SPEC)

    def test_energy_positive_and_target_dependent(self):
        kernels = compile_for_all(mac_kernel(), DEFAULT_SPECS)
        for ck in kernels.values():
            assert ck.energy_per_element_pj > 0
        # ReRAM analog MAC is the cheapest per-op energy here.
        assert (
            kernels[MemoryKind.RERAM].energy_per_element_pj
            < kernels[MemoryKind.SRAM].energy_per_element_pj
        )

    def test_bitwise_energy_uses_bitop_rate(self):
        ck = compile_dfg(bitwise_kernel(), DRAM_SPEC)
        # two bitwise frontend ops (XOR lowers to AND/OR/NOT bag)
        assert ck.energy_per_element_pj < 5  # far below a DRAM MAC (60 pJ)


class TestPacking:
    def test_dram_narrow_vectors_waste_lanes(self):
        """Paper V-B1: GNN feature vectors cannot fill DRAM SIMD rows."""
        assert DRAM_SPEC.usable_lanes(vector_width=256) == 256
        assert DRAM_SPEC.usable_lanes(vector_width=None) == 65536

    def test_sram_packs_narrow_vectors(self):
        assert SRAM_SPEC.usable_lanes(vector_width=64) == 256

    def test_reram_pack_limit(self):
        assert RERAM_SPEC.usable_lanes(vector_width=1) == 16

    def test_invalid_vector_width(self):
        with pytest.raises(ValueError):
            SRAM_SPEC.usable_lanes(vector_width=0)

    def test_dram_utilisation_penalty_in_time(self):
        n = 65536
        narrow = math.ceil(n / DRAM_SPEC.usable_lanes(vector_width=256))
        wide = math.ceil(n / DRAM_SPEC.usable_lanes(vector_width=None))
        assert narrow == 256 * wide

    def test_compute_energy(self):
        ck = compile_dfg(mac_kernel(), SRAM_SPEC)
        assert ck.compute_energy_j(0) == 0.0
        assert ck.compute_energy_j(1_000_000) == pytest.approx(
            ck.energy_per_element_pj * 1e-6, rel=1e-9
        )
