"""Per-target op timing and lowering."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.isa import LoweringError, Op, is_native, lower_op, op_cycles
from repro.memories import MemoryKind


class TestNativeCosts:
    def test_sram_bit_serial_formulas(self):
        assert op_cycles(MemoryKind.SRAM, Op.ADD, 16) == 16
        assert op_cycles(MemoryKind.SRAM, Op.MUL, 16) == 302
        assert op_cycles(MemoryKind.SRAM, Op.MAC, 16) == 302

    def test_dram_is_5x_sram_arithmetic(self):
        for op in (Op.ADD, Op.MUL, Op.MAC, Op.SUB):
            assert op_cycles(MemoryKind.DRAM, op) == 5 * op_cycles(MemoryKind.SRAM, op)

    def test_reram_mac_is_8_cycles(self):
        assert op_cycles(MemoryKind.RERAM, Op.MAC, 16) == 8
        assert op_cycles(MemoryKind.RERAM, Op.MUL, 16) == 8

    def test_loads_and_stores_are_free_per_lane(self):
        # Data movement is priced by the memory-system model.
        for kind in MemoryKind:
            assert op_cycles(kind, Op.LOAD) == 0
            assert op_cycles(kind, Op.STORE) == 0

    def test_width_scales_bit_serial_ops(self):
        assert op_cycles(MemoryKind.SRAM, Op.ADD, 32) == 32
        assert op_cycles(MemoryKind.SRAM, Op.MUL, 32) == 32 * 32 + 3 * 32 - 2

    def test_reram_width_independent_peripherals(self):
        assert op_cycles(MemoryKind.RERAM, Op.SHL, 16) == op_cycles(
            MemoryKind.RERAM, Op.SHL, 32
        )

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            op_cycles(MemoryKind.SRAM, Op.ADD, 0)


class TestLowering:
    def test_exp2_not_native_on_bit_serial(self):
        assert not is_native(MemoryKind.SRAM, Op.EXP2)
        assert not is_native(MemoryKind.DRAM, Op.EXP2)

    def test_exp2_lowered_to_native_ops(self):
        bag = lower_op(MemoryKind.SRAM, Op.EXP2)
        assert all(is_native(MemoryKind.SRAM, op) for op in bag)
        assert bag[Op.MUL] >= 1

    def test_reram_exp2_uses_lut(self):
        bag = lower_op(MemoryKind.RERAM, Op.EXP2)
        assert bag[Op.LUT] == 1

    def test_reram_div_lowered_via_reciprocal(self):
        assert not is_native(MemoryKind.RERAM, Op.DIV)
        bag = lower_op(MemoryKind.RERAM, Op.DIV)
        assert bag[Op.MUL] >= 1
        assert bag[Op.LUT] >= 1

    def test_lowered_cost_equals_expansion_sum(self):
        bag = lower_op(MemoryKind.SRAM, Op.RECIP)
        total = sum(n * op_cycles(MemoryKind.SRAM, op) for op, n in bag.items())
        assert op_cycles(MemoryKind.SRAM, Op.RECIP) == total

    def test_native_op_lowers_to_itself(self):
        assert lower_op(MemoryKind.SRAM, Op.ADD) == {Op.ADD: 1}

    def test_load_lowers_to_nothing(self):
        assert lower_op(MemoryKind.DRAM, Op.LOAD) == {}

    def test_native_ops_listing(self):
        assert is_native(MemoryKind.RERAM, Op.MAC)
        assert not is_native(MemoryKind.SRAM, Op.EXP2)


@given(op=st.sampled_from(list(Op)), kind=st.sampled_from(list(MemoryKind)))
def test_every_frontend_op_costable_everywhere(op, kind):
    """The common programming interface must cover the whole op set on
    every target (paper III-B1), either natively or via lowering."""
    cycles = op_cycles(kind, op)
    assert cycles >= 0
    if op not in (Op.LOAD, Op.STORE):
        assert cycles > 0


@given(op=st.sampled_from(list(Op)), kind=st.sampled_from(list(MemoryKind)))
def test_lowering_terminates_in_native_ops(op, kind):
    bag = lower_op(kind, op)
    for native_op in bag:
        assert is_native(kind, native_op)


def test_dram_bulk_bitwise_is_cheap_relative_to_its_arithmetic():
    """Ambit's design point: bitwise ops are far cheaper than composed
    arithmetic on DRAM."""
    bitwise = op_cycles(MemoryKind.DRAM, Op.AND)
    mul = op_cycles(MemoryKind.DRAM, Op.MUL)
    assert mul / bitwise > 20


class TestCycleCache:
    """The ``op_cycles`` memo must be a pure speedup: identical
    results cached and uncached."""

    @pytest.fixture(autouse=True)
    def _fresh_cache(self):
        from repro.isa import timing

        timing.clear_cache()
        yield
        timing.clear_cache()

    def test_cached_values_match_uncached(self):
        from repro.isa import timing

        probes = [
            (MemoryKind.SRAM, Op.MUL, 16),
            (MemoryKind.DRAM, Op.ADD, 16),
            (MemoryKind.RERAM, Op.MAC, 16),
            (MemoryKind.SRAM, Op.MAX, 8),
        ]
        cached = [op_cycles(kind, op, bits) for kind, op, bits in probes]
        # Served from the memo on the second call.
        assert [op_cycles(kind, op, bits) for kind, op, bits in probes] == cached
        assert timing.cache_stats()["timing.op_cycles"]["hits"] == len(probes)
        # A nested call (``_depth`` > 0) bypasses the memo entirely.
        uncached = [op_cycles(kind, op, bits, _depth=1) for kind, op, bits in probes]
        assert cached == uncached

    def test_hit_miss_accounting(self):
        from repro.isa import timing

        op_cycles(MemoryKind.SRAM, Op.MUL, 16)
        op_cycles(MemoryKind.SRAM, Op.MUL, 16)
        op_cycles(MemoryKind.SRAM, Op.ADD, 16)
        stats = timing.cache_stats()["timing.op_cycles"]
        assert stats["misses"] == 2
        assert stats["hits"] == 1
        assert stats["size"] == 2
        timing.clear_cache()
        stats = timing.cache_stats()["timing.op_cycles"]
        assert stats["size"] == 0 and stats["hits"] == 0

