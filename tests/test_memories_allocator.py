"""Scratchpad allocator: first-fit, coalescing, and invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memories import (
    AllocationError,
    ArrayGeometry,
    MemoryKind,
    MemorySpec,
    ScratchpadAllocator,
)


def make_spec(num_arrays: int = 64) -> MemorySpec:
    return MemorySpec(
        kind=MemoryKind.SRAM,
        name="test",
        geometry=ArrayGeometry(rows=16, cols=16),
        num_arrays=num_arrays,
        alus_per_array=16,
        clock_mhz=1000.0,
        mac_cycles_2op=10,
        multi_operand_alpha=1.0,
        max_operands=2,
        pack_limit=4,
        energy_per_mac_pj=1.0,
        energy_per_bitop_pj=0.1,
        fill_bandwidth_gbps=10.0,
        copy_bandwidth_gbps=10.0,
    )


class TestAllocate:
    def test_simple_allocate_free(self):
        alloc = ScratchpadAllocator(make_spec())
        a = alloc.allocate(10)
        assert a.arrays == 10
        assert alloc.free_arrays == 54
        alloc.free(a)
        assert alloc.free_arrays == 64

    def test_allocation_exposes_bytes_and_alus(self):
        alloc = ScratchpadAllocator(make_spec())
        a = alloc.allocate(4)
        assert a.bytes == 4 * (16 * 16 // 8)

    def test_exhaustion_raises(self):
        alloc = ScratchpadAllocator(make_spec(8))
        alloc.allocate(8)
        with pytest.raises(AllocationError):
            alloc.allocate(1)

    def test_zero_allocation_rejected(self):
        alloc = ScratchpadAllocator(make_spec())
        with pytest.raises(ValueError):
            alloc.allocate(0)

    def test_double_free_raises(self):
        alloc = ScratchpadAllocator(make_spec())
        a = alloc.allocate(2)
        alloc.free(a)
        with pytest.raises(AllocationError):
            alloc.free(a)

    def test_fragmentation_blocks_contiguous_requests(self):
        alloc = ScratchpadAllocator(make_spec(10))
        first = alloc.allocate(4)
        middle = alloc.allocate(2)
        alloc.allocate(4)
        alloc.free(first)
        alloc.free(middle)  # coalesces with the first run -> 6 free
        assert alloc.largest_free_run == 6
        assert alloc.allocate(6).arrays == 6

    def test_coalescing_merges_all_neighbours(self):
        alloc = ScratchpadAllocator(make_spec(12))
        a = alloc.allocate(4)
        b = alloc.allocate(4)
        c = alloc.allocate(4)
        alloc.free(a)
        alloc.free(c)
        alloc.free(b)
        assert alloc.largest_free_run == 12
        assert alloc.free_arrays == 12

    def test_reset_clears_everything(self):
        alloc = ScratchpadAllocator(make_spec(16))
        alloc.allocate(5)
        alloc.allocate(5)
        alloc.reset()
        assert alloc.free_arrays == 16
        assert alloc.live_allocations == 0

@settings(max_examples=200, deadline=None)
@given(
    ops=st.lists(
        st.one_of(
            st.tuples(st.just("alloc"), st.integers(min_value=1, max_value=20)),
            st.tuples(st.just("free"), st.integers(min_value=0, max_value=30)),
        ),
        max_size=40,
    )
)
def test_allocator_conservation_property(ops):
    """Free + used always equals total; free never exceeds total."""
    total = 64
    alloc = ScratchpadAllocator(make_spec(total))
    live = []
    for action, value in ops:
        if action == "alloc":
            try:
                live.append(alloc.allocate(value))
            except AllocationError:
                assert alloc.largest_free_run < value
        elif live:
            allocation = live.pop(value % len(live))
            alloc.free(allocation)
        assert alloc.free_arrays + alloc.used_arrays == total
        assert 0 <= alloc.free_arrays <= total
        assert alloc.used_arrays == sum(a.arrays for a in live)
    for allocation in live:
        alloc.free(allocation)
    assert alloc.free_arrays == total
    assert alloc.largest_free_run == total


class _ReferenceRuns:
    """The allocator's free-run bookkeeping written the plain way: a
    first-fit scan, and an append + sort + full merge on free."""

    def __init__(self, total: int) -> None:
        self.total = total
        self.runs = [(0, total)]

    def allocate(self, arrays: int) -> int | None:
        for index, (start, length) in enumerate(self.runs):
            if length >= arrays:
                if length > arrays:
                    self.runs[index] = (start + arrays, length - arrays)
                else:
                    del self.runs[index]
                return start
        return None

    def free(self, start: int, arrays: int) -> None:
        merged: list[tuple[int, int]] = []
        for run_start, length in sorted(self.runs + [(start, arrays)]):
            if merged and sum(merged[-1]) == run_start:
                merged[-1] = (merged[-1][0], merged[-1][1] + length)
            else:
                merged.append((run_start, length))
        self.runs = merged


@settings(max_examples=300, deadline=None)
@given(
    total=st.integers(min_value=1, max_value=64),
    ops=st.lists(
        st.one_of(
            st.tuples(st.just("alloc"), st.integers(min_value=1, max_value=24)),
            st.tuples(st.just("free"), st.integers(min_value=0, max_value=30)),
            st.tuples(st.just("reset"), st.just(0)),
        ),
        max_size=60,
    ),
)
def test_cached_counters_match_free_runs(total, ops):
    """``free_arrays``, ``largest_free_run`` and ``used_arrays`` are
    counters; after every step they must equal what the free runs
    give, and the runs must match the plain first-fit model."""
    alloc = ScratchpadAllocator(make_spec(total))
    model = _ReferenceRuns(total)
    live = []
    for action, value in ops:
        if action == "alloc":
            start = model.allocate(value)
            if start is None:
                free = sum(length for _, length in model.runs)
                largest = max((length for _, length in model.runs), default=0)
                with pytest.raises(AllocationError) as raised:
                    alloc.allocate(value)
                assert str(raised.value) == (
                    f"test: no contiguous run of {value} arrays "
                    f"(free={free}, largest run={largest})"
                )
            else:
                allocation = alloc.allocate(value)
                assert allocation.start == start
                live.append(allocation)
        elif action == "free" and live:
            allocation = live.pop(value % len(live))
            alloc.free(allocation)
            model.free(allocation.start, allocation.arrays)
        elif action == "reset":
            alloc.reset()
            model = _ReferenceRuns(total)
            live.clear()
        runs = alloc._free_runs
        assert runs == model.runs
        assert alloc.free_arrays == sum(length for _, length in runs)
        assert alloc.largest_free_run == max((length for _, length in runs), default=0)
        assert alloc.used_arrays == total - sum(
            length for _, length in runs
        )
        assert alloc.live_allocations == len(live)
