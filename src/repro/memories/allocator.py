"""Scratchpad-style allocator for in-memory compute regions.

The paper (III-B2) deliberately avoids integrating in-memory compute
with general memory virtualisation: compute workspaces are carved out
of a *coarse-grained* scratchpad partition of each memory (VLS-style
cache-way partitioning for SRAM; bank groups for DRAM; crossbar tiles
for ReRAM), so compute regions co-exist with conventionally-managed
memory at low hardware cost.

This module implements that model.  A :class:`ScratchpadAllocator`
manages the compute arrays of one device (``spec.num_arrays`` already
excludes what stays on normal cache/memory duty, e.g. the half of the
LLC kept as a normal cache) and hands them out in contiguous
*partitions* (the allocation quantum the scheduler reasons about).  Allocations are tracked by handle so
double-frees and leaks surface as errors rather than silent corruption.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass, field

from .base import MemorySpec

__all__ = ["Allocation", "ScratchpadAllocator", "AllocationError"]


class AllocationError(RuntimeError):
    """Raised when an allocation request cannot be satisfied."""


@dataclass(frozen=True)
class Allocation:
    """Handle for one granted compute workspace."""

    handle: int
    arrays: int
    start: int
    spec: MemorySpec

    @property
    def bytes(self) -> int:
        return self.arrays * self.spec.geometry.bytes


@dataclass
class ScratchpadAllocator:
    """First-fit contiguous allocator over a device's compute arrays.

    ``free_arrays``, ``largest_free_run`` and ``used_arrays`` are read
    on every dispatch decision, so they are counters kept up to date by
    :meth:`allocate`, :meth:`free` and :meth:`reset` rather than scans
    of the free runs.
    """

    spec: MemorySpec
    _free_runs: list[tuple[int, int]] = field(default_factory=list, repr=False)
    _live: dict[int, Allocation] = field(default_factory=dict, repr=False)
    _handles: "itertools.count[int]" = field(default_factory=itertools.count, repr=False)
    _total: int = field(default=0, init=False, repr=False)
    _free: int = field(default=0, init=False, repr=False)
    _largest: int = field(default=0, init=False, repr=False)

    def __post_init__(self) -> None:
        self._total = self.spec.num_arrays
        self.reset()

    # ------------------------------------------------------------------
    @property
    def free_arrays(self) -> int:
        return self._free

    @property
    def used_arrays(self) -> int:
        return self._total - self._free

    @property
    def live_allocations(self) -> int:
        return len(self._live)

    @property
    def largest_free_run(self) -> int:
        """Largest contiguous run -- what a single job can actually get."""
        return self._largest

    # ------------------------------------------------------------------
    def allocate(self, arrays: int) -> Allocation:
        """Grant ``arrays`` contiguous compute arrays (first fit)."""
        if arrays <= 0:
            raise ValueError("must allocate at least one array")
        if arrays <= self._largest:
            runs = self._free_runs
            for index, (start, length) in enumerate(runs):
                if length >= arrays:
                    break
            allocation = Allocation(
                handle=next(self._handles),
                arrays=arrays,
                start=start,
                spec=self.spec,
            )
            remaining = length - arrays
            if remaining:
                runs[index] = (start + arrays, remaining)
            else:
                del runs[index]
            self._free -= arrays
            if length == self._largest:
                self._largest = max((run[1] for run in runs), default=0)
            self._live[allocation.handle] = allocation
            return allocation
        raise AllocationError(
            f"{self.spec.name}: no contiguous run of {arrays} arrays "
            f"(free={self.free_arrays}, largest run={self.largest_free_run})"
        )

    def free(self, allocation: Allocation) -> None:
        """Return an allocation; coalesces adjacent free runs."""
        live = self._live.pop(allocation.handle, None)
        if live is None:
            raise AllocationError(f"double free or foreign handle: {allocation.handle}")
        runs = self._free_runs
        start, length = live.start, live.arrays
        self._free += length
        # Free runs are sorted, disjoint and never adjacent, so the
        # returned run can only merge with its two neighbours.
        index = bisect.bisect_left(runs, (start, length))
        if index < len(runs) and start + length == runs[index][0]:
            length += runs.pop(index)[1]
        if index and runs[index - 1][0] + runs[index - 1][1] == start:
            index -= 1
            start = runs[index][0]
            length += runs[index][1]
            runs[index] = (start, length)
        else:
            runs.insert(index, (start, length))
        if length > self._largest:
            self._largest = length

    def reset(self) -> None:
        """Drop every live allocation (end of a batch)."""
        self._live.clear()
        self._free_runs = [(0, self._total)]
        self._free = self._largest = self._total
