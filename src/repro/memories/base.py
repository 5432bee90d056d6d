"""Core abstractions for in-memory compute devices.

The MLIMP paper (MICRO 2022) re-purposes three layers of the memory
hierarchy as compute devices:

* the SRAM last-level cache (bit-serial, Neural Cache / Duality Cache),
* the DRAM main memory (charge-sharing triple-row activation, Ambit),
* a ReRAM accelerator chip (analog crossbar MAC, IMP / ISAAC).

Each device is described by a :class:`MemorySpec` capturing the array
geometry, clock, SIMD-lane count, and the timing/energy parameters the
rest of the simulator consumes.  The values for the evaluated
configuration (Table III of the paper) live in
:mod:`repro.memories.sram`, :mod:`repro.memories.dram` and
:mod:`repro.memories.reram`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

__all__ = [
    "MemoryKind",
    "ArrayGeometry",
    "MemorySpec",
    "ELEMENT_BITS",
    "ELEMENT_BYTES",
]

#: Default operand precision.  The paper quantises GNN features and
#: weights to 16-bit fixed point (Section IV, "Benchmarks").
ELEMENT_BITS = 16
ELEMENT_BYTES = ELEMENT_BITS // 8


class MemoryKind(enum.Enum):
    """The three in-memory compute layers evaluated in the paper."""

    SRAM = "sram"
    DRAM = "dram"
    RERAM = "reram"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value

    # Members are singletons compared by identity, so the id-based C
    # slot hash is equivalent to Enum's Python-level name hash -- and
    # millions of profile/spec dict lookups per run stop paying a
    # Python frame per lookup.  (Name hashes were never stable across
    # processes anyway: str hashing is seed-randomised.)
    __hash__ = object.__hash__


@dataclass(frozen=True)
class ArrayGeometry:
    """Physical geometry of one memory array (the allocation quantum).

    ``rows`` and ``cols`` are in *cells*; ``bits_per_cell`` is 1 for
    SRAM/DRAM and 2 for the multi-level-cell ReRAM configuration of
    Table III.
    """

    rows: int
    cols: int
    bits_per_cell: int = 1

    def __post_init__(self) -> None:
        if self.rows <= 0 or self.cols <= 0:
            raise ValueError("array geometry must have positive dimensions")
        if self.bits_per_cell <= 0:
            raise ValueError("bits_per_cell must be positive")

    @property
    def bits(self) -> int:
        """Total storage bits of one array."""
        return self.rows * self.cols * self.bits_per_cell

    @property
    def bytes(self) -> int:
        return self.bits // 8


@dataclass(frozen=True)
class MemorySpec:
    """Static description of one in-memory compute device.

    Parameters mirror Table III of the paper plus the energy and
    bandwidth constants needed by the simulator.  Timing is expressed
    in *device* cycles; :meth:`seconds` converts using ``clock_mhz``.

    Attributes
    ----------
    kind:
        Which memory layer this spec describes.
    geometry:
        Per-array geometry; arrays are the allocation quantum used by
        the scheduler.
    num_arrays:
        Number of compute-capable arrays in the device.
    alus_per_array:
        SIMD lanes per array (bitline groups that can hold one
        element-wide operand).
    clock_mhz:
        Device clock for in-memory operations.
    mac_cycles_2op:
        Cycles for one 16-bit multiply-accumulate with two operands
        (Table III, "cycles/op (2ops)").
    multi_operand_alpha:
        Scaling exponent for k-operand accumulation:
        ``cycles(k) = mac_cycles_2op * (k / 2) ** alpha``.  Bit-serial
        devices (SRAM/DRAM) must widen operand precision as more
        values are accumulated and their multiply cost is quadratic in
        bit width, so ``alpha == 2`` (this reproduces the Table III
        MOPS drop 8.278 -> 2.070 from "2ops" to "4ops" for SRAM).  The
        analog ReRAM crossbar accumulates many rows on the shared
        bitline in a single fixed-width operation (``alpha == 0``,
        MOPS stays at 2.5).  Kernel mappings for bit-serial devices
        avoid this penalty by chaining 2-operand MACs instead.
    max_operands:
        Largest native k-operand accumulation (ReRAM: rows that can be
        activated simultaneously; bit-serial devices: 2).
    pack_limit:
        How many independent SIMD vectors can be packed side by side
        in one array row group.  DRAM rows are filled by row-wide DMA
        and cannot scatter independent jobs into disjoint column
        groups, hence ``pack_limit == 1`` there; SRAM/ReRAM accept
        fine-grained fills.
    energy_per_mac_pj:
        Dynamic energy of one 16-bit 2-operand MAC, in picojoules.
    energy_per_bitop_pj:
        Dynamic energy of one word-wide (16-bit) bitwise operation.
    fill_bandwidth_gbps:
        Bandwidth for loading operands into the compute region from
        the next level of the hierarchy (GB/s).
    copy_bandwidth_gbps:
        Internal replication bandwidth (in-array copies; RowClone-like
        for DRAM).
    write_cost_factor:
        Multiplier on fill time for technologies with expensive writes
        (ReRAM cell programming); 1.0 for SRAM/DRAM.
    max_outstanding_jobs:
        Concurrent jobs one device controller sustains (paper: 8).
    mb_per_mm2:
        Density, used only for reporting Table III.
    """

    kind: MemoryKind
    name: str
    geometry: ArrayGeometry
    num_arrays: int
    alus_per_array: int
    clock_mhz: float
    mac_cycles_2op: int
    multi_operand_alpha: float
    max_operands: int
    pack_limit: int
    energy_per_mac_pj: float
    energy_per_bitop_pj: float
    fill_bandwidth_gbps: float
    copy_bandwidth_gbps: float
    write_cost_factor: float = 1.0
    max_outstanding_jobs: int = 8
    mb_per_mm2: float = 0.0
    element_bits: int = ELEMENT_BITS
    #: Dynamic energy of writing one byte into the compute region
    #: (fills and replication); high for NVM cell programming.
    fill_energy_pj_per_byte: float = 2.0

    def __post_init__(self) -> None:
        if self.num_arrays <= 0:
            raise ValueError("num_arrays must be positive")
        if self.alus_per_array <= 0:
            raise ValueError("alus_per_array must be positive")
        if self.clock_mhz <= 0:
            raise ValueError("clock_mhz must be positive")
        if self.max_operands < 2:
            raise ValueError("max_operands must be at least 2")
        if self.pack_limit < 1:
            raise ValueError("pack_limit must be at least 1")

    # ------------------------------------------------------------------
    # Derived capacity / parallelism figures (Table III columns).
    # ------------------------------------------------------------------
    @property
    def total_alus(self) -> int:
        """Total SIMD lanes across the device."""
        return self.num_arrays * self.alus_per_array

    @property
    def capacity_bytes(self) -> int:
        return self.num_arrays * self.geometry.bytes

    @property
    def capacity_mb(self) -> float:
        return self.capacity_bytes / float(1 << 20)

    @property
    def cycle_time_s(self) -> float:
        return 1.0 / (self.clock_mhz * 1e6)

    def seconds(self, cycles: float) -> float:
        """Convert a device-cycle count into seconds."""
        return cycles * self.cycle_time_s

    # ------------------------------------------------------------------
    # MAC throughput model.
    # ------------------------------------------------------------------
    def mac_cycles(self, operands: int = 2) -> float:
        """Cycles for one k-operand 16-bit MAC on one SIMD lane.

        ``operands`` counts the values being accumulated (the paper's
        "2ops" column is an ``a*b`` product accumulated into a running
        sum).  ReRAM performs multi-operand accumulation natively on
        the shared bitline; bit-serial devices sequence 2-operand MACs.
        """
        if operands < 1:
            raise ValueError("operands must be >= 1")
        k = min(max(operands, 2), self.max_operands)
        base = self.mac_cycles_2op * (k / 2.0) ** self.multi_operand_alpha
        if operands > self.max_operands:
            # Chain several maximal-width accumulations.
            chains = math.ceil(operands / self.max_operands)
            return base * chains
        return base

    def mac_mops(self, operands: int = 2) -> float:
        """Per-lane MAC throughput in MOPS, as reported in Table III.

        One "op" is one k-operand multiply-accumulate, matching the
        paper's "MOPS (2ops)" / "MOPS (4ops)" columns (SRAM 8.278 ->
        2.070, DRAM 0.199 -> 0.050, ReRAM flat at 2.500).
        """
        cycles = self.mac_cycles(operands)
        return self.clock_mhz / cycles

    # ------------------------------------------------------------------
    # Allocation helpers.
    # ------------------------------------------------------------------
    def usable_lanes(self, vector_width: int | None = None) -> int:
        """SIMD lanes one array can apply to data of this shape.

        ``vector_width`` is the workload's natural SIMD vector (e.g.
        the GNN feature dimension); an array fits at most
        ``pack_limit`` independent vectors side by side.  DRAM rows
        are filled by row-wide DMA and cannot pack narrow vectors
        (``pack_limit == 1``), which reproduces the paper's
        observation that GNN-sized vectors leave DRAM SIMD slots
        underutilised.  ``None`` means a streaming kernel that fills
        the array completely.
        """
        if vector_width is None:
            return self.alus_per_array
        if vector_width <= 0:
            raise ValueError("vector_width must be positive")
        return min(self.alus_per_array, self.pack_limit * vector_width)

    def array_capacity_elements(self) -> int:
        """Data elements one array can store at ``element_bits``."""
        return self.geometry.bits // self.element_bits

    def fill_seconds(self, nbytes: float) -> float:
        """Time to stream ``nbytes`` into the compute region."""
        if nbytes <= 0:
            return 0.0
        return self.write_cost_factor * nbytes / (self.fill_bandwidth_gbps * 1e9)

    def copy_seconds(self, nbytes: float) -> float:
        """Time to replicate ``nbytes`` inside the device."""
        if nbytes <= 0:
            return 0.0
        return nbytes / (self.copy_bandwidth_gbps * 1e9)

