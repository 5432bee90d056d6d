"""In-DRAM compute device (Ambit-style charge sharing).

Ambit performs bulk bitwise operations by triple-row activation (TRA):
activating three wordlines makes the bitline settle to the 3-input
majority of the cells, which with a control row implements AND/OR; a
dual-contact cell provides NOT, completing a functionally-universal
set.  Arithmetic is composed bit-serially from these primitives, which
costs roughly 5x the per-bit step count of the in-SRAM full adder
(each logic level needs operand staging via RowClone copies plus an
ACT/ACT/PRE TRA sequence), giving the 1,510-cycle 16-bit MAC of
Table III at the 300 MHz command clock.

The evaluated configuration is DDR4-2400, 4 channels x 1 rank x 16
chips x 16 banks = 1,024 bank-level compute arrays with 8 KB rows
(65,536 bitline ALUs each, 67.1 M total).  Rows are filled by row-wide
DMA, so independent narrow jobs cannot be packed side by side into one
row (``pack_limit == 1``): a GNN feature vector of 256 lanes leaves
99.6% of a DRAM row idle, which is why in-DRAM SpMM underperforms in
the paper while bulk-bitwise workloads (whose vectors fill whole rows)
excel.
"""

from __future__ import annotations

from .base import ArrayGeometry, MemoryKind, MemorySpec
from .sram import bit_serial_mul_cycles

__all__ = ["DRAM_SPEC", "DRAM_STEP_FACTOR"]

#: Multiplier on the SRAM bit-serial step count: each 1-bit logic level
#: becomes RowClone staging + a TRA sequence.  5 x 302 = 1,510 cycles
#: for the 16-bit MAC, matching Table III.
DRAM_STEP_FACTOR = 5

DRAM_SPEC = MemorySpec(
    kind=MemoryKind.DRAM,
    name="in-DRAM (Ambit)",
    geometry=ArrayGeometry(rows=8192, cols=65536, bits_per_cell=1),
    num_arrays=1024,
    alus_per_array=65536,
    clock_mhz=300.0,
    mac_cycles_2op=DRAM_STEP_FACTOR * bit_serial_mul_cycles(16),  # 1510
    multi_operand_alpha=2.0,
    max_operands=8,
    pack_limit=1,
    energy_per_mac_pj=240.0,
    energy_per_bitop_pj=0.1,
    fill_bandwidth_gbps=400.0,  # in-situ: fills are in-DRAM row moves
    copy_bandwidth_gbps=1600.0,  # RowClone bulk copies
    write_cost_factor=1.0,
    max_outstanding_jobs=8,
    mb_per_mm2=17.5,
    fill_energy_pj_per_byte=1.0,  # RowClone-style in-situ moves
)
