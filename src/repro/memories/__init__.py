"""In-memory compute device models (SRAM / DRAM / ReRAM).

Public surface:

* :class:`~repro.memories.base.MemorySpec` and
  :class:`~repro.memories.base.MemoryKind` -- device descriptions.
* ``SRAM_SPEC`` / ``DRAM_SPEC`` / ``RERAM_SPEC`` -- the Table III
  configuration of the paper.
* :class:`~repro.memories.allocator.ScratchpadAllocator` -- VLS-style
  coarse-grained workspace allocation.
* :mod:`~repro.memories.characteristics` -- the Figure 1 technology
  comparison.
"""

from .allocator import Allocation, AllocationError, ScratchpadAllocator
from .bitserial import BitSerialArray
from .crossbar import AnalogCrossbar
from .tra import AmbitBank
from .base import (
    ELEMENT_BITS,
    ELEMENT_BYTES,
    ArrayGeometry,
    MemoryKind,
    MemorySpec,
)
from .characteristics import TECHNOLOGIES, TechnologyProfile, parallelism_rank
from .dram import DRAM_SPEC
from .reram import RERAM_SPEC
from .sram import SRAM_SPEC, bit_serial_add_cycles, bit_serial_mul_cycles

__all__ = [
    "ELEMENT_BITS",
    "ELEMENT_BYTES",
    "BitSerialArray",
    "AnalogCrossbar",
    "AmbitBank",
    "Allocation",
    "AllocationError",
    "ArrayGeometry",
    "MemoryKind",
    "MemorySpec",
    "ScratchpadAllocator",
    "SRAM_SPEC",
    "DRAM_SPEC",
    "RERAM_SPEC",
    "TECHNOLOGIES",
    "TechnologyProfile",
    "parallelism_rank",
    "bit_serial_add_cycles",
    "bit_serial_mul_cycles",
    "DEFAULT_SPECS",
]

#: The evaluated MLIMP configuration: one spec per memory layer.
DEFAULT_SPECS: dict[MemoryKind, MemorySpec] = {
    MemoryKind.SRAM: SRAM_SPEC,
    MemoryKind.DRAM: DRAM_SPEC,
    MemoryKind.RERAM: RERAM_SPEC,
}
