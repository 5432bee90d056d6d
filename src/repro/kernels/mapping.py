"""Shared data-mapping helpers for the kernel libraries.

These encode the per-technology layout rules the kernel mappings in
this package rely on:

* bit-serial arrays (SRAM/DRAM) store one element per lane across
  ``element_bits`` wordlines, so an array's element capacity is
  ``geometry.bits / element_bits``;
* the ReRAM crossbar spreads one 16-bit element over
  ``element_bits / bits_per_cell`` cells of a wordline, so a 128x128
  crossbar wordline holds 16 elements and a full feature vector spans
  ``ceil(f / 16)`` crossbars side by side (ISAAC-style column
  partitioning), with up to 128 stationary rows per crossbar to
  multi-operand-accumulate over.
"""

from __future__ import annotations

import math

from ..memories.base import MemoryKind, MemorySpec

__all__ = [
    "elements_per_wordline",
    "reram_strip_geometry",
    "bitserial_strip_rows",
    "spmm_strip_width",
    "spmm_unit_arrays",
    "nominal_load_seconds",
    "replica_copy_seconds",
    "BUFFER_ARRAY_OVERHEAD",
    "STATIONARY_FRACTION",
]

#: Fraction of a bit-serial array's capacity given to stationary data;
#: the rest holds streamed operands and partial sums.
STATIONARY_FRACTION = 0.5

#: Extra arrays reserved as partial-sum buffer arrays for SpMM
#: ("Buffer arrays are utilized to temporarily store and accumulate
#: the partial sum vector", paper III-D3).
BUFFER_ARRAY_OVERHEAD = 0.2


def elements_per_wordline(spec: MemorySpec) -> int:
    """Elements stored along one wordline (ReRAM bit-parallel layout)."""
    return max(1, (spec.geometry.cols * spec.geometry.bits_per_cell) // spec.element_bits)


def reram_strip_geometry(spec: MemorySpec, feature_dim: int) -> tuple[int, int]:
    """(stationary rows per strip, crossbars per strip) for ReRAM.

    A strip holds up to ``geometry.rows`` stationary B rows; each
    feature vector spans ``ceil(f / elements_per_wordline)`` crossbars.
    """
    if feature_dim <= 0:
        raise ValueError("feature_dim must be positive")
    per_line = elements_per_wordline(spec)
    crossbars = math.ceil(feature_dim / per_line)
    return spec.geometry.rows, crossbars


def bitserial_strip_rows(spec: MemorySpec, feature_dim: int) -> int:
    """Stationary B rows per bit-serial array for SpMM.

    Half the array (``STATIONARY_FRACTION``) holds the B slice; each B
    row occupies ``feature_dim`` lanes' storage.
    """
    if feature_dim <= 0:
        raise ValueError("feature_dim must be positive")
    capacity = spec.array_capacity_elements()
    rows = int(capacity * STATIONARY_FRACTION) // feature_dim
    return max(1, rows)


def spmm_strip_width(spec: MemorySpec, feature_dim: int) -> int:
    """Strip width ``w``: B rows co-resident per allocation strip.

    This is also the prow width of the paper's ``H_w`` statistic --
    the ReRAM configuration yields w = 128, matching the paper's use
    of ``H_128`` in Figure 10.
    """
    if spec.kind is MemoryKind.RERAM:
        rows, _ = reram_strip_geometry(spec, feature_dim)
        return rows
    return bitserial_strip_rows(spec, feature_dim)


def spmm_unit_arrays(spec: MemorySpec, num_b_rows: int, feature_dim: int) -> int:
    """Arrays holding one full replica of the dense B matrix."""
    if num_b_rows <= 0:
        raise ValueError("num_b_rows must be positive")
    width = spmm_strip_width(spec, feature_dim)
    strips = math.ceil(num_b_rows / width)
    if spec.kind is MemoryKind.RERAM:
        _, crossbars = reram_strip_geometry(spec, feature_dim)
        arrays = strips * crossbars
    else:
        arrays = strips
    return max(1, math.ceil(arrays * (1.0 + BUFFER_ARRAY_OVERHEAD)))


#: A single job's unit allocation may use at most this fraction of a
#: device; larger working sets iterate (Eq. 1's n_iter).
UNIT_CAP_FRACTION = 0.5


def cap_unit_arrays(spec: MemorySpec, unit_arrays: int) -> tuple[int, int]:
    """Clamp a unit allocation to the device, returning (unit, n_iter).

    When one replica of the stationary data exceeds the cap, the job
    processes it in ``n_iter`` sequential chunks -- the paper's
    ``n_iter(x) = datasize(x) / a_repunit`` (Eq. 1).
    """
    cap = max(1, int(spec.num_arrays * UNIT_CAP_FRACTION))
    if unit_arrays <= cap:
        return unit_arrays, 1
    return cap, math.ceil(unit_arrays / cap)


def nominal_load_seconds(spec: MemorySpec, nbytes: float) -> float:
    """Nominal (uncontended) time to fill ``nbytes`` into the device."""
    return spec.fill_seconds(nbytes)


def replica_copy_seconds(spec: MemorySpec, nbytes: float) -> float:
    """Time to produce one in-memory replica of ``nbytes``."""
    return spec.copy_seconds(nbytes)
