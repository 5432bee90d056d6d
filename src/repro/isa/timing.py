"""Per-target micro-operation timing tables.

Every frontend :class:`~repro.isa.ops.Op` either has a *native* cycle
cost on a given memory target or is *lowered* (legalised) into a bag of
simpler operations (paper III-A: "gaps in the supported operations
between the frontend and ISA are bridged by the compiler's lowering and
legalization operations").

Cycle formulas:

* **in-SRAM** (Neural/Duality Cache): bit-serial.  n-bit add = n
  cycles, multiply = ``n^2 + 3n - 2`` (302 at n=16, paper II-B1),
  bitwise/moves = one cycle per bit-slice, division by restoring
  subtraction ~ ``1.5 n^2``.
* **in-DRAM** (Ambit): AND/OR via triple-row activation (4 command
  cycles per bit-slice incl. RowClone staging); arithmetic composed
  bit-serially at ``DRAM_STEP_FACTOR`` (= 5) times the SRAM step count
  (1,510-cycle MAC, Table III).
* **in-ReRAM** (IMP/ISAAC): bit-parallel analog MAC in
  ``bits / bits_per_cell`` = 8 cycles; digital peripheral adder (2),
  shifter (1) and LUTs (4) provide the rest; bitwise operations need a
  read-modify-write round trip (8).

Transcendentals are never native on the bit-serial targets; the
lowering rules expand them into shift/multiply/add polynomials, while
ReRAM serves them from its peripheral LUTs.

Top-level :func:`op_cycles` results are memoised per
``(kind, op, bits)`` (the recursive lowering calls underneath are
not); :func:`cache_stats` reports the memo's hits and misses and
:func:`clear_cache` empties it.
"""

from __future__ import annotations

from collections.abc import Callable

from ..memories.base import MemoryKind
from ..memories.dram import DRAM_STEP_FACTOR
from .ops import Op

__all__ = [
    "op_cycles",
    "is_native",
    "LoweringError",
    "cache_stats",
    "clear_cache",
]


class LoweringError(ValueError):
    """Raised when an op cannot be costed on a target."""


CostFn = Callable[[int], float]


def _sram_mul(bits: int) -> float:
    return bits * bits + 3 * bits - 2


def _sram_div(bits: int) -> float:
    # Restoring division: one conditional subtract + shift per
    # quotient bit, each ~1.5 n cycles bit-serial.
    return 1.5 * bits * bits


#: Native cost tables.  Anything absent is lowered via ``_EXPANSIONS``.
_NATIVE: dict[MemoryKind, dict[Op, CostFn]] = {
    MemoryKind.SRAM: {
        Op.ADD: lambda n: n,
        Op.SUB: lambda n: n,
        Op.MIN: lambda n: 2 * n,  # compare then predicated move
        Op.MAX: lambda n: 2 * n,
        Op.ABS: lambda n: 2 * n,
        Op.CMP: lambda n: n,
        Op.SELECT: lambda n: n,
        Op.MOV: lambda n: n,
        Op.MUL: _sram_mul,
        Op.MAC: _sram_mul,  # accumulate overlaps the final partial add
        Op.DIV: _sram_div,
        Op.AND: lambda n: n,
        Op.OR: lambda n: n,
        Op.XOR: lambda n: n,
        Op.NOT: lambda n: n,
        Op.SHL: lambda n: n,
        Op.SHR: lambda n: n,
        Op.ROTL: lambda n: n,
        Op.REDUCE_ADD: lambda n: 2 * n,  # inter-slot move + add, per level
    },
    MemoryKind.DRAM: {
        Op.ADD: lambda n: DRAM_STEP_FACTOR * n,
        Op.SUB: lambda n: DRAM_STEP_FACTOR * n,
        Op.MIN: lambda n: DRAM_STEP_FACTOR * 2 * n,
        Op.MAX: lambda n: DRAM_STEP_FACTOR * 2 * n,
        Op.ABS: lambda n: DRAM_STEP_FACTOR * 2 * n,
        Op.CMP: lambda n: DRAM_STEP_FACTOR * n,
        Op.SELECT: lambda n: DRAM_STEP_FACTOR * n,
        Op.MOV: lambda n: 2 * n,  # RowClone copies, no TRA needed
        Op.MUL: lambda n: DRAM_STEP_FACTOR * _sram_mul(n),
        Op.MAC: lambda n: DRAM_STEP_FACTOR * _sram_mul(n),
        Op.DIV: lambda n: DRAM_STEP_FACTOR * _sram_div(n),
        Op.AND: lambda n: 4 * n,  # one TRA sequence per bit-slice
        Op.OR: lambda n: 4 * n,
        Op.XOR: lambda n: 12 * n,  # composed from AND/OR/NOT
        Op.NOT: lambda n: 4 * n,  # dual-contact cell readout
        Op.SHL: lambda n: 2 * n,  # shifted RowClone
        Op.SHR: lambda n: 2 * n,
        Op.ROTL: lambda n: 2 * n,
        Op.REDUCE_ADD: lambda n: DRAM_STEP_FACTOR * 2 * n,
    },
    MemoryKind.RERAM: {
        Op.ADD: lambda n: 2,
        Op.SUB: lambda n: 2,
        Op.MIN: lambda n: 3,
        Op.MAX: lambda n: 3,
        Op.ABS: lambda n: 2,
        Op.CMP: lambda n: 2,
        Op.SELECT: lambda n: 2,
        Op.MOV: lambda n: 1,
        Op.MUL: lambda n: max(1, n // 2),  # one cycle per 2-bit input slice
        Op.MAC: lambda n: max(1, n // 2),
        Op.AND: lambda n: 8,  # read + peripheral logic + write back
        Op.OR: lambda n: 8,
        Op.XOR: lambda n: 8,
        Op.NOT: lambda n: 8,
        Op.SHL: lambda n: 1,  # peripheral shifter
        Op.SHR: lambda n: 1,
        Op.ROTL: lambda n: 2,
        Op.LUT: lambda n: 4,
        Op.REDUCE_ADD: lambda n: 4,  # in-array multi-row accumulate + move
    },
}

#: Legalisation rules: frontend op -> bag of (op, count) on that
#: target.  Expansion is recursive; every leaf must be native.
_EXPANSIONS: dict[MemoryKind, dict[Op, list[tuple[Op, int]]]] = {
    MemoryKind.SRAM: {
        # exp2(x) = 1 << int(x) times a 2-term polynomial in frac(x).
        Op.EXP2: [(Op.SHL, 1), (Op.MUL, 1), (Op.ADD, 2)],
        Op.LOG2: [(Op.CMP, 4), (Op.SHR, 1), (Op.MUL, 1), (Op.ADD, 2)],
        Op.SQRT: [(Op.MUL, 3), (Op.ADD, 2), (Op.SHR, 1)],  # Newton, 2 iters
        Op.RECIP: [(Op.MUL, 4), (Op.SUB, 2)],  # Newton-Raphson
        Op.LUT: [(Op.CMP, 4), (Op.SELECT, 4)],  # binary-searched table
    },
    MemoryKind.DRAM: {
        Op.EXP2: [(Op.SHL, 1), (Op.MUL, 1), (Op.ADD, 2)],
        Op.LOG2: [(Op.CMP, 4), (Op.SHR, 1), (Op.MUL, 1), (Op.ADD, 2)],
        Op.SQRT: [(Op.MUL, 3), (Op.ADD, 2), (Op.SHR, 1)],
        Op.RECIP: [(Op.MUL, 4), (Op.SUB, 2)],
        Op.LUT: [(Op.CMP, 4), (Op.SELECT, 4)],
    },
    MemoryKind.RERAM: {
        Op.EXP2: [(Op.LUT, 1), (Op.SHL, 1)],
        Op.LOG2: [(Op.LUT, 1), (Op.ADD, 1)],
        Op.SQRT: [(Op.LUT, 1), (Op.MUL, 1), (Op.ADD, 1)],  # LUT seed + 1 Newton
        Op.RECIP: [(Op.LUT, 1), (Op.MUL, 2), (Op.SUB, 1)],
        # Division is not analog-native: reciprocal LUT then multiply.
        Op.DIV: [(Op.RECIP, 1), (Op.MUL, 1)],
    },
}

_MAX_DEPTH = 8

# ----------------------------------------------------------------------
# Memoisation: op_cycles(kind, op, bits) is pure and its domain is tiny
# (3 targets x ~25 ops x a handful of bit widths), but the compiler
# asks for it once per DFG node, and lowering recursion re-derives the
# same expansions on every call.  The cache is unbounded by design --
# the key space cannot grow past |kinds| * |ops| * |bit widths in use|.
_CYCLE_CACHE: dict[tuple[MemoryKind, Op, int], float] = {}
_CACHE_HITS = 0
_CACHE_MISSES = 0


def clear_cache(reset_counters: bool = True) -> None:
    """Drop memoised cycle costs (and, by default, the counters)."""
    global _CACHE_HITS, _CACHE_MISSES
    _CYCLE_CACHE.clear()
    if reset_counters:
        _CACHE_HITS = 0
        _CACHE_MISSES = 0


def cache_stats() -> dict[str, dict]:
    """Hit/miss/occupancy of the cycle-cost memo (same shape as
    :func:`repro.core.perfmodel.cache_stats`)."""
    total = _CACHE_HITS + _CACHE_MISSES
    return {
        "timing.op_cycles": {
            "hits": _CACHE_HITS,
            "misses": _CACHE_MISSES,
            "hit_rate": _CACHE_HITS / total if total else 0.0,
            "size": len(_CYCLE_CACHE),
            "maxsize": None,
        }
    }


def is_native(kind: MemoryKind, op: Op) -> bool:
    return op in _NATIVE[kind]


def op_cycles(kind: MemoryKind, op: Op, bits: int = 16, _depth: int = 0) -> float:
    """Cycles for one frontend op on one SIMD lane of ``kind``.

    Non-native ops are recursively expanded through the legalisation
    rules; :class:`LoweringError` is raised if no rule applies.
    ``LOAD``/``STORE`` are not costed here -- data movement is priced
    by the memory-system model, not per lane.
    """
    global _CACHE_HITS, _CACHE_MISSES
    if bits <= 0:
        raise ValueError("bits must be positive")
    if op in (Op.LOAD, Op.STORE):
        return 0.0
    if _depth == 0:
        cached = _CYCLE_CACHE.get((kind, op, bits))
        if cached is not None:
            _CACHE_HITS += 1
            return cached
        _CACHE_MISSES += 1
    if _depth > _MAX_DEPTH:
        raise LoweringError(f"lowering of {op} on {kind} does not terminate")
    native = _NATIVE[kind].get(op)
    if native is not None:
        cycles = float(native(bits))
    else:
        expansion = _EXPANSIONS[kind].get(op)
        if expansion is None:
            raise LoweringError(f"{op} is not supported on {kind} and has no lowering")
        cycles = sum(
            count * op_cycles(kind, sub_op, bits, _depth + 1)
            for sub_op, count in expansion
        )
    if _depth == 0:
        _CYCLE_CACHE[(kind, op, bits)] = cycles
    return cycles


