"""Functional bit-serial compute model (Neural Cache, paper II-B1).

The timing models elsewhere assume the bit-serial array can really
compute; this module *demonstrates* it.  Operands are stored
bit-transposed -- bit ``b`` of every lane's element lives in wordline
``b`` -- and arithmetic proceeds one bit-slice at a time across all
lanes using only the operations the peripheral provides: read a
wordline, a 1-bit full adder per bitline (Fig. 2(b)), write a
wordline.  Cycle counts are tallied per wordline operation, so the
paper's formulas (n-cycle add, ``n^2 + 3n - 2``-cycle multiply) are
*measured*, not asserted.

This is a correctness/costing reference, not the fast path: the
event-driven simulator keeps using the closed-form cycle counts this
model validates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["BitSerialArray"]


def _to_bits(values: np.ndarray, bits: int) -> np.ndarray:
    """(lanes,) unsigned ints -> (bits, lanes) bit-planes, LSB first."""
    lanes = values.shape[0]
    planes = np.zeros((bits, lanes), dtype=bool)
    for b in range(bits):
        planes[b] = (values >> b) & 1
    return planes


def _from_bits(planes: np.ndarray) -> np.ndarray:
    bits, _ = planes.shape
    out = np.zeros(planes.shape[1], dtype=np.int64)
    for b in range(bits):
        out |= planes[b].astype(np.int64) << b
    return out


@dataclass
class BitSerialArray:
    """One SRAM compute array: ``lanes`` bitlines x ``rows`` wordlines.

    Values are stored bit-transposed in named *registers* (groups of
    ``bits`` consecutive wordlines).  Every wordline activation --
    read or write -- costs one cycle, matching the in-SRAM model where
    each cycle performs one multi-row sense plus the peripheral logic.
    """

    lanes: int
    rows: int = 256
    bits: int = 16
    cycles: int = 0
    _storage: dict[str, np.ndarray] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.lanes < 1 or self.rows < 1 or not 1 <= self.bits <= 62:
            raise ValueError("bad array geometry")

    # -- storage -------------------------------------------------------
    @property
    def mask(self) -> int:
        return (1 << self.bits) - 1

    def store(self, name: str, values) -> None:
        """Write a register (costs nothing: modelled as the fill)."""
        values = np.asarray(values, dtype=np.int64)
        if values.shape != (self.lanes,):
            raise ValueError(f"expected {self.lanes} lane values")
        used = len(self._storage) * self.bits
        if name not in self._storage and used + self.bits > self.rows:
            raise ValueError("array rows exhausted")
        self._storage[name] = _to_bits(values & self.mask, self.bits)

    def load(self, name: str) -> np.ndarray:
        """Read a register back as unsigned integers (free, via I/O)."""
        return _from_bits(self._storage[name])

    def _plane(self, name: str, b: int) -> np.ndarray:
        self.cycles += 1  # one wordline activation
        return self._storage[name][b]

    def _ensure(self, name: str) -> None:
        if name not in self._storage:
            self.store(name, np.zeros(self.lanes, dtype=np.int64))

    # -- arithmetic ----------------------------------------------------
    def add(self, dst: str, a: str, b: str) -> int:
        """dst = a + b (mod 2^bits); returns cycles spent.

        One cycle per bit-slice: the reconfigurable sense amp reads
        both operand slices simultaneously (BL and BLB sensing), the
        peripheral full adder combines them with the carry latch, and
        the sum slice is written back in the same cycle -- n cycles
        for n bits, the paper's figure.
        """
        start = self.cycles
        self._ensure(dst)
        carry = np.zeros(self.lanes, dtype=bool)
        for bit in range(self.bits):
            # Dual-wordline activation senses both slices in one cycle.
            self.cycles += 1
            x = self._storage[a][bit]
            y = self._storage[b][bit]
            total = x.astype(np.int8) + y.astype(np.int8) + carry.astype(np.int8)
            self._storage[dst][bit] = (total & 1).astype(bool)
            carry = total >= 2
        return self.cycles - start

    def multiply(self, dst: str, a: str, b: str) -> int:
        """dst = a * b (mod 2^bits); returns cycles spent.

        Shift-and-add over partial products: for every multiplier bit,
        one cycle reads the predicate slice, then the predicated
        partial-product addition runs bit-serially over the remaining
        width, with two bookkeeping cycles per iteration for the
        tag/carry management -- totalling ``n^2 + 3n - 2`` cycles as
        published for Neural Cache.
        """
        start = self.cycles
        self._ensure(dst)
        acc = np.zeros((self.bits, self.lanes), dtype=bool)
        for i in range(self.bits):
            predicate = self._plane(b, i)  # 1 cycle: read multiplier bit
            carry = np.zeros(self.lanes, dtype=bool)
            # Predicated add of the shifted multiplicand into the
            # accumulator; the hardware ripples over the full register
            # width every iteration (one cycle per slice).
            for j in range(self.bits):
                self.cycles += 1
                if i + j >= self.bits:
                    continue  # slice beyond the register; cycle still spent
                x = np.where(predicate, self._storage[a][j], False)
                y = acc[i + j]
                total = x.astype(np.int8) + y.astype(np.int8) + carry.astype(np.int8)
                acc[i + j] = (total & 1).astype(bool)
                carry = total >= 2
            # Tag write + carry-latch reset, skipped after the last
            # partial product.
            if i < self.bits - 1:
                self.cycles += 2
        self._storage[dst] = acc
        return self.cycles - start

    def bitwise(self, dst: str, a: str, b: str, op: str) -> int:
        """dst = a <op> b for op in {and, or, xor}; one cycle per slice."""
        start = self.cycles
        self._ensure(dst)
        for bit in range(self.bits):
            self.cycles += 1
            x = self._storage[a][bit]
            y = self._storage[b][bit]
            if op == "and":
                self._storage[dst][bit] = x & y
            elif op == "or":
                self._storage[dst][bit] = x | y
            elif op == "xor":
                self._storage[dst][bit] = x ^ y
            else:
                raise ValueError(f"unknown bitwise op {op!r}")
        return self.cycles - start
