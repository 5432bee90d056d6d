"""Struct-of-arrays storage for in-flight job phases (the columnar
simulation hot path).

Each launched job is one *row* of a :class:`FlightColumns` table: the
in-flight state lives in parallel Python lists -- numeric columns
(phase state code, compute start time, launch attempt, fill bytes)
and object columns for the per-row context (job, dispatch, profile,
...).  Lists rather than NumPy arrays, because the table is read and
written one element per event, where a list index is cheaper than
boxing a NumPy scalar.  A phase transition is a bare row index in the
simulator's heap (:meth:`~repro.sim.engine.Simulator.at_row`); the
engine's chunked drain fires every same-timestamp row through one
registered handler, which advances the row's fill -> replicate ->
compute state machine in place.  No per-phase closures, no ``Event``
objects, no per-transition heap handle -- and row entries consume
sequence numbers from the same counter as ordinary events, so rows
and events fire in one deterministic order.

Rows are recycled through a free list, so the table's footprint is
bounded by the *concurrent* in-flight population, not by the total
number of jobs simulated.
"""

from __future__ import annotations

__all__ = [
    "FlightColumns",
    "PHASE_BEGIN_FILL",
    "PHASE_FILL_DONE",
    "PHASE_REPLICATE_DONE",
    "PHASE_COMPUTE_DONE",
]

#: Row state codes: which transition fires when the row is due.
PHASE_BEGIN_FILL = 0
PHASE_FILL_DONE = 1
PHASE_REPLICATE_DONE = 2
PHASE_COMPUTE_DONE = 3

#: Rows a fresh table holds before its first doubling.
INITIAL_ROWS = 64

#: Numeric columns and the zero a fresh row holds.
_NUMERIC = {"state": 0, "t0": 0.0, "attempt": 0, "fill_bytes": 0.0}
_OBJECT = ("job", "kind", "dispatch", "profile", "spec", "record", "flight", "alloc")


class FlightColumns:
    """Parallel columns describing every in-flight job phase row.

    Every column is a Python list, grown by doubling.  The table
    itself is policy-free: the dispatcher owns the transition logic
    and this class owns the storage.
    """

    __slots__ = (*_NUMERIC, *_OBJECT, "free")

    def __init__(self) -> None:
        for name, zero in _NUMERIC.items():
            setattr(self, name, [zero] * INITIAL_ROWS)
        for name in _OBJECT:
            setattr(self, name, [None] * INITIAL_ROWS)
        # Popping from the tail hands out low indices first, which
        # keeps the live region of the columns dense.
        self.free = list(range(INITIAL_ROWS - 1, -1, -1))

    @property
    def capacity(self) -> int:
        return len(self.state)

    def acquire(self) -> int:
        """Claim a free row index, doubling the columns when full."""
        if not self.free:
            self._grow()
        return self.free.pop()

    def release(self, row: int) -> None:
        """Return a row to the free list, dropping its object refs so
        finished jobs do not outlive their flight."""
        for name in _OBJECT:
            getattr(self, name)[row] = None
        self.free.append(row)

    def _grow(self) -> None:
        old = self.capacity
        for name, zero in _NUMERIC.items():
            getattr(self, name).extend([zero] * old)
        for name in _OBJECT:
            getattr(self, name).extend([None] * old)
        self.free.extend(range(2 * old - 1, old - 1, -1))
