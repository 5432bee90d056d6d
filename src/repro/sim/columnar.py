"""Struct-of-arrays storage for in-flight job phases (the columnar
simulation hot path).

Each launched job is one *row* of a :class:`FlightColumns` table: the
in-flight state lives in parallel NumPy arrays (phase state code,
compute start time, launch attempt, fill bytes) plus parallel object
columns for the per-row context (job, dispatch, profile, ...).  A
phase transition is a bare row index in the simulator's heap
(:meth:`~repro.sim.engine.Simulator.at_row`); the engine's chunked
drain fires every same-timestamp row through one registered handler,
which advances the row's fill -> replicate -> compute state machine in
place.  No per-phase closures, no ``Event`` objects, no per-transition
heap handle -- and row entries consume sequence numbers from the same
counter as ordinary events, so rows and events fire in one
deterministic order.

Rows are recycled through a free list, so the table's footprint is
bounded by the *concurrent* in-flight population, not by the total
number of jobs simulated.
"""

from __future__ import annotations

import numpy as np

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

_NUMERIC = ("state", "t0", "attempt", "fill_bytes")
_OBJECT = ("job", "kind", "dispatch", "profile", "spec", "record", "flight", "alloc")


class FlightColumns:
    """Parallel columns describing every in-flight job phase row.

    Numeric columns are NumPy arrays (grown by doubling); object
    context rides in parallel Python lists.  The table itself is
    policy-free: the dispatcher owns the transition logic and this
    class owns the storage.
    """

    __slots__ = _NUMERIC + _OBJECT + ("free",)

    def __init__(self, capacity: int = 64) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.state = np.zeros(capacity, dtype=np.int8)
        self.t0 = np.zeros(capacity, dtype=np.float64)
        self.attempt = np.zeros(capacity, dtype=np.int64)
        self.fill_bytes = np.zeros(capacity, dtype=np.float64)
        for name in _OBJECT:
            setattr(self, name, [None] * capacity)
        # Popping from the tail hands out low indices first, which
        # keeps the live region of the arrays dense.
        self.free = list(range(capacity - 1, -1, -1))

    @property
    def capacity(self) -> int:
        return len(self.state)

    @property
    def in_flight(self) -> int:
        """Rows currently acquired (phase transitions armed or pending)."""
        return self.capacity - len(self.free)

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
        for name in _NUMERIC:
            column = getattr(self, name)
            setattr(
                self,
                name,
                np.concatenate([column, np.zeros(old, dtype=column.dtype)]),
            )
        for name in _OBJECT:
            getattr(self, name).extend([None] * old)
        self.free.extend(range(2 * old - 1, old - 1, -1))
