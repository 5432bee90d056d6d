"""Event primitives for the discrete-event simulator."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

__all__ = ["Event", "EventHandle", "JobArrival"]


@dataclass(order=True)
class Event:
    """One scheduled callback.

    Ordering is (time, seq): ties break in scheduling order so the
    simulation is deterministic.  ``cancelled`` events stay in the
    heap as *tombstones* and are discarded lazily when popped (or in
    bulk when the owning simulator compacts its queue); ``executed``
    marks events that already fired, so a late ``cancel()`` cannot
    corrupt the simulator's pending-event accounting.
    """

    time: float
    seq: int
    callback: Callable[..., Any] = field(compare=False)
    args: tuple = field(compare=False, default=())
    cancelled: bool = field(compare=False, default=False)
    executed: bool = field(compare=False, default=False)


@dataclass(frozen=True, order=True)
class JobArrival:
    """One timed open-system job arrival (the serving layer's unit).

    The closed-batch dispatcher sees its whole queue at t = 0; an open
    system does not -- jobs materialise while the simulation runs.  A
    :class:`JobArrival` is the record of one such materialisation: at
    ``time``, ``tenant`` submitted ``job``.  Arrival processes
    (:mod:`repro.serving.arrivals`) produce deterministic, time-sorted
    lists of these, and the dispatcher turns each into a first-class
    simulator event via :meth:`Simulator.at_arrival`.

    Ordering is (time, seq), mirroring :class:`Event`: ties break in
    generation order so open-system runs stay deterministic.
    """

    time: float
    seq: int
    tenant: str = field(compare=False, default="")
    job: Any = field(compare=False, default=None)

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError(f"arrival time must be non-negative, got {self.time}")


@dataclass(frozen=True)
class EventHandle:
    """Opaque handle allowing an event to be cancelled.

    Cancellation is tombstone-based: the event is only flagged, never
    searched for in the heap (O(1) instead of O(n)); the simulator is
    notified so its O(1) pending count stays exact and it can compact
    the queue when tombstones pile up (processor-sharing transfers
    cancel and reschedule their completion on every membership change).
    """

    _event: Event
    _owner: Any = None

    def cancel(self) -> None:
        """Cancel the event; a no-op if it already fired or was
        already cancelled."""
        event = self._event
        if event.cancelled or event.executed:
            return
        event.cancelled = True
        if self._owner is not None:
            self._owner._note_cancelled()

    @property
    def active(self) -> bool:
        """True while the event is still going to fire."""
        return not (self._event.cancelled or self._event.executed)
