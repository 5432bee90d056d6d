"""A small deterministic discrete-event simulation engine.

The paper evaluates MLIMP with "an event-driven simulator with timing
models from IMP for in-ReRAM computing and Duality Cache for in-SRAM
computing" (Section IV).  This engine is the equivalent core: a
time-ordered event queue with deterministic tie-breaking, on top of
which the dispatcher (:mod:`repro.core.dispatcher`) models device
occupancy, job queues and shared-bandwidth transfers.

The hot loop is written for throughput:

* Heap entries are plain ``(time, seq, payload)`` tuples, so every
  sift during push/pop compares in C instead of calling a Python
  ``__lt__`` (``seq`` is unique, so the payload is never compared).
* :meth:`Simulator.run` drains every event sharing a timestamp in one
  chunk (one heap-top comparison per event instead of a full Python
  loop iteration of bookkeeping).
* Cancellation is tombstone-based with an O(1) active-event counter,
  and the heap is compacted in bulk only when tombstones dominate it
  (processor-sharing pipes cancel and reschedule completions on every
  membership change, so tombstones are the common case, not the
  exception).
* Besides callback events, the loop can fire *rows* of an attached
  columnar flight table (:meth:`at_row`): the payload is a bare row
  index and the transition logic lives in one handler, so the
  dispatcher's phase chain needs no per-phase closure or
  :class:`Event` object at all.  Row entries share the ``seq`` counter
  with ordinary events, so rows and callback events due at the same
  time fire in the order they were scheduled.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable

from .events import Event, EventHandle, JobArrival

__all__ = ["Simulator", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised for invalid simulator usage (e.g. scheduling in the past)."""


#: Compact the heap once it holds this many tombstones *and* they are
#: the majority of the queue.  Small enough to bound memory on
#: cancellation-heavy runs, large enough that compaction cost (O(n))
#: amortises over many pops.
_COMPACT_MIN_TOMBSTONES = 64


class Simulator:
    """Deterministic event loop.

    Events scheduled for the same timestamp fire in scheduling order.
    Callbacks may schedule further events; :meth:`run` drains the
    queue (optionally up to a horizon).
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._seq = 0
        #: Heap of ``(time, seq, payload)``; payload is an
        #: :class:`Event` or an ``int`` row index of the attached table.
        self._queue: list[tuple[float, int, Any]] = []
        self._processed = 0
        self._active = 0
        self._tombstones = 0
        self._fire_row: Callable[[int], None] | None = None

    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def pending(self) -> int:
        """Events scheduled and not yet executed or cancelled (O(1))."""
        return self._active

    @property
    def processed(self) -> int:
        """Events executed so far."""
        return self._processed

    # ------------------------------------------------------------------
    def at(self, time: float, callback: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute ``time``."""
        if time < self._now:
            raise SimulationError(f"cannot schedule at {time} < now {self._now}")
        event = Event(time=time, seq=self._seq, callback=callback, args=args)
        heapq.heappush(self._queue, (time, self._seq, event))
        self._seq += 1
        self._active += 1
        return EventHandle(event, self)

    def after(self, delay: float, callback: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` after ``delay`` seconds."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.at(self._now + delay, callback, *args)

    def at_arrival(
        self, arrival: JobArrival, callback: Callable[[JobArrival], Any]
    ) -> EventHandle:
        """Schedule ``callback(arrival)`` at the arrival's timestamp.

        Open-system job arrivals (:class:`~repro.sim.events.JobArrival`)
        become ordinary timed events; same-timestamp arrivals fire in
        scheduling order like any other event, so trace-driven and
        Poisson workloads replay deterministically.
        """
        return self.at(arrival.time, callback, arrival)

    # ------------------------------------------------------------------
    def attach_row_handler(self, fire: Callable[[int], None]) -> None:
        """Register the columnar table's transition handler.

        Row entries scheduled with :meth:`at_row` fire through this
        single handler; one simulator owns at most one table.
        """
        if self._fire_row is not None:
            raise SimulationError("a row handler is already attached")
        self._fire_row = fire

    def close(self) -> None:
        """Detach the row handler and drop every queued event unrun.

        The owner of a run calls this when the run is over, normally
        or not: the handler and queued callbacks usually point back
        into the owner, so dropping them lets reference counting free
        both.  A new handler may be attached afterwards.
        """
        self._fire_row = None
        self._queue = []
        self._active = 0
        self._tombstones = 0

    def at_row(self, time: float, row: int) -> None:
        """Schedule row ``row`` of the attached table at ``time``.

        Row entries are not cancellable (the handler must turn a stale
        transition into a no-op) and carry no :class:`Event`; they
        consume a ``seq`` like any event, so ordering against callback
        events is the same as if :meth:`at` had been used.
        """
        if time < self._now:
            raise SimulationError(f"cannot schedule at {time} < now {self._now}")
        heapq.heappush(self._queue, (time, self._seq, row))
        self._seq += 1
        self._active += 1

    def after_row(self, delay: float, row: int) -> None:
        """Schedule row ``row`` after ``delay`` seconds."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        self.at_row(self._now + delay, row)

    # ------------------------------------------------------------------
    def _note_cancelled(self) -> None:
        """Called by :meth:`EventHandle.cancel`: keep the O(1) pending
        count exact and remember the tombstone for compaction."""
        self._active -= 1
        self._tombstones += 1

    def _compact(self) -> None:
        """Drop every tombstone and re-heapify in one pass.

        Only called between chunks (no popped-but-unexecuted events in
        flight), where the tombstone count is exact.  Row entries are
        never tombstones.
        """
        self._queue = [
            entry
            for entry in self._queue
            if type(entry[2]) is int or not entry[2].cancelled
        ]
        heapq.heapify(self._queue)
        self._tombstones = 0

    def run(self, until: float | None = None, max_events: int | None = None) -> float:
        """Process events until the queue empties or the horizon passes.

        Returns the final simulation time.  ``max_events`` is a
        runaway guard for tests.

        Ready events are drained in same-timestamp chunks: the chunk
        is popped off the heap in one burst, then executed in seq
        order.  A callback may cancel a later member of its own chunk,
        so each event re-checks its tombstone immediately before
        firing; events a callback *schedules* at the current timestamp
        form the next chunk (they carry higher seq numbers, so
        ordering is unchanged from the one-at-a-time loop).
        """
        queue = self._queue
        fire_row = self._fire_row
        chunk: list[tuple[float, int, Any]] = []
        while queue:
            head = queue[0]
            payload = head[2]
            if type(payload) is not int and payload.cancelled:
                heapq.heappop(queue)
                self._tombstones -= 1
                continue
            if until is not None and head[0] > until:
                self._now = until
                return self._now
            chunk_time = head[0]
            del chunk[:]
            while queue and queue[0][0] == chunk_time:
                entry = heapq.heappop(queue)
                payload = entry[2]
                if type(payload) is not int and payload.cancelled:
                    self._tombstones -= 1
                    continue
                chunk.append(entry)
            self._now = chunk_time
            for idx, entry in enumerate(chunk):
                payload = entry[2]
                if type(payload) is not int and payload.cancelled:
                    # Cancelled by an earlier callback in this chunk.
                    self._tombstones -= 1
                    continue
                if max_events is not None and self._processed >= max_events:
                    # The guard may trip mid-chunk; the rest of the
                    # chunk was already popped, so push it back before
                    # raising or the pending/tombstone accounting is
                    # corrupted and those events are silently lost.
                    for unexecuted in chunk[idx:]:
                        heapq.heappush(queue, unexecuted)
                    raise SimulationError(f"exceeded max_events={max_events}")
                self._processed += 1
                self._active -= 1
                if type(payload) is int:
                    fire_row(payload)
                else:
                    payload.executed = True
                    payload.callback(*payload.args)
            if (
                self._tombstones >= _COMPACT_MIN_TOMBSTONES
                and self._tombstones * 2 > len(queue)
            ):
                self._compact()
                queue = self._queue
        if until is not None:
            self._now = max(self._now, until)
        return self._now

    def step(self) -> bool:
        """Process exactly one event; returns False when queue is empty."""
        while self._queue:
            time, _, payload = heapq.heappop(self._queue)
            if type(payload) is int:
                self._now = time
                self._processed += 1
                self._active -= 1
                self._fire_row(payload)
                return True
            if payload.cancelled:
                self._tombstones -= 1
                continue
            self._now = time
            payload.executed = True
            self._processed += 1
            self._active -= 1
            payload.callback(*payload.args)
            return True
        return False
