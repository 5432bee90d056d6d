"""Unit tests for the columnar flight table."""

import pytest

from repro.sim import FlightColumns, Simulator
from repro.sim.columnar import INITIAL_ROWS


class TestFlightColumns:
    def test_acquire_hands_out_low_rows_first(self):
        col = FlightColumns()
        assert [col.acquire() for _ in range(4)] == [0, 1, 2, 3]
        assert len(col.free) == col.capacity - 4

    def test_release_recycles_and_clears_objects(self):
        col = FlightColumns()
        row = col.acquire()
        col.job[row] = object()
        col.dispatch[row] = object()
        col.state[row] = 3
        col.release(row)
        assert col.job[row] is None
        assert col.dispatch[row] is None
        assert len(col.free) == col.capacity
        assert col.acquire() == row

    def test_grow_doubles_and_preserves_live_rows(self):
        col = FlightColumns()
        rows = [col.acquire() for _ in range(INITIAL_ROWS)]
        a, b = rows[0], rows[-1]
        col.t0[a] = 1.5
        col.attempt[b] = 7
        col.job[a] = "keep"
        c = col.acquire()  # triggers growth
        assert col.capacity == 2 * INITIAL_ROWS
        assert col.t0[a] == 1.5
        assert col.attempt[b] == 7
        assert col.job[a] == "keep"
        assert c not in rows
        assert len(col.free) == INITIAL_ROWS - 1


class TestRowScheduling:
    def test_rows_and_events_share_one_seq_order(self):
        """A row armed before an event at the same time fires first --
        rows consume the same sequence counter as ordinary events."""
        sim = Simulator()
        log = []
        sim.attach_row_handler(lambda row: log.append(("row", row)))
        sim.at_row(1.0, 5)
        sim.at(1.0, lambda: log.append(("event",)))
        sim.at_row(1.0, 9)
        sim.run()
        assert log == [("row", 5), ("event",), ("row", 9)]
        assert sim._processed == 3

    def test_second_handler_rejected(self):
        sim = Simulator()
        sim.attach_row_handler(lambda row: None)
        with pytest.raises(RuntimeError):
            sim.attach_row_handler(lambda row: None)

    def test_row_in_past_rejected(self):
        from repro.sim import SimulationError

        sim = Simulator()
        sim.attach_row_handler(lambda row: None)
        sim.at(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.at_row(0.5, 1)
        with pytest.raises(SimulationError):
            sim.after_row(-0.1, 1)
