"""Unit tests for the columnar flight table and streaming trace."""

import pytest

from repro.sim import FlightColumns, Phase, StreamingTrace, Simulator
from repro.sim.trace import TraceRecord


class TestFlightColumns:
    def test_acquire_hands_out_low_rows_first(self):
        col = FlightColumns(capacity=4)
        assert [col.acquire() for _ in range(4)] == [0, 1, 2, 3]
        assert col.in_flight == 4

    def test_release_recycles_and_clears_objects(self):
        col = FlightColumns(capacity=2)
        row = col.acquire()
        col.job[row] = object()
        col.dispatch[row] = object()
        col.state[row] = 3
        col.release(row)
        assert col.job[row] is None
        assert col.dispatch[row] is None
        assert col.in_flight == 0
        assert col.acquire() == row

    def test_grow_doubles_and_preserves_live_rows(self):
        col = FlightColumns(capacity=2)
        a, b = col.acquire(), col.acquire()
        col.t0[a] = 1.5
        col.attempt[b] = 7
        col.job[a] = "keep"
        c = col.acquire()  # triggers growth
        assert col.capacity == 4
        assert col.t0[a] == 1.5
        assert col.attempt[b] == 7
        assert col.job[a] == "keep"
        assert c not in (a, b)
        assert col.in_flight == 3

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            FlightColumns(capacity=0)


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


class TestStreamingTrace:
    def _fill(self, trace):
        trace.record("j0", "DRAM", Phase.FILL, 0.0, 1.0, arrays=2)
        trace.record("j0", "DRAM", Phase.COMPUTE, 1.0, 4.0)
        trace.record("j1", "RRAM", Phase.COMPUTE, 0.5, 2.0)

    def test_aggregates_match_full_trace(self):
        from repro.sim import ExecutionTrace

        streaming, full = StreamingTrace(), ExecutionTrace()
        self._fill(streaming)
        self._fill(full)
        assert streaming.makespan == full.makespan
        assert streaming.devices() == full.devices()
        assert streaming.phase_time(Phase.COMPUTE) == full.phase_time(
            Phase.COMPUTE
        )
        assert (
            streaming.per_device_phase_breakdown()
            == full.per_device_phase_breakdown()
        )
        assert streaming.rows == 3

    def test_sink_receives_every_row(self):
        rows = []
        trace = StreamingTrace(sink=rows.append)
        self._fill(trace)
        assert rows == [
            ("j0", "DRAM", "fill", 0.0, 1.0, 2),
            ("j0", "DRAM", "compute", 1.0, 4.0, 0),
            ("j1", "RRAM", "compute", 0.5, 2.0, 0),
        ]

    def test_add_accepts_trace_records(self):
        trace = StreamingTrace()
        trace.add(TraceRecord("j", "DRAM", Phase.FILL, 0.0, 2.0))
        assert trace.makespan == 2.0

    def test_row_level_queries_raise(self):
        trace = StreamingTrace()
        with pytest.raises(TypeError):
            trace.records

    def test_rejects_backwards_interval(self):
        trace = StreamingTrace()
        with pytest.raises(ValueError):
            trace.record("j", "DRAM", Phase.FILL, 1.0, 0.5)

    def test_memory_stays_flat(self):
        """No per-row state: a large run's footprint is O(devices)."""
        trace = StreamingTrace()
        for i in range(10_000):
            trace.record(f"j{i}", "DRAM", Phase.COMPUTE, float(i), i + 0.5)
        assert trace.rows == 10_000
        # Only aggregates retained -- nothing sized by row count.
        assert set(trace.__slots__) == {
            "sink",
            "rows",
            "_makespan",
            "_phase_seconds",
            "_by_device",
        }
        assert len(trace._by_device) == 1
