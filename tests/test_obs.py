"""Observability layer: metrics, decision rows, trace analytics, export."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Dispatcher, DispatchError
from repro.core.dispatcher import JobRecord
from repro.core.scheduler.base import Dispatch
from repro.memories import MemoryKind
from repro.obs import (
    Counter,
    Gauge,
    MetricsRegistry,
    RunReport,
    build_report,
    decision_rows,
    nearest_rank,
    result_payload,
    write_results_json,
    write_trace_csv,
)
from repro.sim.trace import ExecutionTrace, Phase
from tests.test_core_dispatcher import StaticPolicy, job, make_system, spec


class TestNearestRank:
    def test_textbook_example(self):
        # Classic nearest-rank example: 5 values, p30 -> 2nd value.
        values = [15.0, 20.0, 35.0, 40.0, 50.0]
        assert nearest_rank(values, 0.30) == 20.0
        assert nearest_rank(values, 0.40) == 20.0
        assert nearest_rank(values, 0.50) == 35.0
        assert nearest_rank(values, 1.00) == 50.0

    def test_single_value(self):
        assert nearest_rank([7.0], 0.01) == 7.0
        assert nearest_rank([7.0], 1.0) == 7.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            nearest_rank([], 0.5)
        with pytest.raises(ValueError):
            nearest_rank([1.0], 0.0)
        with pytest.raises(ValueError):
            nearest_rank([1.0], 1.5)


class TestCounter:
    def test_inc(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Counter("c").inc(-1)


class TestGauge:
    def test_step_function_mean(self):
        gauge = Gauge("g")
        gauge.set(0.0, 2)  # 2 for [0, 1)
        gauge.set(1.0, 4)  # 4 for [1, 3)
        gauge.set(3.0, 0)
        # Over [0, 3]: (2*1 + 4*2) / 3
        assert gauge.time_weighted_mean() == pytest.approx(10 / 3)

    def test_horizon_extends_last_value(self):
        gauge = Gauge("g")
        gauge.set(0.0, 1)
        gauge.set(2.0, 3)
        # 1 for [0,2), 3 for [2,4): (2 + 6) / 4
        assert gauge.time_weighted_mean(horizon=4.0) == pytest.approx(2.0)

    def test_same_time_overwrites(self):
        gauge = Gauge("g")
        gauge.set(1.0, 5)
        gauge.set(1.0, 7)
        assert gauge.samples == [(1.0, 7.0)]
        assert gauge.value == 7.0

    def test_time_regression_rejected(self):
        gauge = Gauge("g")
        gauge.set(2.0, 1)
        with pytest.raises(ValueError):
            gauge.set(1.0, 1)

    def test_empty_gauge(self):
        gauge = Gauge("g")
        assert gauge.value == 0.0
        assert gauge.max_value == 0.0
        assert gauge.time_weighted_mean() == 0.0


class TestMetricsRegistry:
    def test_lazy_creation_and_reuse(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("b") is registry.gauge("b")

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("jobs").inc(3)
        registry.gauge("depth").set(0.0, 1)
        registry.gauge("depth").set(1.0, 0)
        snap = registry.snapshot(horizon=2.0)
        assert snap["counters"]["jobs"] == 3
        assert snap["gauges"]["depth"]["samples"] == 2
        assert snap["gauges"]["depth"]["time_weighted_mean"] == pytest.approx(0.5)
        assert snap["histograms"] == {}
        json.dumps(snap)  # must be JSON-serialisable


def _row(job_id, latency, predicted=None) -> JobRecord:
    return JobRecord(
        job_id=job_id,
        kind=MemoryKind.SRAM,
        arrays=4,
        dispatched_at=0.0,
        finished_at=latency,
        decided_device="sram",
        decided_arrays=4,
        predicted_time=predicted,
    )


def _rows_result(*rows, failed=()):
    """A fake result holding ``rows``; the ``failed`` job ids failed."""
    result = _FakeResult(ExecutionTrace())
    result.rows = {row.job_id: row for row in rows}
    result.failed_jobs = {job_id: "device failed" for job_id in failed}
    return result


class TestDecisionLog:
    """The decision rows folded from the dispatcher's per-job rows."""

    def test_record_and_complete(self):
        (decision,) = decision_rows(_rows_result(_row("j1", 2.0, predicted=1.0)))
        assert decision["device"] == "sram"
        assert decision["actual_time"] == 2.0
        # Signed (actual - predicted) / actual: underestimate is positive.
        assert decision["relative_error"] == pytest.approx(0.5)

    def test_duplicate_record_rejected(self):
        # A second launch of a job without a fault plan would write a
        # second row for it: the dispatcher refuses.
        dispatch = Dispatch(job=job("j1"), kind=MemoryKind.SRAM, arrays=4)
        with pytest.raises(DispatchError, match="dispatched twice"):
            Dispatcher(make_system(spec())).run(StaticPolicy([dispatch, dispatch]))

    def test_error_summary(self):
        result = _rows_result(
            _row("a", 2.0, predicted=1.0),  # |rel err| 0.5 (underestimate)
            _row("b", 2.0, predicted=4.0),  # |rel err| 1.0 (overestimate)
            _row("c", 0.0, predicted=1.0),  # failed: no measured time
            failed=("c",),
        )
        assert decision_rows(result)[2]["actual_time"] is None
        summary = build_report(result).predictor
        assert summary["count"] == 2
        assert summary["mean_abs_rel_error"] == pytest.approx(0.75)
        assert summary["max_abs_rel_error"] == pytest.approx(1.0)
        assert summary["mean_signed_rel_error"] == pytest.approx(-0.25)

    def test_no_predictions_yields_none(self):
        result = _rows_result(_row("a", 1.0))  # no predicted_time
        assert build_report(result).predictor is None


def make_trace() -> ExecutionTrace:
    """Two devices; dev0 has one bubble of 1.0s between its jobs."""
    trace = ExecutionTrace()
    trace.record("a", "dev0", Phase.FILL, 0.0, 1.0, 4)
    trace.record("a", "dev0", Phase.COMPUTE, 1.0, 2.0, 4)
    trace.record("b", "dev0", Phase.COMPUTE, 3.0, 4.0, 4)
    trace.record("c", "dev1", Phase.COMPUTE, 0.0, 4.0, 8)
    return trace


# -- reference models ---------------------------------------------------
# The two implementations the report's one sweep replaced, kept as they
# were: the Python merge behind first/last activity and bubbles, and the
# NumPy union behind busy time and utilisation.

MIN_BUBBLE_FRACTION = 1e-9


def merged_intervals(trace: ExecutionTrace, device: str) -> list[tuple[float, float]]:
    """The device's activity as disjoint, sorted (start, end) intervals."""
    intervals = sorted(
        (r.start, r.end) for r in trace.records if r.device == device
    )
    merged: list[tuple[float, float]] = []
    for start, end in intervals:
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


def bubbles(trace: ExecutionTrace, device: str) -> tuple[int, float]:
    """Idle gaps past a sliver of the span: ``(count, total_seconds)``."""
    merged = merged_intervals(trace, device)
    if len(merged) < 2:
        return 0, 0.0
    min_gap = (merged[-1][1] - merged[0][0]) * MIN_BUBBLE_FRACTION
    count, total = 0, 0.0
    for (_, end), (start, _) in zip(merged, merged[1:]):
        gap = start - end
        if gap > min_gap:
            count += 1
            total += gap
    return count, total


def _union_length(pairs: np.ndarray) -> float:
    """Union length of lexsorted intervals, vectorised."""
    if not pairs.size:
        return 0.0
    starts, ends = pairs[:, 0], pairs[:, 1]
    cover = np.empty_like(ends)
    cover[0] = starts[0]
    np.maximum.accumulate(ends[:-1], out=cover[1:])
    cover[1:] = np.maximum(cover[1:], starts[1:])
    cover[0] = starts[0]
    return float(np.maximum(0.0, ends - cover).sum())


def reference_busy_time(trace: ExecutionTrace, device: str) -> float:
    rows = [(r.start, r.end) for r in trace.records if r.device == device]
    pairs = np.array(rows, dtype=np.float64).reshape(-1, 2)
    if pairs.size:
        pairs = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]
    return _union_length(pairs)


def reference_phase_seconds(trace: ExecutionTrace) -> dict[str, dict[str, float]]:
    out: dict[str, dict[str, float]] = {}
    for r in trace.records:
        phases = out.setdefault(r.device, {})
        phases[r.phase.value] = phases.get(r.phase.value, 0.0) + (r.end - r.start)
    return out


class TestTraceAnalytics:
    def test_merged_intervals(self):
        trace = make_trace()
        assert merged_intervals(trace, "dev0") == [(0.0, 2.0), (3.0, 4.0)]
        assert merged_intervals(trace, "dev1") == [(0.0, 4.0)]
        devices = build_report(_FakeResult(trace)).devices
        assert (devices["dev0"].first_activity, devices["dev0"].last_activity) == (
            0.0,
            4.0,
        )
        assert devices["dev0"].busy_time == 3.0
        assert devices["dev1"].busy_time == 4.0

    def test_bubble_detection(self):
        devices = build_report(_FakeResult(make_trace())).devices
        assert devices["dev0"].bubble_count == 1
        assert devices["dev0"].bubble_time == pytest.approx(1.0)
        assert (devices["dev1"].bubble_count, devices["dev1"].bubble_time) == (0, 0.0)

    def test_min_gap_filters_slivers(self):
        trace = ExecutionTrace()
        trace.record("a", "dev", Phase.COMPUTE, 0.0, 1.0)
        trace.record("b", "dev", Phase.COMPUTE, 1.0 + 1e-15, 2.0)
        dev = build_report(_FakeResult(trace)).devices["dev"]
        assert (dev.bubble_count, dev.bubble_time) == (0, 0.0)

    def test_report_string_renders(self):
        report = RunReport(
            scheduler="test", makespan=1.0, n_jobs=0, mean_latency=0.0,
            p99_latency=0.0,
        )
        text = str(report)
        assert "dispatch report" in text
        assert "predictor error: n/a" in text

    def test_build_report_leaves_trace_appendable(self):
        trace = make_trace()
        build_report(_FakeResult(trace))
        trace.record("d", "dev1", Phase.COMPUTE, 4.0, 5.0)
        assert len(trace) == 5


# Start times: a coarse shared grid (equal starts, touching and nested
# intervals) or any float; a start may be nudged past a grid point by a
# sliver below or above the bubble threshold.
_grid = st.integers(0, 8).map(lambda k: k * 0.5)
_start = st.one_of(_grid, st.floats(0.0, 5.0, allow_nan=False))
_length = st.one_of(
    st.just(0.0), st.integers(1, 4).map(lambda k: k * 0.5), st.floats(0.0, 2.0)
)
_nudge = st.sampled_from([0.0, 0.0, 1e-15, 1e-12, 1e-6])
_rows = st.lists(
    st.tuples(
        st.sampled_from(["dev0", "dev1", "dev2"]),
        st.sampled_from(list(Phase)),
        _start,
        _length,
        _nudge,
    ),
    min_size=1,
    max_size=40,
)


class TestSweepMatchesReferences:
    @settings(max_examples=300, deadline=None)
    @given(_rows)
    def test_device_fields_bit_exact(self, rows):
        trace = ExecutionTrace()
        for i, (device, phase, start, length, nudge) in enumerate(rows):
            start += nudge
            trace.record(f"j{i}", device, phase, start, start + length)
        report = build_report(_FakeResult(trace))
        phases = reference_phase_seconds(trace)
        assert list(report.devices) == sorted(phases)
        for device, dev in report.devices.items():
            merged = merged_intervals(trace, device)
            busy = reference_busy_time(trace, device)
            assert dev.first_activity == merged[0][0]
            assert dev.last_activity == merged[-1][1]
            assert dev.busy_time == busy
            assert dev.utilisation == (
                busy / trace.makespan if trace.makespan else 0.0
            )
            assert (dev.bubble_count, dev.bubble_time) == bubbles(trace, device)
            assert dev.phase_seconds == phases[device]
            assert list(dev.phase_seconds) == list(phases[device])


class _FakeResult:
    """Duck-typed DispatchResult for build_report/export tests."""

    def __init__(self, trace):
        self.trace = trace
        self.records = {}
        self.rows = {}
        self.failed_jobs = {}
        self.scheduler_name = "fake"
        self.makespan = trace.makespan
        self.metrics = None

    def mean_latency(self):
        return 0.0

    def tail_latency(self, q=0.99):
        return 0.0


class TestBuildReport:
    def test_device_numbers(self):
        report = build_report(_FakeResult(make_trace()))
        dev0 = report.devices["dev0"]
        assert dev0.busy_time == pytest.approx(3.0)
        assert dev0.utilisation == pytest.approx(3.0 / 4.0)
        assert dev0.bubble_count == 1
        assert dev0.bubble_time == pytest.approx(1.0)
        assert dev0.phase_seconds["fill"] == pytest.approx(1.0)
        assert dev0.phase_seconds["compute"] == pytest.approx(2.0)
        dev1 = report.devices["dev1"]
        assert dev1.utilisation == pytest.approx(1.0)
        assert report.predictor is None


class TestExport:
    def test_json_and_csv_roundtrip(self, tmp_path):
        result = _FakeResult(make_trace())

        class _Ledger:
            def total(self):
                return 0.0

        result.energy = _Ledger()
        payload = result_payload(result)
        assert payload["scheduler"] == "fake"
        assert len(payload["trace"]) == 4

        json_path = write_results_json(result, tmp_path / "runs.json")
        data = json.loads(json_path.read_text())
        assert len(data["runs"]) == 1
        assert data["runs"][0]["report"]["devices"]["dev0"]["bubble_count"] == 1

        csv_path = write_trace_csv([result, result], tmp_path / "trace.csv")
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0].startswith("run,job_id,device,phase")
        assert len(lines) == 1 + 2 * 4  # header + 2 runs x 4 records
        assert lines[1].startswith("0,") and lines[5].startswith("1,")
