"""Execution traces and the energy ledger."""

import pytest

from repro.core.dispatcher import DispatchResult
from repro.obs import build_report
from repro.sim import EnergyCategory, EnergyLedger, ExecutionTrace, Phase, TraceRecord


def device_reports(trace):
    """The per-device section of the run report over ``trace``."""
    result = DispatchResult(
        makespan=trace.makespan, trace=trace, energy=EnergyLedger(), records={}
    )
    return build_report(result).devices


class TestTrace:
    def make_trace(self):
        trace = ExecutionTrace()
        trace.record("j1", "sram", Phase.FILL, 0.0, 1.0, arrays=4)
        trace.record("j1", "sram", Phase.COMPUTE, 1.0, 3.0, arrays=4)
        trace.record("j2", "reram", Phase.COMPUTE, 0.5, 2.0, arrays=8)
        trace.record("j3", "sram", Phase.COMPUTE, 4.0, 5.0, arrays=2)
        return trace

    def test_makespan(self):
        assert self.make_trace().makespan == 5.0
        assert ExecutionTrace().makespan == 0.0

    def test_busy_time_merges_overlaps(self):
        trace = ExecutionTrace()
        trace.record("a", "d", Phase.COMPUTE, 0.0, 2.0)
        trace.record("b", "d", Phase.COMPUTE, 1.0, 3.0)
        trace.record("c", "d", Phase.COMPUTE, 5.0, 6.0)
        assert device_reports(trace)["d"].busy_time == pytest.approx(4.0)

    def test_bubble_time_is_internal_idle(self):
        devices = device_reports(self.make_trace())
        # sram active [0,3] and [4,5]: bubble = 1.
        assert devices["sram"].bubble_time == pytest.approx(1.0)
        assert devices["reram"].bubble_time == pytest.approx(0.0)
        assert "absent" not in devices

    def test_utilisation(self):
        devices = device_reports(self.make_trace())
        assert devices["sram"].utilisation == pytest.approx(4.0 / 5.0)

    def test_phase_time(self):
        devices = device_reports(self.make_trace()).values()
        fill = sum(d.phase_seconds.get("fill", 0.0) for d in devices)
        compute = sum(d.phase_seconds.get("compute", 0.0) for d in devices)
        assert fill == pytest.approx(1.0)
        assert compute == pytest.approx(4.5)

    def test_breakdown(self):
        breakdown = device_reports(self.make_trace())["sram"].phase_seconds
        assert breakdown["compute"] == pytest.approx(3.0)
        assert breakdown["fill"] == pytest.approx(1.0)

    def test_records_rebuild_rows_in_order(self):
        records = self.make_trace().records
        assert [r.job_id for r in records] == ["j1", "j1", "j2", "j3"]
        assert records[1] == TraceRecord("j1", "sram", Phase.COMPUTE, 1.0, 3.0, 4)

    def test_invalid_record(self):
        with pytest.raises(ValueError):
            TraceRecord("j", "d", Phase.COMPUTE, 2.0, 1.0)


class TestEnergyLedger:
    def test_accumulation(self):
        ledger = EnergyLedger()
        ledger.add(EnergyCategory.COMPUTE, "sram", 1.0)
        ledger.add(EnergyCategory.COMPUTE, "sram", 2.0)
        ledger.add(EnergyCategory.OFFCHIP, "ddr4", 0.5)
        assert ledger.total() == pytest.approx(3.5)
        assert ledger.get(EnergyCategory.COMPUTE, "sram") == pytest.approx(3.0)
        assert ledger.by_category()[EnergyCategory.OFFCHIP] == pytest.approx(0.5)
        assert ledger.by_device()["sram"] == pytest.approx(3.0)

    def test_negative_rejected(self):
        ledger = EnergyLedger()
        with pytest.raises(ValueError):
            ledger.add(EnergyCategory.HOST, "cpu", -1.0)

    def test_merge(self):
        a = EnergyLedger()
        a.add(EnergyCategory.COMPUTE, "sram", 1.0)
        b = EnergyLedger()
        b.add(EnergyCategory.COMPUTE, "sram", 2.0)
        b.add(EnergyCategory.HOST, "cpu", 1.0)
        merged = a.merge(b)
        assert merged.get(EnergyCategory.COMPUTE, "sram") == pytest.approx(3.0)
        assert merged.total() == pytest.approx(4.0)
        # merge does not mutate its inputs
        assert a.total() == pytest.approx(1.0)

    def test_rows_sorted(self):
        ledger = EnergyLedger()
        ledger.add(EnergyCategory.OFFCHIP, "pcie", 1.0)
        ledger.add(EnergyCategory.COMPUTE, "sram", 1.0)
        rows = ledger.as_rows()
        assert rows == sorted(rows)
