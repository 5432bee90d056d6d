"""NVM endurance tracking (paper II-A constraint, modelled)."""

import pytest

from repro.core import Dispatcher, GlobalScheduler, OraclePredictor
from repro.harness import build_workload, run_workload
from repro.memories import RERAM_SPEC, TECHNOLOGIES, MemoryKind
from repro.memories.endurance import WearTracker


class TestWearTracker:
    def make(self, endurance=1e8) -> WearTracker:
        return WearTracker(spec=RERAM_SPEC, endurance_writes=endurance)

    def test_budget_scales_with_capacity(self):
        tracker = self.make(endurance=100)
        assert tracker.total_cell_writes_budget == 100 * RERAM_SPEC.capacity_bytes

    def test_wear_fraction_accumulates(self):
        tracker = self.make(endurance=2)
        tracker.record_bytes(RERAM_SPEC.capacity_bytes)
        assert tracker.mean_writes_per_cell == pytest.approx(1.0)

    def test_lifetime_projection(self):
        tracker = self.make(endurance=1)
        tracker.record_bytes(1e6, busy_seconds=1.0)  # 1 MB/s observed
        expected = RERAM_SPEC.capacity_bytes / 1e6
        assert tracker.projected_lifetime_seconds() == pytest.approx(expected)

    def test_unworn_device_lives_forever(self):
        assert self.make().projected_lifetime_seconds() == float("inf")

    def test_validation(self):
        with pytest.raises(ValueError):
            WearTracker(spec=RERAM_SPEC, endurance_writes=0)
        tracker = self.make()
        with pytest.raises(ValueError):
            tracker.record_bytes(-1)


class TestIntegration:
    def test_gnn_workload_wear_quantifies_the_endurance_constraint(self):
        """Run a real GNN workload and quantify the paper's II-A
        endurance concern: one batch run barely dents the budget, but
        *sustained* full-duty SpMM fills (every job re-writes its B
        matrix into the crossbars) would wear a 1e8-write device out
        within days."""
        workload = build_workload("collab", num_batches=2, batch_size=16, seed=3)
        summary = run_workload(workload, GlobalScheduler(OraclePredictor()))
        # Track against the *scaled* device actually simulated.
        tracker = WearTracker(
            spec=workload.specs[MemoryKind.RERAM],
            endurance_writes=TECHNOLOGIES["ReRAM"].endurance_writes,
        )
        for result in summary.results:
            tracker.record_result(result)
        assert tracker.written_bytes > 0
        # One run barely dents it.
        assert tracker.written_bytes < 1e-6 * tracker.total_cell_writes_budget
        # Sustained full-duty operation, however, is endurance-bound:
        lifetime = tracker.projected_lifetime_seconds()
        assert 60.0 < lifetime < 30 * 24 * 3600.0
        # SRAM at the same traffic is effectively unconstrained.
        sram = WearTracker(
            spec=workload.specs[MemoryKind.SRAM],
            endurance_writes=TECHNOLOGIES["SRAM"].endurance_writes,
        )
        sram.record_bytes(tracker.written_bytes, tracker.busy_seconds)
        assert sram.projected_lifetime_seconds() > 1e3 * 365.25 * 24 * 3600.0
