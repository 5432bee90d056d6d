"""Event-driven dispatcher: lifecycle, contention, energy, errors."""

import pytest

from repro.core import (
    Dispatcher,
    DispatchError,
    Job,
    JobPerfProfile,
    MLIMPSystem,
)
from repro.core.scheduler.base import Dispatch, DispatchPolicy, ResourceView
from repro.memories import ArrayGeometry, MemoryKind, MemorySpec, ScratchpadAllocator
from repro.obs import decision_rows
from repro.sim import DDR4Config, EnergyCategory, Phase


def spec(kind=MemoryKind.SRAM, arrays=32, fill_gbps=100.0) -> MemorySpec:
    return MemorySpec(
        kind=kind,
        name=f"t-{kind.value}",
        geometry=ArrayGeometry(64, 64),
        num_arrays=arrays,
        alus_per_array=64,
        clock_mhz=1000.0,
        mac_cycles_2op=10,
        multi_operand_alpha=1.0,
        max_operands=4,
        pack_limit=4,
        energy_per_mac_pj=1.0,
        energy_per_bitop_pj=0.1,
        fill_bandwidth_gbps=fill_gbps,
        copy_bandwidth_gbps=100.0,
        max_outstanding_jobs=2,
    )


def job(job_id="j", unit=4, t_compute=1e-4, fill_bytes=1e4, kind=MemoryKind.SRAM) -> Job:
    return Job(
        job_id=job_id,
        kernel="app",
        profiles={
            kind: JobPerfProfile(
                unit_arrays=unit,
                t_load=1e-6,
                t_replica_unit=1e-7,
                t_compute_unit=t_compute,
                waves_unit=4,
                fill_bytes=fill_bytes,
                compute_energy_j=2e-9,
            )
        },
    )


class StaticPolicy(DispatchPolicy):
    """Dispatches a fixed list as soon as resources allow."""

    def __init__(self, dispatches: list[Dispatch]):
        self._queue = list(dispatches)

    def pending(self) -> int:
        return len(self._queue)

    def next_dispatches(self, view: ResourceView) -> list[Dispatch]:
        out = []
        for d in list(self._queue):
            if view.can_place(d.kind, d.arrays):
                out.append(d)
                self._queue.remove(d)
                view.free_slots[d.kind] -= 1
                view.largest_free_run[d.kind] -= d.arrays
        return out


def make_system(*specs_) -> MLIMPSystem:
    return MLIMPSystem(specs={s.kind: s for s in specs_})


class TestLifecycle:
    def test_single_job_phases(self):
        system = make_system(spec())
        j = job()
        result = Dispatcher(system).run(
            StaticPolicy([Dispatch(job=j, kind=MemoryKind.SRAM, arrays=4)])
        )
        record = result.records["j"]
        assert record.dispatched_at == 0.0
        assert record.fill_done_at > 0
        assert record.finished_at > record.fill_done_at
        phases = {r.phase for r in result.trace.records}
        assert Phase.FILL in phases and Phase.COMPUTE in phases

    def test_total_time_consistent_with_profile(self):
        """Uncontended run time matches the job's analytic profile."""
        system = make_system(spec())
        j = job(fill_bytes=0.0)
        result = Dispatcher(system).run(
            StaticPolicy([Dispatch(job=j, kind=MemoryKind.SRAM, arrays=4)])
        )
        profile = j.profile(MemoryKind.SRAM)
        expected = profile.compute_time(4) + profile.t_load
        # Fill with zero bytes costs only DDR4 latency.
        assert result.makespan == pytest.approx(expected + 60e-9, rel=0.05)

    def test_replication_phase_recorded(self):
        system = make_system(spec())
        j = job()
        result = Dispatcher(system).run(
            StaticPolicy([Dispatch(job=j, kind=MemoryKind.SRAM, arrays=8)])
        )
        assert any(r.phase is Phase.REPLICATE for r in result.trace.records)

    def test_slot_limit_serialises(self):
        system = make_system(spec())  # 2 slots
        jobs = [job(f"j{i}") for i in range(4)]
        result = Dispatcher(system).run(
            StaticPolicy(
                [Dispatch(job=j, kind=MemoryKind.SRAM, arrays=4) for j in jobs]
            )
        )
        starts = sorted(r.dispatched_at for r in result.records.values())
        assert starts[2] > 0.0  # third job had to wait for a slot

    def test_array_capacity_serialises(self):
        system = make_system(spec(arrays=8))
        jobs = [job(f"j{i}", unit=6) for i in range(2)]
        result = Dispatcher(system).run(
            StaticPolicy(
                [Dispatch(job=j, kind=MemoryKind.SRAM, arrays=6) for j in jobs]
            )
        )
        starts = sorted(r.dispatched_at for r in result.records.values())
        assert starts[1] > 0.0  # only 8 arrays: jobs cannot overlap

    def test_dram_bypasses_pipe(self):
        """In-DRAM fills are internal row moves; the shared DDR4 pipe
        carries no bytes."""
        system = make_system(spec(kind=MemoryKind.DRAM))
        j = job(kind=MemoryKind.DRAM, fill_bytes=1e6)
        result = Dispatcher(system).run(
            StaticPolicy([Dispatch(job=j, kind=MemoryKind.DRAM, arrays=4)])
        )
        assert result.energy.get(EnergyCategory.OFFCHIP, "ddr4") == 0.0
        assert result.energy.get(EnergyCategory.FILL, "dram") > 0.0

    def test_fill_contention_slows_jobs(self):
        """Two concurrent fills share DDR4 bandwidth."""
        ddr4 = DDR4Config(channels=1, channel_bandwidth_gbps=1.0)
        system = make_system(spec())
        big = 1e6  # 1 MB at 1 GB/s = 1 ms alone
        solo = Dispatcher(system, ddr4).run(
            StaticPolicy([Dispatch(job=job("a", fill_bytes=big), kind=MemoryKind.SRAM, arrays=4)])
        )
        duo = Dispatcher(system, ddr4).run(
            StaticPolicy(
                [
                    Dispatch(job=job("a", fill_bytes=big), kind=MemoryKind.SRAM, arrays=4),
                    Dispatch(job=job("b", fill_bytes=big), kind=MemoryKind.SRAM, arrays=4),
                ]
            )
        )
        assert duo.records["a"].fill_done_at > 1.8 * solo.records["a"].fill_done_at


class TestEnergy:
    def test_energy_categories_populated(self):
        system = make_system(spec())
        j = job()
        result = Dispatcher(system).run(
            StaticPolicy([Dispatch(job=j, kind=MemoryKind.SRAM, arrays=4)])
        )
        assert result.energy.get(EnergyCategory.COMPUTE, "sram") == pytest.approx(2e-9)
        assert result.energy.get(EnergyCategory.FILL, "sram") > 0
        assert result.energy.get(EnergyCategory.OFFCHIP, "ddr4") > 0

    def test_replication_energy_charged(self):
        system = make_system(spec())
        j = job()
        result = Dispatcher(system).run(
            StaticPolicy([Dispatch(job=j, kind=MemoryKind.SRAM, arrays=8)])
        )
        assert result.energy.get(EnergyCategory.REPLICATION, "sram") > 0


class TestErrors:
    def test_oversized_dispatch_rejected(self):
        system = make_system(spec(arrays=8))
        j = job(unit=4)
        with pytest.raises(DispatchError):
            Dispatcher(system).run(
                StaticPolicy([Dispatch(job=j, kind=MemoryKind.SRAM, arrays=9)])
            )

    def test_deadlock_detected(self):
        class StuckPolicy(DispatchPolicy):
            def pending(self):
                return 1

            def next_dispatches(self, view):
                return []

        system = make_system(spec())
        with pytest.raises(DispatchError):
            Dispatcher(system).run(StuckPolicy())

    def test_undrained_ledger_rejected(self, monkeypatch):
        """A run that ends with arrays still allocated names the device
        and its ledger counts instead of returning."""
        monkeypatch.setattr(ScratchpadAllocator, "free", lambda self, allocation: None)
        system = make_system(spec())
        policy = StaticPolicy([Dispatch(job=job(), kind=MemoryKind.SRAM, arrays=4)])
        with pytest.raises(
            DispatchError,
            match=r"^sram did not drain: 0 jobs running, 1 live allocations, "
            r"0 parked jobs$",
        ):
            Dispatcher(system).run(policy)

    def test_double_dispatch_rejected(self):
        system = make_system(spec())
        j = job()
        with pytest.raises(DispatchError):
            Dispatcher(system).run(
                StaticPolicy(
                    [
                        Dispatch(job=j, kind=MemoryKind.SRAM, arrays=4),
                        Dispatch(job=j, kind=MemoryKind.SRAM, arrays=4),
                    ]
                )
            )


class TestSlotEnforcement:
    def test_oversubscribed_slots_rejected(self):
        """A policy that ignores the view's free slots must be caught:
        the device has 2 job slots, the policy hands over 3 jobs."""

        class GreedyPolicy(DispatchPolicy):
            def __init__(self, dispatches):
                self._queue = list(dispatches)

            def pending(self):
                return len(self._queue)

            def next_dispatches(self, view):
                out, self._queue = self._queue, []
                return out

        system = make_system(spec())  # max_outstanding_jobs=2
        jobs = [job(f"j{i}") for i in range(3)]
        with pytest.raises(DispatchError, match="over-subscribed"):
            Dispatcher(system).run(
                GreedyPolicy(
                    [Dispatch(job=j, kind=MemoryKind.SRAM, arrays=4) for j in jobs]
                )
            )

    def test_full_slot_occupancy_allowed(self):
        """Exactly filling both slots is fine."""
        system = make_system(spec())
        jobs = [job(f"j{i}") for i in range(2)]
        result = Dispatcher(system).run(
            StaticPolicy(
                [Dispatch(job=j, kind=MemoryKind.SRAM, arrays=4) for j in jobs]
            )
        )
        assert len(result.records) == 2


class TestTailLatency:
    def _result_with_latencies(self, latencies):
        from repro.core.dispatcher import DispatchResult, JobRecord
        from repro.sim import EnergyLedger
        from repro.sim.trace import ExecutionTrace

        records = {
            f"j{i}": JobRecord(
                job_id=f"j{i}",
                kind=MemoryKind.SRAM,
                arrays=1,
                dispatched_at=0.0,
                finished_at=latency,
            )
            for i, latency in enumerate(latencies)
        }
        return DispatchResult(
            makespan=max(latencies),
            trace=ExecutionTrace(),
            energy=EnergyLedger(),
            records=records,
        )

    def test_nearest_rank_pinned(self):
        """100 known latencies 0.001..0.100: p50 = 0.050, p99 = 0.099.

        The old int(q*n) indexing returned 0.051 and the maximum here.
        """
        latencies = [i / 1000 for i in range(1, 101)]
        result = self._result_with_latencies(latencies)
        assert result.tail_latency(0.50) == pytest.approx(0.050)
        assert result.tail_latency(0.99) == pytest.approx(0.099)
        assert result.tail_latency(1.00) == pytest.approx(0.100)

    def test_small_samples(self):
        result = self._result_with_latencies([3.0, 1.0, 2.0])
        assert result.tail_latency(0.50) == pytest.approx(2.0)
        assert result.tail_latency(0.99) == pytest.approx(3.0)
        # A tiny quantile returns the minimum, never an invalid index.
        assert result.tail_latency(0.01) == pytest.approx(1.0)

    def test_invalid_quantile_rejected(self):
        result = self._result_with_latencies([1.0])
        with pytest.raises(ValueError):
            result.tail_latency(0.0)
        with pytest.raises(ValueError):
            result.tail_latency(1.5)


class TestObservability:
    def test_metrics_and_decisions_populated(self):
        system = make_system(spec())
        jobs = [job(f"j{i}") for i in range(3)]
        result = Dispatcher(system).run(
            StaticPolicy(
                [Dispatch(job=j, kind=MemoryKind.SRAM, arrays=4) for j in jobs]
            )
        )
        assert result.metrics.counters["jobs.dispatched"].value == 3
        assert result.metrics.counters["jobs.completed"].value == 3
        slots = result.metrics.gauges["sram.slots_in_use"]
        assert slots.max_value <= 2  # never above the slot limit
        assert slots.value == 0  # everything drained by the end
        assert result.metrics.gauges["ddr4.active_transfers"].value == 0
        decisions = decision_rows(result)
        assert len(decisions) == 3
        assert all(d["actual_time"] is not None for d in decisions)

    def test_report_from_real_run(self):
        system = make_system(spec())
        jobs = [job(f"j{i}") for i in range(4)]
        result = Dispatcher(system).run(
            StaticPolicy(
                [Dispatch(job=j, kind=MemoryKind.SRAM, arrays=4) for j in jobs]
            )
        )
        report = result.report()
        dev = report.devices["sram"]
        assert 0.0 < dev.utilisation <= 1.0
        assert dev.jobs == 4
        assert dev.busy_time <= result.makespan * (1 + 1e-9)
        # StaticPolicy dispatches carry no predictions.
        assert report.predictor is None


class TestResultMetrics:
    def test_latency_statistics(self):
        system = make_system(spec())
        jobs = [job(f"j{i}", t_compute=1e-4 * (i + 1)) for i in range(3)]
        result = Dispatcher(system).run(
            StaticPolicy(
                [Dispatch(job=j, kind=MemoryKind.SRAM, arrays=4) for j in jobs]
            )
        )
        assert result.mean_latency() > 0
        assert result.tail_latency(0.99) >= result.mean_latency()

    def test_empty_result(self):
        system = make_system(spec())
        result = Dispatcher(system).run(StaticPolicy([]))
        assert result.mean_latency() == 0.0
        assert result.tail_latency() == 0.0
