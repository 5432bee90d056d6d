"""Unit tests for the fault-injection subsystem (repro.faults).

Plan data model and JSON round-trips, injector health/wear state
machine, the dispatcher's degraded-mode paths on small deterministic
systems, and the runtime/report/export integration.  The seeded
end-to-end invariants live in ``tests/test_properties_faults.py``.
"""

import json

import pytest

from repro.core import Dispatcher, DispatchError, Job, JobPerfProfile, MLIMPSystem
from repro.core.predictor import OraclePredictor
from repro.core.runtime import MLIMPRuntime
from repro.core.scheduler import AdaptivePolicy, AdaptiveScheduler
from repro.core.scheduler.base import Dispatch, DispatchPolicy, ResourceView
from repro.faults import (
    DeviceHealth,
    FaultEvent,
    FaultInjector,
    FaultKind,
    FaultPlan,
    RetryPolicy,
)
from repro.memories import ArrayGeometry, MemoryKind, MemorySpec
from repro.harness.config import gnn_system
from repro.memories.endurance import WearTracker
from repro.obs import build_report, result_payload
from tests.prophelpers import make_jobs


def spec(kind=MemoryKind.SRAM, arrays=32, slots=2) -> MemorySpec:
    return MemorySpec(
        kind=kind,
        name=f"f-{kind.value}",
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
        fill_bandwidth_gbps=100.0,
        copy_bandwidth_gbps=100.0,
        max_outstanding_jobs=slots,
    )


def job(job_id="j", kinds=(MemoryKind.SRAM,), t_compute=1e-4, fill_bytes=1e4) -> Job:
    return Job(
        job_id=job_id,
        kernel="app",
        profiles={
            kind: JobPerfProfile(
                unit_arrays=4,
                t_load=1e-6,
                t_replica_unit=1e-7,
                t_compute_unit=t_compute,
                waves_unit=4,
                fill_bytes=fill_bytes,
                compute_energy_j=2e-9,
            )
            for kind in kinds
        },
    )


class StaticPolicy(DispatchPolicy):
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


TWO_DEVICE = (MemoryKind.SRAM, MemoryKind.DRAM)


def run_two_device(jobs, plan, slots=2):
    system = make_system(
        spec(MemoryKind.SRAM, slots=slots), spec(MemoryKind.DRAM, slots=slots)
    )
    policy = StaticPolicy(
        [Dispatch(job=j, kind=MemoryKind.SRAM, arrays=4) for j in jobs]
    )
    return Dispatcher(system).run(policy, faults=plan)


class TestFaultEvent:
    def test_validation(self):
        with pytest.raises(ValueError):
            FaultEvent(kind=FaultKind.STALL, device=MemoryKind.SRAM, time=1.0)
        with pytest.raises(ValueError):
            FaultEvent(
                kind=FaultKind.DERATE, device=MemoryKind.SRAM, factor=0.0
            )
        with pytest.raises(ValueError):
            FaultEvent(
                kind=FaultKind.DERATE, device=MemoryKind.SRAM, factor=1.5
            )
        with pytest.raises(ValueError):
            FaultEvent(kind=FaultKind.WEAROUT, device=MemoryKind.SRAM)
        with pytest.raises(ValueError):
            FaultEvent(kind=FaultKind.FAIL, device=MemoryKind.SRAM, time=-1.0)

    def test_round_trip_each_kind(self):
        events = [
            FaultEvent(
                kind=FaultKind.STALL,
                device=MemoryKind.SRAM,
                time=1e-4,
                duration=2e-4,
                reason="hiccup",
            ),
            FaultEvent(
                kind=FaultKind.DERATE,
                device=MemoryKind.DRAM,
                time=3e-4,
                factor=0.5,
            ),
            FaultEvent(kind=FaultKind.FAIL, device=MemoryKind.RERAM, time=4e-4),
            FaultEvent(
                kind=FaultKind.WEAROUT,
                device=MemoryKind.RERAM,
                threshold_bytes=1e6,
            ),
        ]
        for event in events:
            assert FaultEvent.from_dict(event.as_dict()) == event
        assert [e.timed for e in events] == [True, True, True, False]


class TestFaultPlan:
    def test_json_round_trip(self, tmp_path):
        plan = FaultPlan.random(
            3, [MemoryKind.SRAM, MemoryKind.DRAM], horizon_s=1e-3, n_events=5
        )
        path = plan.save(tmp_path / "plan.json")
        loaded = FaultPlan.load(path)
        assert loaded == plan
        assert FaultPlan.from_dict(json.loads(path.read_text())) == plan

    def test_random_is_seed_deterministic(self):
        devices = [MemoryKind.SRAM, MemoryKind.DRAM, MemoryKind.RERAM]
        a = FaultPlan.random(11, devices, horizon_s=1e-3)
        b = FaultPlan.random(11, devices, horizon_s=1e-3)
        assert a == b
        assert a != FaultPlan.random(12, devices, horizon_s=1e-3)

    def test_random_leaves_a_survivor(self):
        devices = [MemoryKind.SRAM, MemoryKind.DRAM]
        for seed in range(30):
            plan = FaultPlan.random(seed, devices, horizon_s=1e-3, n_events=6)
            failed = {
                e.device for e in plan.events if e.kind is FaultKind.FAIL
            }
            assert len(failed) < len(devices)

    def test_timed_events_sorted_and_empty_plan(self):
        plan = FaultPlan.random(5, [MemoryKind.SRAM], horizon_s=1e-3, n_events=4)
        times = [e.time for e in plan.timed_events()]
        assert times == sorted(times)
        assert not FaultPlan.empty()
        assert len(FaultPlan.empty()) == 0

    def test_retry_policy_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(base_backoff_s=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        policy = RetryPolicy(base_backoff_s=1e-6, multiplier=3.0, max_attempts=4)
        assert RetryPolicy.from_dict(policy.as_dict()) == policy


class TestFaultInjector:
    def _injector(self, *events) -> FaultInjector:
        plan = FaultPlan(events=tuple(events))
        return FaultInjector(plan, [MemoryKind.SRAM, MemoryKind.DRAM])

    def test_stall_extends_not_shortens(self):
        inj = self._injector()
        long = FaultEvent(
            kind=FaultKind.STALL, device=MemoryKind.SRAM, time=0.0, duration=5.0
        )
        short = FaultEvent(
            kind=FaultKind.STALL, device=MemoryKind.SRAM, time=0.0, duration=1.0
        )
        assert inj.apply(long, now=0.0)
        assert inj.apply(short, now=2.0)
        health = inj.health[MemoryKind.SRAM]
        assert health.stalled_until == 5.0
        assert health.stalled(4.9) and not health.stalled(5.0)
        assert not health.usable(4.9) and health.usable(5.0)

    def test_faults_against_a_dead_device_are_moot(self):
        inj = self._injector()
        fail = FaultEvent(kind=FaultKind.FAIL, device=MemoryKind.SRAM, time=0.0)
        assert inj.apply(fail, now=1.0)
        again = FaultEvent(
            kind=FaultKind.DERATE, device=MemoryKind.SRAM, factor=0.5
        )
        assert not inj.apply(again, now=2.0)
        assert len(inj.fired) == 1
        assert inj.dead_kinds() == [MemoryKind.SRAM]
        assert inj.alive_kinds() == [MemoryKind.DRAM]

    def test_derate_scales_time(self):
        inj = self._injector()
        inj.apply(
            FaultEvent(kind=FaultKind.DERATE, device=MemoryKind.SRAM, factor=0.25),
            now=0.0,
        )
        assert inj.time_scale(MemoryKind.SRAM) == 4.0
        assert inj.time_scale(MemoryKind.DRAM) == 1.0

    def test_wearout_triggers_once_at_threshold(self):
        wear = FaultEvent(
            kind=FaultKind.WEAROUT, device=MemoryKind.SRAM, threshold_bytes=100.0
        )
        inj = self._injector(wear)
        assert inj.record_fill(MemoryKind.SRAM, 60.0) is None
        fired = inj.record_fill(MemoryKind.SRAM, 60.0)
        assert fired is wear
        inj.apply(fired, now=1.0)
        # The device is dead; further traffic cannot re-trigger.
        assert inj.record_fill(MemoryKind.SRAM, 1e9) is None

    def test_summary_shape(self):
        inj = self._injector()
        summary = inj.summary()
        assert summary["plan_size"] == 0
        assert set(summary["devices"]) == {"sram", "dram"}
        assert DeviceHealth().as_dict()["alive"] is True


class TestDispatcherDegradation:
    def test_stall_aborts_and_retries(self):
        jobs = [job("a"), job("b")]
        plan = FaultPlan(
            events=(
                FaultEvent(
                    kind=FaultKind.STALL,
                    device=MemoryKind.SRAM,
                    time=5e-5,
                    duration=1e-4,
                ),
            ),
            retry=RetryPolicy(base_backoff_s=1e-5),
        )
        result = run_two_device(jobs, plan)
        assert set(result.records) == {"a", "b"}
        assert not result.failed_jobs
        assert result.metrics.counter("jobs.retried").value >= 1
        # Wall-clock work was redone: the stall pushed completion out.
        assert result.makespan > 1.5e-4

    def test_fail_without_alternative_fails_jobs(self):
        jobs = [job("a"), job("b")]
        plan = FaultPlan(
            events=(
                FaultEvent(
                    kind=FaultKind.FAIL, device=MemoryKind.SRAM, time=5e-5
                ),
            )
        )
        system = make_system(spec(MemoryKind.SRAM))
        policy = StaticPolicy(
            [Dispatch(job=j, kind=MemoryKind.SRAM, arrays=4) for j in jobs]
        )
        result = Dispatcher(system).run(policy, faults=plan)
        assert set(result.failed_jobs) == {"a", "b"}
        assert not result.records
        assert result.metrics.counter("jobs.failed").value == 2
        # Both jobs launched before the failure, so each keeps its
        # decision row, with no measured time.
        payload = result_payload(result)
        assert payload["decisions"] == [
            {
                "job_id": job_id,
                "device": "sram",
                "arrays": 4,
                "decided_at": 0.0,
                "predicted_time": None,
                "actual_time": None,
                "queue_depth": 0,
                "relative_error": None,
            }
            for job_id in ("a", "b")
        ]
        assert payload["metrics"]["counters"] == {
            "faults.injected": 1.0,
            "faults.sram.fail": 1.0,
            "jobs.dispatched": 2.0,
            "jobs.failed": 2.0,
            "sim.events": 14.0,
            "sram.jobs": 2.0,
        }
        assert payload["report"]["predictor"] is None

    def test_fail_migrates_to_survivor(self):
        jobs = [job(f"j{i}", kinds=TWO_DEVICE) for i in range(3)]
        plan = FaultPlan(
            events=(
                FaultEvent(
                    kind=FaultKind.FAIL, device=MemoryKind.SRAM, time=5e-5
                ),
            )
        )
        result = run_two_device(jobs, plan, slots=3)
        assert set(result.records) == {"j0", "j1", "j2"}
        assert not result.failed_jobs
        assert result.metrics.counter("jobs.requeued").value >= 1
        assert result.metrics.counter("jobs.requeued.sram").value >= 1
        migrated = [r for r in result.records.values() if r.kind is MemoryKind.DRAM]
        assert migrated and all(r.attempts >= 1 for r in migrated)

    def test_requeued_job_parks_on_a_full_device(self):
        # Four jobs in flight on SRAM, but the survivor (DRAM) has only
        # two job slots: when SRAM dies the overflow must park and
        # drain as slots free up, not crash the dispatcher.
        system = make_system(
            spec(MemoryKind.SRAM, slots=4), spec(MemoryKind.DRAM, slots=2)
        )
        jobs = [job(f"j{i}", kinds=TWO_DEVICE) for i in range(4)]
        plan = FaultPlan(
            events=(
                FaultEvent(
                    kind=FaultKind.FAIL, device=MemoryKind.SRAM, time=5e-5
                ),
            )
        )
        policy = StaticPolicy(
            [Dispatch(job=j, kind=MemoryKind.SRAM, arrays=4) for j in jobs]
        )
        result = Dispatcher(system).run(policy, faults=plan)
        assert set(result.records) == {f"j{i}" for i in range(4)}
        assert not result.failed_jobs
        assert all(r.kind is MemoryKind.DRAM for r in result.records.values())
        assert result.metrics.counter("jobs.requeued").value == 4

    def test_legacy_policy_on_a_dead_device_deadlocks(self):
        # A policy with no device_lost re-pointing keeps queueing jobs
        # for the dead device; the dispatcher still flags that as a
        # dead-lock instead of hanging.
        jobs = [job(f"j{i}", kinds=TWO_DEVICE) for i in range(5)]
        plan = FaultPlan(
            events=(
                FaultEvent(
                    kind=FaultKind.FAIL, device=MemoryKind.SRAM, time=5e-5
                ),
            )
        )
        with pytest.raises(DispatchError, match="dead-locked"):
            run_two_device(jobs, plan, slots=2)

    def test_derate_slows_the_device(self):
        plan = FaultPlan(
            events=(
                FaultEvent(
                    kind=FaultKind.DERATE,
                    device=MemoryKind.SRAM,
                    time=0.0,
                    factor=0.5,
                ),
            )
        )
        slowed = run_two_device([job("a")], plan)
        nominal = run_two_device([job("a")], FaultPlan.empty())
        assert slowed.makespan > nominal.makespan * 1.5
        assert slowed.fault_summary["devices"]["sram"]["derate"] == 0.5

    def test_wearout_kills_device_mid_run(self):
        # Each job fills 1e4 bytes; the threshold trips inside job 2.
        jobs = [job(f"j{i}", kinds=TWO_DEVICE) for i in range(3)]
        plan = FaultPlan(
            events=(
                FaultEvent(
                    kind=FaultKind.WEAROUT,
                    device=MemoryKind.SRAM,
                    threshold_bytes=2.5e4,
                ),
            )
        )
        result = run_two_device(jobs, plan, slots=1)
        assert set(result.records) == {"j0", "j1", "j2"}
        assert not result.failed_jobs
        assert not result.fault_summary["devices"]["sram"]["alive"]

    def test_without_faults_double_dispatch_still_raises(self):
        system = make_system(spec(MemoryKind.SRAM))
        j = job("a")
        policy = StaticPolicy(
            [
                Dispatch(job=j, kind=MemoryKind.SRAM, arrays=4),
                Dispatch(job=j, kind=MemoryKind.SRAM, arrays=4),
            ]
        )
        with pytest.raises(DispatchError):
            Dispatcher(system).run(policy)

    def test_jobs_the_policy_took_back_and_dropped_fail_the_run(self, monkeypatch):
        """A ``device_lost`` that keeps the in-flight victims (returns
        none unplaced) but never queues them strands them: the run must
        raise, not end with their stale records counted as finished."""
        absorb = AdaptivePolicy.device_lost

        def forgetful(self, kind, jobs, now):
            absorb(self, kind, [], now)  # re-places its own queue only
            return []

        monkeypatch.setattr(AdaptivePolicy, "device_lost", forgetful)
        system = gnn_system()
        policy = AdaptiveScheduler(OraclePredictor()).plan(make_jobs(3), system)
        plan = FaultPlan(
            events=(
                FaultEvent(kind=FaultKind.FAIL, device=MemoryKind.RERAM, time=20e-6),
            )
        )
        with pytest.raises(
            DispatchError,
            match=r"^5 jobs the policy took back in device_lost never came back$",
        ):
            Dispatcher(system).run(policy, faults=plan)


class TestWearBridge:
    def test_wearout_event_from_tracker(self):
        tracker = WearTracker(spec=spec(MemoryKind.RERAM), endurance_writes=1.0)
        budget = tracker.total_cell_writes_budget
        tracker.record_bytes(budget * 0.75)
        event = tracker.wearout_event()
        assert event.kind is FaultKind.WEAROUT
        assert event.device is MemoryKind.RERAM
        assert event.threshold_bytes == pytest.approx(budget * 0.25)
        assert "endurance" in event.reason

    def test_worn_out_tracker_dies_on_first_write(self):
        tracker = WearTracker(spec=spec(MemoryKind.RERAM), endurance_writes=1.0)
        tracker.record_bytes(tracker.total_cell_writes_budget * 2)
        assert tracker.remaining_bytes() == 0.0
        assert tracker.wearout_event().threshold_bytes == 1.0
        with pytest.raises(ValueError):
            tracker.remaining_bytes(reserve_fraction=1.0)


class TestRuntimeAndReport:
    def _runtime_result(self, plan):
        system = make_system(
            spec(MemoryKind.SRAM), spec(MemoryKind.DRAM, arrays=64)
        )
        runtime = MLIMPRuntime(system, scheduler="ljf")
        runtime.submit_many(
            [job(f"j{i}", kinds=TWO_DEVICE) for i in range(4)]
        )
        return runtime.run(label="unit", faults=plan, fault_baseline=True)

    def test_fault_baseline_and_report_section(self):
        plan = FaultPlan(
            events=(
                FaultEvent(
                    kind=FaultKind.STALL,
                    device=MemoryKind.SRAM,
                    time=5e-5,
                    duration=1e-4,
                ),
            )
        )
        result = self._runtime_result(plan)
        assert result.fault_free_makespan is not None
        assert result.makespan >= result.fault_free_makespan
        report = build_report(result)
        assert report.degradation is not None
        assert report.degradation["fault_free_makespan"] == result.fault_free_makespan
        assert report.degradation["makespan_overhead"] >= 0.0
        assert "degraded mode" in str(report)
        assert "makespan vs fault-free" in str(report)

    def test_empty_plan_skips_baseline_and_section(self):
        result = self._runtime_result(FaultPlan.empty())
        assert result.fault_free_makespan is None
        assert result.fault_summary is None
        report = build_report(result)
        assert report.degradation is None
        assert "degraded mode" not in str(report)

    def test_export_payload_carries_fault_fields(self):
        plan = FaultPlan(
            events=(
                FaultEvent(
                    kind=FaultKind.FAIL, device=MemoryKind.SRAM, time=5e-5
                ),
            )
        )
        payload = result_payload(self._runtime_result(plan))
        assert payload["faults"]["plan_size"] == 1
        assert set(payload["faults"]["devices"]) == {"sram", "dram"}
        assert payload["failed_jobs"] == {}
        assert json.dumps(payload)  # JSON-serialisable end to end
