"""MLIMPRuntime facade."""

import pytest

from repro.core import (
    GlobalScheduler,
    Job,
    JobPerfProfile,
    MLIMPRuntime,
    MLIMPSystem,
    OraclePredictor,
)
from repro.core.scheduler.base import (
    Dispatch,
    DispatchPolicy,
    ResourceView,
    Scheduler,
)
from repro.memories import ArrayGeometry, MemoryKind, MemorySpec


def spec(kind: MemoryKind) -> MemorySpec:
    return MemorySpec(
        kind=kind,
        name=f"rt-{kind.value}",
        geometry=ArrayGeometry(32, 32),
        num_arrays=32,
        alus_per_array=32,
        clock_mhz=1000.0,
        mac_cycles_2op=10,
        multi_operand_alpha=1.0,
        max_operands=4,
        pack_limit=2,
        energy_per_mac_pj=1.0,
        energy_per_bitop_pj=0.1,
        fill_bandwidth_gbps=50.0,
        copy_bandwidth_gbps=50.0,
        max_outstanding_jobs=4,
    )


@pytest.fixture
def system() -> MLIMPSystem:
    return MLIMPSystem(
        specs={MemoryKind.SRAM: spec(MemoryKind.SRAM), MemoryKind.RERAM: spec(MemoryKind.RERAM)}
    )


def job(i: int) -> Job:
    profile = JobPerfProfile(
        unit_arrays=4,
        t_load=1e-7,
        t_replica_unit=1e-8,
        t_compute_unit=1e-5 * (1 + i % 3),
        waves_unit=8,
        fill_bytes=1e3,
        compute_energy_j=1e-10,
    )
    return Job(
        job_id=f"rt{i}",
        kernel="app",
        profiles={MemoryKind.SRAM: profile, MemoryKind.RERAM: profile},
    )


class TestRuntime:
    def test_submit_run_clears_queue(self, system):
        runtime = MLIMPRuntime(system)
        runtime.submit_many(job(i) for i in range(6))
        assert runtime.pending == 6
        result = runtime.run()
        assert runtime.pending == 0
        assert len(result.records) == 6

    def test_scheduler_selection_by_name(self, system):
        for name in ("ljf", "adaptive", "global"):
            runtime = MLIMPRuntime(system, scheduler=name)
            runtime.submit(job(0))
            result = runtime.run()
            assert result.scheduler_name == name

    def test_scheduler_instance_accepted(self, system):
        runtime = MLIMPRuntime(
            system, scheduler=GlobalScheduler(OraclePredictor(), intra_queue=False)
        )
        runtime.submit(job(0))
        assert runtime.run().makespan > 0

    def test_unknown_scheduler_rejected(self, system):
        with pytest.raises(ValueError):
            MLIMPRuntime(system, scheduler="magic")

    def test_multiple_runs_accumulate_history(self, system):
        """Each run returns the result of the jobs queued since the last."""
        runtime = MLIMPRuntime(system)
        runtime.submit(job(0))
        first = runtime.run()
        runtime.submit(job(1))
        second = runtime.run()
        assert set(first.records) == {"rt0"}
        assert set(second.records) == {"rt1"}


class _OneAtATimePolicy(DispatchPolicy):
    """Releases one job per completion."""

    def __init__(self, jobs: list[Job]):
        self._jobs = list(jobs)
        self._in_flight = 0

    def pending(self) -> int:
        return len(self._jobs)

    def next_dispatches(self, view: ResourceView) -> list[Dispatch]:
        if self._in_flight or not self._jobs:
            return []
        self._in_flight = 1
        return [Dispatch(job=self._jobs.pop(0), kind=MemoryKind.SRAM, arrays=4)]

    def notify_completion(self, job, kind, now) -> None:
        self._in_flight = 0


class _OneAtATimeScheduler(Scheduler):
    name = "one-at-a-time"

    def plan(self, jobs, system):
        return _OneAtATimePolicy(jobs)


class TestSchedulerInstanceReuse:
    def test_injected_instance_reused_across_runs(self, system):
        """One Scheduler *instance* must serve several run() calls:
        plan() is called afresh each time and leftover policy state
        from run 1 must not leak into run 2."""
        scheduler = GlobalScheduler(OraclePredictor(), intra_queue=False)
        runtime = MLIMPRuntime(system, scheduler=scheduler)

        runtime.submit_many(job(i) for i in range(4))
        first = runtime.run()
        assert set(first.records) == {f"rt{i}" for i in range(4)}

        runtime.submit_many(job(i) for i in range(4, 7))
        second = runtime.run()
        assert set(second.records) == {f"rt{i}" for i in range(4, 7)}
        assert second.scheduler_name == first.scheduler_name == "global"
        # Both runs produced usable observability reports.
        for result in (first, second):
            report = result.report()
            assert report.n_jobs == len(result.records)
            assert all(
                0.0 <= dev.utilisation <= 1.0 for dev in report.devices.values()
            )

    def test_stateful_custom_scheduler_reused(self, system):
        """plan() is invoked once per run, even on a shared instance."""

        class CountingScheduler(_OneAtATimeScheduler):
            def __init__(self):
                self.plans = 0

            def plan(self, jobs, system):
                self.plans += 1
                return super().plan(jobs, system)

        scheduler = CountingScheduler()
        runtime = MLIMPRuntime(system, scheduler=scheduler)
        runtime.submit(job(0))
        first = runtime.run()
        runtime.submit(job(1))
        second = runtime.run()
        assert scheduler.plans == 2
        assert set(first.records) == {"rt0"}
        assert set(second.records) == {"rt1"}
