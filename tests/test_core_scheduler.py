"""Schedulers: LJF baseline, adaptive, global, EWT, adjustments, oracle."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

from repro.core import (
    AdaptiveScheduler,
    Dispatcher,
    EWTScheduler,
    GlobalScheduler,
    Job,
    JobPerfProfile,
    LJFScheduler,
    MLIMPSystem,
    OraclePredictor,
    oracle_makespan,
)
from repro.core.scheduler.adjustments import (
    PlannedJob,
    PlanQueue,
    inter_queue_adjust,
    intra_queue_adjust,
    job_fits,
    longest_first,
    plan_jobs,
    queue_drain_estimate,
)
from repro.core.scheduler.base import Dispatch, ResourceView
from repro.harness.config import full_system
from repro.memories import ArrayGeometry, MemoryKind, MemorySpec


def tiny_spec(kind: MemoryKind, arrays: int = 64, mhz: float = 1000.0) -> MemorySpec:
    return MemorySpec(
        kind=kind,
        name=f"tiny-{kind.value}",
        geometry=ArrayGeometry(64, 64),
        num_arrays=arrays,
        alus_per_array=64,
        clock_mhz=mhz,
        mac_cycles_2op=10,
        multi_operand_alpha=1.0,
        max_operands=4,
        pack_limit=4,
        energy_per_mac_pj=1.0,
        energy_per_bitop_pj=0.1,
        fill_bandwidth_gbps=100.0,
        copy_bandwidth_gbps=100.0,
        max_outstanding_jobs=4,
    )


@pytest.fixture
def system() -> MLIMPSystem:
    return MLIMPSystem(
        specs={
            MemoryKind.SRAM: tiny_spec(MemoryKind.SRAM, arrays=64, mhz=1000.0),
            MemoryKind.RERAM: tiny_spec(MemoryKind.RERAM, arrays=128, mhz=500.0),
        }
    )


def make_job(job_id: str, sram_t: float, reram_t: float, unit: int = 4) -> Job:
    def prof(t):
        return JobPerfProfile(
            unit_arrays=unit,
            t_load=t * 0.05,
            t_replica_unit=t * 0.01,
            t_compute_unit=t,
            waves_unit=8,
            fill_bytes=1000.0,
            compute_energy_j=1e-9,
        )

    return Job(
        job_id=job_id,
        kernel="app",
        profiles={MemoryKind.SRAM: prof(sram_t), MemoryKind.RERAM: prof(reram_t)},
    )


def mixed_batch(n: int = 24) -> list[Job]:
    jobs = []
    for i in range(n):
        if i % 2:
            jobs.append(make_job(f"s{i}", sram_t=1e-4 * (1 + i % 5), reram_t=5e-4))
        else:
            jobs.append(make_job(f"r{i}", sram_t=5e-4, reram_t=1e-4 * (1 + i % 5)))
    return jobs


class TestSystem:
    def test_fair_share(self, system):
        assert system.fair_share(MemoryKind.SRAM) == 16
        assert system.fair_share(MemoryKind.RERAM) == 32

    def test_subset(self, system):
        sub = system.subset([MemoryKind.SRAM])
        assert sub.kinds == [MemoryKind.SRAM]

    def test_spec_kind_mismatch_rejected(self):
        with pytest.raises(ValueError):
            MLIMPSystem(specs={MemoryKind.DRAM: tiny_spec(MemoryKind.SRAM)})

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            MLIMPSystem(specs={})


def plan_on(job, kind, predictor, system) -> PlannedJob:
    """``job``'s plan on ``kind``, sized by :func:`plan_jobs`."""
    return plan_jobs([job], predictor, system)[0][kind]


class TestPlanning:
    def test_plan_job_snaps_to_replicas(self, system):
        job = make_job("x", 1e-4, 2e-4)
        plan = plan_on(job, MemoryKind.SRAM, OraclePredictor(), system)
        assert plan.arrays % plan.estimate.unit_arrays == 0
        assert plan.arrays <= system.arrays(MemoryKind.SRAM)

    def test_job_fits(self, system):
        assert job_fits(make_job("x", 1, 1, unit=4), MemoryKind.SRAM, system)
        assert not job_fits(make_job("x", 1, 1, unit=65), MemoryKind.SRAM, system)
        too_big = make_job("x", 1, 1, unit=65)
        (options,) = plan_jobs([too_big], OraclePredictor(), system)
        assert MemoryKind.SRAM not in options

    def test_queue_drain_estimate(self, system):
        job = make_job("x", 1e-4, 2e-4)
        plan = plan_on(job, MemoryKind.SRAM, OraclePredictor(), system)
        queue = PlanQueue(longest_first, [plan] * 8)
        drain = queue_drain_estimate(queue, MemoryKind.SRAM, system)
        assert drain > 0
        assert queue_drain_estimate(PlanQueue(longest_first), MemoryKind.SRAM, system) == 0.0


class TestInterQueue:
    def test_balances_loaded_queue(self, system):
        predictor = OraclePredictor()
        jobs = [make_job(f"j{i}", 1e-4, 1.2e-4) for i in range(16)]
        plans = {
            j.job_id: {
                kind: plan_on(j, kind, predictor, system)
                for kind in system.kinds
            }
            for j in jobs
        }
        queues = {
            MemoryKind.SRAM: [plans[j.job_id][MemoryKind.SRAM] for j in jobs],
            MemoryKind.RERAM: [],
        }
        balanced = inter_queue_adjust(queues, plans, system)
        assert len(balanced[MemoryKind.RERAM]) > 0
        drains = {
            kind: queue_drain_estimate(PlanQueue(longest_first, entries), kind, system)
            for kind, entries in balanced.items()
        }
        sram = PlanQueue(longest_first, queues[MemoryKind.SRAM])
        before = queue_drain_estimate(sram, MemoryKind.SRAM, system)
        assert max(drains.values()) < before

    def test_noop_on_balanced_queues(self, system):
        predictor = OraclePredictor()
        job_a = make_job("a", 1e-4, 5e-4)
        job_b = make_job("b", 5e-4, 1e-4)
        plans = {
            j.job_id: {k: plan_on(j, k, predictor, system) for k in system.kinds}
            for j in (job_a, job_b)
        }
        queues = {
            MemoryKind.SRAM: [plans["a"][MemoryKind.SRAM]],
            MemoryKind.RERAM: [plans["b"][MemoryKind.RERAM]],
        }
        balanced = inter_queue_adjust(queues, plans, system)
        assert len(balanced[MemoryKind.SRAM]) == 1
        assert len(balanced[MemoryKind.RERAM]) == 1


class TestIntraQueue:
    def test_transfers_arrays_to_longest(self, system):
        predictor = OraclePredictor()
        long_job = make_job("long", 1e-3, 1e-2)
        short_job = make_job("short", 1e-5, 1e-4)
        long_plan = plan_on(long_job, MemoryKind.SRAM, predictor, system)
        short_plan = plan_on(short_job, MemoryKind.SRAM, predictor, system)
        # Give the short job spare allocation to donate.
        short_plan = short_plan.with_arrays(4 * short_plan.estimate.unit_arrays)
        queues = {MemoryKind.SRAM: [long_plan, short_plan]}
        adjusted = intra_queue_adjust(queues, system)
        new_long = next(
            e for e in adjusted[MemoryKind.SRAM] if e.job.job_id == "long"
        )
        new_short = next(
            e for e in adjusted[MemoryKind.SRAM] if e.job.job_id == "short"
        )
        assert new_long.arrays >= long_plan.arrays
        assert new_short.arrays <= short_plan.arrays

    def test_respects_unit_minimum(self, system):
        predictor = OraclePredictor()
        jobs = [make_job("a", 1e-3, 1e-2), make_job("b", 1e-5, 1e-4)]
        queues = {
            MemoryKind.SRAM: [
                plan_on(j, MemoryKind.SRAM, predictor, system) for j in jobs
            ]
        }
        adjusted = intra_queue_adjust(queues, system)
        for entry in adjusted[MemoryKind.SRAM]:
            assert entry.arrays >= entry.estimate.unit_arrays


class TestAdaptiveBackfill:
    def test_failed_job_leaves_the_backfill_horizon(self, system):
        """A failed launch's predicted end must not stay the horizon of
        pass-2 backfill: once that time has passed, no queued job could
        finish by it and backfill on that memory would never fire."""
        sram, reram = MemoryKind.SRAM, MemoryKind.RERAM
        jobs = [
            make_job("c", 8e-4, 1.0), make_job("a", 4e-4, 1.0), make_job("b", 1e-5, 1.0)
        ]
        policy = AdaptiveScheduler(OraclePredictor()).plan(jobs, system)
        start = ResourceView(
            now=0.0,
            free_slots={sram: 2, reram: 0},
            free_arrays={sram: 64, reram: 128},
            largest_free_run={sram: 64, reram: 128},
        )
        launched = policy.next_dispatches(start)
        assert [d.job.job_id for d in launched] == ["c", "a"]
        ends = {d.job.job_id: d.predicted_time for d in launched}
        assert ends["a"] < ends["c"]

        now = (ends["a"] + ends["c"]) / 2  # "a" is overdue when it fails
        policy.notify_failed(jobs[1], now)
        assert "a" not in policy._inflight[sram]
        # A free slot, but a run too short for "b"'s requested arrays:
        # only backfill behind "c" can launch it.
        later = ResourceView(
            now=now,
            free_slots={sram: 1, reram: 0},
            free_arrays={sram: 36, reram: 128},
            largest_free_run={sram: 8, reram: 128},
        )
        (backfill,) = policy.next_dispatches(later)
        assert backfill.job.job_id == "b"
        assert backfill.arrays <= 8
        assert now + backfill.predicted_time <= ends["c"]


class TestSchedulersEndToEnd:
    @pytest.mark.parametrize(
        "scheduler_cls",
        [LJFScheduler, AdaptiveScheduler, GlobalScheduler, EWTScheduler],
    )
    def test_all_jobs_complete(self, system, scheduler_cls):
        jobs = mixed_batch()
        scheduler = scheduler_cls(OraclePredictor())
        result = Dispatcher(system).run(scheduler.plan(jobs, system))
        assert len(result.records) == len(jobs)
        assert result.makespan > 0

    def test_global_plan_with_end_tie_across_memories(self):
        """Identical jobs on two memories finish at the same estimated
        instant; the static schedule orders the tie by memory position
        (comparing the ``MemoryKind``s raised ``TypeError``)."""
        kinds = [MemoryKind.SRAM, MemoryKind.DRAM]
        jobs = [
            Job(
                job_id=f"{kind.value}-{i}",
                kernel="app",
                profiles={
                    kind: JobPerfProfile(
                        unit_arrays=4,
                        t_load=1e-6,
                        t_replica_unit=0.0,
                        t_compute_unit=5e-6,
                    )
                },
            )
            for kind in kinds
            for i in range(9)
        ]
        tied = full_system().subset(kinds)
        policy = GlobalScheduler(OraclePredictor()).plan(jobs, tied)
        result = Dispatcher(tied).run(policy)
        assert set(result.records) == {job.job_id for job in jobs}
        assert {r.kind for r in result.records.values()} == set(kinds)

    def test_empty_batch(self, system):
        policy = LJFScheduler(OraclePredictor()).plan([], system)
        result = Dispatcher(system).run(policy)
        assert result.makespan == 0.0

    def test_sophisticated_beats_naive(self, system):
        """Figure 16's core claim: when every job prefers the same
        memory, naive LJF piles onto it ("single processor
        performance") while adaptive/global offload to the others."""
        jobs = [
            make_job(f"j{i}", sram_t=1e-4 * (1 + i % 7), reram_t=1.4e-4 * (1 + i % 7))
            for i in range(32)
        ]
        predictor = OraclePredictor()
        dispatcher = Dispatcher(system)
        ljf = dispatcher.run(LJFScheduler(predictor).plan(jobs, system)).makespan
        adaptive = dispatcher.run(
            AdaptiveScheduler(predictor).plan(jobs, system)
        ).makespan
        global_ = dispatcher.run(
            GlobalScheduler(predictor).plan(jobs, system)
        ).makespan
        assert adaptive < ljf
        # The static global schedule may trail adaptive slightly but
        # must also clearly beat the naive baseline.
        assert global_ < ljf * 1.05

    def test_jobs_follow_their_preference(self, system):
        jobs = mixed_batch(16)
        result = Dispatcher(system).run(
            AdaptiveScheduler(OraclePredictor()).plan(jobs, system)
        )
        # Most SRAM-preferring jobs should land on SRAM and vice versa
        # (balancing may move a few).
        right = sum(
            1
            for r in result.records.values()
            if (r.job_id.startswith("s")) == (r.kind is MemoryKind.SRAM)
        )
        assert right >= len(jobs) * 0.5

    def test_unschedulable_job_raises(self, system):
        job = make_job("big", 1e-4, 1e-4, unit=1000)
        with pytest.raises(ValueError):
            AdaptiveScheduler(OraclePredictor()).plan([job], system)
        with pytest.raises(ValueError):
            LJFScheduler(OraclePredictor()).plan([job], system)
        with pytest.raises(ValueError):
            EWTScheduler(OraclePredictor()).plan([job], system)


ALL_SCHEDULERS = [LJFScheduler, AdaptiveScheduler, GlobalScheduler, EWTScheduler]


class TestAdmitContract:
    """The ``admit(jobs, now)`` contract, uniform across every policy
    (documented on ``DispatchPolicy.admit``): an empty batch is a pure
    no-op, and ``now`` values need not arrive monotonically.

    Surfaced while wiring EWT: LJF used to re-sort its queue and the
    global scheduler walked its re-plan path even for empty batches,
    so "probe admit" and "no admit" could diverge per policy.
    """

    @pytest.mark.parametrize("scheduler_cls", ALL_SCHEDULERS)
    def test_empty_admit_returns_empty(self, system, scheduler_cls):
        policy = scheduler_cls(OraclePredictor()).plan(mixed_batch(8), system)
        assert policy.admit([], 1.0) == []

    @pytest.mark.parametrize("scheduler_cls", ALL_SCHEDULERS)
    def test_empty_admit_is_behaviourally_inert(self, system, scheduler_cls):
        """A policy probed with empty admits (including out-of-order
        timestamps) must produce the byte-identical execution of an
        unprobed twin."""
        jobs = mixed_batch(12)
        scheduler = scheduler_cls(OraclePredictor())
        plain = scheduler.plan(list(jobs), system)
        probed = scheduler.plan(list(jobs), system)
        for now in (5e-4, 0.0, 2e-3, 1e-6):  # deliberately non-monotone
            assert probed.admit([], now) == []
        assert probed.queue_depths() == plain.queue_depths()
        assert probed.pending() == plain.pending()
        result_plain = Dispatcher(system).run(plain)
        result_probed = Dispatcher(system).run(probed)
        key = lambda result: [
            (r.job_id, r.device, r.phase.value, r.start, r.end, r.arrays)
            for r in result.trace.records
        ]
        assert key(result_probed) == key(result_plain)
        assert result_probed.makespan == result_plain.makespan

    @pytest.mark.parametrize("scheduler_cls", ALL_SCHEDULERS)
    def test_out_of_order_now_still_places(self, system, scheduler_cls):
        """Each admit call is interpreted against its own timestamp;
        a ``now`` earlier than a previous call's must not break
        placement or accounting."""
        policy = scheduler_cls(OraclePredictor()).plan(mixed_batch(4), system)
        before = policy.pending()
        late = [make_job("late", 1e-4, 2e-4)]
        early = [make_job("early", 2e-4, 1e-4)]
        assert policy.admit(late, 1.0) == []
        assert policy.admit(early, 0.25) == []  # earlier than the last call
        assert policy.pending() == before + 2

    @pytest.mark.parametrize("scheduler_cls", ALL_SCHEDULERS)
    def test_unplaceable_arrival_is_returned_not_dropped(
        self, system, scheduler_cls
    ):
        policy = scheduler_cls(OraclePredictor()).plan(mixed_batch(4), system)
        giant = make_job("giant", 1e-4, 1e-4, unit=1000)
        before = policy.pending()
        rejected = policy.admit([giant], 0.5)
        assert rejected == [giant]
        assert policy.pending() == before


class TestOracle:
    def test_oracle_lower_bounds_schedulers(self, system):
        jobs = mixed_batch(32)
        bound = oracle_makespan(jobs, system)
        result = Dispatcher(system).run(
            GlobalScheduler(OraclePredictor()).plan(jobs, system)
        )
        assert bound <= result.makespan * 1.0001

    def test_oracle_beats_single_memory(self, system):
        jobs = mixed_batch(32)
        bound = oracle_makespan(jobs, system)
        for kind in system.kinds:
            single = oracle_makespan(jobs, system.subset([kind]))
            assert bound <= single * 1.0001

    def test_empty_batch(self, system):
        assert oracle_makespan([], system) == 0.0

    def test_single_job(self, system):
        jobs = [make_job("one", 1e-4, 2e-4)]
        assert oracle_makespan(jobs, system) > 0

    def test_scipy_optimize_is_imported_only_by_the_oracle(self):
        """The LP solver is a large import that only the oracle bound
        uses: importing the package and its serve/cluster/replay and
        figure entry points must not load it."""
        code = (
            "import sys\n"
            "import repro, repro.harness.experiments, repro.cluster.runtime, "
            "repro.harness.replay\n"
            "assert 'scipy.optimize' not in sys.modules, 'scipy.optimize imported'\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        subprocess.run(
            [sys.executable, "-c", code],
            check=True,
            env={**os.environ, "PYTHONPATH": path},
        )


class TestPolicyViews:
    def test_dispatch_validation(self):
        job = make_job("x", 1e-4, 2e-4)
        with pytest.raises(ValueError):
            Dispatch(job=job, kind=MemoryKind.SRAM, arrays=0)
        with pytest.raises(ValueError):
            Dispatch(job=job, kind=MemoryKind.DRAM, arrays=4)

    def test_resource_view_can_place(self):
        view = ResourceView(
            now=0.0,
            free_slots={MemoryKind.SRAM: 1},
            free_arrays={MemoryKind.SRAM: 10},
            largest_free_run={MemoryKind.SRAM: 6},
        )
        assert view.can_place(MemoryKind.SRAM, 6)
        assert not view.can_place(MemoryKind.SRAM, 7)
        assert not view.can_place(MemoryKind.RERAM, 1)
