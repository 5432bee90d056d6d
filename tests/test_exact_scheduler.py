"""Properties of the exact branch-and-bound reference scheduler.

The solver is verification infrastructure (the optgap oracle), so it
gets the strongest checks in the repo: the returned optimum must be a
pure function of the *instance* -- invariant to input permutation and
bit-identical with all pruning disabled -- and must agree with closed
forms computed by independent arithmetic on degenerate shapes.
"""

import itertools
import math
import random

import pytest

from repro.core import Dispatcher, Job, JobPerfProfile, MLIMPSystem
from repro.core.scheduler.exact import (
    DEFAULT_NODE_BUDGET,
    ExactSolverError,
    solve_exact,
)
from repro.core.scheduler.globalsched import ScheduledEntry
from repro.memories import ArrayGeometry, MemoryKind, MemorySpec


def tiny_spec(kind: MemoryKind, arrays: int, slots: int = 2) -> MemorySpec:
    return MemorySpec(
        kind=kind,
        name=f"exact-{kind.value}",
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


def two_kind_system(slots: int = 2) -> MLIMPSystem:
    return MLIMPSystem(
        specs={
            MemoryKind.SRAM: tiny_spec(MemoryKind.SRAM, arrays=32, slots=slots),
            MemoryKind.DRAM: tiny_spec(MemoryKind.DRAM, arrays=48, slots=slots),
        }
    )


def compute_pure_jobs(
    seed: int,
    count: int,
    kinds=(MemoryKind.SRAM, MemoryKind.DRAM),
    max_waves: int = 3,
) -> list[Job]:
    """Seeded jobs inside the solver's exact domain (no off-chip
    fill), each placeable on every kind."""
    rng = random.Random(seed)
    jobs = []
    for i in range(count):
        profiles = {}
        for kind in kinds:
            base = rng.uniform(0.4, 3.0) * 1e-3
            profiles[kind] = JobPerfProfile(
                unit_arrays=rng.choice([2, 3]),
                t_load=0.0,
                t_replica_unit=base * rng.uniform(0.003, 0.01),
                t_compute_unit=base,
                waves_unit=rng.randint(1, max_waves),
                fill_bytes=0.0,
            )
        jobs.append(Job(job_id=f"e{seed}-{i}", kernel="gemm", profiles=profiles))
    return jobs


class TestPermutationInvariance:
    @pytest.mark.parametrize("seed", (0, 3, 9))
    def test_optimum_is_a_function_of_the_job_set(self, seed):
        system = two_kind_system()
        jobs = compute_pure_jobs(seed, 5)
        reference = solve_exact(jobs, system)
        for perm in itertools.islice(itertools.permutations(jobs), 0, 120, 13):
            solution = solve_exact(list(perm), system)
            assert solution.makespan == reference.makespan  # bit-identical
            assert solution.assignments == reference.assignments

    def test_job_id_relabelling_does_not_change_makespan(self):
        system = two_kind_system()
        jobs = compute_pure_jobs(4, 5)
        relabelled = [
            Job(job_id=f"zz-{i}", kernel=j.kernel, profiles=j.profiles)
            for i, j in enumerate(reversed(jobs))
        ]
        assert (
            solve_exact(relabelled, system).makespan
            == solve_exact(jobs, system).makespan
        )


class TestPruningIsLossless:
    """``brute_force=True`` disables every bound cut; the optimum must
    come back bit-identical, proving no prune ever removed it."""

    @pytest.mark.parametrize("seed", (1, 2, 7, 13))
    def test_pruned_equals_brute_force(self, seed):
        system = two_kind_system()
        jobs = compute_pure_jobs(seed, 5)
        pruned = solve_exact(jobs, system)
        brute = solve_exact(jobs, system, node_budget=10 * DEFAULT_NODE_BUDGET,
                            brute_force=True)
        assert pruned.makespan == brute.makespan
        assert pruned.nodes <= brute.nodes

    @pytest.mark.parametrize("seed", (5, 8))
    def test_pruned_equals_brute_force_six_jobs(self, seed):
        # Six jobs with waves_unit == 1 (one allocation choice per
        # kind) keeps full enumeration cheap at the satellite's target
        # size.
        system = two_kind_system()
        jobs = compute_pure_jobs(seed, 6, max_waves=1)
        pruned = solve_exact(jobs, system)
        brute = solve_exact(jobs, system, brute_force=True)
        assert pruned.makespan == brute.makespan


class TestClosedFormAgreement:
    """Independent arithmetic on degenerate shapes."""

    def test_single_slot_is_a_chain_of_best_options(self):
        # One slot per device forces sequential execution; with one
        # kind the optimum is just the sum of per-job best durations.
        system = MLIMPSystem(
            specs={MemoryKind.SRAM: tiny_spec(MemoryKind.SRAM, 32, slots=1)}
        )
        jobs = compute_pure_jobs(11, 4, kinds=(MemoryKind.SRAM,))
        solution = solve_exact(jobs, system)
        chain = sum(solve_exact([job], system).makespan for job in jobs)
        assert math.isclose(solution.makespan, chain, rel_tol=1e-12)

    def test_all_concurrent_is_the_slowest_best_option(self):
        # Slots and arrays both exceed total demand: every job runs
        # its fastest option from t=0 and the makespan is their max.
        system = MLIMPSystem(
            specs={MemoryKind.SRAM: tiny_spec(MemoryKind.SRAM, 64, slots=8)}
        )
        jobs = compute_pure_jobs(12, 3, kinds=(MemoryKind.SRAM,), max_waves=2)
        solution = solve_exact(jobs, system)
        slowest = max(solve_exact([job], system).makespan for job in jobs)
        assert solution.makespan == slowest

    def test_two_jobs_split_across_two_devices(self):
        # Two identical jobs, two devices: running them in parallel on
        # different kinds must beat stacking both on the faster one
        # whenever the slower device is close enough -- the solver must
        # find the split.
        system = two_kind_system(slots=1)
        profiles = {
            kind: JobPerfProfile(
                unit_arrays=2,
                t_load=0.0,
                t_replica_unit=5e-6,
                t_compute_unit=1e-3,
                waves_unit=1,
                fill_bytes=0.0,
            )
            for kind in (MemoryKind.SRAM, MemoryKind.DRAM)
        }
        jobs = [
            Job(job_id=f"tw-{i}", kernel="gemm", profiles=dict(profiles))
            for i in range(2)
        ]
        solution = solve_exact(jobs, system)
        kinds_used = {a["kind"] for a in solution.assignments.values()}
        assert kinds_used == {"sram", "dram"}
        single = solve_exact([jobs[0]], system).makespan
        assert solution.makespan < 2 * single

    def test_empty_instance(self):
        solution = solve_exact([], two_kind_system())
        assert solution.makespan == 0.0
        assert solution.schedule == []
        assert solution.assignments == {}


class TestScheduleIntegrity:
    def test_schedule_matches_assignments_and_makespan(self):
        system = two_kind_system()
        jobs = compute_pure_jobs(17, 6)
        solution = solve_exact(jobs, system)
        assert len(solution.schedule) == len(jobs)
        assert all(isinstance(e, ScheduledEntry) for e in solution.schedule)
        starts = [e.planned_start for e in solution.schedule]
        assert starts == sorted(starts)
        ends = [a["end"] for a in solution.assignments.values()]
        assert max(ends) == solution.makespan
        for entry in solution.schedule:
            assignment = solution.assignments[entry.entry.job.job_id]
            assert entry.entry.kind.value == assignment["kind"]
            assert entry.entry.arrays == assignment["arrays"]
            assert entry.planned_start == assignment["start"]

    def test_exact_scheduler_plans_a_dispatchable_policy(self):
        system = two_kind_system()
        jobs = compute_pure_jobs(19, 5)
        solution = solve_exact(jobs, system)
        result = Dispatcher(system).run(solution.policy(system), label="exact")
        assert set(result.records) == {job.job_id for job in jobs}
        assert not result.failed_jobs
        assert result.makespan == solution.makespan  # replay is bit-exact


class TestClearErrors:
    def test_memory_infeasible_job_raises(self):
        system = two_kind_system()
        jobs = compute_pure_jobs(1, 2)
        whale = Job(
            job_id="whale",
            kernel="gemm",
            profiles={
                MemoryKind.SRAM: JobPerfProfile(
                    unit_arrays=4096,
                    t_load=0.0,
                    t_replica_unit=1e-6,
                    t_compute_unit=1e-3,
                    waves_unit=1,
                    fill_bytes=0.0,
                )
            },
        )
        with pytest.raises(ExactSolverError, match="fits no memory"):
            solve_exact(jobs + [whale], system)

    def test_off_chip_fill_rejected(self):
        system = two_kind_system()
        streaming = Job(
            job_id="stream",
            kernel="gemm",
            profiles={
                kind: JobPerfProfile(
                    unit_arrays=2,
                    t_load=0.0,
                    t_replica_unit=1e-6,
                    t_compute_unit=1e-3,
                    waves_unit=1,
                    fill_bytes=4096.0,
                )
                for kind in (MemoryKind.SRAM, MemoryKind.DRAM)
            },
        )
        with pytest.raises(ExactSolverError, match="fill_bytes"):
            solve_exact([streaming], system)

    def test_oversize_instance_rejected(self):
        system = two_kind_system()
        jobs = compute_pure_jobs(2, 11)
        with pytest.raises(ExactSolverError, match="exceed the exact-instance"):
            solve_exact(jobs, system)

    def test_duplicate_job_ids_rejected(self):
        system = two_kind_system()
        job = compute_pure_jobs(3, 1)[0]
        with pytest.raises(ExactSolverError, match="duplicate"):
            solve_exact([job, job], system)

    def test_node_budget_raises_instead_of_hanging(self):
        system = two_kind_system()
        jobs = compute_pure_jobs(6, 6)
        with pytest.raises(ExactSolverError, match="node budget"):
            solve_exact(jobs, system, brute_force=True, node_budget=50)
