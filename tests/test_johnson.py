"""Johnson's rule: the paper's cited RCPSP special case with a known
optimum (two-machine flow shop = fill pipe then device)."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Dispatcher,
    Job,
    JobPerfProfile,
    MLIMPSystem,
    OraclePredictor,
)
from repro.core.scheduler import (
    JohnsonScheduler,
    LJFScheduler,
    flow_shop_makespan,
    johnson_order,
)
from repro.memories import ArrayGeometry, MemoryKind, MemorySpec


class TestRule:
    def test_textbook_example(self):
        # Classic instance: optimal order is 2, 4, 3, 0, 1 (0-based).
        stage_times = [(5, 2), (1, 6), (9, 7), (3, 8), (10, 4)]
        order = johnson_order(stage_times)
        # Jobs with a < b first (ascending a): 1 (a=1), 3 (a=3);
        # then a >= b descending b: 2 (b=7), 4 (b=4), 0 (b=2).
        assert order == [1, 3, 2, 4, 0]

    def test_makespan_recurrence(self):
        stage_times = [(2, 3), (4, 1)]
        assert flow_shop_makespan(stage_times, [0, 1]) == 7  # 2,5 | 6,7
        assert flow_shop_makespan(stage_times, [1, 0]) == 9  # 4,5 | 6,9

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            johnson_order([(-1, 2)])
        with pytest.raises(ValueError):
            flow_shop_makespan([(1, 2), (3, 4)], [0, 0])

    @settings(max_examples=60, deadline=None)
    @given(
        stage_times=st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=10),
                st.floats(min_value=0, max_value=10),
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_optimality_against_brute_force(self, stage_times):
        """Johnson's sequence achieves the minimum makespan over all
        permutations -- the 'golden solution' the paper refers to."""
        best = min(
            flow_shop_makespan(stage_times, list(perm))
            for perm in itertools.permutations(range(len(stage_times)))
        )
        johnson = flow_shop_makespan(stage_times, johnson_order(stage_times))
        assert johnson == pytest.approx(best)


def one_memory_system(slots: int = 1) -> MLIMPSystem:
    spec = MemorySpec(
        kind=MemoryKind.SRAM,
        name="flowshop",
        geometry=ArrayGeometry(32, 32),
        num_arrays=64,
        alus_per_array=32,
        clock_mhz=1000.0,
        mac_cycles_2op=10,
        multi_operand_alpha=1.0,
        max_operands=4,
        pack_limit=2,
        energy_per_mac_pj=1.0,
        energy_per_bitop_pj=0.1,
        fill_bandwidth_gbps=76.8,  # matches the shared-pipe rate
        copy_bandwidth_gbps=76.8,
        max_outstanding_jobs=slots,
    )
    return MLIMPSystem(specs={MemoryKind.SRAM: spec})


def flow_job(i: int, fill_bytes: float, compute: float) -> Job:
    return Job(
        job_id=f"f{i}",
        kernel="app",
        profiles={
            MemoryKind.SRAM: JobPerfProfile(
                unit_arrays=64,  # one job owns the device: pure sequencing
                t_load=fill_bytes / 76.8e9,
                t_replica_unit=0.0,
                t_compute_unit=compute,
                waves_unit=1,
                fill_bytes=fill_bytes,
            )
        },
    )


class TestScheduler:
    def test_requires_single_memory(self):
        from repro.harness import gnn_system

        with pytest.raises(ValueError):
            JohnsonScheduler(OraclePredictor()).plan([], gnn_system())

    def test_all_jobs_complete_in_johnson_order(self):
        system = one_memory_system()
        jobs = [
            flow_job(0, 5e5, 2e-6),
            flow_job(1, 1e5, 6e-6),
            flow_job(2, 9e5, 7e-6),
        ]
        result = Dispatcher(system).run(
            JohnsonScheduler(OraclePredictor()).plan(jobs, system)
        )
        assert len(result.records) == 3
        starts = {r.job_id: r.dispatched_at for r in result.records.values()}
        # Short-fill job f1 leads (a < b, smallest a).
        assert starts["f1"] < starts["f0"]
        assert starts["f1"] < starts["f2"]

    def test_beats_or_matches_ljf_on_flow_shop(self):
        """On the one-slot special case, Johnson sequencing never loses
        to the LJF baseline."""
        system = one_memory_system()
        dispatcher = Dispatcher(system)
        import numpy as np

        rng = np.random.default_rng(11)
        for trial in range(5):
            jobs = [
                flow_job(
                    i,
                    float(rng.uniform(1e4, 1e6)),
                    float(rng.uniform(1e-6, 2e-5)),
                )
                for i in range(8)
            ]
            johnson = dispatcher.run(
                JohnsonScheduler(OraclePredictor()).plan(jobs, system)
            ).makespan
            ljf = dispatcher.run(
                LJFScheduler(OraclePredictor()).plan(jobs, system)
            ).makespan
            assert johnson <= ljf * 1.001
