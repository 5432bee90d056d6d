"""Harness: configuration, reporting, workloads, integration shapes."""

import pickle

import pytest

from repro.core import (
    AdaptiveScheduler,
    GlobalScheduler,
    LJFScheduler,
    OraclePredictor,
    oracle_makespan,
)
from repro.harness import (
    DEVICE_SCALE,
    Report,
    build_workload,
    full_system,
    gnn_system,
    run_workload,
    scaled_specs,
)
from repro.memories import DEFAULT_SPECS, MemoryKind


class TestConfig:
    def test_scaled_specs_divide_arrays(self):
        specs = scaled_specs(scale=64)
        for kind, spec in specs.items():
            assert spec.num_arrays == max(8, DEFAULT_SPECS[kind].num_arrays // 64)
            # Everything else is untouched.
            assert spec.clock_mhz == DEFAULT_SPECS[kind].clock_mhz
            assert spec.geometry == DEFAULT_SPECS[kind].geometry

    def test_scale_validation(self):
        with pytest.raises(ValueError):
            scaled_specs(scale=0)

    def test_system_builders(self):
        assert set(gnn_system().kinds) == set(MemoryKind)
        sub = full_system([MemoryKind.SRAM])
        assert sub.kinds == [MemoryKind.SRAM]
        assert sub.arrays(MemoryKind.SRAM) == DEFAULT_SPECS[MemoryKind.SRAM].num_arrays


class TestReport:
    def test_rows_and_lookup(self):
        report = Report(title="t", columns=["a", "b"])
        report.add_row("x", 1.5)
        report.add_row("y", 2.0)
        assert report.column("b") == [1.5, 2.0]
        assert report.row("x") == ("x", 1.5)
        assert report.as_dict()["y"]["b"] == 2.0
        with pytest.raises(KeyError):
            report.row("z")

    def test_row_arity_checked(self):
        report = Report(title="t", columns=["a", "b"])
        with pytest.raises(ValueError):
            report.add_row("only-one")

    def test_str_contains_rows_and_notes(self):
        report = Report(title="Demo", columns=["k", "v"])
        report.add_row("alpha", 3.14159)
        report.note("shape holds")
        text = str(report)
        assert "Demo" in text and "alpha" in text and "shape holds" in text


@pytest.fixture(scope="module")
def workload():
    return build_workload("collab", num_batches=2, batch_size=24, seed=9)


class TestWorkload:
    def test_structure(self, workload):
        assert len(workload.jobs_per_batch) == 2
        # 24 subgraphs x 3 layers x 3 kernels.
        assert len(workload.jobs_per_batch[0]) == 24 * 9
        assert workload.num_queries == 48
        assert len(workload.training_jobs) >= 24

    def test_unread_training_set_pickles_as_its_recipe(self):
        built = build_workload("collab", num_batches=1, batch_size=8, seed=9)
        clone = pickle.loads(pickle.dumps(built))
        assert clone.training._jobs is None
        ids = [job.job_id for job in clone.training_jobs]
        assert ids == [job.job_id for job in built.training_jobs]

    def test_spmm_selector(self, workload):
        spmm = workload.spmm_jobs()
        assert all(job.kernel == "spmm" for job in spmm)
        assert len(spmm) == 24 * 3 * 2

    def test_baselines_slower_than_nothing(self, workload):
        assert workload.gpu_time() > 0
        assert workload.cpu_time() > workload.gpu_time()

    def test_run_workload_all_jobs_complete(self, workload):
        summary = run_workload(workload, AdaptiveScheduler(OraclePredictor()))
        assert summary.total_makespan > 0
        total = sum(len(r.records) for r in summary.results)
        assert total == len(workload.all_jobs)

    def test_kernel_busy_accounting(self, workload):
        summary = run_workload(workload, GlobalScheduler(OraclePredictor()))
        busy = summary.kernel_busy_seconds(workload.jobs_per_batch)
        assert set(busy) == {"spmm", "gemm", "vadd"}
        assert busy["spmm"] > busy["vadd"]

    def test_predictor_trains_on_workload(self, workload):
        predictor = workload.train_predictor(epochs=60)
        job = workload.spmm_jobs()[0]
        est = predictor.estimate(job, MemoryKind.SRAM)
        truth = job.profile(MemoryKind.SRAM).t_compute_unit
        assert est.t_compute_unit == pytest.approx(truth, rel=2.0)


class TestHeadlineShapes:
    """The paper's core claims, asserted at test scale."""

    def test_scheduling_beats_naive_and_tracks_oracle(self, workload):
        jobs = workload.all_jobs
        oracle = oracle_makespan(jobs, workload.system)
        naive = run_workload(
            workload, LJFScheduler(OraclePredictor()), jobs_per_batch=[jobs]
        ).total_makespan
        mlimp = run_workload(
            workload, GlobalScheduler(OraclePredictor()), jobs_per_batch=[jobs]
        ).total_makespan
        assert oracle <= mlimp <= naive
        assert oracle / mlimp > 0.5  # a sophisticated scheduler is close
        assert oracle / mlimp > oracle / naive  # and beats the naive one

    def test_mlimp_beats_gpu_baseline(self, workload):
        summary = run_workload(workload, GlobalScheduler(OraclePredictor()))
        mlimp = summary.total_makespan + workload.host_others_seconds()
        gpu = workload.gpu_time() + workload.host_others_seconds()
        assert gpu / mlimp > 2.0  # paper: 4.8x geomean
