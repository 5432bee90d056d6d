"""Predictor lifecycle: replay buffer, drift tracking, online learning.

The lifecycle loop (train/deploy/monitor/retrain) closes PR 1's
predicted-vs-actual observability gap: dispatcher completions feed an
:class:`OnlinePredictor` that retrains from a bounded replay buffer
and gates itself behind the analytical fallback while drifting.  These
tests pin the generic pieces (``repro.ml.online``), the wrapper's
counted-fallback contract, the dispatcher/serving wiring, and the CLI
artifact round trip.
"""

import json
import random

import numpy as np
import pytest

from repro.core.predictor import (
    OnlinePredictor,
    OraclePredictor,
    default_online_features,
    profile_features,
)
from repro.harness.config import full_system
from repro.memories import MemoryKind
from repro.ml import DriftTracker, ReplayBuffer
from repro.obs.metrics import MetricsRegistry
from repro.serving import PoissonArrivals, ServingRuntime, Tenant
from repro.serving.workload import OpenWorkload


class TestReplayBuffer:
    def test_bounded_fifo(self):
        buffer = ReplayBuffer(capacity=3)
        for i in range(5):
            buffer.add([float(i)], float(i))
        assert len(buffer) == 3
        X, y = buffer.arrays()
        assert X.ravel().tolist() == [2.0, 3.0, 4.0]
        assert y.tolist() == [2.0, 3.0, 4.0]

    def test_feature_length_pinned_by_first_add(self):
        buffer = ReplayBuffer()
        buffer.add([1.0, 2.0], 0.5)
        with pytest.raises(ValueError, match="feature length"):
            buffer.add([1.0], 0.5)

    def test_empty_arrays_raise(self):
        with pytest.raises(ValueError):
            ReplayBuffer().arrays()

    def test_clear(self):
        buffer = ReplayBuffer()
        buffer.add([1.0], 1.0)
        buffer.clear()
        assert len(buffer) == 0

    def test_bad_capacity(self):
        with pytest.raises(ValueError):
            ReplayBuffer(capacity=0)


class TestDriftTracker:
    def test_undecided_until_min_samples(self):
        tracker = DriftTracker(window=8, min_samples=4)
        for _ in range(3):
            tracker.add(1.0, 2.0)
        assert tracker.value() is None
        assert not tracker.drifting(0.1)  # undecided is not drifting
        tracker.add(1.0, 2.0)
        assert tracker.value() == pytest.approx(1.0)
        assert tracker.drifting(0.5)

    def test_rolling_window_forgets(self):
        tracker = DriftTracker(window=4, min_samples=2)
        for _ in range(4):
            tracker.add(1.0, 5.0)  # terrible
        for _ in range(4):
            tracker.add(1.0, 1.0)  # perfect, evicts the bad pairs
        assert tracker.value() == pytest.approx(0.0)

    def test_reset(self):
        tracker = DriftTracker(window=4, min_samples=2)
        tracker.add(1.0, 3.0)
        tracker.add(1.0, 3.0)
        tracker.reset()
        assert len(tracker) == 0
        assert tracker.value() is None

    def test_zero_actuals_undecided(self):
        tracker = DriftTracker(window=4, min_samples=2)
        tracker.add(0.0, 1.0)
        tracker.add(0.0, 1.0)
        assert tracker.value() is None

    def test_bad_params(self):
        with pytest.raises(ValueError):
            DriftTracker(window=0)
        with pytest.raises(ValueError):
            DriftTracker(min_samples=0)


def _serve_jobs(n: int, seed: int = 0):
    """Open-workload jobs (profile-only features, no metadata)."""
    workload = OpenWorkload(full_system())
    rng = random.Random(seed)
    return [workload.make_job(i, "t0", rng, {}) for i in range(n)]


class TestOnlinePredictor:
    def test_untrained_falls_back_and_counts(self):
        predictor = OnlinePredictor()
        job = _serve_jobs(1)[0]
        est = predictor.estimate(job, MemoryKind.SRAM)
        oracle = OraclePredictor().estimate(job, MemoryKind.SRAM)
        assert est.t_compute_unit == oracle.t_compute_unit
        assert predictor.counters["predictor.fallback"] == 1
        assert predictor.counters["predictor.fallback.untrained"] == 1

    def test_retrains_after_enough_completions(self):
        predictor = OnlinePredictor(
            retrain_every=8, min_samples=8, train_epochs=30
        )
        metrics = MetricsRegistry()
        for job in _serve_jobs(20, seed=1):
            predictor.on_completion(job, MemoryKind.SRAM, 0.0, metrics)
        counters = predictor.counters
        assert counters["predictor.observations"] == 20
        assert counters["predictor.retrains"] == 2
        # Counters were flushed into the registry for the obs export.
        assert metrics.counter("predictor.retrains").value == 2
        assert metrics.counter("predictor.observations").value == 20

    def test_estimates_once_trained(self):
        predictor = OnlinePredictor(
            retrain_every=16, min_samples=16, train_epochs=40
        )
        jobs = _serve_jobs(40, seed=2)
        for job in jobs[:16]:
            predictor.on_completion(job, MemoryKind.SRAM, 0.0)
        est = predictor.estimate(jobs[-1], MemoryKind.SRAM)
        assert np.isfinite(est.t_compute_unit) and est.t_compute_unit > 0
        assert predictor.counters["predictor.estimates"] == 1
        # The learned model is in the right ballpark on its own stream.
        actual = jobs[-1].profile(MemoryKind.SRAM).t_compute_unit
        assert 0.1 < est.t_compute_unit / actual < 10.0

    def test_drift_gates_model_behind_fallback(self):
        predictor = OnlinePredictor(
            retrain_every=8, min_samples=8, train_epochs=30
        )
        jobs = _serve_jobs(16, seed=3)
        for job in jobs[:8]:
            predictor.on_completion(job, MemoryKind.SRAM, 0.0)
        # Sabotage the model so its window error explodes.
        tracker = predictor._drift_for(MemoryKind.SRAM)
        for _ in range(tracker.min_samples):
            tracker.add(1.0, 100.0)
        est = predictor.estimate(jobs[-1], MemoryKind.SRAM)
        oracle = OraclePredictor().estimate(jobs[-1], MemoryKind.SRAM)
        assert est.t_compute_unit == oracle.t_compute_unit
        assert predictor.counters["predictor.fallback.drift"] == 1
        # The next retrain resets the tracker and lifts the gate.
        for job in jobs[8:16]:
            predictor.on_completion(job, MemoryKind.SRAM, 0.0)
        assert not predictor._drift_for(MemoryKind.SRAM).drifting(0.5)

    def test_deterministic_given_seed(self):
        def run():
            predictor = OnlinePredictor(
                retrain_every=8, min_samples=8, train_epochs=30, seed=5
            )
            jobs = _serve_jobs(24, seed=4)
            for job in jobs[:16]:
                predictor.on_completion(job, MemoryKind.SRAM, 0.0)
            return predictor.estimate(jobs[-1], MemoryKind.SRAM).t_compute_unit

        assert run() == run()

    def test_feature_fns(self):
        job = _serve_jobs(1)[0]
        x = profile_features(job, MemoryKind.SRAM)
        assert x.shape == (6,) and np.all(np.isfinite(x))
        # Serve jobs have no metadata -> the default resolves to the
        # profile features.
        assert np.array_equal(default_online_features(job, MemoryKind.SRAM), x)
        # The target must not leak into the features.
        profile = job.profile(MemoryKind.SRAM)
        assert not np.any(np.isclose(x, np.log1p(profile.t_compute_unit)))


class TestServingIntegration:
    def _serve(self, predictor):
        runtime = ServingRuntime(
            full_system(), scheduler="adaptive", predictor=predictor
        )
        arrivals = PoissonArrivals(
            rate=300.0, horizon=1.0, seed=11, tenants=("t0", "t1")
        )
        tenants = [Tenant("t0"), Tenant("t1")]
        return runtime.serve(arrivals, tenants=tenants, slo_s=0.05)

    def test_online_serve_retrains_and_exports_counters(self):
        predictor = OnlinePredictor(
            retrain_every=16, min_samples=12, drift_window=32, seed=11
        )
        serving = self._serve(predictor)
        counters = predictor.counters
        assert counters["predictor.retrains"] >= 1
        assert counters["predictor.observations"] > 0
        assert counters["predictor.fallback.untrained"] > 0
        # The same counters surface in the run's metrics registry (the
        # obs export path).
        metrics = serving.result.metrics
        assert (
            metrics.counter("predictor.retrains").value
            == counters["predictor.retrains"]
        )
        assert (
            metrics.counter("predictor.fallback").value
            == counters["predictor.fallback"]
        )

    def test_online_serve_deterministic(self):
        a = self._serve(OnlinePredictor(seed=1)).report.as_dict()
        b = self._serve(OnlinePredictor(seed=1)).report.as_dict()
        assert a == b

    def test_oracle_serve_has_no_lifecycle_counters(self):
        serving = self._serve(None)
        snapshot = serving.result.metrics.snapshot()
        assert not any(
            name.startswith("predictor.") for name in snapshot.get("counters", {})
        )


class TestNaivePredictor:
    def test_fit_and_ranking(self):
        from repro.harness.predictor import NaiveMetricPredictor

        from repro.gnn import NeighborSampler, extract_metadata, generate
        from repro.kernels import make_spmm_job
        from repro.memories import DEFAULT_SPECS

        graph = generate("collab")
        sampler = NeighborSampler(graph, hops=2, fanout=(8, 4), max_nodes=300, seed=2)
        jobs = []
        for i, query in enumerate(range(0, 160, 10)):
            sub = sampler.sample(query)
            md = extract_metadata(sub, 128)
            jobs.append(
                make_spmm_job(f"n{i}", sub.graph, 128, DEFAULT_SPECS, metadata=md)
            )
        naive = NaiveMetricPredictor().fit(jobs)
        est = naive.estimate(jobs[0], MemoryKind.SRAM)
        assert np.isfinite(est.t_compute_unit) and est.t_compute_unit > 0

    def test_unfitted_raises(self):
        from repro.harness.predictor import NaiveMetricPredictor

        job = _serve_jobs(1)[0]
        # Serve jobs lack metadata -> oracle path even unfitted.
        est = NaiveMetricPredictor().estimate(job, MemoryKind.SRAM)
        assert est.t_compute_unit == job.profile(MemoryKind.SRAM).t_compute_unit

    def test_lifecycle_experiment_registered(self):
        from repro.harness.experiments import full_registry

        assert "lifecycle" in full_registry()


class TestPredictorCLI:
    def test_train_eval_export_round_trip(self, tmp_path, capsys):
        from repro.__main__ import main

        artifact = tmp_path / "pred.json"
        assert main([
            "predictor", "train", "--dataset", "collab",
            "--epochs", "40", "--out", str(artifact),
        ]) == 0
        assert artifact.exists()
        capsys.readouterr()

        assert main([
            "predictor", "eval", "--model", str(artifact),
            "--dataset", "collab", "--max-rel-rmse", "0.5",
        ]) == 0
        capsys.readouterr()

        copy = tmp_path / "copy.json"
        assert main([
            "predictor", "export", "--model", str(artifact),
            "--out", str(copy),
        ]) == 0
        assert copy.read_bytes() == artifact.read_bytes()
        out = capsys.readouterr().out
        assert "mlimp-predictor" in out

    def test_eval_gate_fails_on_tight_bound(self, tmp_path, capsys):
        from repro.__main__ import main

        artifact = tmp_path / "pred.json"
        assert main([
            "predictor", "train", "--dataset", "collab",
            "--epochs", "40", "--out", str(artifact),
        ]) == 0
        capsys.readouterr()
        assert main([
            "predictor", "eval", "--model", str(artifact),
            "--dataset", "collab", "--max-rel-rmse", "0.0001",
        ]) == 1
        assert "FAIL" in capsys.readouterr().err

    def test_eval_without_model_errors(self, capsys):
        from repro.__main__ import main

        assert main(["predictor", "eval"]) == 2
        assert "--model" in capsys.readouterr().err

    def test_serve_predictor_online_smoke(self, tmp_path, capsys):
        from repro.__main__ import main

        out = tmp_path / "serve.json"
        assert main([
            "serve", "--rate", "300", "--horizon", "1.0", "--seed", "7",
            "--predictor", "online", "--json", str(out),
        ]) == 0
        stdout = capsys.readouterr().out
        assert "predictor lifecycle:" in stdout
        payload = json.loads(out.read_text())
        assert payload["predictor"]["predictor.retrains"] >= 1
        assert payload["predictor"]["predictor.fallback"] >= 1

    def test_serve_predictor_artifact_smoke(self, tmp_path, capsys):
        from repro.__main__ import main

        artifact = tmp_path / "pred.json"
        assert main([
            "predictor", "train", "--dataset", "collab",
            "--epochs", "40", "--out", str(artifact),
        ]) == 0
        capsys.readouterr()
        assert main([
            "serve", "--rate", "50", "--horizon", "0.5",
            "--predictor", str(artifact),
        ]) == 0
