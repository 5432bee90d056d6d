"""Performance predictors (paper III-E).

The scheduler needs, for every (job, memory) pair, an estimated
execution-time curve over allocation sizes.  Deterministic kernels
(GEMM, the data-parallel applications) are costed exactly at compile
time; input-dependent kernels (SpMM over sampled subgraphs) need a
learned predictor because the cycle count depends on the adjacency
contents, which only a full scan would reveal.

Three predictors are provided:

* :class:`OraclePredictor` -- returns the true unit compute time
  (the paper's "oracle predictor" in Fig. 15).
* :class:`NoisyPredictor` -- wraps another predictor with
  deterministic log-normal multiplicative noise; drives the
  Section V-B3 stress test of scheduler noise tolerance.
* :class:`MLPPredictor` -- the paper's two-stage MLP pipeline: a
  first regressor learns ``H_w`` from subgraph metadata (w and nnz
  included), a second learns cycle counts from the same metadata plus
  the predicted ``H_w``; trained once per mother graph.

All of them emit :class:`~repro.core.perfmodel.ScaleFreeEstimate`
objects -- the smooth Eq. (1)-(3) model the allocation sizing and
queue-balancing algorithms operate on.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..memories.base import MemoryKind
from ..ml import DriftTracker, MLPRegressor, ReplayBuffer
from .job import Job
from .perfmodel import (
    DEFAULT_BETA,
    ProfileEstimate,
    ScaleFreeEstimate,
    estimate_from_profile,
)

__all__ = [
    "PerformancePredictor",
    "OraclePredictor",
    "NoisyPredictor",
    "MLPPredictor",
    "OnlinePredictor",
    "default_online_features",
    "profile_features",
    "naive_metric",
    "NaiveThresholdClassifier",
]

#: Log-domain clamp margin around the training-target range.  Stage-2
#: predictions are exponentiated; clamping to [min(log y) - margin,
#: max(log y) + margin] keeps a bad extrapolation finite (e^margin ~ 7x
#: headroom beyond the observed range) instead of handing the
#: scheduler an overflowed estimate.
LOG_CLAMP_MARGIN = 2.0

#: Serialisation schema version for :meth:`MLPPredictor.to_dict`.
PREDICTOR_STATE_VERSION = 1


class PerformancePredictor:
    """Interface: produce the scheduler's estimate for (job, memory).

    Estimates are either :class:`ProfileEstimate` (oracle-grade,
    delegates to the discrete ground truth) or
    :class:`ScaleFreeEstimate` (the smooth Eq. 1-3 model fed by a
    learned unit-compute-time prediction); both expose the same
    planning surface.
    """

    def estimate(self, job: Job, kind: MemoryKind):
        raise NotImplementedError


@dataclass
class OraclePredictor(PerformancePredictor):
    """The paper's oracle: "returns the accurate cycle counts of a job
    in each memory" -- planning curves equal the ground truth."""

    def estimate(self, job: Job, kind: MemoryKind) -> ProfileEstimate:
        return ProfileEstimate(job.profile(kind))


@dataclass
class NoisyPredictor(PerformancePredictor):
    """Multiplicative log-normal noise around a base predictor.

    Noise is deterministic per (job, memory) so repeated queries for
    the same pair agree -- a real mispredicting model is consistently
    wrong, not freshly random each call.
    """

    base: PerformancePredictor
    sigma: float
    seed: int = 0

    def __post_init__(self) -> None:
        if self.sigma < 0:
            raise ValueError("sigma must be non-negative")

    def _factor(self, job: Job, kind: MemoryKind) -> float:
        digest = hashlib.blake2b(
            f"{self.seed}:{job.job_id}:{kind.value}".encode(), digest_size=8
        ).digest()
        rng = np.random.default_rng(int.from_bytes(digest, "little"))
        return float(np.exp(rng.normal(0.0, self.sigma)))

    def estimate(self, job: Job, kind: MemoryKind):
        est = self.base.estimate(job, kind)
        if self.sigma == 0.0:
            return est
        factor = self._factor(job, kind)
        if isinstance(est, ProfileEstimate):
            return ProfileEstimate(
                profile=est.profile, compute_scale=est.compute_scale * factor
            )
        return ScaleFreeEstimate(
            unit_arrays=est.unit_arrays,
            t_load=est.t_load,
            t_replica_unit=est.t_replica_unit,
            t_compute_unit=est.t_compute_unit * factor,
            beta=est.beta,
            n_iter=est.n_iter,
            max_useful_arrays=est.max_useful_arrays,
        )


@dataclass
class MLPPredictor(PerformancePredictor):
    """Two-stage MLP predictor for input-dependent SpMM jobs.

    Deterministic kernels fall back to the oracle path, matching the
    paper: their latency "can be deterministically calculated at
    compile time" (III-E), so no learning is involved.
    """

    betas: dict[str, float] = field(default_factory=dict)
    hidden: tuple[int, ...] = (16, 8)
    epochs: int = 250
    seed: int = 0
    _hw_model: MLPRegressor | None = field(default=None, repr=False)
    _cycle_models: dict[MemoryKind, MLPRegressor] = field(default_factory=dict, repr=False)
    _log_bounds: dict[MemoryKind, tuple[float, float]] = field(
        default_factory=dict, repr=False
    )
    _n_features: int | None = field(default=None, repr=False)
    _oracle: OraclePredictor = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._oracle = OraclePredictor()

    # ------------------------------------------------------------------
    @staticmethod
    def _strip_width(job: Job, kind: MemoryKind) -> int:
        widths = job.tags.get("strip_width")
        if not isinstance(widths, dict) or kind not in widths:
            raise ValueError(
                f"job {job.job_id} lacks strip_width tags; build SpMM jobs "
                "with repro.kernels.make_spmm_job"
            )
        return int(widths[kind])

    @staticmethod
    def _true_hw(job: Job, kind: MemoryKind) -> int:
        hws = job.tags.get("h_w")
        if not isinstance(hws, dict) or kind not in hws:
            raise ValueError(f"job {job.job_id} lacks h_w tags")
        return int(hws[kind])

    def _features(self, job: Job, width: int) -> np.ndarray:
        if job.metadata is None:
            raise ValueError(f"job {job.job_id} has no metadata for prediction")
        raw = job.metadata.as_features(width)  # type: ignore[attr-defined]
        # Subgraph statistics span orders of magnitude; the small MLP
        # learns their log-domain relationships far more easily.
        return np.log1p(raw)

    @staticmethod
    def _spmm_training_jobs(jobs: list[Job], minimum: int) -> list[Job]:
        spmm_jobs = [j for j in jobs if j.kernel == "spmm" and j.metadata is not None]
        if len(spmm_jobs) < minimum:
            raise ValueError(
                f"need at least {minimum} SpMM jobs, got {len(spmm_jobs)}"
            )
        return spmm_jobs

    @staticmethod
    def _kinds_of(jobs: list[Job]) -> list[MemoryKind]:
        return sorted(
            {kind for job in jobs for kind in job.profiles}, key=lambda k: k.value
        )

    def _stage1_rows(
        self, jobs: list[Job], kinds: list[MemoryKind]
    ) -> tuple[np.ndarray, np.ndarray]:
        hw_X, hw_y = [], []
        for job in jobs:
            for kind in kinds:
                width = self._strip_width(job, kind)
                hw_X.append(self._features(job, width))
                hw_y.append(self._true_hw(job, kind))
        return np.asarray(hw_X), np.log1p(np.asarray(hw_y, dtype=float))

    def _stage2_rows(
        self, jobs: list[Job], kind: MemoryKind
    ) -> tuple[np.ndarray, np.ndarray]:
        X_rows, y_rows = [], []
        for job in jobs:
            X_rows.append(self._stage2_features(job, kind))
            y_rows.append(job.profile(kind).t_compute_unit)
        return np.asarray(X_rows), np.log(np.asarray(y_rows, dtype=float))

    @staticmethod
    def _merge_bounds(
        previous: tuple[float, float] | None, log_y: np.ndarray
    ) -> tuple[float, float]:
        lo = float(log_y.min()) - LOG_CLAMP_MARGIN
        hi = float(log_y.max()) + LOG_CLAMP_MARGIN
        if previous is not None:
            lo, hi = min(lo, previous[0]), max(hi, previous[1])
        return lo, hi

    # ------------------------------------------------------------------
    def train(self, jobs: list[Job]) -> "MLPPredictor":
        """Fit both stages on training SpMM jobs of one mother graph."""
        spmm_jobs = self._spmm_training_jobs(jobs, minimum=8)
        kinds = self._kinds_of(spmm_jobs)

        # Stage 1: H_w from metadata (+ the strip width w as a feature).
        hw_X, hw_y = self._stage1_rows(spmm_jobs, kinds)
        self._n_features = hw_X.shape[1]
        self._hw_model = MLPRegressor(
            hidden=self.hidden, epochs=self.epochs, seed=self.seed
        ).fit(hw_X, hw_y)

        # Stage 2: per-memory cycle counts from metadata + predicted H_w.
        self._cycle_models = {}
        self._log_bounds = {}
        for kind in kinds:
            X_rows, log_y = self._stage2_rows(spmm_jobs, kind)
            self._cycle_models[kind] = MLPRegressor(
                hidden=self.hidden, epochs=self.epochs, seed=self.seed + 1
            ).fit(X_rows, log_y)
            self._log_bounds[kind] = self._merge_bounds(None, log_y)
        return self

    def partial_fit(self, jobs: list[Job]) -> "MLPPredictor":
        """Warm-start both stages on a fresh batch of SpMM jobs.

        An untrained predictor delegates to :meth:`train`.  Otherwise
        stage 1 is updated first and stage 2 re-derives its ``H_w``
        feature from the *updated* stage 1, exactly as :meth:`train`
        does, so train-time and inference-time feature pipelines stay
        identical.  Clamp bounds widen to cover the new targets.
        """
        if self._hw_model is None:
            return self.train(jobs)
        spmm_jobs = self._spmm_training_jobs(jobs, minimum=1)
        kinds = self._kinds_of(spmm_jobs)
        hw_X, hw_y = self._stage1_rows(spmm_jobs, kinds)
        self._hw_model.partial_fit(hw_X, hw_y)
        for kind in kinds:
            X_rows, log_y = self._stage2_rows(spmm_jobs, kind)
            model = self._cycle_models.get(kind)
            if model is None:
                model = MLPRegressor(
                    hidden=self.hidden, epochs=self.epochs, seed=self.seed + 1
                )
                self._cycle_models[kind] = model
            model.partial_fit(X_rows, log_y)
            self._log_bounds[kind] = self._merge_bounds(
                self._log_bounds.get(kind), log_y
            )
        return self

    def _predict_hw(self, features: np.ndarray) -> float:
        # The one stage-1 definition: clamped at 0 (a negative array
        # count is meaningless) and used identically for training
        # stage 2, `predict_hw`, and `predict_unit_compute` -- any
        # train/inference skew here poisons the cycle model's H_w
        # feature.
        assert self._hw_model is not None
        return max(0.0, float(np.expm1(self._hw_model.predict(features))))

    def _stage2_features(self, job: Job, kind: MemoryKind) -> np.ndarray:
        width = self._strip_width(job, kind)
        features = self._features(job, width)
        return np.concatenate([features, [self._predict_hw(features)]])

    def predict_hw(self, job: Job, kind: MemoryKind) -> float:
        """Predicted ``H_w`` for one job (stage-1 output)."""
        if self._hw_model is None:
            raise RuntimeError("predictor is not trained")
        width = self._strip_width(job, kind)
        return self._predict_hw(self._features(job, width))

    def predict_unit_compute(self, job: Job, kind: MemoryKind) -> float:
        """Predicted unit-allocation compute time (stage-2 output).

        The log-domain prediction is clamped to the training-target
        range (plus :data:`LOG_CLAMP_MARGIN`) before exponentiation, so
        the result is always finite and positive even on pathological
        extrapolations.
        """
        if kind not in self._cycle_models:
            raise RuntimeError(f"predictor not trained for {kind}")
        x = self._stage2_features(job, kind)
        raw = float(self._cycle_models[kind].predict(x))
        lo, hi = self._log_bounds[kind]
        return float(np.exp(min(max(raw, lo), hi)))

    def estimate(self, job: Job, kind: MemoryKind):
        if job.kernel != "spmm" or job.metadata is None:
            # Deterministic kernels are costed exactly at compile time
            # (III-E); no learning is involved.
            return self._oracle.estimate(job, kind)
        if not self._cycle_models:
            # An untrained predictor must not silently report
            # oracle-grade accuracy; OnlinePredictor is the wrapper
            # that turns this into a counted fallback.
            raise RuntimeError(
                "MLPPredictor is untrained; call train() before estimating "
                "SpMM jobs (or use OnlinePredictor for counted fallbacks)"
            )
        beta = self.betas.get(job.kernel, DEFAULT_BETA)
        return estimate_from_profile(
            job.profile(kind),
            t_compute_unit=self.predict_unit_compute(job, kind),
            beta=beta,
        )

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-ready artifact: weights, scalers, feature schema."""
        payload: dict = {
            "format": "mlimp-predictor",
            "version": PREDICTOR_STATE_VERSION,
            "betas": dict(self.betas),
            "hidden": list(self.hidden),
            "epochs": self.epochs,
            "seed": self.seed,
            "feature_schema": {
                "n_features": self._n_features,
                "transform": "log1p(metadata.as_features(strip_width))",
            },
            "trained": self._hw_model is not None,
        }
        if self._hw_model is not None:
            payload["hw_model"] = self._hw_model.to_dict()
            payload["cycle_models"] = {
                kind.value: model.to_dict()
                for kind, model in sorted(
                    self._cycle_models.items(), key=lambda kv: kv[0].value
                )
            }
            payload["log_bounds"] = {
                kind.value: list(bounds)
                for kind, bounds in sorted(
                    self._log_bounds.items(), key=lambda kv: kv[0].value
                )
            }
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "MLPPredictor":
        """Rebuild a predictor saved with :meth:`to_dict`."""
        if not isinstance(payload, dict) or payload.get("format") != "mlimp-predictor":
            raise ValueError("not an mlimp-predictor artifact")
        version = payload.get("version")
        if version != PREDICTOR_STATE_VERSION:
            raise ValueError(
                f"unsupported predictor state version {version!r} "
                f"(this build reads version {PREDICTOR_STATE_VERSION})"
            )
        predictor = cls(
            betas=dict(payload.get("betas", {})),
            hidden=tuple(payload["hidden"]),
            epochs=int(payload["epochs"]),
            seed=int(payload["seed"]),
        )
        predictor._n_features = payload["feature_schema"]["n_features"]
        if payload.get("trained"):
            predictor._hw_model = MLPRegressor.from_dict(payload["hw_model"])
            predictor._cycle_models = {
                MemoryKind(value): MLPRegressor.from_dict(state)
                for value, state in payload["cycle_models"].items()
            }
            predictor._log_bounds = {
                MemoryKind(value): (float(lo), float(hi))
                for value, (lo, hi) in payload["log_bounds"].items()
            }
        return predictor

    def save(self, path) -> Path:
        """Write the canonical JSON artifact (sorted keys, so saving
        the same state twice is byte-identical)."""
        path = Path(path)
        path.write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")
        return path

    @classmethod
    def load(cls, path) -> "MLPPredictor":
        return cls.from_dict(json.loads(Path(path).read_text()))


# ----------------------------------------------------------------------
# Online learning from dispatch actuals.
# ----------------------------------------------------------------------
def profile_features(job: Job, kind: MemoryKind) -> np.ndarray:
    """Features observable from a job's analytical profile.

    Serve-path jobs (``serving.workload.OpenWorkload``) carry no
    subgraph metadata, so the online model learns from the profile
    fields a compiler *would* know ahead of execution.  The target --
    ``t_compute_unit`` -- is deliberately absent.
    """
    profile = job.profile(kind)
    return np.log1p(
        np.array(
            [
                profile.unit_arrays,
                profile.waves_unit,
                profile.n_iter,
                profile.fill_bytes,
                profile.t_load * 1e9,
                profile.t_replica_unit * 1e9,
            ]
        )
    )


def default_online_features(job: Job, kind: MemoryKind) -> np.ndarray:
    """Metadata features when the job has them, profile features otherwise."""
    if job.metadata is not None:
        widths = job.tags.get("strip_width")
        width = (
            int(widths[kind])
            if isinstance(widths, dict) and kind in widths
            else 128
        )
        return np.log1p(job.metadata.as_features(width))  # type: ignore[attr-defined]
    return profile_features(job, kind)


#: The online model's shape and training batch, the per-memory replay
#: buffer's capacity, and the drift bound (rolling relative RMSE)
#: above which :class:`OnlinePredictor` answers from the oracle.
ONLINE_HIDDEN = (16, 8)
ONLINE_BATCH_SIZE = 16
REPLAY_CAPACITY = 512
DRIFT_BOUND = 0.5

#: What :class:`OnlinePredictor` answers with while untrained or drifting.
_FALLBACK = OraclePredictor()


@dataclass
class OnlinePredictor(PerformancePredictor):
    """Self-training predictor fed by dispatcher completion feedback.

    The lifecycle loop (ROADMAP "production-scale serving"): every job
    completion hands the predictor ``(features, actual unit-compute)``
    through :meth:`on_completion`; observations land in a bounded
    :class:`~repro.ml.ReplayBuffer` per memory kind; every
    ``retrain_every`` completions the per-kind model retrains via
    :meth:`MLPRegressor.partial_fit` (first time: ``fit``); a
    :class:`~repro.ml.DriftTracker` scores rolling relative-RMSE of
    predictions against actuals and, while it exceeds
    :data:`DRIFT_BOUND` (or before the first training round),
    :meth:`estimate` falls back to the oracle -- counted, never silent.

    Counters (``predictor.observations``, ``predictor.retrains``,
    ``predictor.fallback`` + ``.untrained``/``.drift`` causes,
    ``predictor.estimates``) accumulate internally and are flushed into
    the dispatcher's :class:`~repro.obs.metrics.MetricsRegistry` by the
    completion hook, so they ride along in the obs export.
    """

    train_epochs: int = 80
    update_epochs: int = 25
    retrain_every: int = 32
    min_samples: int = 16
    drift_window: int = 64
    seed: int = 0

    def __post_init__(self) -> None:
        if self.retrain_every < 1:
            raise ValueError("retrain_every must be >= 1")
        self._models: dict[MemoryKind, MLPRegressor] = {}
        self._buffers: dict[MemoryKind, ReplayBuffer] = {}
        self._drift: dict[MemoryKind, DriftTracker] = {}
        self._log_bounds: dict[MemoryKind, tuple[float, float]] = {}
        self._since_retrain: dict[MemoryKind, int] = {}
        self._counters: dict[str, int] = {}
        self._unsynced: dict[str, int] = {}

    # ------------------------------------------------------------------
    def _count(self, name: str, amount: int = 1) -> None:
        self._counters[name] = self._counters.get(name, 0) + amount
        self._unsynced[name] = self._unsynced.get(name, 0) + amount

    @property
    def counters(self) -> dict[str, int]:
        """All lifecycle counters accumulated so far."""
        return dict(self._counters)

    def _buffer_for(self, kind: MemoryKind) -> ReplayBuffer:
        if kind not in self._buffers:
            self._buffers[kind] = ReplayBuffer(REPLAY_CAPACITY)
        return self._buffers[kind]

    def _drift_for(self, kind: MemoryKind) -> DriftTracker:
        if kind not in self._drift:
            self._drift[kind] = DriftTracker(
                window=self.drift_window,
                min_samples=min(self.min_samples, self.drift_window),
            )
        return self._drift[kind]

    def _predict_unit(self, model: MLPRegressor, kind: MemoryKind, x) -> float:
        raw = float(model.predict(x))
        lo, hi = self._log_bounds[kind]
        return float(math.exp(min(max(raw, lo), hi)))

    # ------------------------------------------------------------------
    def estimate(self, job: Job, kind: MemoryKind):
        model = self._models.get(kind)
        if model is None:
            self._count("predictor.fallback")
            self._count("predictor.fallback.untrained")
            return _FALLBACK.estimate(job, kind)
        if self._drift_for(kind).drifting(DRIFT_BOUND):
            self._count("predictor.fallback")
            self._count("predictor.fallback.drift")
            return _FALLBACK.estimate(job, kind)
        t_unit = self._predict_unit(model, kind, default_online_features(job, kind))
        self._count("predictor.estimates")
        return estimate_from_profile(job.profile(kind), t_compute_unit=t_unit)

    # ------------------------------------------------------------------
    def on_completion(self, job: Job, kind: MemoryKind, now: float, metrics=None) -> None:
        """Dispatcher completion hook: harvest the actual, maybe retrain.

        ``metrics`` is the run's :class:`MetricsRegistry`; when given,
        unsynced counter deltas and the current drift value are flushed
        into it so exports see the lifecycle state.
        """
        try:
            actual = job.profile(kind).t_compute_unit
        except KeyError:
            return
        if actual <= 0.0:
            return
        x = default_online_features(job, kind)
        self._buffer_for(kind).add(x, math.log(actual))
        self._count("predictor.observations")

        model = self._models.get(kind)
        if model is not None:
            self._drift_for(kind).add(actual, self._predict_unit(model, kind, x))

        self._since_retrain[kind] = self._since_retrain.get(kind, 0) + 1
        buffer = self._buffer_for(kind)
        if (
            self._since_retrain[kind] >= self.retrain_every
            and len(buffer) >= self.min_samples
        ):
            self._retrain(kind, buffer)
        if metrics is not None:
            self._sync(metrics, kind, now)

    def _retrain(self, kind: MemoryKind, buffer: ReplayBuffer) -> None:
        X, log_y = buffer.arrays()
        model = self._models.get(kind)
        if model is None:
            model = MLPRegressor(
                hidden=ONLINE_HIDDEN,
                epochs=self.train_epochs,
                batch_size=ONLINE_BATCH_SIZE,
                seed=self.seed + list(MemoryKind).index(kind),
            ).fit(X, log_y)
            self._models[kind] = model
        else:
            model.partial_fit(X, log_y, epochs=self.update_epochs)
        self._log_bounds[kind] = (
            float(log_y.min()) - LOG_CLAMP_MARGIN,
            float(log_y.max()) + LOG_CLAMP_MARGIN,
        )
        # Pre-update errors must not keep the fresh model gated.
        self._drift_for(kind).reset()
        self._since_retrain[kind] = 0
        self._count("predictor.retrains")

    def _sync(self, metrics, kind: MemoryKind, now: float) -> None:
        for name, delta in self._unsynced.items():
            if delta:
                metrics.counter(name).inc(delta)
        self._unsynced.clear()
        drift = self._drift_for(kind).value()
        if drift is not None:
            metrics.gauge(f"predictor.drift.{kind.value}").set(now, drift)


# ----------------------------------------------------------------------
# The naive nnz / H_w classifier of Figure 10.
# ----------------------------------------------------------------------
def naive_metric(job: Job, kind: MemoryKind = MemoryKind.RERAM) -> float:
    """Job size per allocation, ``nnz(x) / H_w(x)`` (paper III-E).

    Uses the ReRAM strip width (w = 128) by default, matching the
    paper's ``H_128`` plot.
    """
    nnz = job.tags.get("nnz")
    hw = MLPPredictor._true_hw(job, kind)
    if nnz is None:
        raise ValueError(f"job {job.job_id} lacks an nnz tag")
    return float(nnz) / max(1, hw)


@dataclass
class NaiveThresholdClassifier:
    """One-dimensional threshold on ``nnz / H_w`` (the red line of
    Figure 10): predicts "ReRAM preferred" above the threshold."""

    threshold: float = 0.0

    def fit(self, metrics, reram_preferred) -> "NaiveThresholdClassifier":
        metrics = np.asarray(metrics, dtype=float)
        labels = np.asarray(reram_preferred, dtype=bool)
        if metrics.shape != labels.shape or metrics.size == 0:
            raise ValueError("bad training data")
        candidates = np.unique(metrics)
        best_acc, best_thr = -1.0, float(candidates[0])
        for threshold in candidates:
            acc = float(np.mean((metrics >= threshold) == labels))
            if acc > best_acc:
                best_acc, best_thr = acc, float(threshold)
        self.threshold = best_thr
        return self

    def predict(self, metrics) -> np.ndarray:
        return np.asarray(metrics, dtype=float) >= self.threshold

    def accuracy(self, metrics, reram_preferred) -> float:
        labels = np.asarray(reram_preferred, dtype=bool)
        return float(np.mean(self.predict(metrics) == labels))
