"""NumPy multi-layer perceptron regressor.

The paper's performance predictor uses MLP regressors with "two hidden
layers with 16 and 8 nodes" (III-E), trained per mother graph, then
deployed with negligible inference cost.  This is a from-scratch
implementation: ReLU hidden layers, linear output, squared loss, Adam
optimiser, mini-batch training with a deterministic seed.  Inputs and
targets are standardised internally so callers pass raw features.

Beyond one-shot :meth:`MLPRegressor.fit`, the regressor supports the
predictor-lifecycle operations the online-learning path needs:

* :meth:`MLPRegressor.partial_fit` -- warm-start training that reuses
  the existing weights *and* Adam moments, merging the new batch into
  the input/target scalers (Chan's parallel update) while linearly
  compensating the first/last layer so the learned function is
  unchanged by the re-normalisation itself;
* :meth:`MLPRegressor.to_dict` / :meth:`MLPRegressor.from_dict` --
  JSON-ready serialisation of the full training state (weights,
  scalers, Adam moments, update counter), so a saved model continues
  training exactly where the in-memory one would have.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .scaling import StandardScaler

__all__ = ["MLPRegressor"]

#: Serialisation schema version for :meth:`MLPRegressor.to_dict`.
MLP_STATE_VERSION = 1


@dataclass
class MLPRegressor:
    """Small fully-connected regressor.

    Parameters
    ----------
    hidden:
        Hidden layer widths; the paper's predictor uses ``(16, 8)``.
    epochs, batch_size, learning_rate:
        Adam training hyper-parameters.
    l2:
        Weight decay.
    seed:
        Seed for init and batch shuffling; training is deterministic.
    """

    hidden: tuple[int, ...] = (16, 8)
    epochs: int = 300
    batch_size: int = 32
    learning_rate: float = 1e-2
    l2: float = 1e-5
    seed: int = 0
    _weights: list[np.ndarray] = field(default_factory=list, repr=False)
    _biases: list[np.ndarray] = field(default_factory=list, repr=False)
    _x_scaler: StandardScaler = field(default_factory=StandardScaler, repr=False)
    _y_scaler: StandardScaler = field(default_factory=StandardScaler, repr=False)
    _adam: dict | None = field(default=None, repr=False)
    #: How many :meth:`partial_fit` updates have been applied (drives
    #: the per-update shuffling seed, so training stays deterministic
    #: across a save/load round trip).
    n_updates_: int = field(default=0, repr=False)
    loss_history_: list[float] = field(default_factory=list, repr=False)

    # ------------------------------------------------------------------
    def _init_params(self, n_features: int, rng: np.random.Generator) -> None:
        sizes = (n_features, *self.hidden, 1)
        self._weights = []
        self._biases = []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            limit = np.sqrt(2.0 / fan_in)  # He init for ReLU
            self._weights.append(rng.normal(0.0, limit, size=(fan_in, fan_out)))
            self._biases.append(np.zeros(fan_out))

    def _fresh_adam(self) -> dict:
        return {
            "m_w": [np.zeros_like(W) for W in self._weights],
            "v_w": [np.zeros_like(W) for W in self._weights],
            "m_b": [np.zeros_like(b) for b in self._biases],
            "v_b": [np.zeros_like(b) for b in self._biases],
            "step": 0,
        }

    def _forward(self, X: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        activations = [X]
        out = X
        last = len(self._weights) - 1
        for i, (W, b) in enumerate(zip(self._weights, self._biases)):
            out = out @ W + b
            if i != last:
                out = np.maximum(out, 0.0)
            activations.append(out)
        return out, activations

    def _run_epochs(
        self, Xs: np.ndarray, ys: np.ndarray, epochs: int, rng: np.random.Generator
    ) -> None:
        """Mini-batch Adam over standardised data, continuing from the
        persistent optimiser state in ``self._adam``.

        The parameters, both moments and the gradients are each packed
        into one flat buffer of the same layout, and the per-layer
        weights, biases and moments become views into those buffers, so
        the Adam step is a few whole-buffer operations.  Each one is
        elementwise, so the bits are those of a layer-by-layer update."""
        n = Xs.shape[0]
        batch = min(self.batch_size, n)
        adam = self._adam
        layers = len(self._weights)
        params, self._weights, self._biases = _pack(self._weights, self._biases)
        m, adam["m_w"], adam["m_b"] = _pack(adam["m_w"], adam["m_b"])
        v, adam["v_w"], adam["v_b"] = _pack(adam["v_w"], adam["v_b"])
        # Same layout; every mini-batch overwrites the copied values.
        grads, grads_w, grads_b = _pack(self._weights, self._biases)
        beta1, beta2, eps = 0.9, 0.999, 1e-8

        for _ in range(epochs):
            order = rng.permutation(n)
            epoch_loss = 0.0
            for start in range(0, n, batch):
                idx = order[start : start + batch]
                xb, yb = Xs[idx], ys[idx]
                pred, acts = self._forward(xb)
                err = pred - yb
                epoch_loss += float(np.sum(err**2))

                # Backprop
                grad = 2.0 * err / len(idx)
                for layer in range(layers - 1, -1, -1):
                    W = self._weights[layer]
                    np.add(acts[layer].T @ grad, self.l2 * W, out=grads_w[layer])
                    np.sum(grad, axis=0, out=grads_b[layer])
                    if layer > 0:
                        grad = grad @ W.T
                        grad = grad * (acts[layer] > 0.0)

                # Adam update
                adam["step"] += 1
                step = adam["step"]
                m *= beta1
                m += (1 - beta1) * grads
                v *= beta2
                v += (1 - beta2) * grads**2
                m_hat = m / (1 - beta1**step)
                v_hat = v / (1 - beta2**step)
                params -= self.learning_rate * m_hat / (np.sqrt(v_hat) + eps)
            self.loss_history_.append(epoch_loss / n)

    # ------------------------------------------------------------------
    @staticmethod
    def _validate(X, y, min_samples: int) -> tuple[np.ndarray, np.ndarray]:
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float).reshape(-1, 1)
        if X.ndim != 2:
            raise ValueError("X must be 2-D")
        if X.shape[0] != y.shape[0]:
            raise ValueError("X and y disagree on sample count")
        if X.shape[0] < min_samples:
            raise ValueError(f"need at least {min_samples} samples")
        return X, y

    def fit(self, X, y) -> "MLPRegressor":
        X, y = self._validate(X, y, min_samples=2)

        Xs = self._x_scaler.fit_transform(X)
        ys = self._y_scaler.fit_transform(y)

        rng = np.random.default_rng(self.seed)
        self._init_params(X.shape[1], rng)
        self._adam = self._fresh_adam()
        self.n_updates_ = 0
        self.loss_history_ = []
        self._run_epochs(Xs, ys, self.epochs, rng)
        return self

    def partial_fit(self, X, y, epochs: int | None = None) -> "MLPRegressor":
        """Warm-start update on a new batch of observations.

        The first call on an unfitted model is :meth:`fit`.  Later
        calls keep the existing weights and Adam moments and run
        ``epochs`` (default: the constructor's ``epochs``) of
        mini-batch Adam over the new batch only.  Batches smaller than
        ``batch_size`` -- down to a single sample -- are fine.

        Scaler refresh is *safe*: the new batch is merged into the
        input/target statistics (Chan's parallel update), and the
        first-layer weights/bias and output layer are linearly
        compensated for the changed normalisation, so re-scaling alone
        never moves the learned function.  (Adam moments are kept
        as-is across the re-parameterisation -- they are running
        gradient averages, not part of the function.)  Shuffling is
        seeded from ``(seed, update counter)``, so an update sequence
        is deterministic and survives a save/load round trip.
        """
        if not self._weights:
            return self.fit(X, y)
        X, y = self._validate(X, y, min_samples=1)
        n_features = self._x_scaler.mean_.shape[0]
        if X.shape[1] != n_features:
            raise ValueError(
                f"feature count mismatch: model has {n_features}, got {X.shape[1]}"
            )

        old_x_mean = self._x_scaler.mean_.copy()
        old_x_scale = self._x_scaler.scale_.copy()
        old_y_mean = self._y_scaler.mean_.copy()
        old_y_scale = self._y_scaler.scale_.copy()
        self._x_scaler.partial_fit(X)
        self._y_scaler.partial_fit(y)
        self._compensate_rescaling(old_x_mean, old_x_scale, old_y_mean, old_y_scale)

        Xs = self._x_scaler.transform(X)
        ys = self._y_scaler.transform(y)
        self.n_updates_ += 1
        rng = np.random.default_rng((self.seed, self.n_updates_))
        self._run_epochs(Xs, ys, self.epochs if epochs is None else epochs, rng)
        return self

    def _compensate_rescaling(
        self,
        old_x_mean: np.ndarray,
        old_x_scale: np.ndarray,
        old_y_mean: np.ndarray,
        old_y_scale: np.ndarray,
    ) -> None:
        """Re-express the network under the refreshed scalers.

        With inputs ``z_old = (x - m0) / s0`` and ``z_new = (x - m1) / s1``
        we have ``z_old = z_new * (s1 / s0) + (m1 - m0) / s0``, so folding
        the ratio into the first layer (and the analogous inverse map
        into the output layer) leaves the end-to-end function on raw
        ``x``/``y`` exactly where training left it.
        """
        ratio = self._x_scaler.scale_ / old_x_scale
        shift = (self._x_scaler.mean_ - old_x_mean) / old_x_scale
        first = self._weights[0]
        self._biases[0] = self._biases[0] + shift @ first
        self._weights[0] = first * ratio[:, None]

        sy0, my0 = float(old_y_scale[0]), float(old_y_mean[0])
        sy1 = float(self._y_scaler.scale_[0])
        my1 = float(self._y_scaler.mean_[0])
        self._weights[-1] = self._weights[-1] * (sy0 / sy1)
        self._biases[-1] = (self._biases[-1] * sy0 + my0 - my1) / sy1

    def predict(self, X) -> np.ndarray:
        if not self._weights:
            raise RuntimeError("model is not fitted")
        X = np.asarray(X, dtype=float)
        single = X.ndim == 1
        Xs = self._x_scaler.transform(X)
        pred, _ = self._forward(Xs)
        out = self._y_scaler.inverse_transform(pred).ravel()
        return out[0] if single else out

    @property
    def n_parameters(self) -> int:
        """Trainable parameter count (the paper's storage-cost point)."""
        return int(
            sum(W.size for W in self._weights) + sum(b.size for b in self._biases)
        )

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-ready full training state.

        Floats survive a ``json.dumps``/``loads`` round trip exactly
        (repr-based shortest round-trip encoding), so a reloaded model
        predicts byte-identically and -- because the Adam moments and
        update counter ride along -- continues ``partial_fit`` training
        exactly where the saved one stopped.
        """
        payload: dict = {
            "version": MLP_STATE_VERSION,
            "hidden": list(self.hidden),
            "epochs": self.epochs,
            "batch_size": self.batch_size,
            "learning_rate": self.learning_rate,
            "l2": self.l2,
            "seed": self.seed,
            "fitted": bool(self._weights),
            "n_updates": int(self.n_updates_),
            "x_scaler": self._x_scaler.to_dict(),
            "y_scaler": self._y_scaler.to_dict(),
        }
        if self._weights:
            payload["weights"] = [W.tolist() for W in self._weights]
            payload["biases"] = [b.tolist() for b in self._biases]
            adam = self._adam or self._fresh_adam()
            payload["adam"] = {
                "step": int(adam["step"]),
                "m_w": [m.tolist() for m in adam["m_w"]],
                "v_w": [v.tolist() for v in adam["v_w"]],
                "m_b": [m.tolist() for m in adam["m_b"]],
                "v_b": [v.tolist() for v in adam["v_b"]],
            }
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "MLPRegressor":
        """Rebuild a regressor saved with :meth:`to_dict`."""
        version = payload.get("version")
        if version != MLP_STATE_VERSION:
            raise ValueError(
                f"unsupported MLPRegressor state version {version!r} "
                f"(this build reads version {MLP_STATE_VERSION})"
            )
        model = cls(
            hidden=tuple(payload["hidden"]),
            epochs=int(payload["epochs"]),
            batch_size=int(payload["batch_size"]),
            learning_rate=float(payload["learning_rate"]),
            l2=float(payload["l2"]),
            seed=int(payload["seed"]),
        )
        model._x_scaler = StandardScaler.from_dict(payload["x_scaler"])
        model._y_scaler = StandardScaler.from_dict(payload["y_scaler"])
        model.n_updates_ = int(payload.get("n_updates", 0))
        if payload.get("fitted"):
            model._weights = [np.asarray(W, dtype=float) for W in payload["weights"]]
            model._biases = [np.asarray(b, dtype=float) for b in payload["biases"]]
            adam = payload["adam"]
            model._adam = {
                "m_w": [np.asarray(m, dtype=float) for m in adam["m_w"]],
                "v_w": [np.asarray(v, dtype=float) for v in adam["v_w"]],
                "m_b": [np.asarray(m, dtype=float) for m in adam["m_b"]],
                "v_b": [np.asarray(v, dtype=float) for v in adam["v_b"]],
                "step": int(adam["step"]),
            }
        return model


def _pack(
    weights: list[np.ndarray], biases: list[np.ndarray]
) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray]]:
    """One flat copy of every weight, then every bias, and the views of
    it shaped like each of them."""
    arrays = [*weights, *biases]
    flat = np.concatenate([a.ravel() for a in arrays])
    views = []
    offset = 0
    for a in arrays:
        views.append(flat[offset : offset + a.size].reshape(a.shape))
        offset += a.size
    return flat, views[: len(weights)], views[len(weights) :]
