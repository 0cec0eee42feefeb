"""From-scratch probe classifiers on numpy: multinomial linear and one-hidden-
layer ReLU MLP, trained with Adam on softmax cross-entropy.

Training is bit-deterministic for a fixed config: parameter init and batch
shuffling come from one seeded generator, and no early stopping or
learning-rate schedule is applied. Inputs are standardized in float64 with
statistics of the training split, which the fitted model carries; training
and prediction run in float32.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import TrainingDivergedError, ValidationError

LINEAR = "linear"
MLP = "mlp"
PROBE_KINDS = (LINEAR, MLP)


@dataclass(frozen=True)
class TrainConfig:
    """Optimization hyperparameters for probe training."""

    learning_rate: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    epochs: int = 75
    hidden_units: int = 256
    batch_size: int = 128
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValidationError(f"learning_rate must be positive, got {self.learning_rate}")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValidationError("beta1 and beta2 must lie in [0, 1)")
        if self.epsilon <= 0:
            raise ValidationError("epsilon must be positive")
        if self.epochs < 1 or self.hidden_units < 1 or self.batch_size < 1:
            raise ValidationError("epochs, hidden_units, and batch_size must be >= 1")

    def with_seed(self, seed: int) -> "TrainConfig":
        return replace(self, seed=int(seed))


@dataclass(frozen=True)
class ProbeModel:
    """Fitted probe: weights plus the train-split standardization."""

    kind: str
    n_classes: int
    mu: np.ndarray
    sigma: np.ndarray
    weights: dict[str, np.ndarray]
    config: TrainConfig

    def _standardize(self, features: np.ndarray) -> np.ndarray:
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2 or features.shape[1] != self.mu.shape[0]:
            raise ValidationError(
                f"expected features with {self.mu.shape[0]} columns, got shape {features.shape}"
            )
        return ((features - self.mu) / self.sigma).astype(np.float32)

    def logits(self, features: np.ndarray) -> np.ndarray:
        return _forward(self.weights, self.kind, self._standardize(features))[0]

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        """Class probabilities, by a float64 softmax; each row sums to 1 within 1e-9."""
        logits = self.logits(features).astype(np.float64)
        exp = np.exp(logits - logits.max(axis=1, keepdims=True))
        return exp / exp.sum(axis=1, keepdims=True)

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Most likely class per row; argmax ties go to the lowest index."""
        return np.argmax(self.logits(features), axis=1).astype(np.int64)


def train_probe(
    features: np.ndarray,
    labels: Sequence[int] | np.ndarray,
    kind: str = MLP,
    config: TrainConfig | None = None,
    n_classes: int | None = None,
) -> ProbeModel:
    """Fit a probe of the given kind; deterministic for a fixed config.

    Args:
        features: N x d float matrix (finite).
        labels: N integer class ids in [0, n_classes).
        kind: "linear" or "mlp".
        config: optimizer settings; defaults to TrainConfig().
        n_classes: output size; inferred as max(labels) + 1 when omitted.

    Raises:
        ValidationError: bad shapes, non-finite features, fewer than two
            classes present in labels.
        TrainingDivergedError: a batch produced a non-finite loss (names the
            epoch it happened in).
    """
    config = config or TrainConfig()
    if kind not in PROBE_KINDS:
        raise ValidationError(f"unknown probe kind {kind!r}, expected one of {PROBE_KINDS}")
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels)
    if X.ndim != 2 or X.shape[0] < 1:
        raise ValidationError("features must be a non-empty N x d matrix")
    if not np.all(np.isfinite(X)):
        raise ValidationError("features must be finite")
    if y.ndim != 1 or y.shape[0] != X.shape[0]:
        raise ValidationError("labels must be 1-D and match the feature rows")
    as_int = y.astype(np.int64)
    if not np.array_equal(as_int, y):
        raise ValidationError("labels must be integers")
    y = as_int
    if y.min() < 0:
        raise ValidationError("labels must be non-negative")
    present = np.unique(y)
    if present.size < 2:
        raise ValidationError(f"need at least two classes present in labels, got {present.size}")
    k = int(y.max()) + 1 if n_classes is None else int(n_classes)
    if k < int(y.max()) + 1:
        raise ValidationError(f"n_classes={k} too small for max label {int(y.max())}")

    mu = X.mean(axis=0)
    sigma = X.std(axis=0)
    sigma = np.where(sigma < 1e-12, 1.0, sigma)
    Xs = X - mu
    Xs /= sigma
    Xs = Xs.astype(np.float32)

    rng = np.random.default_rng(config.seed)
    init = _init_weights(kind, X.shape[1], k, config.hidden_units, rng)
    # Every parameter lives in one flat float32 vector, so Adam updates all
    # of them with one pass of ufuncs; weights and grads are views into it.
    theta = np.concatenate([w.ravel() for w in init.values()]).astype(np.float32)
    g, m, v, s1, s2 = (np.zeros_like(theta) for _ in range(5))
    weights, grads, start = {}, {}, 0
    for key, w in init.items():
        weights[key], grads[key] = (a[start : start + w.size].reshape(w.shape) for a in (theta, g))
        start += w.size

    n = X.shape[0]
    step = 0
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        X_epoch, y_epoch = Xs[order], y[order]
        for start in range(0, n, config.batch_size):
            batch = slice(start, start + config.batch_size)
            loss, _ = probe_loss_and_gradients(weights, kind, X_epoch[batch], y_epoch[batch], grads)
            if not np.isfinite(loss):
                raise TrainingDivergedError(epoch, float(loss))
            step += 1
            bc1 = 1.0 - config.beta1**step
            bc2 = 1.0 - config.beta2**step
            # In place, but each element sees the same operations in the same
            # order as m = b1*m + (1-b1)*g; v = b2*v + ((1-b2)*g)*g;
            # w = w - (lr*(m/bc1)) / (sqrt(v/bc2) + eps).
            np.multiply(m, config.beta1, out=m)
            np.multiply(g, 1.0 - config.beta1, out=s1)
            np.add(m, s1, out=m)
            np.multiply(v, config.beta2, out=v)
            np.multiply(g, 1.0 - config.beta2, out=s1)
            np.multiply(s1, g, out=s1)
            np.add(v, s1, out=v)
            np.divide(v, bc2, out=s1)
            np.sqrt(s1, out=s1)
            np.add(s1, config.epsilon, out=s1)
            np.divide(m, bc1, out=s2)
            np.multiply(s2, config.learning_rate, out=s2)
            np.divide(s2, s1, out=s2)
            np.subtract(theta, s2, out=theta)

    for array in (mu, sigma, theta, *weights.values()):
        array.setflags(write=False)
    return ProbeModel(kind=kind, n_classes=k, mu=mu, sigma=sigma, weights=weights, config=config)


def probe_loss_and_gradients(
    weights: dict[str, np.ndarray],
    kind: str,
    X: np.ndarray,
    y: np.ndarray,
    out: dict[str, np.ndarray] | None = None,
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean cross-entropy over the batch and its analytic gradients.

    Computes in the dtype of X and weights, and writes the gradients into out
    (arrays shaped like weights) or, without it, into fresh arrays. Exposed
    so gradient-check tests can compare against finite differences.
    """
    log_probs, hidden = _forward(weights, kind, X)
    b = X.shape[0]
    rows = np.arange(b)
    log_probs -= log_probs.max(axis=1, keepdims=True)
    log_probs -= np.log(np.exp(log_probs).sum(axis=1, keepdims=True))
    loss = float(-log_probs[rows, y].mean())

    delta = np.exp(log_probs)
    delta[rows, y] -= 1.0
    delta /= b

    grads = {key: np.empty_like(w) for key, w in weights.items()} if out is None else out
    if kind == LINEAR:
        np.matmul(X.T, delta, out=grads["W"])
        delta.sum(axis=0, out=grads["b"])
    else:
        np.matmul(hidden.T, delta, out=grads["W2"])
        delta.sum(axis=0, out=grads["b2"])
        dhidden = delta @ weights["W2"].T
        # Multiplying by the mask is branch-free, unlike a boolean scatter. It
        # leaves -0.0 where a scatter would write +0.0, so a gradient differs
        # at most in the sign of an exact zero; Adam's b1*m + (1-b1)*g gives
        # the same m for either zero, so the trained weights do not change.
        dhidden *= hidden > 0
        np.matmul(X.T, dhidden, out=grads["W1"])
        dhidden.sum(axis=0, out=grads["b1"])
    return loss, grads


def accuracy(model: ProbeModel, features: np.ndarray, labels: Sequence[int] | np.ndarray) -> float:
    """Fraction of rows whose predicted class equals the label."""
    y = np.asarray(labels, dtype=np.int64)
    preds = model.predict(features)
    if preds.shape != y.shape:
        raise ValidationError("labels must match the number of feature rows")
    return float(np.mean(preds == y))


def chance_rate(labels: Sequence[int] | np.ndarray) -> float:
    """Agreement rate of a label-frequency-matched random guesser.

    Sum over classes of squared empirical frequency; in (0, 1], and exactly
    1 only when all labels are identical.
    """
    y = np.asarray(labels)
    if y.ndim != 1 or y.size == 0:
        raise ValidationError("labels must be a non-empty 1-D array")
    _, counts = np.unique(y, return_counts=True)
    freqs = counts / y.size
    return float((freqs**2).sum())


def adjusted_accuracy(acc: float, chance: float) -> float:
    """Chance-adjusted accuracy max(0, (a - r) / (1 - r)).

    A chance rate of 1 (single-class labels) makes the adjustment undefined;
    that returns 0.0 with a warning instead of dividing by zero.
    """
    if not 0.0 <= acc <= 1.0 + 1e-12:
        raise ValidationError(f"accuracy must lie in [0, 1], got {acc!r}")
    if not 0.0 < chance <= 1.0:
        raise ValidationError(f"chance rate must lie in (0, 1], got {chance!r}")
    if chance >= 1.0:
        warnings.warn(
            "chance rate is 1 (single-class labels); adjusted accuracy defined as 0.0",
            RuntimeWarning,
            stacklevel=2,
        )
        return 0.0
    return max(0.0, (acc - chance) / (1.0 - chance))


def _init_weights(
    kind: str, d: int, k: int, hidden: int, rng: np.random.Generator
) -> dict[str, np.ndarray]:
    """Kaiming-style uniform init for the MLP, bound sqrt(6 / fan_in); zero
    biases. The linear head starts at zero: its objective is convex, so no
    symmetry breaking is needed, and a large random start can sit farther
    from the optimum than the epoch budget reaches."""
    if kind == LINEAR:
        return {
            "W": np.zeros((d, k)),
            "b": np.zeros(k),
        }
    bound1 = np.sqrt(6.0 / d)
    bound2 = np.sqrt(6.0 / hidden)
    return {
        "W1": rng.uniform(-bound1, bound1, size=(d, hidden)),
        "b1": np.zeros(hidden),
        "W2": rng.uniform(-bound2, bound2, size=(hidden, k)),
        "b2": np.zeros(k),
    }


def _forward(
    weights: dict[str, np.ndarray], kind: str, X: np.ndarray
) -> tuple[np.ndarray, np.ndarray | None]:
    """Return fresh (logits, hidden) arrays; hidden is None for the linear head."""
    if kind == LINEAR:
        logits = X @ weights["W"]
        logits += weights["b"]
        return logits, None
    hidden = X @ weights["W1"]
    hidden += weights["b1"]
    np.maximum(hidden, 0.0, out=hidden)
    logits = hidden @ weights["W2"]
    logits += weights["b2"]
    return logits, hidden
