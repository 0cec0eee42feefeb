"""From-scratch probe classifiers on numpy: multinomial linear and one-hidden-
layer ReLU MLP, trained with Adam on softmax cross-entropy.

Training is bit-deterministic for a fixed config: parameter init and batch
shuffling come from one seeded generator per probe, and no early stopping or
learning-rate schedule is applied. Inputs are standardized in float64 with
statistics of the training split, which the fitted model carries; training
and prediction run in float32.
"""

from __future__ import annotations

import ctypes
import math
import os
import pickle
import signal
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import TrainingDivergedError, ValidationError
from .infotheory import JOINT_CELL_CAP
from .util import require_int, require_seed

LINEAR = "linear"
MLP = "mlp"
PROBE_KINDS = (LINEAR, MLP)

try:  # the thread controls of numpy's OpenBLAS, through a numpy extension linked to it
    _blas = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    _get_threads = _blas.scipy_openblas_get_num_threads64_
    _set_threads = _blas.scipy_openblas_set_num_threads64_
    _get_threads.argtypes, _set_threads.argtypes, _set_threads.restype = [], [ctypes.c_int], None
except (AttributeError, OSError):  # another BLAS: its threads are left as they are
    _blas, _get_threads, _set_threads = None, int, lambda threads: None


@contextmanager
def _one_blas_thread():
    """Hold numpy's OpenBLAS to one thread, then give back the caller's count.
    On some kernels (Haswell's sgemm) its bytes depend on the thread count."""
    threads = _get_threads()
    _set_threads(1)
    try:
        yield
    finally:
        _set_threads(threads)


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
        for name in ("epochs", "hidden_units", "batch_size", "seed"):
            object.__setattr__(self, name, require_int(getattr(self, name), name))
        for name, value in (("learning_rate", self.learning_rate), ("epsilon", self.epsilon)):
            if not 0 < value < math.inf:  # NaN fails this too
                raise ValidationError(f"{name} must be positive and finite, got {value}")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValidationError("beta1 and beta2 must lie in [0, 1)")
        if self.epochs < 1 or self.hidden_units < 1 or self.batch_size < 1:
            raise ValidationError("epochs, hidden_units, and batch_size must be >= 1")

    def with_seed(self, seed: int) -> "TrainConfig":
        return replace(self, seed=seed)


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
        with _one_blas_thread():
            return _forward(self.weights, self.kind, self._standardize(features))[0]

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Most likely class per row; argmax ties go to the lowest index."""
        return np.argmax(self.logits(features), axis=1).astype(np.int64)


def train_probe(
    features: np.ndarray,
    labels: Sequence[int] | np.ndarray,
    kind: str = MLP,
    config: TrainConfig | None = None,
    n_classes: int | Sequence[int] | None = None,
    seeds: Sequence[int] | None = None,
    columns: Sequence[Sequence[int]] | None = None,
) -> ProbeModel | list[ProbeModel]:
    """Fit a probe of the given kind; deterministic for a fixed config.

    An N x P label matrix with P seeds fits P probes in lock step and returns
    them in column order, each bit-identical to its column fitted alone with
    config.with_seed(seeds[p]). With columns, probe p sees only the feature
    columns columns[p] and is bit-identical to the probe fitted alone on
    np.ascontiguousarray(features[:, columns[p]]).

    Args:
        features: N x d float matrix (finite).
        labels: N integer class ids in [0, n_classes), or an N x P matrix.
        kind: "linear" or "mlp".
        config: optimizer settings; defaults to TrainConfig().
        n_classes: output size, at most JOINT_CELL_CAP, one per column for
            a matrix; inferred as max(labels) + 1 when omitted.
        seeds: one per label column; only with a label matrix.
        columns: one non-empty list of feature indices per label column;
            only with a label matrix.

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
    Y = np.asarray(labels)
    if X.ndim != 2 or X.shape[0] < 1:
        raise ValidationError("features must be a non-empty N x d matrix")
    if not np.all(np.isfinite(X)):
        raise ValidationError("features must be finite")
    if Y.ndim not in (1, 2) or Y.shape[0] != X.shape[0] or Y.size == 0:
        raise ValidationError("labels must be 1-D or N x P (P >= 1) and match the feature rows")
    if (Y.ndim == 2) != (seeds is not None) or (seeds is not None and len(seeds) != Y.shape[1]):
        raise ValidationError("seeds must give one seed per column of an N x P label matrix")
    if seeds is None:
        require_seed(config.seed, "config.seed")
    else:
        seeds = [require_seed(s, f"seeds[{p}]") for p, s in enumerate(seeds)]
    if columns is not None:
        columns = [np.asarray(c) for c in columns]
        if seeds is None or len(columns) != len(seeds) or not all(c.ndim == 1 and c.size and (
                c.dtype.kind in "iu") and 0 <= c.min() <= c.max() < X.shape[1] for c in columns):
            raise ValidationError("columns must give one non-empty list of feature indices in "
                                  f"[0, {X.shape[1]}) per column of an N x P label matrix")
        X = np.ascontiguousarray(X)
    as_int = Y.astype(np.int64)
    if not np.array_equal(as_int, Y):
        raise ValidationError("labels must be integers")
    Y = as_int.reshape(X.shape[0], -1)
    if Y.min() < 0:
        raise ValidationError("labels must be non-negative")
    tops = Y.max(axis=0) + 1
    ks = tops.tolist() if n_classes is None else [
        require_int(k, "n_classes") for k in np.ravel(np.asarray(n_classes, dtype=object))]
    if len(ks) != len(tops):
        raise ValidationError(f"n_classes must give one size per label column, got {n_classes!r}")
    for column, k, top in zip(Y.T, ks, tops):
        if k > JOINT_CELL_CAP:  # before any array is sized by it
            raise ValidationError(f"n_classes={k} exceeds the cap of {JOINT_CELL_CAP} classes")
        if np.unique(column).size < 2:
            raise ValidationError("need at least two classes present in labels, got 1")
        if k < top:
            raise ValidationError(f"n_classes={k} too small for max label {top - 1}")

    configs = [config] if seeds is None else [config.with_seed(s) for s in seeds]
    models: list[ProbeModel] = [None] * len(configs)
    # One stack per class count and input width. A C-ordered matrix's column
    # statistics are summed row by row, so wider selections share its
    # standardized copy; a lone column is summed pairwise and trains alone.
    groups: dict[tuple[int, int | None], list[int]] = {}
    for p, k in enumerate(ks):
        width = None if columns is None else columns[p].size
        if width == 1:
            models[p] = train_probe(X[:, columns[p]], Y[:, p], kind, configs[p], k)
        else:
            groups.setdefault((k, width), []).append(p)
    mu = X.mean(axis=0)
    sigma = X.std(axis=0)
    sigma = np.where(sigma < 1e-12, 1.0, sigma)
    Xs = X - mu
    Xs /= sigma
    Xs = Xs.astype(np.float32)
    for (k, width), group in groups.items():
        cols = None if width is None else np.array([columns[p] for p in group])
        with _one_blas_thread():
            fitted = _train_split(Xs, Y[:, group], kind, k, [configs[p] for p in group], cols)
        for p, weights in zip(group, fitted):
            stats = (mu, sigma) if width is None else (mu[columns[p]], sigma[columns[p]])
            for array in (*stats, *weights.values()):
                array.setflags(write=False)
            models[p] = ProbeModel(kind, k, *stats, weights, configs[p])
    return models if seeds is not None else models[0]


def _worker_count(n_probes: int) -> int:
    """One worker per usable CPU; one where the process cannot fork or hold BLAS to one thread."""
    split = _blas is not None and hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
    return min(n_probes, len(os.sched_getaffinity(0))) if split else 1


def _train_split(Xs: np.ndarray, Y: np.ndarray, kind: str, k: int, configs: list[TrainConfig],
                 cols: np.ndarray | None) -> list[dict[str, np.ndarray]]:
    """_train_stack on one contiguous chunk per worker, chunks 1... in forked
    children. Each probe trains as it would alone, so results never depend on
    the split; of several divergences the earliest step's (lowest chunk's) is raised."""
    parts = np.array_split(np.arange(len(configs)), _worker_count(len(configs)))
    chunks = [(Xs, Y[:, p], kind, k, [configs[j] for j in p], cols if cols is None else cols[p])
              for p in parts]
    outcomes, children, sent, codes = [None] * len(chunks), [], {}, {}
    try:
        for i in range(1, len(chunks)):
            read, write = os.pipe()
            try:
                with warnings.catch_warnings():  # Python 3.12+ warns on fork with threads
                    warnings.simplefilter("ignore", DeprecationWarning)
                    pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                outcomes[i] = _train_stack(*chunks[i])
                continue
            if pid == 0:  # leaves only through _exit: no inherited buffer flushes, no atexit
                try:
                    outcome = pickle.dumps(_train_stack(*chunks[i]))
                    with open(write, "wb") as out:
                        out.write(outcome)
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(write)
            children.append((i, pid, read))
        outcomes[0] = _train_stack(*chunks[0])
        for i, _, read in children:
            with open(read, "rb", closefd=False) as fh:
                sent[i] = fh.read()
    finally:
        for i, pid, read in children:
            os.close(read)
            os.kill(pid, signal.SIGKILL)  # a child that has exited keeps its status
            codes[i] = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    for i, pid, _ in children:
        if not sent[i]:
            raise ChildProcessError(f"probe worker {pid} ended with status {codes[i]}, no result")
        outcomes[i] = pickle.loads(sent[i])
    if diverged := [outcome for outcome in outcomes if isinstance(outcome, tuple)]:
        raise min(diverged, key=lambda pair: pair[0])[1]
    return [weights for fitted in outcomes for weights in fitted]


def _train_stack(
    Xs: np.ndarray, Y: np.ndarray, kind: str, k: int, configs: list[TrainConfig],
    cols: np.ndarray | None = None,
) -> list[dict[str, np.ndarray]] | tuple[int, TrainingDivergedError]:
    """Adam on one probe per column of Y at once; configs differ only in seed.
    Probe p reads the columns cols[p] of Xs, or every column when cols is None.
    A non-finite loss ends training with (its step, the error to raise)."""
    config, P, n = configs[0], len(configs), Xs.shape[0]
    d = Xs.shape[1] if cols is None else cols.shape[1]
    rngs = [np.random.default_rng(c.seed) for c in configs]
    inits = [_init_weights(kind, d, k, config.hidden_units, rng) for rng in rngs]
    # Each probe's parameters live in one float32 row of theta, so Adam
    # updates the whole stack with one pass of ufuncs; weights and grads are
    # (P, ...) views into it.
    theta = np.array([np.concatenate([w.ravel() for w in i.values()]) for i in inits], np.float32)
    g, m, v, s = (np.zeros_like(theta) for _ in range(4))
    weights, grads, start = {}, {}, 0
    for key, w in inits[0].items():
        shape = (P, *w.shape)
        weights[key], grads[key] = (a[:, start : start + w.size].reshape(shape) for a in (theta, g))
        start += w.size

    batch = min(config.batch_size, n)
    # The P x batch x hidden arrays are written into these for every step
    # (leading slices for a short last batch) rather than allocated afresh.
    shape = (P, batch, config.hidden_units)
    scratch = (np.empty(shape, np.float32), np.empty(shape, bool)) if kind == MLP else None
    # Probe p's labels start at p * n in the flat labels; picks[b] holds flat
    # indices of probe p's columns in a P x b x width batch of rows.
    labels, label_starts = np.ascontiguousarray(Y.T), np.arange(P)[:, None] * n
    picks = cols is not None and {b: np.arange(P * b).reshape(P, b, 1) * Xs.shape[1]
                                  + cols[:, None, :] for b in {batch, n % batch or batch}}
    orders = np.empty((P, n), np.int64)
    step = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            for p, rng in enumerate(rngs):
                orders[p] = rng.permutation(n)
            for start in range(0, n, batch):
                rows = orders[:, start : start + batch]
                x = np.take(Xs, rows, axis=0)
                if picks:
                    x = x.reshape(-1).take(picks[rows.shape[1]])
                y = labels.take(rows + label_starts)
                views = scratch and tuple(a[:, : rows.shape[1]] for a in scratch)
                loss, _ = probe_loss_and_gradients(weights, kind, x, y, grads, views)
                if not np.all(np.isfinite(loss)):
                    return step, TrainingDivergedError(epoch, float(loss[~np.isfinite(loss)][0]))
                step += 1
                bc1 = 1.0 - config.beta1**step
                bc2 = 1.0 - config.beta2**step
                # In place, but each element sees the same operations in the
                # same order as m = b1*m + (1-b1)*g; v = b2*v + ((1-b2)*g)*g;
                # w = w - (lr*(m/bc1)) / (sqrt(v/bc2) + eps); spent g holds the step.
                np.multiply(m, config.beta1, out=m)
                np.multiply(g, 1.0 - config.beta1, out=s)
                np.add(m, s, out=m)
                np.multiply(v, config.beta2, out=v)
                np.multiply(g, 1.0 - config.beta2, out=s)
                np.multiply(s, g, out=s)
                np.add(v, s, out=v)
                np.divide(v, bc2, out=s)
                np.sqrt(s, out=s)
                np.add(s, config.epsilon, out=s)
                np.divide(m, bc1, out=g)
                np.multiply(g, config.learning_rate, out=g)
                np.divide(g, s, out=g)
                np.subtract(theta, g, out=theta)

    return [{key: w[p] for key, w in weights.items()} for p in range(P)]


def probe_loss_and_gradients(
    weights: dict[str, np.ndarray],
    kind: str,
    X: np.ndarray,
    y: np.ndarray,
    out: dict[str, np.ndarray] | None = None,
    scratch: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[float | np.ndarray, dict[str, np.ndarray]]:
    """Mean cross-entropy over the batch and its analytic gradients.

    X is B x d, or P x B x d for a stack of P probes: weights then have a
    leading probe axis and the loss has one entry per probe.
    Computes in the dtype of X and weights, and writes the gradients into out
    (arrays shaped like weights) or fresh arrays, and an MLP's hidden layer
    and ReLU mask into scratch if given. Exposed so gradient-check tests can
    compare against finite differences.
    """
    hidden_out, mask = scratch or (None, None)
    log_probs, hidden = _forward(weights, kind, X, hidden_out)
    b, k = log_probs.shape[-2:]
    # The class maximum as a chain of pairwise maxima: the same values as
    # .max(axis=-1) at a fraction of a short reduction's cost.
    top = log_probs[..., 0].copy()
    for c in range(1, k):
        np.maximum(top, log_probs[..., c], out=top)
    log_probs -= top[..., None]
    log_probs -= np.log(np.exp(log_probs).sum(axis=-1, keepdims=True))
    # Each row's label entry in the flattened (..., b, k) array.
    picked = np.arange(y.size) * k + y.reshape(-1)
    loss = -log_probs.reshape(-1)[picked].reshape(y.shape).mean(axis=-1)

    delta = np.exp(log_probs)
    delta.reshape(-1)[picked] -= 1.0
    delta /= b

    grads = {key: np.empty_like(w) for key, w in weights.items()} if out is None else out
    if kind == LINEAR:
        np.matmul(X.swapaxes(-1, -2), delta, out=grads["W"])
        delta.sum(axis=-2, out=grads["b"])
    else:
        np.matmul(hidden.swapaxes(-1, -2), delta, out=grads["W2"])
        delta.sum(axis=-2, out=grads["b2"])
        mask = np.greater(hidden, 0, out=mask)
        # The hidden layer is spent: its buffer takes the backward signal.
        dhidden = np.matmul(delta, weights["W2"].swapaxes(-1, -2), out=hidden)
        # Multiplying by the mask is branch-free, unlike a boolean scatter. It
        # leaves -0.0 where a scatter would write +0.0, so a gradient differs
        # at most in the sign of an exact zero; Adam's b1*m + (1-b1)*g gives
        # the same m for either zero, so the trained weights do not change.
        dhidden *= mask
        np.matmul(X.swapaxes(-1, -2), dhidden, out=grads["W1"])
        dhidden.sum(axis=-2, out=grads["b1"])
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
    weights: dict[str, np.ndarray], kind: str, X: np.ndarray, hidden: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray | None]:
    """Return (logits, hidden), for one probe or a stack; hidden is written
    into the given array, else a fresh one, and is None for the linear head."""
    if kind == LINEAR:
        logits = X @ weights["W"]
        logits += weights["b"][..., None, :]
        return logits, None
    hidden = np.matmul(X, weights["W1"], out=hidden)
    hidden += weights["b1"][..., None, :]
    np.maximum(hidden, 0.0, out=hidden)
    logits = hidden @ weights["W2"]
    logits += weights["b2"][..., None, :]
    return logits, hidden
