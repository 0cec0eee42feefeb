"""Tests for probe training: gradients, determinism, capacity, adjustment."""

import hashlib
import json
import os
import subprocess
import sys
import time
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import detangle.classify as classify_module
from detangle.classify import (
    LINEAR,
    MLP,
    ProbeModel,
    TrainConfig,
    _init_weights,
    accuracy,
    adjusted_accuracy,
    chance_rate,
    probe_loss_and_gradients,
    train_probe,
)
from detangle.errors import TrainingDivergedError, ValidationError
from detangle.synth import GeneratorSpec, generate
from detangle.util import spawn_seed


def numerical_gradient(weights, kind, X, y, key, h=1e-6):
    """Central-difference gradient of the loss for one weight array.

    Args:
        weights: dict of parameter arrays.
        kind: probe kind string.
        X: feature matrix.
        y: integer labels.
        key: which parameter array to differentiate.
        h: step size.

    Returns:
        Array of the same shape as weights[key].
    """
    grad = np.zeros_like(weights[key])
    flat = weights[key].ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        lo_plus, _ = probe_loss_and_gradients(weights, kind, X, y)
        flat[i] = orig - h
        lo_minus, _ = probe_loss_and_gradients(weights, kind, X, y)
        flat[i] = orig
        gflat[i] = (lo_plus - lo_minus) / (2.0 * h)
    return grad


def relative_error(a, b):
    denom = max(1e-8, float(np.abs(a).max() + np.abs(b).max()))
    return float(np.abs(a - b).max()) / denom


class TestGradients:
    def test_linear_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(8, 3))
        y = rng.integers(0, 4, size=8)
        weights = {
            "W": rng.normal(scale=0.5, size=(3, 4)),
            "b": rng.normal(scale=0.1, size=4),
        }
        _, grads = probe_loss_and_gradients(weights, LINEAR, X, y)
        for key in weights:
            num = numerical_gradient(weights, LINEAR, X, y, key)
            assert relative_error(grads[key], num) < 1e-4, key

    def test_mlp_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(8, 3))
        y = rng.integers(0, 4, size=8)
        weights = {
            "W1": rng.normal(scale=0.5, size=(3, 5)),
            "b1": rng.normal(scale=0.3, size=5) + 0.4,
            "W2": rng.normal(scale=0.5, size=(5, 4)),
            "b2": rng.normal(scale=0.1, size=4),
        }
        # Keep pre-activations away from the ReLU kink so central
        # differences stay valid at h=1e-6.
        pre = X @ weights["W1"] + weights["b1"]
        assert np.abs(pre).min() > 1e-3
        _, grads = probe_loss_and_gradients(weights, MLP, X, y)
        for key in weights:
            num = numerical_gradient(weights, MLP, X, y, key)
            assert relative_error(grads[key], num) < 1e-4, key

    def test_loss_is_mean_cross_entropy(self):
        # Zero weights: uniform predictions, loss = log(k).
        X = np.ones((6, 2))
        y = np.array([0, 1, 2, 0, 1, 2])
        weights = {"W": np.zeros((2, 3)), "b": np.zeros(3)}
        loss, _ = probe_loss_and_gradients(weights, LINEAR, X, y)
        assert loss == pytest.approx(np.log(3.0), abs=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kind", [LINEAR, MLP])
    def test_out_views_get_the_fresh_gradients(self, kind, dtype):
        rng = np.random.default_rng(21)
        X = rng.normal(size=(16, 5)).astype(dtype)
        y = rng.integers(0, 4, size=16)
        shapes = _init_weights(kind, 5, 4, 7, rng)
        weights = {key: rng.normal(size=w.shape).astype(dtype) for key, w in shapes.items()}
        flat = np.full(sum(w.size for w in weights.values()), np.nan, dtype=dtype)
        ends = np.cumsum([w.size for w in weights.values()])
        out = {key: flat[end - w.size : end].reshape(w.shape)
               for (key, w), end in zip(weights.items(), ends)}
        loss, grads = probe_loss_and_gradients(weights, kind, X, y, out=out)
        fresh_loss, fresh = probe_loss_and_gradients(weights, kind, X, y)
        assert grads is out
        assert loss == fresh_loss
        assert out.keys() == fresh.keys()
        for key, g in out.items():
            assert g.dtype == fresh[key].dtype == dtype, key
            assert np.shares_memory(g, flat), key
            assert g.tobytes() == fresh[key].tobytes(), key

    def test_loss_handles_large_logits(self):
        X = np.array([[1000.0], [-1000.0]])
        y = np.array([0, 1])
        weights = {"W": np.array([[1.0, -1.0]]), "b": np.zeros(2)}
        loss, grads = probe_loss_and_gradients(weights, LINEAR, X, y)
        assert np.isfinite(loss)
        assert all(np.all(np.isfinite(g)) for g in grads.values())


def xor_features_labels(copies=256, seed=0):
    spec = GeneratorSpec(kind="xor", samples_per_cell=copies, seed=seed)
    rep = generate(spec)
    return rep.latents, rep.labels[:, 0].astype(np.int64)


def noisy_six_class_problem():
    """Six overlapping Gaussian classes in 8 dimensions, fixed seed."""
    rng = np.random.default_rng(2024)
    y = rng.integers(0, 6, size=300)
    centers = rng.normal(size=(6, 8))
    X = centers[y] + rng.normal(scale=1.5, size=(300, 8))
    return X, y


class TestTrainProbe:
    def test_training_is_bit_deterministic(self):
        X, y = xor_features_labels(copies=64)
        config = TrainConfig(seed=11, epochs=20)
        m1 = train_probe(X, y, kind=MLP, config=config)
        m2 = train_probe(X, y, kind=MLP, config=config)
        for key in m1.weights:
            assert np.array_equal(m1.weights[key], m2.weights[key]), key
        assert np.array_equal(m1.mu, m2.mu)
        assert np.array_equal(m1.sigma, m2.sigma)

    def test_seed_changes_mlp_weights(self):
        X, y = xor_features_labels(copies=64)
        m1 = train_probe(X, y, kind=MLP, config=TrainConfig(seed=1, epochs=5))
        m2 = train_probe(X, y, kind=MLP, config=TrainConfig(seed=2, epochs=5))
        assert not np.array_equal(m1.weights["W1"], m2.weights["W1"])

    def test_linear_probe_cannot_solve_xor(self):
        X, y = xor_features_labels(copies=256)
        model = train_probe(X, y, kind=LINEAR, config=TrainConfig(seed=3))
        assert accuracy(model, X, y) <= 0.75

    def test_mlp_probe_solves_xor(self):
        X, y = xor_features_labels(copies=256)
        model = train_probe(X, y, kind=MLP, config=TrainConfig(seed=3))
        assert accuracy(model, X, y) >= 0.99

    def test_linear_probe_solves_linear_problem(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(400, 2))
        y = (X[:, 0] + 0.5 * X[:, 1] > 0).astype(np.int64)
        config = TrainConfig(seed=4, epochs=300, learning_rate=0.01)
        model = train_probe(X, y, kind=LINEAR, config=config)
        assert accuracy(model, X, y) >= 0.97

    def test_divergence_raises_with_epoch(self):
        X, y = xor_features_labels(copies=32)
        config = TrainConfig(seed=5, learning_rate=1e300, epochs=3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(TrainingDivergedError) as exc:
                train_probe(X, y, kind=MLP, config=config)
        assert exc.value.epoch in (0, 1)
        assert "diverged" in str(exc.value)
        assert f"epoch {exc.value.epoch}" in str(exc.value)

    def test_batch_size_larger_than_dataset_is_clipped(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(10, 2))
        y = (X[:, 0] > 0).astype(np.int64)
        config = TrainConfig(seed=6, epochs=30, batch_size=128)
        model = train_probe(X, y, kind=LINEAR, config=config)
        assert accuracy(model, X, y) >= 0.8

    def test_constant_feature_column_is_safe(self):
        rng = np.random.default_rng(9)
        X = np.column_stack([rng.normal(size=50), np.full(50, 3.7)])
        y = (X[:, 0] > 0).astype(np.int64)
        model = train_probe(X, y, kind=LINEAR, config=TrainConfig(seed=7))
        assert model.sigma[1] == 1.0
        preds = model.predict(X)
        assert np.all(np.isfinite(model.logits(X)))
        assert preds.shape == (50,)

    def test_n_classes_can_exceed_observed_labels(self):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(40, 2))
        y = np.where(X[:, 0] > 0, 2, 0).astype(np.int64)
        model = train_probe(
            X, y, kind=LINEAR, config=TrainConfig(seed=8), n_classes=4
        )
        assert model.n_classes == 4
        assert model.logits(X).shape == (40, 4)

    @pytest.mark.parametrize("kind", [LINEAR, MLP])
    def test_float32_weights_float64_moments_all_read_only(self, kind):
        X, y = noisy_six_class_problem()
        X_bytes, y_bytes = X.tobytes(), y.tobytes()
        model = train_probe(X, y, kind=kind, config=TrainConfig(seed=1, epochs=1, hidden_units=8))
        assert X.tobytes() == X_bytes and y.tobytes() == y_bytes
        assert model.mu.dtype == model.sigma.dtype == np.float64
        assert {w.dtype for w in model.weights.values()} == {np.dtype(np.float32)}
        for array in (model.mu, model.sigma, *model.weights.values()):
            assert not array.flags.writeable
        assert model.logits(X).dtype == np.float32

    def test_single_class_labels_rejected(self):
        X = np.zeros((10, 2))
        y = np.zeros(10, dtype=np.int64)
        with pytest.raises(ValidationError, match="classes"):
            train_probe(X, y, kind=LINEAR)

    def test_n_classes_smaller_than_labels_rejected(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(10, 2))
        y = np.array([0, 1, 2, 0, 1, 2, 0, 1, 2, 0])
        with pytest.raises(ValidationError, match="n_classes"):
            train_probe(X, y, n_classes=2)

    @pytest.mark.parametrize("n_classes", [3.9, 3.0, "3", True, np.float64(3.0), [3.0]])
    def test_non_integer_n_classes_rejected(self, n_classes):
        X, y = xor_features_labels(copies=8)
        with pytest.raises(ValidationError, match="n_classes must be an integer"):
            train_probe(X, y, LINEAR, TrainConfig(epochs=1), n_classes=n_classes)

    def test_numpy_integer_n_classes_accepted(self):
        X, y = xor_features_labels(copies=8)
        model = train_probe(X, y, LINEAR, TrainConfig(epochs=1), n_classes=np.int64(3))
        assert model.n_classes == 3 and type(model.n_classes) is int

    def test_unknown_kind_rejected(self):
        X, y = xor_features_labels(copies=8)
        with pytest.raises(ValidationError, match="kind"):
            train_probe(X, y, kind="forest")

    def test_negative_labels_rejected(self):
        X = np.zeros((4, 2))
        y = np.array([0, 1, -1, 0])
        with pytest.raises(ValidationError):
            train_probe(X, y)

    def test_non_finite_features_rejected(self):
        X = np.zeros((4, 2))
        X[2, 1] = np.nan
        y = np.array([0, 1, 0, 1])
        with pytest.raises(ValidationError, match="finite"):
            train_probe(X, y)

    def test_length_mismatch_rejected(self):
        X = np.zeros((4, 2))
        y = np.array([0, 1, 0])
        with pytest.raises(ValidationError):
            train_probe(X, y)

    def test_negative_seed_rejected_naming_it(self):
        X, y = xor_features_labels(copies=2)
        with pytest.raises(ValidationError, match="config.seed must be >= 0, got -1"):
            train_probe(X, y, LINEAR, TrainConfig(seed=-1, epochs=1))
        # A stack reads only its seeds, so a negative config.seed is fine there.
        config = TrainConfig(seed=-1, epochs=1)
        train_probe(X, np.stack([y, 1 - y], axis=1), LINEAR, config, seeds=[0, 1])
        with pytest.raises(ValidationError, match=r"seeds\[1\] must be >= 0, got -3"):
            train_probe(X, np.stack([y, 1 - y], axis=1), LINEAR, config, seeds=[0, -3])


def reference_forward(weights, kind, X):
    """Out-of-place forward pass of the original probe engine."""
    if kind == LINEAR:
        return X @ weights["W"] + weights["b"], None
    hidden = np.maximum(X @ weights["W1"] + weights["b1"], 0.0)
    return hidden @ weights["W2"] + weights["b2"], hidden


def reference_loss_and_gradients(weights, kind, X, y):
    """Loss and gradients of the original engine, with its boolean ReLU scatter."""
    logits, hidden = reference_forward(weights, kind, X)
    b = X.shape[0]
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - log_z
    loss = float(-log_probs[np.arange(b), y].mean())

    probs = np.exp(log_probs)
    delta = probs.copy()
    delta[np.arange(b), y] -= 1.0
    delta /= b

    grads = {}
    if kind == LINEAR:
        grads["W"] = X.T @ delta
        grads["b"] = delta.sum(axis=0)
    else:
        grads["W2"] = hidden.T @ delta
        grads["b2"] = delta.sum(axis=0)
        dhidden = delta @ weights["W2"].T
        dhidden[hidden <= 0] = 0.0
        grads["W1"] = X.T @ dhidden
        grads["b1"] = dhidden.sum(axis=0)
    return loss, grads


def reference_train(X, y, kind, config, k):
    """The original out-of-place Adam loop, in float32: the features are
    standardized in float64 and then, like the initial weights, cast.

    Returns the trained weights, which train_probe must reproduce bit for
    bit, and the standardized features.
    """
    mu = X.mean(axis=0)
    sigma = X.std(axis=0)
    sigma = np.where(sigma < 1e-12, 1.0, sigma)
    Xs = ((X - mu) / sigma).astype(np.float32)
    rng = np.random.default_rng(config.seed)
    weights = {
        key: w.astype(np.float32)
        for key, w in _init_weights(kind, X.shape[1], k, config.hidden_units, rng).items()
    }
    n = X.shape[0]
    batch_size = min(config.batch_size, n)
    adam_m = {key: np.zeros_like(w) for key, w in weights.items()}
    adam_v = {key: np.zeros_like(w) for key, w in weights.items()}
    step = 0
    for _ in range(config.epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            batch = order[start : start + batch_size]
            _, grads = reference_loss_and_gradients(weights, kind, Xs[batch], y[batch])
            step += 1
            bc1 = 1.0 - config.beta1**step
            bc2 = 1.0 - config.beta2**step
            for key, g in grads.items():
                adam_m[key] = config.beta1 * adam_m[key] + (1.0 - config.beta1) * g
                adam_v[key] = config.beta2 * adam_v[key] + (1.0 - config.beta2) * g * g
                m_hat = adam_m[key] / bc1
                v_hat = adam_v[key] / bc2
                weights[key] = weights[key] - config.learning_rate * m_hat / (
                    np.sqrt(v_hat) + config.epsilon
                )
    return weights, Xs


def assert_matches_reference(X, y, kind, config, k):
    X_bytes, y_bytes = X.tobytes(), y.tobytes()
    model = train_probe(X, y, kind=kind, config=config, n_classes=k)
    assert X.tobytes() == X_bytes and y.tobytes() == y_bytes
    expected, Xs = reference_train(X, y, kind, config, k)
    assert model.weights.keys() == expected.keys()
    for key, w in model.weights.items():
        assert not w.flags.writeable, key
        assert w.tobytes() == expected[key].tobytes(), key
    logits = reference_forward(expected, kind, Xs)[0]
    assert model.logits(X).tobytes() == logits.tobytes()


class TestReferenceEngine:
    """train_probe against the original out-of-place engine, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 120),
        d=st.integers(1, 8),
        k=st.integers(2, 5),
        hidden=st.integers(1, 40),
        batch=st.integers(1, 64),
        epochs=st.integers(1, 3),
        log_lr=st.floats(-4.0, 0.0),
        beta1=st.sampled_from([0.9, 0.5, 0.0]),
        scale=st.sampled_from([1e-2, 1.0, 1e2]),
        kind=st.sampled_from([LINEAR, MLP]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_weights_bit_identical(
        self, n, d, k, hidden, batch, epochs, log_lr, beta1, scale, kind, seed
    ):
        rng = np.random.default_rng(seed)
        X = rng.normal(scale=scale, size=(n, d))
        y = rng.integers(0, k, size=n)
        y[:2] = [0, 1]
        config = TrainConfig(
            learning_rate=10.0**log_lr, beta1=beta1, epochs=epochs,
            hidden_units=hidden, batch_size=batch, seed=seed,
        )
        assert_matches_reference(X, y, kind, config, k)

    def test_dead_unit_with_negative_gradient(self):
        # Batch size 1 on one feature: a unit whose weight has the opposite
        # sign of the row is inactive for the whole batch, and the backward
        # signal into it is negative for some of those units. The mask then
        # writes -0.0 where the reference writes +0.0.
        X = np.linspace(-1.0, 1.0, 9).reshape(-1, 1)
        y = np.arange(9) % 3
        config = TrainConfig(learning_rate=0.05, epochs=4, hidden_units=8,
                             batch_size=1, seed=4)
        rng = np.random.default_rng(config.seed)
        weights = _init_weights(MLP, 1, 3, config.hidden_units, rng)
        first = rng.permutation(9)[:1]
        Xs = (X - X.mean(axis=0)) / X.std(axis=0)
        logits, hidden = reference_forward(weights, MLP, Xs[first])
        delta = np.exp(logits - logits.max())
        delta /= delta.sum()
        delta[0, y[first]] -= 1.0
        dhidden = delta @ weights["W2"].T
        assert np.any((hidden[0] <= 0) & (dhidden[0] < 0))
        assert_matches_reference(X, y, MLP, config, 3)


class TestStackedTraining:
    """A label matrix with one seed per column trains the probes in lock
    step; each must equal its column trained alone, bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(2, 90),
        d=st.integers(1, 6),
        ks=st.lists(st.integers(2, 5), min_size=1, max_size=5),
        hidden=st.integers(1, 24),
        batch=st.integers(1, 64),
        epochs=st.integers(1, 3),
        kind=st.sampled_from([LINEAR, MLP]),
        seed=st.integers(0, 2**32 - 1),
    )
    # n below batch_size, and n not a multiple of it: the clipped batch and
    # the short last batch use leading slices of the stack's buffers.
    @example(n=10, d=3, ks=[2, 3, 2], hidden=8, batch=64, epochs=2, kind=MLP, seed=1)
    @example(n=70, d=3, ks=[4, 4, 2, 5, 4], hidden=8, batch=32, epochs=2, kind=MLP, seed=2)
    def test_each_stacked_probe_equals_its_solo_probe(
        self, n, d, ks, hidden, batch, epochs, kind, seed
    ):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, d))
        Y = np.stack([rng.integers(0, k, size=n) for k in ks], axis=1)
        Y[:2] = [[0] * len(ks), [1] * len(ks)]
        seeds = rng.integers(0, 2**32, size=len(ks)).tolist()
        config = TrainConfig(learning_rate=0.02, epochs=epochs, hidden_units=hidden,
                             batch_size=batch, seed=seed)
        models = train_probe(X, Y, kind, config, n_classes=ks, seeds=seeds)
        assert len(models) == len(ks)
        for p, model in enumerate(models):
            solo = train_probe(X, Y[:, p], kind, config.with_seed(seeds[p]), n_classes=ks[p])
            assert model.config == solo.config and model.n_classes == ks[p]
            assert model.weights.keys() == solo.weights.keys()
            for key, w in model.weights.items():
                assert w.shape == solo.weights[key].shape, key
                assert not w.flags.writeable, key
                assert w.tobytes() == solo.weights[key].tobytes(), key
            assert model.logits(X).tobytes() == solo.logits(X).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(2, 90),
        ks=st.lists(st.integers(2, 5), min_size=1, max_size=5),
        extra=st.integers(0, 3),
        hidden=st.integers(1, 24),
        batch=st.integers(1, 64),
        epochs=st.integers(1, 3),
        kind=st.sampled_from([LINEAR, MLP]),
        seed=st.integers(0, 2**32 - 1),
    )
    # Two neurons leave one column per knockout; the others leave several.
    # Batches of 32 or 64 on 70 rows end short.
    @example(n=70, ks=[3, 3], extra=0, hidden=8, batch=32, epochs=2, kind=MLP, seed=1)
    @example(n=70, ks=[4, 2, 4], extra=2, hidden=8, batch=64, epochs=2, kind=MLP, seed=2)
    def test_each_knockout_equals_its_solo_probe(
        self, n, ks, extra, hidden, batch, epochs, kind, seed
    ):
        # NK's knockouts: factor j's probe sees every neuron but its aligned
        # one, trained on the train rows with seed spawn_seed(seed, j, 1).
        rng = np.random.default_rng(seed)
        m = len(ks) + extra + (len(ks) == 1)
        latents = rng.normal(size=(n + 7, m)) * rng.uniform(0.1, 10.0, m) + rng.normal(size=m)
        train = np.sort(rng.permutation(n + 7)[:n])
        Y = np.stack([rng.integers(0, k, size=n) for k in ks], axis=1)
        Y[:2] = [[0] * len(ks), [1] * len(ks)]
        keeps = [np.delete(np.arange(m), i) for i in rng.permutation(m)[: len(ks)]]
        seeds = [spawn_seed(seed, j, 1) for j in range(len(ks))]
        config = TrainConfig(learning_rate=0.02, epochs=epochs, hidden_units=hidden,
                             batch_size=batch, seed=seed)
        models = train_probe(latents[train], Y, kind, config, ks, seeds, columns=keeps)
        for j, model in enumerate(models):
            solo = train_probe(latents[np.ix_(train, keeps[j])], Y[:, j], kind,
                               config.with_seed(seeds[j]), ks[j])
            assert model.config == solo.config and model.n_classes == ks[j]
            assert model.mu.tobytes() == solo.mu.tobytes()
            assert model.sigma.tobytes() == solo.sigma.tobytes()
            assert not (model.mu.flags.writeable or model.sigma.flags.writeable)
            assert model.weights.keys() == solo.weights.keys()
            for key, w in model.weights.items():
                assert w.tobytes() == solo.weights[key].tobytes(), key

    def test_columns_of_mixed_widths(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(50, 4)) * [1.0, 3.0, 0.5, 2.0]
        Y = np.stack([np.arange(50) % 2, np.arange(50) % 3, np.arange(50) % 2], axis=1)
        columns = [[2], [3, 0, 3], [1, 2]]
        config = TrainConfig(epochs=2, hidden_units=6, batch_size=16)
        models = train_probe(X, Y, MLP, config, seeds=[4, 5, 6], columns=columns)
        for p, (model, cols) in enumerate(zip(models, columns)):
            solo = train_probe(X[:, cols].copy(), Y[:, p], MLP, config.with_seed(4 + p))
            for key, w in model.weights.items():
                assert w.tobytes() == solo.weights[key].tobytes(), (p, key)
            assert model.logits(X[:, cols]).tobytes() == solo.logits(X[:, cols]).tobytes()

    def test_class_counts_are_inferred_per_column(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(40, 3))
        Y = np.stack([np.arange(40) % 2, np.arange(40) % 5, np.arange(40) % 3], axis=1)
        models = train_probe(X, Y, LINEAR, TrainConfig(epochs=1), seeds=[1, 2, 3])
        assert [m.n_classes for m in models] == [2, 5, 3]
        assert [m.config.seed for m in models] == [1, 2, 3]

    def test_diverging_stack_raises(self):
        X, y = xor_features_labels(copies=32)
        Y = np.stack([y, 1 - y], axis=1)
        config = TrainConfig(seed=5, learning_rate=1e300, epochs=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TrainingDivergedError) as exc:
                train_probe(X, Y, MLP, config, seeds=[5, 6])
        assert exc.value.epoch in (0, 1)
        assert f"epoch {exc.value.epoch}" in str(exc.value)

    @pytest.mark.parametrize(
        "labels,kwargs,match",
        [
            ("matrix", {"seeds": [1]}, "one seed per column"),
            ("matrix", {"seeds": [1, 2, 3]}, "one seed per column"),
            ("matrix", {}, "one seed per column"),
            ("vector", {"seeds": [1]}, "one seed per column"),
            ("matrix", {"seeds": [1, 2], "n_classes": [2]}, "one size per label column"),
            ("matrix", {"seeds": [1, 2], "n_classes": [2, 2, 2]}, "one size per label column"),
            ("matrix", {"seeds": [1, 2], "n_classes": [2, 1]}, "n_classes=1 too small"),
            ("empty", {"seeds": []}, "P >= 1"),
            ("one_class_column", {"seeds": [1, 2]}, "two classes"),
            ("vector", {"columns": [[0]]}, "columns must give"),
            ("matrix", {"seeds": [1, 2], "columns": [[0]]}, "columns must give"),
            ("matrix", {"seeds": [1, 2], "columns": [[0], []]}, "columns must give"),
            ("matrix", {"seeds": [1, 2], "columns": [[0], [2]]}, "columns must give"),
            ("matrix", {"seeds": [1, 2], "columns": [[0], [-1]]}, "columns must give"),
            ("matrix", {"seeds": [1, 2], "columns": [[0], [0.5]]}, "columns must give"),
        ],
    )
    def test_bad_stacked_arguments_rejected(self, labels, kwargs, match):
        X, y = xor_features_labels(copies=8)
        Y = {"matrix": np.stack([y, 1 - y], axis=1), "vector": y,
             "empty": np.empty((len(y), 0), dtype=np.int64),
             "one_class_column": np.stack([y, np.zeros_like(y)], axis=1)}[labels]
        with pytest.raises(ValidationError, match=match):
            train_probe(X, Y, LINEAR, TrainConfig(epochs=1), **kwargs)


def force_workers(monkeypatch, workers):
    """Split every stack into min(P, workers) chunks, whatever the machine."""
    monkeypatch.setattr(classify_module, "_worker_count", lambda n_probes: min(n_probes, workers))


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def model_bytes(models):
    return [(m.mu.tobytes(), m.sigma.tobytes(), {k: w.tobytes() for k, w in m.weights.items()})
            for m in models]


def diverging_stack(data_seed, learning_rate):
    """32 rows, one batch per epoch: a linear probe's divergence epoch and
    loss (inf or nan) vary with its seed and labels at these rates."""
    rng = np.random.default_rng(data_seed)
    X = rng.normal(size=(32, 3))
    Y = np.stack([rng.integers(0, 3, 32) for _ in range(8)], axis=1)
    return X, Y, TrainConfig(learning_rate=learning_rate, epochs=8, batch_size=32)


def divergence_message(X, Y, config, columns):
    try:
        train_probe(X, Y[:, columns], LINEAR, config, [3] * len(columns), seeds=columns)
    except TrainingDivergedError as exc:
        return str(exc)
    return None


class TestSplitStack:
    """A stack is split into contiguous chunks trained in forked children;
    no result may depend on the number of chunks."""

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(2, 70),
        m=st.integers(2, 5),
        ks=st.lists(st.integers(2, 4), min_size=1, max_size=5),
        knockout=st.booleans(),
        batch=st.integers(1, 48),
        kind=st.sampled_from([LINEAR, MLP]),
        seed=st.integers(0, 2**32 - 1),
    )
    # Five probes of two class counts, one of them a one-column solo probe;
    # 70 rows in batches of 32 end with a short batch.
    @example(n=70, m=2, ks=[3, 3, 2, 3, 3], knockout=True, batch=32, kind=MLP, seed=1)
    @example(n=70, m=4, ks=[2, 3, 2, 2, 2], knockout=False, batch=32, kind=LINEAR, seed=2)
    def test_weights_do_not_depend_on_the_worker_count(self, n, m, ks, knockout, batch, kind, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, m)) * rng.uniform(0.1, 10.0, m)
        Y = np.stack([rng.integers(0, k, size=n) for k in ks], axis=1)
        Y[:2] = [[0] * len(ks), [1] * len(ks)]
        columns = [np.delete(np.arange(m), j % m) for j in range(len(ks))] if knockout else None
        config = TrainConfig(learning_rate=0.02, epochs=2, hidden_units=8, batch_size=batch)
        seeds = rng.integers(0, 2**32, size=len(ks)).tolist()
        results = []
        for workers in (1, 2, 3):
            with pytest.MonkeyPatch.context() as monkeypatch:
                force_workers(monkeypatch, workers)
                models = train_probe(X, Y, kind, config, ks, seeds, columns=columns)
            assert all(not w.flags.writeable for model in models for w in model.weights.values())
            results.append(model_bytes(models))
        assert results[1] == results[0] and results[2] == results[0]
        assert_no_child_left()

    @pytest.mark.parametrize("env,n_probes,expected", [
        ({}, 8, 1),  # unset: OpenBLAS runs one thread per CPU
        ({"OPENBLAS_NUM_THREADS": "1"}, 8, 4),
        ({"OPENBLAS_NUM_THREADS": "1"}, 3, 3),
        ({"OPENBLAS_NUM_THREADS": "2"}, 8, 2),
        ({"OPENBLAS_NUM_THREADS": "3"}, 8, 1),
        ({"OPENBLAS_NUM_THREADS": "8"}, 8, 1),
        ({"OPENBLAS_NUM_THREADS": "0", "GOTO_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 8, 2),
        ({"OPENBLAS_NUM_THREADS": "x", "OMP_NUM_THREADS": "1"}, 8, 4),
        ({"OMP_NUM_THREADS": "4,2"}, 8, 1),  # a nesting list: atoi reads the 4
        ({"GOTO_NUM_THREADS": " +2 threads"}, 8, 2),
        ({"OPENBLAS_NUM_THREADS": "-1"}, 8, 1),
    ])
    def test_worker_count_leaves_each_blas_thread_a_cpu(self, monkeypatch, env, n_probes,
                                                        expected):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(name, raising=False)
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        assert classify_module._worker_count(n_probes) == expected
        monkeypatch.delattr(os, "fork", raising=False)
        assert classify_module._worker_count(n_probes) == 1

    @pytest.mark.parametrize("data_seed,learning_rate,columns,workers", [
        (2, 1e37, [1, 2], 2),  # this process's chunk diverges in epoch 2, the child's in 1
        (2, 1e37, [1, 0, 2], 3),  # the middle chunk never diverges
        (2, 1e37, [1, 2, 3, 6], 2),  # two probes per chunk; both chunks diverge in epoch 1
        (0, 7e37, [1, 0], 2),  # both chunks diverge at the first step: loss inf, then nan
        (0, 7e37, [0, 1], 2),  # nan, then inf
    ])
    def test_split_divergence_reads_as_one_stack(self, monkeypatch, data_seed, learning_rate,
                                                columns, workers):
        X, Y, config = diverging_stack(data_seed, learning_rate)
        solo = {divergence_message(X, Y, config, [p]) for p in columns}
        assert len(solo) > 1  # the chunk whose divergence is reported matters
        force_workers(monkeypatch, 1)
        expected = divergence_message(X, Y, config, columns)
        force_workers(monkeypatch, workers)
        assert divergence_message(X, Y, config, columns) == expected
        assert_no_child_left()

    @pytest.mark.parametrize("error", [MemoryError, KeyboardInterrupt])
    def test_failing_chunk_here_stops_the_children(self, monkeypatch, error):
        parent, train_stack = os.getpid(), classify_module._train_stack

        def fail_here_stall_there(*args):
            if os.getpid() == parent:
                raise error("chunk 0")
            time.sleep(60)
            return train_stack(*args)

        force_workers(monkeypatch, 3)
        monkeypatch.setattr(classify_module, "_train_stack", fail_here_stall_there)
        X, y = xor_features_labels(copies=8)
        start = time.monotonic()
        with pytest.raises(error, match="chunk 0"):
            train_probe(X, np.stack([y, 1 - y, y], axis=1), LINEAR, seeds=[1, 2, 3])
        assert time.monotonic() - start < 30
        assert_no_child_left()

    def test_failed_fork_trains_the_chunk_here(self, monkeypatch):
        X, y = xor_features_labels(copies=8)
        Y = np.stack([y, 1 - y, y], axis=1)
        config = TrainConfig(epochs=2, hidden_units=8)
        expected = model_bytes(train_probe(X, Y, MLP, config, seeds=[1, 2, 3]))

        def no_fork():
            raise BlockingIOError("fork: Resource temporarily unavailable")

        force_workers(monkeypatch, 3)
        monkeypatch.setattr(os, "fork", no_fork)
        assert model_bytes(train_probe(X, Y, MLP, config, seeds=[1, 2, 3])) == expected
        assert_no_child_left()

    def test_child_without_a_result_raises_child_process_error(self, monkeypatch):
        parent, train_stack = os.getpid(), classify_module._train_stack
        force_workers(monkeypatch, 2)
        monkeypatch.setattr(classify_module, "_train_stack",
                            lambda *args: train_stack(*args) if os.getpid() == parent else os._exit(7))
        X, y = xor_features_labels(copies=8)
        with pytest.raises(ChildProcessError, match=r"probe worker \d+ ended with status 7"):
            train_probe(X, np.stack([y, 1 - y], axis=1), LINEAR, TrainConfig(epochs=1), seeds=[1, 2])
        assert_no_child_left()

    def test_unflushed_output_is_written_once(self):
        # stdout to a pipe is block-buffered, so "before" is still in this
        # process's buffer when the children fork; they must not flush it.
        script = """
import os
import numpy as np
import detangle.classify as classify
from detangle.classify import TrainConfig, train_probe
forks = []
fork = os.fork
os.fork = lambda: forks.append(1) or fork()
classify._worker_count = lambda n_probes: min(n_probes, 3)
print("before")
y = np.arange(40) % 2
train_probe(np.c_[y, -y] + 0.1 * np.arange(40)[:, None], np.c_[y, 1 - y, y], "mlp",
            TrainConfig(epochs=1), seeds=[1, 2, 3])
print("after", len(forks))
"""
        src = str(Path(classify_module.__file__).resolve().parents[1])
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env={**env, "PYTHONPATH": src})
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == "before\nafter 2\n"


class TestProbeModel:
    def test_predict_tie_takes_lowest_class(self):
        # Zero weights give identical logits for every class.
        model = ProbeModel(
            kind=LINEAR,
            n_classes=3,
            mu=np.zeros(2),
            sigma=np.ones(2),
            weights={"W": np.zeros((2, 3)), "b": np.zeros(3)},
            config=TrainConfig(),
        )
        preds = model.predict(np.ones((5, 2)))
        assert np.array_equal(preds, np.zeros(5, dtype=np.int64))

    def test_standardization_uses_training_moments(self):
        rng = np.random.default_rng(13)
        X = rng.normal(loc=100.0, scale=25.0, size=(200, 2))
        y = (X[:, 0] > 100.0).astype(np.int64)
        config = TrainConfig(seed=13, epochs=300, learning_rate=0.01)
        model = train_probe(X, y, kind=LINEAR, config=config)
        np.testing.assert_allclose(model.mu, X.mean(axis=0), atol=1e-9)
        np.testing.assert_allclose(model.sigma, X.std(axis=0), atol=1e-9)
        assert accuracy(model, X, y) >= 0.97


class TestTrainConfig:
    def test_defaults(self):
        config = TrainConfig()
        assert config.learning_rate == 0.001
        assert config.beta1 == 0.9
        assert config.beta2 == 0.999
        assert config.epsilon == 1e-8
        assert config.epochs == 75
        assert config.hidden_units == 256
        assert config.batch_size == 128

    def test_negative_seed_accepted(self):
        # The CLI derives every probe seed from it with spawn_seed.
        assert TrainConfig(seed=-1).seed == -1

    def test_with_seed_replaces_only_seed(self):
        config = TrainConfig(seed=1, epochs=33)
        other = config.with_seed(99)
        assert other.seed == 99
        assert other.epochs == 33
        assert config.seed == 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"learning_rate": 0.0},
            {"learning_rate": -1.0},
            {"learning_rate": float("nan")},
            {"learning_rate": float("inf")},
            {"learning_rate": float("-inf")},
            {"beta1": 1.0},
            {"beta2": -0.1},
            {"beta1": float("nan")},
            {"epsilon": 0.0},
            {"epsilon": float("nan")},
            {"epsilon": float("inf")},
            {"epochs": 0},
            {"hidden_units": 0},
            {"batch_size": 0},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            TrainConfig(**kwargs)

    @pytest.mark.parametrize("value", [2.0, 2.5, True, None])
    @pytest.mark.parametrize("field", ["epochs", "hidden_units", "batch_size", "seed"])
    def test_non_integer_count_or_seed_rejected(self, field, value):
        with pytest.raises(ValidationError, match=f"{field} must be an integer, got {value!r}"):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("field", ["epochs", "hidden_units", "batch_size", "seed"])
    def test_numpy_integer_stored_as_int(self, field):
        config = TrainConfig(**{field: np.int64(3)})
        assert type(getattr(config, field)) is int and getattr(config, field) == 3
        assert json.loads(json.dumps(asdict(config)))[field] == 3


class TestChanceAndAdjustment:
    def test_chance_rate_balanced_binary(self):
        assert chance_rate(np.array([0, 1, 0, 1])) == 0.5

    def test_chance_rate_skewed(self):
        assert chance_rate(np.array([0, 0, 0, 1])) == pytest.approx(0.625)

    def test_chance_rate_single_class(self):
        assert chance_rate(np.array([2, 2, 2])) == 1.0

    def test_chance_rate_empty_rejected(self):
        with pytest.raises(ValidationError):
            chance_rate(np.array([], dtype=np.int64))

    def test_adjustment_at_chance_is_zero(self):
        assert adjusted_accuracy(0.5, 0.5) == 0.0

    def test_adjustment_at_perfect_is_one(self):
        assert adjusted_accuracy(1.0, 0.5) == 1.0
        assert adjusted_accuracy(1.0, 0.25) == 1.0

    def test_adjustment_below_chance_clips_to_zero(self):
        assert adjusted_accuracy(0.3, 0.5) == 0.0

    def test_adjustment_midpoint(self):
        assert adjusted_accuracy(0.75, 0.5) == pytest.approx(0.5)

    def test_adjustment_chance_one_warns_and_returns_zero(self):
        with pytest.warns(RuntimeWarning):
            assert adjusted_accuracy(1.0, 1.0) == 0.0

    @pytest.mark.parametrize(
        "acc,chance",
        [(-0.1, 0.5), (1.1, 0.5), (0.5, 0.0), (0.5, -0.2), (0.5, 1.5)],
    )
    def test_adjustment_rejects_out_of_range(self, acc, chance):
        with pytest.raises(ValidationError):
            adjusted_accuracy(acc, chance)

    def test_accuracy_counts_matches(self):
        model = ProbeModel(
            kind=LINEAR,
            n_classes=2,
            mu=np.zeros(1),
            sigma=np.ones(1),
            weights={"W": np.array([[-1.0, 1.0]]), "b": np.zeros(2)},
            config=TrainConfig(),
        )
        X = np.array([[-2.0], [-1.0], [1.0], [2.0]])
        y = np.array([0, 1, 1, 1])
        assert accuracy(model, X, y) == pytest.approx(0.75)

    def test_warning_free_adjustment_under_catch(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert adjusted_accuracy(0.9, 0.5) == pytest.approx(0.8)


WEIGHT_FINGERPRINTS = {
    LINEAR: "1a8c50410f4534982323b04e292fb5927abb75009803aa1dd9b2020fc842b3fb",
    MLP: "c3e385b171238d024c0a1e1149e3e6e991c02141e2b121e89d01785c9129dbf0",
}


@pytest.mark.parametrize("kind", [LINEAR, MLP])
def test_probe_weight_fingerprint(kind):
    # Payload fingerprints round probe outputs to accuracies; this pins the
    # trained weights and logits themselves, so any change in probe
    # numerics shows here first.
    X, y = noisy_six_class_problem()
    config = TrainConfig(seed=5, epochs=3, hidden_units=16, batch_size=32)
    model = train_probe(X, y, kind=kind, config=config, n_classes=6)
    digest = hashlib.sha256()
    for key in sorted(model.weights):
        digest.update(key.encode("ascii"))
        digest.update(model.weights[key].tobytes())
    digest.update(model.logits(X).tobytes())
    assert digest.hexdigest() == WEIGHT_FINGERPRINTS[kind]
