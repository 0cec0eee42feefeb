"""Helpers: seed derivation, atomic writes, and the contract that the BLAS
thread count never changes a result."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import detangle
from detangle.errors import ValidationError
from detangle.util import (
    atomic_open,
    atomic_write_json,
    atomic_write_text,
    payload_kind,
    spawn_seed,
)


def test_spawn_seed_deterministic_and_branch_sensitive():
    assert spawn_seed(7, 1, 2) == spawn_seed(7, 1, 2)
    seeds = {spawn_seed(7), spawn_seed(7, 0), spawn_seed(7, 1), spawn_seed(8), spawn_seed(7, 0, 1)}
    assert len(seeds) == 5
    assert all(isinstance(s, int) and s >= 0 for s in seeds)


@pytest.mark.parametrize("keys, kind", [
    (("importance", "alignment"), "align"),
    (("snc", "importance", "alignment"), "metrics"),
    (("joint_both", "per_factor"), "cg_run"),
    (("runs", "joint_both"), "cg_suite"),
    (("per_metric", "runs", "snc"), "correlation"),
])
def test_payload_kind_key_precedence(keys, kind):
    assert payload_kind(dict.fromkeys(keys)) == kind


def test_payload_kind_rejects_unknown_payload():
    with pytest.raises(ValidationError, match="unrecognized payload"):
        payload_kind({"schema_version": 1})


def test_atomic_write_text_replaces_and_leaves_no_temp(tmp_path):
    target = tmp_path / "sub" / "out.txt"
    atomic_write_text(target, "first")
    atomic_write_text(target, "second")
    assert target.read_text() == "second"
    assert [p.name for p in target.parent.iterdir()] == ["out.txt"]


def test_atomic_open_error_keeps_old_file_and_leaves_no_temp(tmp_path):
    target = tmp_path / "out.txt"
    atomic_write_text(target, "old")
    with pytest.raises(RuntimeError):
        with atomic_open(target) as fh:
            fh.write("half")
            raise RuntimeError("writer failed")
    assert target.read_text() == "old"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_atomic_write_json_full_precision(tmp_path):
    value = 0.1234567890123456789
    target = tmp_path / "out.json"
    atomic_write_json(target, {"x": value, "nested": [1, 2.5]})
    loaded = json.loads(target.read_text())
    assert loaded["x"] == value
    assert loaded["nested"] == [1, 2.5]


def test_spawn_seed_feeds_default_rng():
    a = np.random.default_rng(spawn_seed(3, 1)).random(4)
    b = np.random.default_rng(spawn_seed(3, 1)).random(4)
    assert np.array_equal(a, b)


def test_atomic_write_text_mode_follows_umask(tmp_path):
    previous = os.umask(0o022)
    try:
        atomic_write_text(tmp_path / "shared.txt", "x")
        os.umask(0o077)
        atomic_write_text(tmp_path / "private.txt", "x")
    finally:
        os.umask(previous)
    assert (tmp_path / "shared.txt").stat().st_mode & 0o777 == 0o644
    assert (tmp_path / "private.txt").stat().st_mode & 0o777 == 0o600


def run_python(env_overrides, *args):
    """Run `python *args` in a fresh interpreter on this checkout; return stdout.
    An override of None removes the variable."""
    src = str(Path(detangle.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = {k: v for k, v in {**os.environ, "PYTHONPATH": path, **env_overrides}.items()
           if v is not None}
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def run_detangle(env_overrides, *args):
    """Run `python -m detangle` in a fresh interpreter on this checkout."""
    return run_python(env_overrides, "-m", "detangle", *args)


def test_blas_thread_count_never_changes_metrics_payload(tmp_path):
    data = tmp_path / "data"
    run_detangle({}, "synth", "--kind", "ideal", "--factors", "a:4,b:3,c:5,d:6",
                 "--copies", "20", "--sigma", "0.5", "--seed", "5", "--out", str(data))
    # On two or more CPUs, one BLAS thread per process lets each probe stack
    # split across forked workers; unset, BLAS takes every CPU and it does not.
    payloads = []
    for threads in ("1", "2", None):
        out = tmp_path / f"metrics_{threads}.json"
        stdout = run_detangle({"OPENBLAS_NUM_THREADS": threads}, "metrics", "--data", str(data),
                              "--seed", "3", "--epochs", "2", "--out", str(out))
        payloads.append((out.read_bytes(), stdout))
    assert payloads[1] == payloads[0] and payloads[2] == payloads[0]


# Big enough batches (512 x 32 features, 256 hidden units) that OpenBLAS
# splits the probe's matrix products across threads when it may. The
# 3-probe stack runs the same products as batched 3-D matmuls.
PROBE_BYTES_SCRIPT = """
import hashlib
import numpy as np
from detangle.classify import TrainConfig, train_probe
rng = np.random.default_rng(8)
y = rng.integers(0, 6, size=4000)
X = rng.normal(size=(6, 32))[y] + rng.normal(size=(4000, 32))
Y = np.stack([y, (y + 1) % 6, (5 * y + 2) % 6], axis=1)
for kind in ("mlp", "linear"):
    config = TrainConfig(seed=1, epochs=2, batch_size=512)
    models = [train_probe(X, y, kind, config, n_classes=6)]
    models += train_probe(X, Y, kind, config, n_classes=[6] * 3, seeds=[1, 2, 3])
    for model in models:
        digest = hashlib.sha256()
        for key in sorted(model.weights):
            digest.update(model.weights[key].tobytes())
        digest.update(model.logits(X).tobytes())
        print(kind, digest.hexdigest())
"""


def test_blas_thread_count_never_changes_probe_weights():
    outputs = [run_python({"OPENBLAS_NUM_THREADS": threads}, "-c", PROBE_BYTES_SCRIPT)
               for threads in ("1", "2")]
    assert len(outputs[0].split()) == 2 * 2 * (1 + 3)
    # The stacked probe seeded 1 is the solo probe.
    lines = outputs[0].splitlines()
    assert lines[0] == lines[1] and lines[4] == lines[5]
    assert outputs[0] == outputs[1]
