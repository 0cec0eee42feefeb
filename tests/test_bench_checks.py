"""The benchmark's output checks against the package they check.

bench/checks.py is read by the benchmark harness, which lies outside the
test paths; these tests load it from source and run it on tiny sets, so a
change to a keyword or output it relies on fails here first.
"""

import importlib.util
import json
import types
from pathlib import Path

import numpy as np

from detangle import (
    DEFAULT_BINS,
    QUANTILE,
    FactorSchema,
    GeneratorSpec,
    generate,
    write_representation_set,
)
from detangle.cli import cli
from detangle.infotheory import importance_matrix

ROOT = Path(__file__).resolve().parents[1]


def load_bench_checks() -> types.ModuleType:
    spec = importlib.util.spec_from_file_location("bench_checks", ROOT / "bench" / "checks.py")
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    return checks


def tiny_set():
    schema = FactorSchema(("size", "shape"), (4, 3))
    return generate(GeneratorSpec(kind="ideal", schema=schema, samples_per_cell=6,
                                  noise_sigma=0.3, seed=5))


def test_reference_importance_matches_importance_matrix():
    rep = tiny_set()
    reference = load_bench_checks().reference_importance(rep, DEFAULT_BINS, QUANTILE)
    assert np.max(np.abs(reference - importance_matrix(rep).values)) <= 1e-12


def test_check_align_accepts_a_real_align_job(tmp_path, capsys):
    checks = load_bench_checks()
    rep = tiny_set()
    write_representation_set(rep, tmp_path / "data.csv", tmp_path / "schema.json")
    out, svg = tmp_path / "payload.json", tmp_path / "hinton.svg"
    assert cli(["align", "--data", str(tmp_path), "--out", str(out), "--svg", str(svg)]) == 0
    stdout = capsys.readouterr().out
    payload = json.loads(out.read_text(encoding="utf-8"))
    reference = checks.reference_importance(rep, DEFAULT_BINS, QUANTILE)
    failures = checks.check_align(payload, stdout, svg.read_text(encoding="utf-8"),
                                  reference, checks.factor_entropies(rep))
    assert failures == []
