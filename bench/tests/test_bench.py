"""Tests of the benchmark itself: seeded inputs, output checks, a short pass.

Run from the repository root: python3 -m pytest -q bench/tests
"""

import contextlib
import copy
import io
import json
from dataclasses import replace

import numpy as np
import pytest

import checks
import run
from detangle import DEFAULT_BINS, QUANTILE, render_cg_table, render_metric_table
from detangle.cli import cli
from workloads import WORKLOADS

# Reduced shapes and probe budgets of the three workloads, so one job takes
# well under a second. The probe budgets still clear checks.PROBE_FLOOR.
SMALL = {
    "metrics_mid": replace(
        WORKLOADS["metrics_mid"], rows=1500, n_factors=3, n_neurons=8, noise=0.25, epochs=20, learning_rate=0.005
    ),
    "align_wide": replace(WORKLOADS["align_wide"], rows=300, n_factors=6, n_neurons=24, density=0.3),
    "cg_grid": replace(
        WORKLOADS["cg_grid"], n_factors=3, cardinality=3, copies=8, n_neurons=6, epochs=40, learning_rate=0.01
    ),
}
SEED = 3


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_are_a_function_of_the_seed(name, tmp_path):
    workload = WORKLOADS[name]

    def files(directory, seed):
        workload.write_inputs(directory, seed)
        return [(directory / f).read_bytes() for f in ("data.csv", "schema.json")]

    first = files(tmp_path / "a", SEED)
    assert files(tmp_path / "b", SEED) == first
    assert files(tmp_path / "c", SEED + 1)[0] != first[0]
    assert workload.argv(tmp_path, tmp_path, SEED) == workload.argv(tmp_path, tmp_path, SEED)


@pytest.fixture(scope="module")
def jobs(tmp_path_factory):
    """One in-process job per small workload: (rep, payload, stdout, svg)."""
    out = {}
    for name, workload in SMALL.items():
        base = tmp_path_factory.mktemp(name)
        rep = workload.write_inputs(base / "in", SEED)
        (base / "out").mkdir()
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert cli(workload.argv(base / "in", base / "out", SEED)) == 0
        svg = base / "out" / "hinton.svg"
        out[name] = (
            rep,
            json.loads((base / "out" / "payload.json").read_text()),
            stdout.getvalue(),
            svg.read_text() if svg.exists() else None,
        )
    return out


def _reference(rep):
    return checks.reference_importance(rep, DEFAULT_BINS, QUANTILE), checks.factor_entropies(rep)


def _check(name, rep, payload, stdout, svg):
    if name == "metrics_mid":
        return checks.check_metrics(payload, stdout, *_reference(rep))
    if name == "align_wide":
        return checks.check_align(payload, stdout, svg, *_reference(rep))
    return checks.check_cg(payload, stdout, rep.n_rows)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_checks_accept_real_outputs(name, jobs):
    assert _check(name, *jobs[name]) == []


def _duplicate_neuron(p):
    p["alignment"]["assignment"][1] = p["alignment"]["assignment"][0]


def _suboptimal_alignment(p):
    bits = np.asarray(p["importance"]["bits"])
    used = set(p["alignment"]["assignment"])
    worst = min((i for i in range(bits.shape[1]) if i not in used), key=lambda i: bits[0, i])
    p["alignment"]["assignment"][0] = worst


def _nudge_importance(p):
    p["importance"]["bits"][0][0] += 1e-9


def _set(path, value):
    def corrupt(p):
        node = p
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value

    return corrupt


CORRUPTIONS = {
    "duplicated neuron": ("align_wide", _duplicate_neuron),
    "suboptimal alignment": ("metrics_mid", _suboptimal_alignment),
    "importance nudged 1e-9": ("align_wide", _nudge_importance),
    "importance nudged in metrics": ("metrics_mid", _nudge_importance),
    "snc above 1": ("metrics_mid", _set(["snc", "per_factor", "f0"], 1.5)),
    "nk below 0": ("metrics_mid", _set(["nk", "per_factor", "f1"], -0.25)),
    "weak nk probe": ("metrics_mid", _set(["nk", "details", "f2", "adjusted_all"], 0.1)),
    "audit not clean": ("cg_grid", _set(["runs", 0, "audit", "clean"], False)),
    "rows lost": ("cg_grid", _set(["runs", 1, "n_test"], 0)),
    "cg score above 1": ("cg_grid", _set(["runs", 0, "per_factor", "f0", "adjusted"], 1.01)),
    "weak control probe": ("cg_grid", _set(["runs", 1, "control", "joint_both", "adjusted"], 0.1)),
}


@pytest.mark.parametrize("case", sorted(CORRUPTIONS))
def test_checks_reject_corrupted_payload(case, jobs):
    name, corrupt = CORRUPTIONS[case]
    rep, payload, stdout, svg = jobs[name]
    payload = copy.deepcopy(payload)
    corrupt(payload)
    # The stdout check alone would catch most edits; re-render so each case
    # shows that its own check fires.
    if name == "metrics_mid":
        stdout = render_metric_table(payload)
    elif name == "cg_grid":
        stdout = render_cg_table(payload)
    assert _check(name, rep, payload, stdout, svg) != []


@pytest.mark.parametrize("name", sorted(SMALL))
def test_checks_reject_stdout_that_differs_from_payload(name, jobs):
    rep, payload, stdout, svg = jobs[name]
    assert _check(name, rep, payload, stdout.replace("0", "1", 1), svg) != []


def test_checks_reject_svg_that_differs_from_payload(jobs):
    rep, payload, stdout, svg = jobs["align_wide"]
    assert _check("align_wide", rep, payload, stdout, svg.replace("#222222", "#222223", 1)) != []


def test_determinism_check_rejects_changed_bytes():
    first = {"payload.json": b'{"a": 1}\n', "stdout": b"x\n"}
    assert checks.check_same_bytes(dict(first), first) == []
    assert checks.check_same_bytes({**first, "payload.json": b'{"a": 2}\n'}, first) != []
    assert checks.check_same_bytes({"stdout": b"x\n"}, first) != []


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(SMALL))
def test_short_pass_completes(name, trace, tmp_path):
    result = run.measure(SMALL[name], SEED, seconds=0, trace=trace, work_dir=tmp_path / "work")
    assert result["failures"] == []
    assert result["attempted"] == run.MIN_JOBS
    assert set(result["values"]) == set(run.metric_units(trace))
    if trace:
        spans = json.loads((tmp_path / "work" / "trace.json").read_text())["jobs"][0]["spans"]
        assert spans[0]["name"] == "cli.job" and spans[0]["parent"] is None
        assert all(s["parent"] is not None for s in spans[1:])
    else:
        assert all(v > 0 for v in result["values"].values())
