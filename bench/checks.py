"""Output checks for every benchmark job.

Each check returns a list of failure messages; an empty list means the
output is correct. A job with any failure counts as failed, with no waiver.
The references are independent of the code under test where they can be:
the importance matrix is rebuilt from np.bincount contingency tables over
the package's own binning, and the alignment optimum comes from scipy.
"""

from __future__ import annotations

import math

import numpy as np

from detangle import (
    Alignment,
    ImportanceMatrix,
    RepresentationSet,
    discretize_neuron,
    hinton_svg,
    hinton_text,
    render_cg_table,
    render_metric_table,
)

IMPORTANCE_TOL = 1e-12
OBJECTIVE_TOL = 1e-9
# Chance-adjusted MLP accuracy every probe-training job must reach: the NK
# all-neuron probes of `metrics`, the random-split control (joint) of `cg`.
PROBE_FLOOR = 0.5


def _entropy_bits(counts: np.ndarray) -> float:
    counts = np.sort(counts[counts > 0]).astype(np.float64)
    p = counts / counts.sum()
    return float(-(p * np.log2(p)).sum())


def reference_importance(rep: RepresentationSet, n_bins: int, strategy: str) -> np.ndarray:
    """MI(factor_j; binned neuron_i) in bits from bincount contingency tables."""
    values = np.zeros((rep.n_factors, rep.n_neurons))
    for i in range(rep.n_neurons):
        bins = discretize_neuron(rep.latents[:, i], n_bins=n_bins, strategy=strategy).bins
        n_b = int(bins.max()) + 1
        h_bins = _entropy_bits(np.bincount(bins))
        for j, k in enumerate(rep.schema.cardinalities):
            labels = rep.labels[:, j]
            joint = np.bincount(bins * k + labels, minlength=n_b * k)
            values[j, i] = h_bins + _entropy_bits(np.bincount(labels)) - _entropy_bits(joint)
    return values


def factor_entropies(rep: RepresentationSet) -> np.ndarray:
    return np.array([_entropy_bits(np.bincount(rep.labels[:, j])) for j in range(rep.n_factors)])


def check_importance(block: dict, reference: np.ndarray, entropies: np.ndarray) -> list[str]:
    values = np.asarray(block["bits"], dtype=np.float64)
    if values.shape != reference.shape:
        return [f"importance: shape {values.shape}, expected {reference.shape}"]
    failures = []
    worst = float(np.max(np.abs(values - reference)))
    if not worst <= IMPORTANCE_TOL:
        failures.append(f"importance: off the bincount reference by {worst:.3g} bits")
    over = values - entropies[:, None]
    if np.any(over > IMPORTANCE_TOL):
        j = int(np.argmax(over.max(axis=1)))
        failures.append(f"importance: row {j} exceeds H(factor) by {float(over[j].max()):.3g} bits")
    return failures


def check_alignment(block: dict, values: np.ndarray) -> list[str]:
    from scipy.optimize import linear_sum_assignment

    n, m = values.shape
    assignment = [int(i) for i in block["assignment"]]
    if len(assignment) != n:
        return [f"alignment: {len(assignment)} entries for {n} factors"]
    if len(set(assignment)) != n:
        return [f"alignment: not injective, {assignment}"]
    if not all(0 <= i < m for i in assignment):
        return [f"alignment: neuron index out of range, {assignment}"]
    rows, cols = linear_sum_assignment(values, maximize=True)
    optimum = float(values[rows, cols].sum())
    achieved = float(sum(values[j, i] for j, i in enumerate(assignment)))
    failures = []
    if abs(achieved - optimum) > OBJECTIVE_TOL:
        failures.append(f"alignment: objective {achieved!r} vs optimum {optimum!r}")
    if abs(float(block["objective_bits"]) - achieved) > OBJECTIVE_TOL:
        failures.append(f"alignment: reported objective {block['objective_bits']!r} != {achieved!r}")
    return failures


def _scores(node, path: str):
    """Yield (path, value) for every numeric leaf under node."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _scores(value, f"{path}.{key}")
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield path, float(node)


def check_scores(blocks: dict) -> list[str]:
    """Every number in the given score blocks must lie in [0, 1]."""
    failures = []
    for name, block in blocks.items():
        for path, value in _scores(block, name):
            if not (math.isfinite(value) and 0.0 <= value <= 1.0):
                failures.append(f"score {path} = {value!r} outside [0, 1]")
    return failures


def check_stdout(stdout: str, expected: str, what: str = "stdout") -> list[str]:
    if stdout == expected:
        return []
    return [f"{what} differs from the render of the written payload"]


def check_cg_runs(payload: dict, n_rows: int) -> list[str]:
    failures = []
    for k, run in enumerate(payload.get("runs", [payload])):
        if run["audit"].get("clean") is not True:
            failures.append(f"cg run {k}: split audit not clean: {run['audit']}")
        if run["n_train"] + run["n_test"] != n_rows:
            failures.append(f"cg run {k}: n_train + n_test = {run['n_train'] + run['n_test']} != {n_rows}")
    return failures


def check_probe_floor(accuracies: dict[str, float]) -> list[str]:
    return [
        f"probe accuracy {name} = {value:.4f} below the floor {PROBE_FLOOR}"
        for name, value in accuracies.items()
        if not value >= PROBE_FLOOR
    ]


def _importance_and_alignment(payload: dict, reference: np.ndarray, entropies: np.ndarray) -> list[str]:
    failures = check_importance(payload["importance"], reference, entropies)
    values = np.asarray(payload["importance"]["bits"], dtype=np.float64)
    if values.shape == reference.shape:
        failures += check_alignment(payload["alignment"], values)
    return failures


def check_metrics(payload: dict, stdout: str, reference: np.ndarray, entropies: np.ndarray) -> list[str]:
    failures = _importance_and_alignment(payload, reference, entropies)
    failures += check_scores(
        {
            "snc": payload["snc"]["per_factor"],
            "nk": payload["nk"]["per_factor"],
            "mig": payload["mig"]["per_factor"],
            "sap": payload["sap"]["per_factor"],
            "dci": {k: payload["dci"][k] for k in ("disentanglement", "completeness", "informativeness")},
            "probe_accuracy": payload["probe_accuracy"],
        }
    )
    failures += check_stdout(stdout, render_metric_table(payload))
    failures += check_probe_floor(
        {f"nk.{name}.adjusted_all": d["adjusted_all"] for name, d in payload["nk"]["details"].items()}
    )
    return failures


def _diagram_inputs(payload: dict) -> tuple[ImportanceMatrix, Alignment]:
    imp = payload["importance"]
    align = payload["alignment"]
    return (
        ImportanceMatrix(
            values=np.asarray(imp["bits"], dtype=np.float64),
            factor_names=tuple(imp["factor_names"]),
            n_bins=imp["n_bins"],
            strategy=imp["strategy"],
        ),
        Alignment(
            assignment=tuple(align["assignment"]),
            mode=align["mode"],
            objective_value=float(align["objective_bits"]),
            degenerate=bool(align["degenerate"]),
        ),
    )


def check_align(payload: dict, stdout: str, svg: str, reference: np.ndarray, entropies: np.ndarray) -> list[str]:
    failures = _importance_and_alignment(payload, reference, entropies)
    imp, alignment = _diagram_inputs(payload)
    failures += check_stdout(stdout, hinton_text(imp, alignment))
    failures += check_stdout(svg, hinton_svg(imp, alignment), what="SVG file")
    return failures


def check_cg(payload: dict, stdout: str, n_rows: int) -> list[str]:
    failures = check_cg_runs(payload, n_rows)
    runs = payload.get("runs", [payload])
    blocks = {"averages": payload.get("averages", {})}
    for k, run in enumerate(runs):
        blocks[f"runs[{k}].per_factor"] = run["per_factor"]
        blocks[f"runs[{k}].joint_both"] = run["joint_both"]
        if run["control"]:
            blocks[f"runs[{k}].control.per_factor"] = run["control"]["per_factor"]
            blocks[f"runs[{k}].control.joint_both"] = run["control"]["joint_both"]
    failures += check_scores(blocks)
    failures += check_stdout(stdout, render_cg_table(payload))
    failures += check_probe_floor(
        {
            f"runs[{k}].control.joint_both.adjusted": run["control"]["joint_both"]["adjusted"]
            for k, run in enumerate(runs)
            if run["probe_kind"] == "mlp" and run["control"]
        }
    )
    return failures


def check_same_bytes(outputs: dict[str, bytes], first: dict[str, bytes]) -> list[str]:
    """Determinism: a repeated job must reproduce every output byte for byte."""
    return [f"{name} differs from the first job's" for name in sorted(first) if outputs.get(name) != first[name]]
