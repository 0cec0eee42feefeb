"""Disentanglement metric suite over a labelled representation.

The two headline scores work on top of an injective factor-to-neuron
alignment. SNC (single-neuron classification) bins the aligned neuron into
as many bins as the factor has classes, matches bins to classes with the
best bijection, and chance-adjusts the agreement. NK (neuron knockout) is
the drop in held-out probe accuracy when the aligned neuron is removed from
the representation; chance-adjusted accuracies are recorded alongside the
raw ones. MIG, SAP, and DCI are included as baselines; SAP and SNC read one
single-neuron agreement matrix. Each metric returns its block of the
metrics payload as a plain dict.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Mapping, Sequence

import numpy as np

from .align import (ALIGN_MODES, INJECTIVE, Alignment, greedy_alignment, injective_alignment,
                    max_weight_assignment)
from .classify import (
    MLP,
    LINEAR,
    TrainConfig,
    accuracy,
    adjusted_accuracy,
    chance_rate,
    train_probe,
)
from .dataset import DEFAULT_BINS, QUANTILE, RepresentationSet, discretize_neuron, split_indices
from .errors import DegenerateInputError, ValidationError
from .infotheory import ImportanceMatrix, count_table, entropy, importance_matrix
from .util import require_distinct, spawn_seed

MEAN = "mean"
PRODUCT = "product"
AGGREGATE_MODES = (MEAN, PRODUCT)

# The metrics whose payload blocks carry per-factor scores.
PER_FACTOR_METRICS = ("snc", "nk", "mig", "sap")


# ---------------------------------------------------------------------------
# shared matrix: single-neuron bin-to-class agreement
# ---------------------------------------------------------------------------


def single_neuron_accuracy(rep: RepresentationSet) -> np.ndarray:
    """Best-bijection agreement of every neuron with every factor: the
    n_factors x n_neurons matrix that SNC and SAP read.

    Entry (j, i) quantile-bins neuron i into K_j bins (K_j the classes of
    factor j), relabels bins to classes with the bijection maximizing the
    contingency-table trace (Kuhn-Munkres), and is the fraction of rows
    where the relabelled bin equals the class.
    """
    cards = rep.schema.cardinalities
    acc = np.zeros((rep.n_factors, rep.n_neurons))
    for i in range(rep.n_neurons):
        for k in sorted(set(cards)):
            bins = discretize_neuron(rep.latents[:, i], n_bins=k).bins  # for every k-class factor
            for j in (j for j in range(rep.n_factors) if cards[j] == k):
                counts = count_table(bins, rep.labels[:, j], k, k).astype(np.float64)
                _, matched = max_weight_assignment(counts, lexicographic=False)
                acc[j, i] = float(matched) / float(rep.n_rows)
    return acc


def factor_entropies(rep: RepresentationSet) -> np.ndarray:
    """Empirical entropy in bits of each factor's labels."""
    return np.array([entropy(rep.labels[:, j]) for j in range(rep.n_factors)])


def _per_factor_block(per_factor: dict[str, float], **extra) -> dict:
    """A per-factor metric's payload block: its scores, their mean, then
    the metric's own keys in the order given."""
    return {"per_factor": per_factor, "mean": float(np.mean(list(per_factor.values()))), **extra}


# ---------------------------------------------------------------------------
# SNC
# ---------------------------------------------------------------------------


def snc(rep: RepresentationSet, alignment: Alignment, accuracy: np.ndarray) -> dict:
    """Single-neuron classification score per factor, and their mean.

    For factor j and aligned neuron i, the agreement a is accuracy[j, i]
    (see single_neuron_accuracy); the score is max(0, (a - r) / (1 - r))
    with r the squared-frequency chance rate of the factor's labels.
    """
    _check_alignment(rep, alignment)
    _check_accuracy(rep, accuracy)
    per_factor: dict[str, float] = {}
    details: dict[str, dict] = {}
    for j, name in enumerate(rep.schema.names):
        k = rep.schema.cardinalities[j]
        if k > rep.n_rows:
            raise ValidationError(
                f"factor {name!r}: cardinality {k} exceeds the {rep.n_rows} available rows"
            )
        neuron = alignment.assignment[j]
        agreement = float(accuracy[j, neuron])
        r = chance_rate(rep.labels[:, j])
        per_factor[name] = adjusted_accuracy(agreement, r)
        details[name] = {"neuron": int(neuron), "agreement": agreement, "chance_rate": r}
    return _per_factor_block(per_factor, details=details)


# ---------------------------------------------------------------------------
# NK
# ---------------------------------------------------------------------------


def _report_split(rep: RepresentationSet, seed: int) -> tuple[dict, tuple[np.ndarray, np.ndarray]]:
    """The held-out split that NK and the report's other probes share: its
    payload block (a random 20%, seeded from the train config) and its
    (train, test) rows."""
    split = {"kind": "random", "test_fraction": 0.2, "seed": spawn_seed(seed, 8080)}
    return split, split_indices(rep.n_rows, split["test_fraction"], split["seed"])


def _held_out_accuracies(rep: RepresentationSet, rows: tuple, kind: str, config: TrainConfig,
                         branch: int, neurons: list | None = None) -> list[float]:
    """Test-row accuracy of one `kind` probe per factor, trained as one stack
    on the train rows; factor j's probe sees the neurons neurons[j] (default
    all) and has the seed spawn_seed(seed, j, branch)."""
    train_idx, test_idx = rows
    seeds = [spawn_seed(config.seed, j, branch) for j in range(rep.n_factors)]
    probes = train_probe(rep.latents, rep.labels, kind, config, rep.schema.cardinalities, seeds,
                         columns=neurons, rows=[train_idx] * rep.n_factors)
    x_test = rep.latents[test_idx]
    return [accuracy(probe, x_test if neurons is None else rep.latents[np.ix_(test_idx, neurons[j])],
                     rep.labels[test_idx, j]) for j, probe in enumerate(probes)]


def nk(
    rep: RepresentationSet,
    alignment: Alignment,
    config: TrainConfig | None = None,
) -> dict:
    """Neuron-knockout score per factor: held-out accuracy drop after
    removing the aligned neuron, clamped at zero.

    For each factor an MLP probe is trained on all m neurons and another on
    the m-1 neurons without the aligned one; both are evaluated on the
    held-out split (a random 20%, seeded from the train config).
    Chance-adjusted versions of both accuracies are recorded in the details.
    """
    _check_alignment(rep, alignment)
    if rep.n_neurons < 2:
        raise ValidationError("knockout needs at least two neurons")
    config = config or TrainConfig()
    split, rows = _report_split(rep, config.seed)
    accuracies_all = _held_out_accuracies(rep, rows, MLP, config, branch=0)
    keeps = [np.delete(np.arange(rep.n_neurons), i) for i in alignment.assignment]
    accuracies_without = _held_out_accuracies(rep, rows, MLP, config, branch=1, neurons=keeps)

    per_factor: dict[str, float] = {}
    details: dict[str, dict] = {}
    for j, name in enumerate(rep.schema.names):
        acc_all, acc_without = accuracies_all[j], accuracies_without[j]
        r = chance_rate(rep.labels[:, j])
        per_factor[name] = max(0.0, acc_all - acc_without)
        details[name] = {
            "neuron": int(alignment.assignment[j]),
            "accuracy_all": acc_all,
            "accuracy_without": acc_without,
            "adjusted_all": adjusted_accuracy(acc_all, r),
            "adjusted_without": adjusted_accuracy(acc_without, r),
            "chance_rate": r,
        }

    return _per_factor_block(per_factor, details=details, split=split)


# ---------------------------------------------------------------------------
# MIG
# ---------------------------------------------------------------------------


def mig(imp: ImportanceMatrix, entropies: Sequence[float] | np.ndarray) -> dict:
    """Mutual information gap: (top1 - top2 of each factor's row) / H(factor),
    clipped to [0, 1]."""
    if imp.n_neurons < 2:
        raise ValidationError("MIG needs at least two neurons")
    entropies = np.asarray(entropies, dtype=np.float64)
    if entropies.shape != (imp.n_factors,):
        raise ValidationError("entropies must provide one value per factor")
    per_factor: dict[str, float] = {}
    for j, name in enumerate(imp.factor_names):
        if entropies[j] <= 0:
            raise DegenerateInputError(f"factor {name!r} has zero entropy")
        row = np.sort(imp.values[j])[::-1]
        gap = (row[0] - row[1]) / entropies[j]
        per_factor[name] = float(np.clip(gap, 0.0, 1.0))
    return _per_factor_block(per_factor)


# ---------------------------------------------------------------------------
# SAP
# ---------------------------------------------------------------------------


def sap(rep: RepresentationSet, accuracy: np.ndarray) -> dict:
    """Separated-attribute gap on single-neuron predictive accuracy.

    Score of neuron i for factor j is accuracy[j, i], the unadjusted
    best-bijection agreement (see single_neuron_accuracy); SAP_j is the gap
    between the best and second-best neuron.
    """
    if rep.n_neurons < 2:
        raise ValidationError("SAP needs at least two neurons")
    _check_accuracy(rep, accuracy)
    per_factor: dict[str, float] = {}
    details: dict[str, dict] = {}
    for j, name in enumerate(rep.schema.names):
        row = accuracy[j]
        top, second = (int(i) for i in np.argsort(-row, kind="stable")[:2])
        per_factor[name] = float(row[top] - row[second])
        details[name] = {
            "top_neuron": top,
            "top_accuracy": float(row[top]),
            "second_accuracy": float(row[second]),
        }
    return _per_factor_block(per_factor, accuracy_matrix=accuracy.tolist(), details=details)


# ---------------------------------------------------------------------------
# DCI
# ---------------------------------------------------------------------------


def dci(imp: ImportanceMatrix, informativeness: Sequence[float] | None = None) -> dict:
    """Disentanglement / completeness from the importance matrix, plus the
    mean of the supplied per-factor informativeness values.

    D_i = 1 - normalized entropy (base n_factors) of neuron i's distribution
    over factors; D is the importance-weighted mean over neurons, where a
    neuron's weight is its share of total importance (zero-importance
    neurons get weight 0 and D_i = 0). C_j = 1 - normalized entropy (base
    n_neurons) of factor j's distribution over neurons; C is the unweighted
    mean over factors. An all-zero matrix yields D = C = 0 flagged
    degenerate.
    """
    values = imp.values
    n, m = values.shape
    if informativeness is not None:
        informativeness = np.asarray(informativeness, dtype=np.float64)
        if informativeness.shape != (n,):
            raise ValidationError("informativeness must provide one value per factor")
    total = float(values.sum())
    if np.any(values < 0):
        raise ValidationError("importance values must be non-negative")
    info = float(np.mean(informativeness)) if informativeness is not None else None

    col_sums = values.sum(axis=0)
    per_neuron_d = [_concentration(values[:, i], col_sums[i], base=n) for i in range(m)]
    weights = np.zeros(m) if total <= 0.0 else col_sums / total
    disentanglement = float(np.dot(weights, per_neuron_d))
    per_factor_c = {
        name: _concentration(values[j], float(values[j].sum()), base=m)
        for j, name in enumerate(imp.factor_names)
    }
    completeness = float(np.mean(list(per_factor_c.values())))
    return {
        "disentanglement": disentanglement,
        "completeness": completeness,
        "informativeness": info,
        "avg_dc": (disentanglement + completeness) / 2.0,
        "per_neuron_d": [float(d) for d in per_neuron_d],
        "per_factor_c": per_factor_c,
        "neuron_weights": weights.tolist(),
        "degenerate": total <= 0.0,
    }


def _concentration(weights: np.ndarray, total: float, base: int) -> float:
    """1 - entropy of weights / total in log base `base`; 0.0 for a zero total, 1.0 for base < 2."""
    if total <= 0.0:
        return 0.0
    if base < 2:
        return 1.0
    p = weights / total
    p = p[p > 0]
    return 1.0 - float(-(p * np.log2(p)).sum()) / np.log2(base)


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


def aggregate(
    per_factor: Mapping[str, float],
    mode: str = MEAN,
    subset: Sequence[str] | None = None,
) -> float:
    """Combine per-factor scores into one number.

    mode "mean" averages, "product" multiplies. subset restricts to the
    named factors (default: all, in their given order).
    """
    if mode not in AGGREGATE_MODES:
        raise ValidationError(f"unknown aggregate mode {mode!r}, expected one of {AGGREGATE_MODES}")
    names = list(per_factor.keys()) if subset is None else list(subset)
    if not names:
        raise ValidationError("aggregate needs a non-empty factor subset")
    require_distinct(names, "factor in subset")
    missing = [s for s in names if s not in per_factor]
    if missing:
        raise ValidationError(f"unknown factors in subset: {missing}")
    scores = np.array([per_factor[s] for s in names], dtype=np.float64)
    if mode == MEAN:
        return float(scores.mean())
    return float(np.prod(scores))


# ---------------------------------------------------------------------------
# full report
# ---------------------------------------------------------------------------


def compute_metric_report(
    rep: RepresentationSet,
    align_mode: str = INJECTIVE,
    n_bins: int = DEFAULT_BINS,
    config: TrainConfig | None = None,
    subset: Sequence[str] | None = None,
    aggregate_mode: str = PRODUCT,
) -> dict:
    """Run the full pipeline: importance -> alignment -> all five metrics.
    Returns the metrics payload that `detangle metrics --out` writes.

    The probe-based quantities (NK, the linear/MLP accuracy rows, DCI
    informativeness) share one random 80/20 held-out split derived from the
    train config seed; SNC and SAP share one single_neuron_accuracy matrix.
    """
    config = config or TrainConfig()
    # Reject a bad align mode, subset or aggregate mode before any work starts.
    if align_mode not in ALIGN_MODES:
        raise ValidationError(f"unknown align mode {align_mode!r}, expected one of {ALIGN_MODES}")
    aggregate(dict.fromkeys(rep.schema.names, 0.0), aggregate_mode, subset)
    imp = importance_matrix(rep, n_bins=n_bins)
    alignment = injective_alignment(imp) if align_mode == INJECTIVE else greedy_alignment(imp)

    split, rows = _report_split(rep, config.seed)
    single_neuron = single_neuron_accuracy(rep)
    payload = {
        "schema_version": 1,
        "factor_names": list(rep.schema.names),
        "n_rows": rep.n_rows,
        "n_neurons": rep.n_neurons,
        "config": {
            "align_mode": align_mode,
            "n_bins": imp.n_bins,
            "strategy": QUANTILE,
            "probe": asdict(config),
            "split": split,
        },
        "importance": imp.to_json_dict(),
        "alignment": alignment.to_json_dict(),
        "snc": snc(rep, alignment, single_neuron),
        "nk": nk(rep, alignment, config=config),
        "mig": mig(imp, factor_entropies(rep)),
        "sap": sap(rep, single_neuron),
    }

    linear = _held_out_accuracies(rep, rows, LINEAR, config, branch=2)
    linear_rows = {
        name: {"raw": acc, "adjusted": adjusted_accuracy(acc, chance_rate(rep.labels[:, j]))}
        for j, (name, acc) in enumerate(zip(rep.schema.names, linear))
    }

    nk_details = payload["nk"]["details"]
    payload["dci"] = dci(imp, [nk_details[name]["adjusted_all"] for name in rep.schema.names])
    payload["probe_accuracy"] = {
        "linear": linear_rows,
        "mlp": {
            name: {"raw": detail["accuracy_all"], "adjusted": detail["adjusted_all"]}
            for name, detail in nk_details.items()
        },
    }
    payload["aggregates"] = None
    if subset is not None:
        payload["aggregates"] = {
            "mode": aggregate_mode,
            "subset": list(subset),
            "values": {
                metric: aggregate(payload[metric]["per_factor"], aggregate_mode, subset)
                for metric in PER_FACTOR_METRICS
            },
        }
    return payload


def render_metric_table(payload: dict) -> str:
    """Text table of per-factor scores: SNC, linear, MLP, NK rows.

    The linear/MLP rows show raw held-out accuracy; the JSON payload also
    carries chance-adjusted values.
    """
    names = payload["factor_names"]
    accuracy_rows = payload["probe_accuracy"]
    rows = {
        "SNC": [payload["snc"]["per_factor"][n] for n in names],
        "linear": [accuracy_rows["linear"][n]["raw"] for n in names],
        "MLP": [accuracy_rows["mlp"][n]["raw"] for n in names],
        "NK": [payload["nk"]["per_factor"][n] for n in names],
    }
    width = max(8, *(len(n) for n in names)) + 2
    lines = [f"{'metric':<8}" + "".join(f"{n:>{width}}" for n in [*names, "mean"])]
    lines += [
        f"{label:<8}" + "".join(f"{v:>{width}.4f}" for v in [*values, np.mean(values)])
        for label, values in rows.items()
    ]
    return "\n".join(lines) + "\n"


def _check_accuracy(rep: RepresentationSet, accuracy: np.ndarray) -> None:
    if np.shape(accuracy) != (rep.n_factors, rep.n_neurons):
        raise ValidationError(f"accuracy matrix of shape {np.shape(accuracy)}, data has "
                              f"{rep.n_factors} factors x {rep.n_neurons} neurons")


def _check_alignment(rep: RepresentationSet, alignment: Alignment) -> None:
    if len(alignment.assignment) != rep.n_factors:
        raise ValidationError(
            f"alignment covers {len(alignment.assignment)} factors, data has {rep.n_factors}"
        )
    for j, i in enumerate(alignment.assignment):
        if not 0 <= i < rep.n_neurons:
            raise ValidationError(f"alignment maps factor {j} to missing neuron {i}")
