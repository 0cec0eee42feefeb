"""Disentanglement metric suite over a labelled representation.

The two headline scores work on top of an injective factor-to-neuron
alignment. SNC (single-neuron classification) bins the aligned neuron into
as many bins as the factor has classes, matches bins to classes with the
best bijection, and chance-adjusts the agreement. NK (neuron knockout) is
the drop in held-out probe accuracy when the aligned neuron is removed from
the representation; chance-adjusted accuracies are recorded alongside the
raw ones. MIG, SAP, and DCI are included as baselines.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Mapping, Sequence

import numpy as np

from .align import Alignment, greedy_alignment, injective_alignment, max_weight_assignment
from .classify import (
    MLP,
    LINEAR,
    ProbeModel,
    TrainConfig,
    accuracy,
    adjusted_accuracy,
    chance_rate,
    train_probe,
)
from .dataset import (
    DEFAULT_BINS,
    QUANTILE,
    RepresentationSet,
    SplitSpec,
    discretize_neuron,
    split_indices,
)
from .errors import DegenerateInputError, ValidationError
from .infotheory import ContingencyTable, ImportanceMatrix, bin_matrix, entropy, importance_matrix
from .util import parallel_map, spawn_seed

MEAN = "mean"
PRODUCT = "product"
AGGREGATE_MODES = (MEAN, PRODUCT)


# ---------------------------------------------------------------------------
# shared helper: single-neuron bin-to-class agreement
# ---------------------------------------------------------------------------


def bin_match_accuracy(values: np.ndarray, labels: np.ndarray, n_classes: int) -> float:
    """Best-bijection agreement between a neuron's bins and a factor's classes.

    The neuron is quantile-binned into n_classes bins; the bijection
    maximizing the contingency-table trace (Kuhn-Munkres) relabels bins to
    classes; the result is the fraction of rows where the relabelled bin
    equals the class.
    """
    disc = discretize_neuron(np.asarray(values, dtype=np.float64), n_bins=n_classes)
    return _matched_fraction(disc.bins, np.asarray(labels, dtype=np.int64), n_classes)


def _matched_fraction(bins: np.ndarray, labels: np.ndarray, n_classes: int) -> float:
    """Share of rows on the trace of the best bin->class bijection."""
    table = ContingencyTable.from_vectors(bins, labels, n_rows=n_classes, n_cols=n_classes)
    _, matched = max_weight_assignment(table.counts.astype(np.float64), lexicographic=False)
    return float(matched) / float(table.total)


def factor_entropies(rep: RepresentationSet) -> np.ndarray:
    """Empirical entropy in bits of each factor's labels."""
    return np.array([entropy(rep.labels[:, j]) for j in range(rep.n_factors)])


# ---------------------------------------------------------------------------
# SNC
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SncResult:
    per_factor: dict[str, float]
    mean: float
    details: dict[str, dict]

    def to_json_dict(self) -> dict:
        return {
            "per_factor": dict(self.per_factor),
            "mean": self.mean,
            "details": self.details,
        }


def snc(rep: RepresentationSet, alignment: Alignment) -> SncResult:
    """Single-neuron classification score per factor, and their mean.

    For factor j with K_j classes and aligned neuron i: bin neuron i into
    K_j quantile bins, take the agreement a of the best bin->class
    bijection, and report max(0, (a - r) / (1 - r)) with r the squared-
    frequency chance rate of the factor's labels.
    """
    _check_alignment(rep, alignment)
    per_factor: dict[str, float] = {}
    details: dict[str, dict] = {}
    for j, name in enumerate(rep.schema.names):
        k = rep.schema.cardinalities[j]
        if k > rep.n_rows:
            raise ValidationError(
                f"factor {name!r}: cardinality {k} exceeds the {rep.n_rows} available rows"
            )
        neuron = alignment.assignment[j]
        agreement = bin_match_accuracy(rep.latents[:, neuron], rep.labels[:, j], k)
        r = chance_rate(rep.labels[:, j])
        score = adjusted_accuracy(agreement, r)
        per_factor[name] = score
        details[name] = {"neuron": int(neuron), "agreement": agreement, "chance_rate": r}
    return SncResult(
        per_factor=per_factor,
        mean=float(np.mean(list(per_factor.values()))),
        details=details,
    )


# ---------------------------------------------------------------------------
# NK
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NkResult:
    per_factor: dict[str, float]
    mean: float
    details: dict[str, dict]
    split: dict

    def to_json_dict(self) -> dict:
        return {
            "per_factor": dict(self.per_factor),
            "mean": self.mean,
            "details": self.details,
            "split": self.split,
        }


def nk(
    rep: RepresentationSet,
    alignment: Alignment,
    config: TrainConfig | None = None,
    split: SplitSpec | None = None,
) -> NkResult:
    """Neuron-knockout score per factor: held-out accuracy drop after
    removing the aligned neuron, clamped at zero.

    For each factor an MLP probe is trained on all m neurons and another on
    the m-1 neurons without the aligned one; both are evaluated on the
    held-out split (default: random 20%, seeded from the train config).
    Chance-adjusted versions of both accuracies are recorded in the details.
    """
    _check_alignment(rep, alignment)
    if rep.n_neurons < 2:
        raise ValidationError("knockout needs at least two neurons")
    config = config or TrainConfig()
    split = split or SplitSpec(kind="random", test_fraction=0.2, seed=spawn_seed(config.seed, 8080))
    train_idx, test_idx = split_indices(rep, split)
    x_train, x_test = rep.latents[train_idx], rep.latents[test_idx]

    def run_factor(j: int) -> tuple[str, float, dict]:
        name = rep.schema.names[j]
        k = rep.schema.cardinalities[j]
        y_train, y_test = rep.labels[train_idx, j], rep.labels[test_idx, j]
        neuron = alignment.assignment[j]
        keep = np.delete(np.arange(rep.n_neurons), neuron)
        probe_all = train_probe(
            x_train, y_train, MLP, config.with_seed(spawn_seed(config.seed, j, 0)), n_classes=k
        )
        probe_without = train_probe(
            x_train[:, keep],
            y_train,
            MLP,
            config.with_seed(spawn_seed(config.seed, j, 1)),
            n_classes=k,
        )
        acc_all = accuracy(probe_all, x_test, y_test)
        acc_without = accuracy(probe_without, x_test[:, keep], y_test)
        r = chance_rate(rep.labels[:, j])
        score = max(0.0, acc_all - acc_without)
        detail = {
            "neuron": int(neuron),
            "accuracy_all": acc_all,
            "accuracy_without": acc_without,
            "adjusted_all": adjusted_accuracy(acc_all, r),
            "adjusted_without": adjusted_accuracy(acc_without, r),
            "chance_rate": r,
        }
        return name, score, detail

    rows = parallel_map(run_factor, list(range(rep.n_factors)))
    per_factor = {name: score for name, score, _ in rows}
    details = {name: detail for name, _, detail in rows}
    return NkResult(
        per_factor=per_factor,
        mean=float(np.mean(list(per_factor.values()))),
        details=details,
        split={"kind": split.kind, "test_fraction": split.test_fraction, "seed": split.seed},
    )


# ---------------------------------------------------------------------------
# MIG
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MigResult:
    per_factor: dict[str, float]
    mean: float

    def to_json_dict(self) -> dict:
        return {"per_factor": dict(self.per_factor), "mean": self.mean}


def mig(imp: ImportanceMatrix, entropies: Sequence[float] | np.ndarray) -> MigResult:
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
    return MigResult(
        per_factor=per_factor, mean=float(np.mean(list(per_factor.values())))
    )


# ---------------------------------------------------------------------------
# SAP
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SapResult:
    per_factor: dict[str, float]
    mean: float
    accuracy_matrix: np.ndarray
    details: dict[str, dict]

    def to_json_dict(self) -> dict:
        return {
            "per_factor": dict(self.per_factor),
            "mean": self.mean,
            "accuracy_matrix": [[float(v) for v in row] for row in self.accuracy_matrix],
            "details": self.details,
        }


def sap(rep: RepresentationSet) -> SapResult:
    """Separated-attribute gap on single-neuron predictive accuracy.

    Score of neuron i for factor j is the best-bijection agreement of the
    K_j-binned neuron with the factor's classes (unadjusted); SAP_j is the
    gap between the best and second-best neuron.
    """
    if rep.n_neurons < 2:
        raise ValidationError("SAP needs at least two neurons")
    cards = rep.schema.cardinalities
    acc = np.zeros((rep.n_factors, rep.n_neurons))
    for k in sorted(set(cards)):
        bins = bin_matrix(rep.latents, n_bins=k)  # shared by every k-class factor
        for j in (j for j in range(rep.n_factors) if cards[j] == k):
            acc[j] = [
                _matched_fraction(bins[:, i], rep.labels[:, j], k) for i in range(rep.n_neurons)
            ]
        del bins  # keep one N x m bin matrix alive at a time
    per_factor: dict[str, float] = {}
    details: dict[str, dict] = {}
    for j, name in enumerate(rep.schema.names):
        order = np.argsort(-acc[j], kind="stable")
        top, second = int(order[0]), int(order[1])
        per_factor[name] = float(acc[j, top] - acc[j, second])
        details[name] = {
            "top_neuron": top,
            "top_accuracy": float(acc[j, top]),
            "second_accuracy": float(acc[j, second]),
        }
    acc.setflags(write=False)
    return SapResult(
        per_factor=per_factor,
        mean=float(np.mean(list(per_factor.values()))),
        accuracy_matrix=acc,
        details=details,
    )


# ---------------------------------------------------------------------------
# DCI
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DciResult:
    disentanglement: float
    completeness: float
    informativeness: float | None
    avg_dc: float
    per_neuron_d: tuple[float, ...]
    per_factor_c: dict[str, float]
    neuron_weights: tuple[float, ...]
    degenerate: bool

    def to_json_dict(self) -> dict:
        return {
            "disentanglement": self.disentanglement,
            "completeness": self.completeness,
            "informativeness": self.informativeness,
            "avg_dc": self.avg_dc,
            "per_neuron_d": list(self.per_neuron_d),
            "per_factor_c": dict(self.per_factor_c),
            "neuron_weights": list(self.neuron_weights),
            "degenerate": self.degenerate,
        }


def dci(
    imp: ImportanceMatrix, informativeness: Sequence[float] | None = None
) -> DciResult:
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

    if total <= 0.0:
        info = float(np.mean(informativeness)) if informativeness is not None else None
        return DciResult(
            disentanglement=0.0,
            completeness=0.0,
            informativeness=info,
            avg_dc=0.0,
            per_neuron_d=tuple(0.0 for _ in range(m)),
            per_factor_c={name: 0.0 for name in imp.factor_names},
            neuron_weights=tuple(0.0 for _ in range(m)),
            degenerate=True,
        )

    col_sums = values.sum(axis=0)
    per_neuron_d = []
    for i in range(m):
        if col_sums[i] <= 0.0:
            per_neuron_d.append(0.0)
            continue
        p = values[:, i] / col_sums[i]
        per_neuron_d.append(1.0 - _normalized_entropy(p, base=n))
    weights = col_sums / total
    disentanglement = float(np.dot(weights, per_neuron_d))

    per_factor_c: dict[str, float] = {}
    for j, name in enumerate(imp.factor_names):
        row_sum = float(values[j].sum())
        if row_sum <= 0.0:
            per_factor_c[name] = 0.0
            continue
        q = values[j] / row_sum
        per_factor_c[name] = 1.0 - _normalized_entropy(q, base=m)
    completeness = float(np.mean(list(per_factor_c.values())))

    info = float(np.mean(informativeness)) if informativeness is not None else None
    return DciResult(
        disentanglement=disentanglement,
        completeness=completeness,
        informativeness=info,
        avg_dc=(disentanglement + completeness) / 2.0,
        per_neuron_d=tuple(float(d) for d in per_neuron_d),
        per_factor_c=per_factor_c,
        neuron_weights=tuple(float(w) for w in weights),
        degenerate=False,
    )


def _normalized_entropy(p: np.ndarray, base: int) -> float:
    """Entropy of p normalized to [0, 1] by log2(base); 0 when base < 2."""
    if base < 2:
        return 0.0
    p = p[p > 0]
    bits = float(-(p * np.log2(p)).sum())
    return bits / np.log2(base)


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


@dataclass(frozen=True)
class MetricReport:
    factor_names: tuple[str, ...]
    n_rows: int
    n_neurons: int
    config: dict
    importance: ImportanceMatrix
    alignment: Alignment
    snc: SncResult
    nk: NkResult
    mig: MigResult
    sap: SapResult
    dci: DciResult
    probe_accuracy: dict
    aggregates: dict | None

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "factor_names": list(self.factor_names),
            "n_rows": self.n_rows,
            "n_neurons": self.n_neurons,
            "config": self.config,
            "importance": self.importance.to_json_dict(),
            "alignment": self.alignment.to_json_dict(),
            "snc": self.snc.to_json_dict(),
            "nk": self.nk.to_json_dict(),
            "mig": self.mig.to_json_dict(),
            "sap": self.sap.to_json_dict(),
            "dci": self.dci.to_json_dict(),
            "probe_accuracy": self.probe_accuracy,
            "aggregates": self.aggregates,
        }


def compute_metric_report(
    rep: RepresentationSet,
    align_mode: str = "injective",
    n_bins: int = DEFAULT_BINS,
    strategy: str = QUANTILE,
    config: TrainConfig | None = None,
    subset: Sequence[str] | None = None,
    aggregate_mode: str = PRODUCT,
) -> MetricReport:
    """Run the full pipeline: importance -> alignment -> all five metrics.

    The probe-based quantities (NK, the linear/MLP accuracy rows, DCI
    informativeness) share one random 80/20 held-out split derived from the
    train config seed.
    """
    config = config or TrainConfig()
    imp = importance_matrix(rep, n_bins=n_bins, strategy=strategy)
    if align_mode == "injective":
        alignment = injective_alignment(imp)
    elif align_mode == "greedy":
        alignment = greedy_alignment(imp)
    else:
        raise ValidationError(f"unknown align mode {align_mode!r}")

    snc_res = snc(rep, alignment)
    split = SplitSpec(kind="random", test_fraction=0.2, seed=spawn_seed(config.seed, 8080))
    nk_res = nk(rep, alignment, config=config, split=split)
    mig_res = mig(imp, factor_entropies(rep))
    sap_res = sap(rep)

    train_idx, test_idx = split_indices(rep, split)
    x_train, x_test = rep.latents[train_idx], rep.latents[test_idx]

    def run_linear(j: int) -> tuple[str, dict]:
        name = rep.schema.names[j]
        k = rep.schema.cardinalities[j]
        probe = train_probe(
            x_train,
            rep.labels[train_idx, j],
            LINEAR,
            config.with_seed(spawn_seed(config.seed, j, 2)),
            n_classes=k,
        )
        acc = accuracy(probe, x_test, rep.labels[test_idx, j])
        r = chance_rate(rep.labels[:, j])
        return name, {"raw": acc, "adjusted": adjusted_accuracy(acc, r)}

    linear_rows = dict(parallel_map(run_linear, list(range(rep.n_factors))))
    mlp_rows = {
        name: {
            "raw": detail["accuracy_all"],
            "adjusted": detail["adjusted_all"],
        }
        for name, detail in nk_res.details.items()
    }
    informativeness = [nk_res.details[name]["adjusted_all"] for name in rep.schema.names]
    dci_res = dci(imp, informativeness)

    aggregates = None
    if subset is not None:
        aggregates = {
            "mode": aggregate_mode,
            "subset": list(subset),
            "values": {
                "snc": aggregate(snc_res.per_factor, aggregate_mode, subset),
                "nk": aggregate(nk_res.per_factor, aggregate_mode, subset),
                "mig": aggregate(mig_res.per_factor, aggregate_mode, subset),
                "sap": aggregate(sap_res.per_factor, aggregate_mode, subset),
            },
        }

    return MetricReport(
        factor_names=rep.schema.names,
        n_rows=rep.n_rows,
        n_neurons=rep.n_neurons,
        config={
            "align_mode": align_mode,
            "n_bins": n_bins,
            "strategy": strategy,
            "probe": asdict(config),
            "split": {"kind": split.kind, "test_fraction": split.test_fraction, "seed": split.seed},
        },
        importance=imp,
        alignment=alignment,
        snc=snc_res,
        nk=nk_res,
        mig=mig_res,
        sap=sap_res,
        dci=dci_res,
        probe_accuracy={"linear": linear_rows, "mlp": mlp_rows},
        aggregates=aggregates,
    )


def render_metric_table(payload: dict) -> str:
    """Text table of per-factor scores: SNC, linear, MLP, NK rows.

    The linear/MLP rows show raw held-out accuracy; the JSON payload also
    carries chance-adjusted values.
    """
    names = payload["factor_names"]
    rows = [
        ("SNC", [payload["snc"]["per_factor"][n] for n in names], payload["snc"]["mean"]),
        (
            "linear",
            [payload["probe_accuracy"]["linear"][n]["raw"] for n in names],
            float(np.mean([payload["probe_accuracy"]["linear"][n]["raw"] for n in names])),
        ),
        (
            "MLP",
            [payload["probe_accuracy"]["mlp"][n]["raw"] for n in names],
            float(np.mean([payload["probe_accuracy"]["mlp"][n]["raw"] for n in names])),
        ),
        ("NK", [payload["nk"]["per_factor"][n] for n in names], payload["nk"]["mean"]),
    ]
    width = max(8, *(len(n) for n in names)) + 2
    header = f"{'metric':<8}" + "".join(f"{n:>{width}}" for n in names) + f"{'mean':>{width}}"
    lines = [header]
    for label, values, mean_v in rows:
        lines.append(
            f"{label:<8}"
            + "".join(f"{v:>{width}.4f}" for v in values)
            + f"{mean_v:>{width}.4f}"
        )
    return "\n".join(lines) + "\n"


def _check_alignment(rep: RepresentationSet, alignment: Alignment) -> None:
    if len(alignment.assignment) != rep.n_factors:
        raise ValidationError(
            f"alignment covers {len(alignment.assignment)} factors, data has {rep.n_factors}"
        )
    for j, i in enumerate(alignment.assignment):
        if not 0 <= i < rep.n_neurons:
            raise ValidationError(f"alignment maps factor {j} to missing neuron {i}")
