"""Compositional generalization probe harness.

A run holds out every row where two chosen factors take one specific value
pair, trains one probe per factor on the remaining rows, and measures how
well the held-out (never seen in training) combination is predicted. The
joint score counts rows where both excluded factors are right
simultaneously. A matched-size random split of the same data serves as the
control. All chance adjustments use label frequencies of the full set, so
the constant test labels of an exclusion split cannot degenerate them.

The control depends only on the held-out size and the seed, not on the
pair. The pairs of one run_cg_suite call that hold out the same number of
rows therefore share one control per probe kind: it is trained for the first
such pair and rescored for the others, and every number equals what
separate run_cg calls report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .classify import (
    MLP,
    PROBE_KINDS,
    TrainConfig,
    accuracy,
    adjusted_accuracy,
    chance_rate,
    train_probe,
)
from .dataset import FactorSchema, RepresentationSet, SplitSpec, split_indices
from .errors import SplitError, ValidationError
from .util import payload_kind, spawn_seed


@dataclass(frozen=True)
class ExcludedPair:
    """The held-out combination: factor_a == value_a and factor_b == value_b."""

    factor_a: str
    value_a: int
    factor_b: str
    value_b: int

    def to_json_dict(self) -> dict:
        return {
            "factor_a": self.factor_a,
            "value_a": self.value_a,
            "factor_b": self.factor_b,
            "value_b": self.value_b,
        }


@dataclass(frozen=True)
class CgRunResult:
    pair: ExcludedPair
    probe_kind: str
    per_factor: dict[str, dict]
    joint_both: dict
    control: dict | None
    n_train: int
    n_test: int
    audit: dict
    seed: int

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "pair": self.pair.to_json_dict(),
            "probe_kind": self.probe_kind,
            "per_factor": self.per_factor,
            "joint_both": self.joint_both,
            "control": self.control,
            "n_train": self.n_train,
            "n_test": self.n_test,
            "audit": self.audit,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class CgSuiteResult:
    runs: tuple[CgRunResult, ...]
    averages: dict

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "runs": [run.to_json_dict() for run in self.runs],
            "averages": self.averages,
        }


def resolve_pair(rep: RepresentationSet, pair: ExcludedPair | tuple) -> ExcludedPair:
    """Normalize a pair given as an ExcludedPair or (a, va, b, vb) tuple."""
    if isinstance(pair, ExcludedPair):
        a, va, b, vb = pair.factor_a, pair.value_a, pair.factor_b, pair.value_b
    else:
        a, va, b, vb = pair
    ia = rep.schema.index_of(a)
    ib = rep.schema.index_of(b)
    if ia == ib:
        raise SplitError("excluded pair needs two distinct factors")
    return ExcludedPair(rep.schema.names[ia], int(va), rep.schema.names[ib], int(vb))


def measure_probes(
    train_rep: RepresentationSet,
    test_latents: np.ndarray,
    probe_kind: str,
    config: TrainConfig,
    seed_salt: int = 0,
) -> list[np.ndarray]:
    """Train one probe per factor on train_rep; return each probe's
    predictions on test_latents, in schema order."""
    if probe_kind not in PROBE_KINDS:
        raise ValidationError(f"unknown probe kind {probe_kind!r}")
    schema = train_rep.schema
    return [
        train_probe(
            train_rep.latents,
            train_rep.labels[:, j],
            probe_kind,
            config.with_seed(spawn_seed(config.seed, seed_salt, j)),
            n_classes=schema.cardinalities[j],
        ).predict(test_latents)
        for j in range(schema.n_factors)
    ]


def _score(
    pair: ExcludedPair,
    schema: FactorSchema,
    preds: Sequence[np.ndarray],
    test_labels: np.ndarray,
    full_labels: np.ndarray,
) -> tuple[dict, dict]:
    """(per_factor, joint_both) chance-adjusted accuracies of per-factor
    predictions. Chance rates come from full_labels (the complete set's label
    matrix) so they describe the data population rather than the possibly
    single-valued test slice."""
    per_factor: dict[str, dict] = {}
    for j, name in enumerate(schema.names):
        raw = float(np.mean(preds[j] == test_labels[:, j]))
        r = chance_rate(full_labels[:, j])
        per_factor[name] = {"raw": raw, "adjusted": adjusted_accuracy(raw, r), "chance_rate": r}

    ia, ib = schema.index_of(pair.factor_a), schema.index_of(pair.factor_b)
    both_correct = (preds[ia] == test_labels[:, ia]) & (preds[ib] == test_labels[:, ib])
    raw_both = float(np.mean(both_correct))
    paired = full_labels[:, ia].astype(np.int64) * int(
        schema.cardinalities[ib]
    ) + full_labels[:, ib].astype(np.int64)
    r_both = chance_rate(paired)
    joint_both = {
        "raw": raw_both,
        "adjusted": adjusted_accuracy(raw_both, r_both),
        "chance_rate": r_both,
    }
    return per_factor, joint_both


def _control_split(n_rows: int, n_test: int, seed: int) -> SplitSpec:
    """The random split matched to n_test held-out rows of n_rows.

    split_indices tests on floor(n_rows * test_fraction) rows, and
    n_test / n_rows can round to just below the exact quotient, so the
    fraction is bumped by one ulp when the floor falls short.
    """
    test_fraction = n_test / n_rows
    if math.floor(n_rows * test_fraction) < n_test:
        test_fraction = math.nextafter(test_fraction, 1.0)
    return SplitSpec(kind="random", test_fraction=test_fraction, seed=spawn_seed(seed, 4242))


def _split_audit(
    pair: ExcludedPair, schema: FactorSchema, train: np.ndarray, test: np.ndarray, leaked: int | None
) -> dict:
    """Audit of an exclusion split given its train and test label matrices:
    no training row and every test row match the pair. leaked_rows counts row
    ids on both sides (None for externally split sets)."""
    ia, ib = schema.index_of(pair.factor_a), schema.index_of(pair.factor_b)
    train_match, test_match = (
        int(np.sum((labels[:, ia] == pair.value_a) & (labels[:, ib] == pair.value_b)))
        for labels in (train, test)
    )
    return {
        "leaked_rows": leaked,
        "train_rows_matching_pair": train_match,
        "test_rows_matching_pair": test_match,
        "clean": bool(not leaked and train_match == 0 and test_match == len(test)),
    }


def run_cg(
    rep: RepresentationSet,
    pair: ExcludedPair | tuple,
    probe_kind: str = MLP,
    config: TrainConfig | None = None,
    control: bool = True,
    _controls: dict | None = None,
) -> CgRunResult:
    """One exclusion run: hold out the pair's rows, probe, and audit the split.

    The audit records that train and test row ids are disjoint, that no
    training row matches the excluded combination, and that every test row
    does. With control=True a matched-size random split of the same data is
    probed identically. _controls, when given, maps (probe kind, control
    split) to that control's test predictions and test labels; a missing
    entry is trained and stored, a present one is scored without training.
    """
    config = config or TrainConfig()
    pair = resolve_pair(rep, pair)
    split = SplitSpec(
        kind="cg_exclusion",
        factor_a=pair.factor_a,
        value_a=pair.value_a,
        factor_b=pair.factor_b,
        value_b=pair.value_b,
    )
    train_idx, test_idx = split_indices(rep, split)
    leaked = int(np.intersect1d(train_idx, test_idx).size)
    audit = _split_audit(pair, rep.schema, rep.labels[train_idx], rep.labels[test_idx], leaked)

    test_rep = rep.subset(test_idx)
    preds = measure_probes(rep.subset(train_idx), test_rep.latents, probe_kind, config, seed_salt=1)
    per_factor, joint_both = _score(pair, rep.schema, preds, test_rep.labels, rep.labels)

    control_payload = None
    if control:
        control_split = _control_split(rep.n_rows, test_idx.size, config.seed)
        controls = {} if _controls is None else _controls
        key = (probe_kind, control_split)
        if key not in controls:
            ctr_train_idx, ctr_test_idx = split_indices(rep, control_split)
            ctr_test = rep.subset(ctr_test_idx)
            controls[key] = (
                measure_probes(
                    rep.subset(ctr_train_idx), ctr_test.latents, probe_kind, config, seed_salt=2
                ),
                ctr_test.labels,
            )
        ctr_per_factor, ctr_joint = _score(pair, rep.schema, *controls[key], rep.labels)
        control_payload = {
            "split": control_split.to_json_dict(),
            "per_factor": ctr_per_factor,
            "joint_both": ctr_joint,
        }

    return CgRunResult(
        pair=pair,
        probe_kind=probe_kind,
        per_factor=per_factor,
        joint_both=joint_both,
        control=control_payload,
        n_train=int(train_idx.size),
        n_test=int(test_idx.size),
        audit=audit,
        seed=config.seed,
    )


def run_cg_presplit(
    train_rep: RepresentationSet,
    test_rep: RepresentationSet,
    pair: ExcludedPair | tuple,
    probe_kind: str = MLP,
    config: TrainConfig | None = None,
) -> CgRunResult:
    """Run on an externally produced train/test pair (e.g. separately encoded
    splits). No control split is computed; the audit verifies the exclusion
    structure of the given sets."""
    config = config or TrainConfig()
    if train_rep.schema != test_rep.schema:
        raise ValidationError("train and test sets must share one schema")
    pair = resolve_pair(train_rep, pair)
    audit = _split_audit(pair, train_rep.schema, train_rep.labels, test_rep.labels, leaked=None)
    full_labels = np.vstack([train_rep.labels, test_rep.labels])
    preds = measure_probes(train_rep, test_rep.latents, probe_kind, config, seed_salt=1)
    per_factor, joint_both = _score(pair, train_rep.schema, preds, test_rep.labels, full_labels)
    return CgRunResult(
        pair=pair,
        probe_kind=probe_kind,
        per_factor=per_factor,
        joint_both=joint_both,
        control=None,
        n_train=train_rep.n_rows,
        n_test=test_rep.n_rows,
        audit=audit,
        seed=config.seed,
    )


def run_cg_suite(
    rep: RepresentationSet,
    pairs: Sequence[ExcludedPair | tuple],
    probe_kinds: Sequence[str] = (MLP,),
    config: TrainConfig | None = None,
    control: bool = True,
) -> CgSuiteResult:
    """Cross product of pairs x probe kinds, with per-kind averages.

    Fails fast, naming the pair, when any exclusion split is degenerate.
    Pairs with the same held-out size share one control per probe kind.
    """
    config = config or TrainConfig()
    if not pairs:
        raise ValidationError("run_cg_suite needs at least one excluded pair")
    runs: list[CgRunResult] = []
    controls: dict = {}
    for pair in pairs:
        for kind in probe_kinds:
            try:
                runs.append(run_cg(rep, pair, kind, config, control=control, _controls=controls))
            except SplitError as exc:
                resolved = resolve_pair(rep, pair)
                raise SplitError(
                    f"degenerate exclusion split for pair {resolved.to_json_dict()}: {exc}"
                ) from exc

    return CgSuiteResult(runs=tuple(runs), averages=suite_averages(runs, probe_kinds))


def suite_averages(runs: Sequence[CgRunResult], probe_kinds: Sequence[str]) -> dict:
    """Per-probe-kind averages over a list of runs (control rows if present)."""
    averages: dict[str, dict] = {}
    for kind in probe_kinds:
        kind_runs = [r for r in runs if r.probe_kind == kind]
        if not kind_runs:
            continue
        averages[kind] = {
            "excluded_a_adjusted": float(
                np.mean([r.per_factor[r.pair.factor_a]["adjusted"] for r in kind_runs])
            ),
            "excluded_b_adjusted": float(
                np.mean([r.per_factor[r.pair.factor_b]["adjusted"] for r in kind_runs])
            ),
            "joint_both_adjusted": float(
                np.mean([r.joint_both["adjusted"] for r in kind_runs])
            ),
            "joint_both_raw": float(np.mean([r.joint_both["raw"] for r in kind_runs])),
        }
        if all(r.control is not None for r in kind_runs):
            averages[kind]["control_joint_both_adjusted"] = float(
                np.mean([r.control["joint_both"]["adjusted"] for r in kind_runs])
            )
            averages[kind]["control_excluded_a_adjusted"] = float(
                np.mean([r.control["per_factor"][r.pair.factor_a]["adjusted"] for r in kind_runs])
            )
            averages[kind]["control_excluded_b_adjusted"] = float(
                np.mean([r.control["per_factor"][r.pair.factor_b]["adjusted"] for r in kind_runs])
            )
    return averages


def sample_pairs(
    rep: RepresentationSet,
    factor_a: int | str,
    factor_b: int | str,
    count: int,
    seed: int = 0,
) -> list[ExcludedPair]:
    """Sample distinct (value_a, value_b) combinations present in the data."""
    ia = rep.schema.index_of(factor_a)
    ib = rep.schema.index_of(factor_b)
    if ia == ib:
        raise ValidationError("sample_pairs needs two distinct factors")
    dims = (rep.schema.cardinalities[ia], rep.schema.cardinalities[ib])
    # Present combinations in lexicographic (value_a, value_b) order.
    combos = np.unique(np.ravel_multi_index((rep.labels[:, ia], rep.labels[:, ib]), dims))
    if count < 1 or count > combos.size:
        raise ValidationError(
            f"count must lie in [1, {combos.size}] (distinct present combinations)"
        )
    rng = np.random.default_rng(seed)
    chosen = rng.choice(combos.size, size=count, replace=False)
    values_a, values_b = np.unravel_index(combos[np.sort(chosen)], dims)
    return [
        ExcludedPair(rep.schema.names[ia], int(va), rep.schema.names[ib], int(vb))
        for va, vb in zip(values_a, values_b)
    ]


def render_cg_table(payload: dict) -> str:
    """Aligned text table: one row per evaluation setting, columns for each
    excluded factor and for both jointly (all chance-adjusted)."""
    if payload_kind(payload) == "cg_suite":
        header = f"{'setting':<22}{'factor_a':>10}{'factor_b':>10}{'both':>10}"
        lines = [header]
        for kind, avg in payload["averages"].items():
            lines.append(
                f"{'cg (' + kind + ')':<22}{avg['excluded_a_adjusted']:10.4f}"
                f"{avg['excluded_b_adjusted']:10.4f}{avg['joint_both_adjusted']:10.4f}"
            )
        for kind, avg in payload["averages"].items():
            if "control_joint_both_adjusted" in avg:
                lines.append(
                    f"{'random split (' + kind + ')':<22}"
                    f"{avg['control_excluded_a_adjusted']:10.4f}"
                    f"{avg['control_excluded_b_adjusted']:10.4f}"
                    f"{avg['control_joint_both_adjusted']:10.4f}"
                )
        return "\n".join(lines) + "\n"
    pair = payload["pair"]
    name_a, name_b = pair["factor_a"], pair["factor_b"]
    kind = payload["probe_kind"]
    lines = [
        f"excluded pair: {name_a}={pair['value_a']}, {name_b}={pair['value_b']}",
        f"{'setting':<22}{name_a:>10}{name_b:>10}{'both':>10}",
        f"{'cg (' + kind + ')':<22}{payload['per_factor'][name_a]['adjusted']:10.4f}"
        f"{payload['per_factor'][name_b]['adjusted']:10.4f}"
        f"{payload['joint_both']['adjusted']:10.4f}",
    ]
    if payload.get("control"):
        ctr = payload["control"]
        lines.append(
            f"{'random split (' + kind + ')':<22}"
            f"{ctr['per_factor'][name_a]['adjusted']:10.4f}"
            f"{ctr['per_factor'][name_b]['adjusted']:10.4f}"
            f"{ctr['joint_both']['adjusted']:10.4f}"
        )
    return "\n".join(lines) + "\n"
