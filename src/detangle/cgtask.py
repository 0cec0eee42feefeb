"""Compositional generalization probe harness.

A run holds out every row where two chosen factors take one specific value
pair, trains one probe per factor on the remaining rows, and measures how
well the held-out (never seen in training) combination is predicted. The
joint score counts rows where both excluded factors are right
simultaneously. A matched-size random split of the same data serves as the
control. All chance adjustments use label frequencies of the full set, so
the constant test labels of an exclusion split cannot degenerate them.

A pair is given as an (a, va, b, vb) tuple, each factor by name or index;
resolve_pair checks it and returns its payload block {"factor_a", "value_a",
"factor_b", "value_b"} with the factors by name.

The control depends only on the held-out size and the seed, not on the
pair. The pairs of one run_cg_suite call that hold out the same number of
rows therefore share one control per probe kind: it is trained for the first
such pair and rescored for the others, and every number equals what
separate run_cg calls report.
"""

from __future__ import annotations

import math
import numbers
from typing import Sequence

import numpy as np

from .classify import (
    MLP,
    PROBE_KINDS,
    TrainConfig,
    adjusted_accuracy,
    chance_rate,
    train_probe,
)
from .dataset import FactorSchema, RepresentationSet, split_indices
from .errors import SplitError, ValidationError
from .util import payload_kind, require_int, require_seed, spawn_seed


def resolve_pair(rep: RepresentationSet, pair: tuple) -> dict:
    """The payload block of an (a, va, b, vb) pair, its factors by name,
    checked against rep's schema: two distinct known factors, each value an
    integer below its factor's cardinality. The only check of a pair."""
    schema = rep.schema
    a, va, b, vb = pair
    ia, ib = schema.index_of(a), schema.index_of(b)
    if ia == ib:
        raise SplitError("excluded pair needs two distinct factors")
    terms = (("value_a", va, ia), ("value_b", vb, ib))
    for tag, value, _ in terms:
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise SplitError(f"{tag}={value!r} is not an integer")
    for tag, value, i in terms:
        k = schema.cardinalities[i]
        if not 0 <= value < k:
            raise SplitError(
                f"{tag}={int(value)} out of range for factor {schema.names[i]!r} (cardinality {k})"
            )
    return {"factor_a": schema.names[ia], "value_a": int(va),
            "factor_b": schema.names[ib], "value_b": int(vb)}


def _matches(pair: dict, schema: FactorSchema, labels: np.ndarray) -> np.ndarray:
    """Mask of the rows of a label matrix that match pair."""
    ia, ib = schema.index_of(pair["factor_a"]), schema.index_of(pair["factor_b"])
    return (labels[:, ia] == pair["value_a"]) & (labels[:, ib] == pair["value_b"])


def _exclusion_rows(rep: RepresentationSet, pair: dict) -> tuple[np.ndarray, np.ndarray]:
    """(train, test) row indices, both ascending: the test rows are exactly
    those matching pair. Neither side may be empty."""
    mask = _matches(pair, rep.schema, rep.labels)
    test, train = np.flatnonzero(mask), np.flatnonzero(~mask)
    described = "cg_exclusion pair ({factor_a}={value_a}, {factor_b}={value_b})".format(**pair)
    if test.size == 0:
        raise SplitError(f"{described} matches no rows")
    if train.size == 0:
        raise SplitError(f"{described} matches every row; nothing left to train on")
    return train, test


def measure_probes(
    train_rep: RepresentationSet,
    test_latents: np.ndarray,
    probe_kind: str,
    config: TrainConfig,
    seed_salt: int = 0,
) -> list[np.ndarray]:
    """Train one probe per factor on train_rep, as one stack; return each
    probe's predictions on test_latents, in schema order."""
    schema = train_rep.schema
    seeds = [spawn_seed(config.seed, seed_salt, j) for j in range(schema.n_factors)]
    probes = train_probe(
        train_rep.latents, train_rep.labels, probe_kind, config, schema.cardinalities, seeds
    )
    return [probe.predict(test_latents) for probe in probes]


def _score(
    pair: dict,
    schema: FactorSchema,
    preds: Sequence[np.ndarray],
    test_labels: np.ndarray,
    full_labels: np.ndarray,
) -> tuple[dict, dict]:
    """(per_factor, joint_both) chance-adjusted accuracies of per-factor
    predictions. Chance rates come from full_labels (the complete set's label
    matrix, in any row order) so they describe the data population rather
    than the possibly single-valued test slice."""
    per_factor: dict[str, dict] = {}
    for j, name in enumerate(schema.names):
        raw = float(np.mean(preds[j] == test_labels[:, j]))
        r = chance_rate(full_labels[:, j])
        per_factor[name] = {"raw": raw, "adjusted": adjusted_accuracy(raw, r), "chance_rate": r}

    ia, ib = schema.index_of(pair["factor_a"]), schema.index_of(pair["factor_b"])
    both_correct = (preds[ia] == test_labels[:, ia]) & (preds[ib] == test_labels[:, ib])
    raw_both = float(np.mean(both_correct))
    paired = full_labels[:, ia] * int(schema.cardinalities[ib]) + full_labels[:, ib]
    r_both = chance_rate(paired)
    joint_both = {
        "raw": raw_both,
        "adjusted": adjusted_accuracy(raw_both, r_both),
        "chance_rate": r_both,
    }
    return per_factor, joint_both


def _control_split(n_rows: int, n_test: int, seed: int) -> dict:
    """The payload block of the random split matched to n_test held-out rows
    of n_rows.

    split_indices tests on floor(n_rows * test_fraction) rows, and
    n_test / n_rows can round to just below the exact quotient, so the
    fraction is bumped by one ulp when the floor falls short.
    """
    test_fraction = n_test / n_rows
    if math.floor(n_rows * test_fraction) < n_test:
        test_fraction = math.nextafter(test_fraction, 1.0)
    return {"kind": "random", "test_fraction": test_fraction, "seed": spawn_seed(seed, 4242)}


def _split_audit(
    pair: dict, schema: FactorSchema, train: np.ndarray, test: np.ndarray, leaked: int | None
) -> dict:
    """Audit of an exclusion split given its train and test label matrices:
    no training row and every test row match the pair. leaked_rows counts row
    ids on both sides (None for externally split sets)."""
    train_match, test_match = (
        int(np.sum(_matches(pair, schema, labels))) for labels in (train, test)
    )
    return {
        "leaked_rows": leaked,
        "train_rows_matching_pair": train_match,
        "test_rows_matching_pair": test_match,
        "clean": bool(not leaked and train_match == 0 and test_match == len(test)),
    }


def _held_out_run(
    pair: dict,
    train_rep: RepresentationSet,
    test_rep: RepresentationSet,
    probe_kind: str,
    config: TrainConfig,
    leaked: int | None,
) -> dict:
    """Probe a held-out split: train on train_rep, score on test_rep, and
    audit the split; returns the run payload with control None. The two
    sets together are the full population whose label frequencies set the
    chance rates."""
    schema = train_rep.schema
    preds = measure_probes(train_rep, test_rep.latents, probe_kind, config, seed_salt=1)
    full_labels = np.vstack([train_rep.labels, test_rep.labels])
    per_factor, joint_both = _score(pair, schema, preds, test_rep.labels, full_labels)
    return {
        "schema_version": 1,
        "pair": pair,
        "probe_kind": probe_kind,
        "per_factor": per_factor,
        "joint_both": joint_both,
        "control": None,
        "n_train": train_rep.n_rows,
        "n_test": test_rep.n_rows,
        "audit": _split_audit(pair, schema, train_rep.labels, test_rep.labels, leaked),
        "seed": config.seed,
    }


def run_cg(
    rep: RepresentationSet,
    pair: tuple,
    probe_kind: str = MLP,
    config: TrainConfig | None = None,
    control: bool = True,
    _controls: dict | None = None,
) -> dict:
    """One exclusion run: hold out the pair's rows, probe, and audit the
    split. Returns the run payload that `detangle cg --out` writes.

    The audit records that train and test row ids are disjoint, that no
    training row matches the excluded combination, and that every test row
    does. With control=True a matched-size random split of the same data is
    probed identically. _controls, when given, maps (probe kind, held-out
    size) to that control's test predictions and test labels, for one rep and
    seed; a missing entry is trained and stored, a present one is scored
    without training.
    """
    config = config or TrainConfig()
    pair = resolve_pair(rep, pair)
    train_idx, test_idx = _exclusion_rows(rep, pair)
    leaked = int(np.intersect1d(train_idx, test_idx).size)
    result = _held_out_run(
        pair, rep.subset(train_idx), rep.subset(test_idx), probe_kind, config, leaked
    )
    if not control:
        return result

    control_split = _control_split(rep.n_rows, test_idx.size, config.seed)
    controls = {} if _controls is None else _controls
    key = (probe_kind, test_idx.size)
    if key not in controls:
        ctr_train_idx, ctr_test_idx = split_indices(
            rep.n_rows, control_split["test_fraction"], control_split["seed"]
        )
        ctr_test = rep.subset(ctr_test_idx)
        controls[key] = (
            measure_probes(
                rep.subset(ctr_train_idx), ctr_test.latents, probe_kind, config, seed_salt=2
            ),
            ctr_test.labels,
        )
    ctr_per_factor, ctr_joint = _score(pair, rep.schema, *controls[key], rep.labels)
    result["control"] = {
        "split": control_split,
        "per_factor": ctr_per_factor,
        "joint_both": ctr_joint,
    }
    return result


def run_cg_presplit(
    train_rep: RepresentationSet,
    test_rep: RepresentationSet,
    pair: tuple,
    probe_kinds: Sequence[str] = (MLP,),
    config: TrainConfig | None = None,
) -> dict:
    """One run per probe kind on an externally produced train/test pair (e.g.
    separately encoded splits): the payload `detangle cg --train-data/--test-data`
    writes. Checks every kind before any probe trains. No control split is
    computed; the audit verifies the exclusion structure of the given sets."""
    if train_rep.schema != test_rep.schema:
        raise ValidationError("train and test sets must share one schema")
    pair = resolve_pair(train_rep, pair)
    for kind in probe_kinds:
        if kind not in PROBE_KINDS:
            raise ValidationError(f"unknown probe kind {kind!r}")
    config = config or TrainConfig()
    runs = [_held_out_run(pair, train_rep, test_rep, kind, config, None) for kind in probe_kinds]
    return _job_payload(runs, probe_kinds)


def run_cg_suite(
    rep: RepresentationSet,
    pairs: Sequence[tuple],
    probe_kinds: Sequence[str] = (MLP,),
    config: TrainConfig | None = None,
    control: bool = True,
) -> dict:
    """Cross product of pairs x probe kinds: the payload `detangle cg --data`
    writes for them.

    Checks every probe kind and pair before any probe trains, and fails
    naming the first pair whose exclusion split is degenerate or holds out
    the same rows as an earlier pair (the same pair, in either term order).
    Pairs with the same held-out size share one control per probe kind.
    """
    if not pairs:
        raise ValidationError("run_cg_suite needs at least one excluded pair")
    for kind in probe_kinds:
        if kind not in PROBE_KINDS:
            raise ValidationError(f"unknown probe kind {kind!r}")
    held_out = set()
    for pair in pairs:
        named = resolve_pair(rep, pair)
        try:
            test_rows = _exclusion_rows(rep, named)[1].tobytes()
        except SplitError as exc:
            raise SplitError(f"degenerate exclusion split for pair {named}: {exc}") from exc
        if test_rows in held_out:
            raise SplitError(f"pair {named} holds out the same rows as an earlier pair")
        held_out.add(test_rows)
    controls: dict = {}
    runs = [run_cg(rep, pair, kind, config, control=control, _controls=controls)
            for pair in pairs for kind in probe_kinds]
    return _job_payload(runs, probe_kinds)


def _job_payload(runs: Sequence[dict], probe_kinds: Sequence[str]) -> dict:
    """The payload of one cg job, and the only rule for its shape: a single
    run's payload, or for several runs a suite with their per-kind averages."""
    if len(runs) == 1:
        return runs[0]
    return {"schema_version": 1, "runs": list(runs), "averages": suite_averages(runs, probe_kinds)}


def _run_scores(run: dict) -> dict:
    """The scores of one run payload that a suite averages, under their
    average keys; the control's only when the run has one."""
    a, b = run["pair"]["factor_a"], run["pair"]["factor_b"]
    scores = {
        "excluded_a_adjusted": run["per_factor"][a]["adjusted"],
        "excluded_b_adjusted": run["per_factor"][b]["adjusted"],
        "joint_both_adjusted": run["joint_both"]["adjusted"],
        "joint_both_raw": run["joint_both"]["raw"],
    }
    control = run["control"]
    if control is not None:
        scores["control_joint_both_adjusted"] = control["joint_both"]["adjusted"]
        scores["control_excluded_a_adjusted"] = control["per_factor"][a]["adjusted"]
        scores["control_excluded_b_adjusted"] = control["per_factor"][b]["adjusted"]
    return scores


def suite_averages(runs: Sequence[dict], probe_kinds: Sequence[str]) -> dict:
    """Per-probe-kind averages over a list of run payloads (control rows if
    every run of the kind has a control)."""
    averages: dict[str, dict] = {}
    for kind in probe_kinds:
        rows = [_run_scores(r) for r in runs if r["probe_kind"] == kind]
        if rows:
            averages[kind] = {
                key: float(np.mean([row[key] for row in rows]))
                for key in rows[0]
                if all(key in row for row in rows)
            }
    return averages


def sample_pairs(
    rep: RepresentationSet,
    factor_a: int | str,
    factor_b: int | str,
    count: int,
    seed: int = 0,
) -> list[tuple]:
    """Sample distinct (value_a, value_b) combinations present in the data, as
    (a, va, b, vb) pairs with the factors by name."""
    ia = rep.schema.index_of(factor_a)
    ib = rep.schema.index_of(factor_b)
    if ia == ib:
        raise ValidationError("sample_pairs needs two distinct factors")
    dims = (rep.schema.cardinalities[ia], rep.schema.cardinalities[ib])
    # Present combinations in lexicographic (value_a, value_b) order.
    combos = np.unique(np.ravel_multi_index((rep.labels[:, ia], rep.labels[:, ib]), dims))
    if not 1 <= require_int(count, "count") <= combos.size:
        raise ValidationError(
            f"count must lie in [1, {combos.size}] (distinct present combinations)"
        )
    rng = np.random.default_rng(require_seed(seed, "seed"))
    chosen = rng.choice(combos.size, size=count, replace=False)
    values_a, values_b = np.unravel_index(combos[np.sort(chosen)], dims)
    a, b = rep.schema.names[ia], rep.schema.names[ib]
    return [(a, int(va), b, int(vb)) for va, vb in zip(values_a, values_b)]


# Per table column, the key of a suite average; the control's add "control_".
_AVERAGE_KEYS = ("excluded_a_adjusted", "excluded_b_adjusted", "joint_both_adjusted")


def _table_row(setting: str, cells: Sequence, spec: str = "10.4f") -> str:
    return f"{setting:<22}" + "".join(format(cell, spec) for cell in cells)


def render_cg_table(payload: dict) -> str:
    """Aligned text table: a row per setting and probe kind, columns for each excluded
    factor and both jointly (chance-adjusted). A run's table follows its pair line."""
    if payload_kind(payload) == "cg_suite":
        lines, columns = [], ("factor_a", "factor_b")
        rows = list(payload["averages"].items())
    else:
        pair = payload["pair"]
        lines = ["excluded pair: {factor_a}={value_a}, {factor_b}={value_b}".format(**pair)]
        columns = (pair["factor_a"], pair["factor_b"])
        rows = [(payload["probe_kind"], _run_scores(payload))]
    lines.append(_table_row("setting", (*columns, "both"), ">10"))
    for setting, prefix in (("cg", ""), ("random split", "control_")):
        lines += [
            _table_row(setting + " (" + kind + ")", [scores[prefix + key] for key in _AVERAGE_KEYS])
            for kind, scores in rows
            if prefix + "joint_both_adjusted" in scores
        ]
    return "\n".join(lines) + "\n"
