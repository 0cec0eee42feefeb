"""Tests for the held-out-combination probing harness."""

import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import detangle.cgtask as cgtask
from detangle.cgtask import (
    _control_split,
    _exclusion_rows,
    render_cg_table,
    resolve_pair,
    run_cg,
    run_cg_presplit,
    run_cg_suite,
    sample_pairs,
    suite_averages,
)
from detangle.classify import LINEAR, MLP, TrainConfig
from detangle.dataset import FactorSchema, RepresentationSet, split_indices
from detangle.errors import SchemaError, SplitError, ValidationError
from detangle.synth import GeneratorSpec, generate

FAST = TrainConfig(seed=5, epochs=10, learning_rate=0.01)


def grid_rep(copies=10, sigma=0.05, seed=3):
    schema = FactorSchema(("size", "shape"), (4, 4))
    return generate(
        GeneratorSpec(kind="ideal", schema=schema, samples_per_cell=copies,
                      noise_sigma=sigma, seed=seed)
    )


def held_out_rep(n_rows, n_held_out, seed=0):
    """n_rows rows of two binary factors, exactly n_held_out of them a=1, b=1."""
    rng = np.random.default_rng(seed)
    others = np.array([[0, 0], [0, 1], [1, 0]])
    labels = np.vstack([np.tile([1, 1], (n_held_out, 1)),
                        others[np.arange(n_rows - n_held_out) % 3]])
    latents = labels + rng.normal(scale=0.1, size=labels.shape)
    return RepresentationSet(latents, labels, FactorSchema(("a", "b"), (2, 2)))


def control_test_rows(rep, control):
    """Test-side size of the split a payload's control block records."""
    split = control["split"]
    return split_indices(rep.n_rows, split["test_fraction"], split["seed"])[1].size


class TestResolvePair:
    def test_tuple_normalized(self, variant_a_rep):
        pair = resolve_pair(variant_a_rep, ("colour", np.int64(1), "shape", 0))
        assert pair == {"factor_a": "colour", "value_a": 1, "factor_b": "shape", "value_b": 0}
        assert [type(value) for value in pair.values()] == [str, int, str, int]

    def test_indices_resolve_to_names(self, variant_a_rep):
        pair = resolve_pair(variant_a_rep, (1, 0, 0, 1))
        assert pair == {"factor_a": "shape", "value_a": 0, "factor_b": "colour", "value_b": 1}
        assert resolve_pair(variant_a_rep, ("1", 0, "0", 1)) == pair
        assert resolve_pair(variant_a_rep, (np.int64(1), 0, np.int64(0), 1)) == pair

    def test_same_factor_rejected(self, variant_a_rep):
        with pytest.raises(SplitError, match="distinct"):
            resolve_pair(variant_a_rep, ("colour", 0, "colour", 1))

    def test_unknown_factor_rejected(self, variant_a_rep):
        with pytest.raises(ValidationError):
            resolve_pair(variant_a_rep, ("texture", 0, "shape", 1))

    @pytest.mark.parametrize("pair", [
        (1.7, 1, 0, True),
        ("colour", 0, 1.0, 1),
        (True, 0, "shape", 1),
        (np.float64(0.0), 0, "shape", 1),
    ])
    def test_non_integer_factor_rejected(self, variant_a_rep, pair):
        with pytest.raises(SchemaError, match="is neither a name nor an integer index"):
            resolve_pair(variant_a_rep, pair)

    @pytest.mark.parametrize("pair, message", [
        (("colour", 2, "shape", 0), "value_a=2 out of range for factor 'colour' (cardinality 2)"),
        (("colour", 0, "shape", -1), "value_b=-1 out of range for factor 'shape' (cardinality 2)"),
        (("colour", 0.9, "shape", 1), "value_a=0.9 is not an integer"),
        (("colour", 1.0, "shape", 1), "value_a=1.0 is not an integer"),
        (("colour", True, "shape", 1), "value_a=True is not an integer"),
        (("colour", 0, "shape", "1"), "value_b='1' is not an integer"),
        (("colour", 0, "shape", np.float64(1.0)), f"value_b={np.float64(1.0)!r} is not an integer"),
    ])
    def test_value_out_of_range_rejected(self, variant_a_rep, pair, message):
        with pytest.raises(SplitError) as info:
            resolve_pair(variant_a_rep, pair)
        assert str(info.value) == message


class TestExclusionSplit:
    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(2, 120), seed=st.integers(0, 2**32 - 1),
           value_a=st.integers(0, 1), value_b=st.integers(0, 2))
    def test_membership(self, n, seed, value_a, value_b):
        rng = np.random.default_rng(seed)
        labels = np.column_stack([rng.integers(0, 2, n), rng.integers(0, 3, n)])
        rep = RepresentationSet(rng.normal(size=(n, 3)), labels,
                                FactorSchema(("colour", "shape"), (2, 3)))
        mask = (labels[:, 0] == value_a) & (labels[:, 1] == value_b)
        assume(0 < mask.sum() < n)
        pair = resolve_pair(rep, ("colour", value_a, "shape", value_b))
        train, test = _exclusion_rows(rep, pair)
        assert np.array_equal(test, np.flatnonzero(mask))
        assert np.array_equal(train, np.flatnonzero(~mask))

    def test_degenerate_pair_rejected(self):
        schema = FactorSchema(("a", "b"), (2, 2))
        latents = np.random.default_rng(0).normal(size=(30, 2))
        rep = RepresentationSet(latents, np.array([[0, 0], [0, 1], [1, 0]] * 10), schema)
        with pytest.raises(SplitError) as info:
            _exclusion_rows(rep, resolve_pair(rep, ("a", 1, "b", 1)))
        assert str(info.value) == "cg_exclusion pair (a=1, b=1) matches no rows"
        only_one = RepresentationSet(latents, np.zeros((30, 2), dtype=np.int64), schema)
        with pytest.raises(SplitError) as info:
            _exclusion_rows(only_one, resolve_pair(only_one, ("a", 0, "b", 0)))
        assert str(info.value) == (
            "cg_exclusion pair (a=0, b=0) matches every row; nothing left to train on"
        )


class TestRunCg:
    def test_split_sizes_and_audit(self):
        rep = grid_rep(copies=10)
        result = run_cg(rep, ("size", 2, "shape", 3), LINEAR, FAST)
        assert result["n_test"] == 10
        assert result["n_train"] == 150
        assert result["audit"] == {
            "leaked_rows": 0,
            "train_rows_matching_pair": 0,
            "test_rows_matching_pair": 10,
            "clean": True,
        }

    def test_chance_rates_come_from_full_population(self):
        rep = grid_rep(copies=10)
        result = run_cg(rep, ("size", 2, "shape", 3), LINEAR, FAST)
        assert result["per_factor"]["size"]["chance_rate"] == pytest.approx(0.25)
        assert result["per_factor"]["shape"]["chance_rate"] == pytest.approx(0.25)
        assert result["joint_both"]["chance_rate"] == pytest.approx(1.0 / 16.0)

    def test_control_split_matches_test_fraction(self):
        rep = grid_rep(copies=10)
        result = run_cg(rep, ("size", 2, "shape", 3), LINEAR, FAST)
        assert result["control"] is not None
        assert result["control"]["split"]["kind"] == "random"
        assert result["control"]["split"]["test_fraction"] == pytest.approx(10 / 160)
        assert set(result["control"]["per_factor"]) == {"size", "shape"}
        assert set(result["control"]["joint_both"]) == {"raw", "adjusted", "chance_rate"}

    def test_control_matches_held_out_size_where_the_fraction_rounds_down(self):
        # 47 * (3 / 47) is 2.9999999999999996, so the control used to test on 2 rows.
        rep = held_out_rep(47, 3)
        result = run_cg(rep, ("a", 1, "b", 1), LINEAR, FAST)
        assert result["n_test"] == 3
        assert control_test_rows(rep, result["control"]) == 3

    def test_single_held_out_row_gets_a_one_row_control(self):
        # 49 * (1 / 49) is 0.9999999999999999: the control split used to be empty.
        rep = held_out_rep(49, 1)
        result = run_cg(rep, ("a", 1, "b", 1), LINEAR, FAST)
        assert control_test_rows(rep, result["control"]) == 1
        suite = run_cg_suite(rep, [("a", 1, "b", 1), ("a", 0, "b", 0)], (LINEAR,), FAST)
        assert suite["runs"][0] == result

    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 5000).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n - 1))))
    def test_control_split_tests_on_exactly_the_held_out_size(self, sizes):
        n_rows, n_test = sizes
        split = _control_split(n_rows, n_test, seed=5)
        assert split_indices(n_rows, split["test_fraction"], split["seed"])[1].size == n_test
        if math.floor(n_rows * (n_test / n_rows)) == n_test:
            assert split["test_fraction"] == n_test / n_rows

    def test_control_can_be_disabled(self):
        rep = grid_rep(copies=10)
        result = run_cg(rep, ("size", 2, "shape", 3), LINEAR, FAST, control=False)
        assert result["control"] is None

    def test_deterministic_payload(self):
        rep = grid_rep(copies=10)
        p1 = run_cg(rep, ("size", 0, "shape", 0), LINEAR, FAST)
        p2 = run_cg(rep, ("size", 0, "shape", 0), LINEAR, FAST)
        assert p1 == p2

    def test_payload_structure(self):
        rep = grid_rep(copies=10)
        payload = run_cg(rep, ("size", 1, "shape", 2), LINEAR, FAST)
        assert payload["schema_version"] == 1
        assert payload["pair"] == {
            "factor_a": "size", "value_a": 1, "factor_b": "shape", "value_b": 2,
        }
        assert payload["probe_kind"] == "linear"
        assert payload["seed"] == 5
        for block in payload["per_factor"].values():
            assert set(block) == {"raw", "adjusted", "chance_rate"}

    def test_absent_combination_rejected(self):
        schema = FactorSchema(("a", "b"), (2, 2))
        labels = np.array([[0, 0], [0, 1], [1, 0]] * 10)
        latents = np.random.default_rng(0).normal(size=(30, 2))
        rep = RepresentationSet(latents, labels, schema)
        with pytest.raises(SplitError, match="matches no rows"):
            run_cg(rep, ("a", 1, "b", 1), LINEAR, FAST)


class TestPresplit:
    def test_matches_internal_split(self):
        rep = grid_rep(copies=10)
        pair = ("size", 2, "shape", 3)
        internal = run_cg(rep, pair, LINEAR, FAST, control=False)
        held_out = (rep.labels[:, 0] == 2) & (rep.labels[:, 1] == 3)
        external = run_cg_presplit(
            rep.subset(np.flatnonzero(~held_out)), rep.subset(np.flatnonzero(held_out)),
            pair, (LINEAR,), FAST
        )
        assert external["per_factor"] == internal["per_factor"]
        assert external["joint_both"] == internal["joint_both"]
        assert external["audit"]["leaked_rows"] is None
        assert external["audit"]["clean"]
        assert external["n_train"] == internal["n_train"]
        assert external["n_test"] == internal["n_test"]

    def test_dirty_train_set_flagged(self):
        rep = grid_rep(copies=5)
        match = (rep.labels[:, 0] == 2) & (rep.labels[:, 1] == 3)
        test_rep = rep.subset(np.flatnonzero(match))
        result = run_cg_presplit(rep, test_rep, ("size", 2, "shape", 3), (LINEAR,), FAST)
        assert result["audit"]["train_rows_matching_pair"] == 5
        assert not result["audit"]["clean"]

    def test_value_out_of_range_rejected(self):
        rep = grid_rep(copies=5)
        with pytest.raises(SplitError, match="value_b=4 out of range for factor 'shape'"):
            run_cg_presplit(rep, rep, ("size", 0, "shape", 4), LINEAR, FAST)

    def test_schema_mismatch_rejected(self):
        rep = grid_rep(copies=5)
        other_schema = FactorSchema(("p", "q"), (4, 4))
        other = RepresentationSet(rep.latents, rep.labels, other_schema)
        with pytest.raises(ValidationError, match="schema"):
            run_cg_presplit(rep, other, ("size", 0, "shape", 0), LINEAR, FAST)

    def test_several_kinds_give_the_suite_of_their_runs(self):
        rep = grid_rep(copies=5)
        held_out = (rep.labels[:, 0] == 2) & (rep.labels[:, 1] == 3)
        sets = (rep.subset(np.flatnonzero(~held_out)), rep.subset(np.flatnonzero(held_out)))
        pair = ("size", 2, "shape", 3)
        both = run_cg_presplit(*sets, pair, (LINEAR, MLP), FAST)
        runs = [run_cg_presplit(*sets, pair, (kind,), FAST) for kind in (LINEAR, MLP)]
        assert both == {"schema_version": 1, "runs": runs,
                        "averages": suite_averages(runs, (LINEAR, MLP))}

    def test_unknown_kind_rejected_before_any_probe_trains(self, monkeypatch):
        calls = []
        monkeypatch.setattr(cgtask, "train_probe", lambda *args, **kwargs: calls.append(args))
        rep = grid_rep(copies=5)
        with pytest.raises(ValidationError, match="unknown probe kind 'bogus'"):
            run_cg_presplit(rep, rep, ("size", 0, "shape", 0), (LINEAR, "bogus"), FAST)
        assert calls == []


class TestSuite:
    def test_averages_over_runs(self):
        rep = grid_rep(copies=10)
        pairs = [("size", 0, "shape", 0), ("size", 3, "shape", 1)]
        suite = run_cg_suite(rep, pairs, (LINEAR,), FAST)
        assert len(suite["runs"]) == 2
        avg = suite["averages"]["linear"]
        expected = np.mean([r["joint_both"]["adjusted"] for r in suite["runs"]])
        assert avg["joint_both_adjusted"] == pytest.approx(expected, abs=1e-15)
        expected_a = np.mean(
            [r["per_factor"][r["pair"]["factor_a"]]["adjusted"] for r in suite["runs"]]
        )
        assert avg["excluded_a_adjusted"] == pytest.approx(expected_a, abs=1e-15)
        assert "control_joint_both_adjusted" in avg

    def test_control_averages_omitted_without_control(self):
        rep = grid_rep(copies=10)
        pairs = [("size", 0, "shape", 0), ("size", 3, "shape", 1)]
        suite = run_cg_suite(rep, pairs, (LINEAR,), FAST, control=False)
        assert "control_joint_both_adjusted" not in suite["averages"]["linear"]

    @pytest.mark.parametrize("kind", [LINEAR, MLP])
    @pytest.mark.parametrize("control", [True, False])
    def test_one_pair_and_kind_is_that_runs_payload(self, kind, control):
        rep = grid_rep(copies=10)
        pair = ("size", 2, "shape", 3)
        suite = run_cg_suite(rep, [pair], (kind,), FAST, control=control)
        assert json.dumps(suite) == json.dumps(run_cg(rep, pair, kind, FAST, control=control))

    def test_empty_pairs_rejected(self):
        rep = grid_rep(copies=5)
        with pytest.raises(ValidationError, match="at least one"):
            run_cg_suite(rep, [], (LINEAR,), FAST)

    @pytest.mark.parametrize("pairs, kinds, error, message", [
        ([("size", 0, "shape", 0)], (LINEAR, "bogus"), ValidationError, "unknown probe kind 'bogus'"),
        ([("size", 0, "shape", 0), ("size", 0.5, "shape", 1)], (LINEAR,), SplitError,
         "value_a=0.5 is not an integer"),
        ([("size", 0, "shape", 1), ("shape", 1, "size", 0), ("size", 0, "shape", 1)], (LINEAR,),
         SplitError, "'factor_b': 'size', 'value_b': 0} holds out the same rows as an earlier pair"),
    ], ids=["unknown_kind", "non_integer_value", "repeated_pair"])
    def test_bad_kind_or_pair_rejected_before_any_probe_trains(
        self, monkeypatch, pairs, kinds, error, message
    ):
        calls = []
        monkeypatch.setattr(cgtask, "train_probe", lambda *args, **kwargs: calls.append(args))
        with pytest.raises(error, match=message):
            run_cg_suite(grid_rep(copies=5), pairs, kinds, FAST)
        assert calls == []

    def test_degenerate_pair_named_in_error(self):
        schema = FactorSchema(("a", "b"), (2, 2))
        labels = np.array([[0, 0], [0, 1], [1, 0]] * 10)
        latents = np.random.default_rng(0).normal(size=(30, 2))
        rep = RepresentationSet(latents, labels, schema)
        with pytest.raises(SplitError, match="'value_a': 1"):
            run_cg_suite(rep, [("a", 0, "b", 0), ("a", 1, "b", 1)], (LINEAR,), FAST)

    def test_suite_payload_round_trip(self):
        rep = grid_rep(copies=10)
        payload = run_cg_suite(rep, [("size", 0, "shape", 0)], (LINEAR, MLP), FAST)
        assert list(payload) == ["schema_version", "runs", "averages"]
        assert payload["schema_version"] == 1
        assert len(payload["runs"]) == 2

    def test_suite_averages_helper_matches(self):
        rep = grid_rep(copies=10)
        pairs = [("size", 0, "shape", 0), ("size", 3, "shape", 1)]
        suite = run_cg_suite(rep, pairs, (LINEAR,), FAST)
        assert suite_averages(suite["runs"], (LINEAR,)) == suite["averages"]
        assert suite_averages(suite["runs"], ("mlp",)) == {}


class TestSuiteSharesControls:
    """A suite trains each control once per (probe kind, held-out size) and
    reports exactly what separate run_cg calls report."""

    def assert_matches_standalone(self, rep, pairs, kinds):
        suite = run_cg_suite(rep, pairs, kinds, FAST)
        expected = [run_cg(rep, pair, kind, FAST) for pair in pairs for kind in kinds]
        assert suite["runs"] == expected
        return suite

    def test_exact_grid_matches_standalone_runs(self):
        pairs = [("size", 0, "shape", 0), ("size", 3, "shape", 1), ("shape", 2, "size", 1)]
        suite = self.assert_matches_standalone(grid_rep(copies=10), pairs, (LINEAR, MLP))
        assert {run["n_test"] for run in suite["runs"]} == {10}

    def test_unequal_and_repeated_sizes_match_standalone_runs(self):
        full = grid_rep(copies=12)
        rep = full.subset(np.sort(np.random.default_rng(1).permutation(full.n_rows)[:150]))
        pairs = sample_pairs(rep, "size", "shape", 4, seed=2)
        suite = self.assert_matches_standalone(rep, pairs, (LINEAR,))
        sizes = [run["n_test"] for run in suite["runs"]]
        assert 1 < len(set(sizes)) < len(sizes)

    def count_probes(self, monkeypatch):
        """One entry per probe trained: a stacked call adds one per label column."""
        calls = []
        train_probe = cgtask.train_probe

        def counted(features, labels, *args, **kwargs):
            calls.extend([1] * np.asarray(labels).reshape(len(features), -1).shape[1])
            return train_probe(features, labels, *args, **kwargs)

        monkeypatch.setattr(cgtask, "train_probe", counted)
        return calls

    def test_equal_held_out_sizes_train_one_control(self, monkeypatch):
        calls = self.count_probes(monkeypatch)
        pairs = [("size", 0, "shape", 0), ("size", 3, "shape", 1), ("size", 1, "shape", 2)]
        rep = grid_rep(copies=10)
        run_cg_suite(rep, pairs, (LINEAR,), FAST)
        assert len(calls) == 4 * rep.n_factors

    def test_a_new_held_out_size_trains_one_more_control(self, monkeypatch):
        full = grid_rep(copies=10)
        cell = (full.labels[:, 0] == 2) & (full.labels[:, 1] == 2)
        rep = full.subset(np.flatnonzero(~cell | (np.cumsum(cell) > 3)))
        calls = self.count_probes(monkeypatch)
        pairs = [("size", 0, "shape", 0), ("size", 3, "shape", 1), ("size", 1, "shape", 2),
                 ("size", 2, "shape", 2)]
        suite = run_cg_suite(rep, pairs, (LINEAR,), FAST)
        assert [run["n_test"] for run in suite["runs"]] == [10, 10, 10, 7]
        assert len(calls) == (4 + 2) * rep.n_factors


class TestProbeCallOrder:
    """The benchmark's control_share counts every measure_probes call inside
    a run_cg call after the first as the control's."""

    def record_salts(self, monkeypatch):
        calls = []
        measure_probes = cgtask.measure_probes

        def recorded(train_rep, test_latents, probe_kind, config, seed_salt=0):
            calls.append((probe_kind, seed_salt))
            return measure_probes(train_rep, test_latents, probe_kind, config, seed_salt)

        monkeypatch.setattr(cgtask, "measure_probes", recorded)
        return calls

    def test_run_probes_the_held_out_split_before_the_control(self, monkeypatch):
        calls = self.record_salts(monkeypatch)
        run_cg(grid_rep(copies=10), ("size", 2, "shape", 3), LINEAR, FAST)
        assert calls == [(LINEAR, 1), (LINEAR, 2)]

    def test_suite_with_equal_held_out_sizes_probes_one_control_per_kind(self, monkeypatch):
        calls = self.record_salts(monkeypatch)
        pairs = [("size", 0, "shape", 0), ("size", 3, "shape", 1), ("size", 1, "shape", 2)]
        run_cg_suite(grid_rep(copies=10), pairs, (LINEAR, MLP), FAST)
        assert calls == [(LINEAR, 1), (LINEAR, 2), (MLP, 1), (MLP, 2)] + [
            (LINEAR, 1), (MLP, 1)] * 2


class TestSamplePairs:
    def test_deterministic_and_present(self):
        rep = grid_rep(copies=3)
        p1 = sample_pairs(rep, "size", "shape", count=4, seed=9)
        p2 = sample_pairs(rep, "size", "shape", count=4, seed=9)
        assert p1 == p2
        assert len(p1) == 4
        assert {(a, b) for a, _, b, _ in p1} == {("size", "shape")}
        assert len({(va, vb) for _, va, _, vb in p1}) == 4
        combos = {tuple(row) for row in rep.labels}
        for _, va, _, vb in p1:
            assert (va, vb) in combos

    def test_count_bounds(self):
        rep = grid_rep(copies=2)
        with pytest.raises(ValidationError, match=r"\[1, 16\]"):
            sample_pairs(rep, "size", "shape", count=17)
        with pytest.raises(ValidationError, match=r"\[1, 16\]"):
            sample_pairs(rep, "size", "shape", count=0)

    def test_distinct_factors_required(self):
        rep = grid_rep(copies=2)
        with pytest.raises(ValidationError, match="distinct"):
            sample_pairs(rep, "size", "size", count=1)

    @pytest.mark.parametrize("count", [2.5, True, "2"])
    def test_non_integer_count_rejected(self, count):
        with pytest.raises(ValidationError, match=f"count must be an integer, got {count!r}"):
            sample_pairs(grid_rep(copies=2), "size", "shape", count)
        assert sample_pairs(grid_rep(copies=2), "size", "shape", np.int64(2)) == sample_pairs(
            grid_rep(copies=2), "size", "shape", 2)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValidationError, match="seed must be >= 0, got -1"):
            sample_pairs(grid_rep(copies=2), "size", "shape", count=2, seed=-1)


class TestRenderTable:
    def test_single_run_layout(self):
        rep = grid_rep(copies=10)
        payload = run_cg(rep, ("size", 2, "shape", 3), LINEAR, FAST)
        text = render_cg_table(payload)
        lines = text.strip().split("\n")
        assert lines[0] == "excluded pair: size=2, shape=3"
        assert lines[1].split() == ["setting", "size", "shape", "both"]
        assert lines[2].startswith("cg (linear)")
        assert lines[3].startswith("random split (linear)")
        assert len(lines) == 4

    def test_single_run_without_control(self):
        rep = grid_rep(copies=10)
        payload = run_cg(rep, ("size", 2, "shape", 3), LINEAR, FAST, control=False)
        lines = render_cg_table(payload).strip().split("\n")
        assert len(lines) == 3

    def test_suite_layout(self):
        rep = grid_rep(copies=10)
        pairs = [("size", 0, "shape", 0), ("size", 3, "shape", 1)]
        suite = run_cg_suite(rep, pairs, (LINEAR,), FAST)
        lines = render_cg_table(suite).strip().split("\n")
        assert lines[0].split() == ["setting", "factor_a", "factor_b", "both"]
        assert lines[1].startswith("cg (linear)")
        assert lines[2].startswith("random split (linear)")
