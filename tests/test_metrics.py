"""Tests for the five representation-quality metrics and the full report."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import detangle.metrics as metrics_module
from detangle.align import Alignment, greedy_alignment, injective_alignment
from detangle.dataset import FactorSchema, RepresentationSet, discretize_neuron
from detangle.errors import DegenerateInputError, ValidationError
from detangle.infotheory import ImportanceMatrix, importance_matrix
from detangle.metrics import (
    MEAN,
    PRODUCT,
    aggregate,
    compute_metric_report,
    dci,
    factor_entropies,
    mig,
    nk,
    render_metric_table,
    sap,
    single_neuron_accuracy,
    snc,
)
from detangle.classify import TrainConfig
from detangle.synth import GeneratorSpec, generate


def make_importance(values, names=None, n_bins=20, strategy="quantile"):
    values = np.asarray(values, dtype=np.float64)
    if names is None:
        names = tuple(f"f{j}" for j in range(values.shape[0]))
    return ImportanceMatrix(values=values, factor_names=tuple(names), n_bins=n_bins, strategy=strategy)


def best_bijection_agreement(values, labels, k):
    """Oracle: the largest share of rows that any of the k! bin->class
    bijections matches, counted with np.bincount on the neuron's k bins."""
    bins = discretize_neuron(values, n_bins=k).bins
    counts = np.bincount(bins * k + labels, minlength=k * k).reshape(k, k)
    rows = np.arange(k)
    best = max(int(counts[rows, list(p)].sum()) for p in itertools.permutations(range(k)))
    return best / labels.size


def agreement_matrix(latents, labels, cards):
    schema = FactorSchema(tuple(f"f{j}" for j in range(len(cards))), tuple(cards))
    rep = RepresentationSet(np.asarray(latents, dtype=np.float64), np.asarray(labels), schema)
    return single_neuron_accuracy(rep)


class TestBinMatchAccuracy:
    """The best bin-to-class agreement, read off single_neuron_accuracy."""

    def test_perfect_binary(self):
        values = [0.1, 0.1, 0.9, 0.9]
        labels = [0, 0, 1, 1]
        acc = agreement_matrix(np.column_stack([values]), np.column_stack([labels]), (2,))
        assert acc.tolist() == [[1.0]]

    def test_inverted_labels_still_perfect(self):
        # The bijection relabels bins, so an anti-correlated neuron scores 1.
        latents = np.array([[0.1, 0.9], [0.1, 0.9], [0.9, 0.1], [0.9, 0.1]])
        acc = agreement_matrix(latents, [[0], [0], [1], [1]], (2,))
        assert acc.tolist() == [[1.0, 1.0]]

    def test_independent_neuron_scores_chance(self):
        latents = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        acc = agreement_matrix(latents, [[0, 0], [0, 1], [1, 0], [1, 1]], (2, 2))
        assert acc.tolist() == [[0.5, 1.0], [1.0, 0.5]]

    def test_three_class_partial(self):
        # Identity bijection matches 5 of 6 rows; the stray (bin 1, class 2)
        # row is the only miss.
        values = [0.0, 0.0, 1.0, 1.0, 2.0, 2.0]
        labels = [0, 0, 1, 2, 2, 2]
        acc = agreement_matrix(np.column_stack([values]), np.column_stack([labels]), (3,))
        assert acc[0, 0] == pytest.approx(5.0 / 6.0)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_every_entry_is_the_best_bijection(self, data):
        n_rows = data.draw(st.integers(1, 30), label="n_rows")
        cards = data.draw(st.lists(st.integers(2, 5), min_size=1, max_size=3), label="cards")
        n_neurons = data.draw(st.integers(len(cards), 4), label="n_neurons")
        # Few levels give ties and level-mapped bins; floats give quantile bins.
        values = st.integers(0, 3).map(float) | st.floats(-5, 5, allow_nan=False)
        latents = np.array(data.draw(
            st.lists(st.lists(values, min_size=n_neurons, max_size=n_neurons),
                     min_size=n_rows, max_size=n_rows), label="latents"))
        labels = np.column_stack([
            data.draw(st.lists(st.integers(0, k - 1), min_size=n_rows, max_size=n_rows),
                      label=f"g{j}")
            for j, k in enumerate(cards)
        ])
        acc = agreement_matrix(latents, labels, cards)
        expected = [
            [best_bijection_agreement(latents[:, i], labels[:, j], k) for i in range(n_neurons)]
            for j, k in enumerate(cards)
        ]
        assert acc.tolist() == expected


class TestFactorEntropies:
    def test_balanced_binary_factors(self, variant_a_rep):
        np.testing.assert_allclose(factor_entropies(variant_a_rep), [1.0, 1.0], atol=1e-12)

    def test_skewed_factor(self):
        schema = FactorSchema(("a",), (2,))
        rep = RepresentationSet(np.zeros((4, 1)), np.array([[0], [0], [0], [1]]), schema)
        expected = -(0.75 * math.log2(0.75) + 0.25 * math.log2(0.25))
        assert factor_entropies(rep)[0] == pytest.approx(expected, abs=1e-12)


class TestSnc:
    def test_worked_example_a(self, variant_a_rep):
        imp = importance_matrix(variant_a_rep)
        result = snc(variant_a_rep, injective_alignment(imp), single_neuron_accuracy(variant_a_rep))
        assert result["per_factor"]["colour"] == pytest.approx(0.5, abs=1e-12)
        assert result["per_factor"]["shape"] == 0.0
        assert result["mean"] == pytest.approx(0.25, abs=1e-12)
        assert result["details"]["colour"]["neuron"] == 0
        assert result["details"]["colour"]["agreement"] == pytest.approx(0.75)
        assert result["details"]["colour"]["chance_rate"] == 0.5
        assert result["details"]["shape"]["neuron"] == 1

    def test_worked_example_b(self, variant_b_rep):
        imp = importance_matrix(variant_b_rep)
        result = snc(variant_b_rep, injective_alignment(imp), single_neuron_accuracy(variant_b_rep))
        assert result["per_factor"]["colour"] == pytest.approx(0.5, abs=1e-12)
        assert result["per_factor"]["shape"] == pytest.approx(0.4, abs=1e-12)
        assert result["mean"] == pytest.approx(0.45, abs=1e-12)

    def test_greedy_alignment_shares_the_informative_neuron(self, variant_b_rep):
        imp = importance_matrix(variant_b_rep)
        result = snc(variant_b_rep, greedy_alignment(imp), single_neuron_accuracy(variant_b_rep))
        assert result["details"]["colour"]["neuron"] == 0
        assert result["details"]["shape"]["neuron"] == 0
        assert result["per_factor"]["shape"] == pytest.approx(0.5, abs=1e-12)

    def test_perfect_representation_scores_one(self):
        schema = FactorSchema(("a", "b"), (3, 4))
        rep = generate(GeneratorSpec(kind="ideal", schema=schema, samples_per_cell=10))
        imp = importance_matrix(rep)
        result = snc(rep, injective_alignment(imp), single_neuron_accuracy(rep))
        assert result["per_factor"] == {"a": 1.0, "b": 1.0}

    def test_alignment_length_checked(self, variant_a_rep):
        bad = Alignment(mode="greedy", assignment=(0,), objective_value=0.0)
        with pytest.raises(ValidationError, match="alignment"):
            snc(variant_a_rep, bad, single_neuron_accuracy(variant_a_rep))

    def test_alignment_neuron_range_checked(self, variant_a_rep):
        bad = Alignment(mode="greedy", assignment=(0, 5), objective_value=0.0)
        with pytest.raises(ValidationError, match="neuron"):
            snc(variant_a_rep, bad, single_neuron_accuracy(variant_a_rep))

    def test_cardinality_above_rows_rejected(self):
        schema = FactorSchema(("a",), (5,))
        rep = RepresentationSet(
            np.arange(4, dtype=np.float64).reshape(4, 1),
            np.array([[0], [1], [2], [3]]),
            schema,
        )
        align = Alignment(mode="greedy", assignment=(0,), objective_value=0.0)
        with pytest.raises(ValidationError, match="cardinality"):
            snc(rep, align, single_neuron_accuracy(rep))

    def test_accuracy_matrix_shape_checked(self, variant_a_rep):
        align = Alignment(mode="greedy", assignment=(0, 1), objective_value=0.0)
        with pytest.raises(ValidationError, match="accuracy matrix of shape"):
            snc(variant_a_rep, align, np.zeros((2, 3)))
        with pytest.raises(ValidationError, match="accuracy matrix of shape"):
            sap(variant_a_rep, np.zeros((1, 2)))


class TestNk:
    def test_worked_example_a_scores(self, variant_a_report):
        result = variant_a_report["nk"]
        assert result["per_factor"]["colour"] == pytest.approx(0.25, abs=0.05)
        assert result["per_factor"]["shape"] == 0.0
        assert result["split"]["test_fraction"] == 0.2
        assert result["split"]["kind"] == "random"

    def test_score_is_raw_accuracy_drop(self, variant_a_report):
        result = variant_a_report["nk"]
        for name, detail in result["details"].items():
            expected = max(0.0, detail["accuracy_all"] - detail["accuracy_without"])
            assert result["per_factor"][name] == pytest.approx(expected, abs=1e-12)
            assert 0.0 <= detail["adjusted_all"] <= 1.0
            assert 0.0 <= detail["adjusted_without"] <= 1.0
            assert detail["chance_rate"] == 0.5

    def test_single_neuron_rejected(self):
        schema = FactorSchema(("a",), (2,))
        rep = RepresentationSet(
            np.array([[0.0], [1.0], [0.0], [1.0]]),
            np.array([[0], [1], [0], [1]]),
            schema,
        )
        align = Alignment(mode="greedy", assignment=(0,), objective_value=0.0)
        with pytest.raises(ValidationError, match="two neurons"):
            nk(rep, align, config=TrainConfig(seed=0, epochs=1))


class TestMig:
    def test_hand_matrix(self):
        imp = make_importance([[0.8, 0.2], [0.5, 0.5]])
        result = mig(imp, [1.0, 1.0])
        assert result["per_factor"]["f0"] == pytest.approx(0.6, abs=1e-12)
        assert result["per_factor"]["f1"] == 0.0
        assert result["mean"] == pytest.approx(0.3, abs=1e-12)

    def test_gap_normalized_by_entropy(self):
        imp = make_importance([[0.8, 0.2]])
        assert mig(imp, [2.0])["per_factor"]["f0"] == pytest.approx(0.3, abs=1e-12)

    def test_clipped_at_one(self):
        imp = make_importance([[2.0, 0.1]])
        assert mig(imp, [1.0])["per_factor"]["f0"] == 1.0

    def test_zero_entropy_factor_rejected(self):
        imp = make_importance([[0.5, 0.1]])
        with pytest.raises(DegenerateInputError, match="entropy"):
            mig(imp, [0.0])

    def test_single_neuron_rejected(self):
        imp = make_importance([[0.5]])
        with pytest.raises(ValidationError, match="two neurons"):
            mig(imp, [1.0])

    def test_entropy_count_checked(self):
        imp = make_importance([[0.5, 0.1]])
        with pytest.raises(ValidationError, match="per factor"):
            mig(imp, [1.0, 1.0])

    def test_worked_example_a(self, variant_a_rep):
        imp = importance_matrix(variant_a_rep)
        result = mig(imp, factor_entropies(variant_a_rep))
        expected = imp.values[0, 0]  # z1 carries zero MI, entropy is 1 bit
        assert result["per_factor"]["colour"] == pytest.approx(expected, abs=1e-12)
        assert result["per_factor"]["shape"] == pytest.approx(expected, abs=1e-12)


class TestSap:
    def test_worked_example_a(self, variant_a_rep):
        result = sap(variant_a_rep, single_neuron_accuracy(variant_a_rep))
        assert result["per_factor"]["colour"] == pytest.approx(0.25, abs=1e-12)
        assert result["per_factor"]["shape"] == pytest.approx(0.25, abs=1e-12)
        assert result["mean"] == pytest.approx(0.25, abs=1e-12)
        assert result["details"]["colour"]["top_neuron"] == 0
        assert result["details"]["colour"]["top_accuracy"] == pytest.approx(0.75)
        assert result["details"]["colour"]["second_accuracy"] == pytest.approx(0.5)

    def test_accuracy_matrix_shape_and_immutability(self, variant_a_rep):
        result = sap(variant_a_rep, single_neuron_accuracy(variant_a_rep))
        assert np.shape(result["accuracy_matrix"]) == (2, 2)

    def test_gap_is_unadjusted_difference(self, variant_b_rep):
        result = sap(variant_b_rep, single_neuron_accuracy(variant_b_rep))
        for name, detail in result["details"].items():
            assert result["per_factor"][name] == pytest.approx(
                detail["top_accuracy"] - detail["second_accuracy"], abs=1e-12
            )

    def test_single_neuron_rejected(self):
        schema = FactorSchema(("a",), (2,))
        rep = RepresentationSet(
            np.array([[0.0], [1.0]]), np.array([[0], [1]]), schema
        )
        with pytest.raises(ValidationError, match="two neurons"):
            sap(rep, single_neuron_accuracy(rep))

    @pytest.mark.parametrize("seed", range(6))
    def test_accuracy_matrix_equals_per_pair_bin_match(self, seed):
        # The matrix bins each neuron once per cardinality; the scores must
        # equal binning and matching every (factor, neuron) pair on its own.
        rng = np.random.default_rng(seed)
        cards = (2, 5, 3, 5)
        rows = int(rng.integers(20, 400))
        labels = np.column_stack([rng.integers(0, k, rows) for k in cards])
        latents = labels @ rng.normal(size=(4, 6)) + rng.normal(size=(rows, 6))
        if seed % 2:
            latents = np.round(latents)  # few levels: ties and level-mapped bins
        rep = RepresentationSet(latents, labels, FactorSchema(("a", "b", "c", "d"), cards))
        expected = [[best_bijection_agreement(latents[:, i], labels[:, j], k) for i in range(6)]
                    for j, k in enumerate(cards)]
        assert sap(rep, single_neuron_accuracy(rep))["accuracy_matrix"] == expected


class TestDci:
    def test_one_hot_matrix_is_fully_disentangled(self):
        imp = make_importance([[1.0, 0.0], [0.0, 1.0]])
        result = dci(imp)
        assert result["disentanglement"] == 1.0
        assert result["completeness"] == 1.0
        assert result["avg_dc"] == 1.0
        assert not result["degenerate"]

    def test_shared_neuron_matrix(self):
        # Both factors load only on neuron 0: D = 0 (uniform over factors),
        # C = 1 (each factor concentrated on one neuron).
        imp = make_importance([[0.6, 0.0], [0.6, 0.0]])
        result = dci(imp)
        assert result["disentanglement"] == 0.0
        assert result["completeness"] == 1.0
        assert result["avg_dc"] == 0.5
        assert result["neuron_weights"] == [1.0, 0.0]
        assert result["per_neuron_d"] == [0.0, 0.0]

    def test_matches_entropy_formulas(self):
        rng = np.random.default_rng(3)
        values = rng.random((3, 4))
        imp = make_importance(values)
        result = dci(imp)

        def norm_entropy(p, base):
            p = p[p > 0]
            return float(-(p * np.log2(p)).sum()) / math.log2(base)

        col = values.sum(axis=0)
        expected_d = sum(
            (col[i] / values.sum()) * (1.0 - norm_entropy(values[:, i] / col[i], 3))
            for i in range(4)
        )
        expected_c = np.mean(
            [1.0 - norm_entropy(values[j] / values[j].sum(), 4) for j in range(3)]
        )
        assert result["disentanglement"] == pytest.approx(expected_d, abs=1e-12)
        assert result["completeness"] == pytest.approx(expected_c, abs=1e-12)
        assert result["avg_dc"] == pytest.approx((expected_d + expected_c) / 2, abs=1e-12)

    def test_informativeness_mean_recorded(self):
        imp = make_importance([[1.0, 0.0], [0.0, 1.0]])
        result = dci(imp, informativeness=[0.8, 0.6])
        assert result["informativeness"] == pytest.approx(0.7)
        assert dci(imp)["informativeness"] is None

    def test_all_zero_matrix_is_degenerate(self):
        imp = make_importance([[0.0, 0.0], [0.0, 0.0]])
        result = dci(imp, informativeness=[0.2, 0.4])
        assert result["degenerate"]
        assert result["disentanglement"] == 0.0
        assert result["completeness"] == 0.0
        assert result["informativeness"] == pytest.approx(0.3)

    def test_one_factor_concentrates_every_informative_neuron(self):
        # With one factor a neuron's importance cannot spread: D_i = 1 unless
        # the neuron carries nothing (D_i = 0, weight 0).
        result = dci(make_importance([[0.5, 0.25, 0.0]]))
        assert result["per_neuron_d"] == [1.0, 1.0, 0.0]
        assert result["disentanglement"] == pytest.approx(1.0, abs=1e-15)

    def test_negative_importance_rejected(self):
        imp = make_importance([[0.5, -0.1], [0.2, 0.3]])
        with pytest.raises(ValidationError, match="non-negative"):
            dci(imp)

    def test_informativeness_length_checked(self):
        imp = make_importance([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValidationError, match="per factor"):
            dci(imp, informativeness=[0.5])

    def test_worked_example_goldens(self, variant_a_rep, variant_b_rep):
        result_a = dci(importance_matrix(variant_a_rep))
        assert result_a["disentanglement"] == 0.0
        assert result_a["completeness"] == 1.0
        assert result_a["avg_dc"] == 0.5

        result_b = dci(importance_matrix(variant_b_rep))
        assert result_b["disentanglement"] == pytest.approx(0.23925913219369577, abs=1e-12)
        assert result_b["completeness"] == pytest.approx(0.5188708364752683, abs=1e-12)
        assert result_b["avg_dc"] == pytest.approx(0.37906498433448205, abs=1e-12)


class TestAggregate:
    def test_mean(self):
        assert aggregate({"a": 0.2, "b": 0.4}, MEAN) == pytest.approx(0.3)

    def test_product(self):
        assert aggregate({"a": 0.2, "b": 0.4}, PRODUCT) == pytest.approx(0.08)

    def test_subset_restricts(self):
        scores = {"a": 0.2, "b": 0.4, "c": 0.9}
        assert aggregate(scores, MEAN, subset=("a", "c")) == pytest.approx(0.55)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValidationError, match="mode"):
            aggregate({"a": 0.5}, "median")

    def test_unknown_subset_name_rejected(self):
        with pytest.raises(ValidationError, match="unknown factors"):
            aggregate({"a": 0.5}, MEAN, subset=("a", "z"))

    def test_empty_subset_rejected(self):
        with pytest.raises(ValidationError, match="non-empty"):
            aggregate({"a": 0.5}, MEAN, subset=())


class TestMetricReport:
    def test_payload_structure(self, variant_a_report):
        payload = variant_a_report
        assert payload["schema_version"] == 1
        assert payload["factor_names"] == ["colour", "shape"]
        assert payload["n_rows"] == 3200
        assert payload["n_neurons"] == 2
        for key in ("importance", "alignment", "snc", "nk", "mig", "sap", "dci"):
            assert key in payload
        assert payload["aggregates"] is None
        assert payload["config"]["align_mode"] == "injective"
        assert payload["config"]["probe"]["seed"] == 7
        assert set(payload["probe_accuracy"]) == {"linear", "mlp"}
        for rows in payload["probe_accuracy"].values():
            for cell in rows.values():
                assert set(cell) == {"raw", "adjusted"}

    def test_mlp_rows_reuse_knockout_probes(self, variant_a_report):
        payload = variant_a_report
        for name in payload["factor_names"]:
            assert (
                payload["probe_accuracy"]["mlp"][name]["raw"]
                == payload["nk"]["details"][name]["accuracy_all"]
            )

    def test_subset_aggregates(self, variant_b_rep):
        report = compute_metric_report(
            variant_b_rep,
            config=TrainConfig(seed=7, epochs=5),
            subset=("colour",),
            aggregate_mode="mean",
        )
        agg = report["aggregates"]
        assert agg["mode"] == "mean"
        assert agg["subset"] == ["colour"]
        assert agg["values"]["snc"] == pytest.approx(report["snc"]["per_factor"]["colour"])
        assert set(agg["values"]) == {"snc", "nk", "mig", "sap"}

    @pytest.mark.parametrize("subset, mode", [(("colour", "nope"), "product"),
                                              ((), "product"),
                                              (("colour",), "median"),
                                              (("colour", "colour"), "product")])
    def test_bad_subset_rejected_before_any_probe(self, variant_b_rep, monkeypatch,
                                                  subset, mode):
        calls = []
        monkeypatch.setattr(metrics_module, "train_probe",
                            lambda *args, **kwargs: calls.append(args))
        with pytest.raises(ValidationError):
            compute_metric_report(variant_b_rep, subset=subset, aggregate_mode=mode)
        assert calls == []

    @pytest.mark.parametrize("subset", [None, ("colour",)])
    def test_unknown_aggregate_mode_rejected_before_any_probe(self, variant_b_rep, monkeypatch,
                                                             subset):
        calls = []
        monkeypatch.setattr(metrics_module, "train_probe",
                            lambda *args, **kwargs: calls.append(args))
        with pytest.raises(ValidationError, match="unknown aggregate mode 'nope'"):
            compute_metric_report(variant_b_rep, subset=subset, aggregate_mode="nope")
        assert calls == []

    def test_report_trains_three_probe_stacks(self, monkeypatch):
        # The NK all-neuron MLPs, the NK knockouts and the linear heads: one
        # train_probe call each, however many factors there are, each given
        # the shared latents and the train rows rather than a copy of them.
        calls = []
        original = metrics_module.train_probe

        def counting(*args, **kwargs):
            calls.append((args[0], args[1], args[2], kwargs["rows"]))
            return original(*args, **kwargs)

        monkeypatch.setattr(metrics_module, "train_probe", counting)
        schema = FactorSchema(("a", "b", "c", "d"), (2, 3, 2, 2))
        rep = generate(GeneratorSpec(kind="ideal", schema=schema, samples_per_cell=2,
                                     noise_sigma=0.1, seed=1))
        compute_metric_report(rep, config=TrainConfig(seed=7, epochs=1))
        assert [kind for _, _, kind, _ in calls] == ["mlp", "mlp", "linear"]
        train_rows = metrics_module._report_split(rep, 7)[1][0]
        for features, labels, _, rows in calls:
            assert features is rep.latents and labels is rep.labels
            assert len(rows) == 4 and all(np.array_equal(r, train_rows) for r in rows)

    def test_numpy_integer_bins_recorded_as_int(self, variant_b_rep):
        report = compute_metric_report(variant_b_rep, n_bins=np.int64(8),
                                       config=TrainConfig(seed=7, epochs=1))
        assert type(report["config"]["n_bins"]) is int
        assert report["importance"] == importance_matrix(variant_b_rep, n_bins=8).to_json_dict()

    def test_unknown_align_mode_rejected(self, variant_a_rep, monkeypatch):
        # Before the importance matrix is built.
        calls = []
        monkeypatch.setattr(metrics_module, "importance_matrix",
                            lambda *args, **kwargs: calls.append(args))
        with pytest.raises(ValidationError, match="align mode 'hungarian'"):
            compute_metric_report(variant_a_rep, align_mode="hungarian")
        assert calls == []

    def test_render_table(self, variant_a_report):
        text = render_metric_table(variant_a_report)
        lines = text.strip().split("\n")
        assert len(lines) == 5
        assert lines[0].split() == ["metric", "colour", "shape", "mean"]
        assert lines[1].startswith("SNC")
        assert lines[2].startswith("linear")
        assert lines[3].startswith("MLP")
        assert lines[4].startswith("NK")
        snc_cells = lines[1].split()
        assert float(snc_cells[1]) == pytest.approx(0.5, abs=5e-5)
        assert float(snc_cells[3]) == pytest.approx(0.25, abs=5e-5)
