"""Entropy / mutual information estimators and the importance matrix."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detangle.dataset import QUANTILE, FactorSchema, RepresentationSet, discretize_neuron
from detangle.errors import AlphabetOverflowError, ValidationError
from detangle.infotheory import (
    JOINT_CELL_CAP,
    ImportanceMatrix,
    count_table,
    entropy,
    entropy_from_counts,
    importance_matrix,
    mutual_information,
)


def h2(p: float) -> float:
    """Analytic binary entropy in bits."""
    if p in (0.0, 1.0):
        return 0.0
    return -(p * math.log2(p) + (1 - p) * math.log2(1 - p))


class TestEntropy:
    def test_uniform_binary_is_one_bit(self):
        assert entropy(np.array([0, 1, 0, 1])) == 1.0

    def test_three_to_one_split_matches_analytic(self):
        # 75/25 split: 0.8112781244591328 bits
        values = np.array([0, 0, 0, 1])
        assert entropy(values) == pytest.approx(h2(0.75), abs=1e-15)
        assert entropy(values) == pytest.approx(0.8112781244591328, abs=1e-15)

    def test_seventy_thirty_split(self):
        values = np.array([0] * 7 + [1] * 3)
        assert entropy(values) == pytest.approx(h2(0.7), abs=1e-15)

    def test_constant_is_zero(self):
        assert entropy(np.zeros(5, dtype=int)) == 0.0

    def test_label_values_are_irrelevant(self):
        assert entropy(np.array([10, 10, 42, 42])) == 1.0

    def test_from_counts_and_probs_agree(self):
        counts = np.array([3, 1, 4, 0])
        p = np.sort(counts[counts > 0] / counts.sum())
        assert entropy_from_counts(counts) == pytest.approx(-(p * np.log2(p)).sum(), abs=1e-15)

    def test_errors(self):
        with pytest.raises(ValidationError):
            entropy(np.array([]))
        with pytest.raises(ValidationError):
            entropy(np.array([0.5, 1.5]))
        with pytest.raises(ValidationError):
            entropy_from_counts(np.zeros(3))


class TestMutualInformation:
    def test_identical_variables(self):
        x = np.array([0, 1, 2, 0, 1, 2])
        assert mutual_information(x, x) == pytest.approx(math.log2(3), abs=1e-12)

    def test_independent_exact_population(self):
        # Full product population: MI is exactly 0 up to float rounding.
        x = np.repeat([0, 1], 6)
        y = np.tile([0, 1, 2], 4)
        assert abs(mutual_information(x, y)) < 1e-15

    def test_toy_informative_neuron(self):
        # 75%-informative binary channel: 1 - H(0.75) bits.
        x = np.array([0, 0, 0, 1, 1, 1, 1, 0])
        y = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        expected = 1.0 - h2(0.75)
        assert mutual_information(x, y) == pytest.approx(expected, abs=1e-15)
        assert mutual_information(x, y) == pytest.approx(0.18872187554086717, abs=1e-12)

    def test_exact_symmetry_randomized(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(2, 40))
            x = rng.integers(0, int(rng.integers(2, 6)), n)
            y = rng.integers(0, int(rng.integers(2, 6)), n)
            assert mutual_information(x, y) == mutual_information(y, x)

    def test_bounded_by_marginal_entropies(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            x = rng.integers(0, 4, 60)
            y = rng.integers(0, 3, 60)
            mi = mutual_information(x, y)
            assert -1e-12 <= mi <= min(entropy(x), entropy(y)) + 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            mutual_information(np.array([0, 1]), np.array([0, 1, 0]))

    def test_mutual_information_reads_the_table(self):
        assert mutual_information(np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1])) == 0.0
        assert mutual_information(np.array([0, 0, 1, 1]), np.array([1, 1, 0, 0])) == 1.0

    def test_entropy_and_mi_accept_negative_values(self):
        x = np.array([-1, 0, 0, -1])
        assert entropy(x) == 1.0
        assert mutual_information(x, np.array([-5, 3, 3, -5])) == 1.0

    def test_integer_valued_floats_are_read_as_integers(self):
        assert entropy(np.array([2.0, 2.0, -5.0, -5.0])) == 1.0
        assert mutual_information(np.array([0.0, 1.0, 0.0, 1.0]), np.array([3, 4, 3, 4])) == 1.0


def joint_mutual_information(xs, y):
    """MI between the tuple (x_1, ..., x_k) and y: the tuple's dense codes
    fused into one product-alphabet code."""
    codes = [np.unique(x, return_inverse=True)[1] for x in xs]
    return mutual_information(np.ravel_multi_index(codes, [c.max() + 1 for c in codes]), y)


class TestJointMutualInformation:
    def test_xor_pair(self):
        # Neither input alone is informative; the pair determines y exactly.
        g = np.repeat([0, 1], 2)
        c = np.tile([0, 1], 2)
        y = g ^ c
        assert abs(mutual_information(g, y)) < 1e-15
        assert abs(mutual_information(c, y)) < 1e-15
        assert joint_mutual_information([g, c], y) == pytest.approx(1.0, abs=1e-15)

    def test_single_variable_matches_pairwise(self):
        rng = np.random.default_rng(2)
        x = rng.integers(0, 5, 100)
        y = rng.integers(0, 3, 100)
        assert joint_mutual_information([x], y) == mutual_information(x, y)

    def test_fused_alphabet_counts_joint_cells(self):
        x1 = np.array([0, 0, 1, 1])
        x2 = np.array([0, 1, 0, 1])
        y = np.array([0, 1, 2, 3])
        assert joint_mutual_information([x1, x2], y) == pytest.approx(2.0, abs=1e-15)


class TestCountTable:
    def test_counts(self):
        rows = np.array([0, 0, 1, 1, 1])
        cols = np.array([0, 1, 0, 0, 1])
        assert np.array_equal(count_table(rows, cols, 2, 2), np.array([[1, 1], [2, 1]]))

    def test_explicit_alphabet_pads(self):
        counts = count_table(np.array([0, 0]), np.array([1, 1]), 3, 4)
        assert counts.shape == (3, 4)
        assert counts.sum() == counts[0, 1] == 2

    def test_cell_cap(self):
        # The cap counts cells of the given alphabets, before any allocation.
        with pytest.raises(AlphabetOverflowError, match="1000001 > 1000000"):
            count_table(np.array([0]), np.array([0]), JOINT_CELL_CAP + 1, 1)
        assert count_table(np.array([0]), np.array([0]), JOINT_CELL_CAP, 1).sum() == 1


class TestImportanceMatrix:
    def rep(self):
        # z0 mirrors g0 exactly; z1 is an independent checkerboard.
        labels = np.column_stack([np.repeat([0, 1], 8), np.tile([0, 1], 8)])
        latents = np.column_stack([labels[:, 0] * 2.0, np.tile([0.0, 1.0, 0.0, 1.0], 4)])
        schema = FactorSchema(("a", "b"), (2, 2))
        return RepresentationSet(latents, labels, schema)

    def test_values_and_shape(self):
        imp = importance_matrix(self.rep())
        assert imp.values.shape == (2, 2)
        assert imp.values[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert abs(imp.values[0, 1]) < 1e-12
        assert abs(imp.values[1, 0]) < 1e-12
        assert imp.factor_names == ("a", "b")

    def test_row_bounded_by_factor_entropy(self):
        rng = np.random.default_rng(4)
        schema = FactorSchema(("a", "b"), (3, 2))
        labels = np.column_stack([rng.integers(0, 3, 300), rng.integers(0, 2, 300)])
        latents = rng.normal(size=(300, 4))
        rep = RepresentationSet(latents, labels, schema)
        imp = importance_matrix(rep, n_bins=8)
        for j in range(2):
            bound = entropy(labels[:, j]) + 1e-12
            assert np.all(imp.values[j] <= bound)

    def test_strategy_and_bins_recorded(self):
        imp = importance_matrix(self.rep(), n_bins=6)
        assert imp.n_bins == 6 and imp.strategy == QUANTILE
        payload = imp.to_json_dict()
        assert payload["schema_version"] == 1
        assert len(payload["bits"]) == 2 and len(payload["bits"][0]) == 2

    def test_numpy_integer_bins_accepted(self):
        imp = importance_matrix(self.rep(), n_bins=np.int64(6))
        assert type(imp.n_bins) is int
        assert imp.to_json_dict() == importance_matrix(self.rep(), n_bins=6).to_json_dict()

    def test_deterministic(self):
        a = importance_matrix(self.rep()).values
        b = importance_matrix(self.rep()).values
        assert np.array_equal(a, b)

    def test_cell_cap_names_the_first_table_in_neuron_order(self):
        # z0 has 1000 bins, z1 2000; factor a has 600 classes, b 1100. Table
        # (a, z0) fits; (b, z0) is the first past the cap in neuron order,
        # (a, z1) the first in factor order.
        rows = np.arange(2000)
        latents = np.column_stack([rows // 2, rows]).astype(np.float64)
        labels = np.column_stack([rows % 600, rows % 1100])
        rep = RepresentationSet(latents, labels, FactorSchema(("a", "b"), (600, 1100)))
        with pytest.raises(AlphabetOverflowError, match="cap: 1100000 > 1000000 cells"):
            importance_matrix(rep, n_bins=2000)

    @pytest.mark.parametrize("values, names, match", [
        (np.zeros(2), ("a", "b"), "must be 2-D"),
        (np.zeros((2, 3)), ("a",), "row count must match factor_names"),
    ])
    def test_bad_values_rejected(self, values, names, match):
        with pytest.raises(ValidationError, match=match):
            ImportanceMatrix(values=values, factor_names=names, n_bins=2, strategy=QUANTILE)


# ---------------------------------------------------------------------------
# oracle and property tests
# ---------------------------------------------------------------------------


def reference_mi(x, y):
    """Pre-kernel algorithm: np.unique counts of x, of y, and of the (x, y) rows."""
    _, cx = np.unique(x, return_counts=True)
    _, cy = np.unique(y, return_counts=True)
    _, cxy = np.unique(np.stack([x, y], axis=1), axis=0, return_counts=True)
    return entropy_from_counts(cx) + entropy_from_counts(cy) - entropy_from_counts(cxy)


def reference_importance(rep, n_bins):
    """Per-pair importance: quantile-bin the neuron, then reference_mi against
    each factor."""
    values = np.zeros((rep.n_factors, rep.n_neurons))
    for i in range(rep.n_neurons):
        bins = discretize_neuron(rep.latents[:, i], n_bins=n_bins).bins
        for j in range(rep.n_factors):
            values[j, i] = reference_mi(bins, rep.labels[:, j])
    return values


@st.composite
def representation_sets(draw):
    """Small sets whose neurons range from a few levels (level-mapped bins,
    ties on boundaries) to continuous values mixed with the labels."""
    n = draw(st.integers(1, 3))
    m = draw(st.integers(n, n + 3))
    rows = draw(st.integers(1, 150))
    cards = draw(st.lists(st.integers(2, 6), min_size=n, max_size=n))
    levels = draw(st.sampled_from([1, 2, 4, 10_000]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    labels = np.column_stack([rng.integers(0, k, rows) for k in cards])
    noise = rng.integers(0, levels, (rows, m)).astype(np.float64)
    latents = noise + labels @ rng.integers(0, 3, (n, m))
    names = tuple(f"f{j}" for j in range(n))
    return RepresentationSet(latents, labels, FactorSchema(names, tuple(cards)))


discrete_pairs = st.integers(1, 80).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(-4, 4), min_size=n, max_size=n),
        st.lists(st.integers(-1000, 1000), min_size=n, max_size=n),
    )
)


class TestKernelOracle:
    @settings(max_examples=60, deadline=None)
    @given(rep=representation_sets(), n_bins=st.integers(1, 12))
    def test_importance_matrix_equals_unique_reference(self, rep, n_bins):
        imp = importance_matrix(rep, n_bins=n_bins)
        assert np.array_equal(imp.values, reference_importance(rep, n_bins))

    @settings(max_examples=60, deadline=None)
    @given(rep=representation_sets(), n_bins=st.integers(1, 12))
    def test_importance_rows_bounded_by_factor_entropy(self, rep, n_bins):
        imp = importance_matrix(rep, n_bins=n_bins)
        for j in range(rep.n_factors):
            assert np.all(imp.values[j] <= entropy(rep.labels[:, j]) + 1e-12)

    @settings(max_examples=150, deadline=None)
    @given(pair=discrete_pairs)
    def test_mi_symmetric_bounded_and_equal_to_reference(self, pair):
        x, y = (np.array(v) for v in pair)
        mi = mutual_information(x, y)
        assert mi == mutual_information(y, x)
        assert -1e-12 <= mi <= min(entropy(x), entropy(y)) + 1e-12
        assert mi == reference_mi(x, y)

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 60), k=st.integers(1, 3), data=st.data())
    def test_joint_mi_invariant_under_relabelling(self, n, k, data):
        column = st.lists(st.integers(-3, 3), min_size=n, max_size=n).map(np.array)
        xs = [data.draw(column) for _ in range(k)]
        y = data.draw(column)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))

        def relabel(v):
            # A random bijection of the value set onto spread-out integers.
            levels, codes = np.unique(v, return_inverse=True)
            image = rng.permutation(levels.size) * 7 - 50
            return image[codes.reshape(-1)]

        expected = joint_mutual_information(xs, y)
        assert joint_mutual_information([relabel(x) for x in xs], relabel(y)) == expected
        assert joint_mutual_information(xs[::-1], y) == expected
