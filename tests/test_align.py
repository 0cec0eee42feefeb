"""Assignment solver vs exhaustive enumeration, tie-breaks, diagram export."""

import itertools
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import linear_sum_assignment

from detangle import align as align_module
from detangle.align import (
    Alignment,
    GREEDY,
    INJECTIVE,
    assignment_objective,
    export_hinton,
    greedy_alignment,
    hinton_svg,
    hinton_text,
    injective_alignment,
    max_weight_assignment,
)
from detangle.errors import ValidationError
from detangle.infotheory import ImportanceMatrix


def as_imp(values):
    """An ImportanceMatrix over values, its factors named f0, f1, ..."""
    values = np.asarray(values, dtype=np.float64)
    names = tuple(f"f{j}" for j in range(values.shape[0]))
    return ImportanceMatrix(values=values, factor_names=names, n_bins=20, strategy="quantile")


def brute_force(values):
    """First maximal permutation in lexicographic order (exact comparison)."""
    n, m = values.shape
    best, best_obj = None, -math.inf
    for perm in itertools.permutations(range(m), n):
        obj = assignment_objective(values, perm)
        if obj > best_obj:
            best, best_obj = perm, obj
    return best, best_obj


def optima(values):
    """Every permutation that reaches the exhaustive maximum exactly."""
    n, m = values.shape
    perms = list(itertools.permutations(range(m), n))
    objs = [assignment_objective(values, perm) for perm in perms]
    return [perm for perm, obj in zip(perms, objs) if obj == max(objs)]


class TestMaxWeightAssignment:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_exhaustive_on_dyadic_grid(self, data):
        # Entries are multiples of 1/16, so every objective sum and every
        # solver potential is exact and ties are genuine float equalities;
        # few levels make many optima tie.
        n = data.draw(st.integers(1, 6))
        m = data.draw(st.integers(n, 8))
        levels = data.draw(st.sampled_from([1, 2, 16]))
        values = data.draw(arrays(np.int64, (n, m), elements=st.integers(0, levels))) / 16.0
        expected, expected_obj = brute_force(values)
        got, got_obj = max_weight_assignment(values)
        assert got == expected
        assert got_obj == expected_obj

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_objective_equals_scipy_optimum(self, data):
        n = data.draw(st.integers(1, 7))
        m = data.draw(st.integers(n, 12))
        values = data.draw(arrays(np.float64, (n, m), elements=st.floats(-100.0, 100.0)))
        rows, cols = linear_sum_assignment(values, maximize=True)
        got, got_obj = max_weight_assignment(values)
        assert len(set(got)) == n
        assert got_obj == assignment_objective(values, got)
        assert got_obj == pytest.approx(values[rows, cols].sum(), abs=1e-9)

    def test_matches_exhaustive_on_continuous_draws(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(1, 6))
            m = int(rng.integers(n, 8))
            values = rng.random(size=(n, m))
            expected, expected_obj = brute_force(values)
            got, got_obj = max_weight_assignment(values)
            assert got_obj == pytest.approx(expected_obj, abs=1e-12)
            assert got == expected

    def test_lexicographic_tie_break_all_equal(self):
        got, obj = max_weight_assignment(np.ones((3, 5)))
        assert got == (0, 1, 2)
        assert obj == 3.0

    def test_lexicographic_tie_break_two_optima(self):
        values = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        # (0,1) and (2,1) both score 2; the smaller vector wins.
        got, obj = max_weight_assignment(values)
        assert got == (0, 1) and obj == 2.0

    def test_unique_optimum_anti_diagonal(self):
        got, obj = max_weight_assignment(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert got == (1, 0) and obj == 2.0

    def test_rectangular_leaves_columns_unused(self):
        values = np.array([[0.1, 0.9, 0.2, 0.8]])
        assert max_weight_assignment(values)[0] == (1,)

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        values = rng.integers(0, 17, size=(4, 6)) / 16.0
        base, _ = max_weight_assignment(values)
        scaled, _ = max_weight_assignment(values * 4.0)
        assert base == scaled

    def test_negative_entries_allowed(self):
        values = np.array([[-1.0, -3.0], [-2.0, -1.0]])
        got, obj = max_weight_assignment(values)
        assert got == brute_force(values)[0]
        assert obj == -2.0

    def test_errors(self):
        with pytest.raises(ValidationError, match="n=3 > m=2"):
            max_weight_assignment(np.ones((3, 2)))
        with pytest.raises(ValidationError):
            max_weight_assignment(np.array([[np.nan, 1.0]]))
        with pytest.raises(ValidationError):
            max_weight_assignment(np.empty((0, 0)))

    def test_solver_of_no_rows_assigns_nothing(self):
        assert align_module._solve_max(np.empty((0, 4))) == []

    def test_diagonal_optimum_needs_only_the_base_solve(self, monkeypatch):
        # Each row's held column is its smallest free one, so no row has a
        # column to try. Re-solving each row's held column took n solves.
        shapes, solve = [], align_module._solve_max
        monkeypatch.setattr(align_module, "_solve_max",
                            lambda values: shapes.append(values.shape) or solve(values))
        values = np.eye(6) + 0.25
        assert max_weight_assignment(values) == (tuple(range(6)), 7.5)
        assert shapes == [(6, 6)]

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_permuting_columns_permutes_a_single_optimum(self, data):
        # The neuron-order relation: between tied optima the tie-break reads
        # column order, so only a single optimum must move with its columns.
        # Dyadic sums are exact, so the objective keeps its bytes regardless.
        n = data.draw(st.integers(1, 5))
        m = data.draw(st.integers(n, 7))
        levels = data.draw(st.sampled_from([1, 2, 16]))
        values = data.draw(arrays(np.int64, (n, m), elements=st.integers(0, levels))) / 16.0
        perm = data.draw(st.permutations(range(m)))
        got, obj = max_weight_assignment(values)
        moved, moved_obj = max_weight_assignment(values[:, perm])
        assert np.float64(moved_obj).tobytes() == np.float64(obj).tobytes()
        if len(optima(values)) == 1:
            assert moved == tuple(perm.index(c) for c in got)

    def test_permuting_columns_permutes_a_continuous_optimum(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(1, 6))
            m = int(rng.integers(n, 8))
            values, perm = rng.random(size=(n, m)), rng.permutation(m)
            got, obj = max_weight_assignment(values)
            assert len(optima(values)) == 1
            assert max_weight_assignment(values[:, perm]) == (
                tuple(int(np.flatnonzero(perm == c)[0]) for c in got), obj)

    @pytest.mark.parametrize("values, expected, objective", [
        (np.random.default_rng(12).random((12, 96)),
         (73, 49, 18, 27, 19, 95, 78, 12, 9, 10, 31, 54), "a17573244aba2740"),
        (np.random.default_rng(12).integers(0, 4, (12, 96)) / 4.0,
         (2, 5, 3, 6, 1, 4, 14, 0, 8, 13, 15, 7), "0000000000002240"),
    ], ids=["continuous", "tied"])
    def test_seeded_wide_matrix_pin(self, values, expected, objective):
        # Pinned from the pass that re-solved every row's held column.
        got, obj = max_weight_assignment(values)
        assert got == expected and np.float64(obj).tobytes().hex() == objective


class TestAlignmentModes:
    def test_greedy_allows_shared_neuron(self):
        values = np.array([[0.5, 0.4], [0.9, 0.1]])
        got = greedy_alignment(as_imp(values))
        assert got.mode == GREEDY
        assert got.assignment == (0, 0)
        assert got.objective_value == 1.4

    def test_greedy_tie_takes_lowest_index(self):
        assert greedy_alignment(as_imp([[0.3, 0.3, 0.1]])).assignment == (0,)

    def test_injective_forces_distinct_neurons(self):
        values = np.array([[0.5, 0.4], [0.9, 0.1]])
        got = injective_alignment(as_imp(values))
        assert got.mode == INJECTIVE
        assert got.assignment == (1, 0)
        assert got.objective_value == pytest.approx(1.3)

    def test_modes_agree_when_argmaxes_are_distinct(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(n, 7))
            values = rng.random((n, m))
            # Plant strictly dominant entries in distinct columns.
            cols = rng.permutation(m)[:n]
            for j, c in enumerate(cols):
                values[j, c] = 10.0 + j
            imp = as_imp(values)
            assert greedy_alignment(imp).assignment == injective_alignment(imp).assignment

    def test_all_zero_matrix_degenerate(self):
        imp = as_imp(np.zeros((2, 4)))
        inj = injective_alignment(imp)
        assert inj.degenerate and inj.assignment == (0, 1) and inj.objective_value == 0.0
        gre = greedy_alignment(imp)
        assert gre.degenerate and gre.assignment == (0, 0)

    def test_accepts_importance_matrix(self):
        imp = ImportanceMatrix(
            values=np.array([[0.2, 0.7], [0.6, 0.1]]),
            factor_names=("a", "b"),
            n_bins=20,
            strategy="quantile",
        )
        got = injective_alignment(imp)
        assert got.assignment == (1, 0)

    def test_json_payload(self):
        payload = injective_alignment(as_imp([[1.0, 0.0], [0.0, 1.0]])).to_json_dict()
        assert payload == {
            "schema_version": 1,
            "mode": "injective",
            "assignment": [0, 1],
            "objective_bits": 2.0,
            "degenerate": False,
        }


class TestHintonExport:
    VALUES = np.array([[0.8, 0.0], [0.4, 0.8]])

    def imp(self):
        return ImportanceMatrix(
            values=self.VALUES, factor_names=("colour", "shape"),
            n_bins=20, strategy="quantile",
        )

    def test_svg_draws_one_square_per_nonzero(self):
        svg = hinton_svg(self.imp())
        assert svg.count('class="cell"') == 3
        assert svg.count('class="aligned"') == 0

    def test_svg_marks_aligned_cells(self):
        alignment = injective_alignment(self.imp())
        svg = hinton_svg(self.imp(), alignment)
        assert svg.count('class="aligned"') == 2
        assert "#d62728" in svg

    def test_svg_is_valid_xml_with_labels(self):
        svg = hinton_svg(self.imp(), injective_alignment(self.imp()))
        root = ET.fromstring(svg)
        texts = [el.text for el in root.iter("{http://www.w3.org/2000/svg}text")]
        assert texts == ["z0", "z1", "colour", "shape"]

    def test_svg_escapes_factor_names(self):
        imp = ImportanceMatrix(
            values=np.array([[1.0]]), factor_names=("a<b&c",), n_bins=4, strategy="quantile"
        )
        svg = hinton_svg(imp)
        assert "a&lt;b&amp;c" in svg
        ET.fromstring(svg)

    def test_svg_bytes_deterministic(self):
        a = hinton_svg(self.imp(), injective_alignment(self.imp()))
        b = hinton_svg(self.imp(), injective_alignment(as_imp(self.VALUES.copy())))
        assert a == b

    def test_largest_cell_spans_full_scale(self):
        svg = hinton_svg(as_imp([[1.0, 0.5]]))
        assert 'width="22.00"' in svg  # cell size 26 minus 4 padding
        assert 'width="11.00"' in svg

    def test_text_rendering_brackets_aligned(self):
        alignment = injective_alignment(self.imp())
        text = hinton_text(self.imp(), alignment)
        lines = text.splitlines()
        assert lines[0].split() == ["z0", "z1"]
        assert "[########]" in lines[1]  # colour aligned to z0, full scale
        assert "[########]" in lines[2]  # shape aligned to z1
        assert "####    " in lines[2]  # half-scale unaligned cell

    def test_export_writes_both_files(self, tmp_path):
        svg_path = tmp_path / "imp.svg"
        text_path = tmp_path / "imp.txt"
        export_hinton(self.imp(), injective_alignment(self.imp()),
                      svg_path=svg_path, text_path=text_path)
        assert svg_path.read_text() == hinton_svg(self.imp(), injective_alignment(self.imp()))
        assert text_path.read_text() == hinton_text(self.imp(), injective_alignment(self.imp()))
