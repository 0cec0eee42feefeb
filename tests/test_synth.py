"""Tests for the synthetic representation generators."""

import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import detangle.synth as synth
from detangle.dataset import FactorSchema
from detangle.errors import ValidationError
from detangle.infotheory import mutual_information
from detangle.synth import (
    DEFAULT_MAX_ROWS,
    GENERATOR_KINDS,
    GeneratorSpec,
    factor_grid,
    generate,
)


def row_multiset(rep):
    rows = np.column_stack([rep.latents, rep.labels.astype(np.float64)])
    return Counter(map(tuple, rows.tolist()))


class TestFactorGrid:
    def test_lexicographic_order(self):
        schema = FactorSchema(("a", "b"), (2, 3))
        grid = factor_grid(schema)
        expected = [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]
        assert [tuple(r) for r in grid] == expected

    def test_copies_repeat_each_combination_consecutively(self):
        schema = FactorSchema(("a",), (2,))
        grid = factor_grid(schema, copies=3)
        assert [r[0] for r in grid] == [0, 0, 0, 1, 1, 1]

    def test_row_cap_enforced(self):
        # Checked before the grid is built, so the oversized request is cheap.
        schema = FactorSchema(("a", "b"), (10, 10))
        with pytest.raises(ValidationError, match="cap"):
            factor_grid(schema, copies=DEFAULT_MAX_ROWS // 100 + 1)

    def test_copies_must_be_positive(self):
        schema = FactorSchema(("a",), (2,))
        with pytest.raises(ValidationError):
            factor_grid(schema, copies=0)


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValidationError, match="kind"):
            GeneratorSpec(kind="fractal")

    def test_angle_requires_rotated(self):
        with pytest.raises(ValidationError, match="angle"):
            GeneratorSpec(kind="xor", angle=0.3)

    def test_rotated_requires_angle(self):
        schema = FactorSchema(("a", "b"), (4, 4))
        with pytest.raises(ValidationError, match="angle"):
            GeneratorSpec(kind="rotated", schema=schema)

    def test_rotated_requires_two_factors(self):
        schema = FactorSchema(("a", "b", "c"), (2, 2, 2))
        with pytest.raises(ValidationError, match="2 factors"):
            GeneratorSpec(kind="rotated", schema=schema, angle=0.1)

    def test_joint_code_requires_two_plus_factors(self):
        schema = FactorSchema(("a",), (4,))
        with pytest.raises(ValidationError, match="factors"):
            GeneratorSpec(kind="joint_code", schema=schema)

    def test_parametric_kinds_require_schema(self):
        with pytest.raises(ValidationError, match="schema"):
            GeneratorSpec(kind="ideal")

    def test_table1_schema_shape_checked(self):
        schema = FactorSchema(("a", "b"), (2, 3))
        with pytest.raises(ValidationError, match="binary"):
            GeneratorSpec(kind="table1_a", schema=schema)

    def test_xor_schema_shape_checked(self):
        schema = FactorSchema(("a", "b"), (2, 2))
        with pytest.raises(ValidationError, match="binary"):
            GeneratorSpec(kind="xor", schema=schema)

    def test_negative_sigma_rejected(self):
        schema = FactorSchema(("a", "b"), (2, 2))
        with pytest.raises(ValidationError, match="sigma"):
            GeneratorSpec(kind="ideal", schema=schema, noise_sigma=-0.5)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf])
    def test_non_finite_sigma_rejected(self, sigma):
        schema = FactorSchema(("a", "b"), (2, 2))
        with pytest.raises(ValidationError, match=f"must be >= 0 and finite, got {sigma}"):
            GeneratorSpec(kind="ideal", schema=schema, noise_sigma=sigma)

    @pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
    def test_non_finite_angle_rejected(self, angle):
        schema = FactorSchema(("a", "b"), (2, 2))
        with pytest.raises(ValidationError, match=f"angle must be finite, got {angle}"):
            GeneratorSpec(kind="rotated", schema=schema, angle=angle)

    def test_samples_per_cell_must_be_positive(self):
        with pytest.raises(ValidationError):
            GeneratorSpec(kind="xor", samples_per_cell=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValidationError, match="seed must be >= 0, got -1"):
            GeneratorSpec(kind="xor", seed=-1)

    @pytest.mark.parametrize("value", [1.5, 2.0, True, None])
    @pytest.mark.parametrize("field", ["samples_per_cell", "seed"])
    def test_non_integer_count_or_seed_rejected(self, field, value):
        with pytest.raises(ValidationError, match=f"{field} must be an integer, got {value!r}"):
            GeneratorSpec(kind="table1_a", **{field: value})

    def test_numpy_integers_stored_as_int(self):
        spec = GeneratorSpec(kind="table1_a", samples_per_cell=np.int64(2), seed=np.uint8(3))
        assert (spec.samples_per_cell, spec.seed) == (2, 3)
        assert type(spec.samples_per_cell) is int and type(spec.seed) is int
        assert generate(spec).n_rows == 16

    def test_all_kinds_generate(self):
        schema = FactorSchema(("a", "b"), (2, 2))
        for kind in GENERATOR_KINDS:
            kwargs = {"kind": kind, "samples_per_cell": 2, "seed": 1}
            if kind == "rotated":
                kwargs.update(schema=schema, angle=0.3)
            elif kind in ("ideal", "joint_code", "noise"):
                kwargs.update(schema=schema)
            rep = generate(GeneratorSpec(**kwargs))
            assert rep.n_rows > 0


class TestWorkedExampleA:
    def test_exact_base_population(self):
        rep = generate(GeneratorSpec(kind="table1_a"))
        assert rep.n_rows == 8
        expected = Counter(
            {
                (0.0, 0.0, 0.0, 0.0): 1,
                (0.0, 1.0, 0.0, 0.0): 1,
                (0.0, 1.0, 1.0, 0.0): 1,
                (1.0, 0.0, 1.0, 0.0): 1,
                (0.0, 0.0, 0.0, 1.0): 1,
                (1.0, 1.0, 0.0, 1.0): 1,
                (1.0, 0.0, 1.0, 1.0): 1,
                (1.0, 1.0, 1.0, 1.0): 1,
            }
        )
        assert row_multiset(rep) == expected

    def test_replication_scales_multiset(self):
        base = row_multiset(generate(GeneratorSpec(kind="table1_a")))
        big = row_multiset(generate(GeneratorSpec(kind="table1_a", samples_per_cell=5)))
        assert big == Counter({k: 5 * v for k, v in base.items()})

    def test_informative_neuron_agreement(self):
        # z0 matches each factor on exactly 6 of 8 rows (75%).
        rep = generate(GeneratorSpec(kind="table1_a"))
        z0 = rep.latents[:, 0].astype(np.int64)
        assert np.sum(z0 == rep.labels[:, 0]) == 6
        assert np.sum(z0 == rep.labels[:, 1]) == 6

    def test_second_neuron_uninformative(self):
        rep = generate(GeneratorSpec(kind="table1_a", samples_per_cell=4))
        z1 = rep.latents[:, 1].astype(np.int64)
        assert mutual_information(z1, rep.labels[:, 0]) == 0.0
        assert mutual_information(z1, rep.labels[:, 1]) == 0.0
        assert mutual_information(z1, rep.latents[:, 0].astype(np.int64)) == 0.0

    def test_schema_defaults(self):
        rep = generate(GeneratorSpec(kind="table1_a"))
        assert rep.schema.names == ("colour", "shape")
        assert rep.schema.cardinalities == (2, 2)


class TestWorkedExampleB:
    def test_population_counts(self):
        rep = generate(GeneratorSpec(kind="table1_b"))
        assert rep.n_rows == 80
        z0 = rep.latents[:, 0].astype(np.int64)
        z1 = rep.latents[:, 1].astype(np.int64)
        colour, shape_ = rep.labels[:, 0], rep.labels[:, 1]
        # z0 agrees with colour on diagonal cells and is balanced off it:
        # 20 + 20 + 10 + 10 = 60 of 80 rows.
        assert np.sum(z0 == colour) == 60
        assert np.sum(z0 == shape_) == 60
        # z1 agrees with shape on 14 of every 20-row cell.
        assert np.sum(z1 == shape_) == 56
        for c in (0, 1):
            for s in (0, 1):
                cell = (colour == c) & (shape_ == s)
                assert np.sum(cell) == 20
                assert np.sum(z1[cell] == s) == 14

    def test_z1_balanced_against_z0_within_cells(self):
        # Within each cell, z1's agreement splits 7/3 across each z0 block,
        # keeping z0 and z1 exactly independent given the cell.
        rep = generate(GeneratorSpec(kind="table1_b"))
        z0 = rep.latents[:, 0].astype(np.int64)
        z1 = rep.latents[:, 1].astype(np.int64)
        colour, shape_ = rep.labels[:, 0], rep.labels[:, 1]
        for c in (0, 1):
            for s in (0, 1):
                if c == s:
                    continue
                cell = (colour == c) & (shape_ == s)
                for z0_val in (0, 1):
                    block = cell & (z0 == z0_val)
                    assert np.sum(block) == 10
                    assert np.sum(z1[block] == s) == 7

    def test_z1_shape_mutual_information(self):
        # I(z1; shape) for a binary pair with 70% agreement:
        # 1 - H(0.7) = 1 + 0.7 log2 0.7 + 0.3 log2 0.3.
        rep = generate(GeneratorSpec(kind="table1_b"))
        z1 = rep.latents[:, 1].astype(np.int64)
        expected = 1.0 + 0.7 * math.log2(0.7) + 0.3 * math.log2(0.3)
        got = mutual_information(z1, rep.labels[:, 1])
        assert got == pytest.approx(expected, abs=1e-12)

    def test_replication_scales_multiset(self):
        base = row_multiset(generate(GeneratorSpec(kind="table1_b")))
        big = row_multiset(generate(GeneratorSpec(kind="table1_b", samples_per_cell=3)))
        assert big == Counter({k: 3 * v for k, v in base.items()})


class TestXor:
    def test_exact_structure(self):
        rep = generate(GeneratorSpec(kind="xor", samples_per_cell=2))
        assert rep.n_rows == 8
        assert rep.n_neurons == 2
        carrier = rep.latents[:, 0].astype(np.int64)
        masked = rep.latents[:, 1].astype(np.int64)
        parity = rep.labels[:, 0]
        assert np.array_equal(carrier ^ masked, parity)
        # Each neuron alone is independent of the factor.
        assert mutual_information(carrier, parity) == 0.0
        assert mutual_information(masked, parity) == 0.0

    def test_redundant_variant_prepends_factor_copy(self):
        rep = generate(GeneratorSpec(kind="redundant_xor", samples_per_cell=2))
        assert rep.n_neurons == 3
        parity = rep.labels[:, 0]
        assert np.array_equal(rep.latents[:, 0].astype(np.int64), parity)
        carrier = rep.latents[:, 1].astype(np.int64)
        masked = rep.latents[:, 2].astype(np.int64)
        assert np.array_equal(carrier ^ masked, parity)

    def test_sampled_mode_keeps_xor_identity(self):
        rep = generate(
            GeneratorSpec(kind="xor", samples_per_cell=200, exact_population=False, seed=3)
        )
        carrier = rep.latents[:, 0].astype(np.int64)
        masked = rep.latents[:, 1].astype(np.int64)
        assert np.array_equal(carrier ^ masked, rep.labels[:, 0])
        # Coin frequencies are approximate, not exact, in sampled mode.
        assert 0.4 < carrier.mean() < 0.6


class TestParametricFamilies:
    def test_ideal_noiseless_latents_equal_labels(self):
        schema = FactorSchema(("a", "b"), (3, 2))
        rep = generate(GeneratorSpec(kind="ideal", schema=schema, samples_per_cell=4))
        assert np.array_equal(rep.latents, rep.labels.astype(np.float64))

    def test_ideal_noise_is_seeded_and_bounded(self):
        schema = FactorSchema(("a", "b"), (3, 2))
        spec = GeneratorSpec(kind="ideal", schema=schema, samples_per_cell=4, noise_sigma=0.1, seed=5)
        r1, r2 = generate(spec), generate(spec)
        assert np.array_equal(r1.latents, r2.latents)
        residual = r1.latents - r1.labels.astype(np.float64)
        assert 0.0 < np.abs(residual).max() < 1.0

    def test_rotated_equals_ideal_times_rotation(self):
        schema = FactorSchema(("a", "b"), (4, 4))
        theta = math.pi / 8
        ideal = generate(
            GeneratorSpec(kind="ideal", schema=schema, samples_per_cell=3, noise_sigma=0.05, seed=9)
        )
        rotated = generate(
            GeneratorSpec(
                kind="rotated", schema=schema, samples_per_cell=3, noise_sigma=0.05, seed=9,
                angle=theta,
            )
        )
        c, s = math.cos(theta), math.sin(theta)
        rotation = np.array([[c, -s], [s, c]])
        np.testing.assert_allclose(rotated.latents, ideal.latents @ rotation.T, atol=1e-12)
        assert np.array_equal(rotated.labels, ideal.labels)

    def test_joint_code_neuron_is_a_bijection_of_cells(self):
        schema = FactorSchema(("a", "b"), (4, 4))
        rep = generate(GeneratorSpec(kind="joint_code", schema=schema, samples_per_cell=5, seed=2))
        code = rep.latents[:, 0]
        cells = rep.labels[:, 0] * 4 + rep.labels[:, 1]
        # One code level per cell, scaled onto [0, 1].
        mapping = {}
        for value, cell in zip(code, cells):
            mapping.setdefault(cell, set()).add(value)
        assert len(mapping) == 16
        assert all(len(v) == 1 for v in mapping.values())
        levels = sorted(v.pop() for v in mapping.values())
        np.testing.assert_allclose(levels, np.arange(16) / 15.0, atol=1e-15)

    def test_joint_code_shuffle_depends_on_seed(self):
        schema = FactorSchema(("a", "b"), (4, 4))
        r1 = generate(GeneratorSpec(kind="joint_code", schema=schema, seed=1))
        r2 = generate(GeneratorSpec(kind="joint_code", schema=schema, seed=2))
        assert not np.array_equal(r1.latents[:, 0], r2.latents[:, 0])

    def test_joint_code_filler_width(self):
        schema = FactorSchema(("a", "b", "c"), (2, 2, 2))
        rep = generate(GeneratorSpec(kind="joint_code", schema=schema, seed=4))
        assert rep.n_neurons == 3

    def test_noise_latents_ignore_labels(self):
        schema = FactorSchema(("a", "b"), (2, 2))
        spec = GeneratorSpec(kind="noise", schema=schema, samples_per_cell=50, seed=8)
        r1, r2 = generate(spec), generate(spec)
        assert np.array_equal(r1.latents, r2.latents)
        assert r1.latents.shape == (200, 2)
        # Default unit sigma.
        assert 0.5 < r1.latents.std() < 1.5

    def test_noise_sigma_scales(self):
        schema = FactorSchema(("a", "b"), (2, 2))
        small = generate(GeneratorSpec(kind="noise", schema=schema, samples_per_cell=50, seed=8, noise_sigma=0.01))
        assert np.abs(small.latents).max() < 0.1


class TestDeterminism:
    @pytest.mark.parametrize("kind", ["table1_a", "table1_b", "xor", "redundant_xor"])
    def test_sampled_mode_reproducible(self, kind):
        schema = None
        spec = GeneratorSpec(kind=kind, schema=schema, samples_per_cell=30, exact_population=False, seed=21)
        r1, r2 = generate(spec), generate(spec)
        assert np.array_equal(r1.latents, r2.latents)
        assert np.array_equal(r1.labels, r2.labels)

    def test_sampled_table1_a_approximates_agreement(self):
        spec = GeneratorSpec(kind="table1_a", samples_per_cell=2000, exact_population=False, seed=33)
        rep = generate(spec)
        z0 = rep.latents[:, 0].astype(np.int64)
        agree = np.mean(z0 == rep.labels[:, 0])
        assert agree == pytest.approx(0.75, abs=0.02)

    def test_row_cap_applies_to_generation(self):
        schema = FactorSchema(("a", "b"), (4, 4))
        with pytest.raises(ValidationError, match="cap"):
            generate(GeneratorSpec(kind="ideal", schema=schema,
                                   samples_per_cell=DEFAULT_MAX_ROWS // 16 + 1))

    @pytest.mark.parametrize("exact", [True, False])
    @pytest.mark.parametrize("kind", ["table1_a", "table1_b", "xor", "redundant_xor", "ideal"])
    def test_row_cap_counts_each_kinds_rows(self, monkeypatch, kind, exact):
        # The cap admits exactly three copies of the one-copy population.
        schema = FactorSchema(("a", "b"), (2, 3)) if kind == "ideal" else None
        spec = dict(kind=kind, schema=schema, exact_population=exact)
        rows = generate(GeneratorSpec(**spec)).n_rows
        monkeypatch.setattr(synth, "DEFAULT_MAX_ROWS", 3 * rows)
        assert generate(GeneratorSpec(**spec, samples_per_cell=3)).n_rows == 3 * rows
        with pytest.raises(ValidationError, match=f"would make {4 * rows} rows"):
            generate(GeneratorSpec(**spec, samples_per_cell=4))

    def test_row_cap_checked_before_any_row_is_made(self, monkeypatch):
        monkeypatch.setattr(synth, "DEFAULT_MAX_ROWS", 1000)
        spec = GeneratorSpec(kind="table1_b", samples_per_cell=1000)
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match="80000 rows, exceeding the cap of 1000"):
                generate(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5e6
