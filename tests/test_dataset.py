"""Schema, CSV round trips, loader diagnostics, binning, and splits."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from detangle.dataset import (
    DEFAULT_BINS,
    EQUAL_WIDTH,
    FactorSchema,
    QUANTILE,
    RepresentationSet,
    discretize_neuron,
    expected_header,
    load_representation_set,
    load_schema,
    split_indices,
    write_representation_set,
    write_schema,
)
from detangle.errors import (
    HeaderMismatchError,
    LabelOutOfRangeError,
    MalformedCsvError,
    NonFiniteLatentError,
    SchemaError,
    SplitError,
    ValidationError,
)

SCHEMA = FactorSchema(("colour", "shape"), (2, 3))


# Floats a decimal round trip most easily gets wrong: negative zero, the
# smallest subnormal and normal, and the largest finite magnitudes.
EDGE_FLOATS = np.array([-0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308,
                        -1.7976931348623157e308])


def assert_partition(train, test, n):
    assert np.all(np.diff(train) > 0) and np.all(np.diff(test) > 0)
    assert np.array_equal(np.sort(np.concatenate([train, test])), np.arange(n))


def small_rep(n=12, m=3, seed=0):
    rng = np.random.default_rng(seed)
    latents = rng.normal(size=(n, m))
    labels = np.column_stack([rng.integers(0, 2, n), rng.integers(0, 3, n)])
    return RepresentationSet(latents, labels, SCHEMA)


class TestFactorSchema:
    def test_valid_roundtrip(self):
        payload = SCHEMA.to_json_dict()
        assert payload == {
            "factors": [
                {"name": "colour", "cardinality": 2},
                {"name": "shape", "cardinality": 3},
            ]
        }
        assert FactorSchema.from_json_dict(payload) == SCHEMA

    def test_index_of_name_and_int(self):
        assert SCHEMA.index_of("shape") == 1
        assert SCHEMA.index_of(0) == 0
        assert SCHEMA.index_of(np.int64(1)) == 1
        with pytest.raises(SchemaError):
            SCHEMA.index_of("size")
        with pytest.raises(SchemaError):
            SCHEMA.index_of(2)

    def test_index_of_tries_a_name_before_an_index(self):
        digits = FactorSchema(("10", "0"), (2, 2))
        assert digits.index_of("10") == 0
        assert digits.index_of("0") == 1
        assert digits.index_of(0) == 0
        assert digits.index_of("1") == 1
        assert SCHEMA.index_of("1") == 1
        with pytest.raises(SchemaError, match="factor index 10 out of range for 2 factors"):
            SCHEMA.index_of("10")
        for token in ("--1", "²", " 1"):
            with pytest.raises(SchemaError, match="unknown factor name"):
                SCHEMA.index_of(token)

    @pytest.mark.parametrize("token", [0.5, 1.7, 1.0, np.float64(0.0), True, False, None])
    def test_index_of_rejects_non_integer_tokens(self, token):
        with pytest.raises(SchemaError, match="is neither a name nor an integer index"):
            SCHEMA.index_of(token)

    @pytest.mark.parametrize(
        "names,cards",
        [
            ((), ()),
            (("a", "a"), (2, 2)),
            (("a",), (1,)),
            (("a", "b"), (2,)),
        ],
    )
    def test_invalid_schemas(self, names, cards):
        with pytest.raises(SchemaError):
            FactorSchema(names, cards)

    def test_from_json_dict_rejects_junk(self):
        with pytest.raises(SchemaError):
            FactorSchema.from_json_dict({"factors": []})
        with pytest.raises(SchemaError):
            FactorSchema.from_json_dict({"nope": 1})
        with pytest.raises(SchemaError):
            FactorSchema.from_json_dict({"factors": [{"name": "a"}]})
        with pytest.raises(SchemaError):
            FactorSchema.from_json_dict({"factors": [{"name": "a", "cardinality": "2"}]})


class TestRepresentationSet:
    def test_immutable_and_shapes(self):
        rep = small_rep()
        assert rep.n_rows == 12 and rep.n_neurons == 3 and rep.n_factors == 2
        with pytest.raises(ValueError):
            rep.latents[0, 0] = 5.0
        with pytest.raises(ValueError):
            rep.labels[0, 0] = 1

    def test_rejects_fewer_neurons_than_factors(self):
        with pytest.raises(ValidationError, match="m=1 < n=2"):
            RepresentationSet(np.zeros((4, 1)), np.zeros((4, 2), dtype=int), SCHEMA)

    def test_rejects_nan_latent(self):
        latents = np.zeros((4, 2))
        latents[2, 1] = np.nan
        with pytest.raises(NonFiniteLatentError) as exc:
            RepresentationSet(latents, np.zeros((4, 2), dtype=int), SCHEMA)
        assert exc.value.row == 2 and exc.value.line is None and exc.value.column == "z1"

    def test_rejects_out_of_range_label(self):
        labels = np.zeros((4, 2), dtype=int)
        labels[3, 1] = 3
        with pytest.raises(LabelOutOfRangeError):
            RepresentationSet(np.zeros((4, 2)), labels, SCHEMA)

    def test_rejects_non_integer_labels(self):
        with pytest.raises(ValidationError, match="integer"):
            RepresentationSet(np.zeros((4, 2)), np.full((4, 2), 0.5), SCHEMA)

    def test_rejects_string_labels(self):
        # The range check runs before any integer cast and cannot compare strings.
        with pytest.raises(ValidationError, match="integer"):
            RepresentationSet(np.zeros((4, 2)), np.full((4, 2), "1"), SCHEMA)

    def test_subset_keeps_order(self):
        rep = small_rep()
        sub = rep.subset(np.array([5, 1, 3]))
        assert np.array_equal(sub.latents, rep.latents[[5, 1, 3]])
        assert np.array_equal(sub.labels, rep.labels[[5, 1, 3]])
        with pytest.raises(ValidationError):
            rep.subset(np.array([], dtype=int))


class TestCsvIO:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_write_load_roundtrip_bit_exact(self, tmp_path, data):
        # tobytes(), not array_equal: array_equal treats -0.0 == 0.0.
        m = data.draw(st.integers(2, 5))
        drawn = data.draw(arrays(np.float64, (data.draw(st.integers(0, 20)), m),
                                 elements=st.floats(allow_nan=False, allow_infinity=False)))
        latents = np.vstack([np.repeat(EDGE_FLOATS[:, None], m, axis=1), drawn])
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        labels = np.column_stack([rng.integers(0, k, len(latents)) for k in SCHEMA.cardinalities])
        rep = RepresentationSet(latents, labels, SCHEMA)
        write_representation_set(rep, tmp_path / "data.csv", tmp_path / "schema.json")
        back = load_representation_set(tmp_path / "data.csv", tmp_path / "schema.json")
        assert back.latents.tobytes() == rep.latents.tobytes()
        assert back.labels.tobytes() == rep.labels.tobytes()
        assert back.schema == rep.schema
        header = (tmp_path / "data.csv").read_text().splitlines()[0]
        assert header == ",".join(f"z{i}" for i in range(m)) + ",g0,g1"

    def test_expected_header(self):
        assert expected_header(2, 1) == ["z0", "z1", "g0"]

    def write(self, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_text(text)
        write_schema(SCHEMA, tmp_path / "schema.json")
        return path, tmp_path / "schema.json"

    def test_missing_file_is_io_error(self, tmp_path):
        from detangle.errors import DataIOError

        write_schema(SCHEMA, tmp_path / "schema.json")
        with pytest.raises(DataIOError):
            load_representation_set(tmp_path / "nope.csv", tmp_path / "schema.json")

    def test_header_mismatch_names_line(self, tmp_path):
        data, schema = self.write(tmp_path, "a,b,c,d\n0,0,0,0\n")
        with pytest.raises(HeaderMismatchError) as exc:
            load_representation_set(data, schema)
        assert exc.value.line == 1

    def test_header_wrong_factor_count(self, tmp_path):
        data, schema = self.write(tmp_path, "z0,z1,g0\n0.0,0.0,0\n")
        with pytest.raises(HeaderMismatchError, match="declares 2"):
            load_representation_set(data, schema)

    def test_ragged_row_reports_line(self, tmp_path):
        data, schema = self.write(tmp_path, "z0,g0,g1\n0.5,1,2\n0.5,1\n")
        with pytest.raises(MalformedCsvError) as exc:
            load_representation_set(data, schema)
        assert exc.value.line == 3

    def test_unparseable_latent_reports_line_and_column(self, tmp_path):
        data, schema = self.write(tmp_path, "z0,g0,g1\n0.5,1,2\nx,0,0\n")
        with pytest.raises(MalformedCsvError) as exc:
            load_representation_set(data, schema)
        assert exc.value.line == 3 and exc.value.column == "z0"

    def test_non_finite_latent_reports_position(self, tmp_path):
        data, schema = self.write(tmp_path, "z0,g0,g1\nnan,1,2\n")
        with pytest.raises(NonFiniteLatentError) as exc:
            load_representation_set(data, schema)
        assert exc.value.line == 2 and exc.value.column == "z0"

    def test_label_out_of_range_reports_factor(self, tmp_path):
        data, schema = self.write(tmp_path, "z0,g0,g1\n0.5,1,3\n")
        with pytest.raises(LabelOutOfRangeError, match="'shape'") as exc:
            load_representation_set(data, schema)
        assert exc.value.line == 2 and exc.value.column == "g1"

    def test_field_past_csv_limit_reports_line(self, tmp_path):
        data, schema = self.write(tmp_path, "z0,g0,g1\n0.5,1,2\n" + "1" * 200_000 + ",1,2\n")
        with pytest.raises(MalformedCsvError, match="field limit") as exc:
            load_representation_set(data, schema)
        assert exc.value.line == 3

    @pytest.mark.parametrize("label", ["99999999999999999999", "-99999999999999999999"])
    def test_label_past_int64_is_out_of_range(self, tmp_path, label):
        data, schema = self.write(tmp_path, f"z0,g0,g1\n0.5,1,2\n0.5,1,{label}\n")
        with pytest.raises(LabelOutOfRangeError, match=f"label {label} .* factor 'shape'") as exc:
            load_representation_set(data, schema)
        assert exc.value.line == 3 and exc.value.column == "g1" and exc.value.row is None

    def test_value_error_line_counts_blank_lines(self, tmp_path):
        data, schema = self.write(tmp_path, "z0,g0,g1\n0.5,1,2\n\n\n0.5,1,2\ninf,0,0\n")
        with pytest.raises(NonFiniteLatentError) as exc:
            load_representation_set(data, schema)
        assert exc.value.line == 6 and exc.value.column == "z0"
        assert str(exc.value) == f"{data}, line 6, column 'z0': non-finite latent value inf"

    def test_load_does_not_copy_the_whole_file(self, tmp_path):
        rng = np.random.default_rng(0)
        schema = FactorSchema(tuple(f"f{j}" for j in range(8)), (6,) * 8)
        rep = RepresentationSet(rng.normal(size=(3000, 32)), rng.integers(0, 6, (3000, 8)), schema)
        write_representation_set(rep, tmp_path / "data.csv", tmp_path / "schema.json")
        size = (tmp_path / "data.csv").stat().st_size
        tracemalloc.start()
        try:
            load_representation_set(tmp_path / "data.csv", tmp_path / "schema.json")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * size

    def test_write_streams_rows_with_unchanged_bytes(self, tmp_path):
        rng = np.random.default_rng(0)
        schema = FactorSchema(tuple(f"f{j}" for j in range(8)), (6,) * 8)
        rep = RepresentationSet(rng.normal(size=(3000, 32)), rng.integers(0, 6, (3000, 8)), schema)
        tracemalloc.start()
        try:
            write_representation_set(rep, tmp_path / "data.csv", tmp_path / "schema.json")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        data = (tmp_path / "data.csv").read_bytes()
        # The bytes the whole-file writer produced before rows were streamed.
        assert hashlib.sha256(data).hexdigest() == (
            "3d43ab9110009f57eb38a766481e96e1864a0d523231b17bb09cdd07189181cd"
        )
        assert peak < 0.5 * len(data)

    def test_empty_and_header_only_files(self, tmp_path):
        data, schema = self.write(tmp_path, "")
        with pytest.raises(MalformedCsvError, match="empty"):
            load_representation_set(data, schema)
        data, schema = self.write(tmp_path, "z0,g0,g1\n")
        with pytest.raises(MalformedCsvError, match="no data rows"):
            load_representation_set(data, schema)

    def test_schema_errors(self, tmp_path):
        (tmp_path / "schema.json").write_text("{not json")
        with pytest.raises(SchemaError):
            load_schema(tmp_path / "schema.json")


class TestDiscretize:
    def test_quantile_boundaries_at_fractional_ranks(self):
        values = np.arange(100, dtype=float)
        disc = discretize_neuron(values, n_bins=4)
        assert disc.strategy == QUANTILE and not disc.level_mapped
        assert np.allclose(disc.boundaries, np.quantile(values, [0.25, 0.5, 0.75]))
        counts = np.bincount(disc.bins, minlength=4)
        assert counts.sum() == 100 and counts.min() >= 24

    def test_boundary_tie_goes_to_lower_bin(self):
        disc = discretize_neuron(np.arange(100, dtype=float), n_bins=4)
        boundary = disc.boundaries[0]
        idx = np.where(np.arange(100.0) == boundary)[0]
        if idx.size:
            assert disc.bins[idx[0]] == 0

    def test_level_mapped_keeps_alphabet(self):
        values = np.array([3.0, -1.0, 3.0, 7.0, -1.0, 7.0, 3.0])
        disc = discretize_neuron(values, n_bins=DEFAULT_BINS)
        assert disc.level_mapped and disc.n_bins == 3
        assert np.array_equal(disc.bins, np.array([1, 0, 1, 2, 0, 2, 1]))

    def test_constant_neuron_degenerate(self):
        disc = discretize_neuron(np.full(9, 2.5), n_bins=8)
        assert disc.degenerate and np.all(disc.bins == 0)

    def test_equal_width(self):
        values = np.concatenate([np.zeros(50), np.ones(50) * 10.0, np.linspace(0, 10, 21)])
        disc = discretize_neuron(values, n_bins=2, strategy=EQUAL_WIDTH)
        assert disc.n_bins == 2
        assert np.all(disc.bins[values <= 5.0] == 0)
        assert np.all(disc.bins[values > 5.0] == 1)

    def test_bad_arguments(self):
        with pytest.raises(ValidationError):
            discretize_neuron(np.array([]), n_bins=4)
        with pytest.raises(ValidationError):
            discretize_neuron(np.ones(5), n_bins=0)
        with pytest.raises(ValidationError):
            discretize_neuron(np.ones(5), strategy="magic")
        with pytest.raises(NonFiniteLatentError) as exc:
            discretize_neuron(np.array([1.0, np.inf]))
        assert exc.value.row == 1 and exc.value.line is None

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        values = rng.normal(size=500)
        a = discretize_neuron(values, n_bins=10)
        b = discretize_neuron(values.copy(), n_bins=10)
        assert np.array_equal(a.bins, b.bins)
        assert np.array_equal(a.boundaries, b.boundaries)


class TestSplits:
    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(2, 300), fraction=st.floats(0.001, 0.999),
           seed=st.integers(0, 2**32 - 1))
    def test_random_split_partition(self, n, fraction, seed):
        n_test = math.floor(n * fraction)
        assume(1 <= n_test < n)
        train, test = split_indices(n, fraction, seed)
        assert test.size == n_test
        assert_partition(train, test, n)
        train2, test2 = split_indices(n, fraction, seed)
        assert np.array_equal(train, train2) and np.array_equal(test, test2)

    def test_random_split_depends_on_seed(self):
        _, test = split_indices(50, 0.2, seed=9)
        _, test2 = split_indices(50, 0.2, seed=10)
        assert not np.array_equal(test, test2)

    def test_random_split_fraction_bounds(self):
        with pytest.raises(SplitError, match="empty side"):
            split_indices(4, 0.1, seed=1)
        with pytest.raises(SplitError, match="in \\(0, 1\\)"):
            split_indices(4, 1.5, seed=1)
