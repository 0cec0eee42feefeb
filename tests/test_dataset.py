"""Schema, CSV round trips, loader diagnostics, binning, and splits."""

import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import detangle.dataset as dataset_module
from detangle.dataset import (
    DEFAULT_BINS,
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
    DetangleError,
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


# Fields of the grammar the loader's two paths are compared on: numbers that
# both parse, and forms only Python's float and int accept (underscores,
# non-ASCII digits and spaces), or neither does (quotes, hex, empty, text).
DIGITS = st.text("0123456789", min_size=1, max_size=4)
NUMBERS = st.builds(lambda sign, whole, frac, exp: f"{sign}{whole}{frac}{exp}",
                    st.sampled_from(["", "-", "+"]), DIGITS,
                    st.sampled_from(["", ".", ".5", ".25"]),
                    st.sampled_from(["", "", "e3", "E-2", "e+300", "e-320"]))
LATENT_FIELDS = st.one_of(NUMBERS, st.sampled_from([
    "inf", "-Infinity", "nan", "NaN", "1e400", "1_0", "\u0663.5", "0x10", "\"1.5\"", "", "x", "1.5.2",
    "--1", "1e", ".", "5e-324", "\ufeff1",
]))
LABELS = st.sampled_from(["0", "1", "+1", "-0", "01"])
LABEL_FIELDS = st.one_of(LABELS, st.sampled_from([
    "2", "-1", "3", "1_0", "1.0", "1e0", "\"1\"", "\u0661", "99999999999999999999",
    "-99999999999999999999", "", "x", "0x1",
]))
PLAIN_SPACES = ["", "", "", " "]
ALL_SPACES = [*PLAIN_SPACES, "\t", "\xa0", "\x0b", "\x0c", "\u2003", "\x1c"]


@st.composite
def csv_bodies(draw):
    """CSV text for SCHEMA (latents z0, z1, then g0 in [0, 2) and g1 in
    [0, 3)): fields padded with whitespace, blank lines, LF, CRLF or CR line
    ends, sometimes a byte-order mark, a ragged row or an odd field."""
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    spaces = st.sampled_from(draw(st.sampled_from([PLAIN_SPACES, PLAIN_SPACES, ALL_SPACES])))
    lines = ["z0,z1,g0,g1"]
    for _ in range(draw(st.integers(0, 5))):
        if draw(st.integers(0, 5)) == 0:
            lines.append("")
            continue
        odd = draw(st.integers(0, 7)) == 0
        latents, labels = (LATENT_FIELDS, LABEL_FIELDS) if odd else (NUMBERS, LABELS)
        fields = [draw(latents), draw(latents), draw(labels), draw(labels)]
        fields = [draw(spaces) + f + draw(spaces) for f in fields]
        if draw(st.integers(0, 19)) == 0:
            fields = fields[: draw(st.integers(0, 3))] + ["1"] * draw(st.integers(0, 1))
        lines.append(",".join(fields))
    bom = "\ufeff" if draw(st.booleans()) else ""
    return bom + newline.join(lines) + newline * draw(st.integers(0, 2))


def load_outcome(load, data, schema):
    """A load's arrays as bytes, or its error's type, message and location."""
    try:
        rep = load(data, schema)
    except DetangleError as exc:
        return type(exc), str(exc), *(getattr(exc, a, None) for a in ("line", "row", "column"))
    return rep.latents.tobytes(), rep.latents.shape, rep.labels.tobytes(), rep.labels.shape


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

    @pytest.mark.parametrize("latents, labels, match", [
        (np.zeros(4), np.zeros((4, 2), dtype=int), "must both be 2-D"),
        (np.zeros((4, 2)), np.zeros((3, 2), dtype=int), "4 latent rows vs 3 label rows"),
        (np.zeros((0, 2)), np.zeros((0, 2), dtype=int), "at least one row"),
        (np.zeros((4, 2)), np.zeros((4, 1), dtype=int), r"\(1\) must match schema factors \(2\)"),
    ])
    def test_rejects_bad_shapes(self, latents, labels, match):
        with pytest.raises(ValidationError, match=match):
            RepresentationSet(latents, labels, SCHEMA)

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

    @pytest.mark.parametrize("indices, match", [
        ([True, False, True, False], "integers, got 1-D bool"),  # not a mask
        ([0.7, 2.9], "integers, got 1-D float64"),
        (np.array([[0, 1]]), "integers, got 2-D int64"),
        ([10, 0], r"in \[0, 4\), got 0\.\.10"),
        ([-1, 2], r"in \[0, 4\), got -1\.\.2"),
    ])
    def test_subset_rejects_masks_non_integers_and_out_of_range(self, indices, match):
        rep = small_rep(n=4)
        with pytest.raises(ValidationError, match=match):
            rep.subset(indices)

    def test_subset_accepts_any_integer_dtype_and_repeats(self):
        rep = small_rep(n=4)
        sub = rep.subset(np.array([3, 3, 0], dtype=np.uint8))
        assert sub.latents.tobytes() == rep.latents[[3, 3, 0]].tobytes()
        assert not sub.latents.flags.writeable and not sub.labels.flags.writeable

    @pytest.mark.parametrize("through_read_only_views", [False, True])
    def test_caller_writes_do_not_reach_the_set(self, through_read_only_views):
        latents, labels = small_rep().latents.copy(), small_rep().labels.copy()
        given = (latents, labels)
        if through_read_only_views:  # the memory under them can still change
            given = tuple(array.view() for array in given)
            for array in given:
                array.setflags(write=False)
        rep = RepresentationSet(*given, SCHEMA)
        before = rep.latents.tobytes(), rep.labels.tobytes()
        latents += 1.0
        labels[:] = 0
        assert (rep.latents.tobytes(), rep.labels.tobytes()) == before
        assert not rep.latents.flags.writeable and not rep.labels.flags.writeable

    def test_read_only_arrays_are_shared_not_copied(self):
        rep = small_rep()
        again = RepresentationSet(rep.latents, rep.labels, SCHEMA)
        assert again.latents is rep.latents and again.labels is rep.labels


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

    def test_header_without_z_columns(self, tmp_path):
        data, schema = self.write(tmp_path, "g0,g1\n0,0\n")
        with pytest.raises(HeaderMismatchError, match="header has no z columns") as exc:
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
        peak, size = self.peak_load_memory(tmp_path)
        assert peak < 4 * size

    def test_load_holds_the_parsed_rows_once(self, tmp_path):
        # The set keeps read-only views of np.loadtxt's array rather than
        # copies of both fields, which took the peak to about twice the rows.
        peak, _ = self.peak_load_memory(tmp_path, rows=10_000)
        back = load_representation_set(tmp_path / "data.csv", tmp_path / "schema.json")
        arrays = back.latents.nbytes + back.labels.nbytes
        assert peak < 1.25 * arrays, (peak, arrays)
        assert not back.latents.flags.writeable and not back.labels.flags.writeable
        assert back.latents.base is back.labels.base  # two fields of one parsed array

    def test_pre_scan_holds_small_chunks(self, tmp_path, monkeypatch):
        # Two 1 MiB chunks (the next read, or translate's copy) took a
        # 3000-row load to 2.2 times its parsed rows before np.loadtxt ran.
        loadtxt, at_parse = np.loadtxt, []

        def traced(*args, **kwargs):
            at_parse.append(tracemalloc.get_traced_memory()[1])
            return loadtxt(*args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", traced)
        self.peak_load_memory(tmp_path)
        assert len(at_parse) == 1 and at_parse[0] < 256 * 1024, at_parse

    def test_row_parser_does_not_copy_the_whole_file(self, tmp_path):
        # A tab before each line end sends the file to the row parser.
        peak, size = self.peak_load_memory(tmp_path, lambda text: text.replace("\n", "\t\n"))
        assert peak < 4 * size

    def peak_load_memory(self, tmp_path, edit=None, rows=3000):
        """Peak traced memory while loading a rows x 40 set, and the file size."""
        rng = np.random.default_rng(0)
        schema = FactorSchema(tuple(f"f{j}" for j in range(8)), (6,) * 8)
        rep = RepresentationSet(rng.normal(size=(rows, 32)), rng.integers(0, 6, (rows, 8)), schema)
        data = tmp_path / "data.csv"
        write_representation_set(rep, data, tmp_path / "schema.json")
        if edit:
            data.write_text(edit(data.read_text()))
        tracemalloc.start()
        try:
            back = load_representation_set(data, tmp_path / "schema.json")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert back.latents.tobytes() == rep.latents.tobytes()
        return peak, data.stat().st_size

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

    def test_plain_file_skips_the_row_parser(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(dataset_module, "_load_rows", lambda *args: calls.append(args))
        data, schema = self.write(tmp_path, "z0,z1,g0,g1\r\n0.5, 2,1,2\r\n-1e3,0,0,0\r\n")
        rep = load_representation_set(data, schema)
        assert calls == [] and rep.latents.tolist() == [[0.5, 2.0], [-1000.0, 0.0]]
        for body in ("z0,z1,g0,g1\n0.5,1,1,2\n1_0,0,0,0\n", "z0,z1,g0,g1\n0.5,1,1,\u0662\n",
                     "z0,z1,g0,g1\n0.5,1,1,\t2\n", "z0,z1,g0,g1\n0.5,1,1,2\n0,0,0,3\n"):
            self.write(tmp_path, body)
            load_representation_set(data, schema)
        assert calls == [(data, schema)] * 4

    def test_header_only_body_warns_nothing(self, tmp_path):
        data, schema = self.write(tmp_path, "z0,z1,g0,g1\n\n\r\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(MalformedCsvError, match="no data rows") as exc:
                load_representation_set(data, schema)
        assert caught == [] and exc.value.line == 1

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(body=csv_bodies())
    # A field past the csv module's size limit (131072 characters), which
    # np.loadtxt alone would read as 1.0; and a field just within it.
    @example(body="z0,z1,g0,g1\n" + "0" * 200000 + "1,5,0,1\n")
    @example(body="z0,z1,g0,g1\n" + "0" * 131071 + "1,5,0,1\n")
    def test_numpy_path_agrees_with_row_parser(self, tmp_path, body):
        data = tmp_path / "data.csv"
        data.write_bytes(body.encode("utf-8"))
        write_schema(SCHEMA, tmp_path / "schema.json")
        expected = load_outcome(dataset_module._load_rows, data, tmp_path / "schema.json")
        assert load_outcome(load_representation_set, data, tmp_path / "schema.json") == expected

    def test_schema_errors(self, tmp_path):
        (tmp_path / "schema.json").write_text("{not json")
        with pytest.raises(SchemaError):
            load_schema(tmp_path / "schema.json")


def reference_bins(values, n_bins):
    """The binning algorithm before it read everything off one sorted copy:
    levels from np.unique, boundaries from np.quantile of the raw values."""
    levels = np.unique(values)
    if levels.size <= n_bins:
        return np.searchsorted(levels, values)
    boundaries = np.quantile(values, np.arange(1, n_bins) / n_bins)
    return np.searchsorted(boundaries, values, side="left")


# Pools with signed zeros and few levels, so ties and both zeros are common.
value_pools = st.sampled_from([
    [-0.0, 0.0],
    [-0.0, 0.0, 1.0, -1.0],
    [-0.0, 0.0, 0.5, 0.25, -3.0, 7.0, 1e-300],
    [float(v) for v in range(-6, 7)] + [-0.0],
])
neuron_values = st.one_of(
    value_pools.flatmap(lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=80)),
    st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=80),
).map(np.array)


class TestDiscretize:
    def test_quantile_boundaries_at_fractional_ranks(self):
        values = np.arange(100, dtype=float)
        disc = discretize_neuron(values, n_bins=4, strategy=QUANTILE)
        expected = np.searchsorted(np.quantile(values, [0.25, 0.5, 0.75]), values)
        assert np.array_equal(disc.bins, expected)
        counts = np.bincount(disc.bins, minlength=4)
        assert counts.sum() == 100 and counts.min() >= 24

    def test_boundary_tie_goes_to_lower_bin(self):
        # Five levels into two bins: the median boundary is 2.0 exactly.
        disc = discretize_neuron(np.array([4.0, 2.0, 0.0, 3.0, 1.0]), n_bins=2)
        assert disc.bins.tolist() == [1, 0, 0, 1, 0]

    def test_level_mapped_keeps_alphabet(self):
        values = np.array([3.0, -1.0, 3.0, 7.0, -1.0, 7.0, 3.0])
        disc = discretize_neuron(values, n_bins=DEFAULT_BINS)
        assert np.array_equal(disc.bins, np.array([1, 0, 1, 2, 0, 2, 1]))

    def test_constant_neuron_degenerate(self):
        assert np.all(discretize_neuron(np.full(9, 2.5), n_bins=8).bins == 0)
        # An all-zero neuron with both signed zeros is one level too.
        zeros = np.array([0.0, -0.0, 0.0, -0.0])
        for n_bins in (1, 2, 8):
            assert discretize_neuron(zeros, n_bins=n_bins).bins.tolist() == [0, 0, 0, 0]

    def test_bad_arguments(self):
        with pytest.raises(ValidationError):
            discretize_neuron(np.array([]), n_bins=4)
        with pytest.raises(ValidationError):
            discretize_neuron(np.ones(5), n_bins=0)
        with pytest.raises(ValidationError):
            discretize_neuron(np.ones(5), strategy="magic")
        with pytest.raises(ValidationError, match="expected 'quantile'"):
            discretize_neuron(np.ones(5), strategy="equal_width")
        with pytest.raises(NonFiniteLatentError) as exc:
            discretize_neuron(np.array([1.0, np.inf]))
        assert exc.value.row == 1 and exc.value.line is None

    def test_numpy_integer_bins_accepted(self):
        values = np.arange(100, dtype=float)
        disc = discretize_neuron(values, n_bins=np.int64(4))
        assert disc.bins.tobytes() == discretize_neuron(values, n_bins=4).bins.tobytes()
        assert np.array_equal(np.unique(disc.bins), np.arange(4))

    @pytest.mark.parametrize("n_bins", [4.0, True, "4", None])
    def test_non_integer_bins_rejected_naming_them(self, n_bins):
        with pytest.raises(ValidationError, match="n_bins must be an integer"):
            discretize_neuron(np.arange(10, dtype=float), n_bins=n_bins)

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        values = rng.normal(size=500)
        a = discretize_neuron(values, n_bins=10)
        b = discretize_neuron(values.copy(), n_bins=10)
        assert np.array_equal(a.bins, b.bins)
        assert a.bins.dtype == np.int64 and not a.bins.flags.writeable

    @settings(max_examples=300, deadline=None)
    @given(values=neuron_values, n_bins=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
    def test_bins_equal_unique_quantile_reference_and_follow_rows(self, values, n_bins, seed):
        bins = discretize_neuron(values, n_bins=n_bins).bins
        assert bins.tobytes() == reference_bins(values, n_bins).astype(np.int64).tobytes()
        perm = np.random.default_rng(seed).permutation(values.size)
        assert np.array_equal(discretize_neuron(values[perm], n_bins=n_bins).bins, bins[perm])


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

    def test_random_split_negative_seed_rejected(self):
        with pytest.raises(ValidationError, match="seed must be >= 0, got -2"):
            split_indices(50, 0.2, seed=-2)
