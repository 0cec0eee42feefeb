"""Typed containers for labelled representations plus loading, binning, splits.

A representation set pairs an N x m matrix of real-valued neuron activations
("latents") with an N x n matrix of integer factor labels described by a
factor schema. The on-disk form is a CSV with header z0..z{m-1},g0..g{n-1}
next to a JSON schema sidecar {"factors": [{"name": ..., "cardinality": ...}]}.
"""

from __future__ import annotations

import codecs
import csv
import io
import json
import math
import numbers
import warnings
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import (
    DataIOError,
    HeaderMismatchError,
    LabelOutOfRangeError,
    MalformedCsvError,
    NonFiniteLatentError,
    SchemaError,
    SplitError,
    ValidationError,
)
from .util import atomic_open, atomic_write_json, require_int, require_seed

QUANTILE = "quantile"  # the only binning strategy

# The bytes of a data file that np.loadtxt reads exactly as float and int do.
_PLAIN_BYTES = bytes(range(0x20, 0x7F)) + b"\r\n"

DEFAULT_BINS = 20


@dataclass(frozen=True)
class FactorSchema:
    """Ordered list of named discrete generative factors.

    Args:
        names: one unique name per factor.
        cardinalities: number of classes per factor, each >= 2.
    """

    names: tuple[str, ...]
    cardinalities: tuple[int, ...]

    def __post_init__(self):
        if len(self.names) != len(self.cardinalities):
            raise SchemaError("names and cardinalities must have equal length")
        if len(self.names) == 0:
            raise SchemaError("schema must declare at least one factor")
        if len(set(self.names)) != len(self.names):
            raise SchemaError(f"factor names must be unique, got {list(self.names)}")
        for name, k in zip(self.names, self.cardinalities):
            if not isinstance(k, int) or isinstance(k, bool) or k < 2:
                raise SchemaError(f"factor {name!r}: cardinality must be an int >= 2, got {k!r}")

    @property
    def n_factors(self) -> int:
        return len(self.names)

    def index_of(self, factor: int | str) -> int:
        """Resolve a factor to its index: by name first, else as an index given
        as an integer (not a bool) or a string of digits (so a factor named
        "10" is a name)."""
        if factor in self.names:
            return self.names.index(factor)
        if isinstance(factor, str):
            if not factor.removeprefix("-").isdecimal():
                raise SchemaError(f"unknown factor name {factor!r}")
        elif isinstance(factor, bool) or not isinstance(factor, numbers.Integral):
            raise SchemaError(f"factor {factor!r} is neither a name nor an integer index")
        idx = int(factor)
        if not 0 <= idx < self.n_factors:
            raise SchemaError(f"factor index {idx} out of range for {self.n_factors} factors")
        return idx

    def to_json_dict(self) -> dict:
        return {
            "factors": [
                {"name": name, "cardinality": k}
                for name, k in zip(self.names, self.cardinalities)
            ]
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "FactorSchema":
        if not isinstance(payload, dict) or "factors" not in payload:
            raise SchemaError('schema JSON must be an object with a "factors" list')
        factors = payload["factors"]
        if not isinstance(factors, list) or not factors:
            raise SchemaError('"factors" must be a non-empty list')
        for i, entry in enumerate(factors):
            if not isinstance(entry, dict) or "name" not in entry or "cardinality" not in entry:
                raise SchemaError(f'factor {i}: each entry needs "name" and "cardinality"')
        return cls(tuple(str(e["name"]) for e in factors), tuple(e["cardinality"] for e in factors))


@dataclass(frozen=True)
class RepresentationSet:
    """Immutable (latents, labels, schema) triple with shape/range guarantees.

    Invariants enforced at construction: latents is N x m float64 and finite;
    labels is N x n integer with column j in [0, cardinality_j); m >= n; N >= 1.
    The only check of latent finiteness and label range on loaded data.
    """

    latents: np.ndarray
    labels: np.ndarray
    schema: FactorSchema

    def __post_init__(self):
        latents = np.asarray(self.latents, dtype=np.float64)
        labels = np.asarray(self.labels)
        if latents.ndim != 2 or labels.ndim != 2:
            raise ValidationError("latents and labels must both be 2-D arrays")
        if latents.shape[0] != labels.shape[0]:
            raise ValidationError(
                f"row mismatch: {latents.shape[0]} latent rows vs {labels.shape[0]} label rows"
            )
        if latents.shape[0] < 1:
            raise ValidationError("representation set must contain at least one row")
        if labels.shape[1] != self.schema.n_factors:
            raise ValidationError(
                f"label columns ({labels.shape[1]}) must match schema factors ({self.schema.n_factors})"
            )
        bad = ~np.isfinite(latents)
        if bad.any():
            row, col = np.argwhere(bad)[0]
            raise NonFiniteLatentError(
                f"non-finite latent value {float(latents[row, col])!r}",
                column=f"z{col}",
                row=int(row),
            )
        # Compared before any integer cast: a label past int64 arrives as a
        # Python int in an object array and is out of range for every factor.
        try:
            bad = (labels < 0) | (labels >= np.array(self.schema.cardinalities))
        except TypeError:
            raise ValidationError("labels must be integers") from None
        if bad.any():
            row, j = np.argwhere(bad)[0]
            raise LabelOutOfRangeError(
                f"label {labels[row].tolist()[j]!r} out of range for factor "
                f"{self.schema.names[j]!r} (cardinality {self.schema.cardinalities[j]})",
                column=f"g{j}",
                row=int(row),
            )
        as_int = labels.astype(np.int64)
        if not np.array_equal(as_int, labels):
            raise ValidationError("labels must be integers")
        if latents.shape[1] < labels.shape[1]:
            raise ValidationError(
                f"need at least as many neurons as factors: m={latents.shape[1]} < n={labels.shape[1]}"
            )
        latents = latents.copy()
        latents.setflags(write=False)
        as_int.setflags(write=False)
        object.__setattr__(self, "latents", latents)
        object.__setattr__(self, "labels", as_int)

    @property
    def n_rows(self) -> int:
        return self.latents.shape[0]

    @property
    def n_neurons(self) -> int:
        return self.latents.shape[1]

    @property
    def n_factors(self) -> int:
        return self.schema.n_factors

    def subset(self, indices: np.ndarray) -> "RepresentationSet":
        """Row subset as a new set (indices kept in the given order)."""
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size == 0:
            raise ValidationError("cannot build an empty representation subset")
        return RepresentationSet(self.latents[indices], self.labels[indices], self.schema)


@dataclass(frozen=True)
class DiscretizedNeuron:
    """Result of binning one neuron: bins is the read-only int64 per-row bin
    index in [0, n_bins)."""

    bins: np.ndarray


def load_schema(schema_path: str | Path) -> FactorSchema:
    """Read a factor schema JSON sidecar; a leading UTF-8 byte-order mark is accepted."""
    schema_path = Path(schema_path)
    try:
        text = schema_path.read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise DataIOError(f"cannot read schema file {schema_path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise SchemaError(f"schema file {schema_path} is not valid UTF-8: {exc}") from exc
    try:
        payload = json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad JSON, an int past the digit limit, or too deep
        raise SchemaError(f"schema file {schema_path} is not valid JSON: {exc}") from exc
    return FactorSchema.from_json_dict(payload)


def write_schema(schema: FactorSchema, schema_path: str | Path) -> None:
    atomic_write_json(schema_path, schema.to_json_dict())


def expected_header(n_neurons: int, n_factors: int) -> list[str]:
    return [f"z{i}" for i in range(n_neurons)] + [f"g{j}" for j in range(n_factors)]


def _parse_header(header: list[str], n_factors: int, data_path: Path) -> int:
    """Validate the z/g header layout and return the neuron count."""
    stripped = [h.strip() for h in header]
    n_g = sum(1 for h in stripped if h.startswith("g"))
    n_z = len(stripped) - n_g
    if n_z < 1:
        raise HeaderMismatchError("header has no z columns", line=1, path=data_path)
    expected = expected_header(n_z, n_g)
    if stripped != expected:
        raise HeaderMismatchError(
            f"expected columns {expected}, got {stripped}", line=1, path=data_path
        )
    if n_g != n_factors:
        raise HeaderMismatchError(
            f"header has {n_g} label columns but schema declares {n_factors} factors",
            line=1,
            path=data_path,
        )
    return n_z


def load_representation_set(data_path: str | Path, schema_path: str | Path) -> RepresentationSet:
    """Load a CSV + schema sidecar pair into a validated RepresentationSet.

    Both files may start with a UTF-8 byte-order mark. The data file is
    opened before the schema is read, so a missing one is reported as such.
    Errors name the data file, line and column. Parse errors (header, ragged
    row, unparseable field) come first, then RepresentationSet's non-finite
    latent and out-of-range label checks, each at the first offending row.

    A printable ASCII file with no field past csv's size limit is parsed by
    one np.loadtxt call, which reads numbers as float and int do; any other
    file, or one that call or RepresentationSet rejects, is read row by row.
    """
    data_path = Path(data_path)
    try:
        with open(data_path, "rb") as raw:
            if raw.read(len(codecs.BOM_UTF8)) != codecs.BOM_UTF8:
                raw.seek(0)
            # A field past csv's size limit fills one of these windows, free of commas.
            w = max(1, (csv.field_size_limit() + 1) // 2)
            while chunk := raw.read(w * -(-(1 << 20) // w)):
                if chunk.translate(None, _PLAIN_BYTES):
                    raise ValueError("data file holds more than printable ASCII")
                if any(chunk.find(b",", a, a + w) < 0 for a in range(0, len(chunk) - w + 1, w)):
                    raise ValueError("a field may be longer than csv's field limit")
            raw.seek(0)
            with warnings.catch_warnings(), io.TextIOWrapper(raw, "utf-8-sig", newline="") as fh:
                warnings.simplefilter("error")  # e.g. loadtxt's "input contained no data"
                schema = load_schema(schema_path)
                n_z = _parse_header(next(csv.reader(fh)), schema.n_factors, data_path)
                dtype = [("z", "f8", (n_z,)), ("g", "i8", (schema.n_factors,))]
                rows = np.loadtxt(fh, dtype, delimiter=",", comments=None, ndmin=1)
        return RepresentationSet(rows["z"], rows["g"], schema)
    except Exception:  # the row parser reproduces every failure, with its location
        return _load_rows(data_path, schema_path)


def _load_rows(data_path: Path, schema_path: str | Path) -> RepresentationSet:
    """load_representation_set's row-by-row parser, which locates each error."""
    latents = array("d")
    labels: list[int] = []
    lines = array("q")  # file line of each data row; blank lines are skipped
    try:
        with open(data_path, encoding="utf-8-sig", newline="") as fh:
            schema = load_schema(schema_path)
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise MalformedCsvError("file is empty", line=1, path=data_path)
            n_z = _parse_header(header, schema.n_factors, data_path)
            n_cols = n_z + schema.n_factors
            for row in reader:
                if not row:
                    continue
                if len(row) != n_cols:
                    raise MalformedCsvError(
                        f"expected {n_cols} fields, got {len(row)}",
                        line=reader.line_num,
                        path=data_path,
                    )
                try:
                    latents.extend(map(float, row[:n_z]))
                    labels.extend(map(int, row[n_z:]))
                except ValueError:
                    raise _unparseable(row, n_z, reader.line_num, data_path) from None
                lines.append(reader.line_num)
    except OSError as exc:
        raise DataIOError(f"cannot read data file {data_path}: {exc}") from exc
    except csv.Error as exc:  # e.g. a field past csv's size limit
        raise MalformedCsvError(str(exc), line=reader.line_num, path=data_path) from None
    except UnicodeDecodeError as exc:
        # exc.start counts from the start of the decoded chunk, not the file.
        raise MalformedCsvError(
            f"data file {data_path} is not valid UTF-8: cannot decode byte "
            f"0x{exc.object[exc.start]:02x} ({exc.reason})"
        ) from exc

    if not lines:
        raise MalformedCsvError(
            "file contains a header but no data rows", line=1, path=data_path
        )
    try:
        label_array = np.array(labels, dtype=np.int64)
    except OverflowError:  # a label past int64; RepresentationSet reports it
        label_array = np.array(labels, dtype=object)
    try:
        return RepresentationSet(
            np.frombuffer(latents, dtype=np.float64).reshape(-1, n_z),
            label_array.reshape(-1, schema.n_factors),
            schema,
        )
    except (NonFiniteLatentError, LabelOutOfRangeError) as exc:
        exc.path, exc.line, exc.row = data_path, lines[exc.row], None
        raise


def _unparseable(row: list[str], n_z: int, line: int, data_path: Path) -> MalformedCsvError:
    """Error for the first field of row that float (z) or int (g) rejects."""
    for i, raw in enumerate(row):
        if i < n_z:
            kind, column, parse, shown = "latent", f"z{i}", float, raw
        else:
            kind, column, parse, shown = "label", f"g{i - n_z}", int, raw.strip()
        try:
            parse(raw)
        except ValueError:
            return MalformedCsvError(
                f"cannot parse {kind} value {shown!r}", line=line, column=column, path=data_path
            )
    raise AssertionError("no unparseable field in row")


def write_representation_set(
    rep: RepresentationSet, data_path: str | Path, schema_path: str | Path
) -> None:
    """Write the CSV + schema pair; floats rendered full-precision (repr).

    write -> load round-trips to bit-identical latents and labels.
    """
    with atomic_open(data_path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(expected_header(rep.n_neurons, rep.n_factors))
        for i in range(rep.n_rows):
            writer.writerow(
                [repr(float(v)) for v in rep.latents[i]] + [str(int(v)) for v in rep.labels[i]]
            )
    write_schema(rep.schema, schema_path)


def discretize_neuron(
    values: Sequence[float] | np.ndarray,
    n_bins: int = DEFAULT_BINS,
    strategy: str = QUANTILE,
) -> DiscretizedNeuron:
    """Bin one neuron's values into at most n_bins ordinal bins.

    Boundaries sit at the k/B empirical quantiles; strategy must be
    "quantile", the only one. Values with <= B distinct levels are mapped
    bijectively (sorted level -> bin), so exactly-discrete neurons keep
    their alphabet. Ties on a boundary go to the lower bin. All-identical
    values collapse to bin 0. The levels and the quantiles both come from
    one sorted copy of the values.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1 or values.size == 0:
        raise ValidationError("values must be a non-empty 1-D array")
    if not np.all(np.isfinite(values)):
        idx = int(np.argwhere(~np.isfinite(values))[0][0])
        raise NonFiniteLatentError(
            f"non-finite latent value {float(values[idx])!r}", column="z", row=idx
        )
    n_bins = require_int(n_bins, "n_bins")
    if n_bins < 1:
        raise ValidationError(f"n_bins must be a positive integer, got {n_bins!r}")
    if strategy != QUANTILE:
        raise ValidationError(f"unknown binning strategy {strategy!r}, expected {QUANTILE!r}")

    ordered = np.sort(values)
    levels = ordered[np.r_[True, ordered[1:] != ordered[:-1]]]
    if levels.size <= n_bins:
        # Already-discrete values: sorted level k becomes bin k exactly.
        bins = np.searchsorted(levels, values)
    else:
        # A value equal to a boundary belongs to the lower bin.
        boundaries = np.quantile(ordered, np.arange(1, n_bins) / n_bins)
        bins = np.searchsorted(boundaries, values, side="left")
    bins = bins.astype(np.int64, copy=False)
    bins.setflags(write=False)
    return DiscretizedNeuron(bins)


def split_indices(n_rows: int, test_fraction: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(train, test) row indices of the seeded random split of n_rows rows,
    both ascending: the test side is floor(n_rows * test_fraction) rows drawn
    by the seeded RNG. Its payload block is {"kind": "random",
    "test_fraction": test_fraction, "seed": seed}.

    The two index arrays are disjoint, neither is empty, and their union is
    exactly range(n_rows).
    """
    if not 0.0 < test_fraction < 1.0:
        raise SplitError(f"random split needs test_fraction in (0, 1), got {test_fraction!r}")
    n_test = math.floor(n_rows * test_fraction)
    if n_test < 1 or n_test >= n_rows:
        raise SplitError(
            f"random split with test_fraction={test_fraction} on N={n_rows} rows "
            f"leaves an empty side (test={n_test})"
        )
    perm = np.random.default_rng(require_seed(seed, "seed")).permutation(n_rows)
    return np.sort(perm[n_test:]), np.sort(perm[:n_test])
