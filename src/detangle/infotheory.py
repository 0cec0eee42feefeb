"""Plug-in information estimates over discrete variables, in bits (log base 2).

One count-table kernel: `ContingencyTable` counts two code vectors with a
single `np.bincount`, and MI = H(row sums) + H(column sums) - H(cells).
`mutual_information` maps any integers to dense codes first, and
`joint_mutual_information` fuses several vectors into one product-alphabet
code with `np.ravel_multi_index`. The importance matrix bins every neuron
once (`bin_matrix`) and builds one table per factor/neuron pair. Entropies
sort the counts, so results depend only on the count multiset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataset import DEFAULT_BINS, QUANTILE, RepresentationSet, discretize_neuron
from .errors import AlphabetOverflowError, ValidationError

JOINT_CELL_CAP = 10**6


@dataclass(frozen=True)
class ContingencyTable:
    """Joint counts of two discrete vectors.

    counts[r, c] is the number of rows with row_values == r and
    col_values == c, where r and c index the provided alphabets of
    non-negative codes. A table holds at most JOINT_CELL_CAP cells.
    """

    counts: np.ndarray
    total: int

    @classmethod
    def from_vectors(
        cls, rows: np.ndarray, cols: np.ndarray, n_rows: int | None = None, n_cols: int | None = None
    ) -> "ContingencyTable":
        rows = _as_discrete(rows, "rows")
        cols = _as_discrete(cols, "cols")
        if rows.shape != cols.shape:
            raise ValidationError(f"length mismatch: {rows.size} vs {cols.size}")
        if rows.min() < 0 or cols.min() < 0:
            raise ValidationError("contingency table values must be non-negative codes")
        r = int(rows.max()) + 1 if n_rows is None else int(n_rows)
        c = int(cols.max()) + 1 if n_cols is None else int(n_cols)
        if rows.max() >= r or cols.max() >= c:
            raise ValidationError("alphabet size smaller than observed values")
        if r * c > JOINT_CELL_CAP:
            raise AlphabetOverflowError(f"count table exceeds cap: {r * c} > {JOINT_CELL_CAP} cells")
        counts = np.bincount(rows * c + cols, minlength=r * c).reshape(r, c)
        counts.setflags(write=False)
        return cls(counts=counts, total=int(rows.size))

    def mutual_information(self) -> float:
        """I(rows; cols) in bits: H(rows) + H(cols) - H(rows, cols)."""
        h_rows = entropy_from_counts(self.counts.sum(axis=1))
        h_cols = entropy_from_counts(self.counts.sum(axis=0))
        return h_rows + h_cols - entropy_from_counts(self.counts)


def entropy(values: Sequence[int] | np.ndarray) -> float:
    """Empirical Shannon entropy of a discrete vector, in bits."""
    values = _as_discrete(values, "values")
    _, counts = np.unique(values, return_counts=True)
    return entropy_from_counts(counts)


def entropy_from_counts(counts: np.ndarray) -> float:
    """Entropy in bits from a (possibly multi-dimensional) count array.

    Counts are sorted before accumulation so the result depends only on the
    count multiset; this keeps MI exactly symmetric in its arguments.
    """
    counts = np.asarray(counts, dtype=np.float64).ravel()
    counts = counts[counts > 0]
    if counts.size == 0:
        raise ValidationError("entropy of an empty distribution is undefined")
    counts = np.sort(counts)
    total = counts.sum()
    p = counts / total
    return float(-(p * np.log2(p)).sum())


def entropy_from_probs(probs: Sequence[float] | np.ndarray) -> float:
    """Entropy in bits of an explicit probability vector (must sum to ~1)."""
    p = np.asarray(probs, dtype=np.float64)
    if p.size == 0 or np.any(p < 0):
        raise ValidationError("probabilities must be non-negative and non-empty")
    s = p.sum()
    if not np.isclose(s, 1.0, atol=1e-9):
        raise ValidationError(f"probabilities must sum to 1, got {s!r}")
    p = np.sort(p[p > 0])
    return float(-(p * np.log2(p)).sum())


def mutual_information(x: Sequence[int] | np.ndarray, y: Sequence[int] | np.ndarray) -> float:
    """Plug-in mutual information I(x; y) in bits: H(x) + H(y) - H(x, y).

    Any integers are accepted (mapped to dense codes); the product of the
    two alphabet sizes may not exceed JOINT_CELL_CAP. Exactly symmetric in
    its arguments. The result is >= -eps (tiny negative values can only
    arise from float rounding) and <= min(H(x), H(y)) + eps.
    """
    x = _as_discrete(x, "x")
    y = _as_discrete(y, "y")
    if x.shape != y.shape:
        raise ValidationError(f"length mismatch: {x.size} vs {y.size}")
    return ContingencyTable.from_vectors(_dense_codes(x), _dense_codes(y)).mutual_information()


def joint_mutual_information(xs: Sequence[np.ndarray], y: Sequence[int] | np.ndarray) -> float:
    """MI between the tuple (x_1, ..., x_k) and y, in bits.

    The tuple is treated as one discrete variable over the product alphabet.
    Raises AlphabetOverflowError when the product of the per-variable
    alphabet sizes exceeds JOINT_CELL_CAP.
    """
    if len(xs) == 0:
        raise ValidationError("joint_mutual_information needs at least one x variable")
    cols = [_as_discrete(x, f"xs[{i}]") for i, x in enumerate(xs)]
    y = _as_discrete(y, "y")
    for i, col in enumerate(cols):
        if col.shape != y.shape:
            raise ValidationError(f"length mismatch between xs[{i}] and y")
    codes = [_dense_codes(col) for col in cols]
    sizes = [int(code.max()) + 1 for code in codes]
    cells = math.prod(sizes)
    if cells > JOINT_CELL_CAP:
        raise AlphabetOverflowError(
            f"product alphabet exceeds cap: {cells} > {JOINT_CELL_CAP} cells"
        )
    return mutual_information(np.ravel_multi_index(codes, sizes), y)


@dataclass(frozen=True)
class ImportanceMatrix:
    """n_factors x n_neurons matrix of MI(factor_j; binned neuron_i), in bits.

    Row j is bounded above by the entropy of factor j (plus float eps).
    """

    values: np.ndarray
    factor_names: tuple[str, ...]
    n_bins: int
    strategy: str

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2:
            raise ValidationError("importance matrix must be 2-D")
        if values.shape[0] != len(self.factor_names):
            raise ValidationError("row count must match factor_names")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def n_factors(self) -> int:
        return self.values.shape[0]

    @property
    def n_neurons(self) -> int:
        return self.values.shape[1]

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "factor_names": list(self.factor_names),
            "n_bins": self.n_bins,
            "strategy": self.strategy,
            "bits": [[float(v) for v in row] for row in self.values],
        }


def bin_matrix(latents: np.ndarray, n_bins: int = DEFAULT_BINS) -> np.ndarray:
    """Quantile-bin every neuron once: the N x m int64 matrix of bin indices,
    column-major so that each neuron's bins are contiguous."""
    bins = np.empty(latents.shape, dtype=np.int64, order="F")
    for i in range(latents.shape[1]):
        bins[:, i] = discretize_neuron(latents[:, i], n_bins=n_bins).bins
    return bins


def importance_matrix(rep: RepresentationSet, n_bins: int = DEFAULT_BINS) -> ImportanceMatrix:
    """MI in bits between every factor and every neuron after binning.

    Each neuron is quantile-binned once (n_bins); each factor/neuron pair
    is one count table of the neuron's bins against the factor's labels.
    """
    bins = bin_matrix(rep.latents, n_bins=n_bins)
    values = np.zeros((rep.n_factors, rep.n_neurons), dtype=np.float64)
    for j in range(rep.n_factors):
        labels = rep.labels[:, j]
        for i in range(rep.n_neurons):
            table = ContingencyTable.from_vectors(bins[:, i], labels)
            values[j, i] = table.mutual_information()
    return ImportanceMatrix(
        values=values,
        factor_names=rep.schema.names,
        n_bins=n_bins,
        strategy=QUANTILE,
    )


def _as_discrete(values, name: str) -> np.ndarray:
    arr = np.asarray(values)
    if arr.ndim != 1 or arr.size == 0:
        raise ValidationError(f"{name} must be a non-empty 1-D array")
    if not np.issubdtype(arr.dtype, np.integer):
        as_int = arr.astype(np.int64)
        if not np.array_equal(as_int, arr):
            raise ValidationError(f"{name} must contain integers")
        arr = as_int
    return arr.astype(np.int64)


def _dense_codes(values: np.ndarray) -> np.ndarray:
    """Relabel a discrete vector as codes 0..k-1 in sorted value order."""
    return np.unique(values, return_inverse=True)[1]
