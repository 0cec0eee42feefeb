"""Plug-in information estimates over discrete variables, in bits (log base 2).

One count-table kernel: `count_table` counts two in-range code vectors with
one `np.bincount`, and MI = H(row sums) + H(column sums) - H(cells).
`mutual_information` checks its inputs and maps any integers to dense
codes. The importance matrix bins one neuron at a time, takes each marginal
entropy once and counts one table per factor/neuron pair. Entropies sort
the counts, so results depend only on the count multiset.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataset import DEFAULT_BINS, QUANTILE, RepresentationSet, discretize_neuron
from .errors import AlphabetOverflowError, ValidationError

JOINT_CELL_CAP = 10**6


def count_table(rows: np.ndarray, cols: np.ndarray, n_rows: int, n_cols: int) -> np.ndarray:
    """The n_rows x n_cols counts of the code pairs (rows[k], cols[k]), from
    one np.bincount. Codes are not checked: they must lie in [0, n_rows) and
    [0, n_cols). A table holds at most JOINT_CELL_CAP cells."""
    cells = n_rows * n_cols
    if cells > JOINT_CELL_CAP:
        raise AlphabetOverflowError(f"count table exceeds cap: {cells} > {JOINT_CELL_CAP} cells")
    return np.bincount(rows * n_cols + cols, minlength=cells).reshape(n_rows, n_cols)


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
    x, y = _dense_codes(x), _dense_codes(y)
    counts = count_table(x, y, int(x.max()) + 1, int(y.max()) + 1)
    h_x = entropy_from_counts(counts.sum(axis=1))
    return h_x + entropy_from_counts(counts.sum(axis=0)) - entropy_from_counts(counts)


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


def importance_matrix(rep: RepresentationSet, n_bins: int = DEFAULT_BINS) -> ImportanceMatrix:
    """MI in bits between every factor and every neuron after binning.

    Each neuron is quantile-binned (n_bins) and each marginal entropy taken
    once; each factor/neuron pair adds the joint entropy of one count table
    of the neuron's bins against the factor's labels (observed alphabets).
    """
    label_counts = [np.bincount(rep.labels[:, j]) for j in range(rep.n_factors)]
    h_labels = [entropy_from_counts(counts) for counts in label_counts]
    values = np.zeros((rep.n_factors, rep.n_neurons), dtype=np.float64)
    for i in range(rep.n_neurons):
        bins = discretize_neuron(rep.latents[:, i], n_bins=n_bins).bins
        bin_counts = np.bincount(bins)
        h_bins = entropy_from_counts(bin_counts)
        for j, counts in enumerate(label_counts):
            table = count_table(bins, rep.labels[:, j], bin_counts.size, counts.size)
            values[j, i] = h_bins + h_labels[j] - entropy_from_counts(table)
    return ImportanceMatrix(
        values=values,
        factor_names=rep.schema.names,
        n_bins=int(n_bins),  # discretize_neuron has checked it
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
