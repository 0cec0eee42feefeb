"""Factor-to-neuron alignment over an importance matrix, plus diagram export.

Two modes. greedy picks each factor's argmax neuron independently, so two
factors may share a neuron; it is kept as the documented-flawed baseline.
injective finds the one-to-one assignment maximizing total importance with
the Kuhn-Munkres potential/augmenting-path method and breaks objective ties
toward the lexicographically smallest assignment vector, so reports are
reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .infotheory import ImportanceMatrix
from .util import atomic_write_text

GREEDY = "greedy"
INJECTIVE = "injective"
ALIGN_MODES = (GREEDY, INJECTIVE)


@dataclass(frozen=True)
class Alignment:
    """assignment[j] is the neuron index aligned to factor j."""

    assignment: tuple[int, ...]
    mode: str
    objective_value: float
    degenerate: bool = False

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "mode": self.mode,
            "assignment": [int(i) for i in self.assignment],
            "objective_bits": float(self.objective_value),
            "degenerate": bool(self.degenerate),
        }


def assignment_objective(values: np.ndarray, assignment: Sequence[int]) -> float:
    """Sum of values[j, assignment[j]], accumulated left to right in row order.

    All objective values in this module go through this one accumulation
    order, so equal assignments always produce bit-equal objectives.
    """
    total = 0.0
    for j, col in enumerate(assignment):
        total += float(values[j, col])
    return total


def greedy_alignment(imp: ImportanceMatrix) -> Alignment:
    """Per-factor argmax neuron; ties go to the lowest index.

    Several factors may map to the same neuron. This reproduces the common
    shortcut whose failure on shared neurons motivates the injective mode.
    """
    values = imp.values
    assignment = tuple(int(i) for i in np.argmax(values, axis=1))
    return Alignment(
        assignment=assignment,
        mode=GREEDY,
        objective_value=assignment_objective(values, assignment),
        degenerate=bool(np.all(values == 0.0)),
    )


def injective_alignment(imp: ImportanceMatrix) -> Alignment:
    """Optimal one-to-one factor-to-neuron assignment (max total importance).

    Requires n_factors <= n_neurons. Among assignments with equal objective
    the lexicographically smallest vector is returned: rows are fixed in
    index order and each row takes the smallest column that still admits an
    optimal completion. An all-zero matrix yields the identity prefix
    (0, 1, ..., n-1) flagged degenerate.
    """
    values = imp.values
    assignment, objective = max_weight_assignment(values, lexicographic=True)
    return Alignment(
        assignment=assignment,
        mode=INJECTIVE,
        objective_value=objective,
        degenerate=bool(np.all(values == 0.0)),
    )


def max_weight_assignment(
    values: np.ndarray, lexicographic: bool = True
) -> tuple[tuple[int, ...], float]:
    """Max-total-weight injective row->column assignment for an n x m matrix.

    Returns (assignment, objective). With lexicographic=True, ties in the
    objective are broken toward the lexicographically smallest assignment
    vector (deterministic augmenting order: row by row, smallest feasible
    column first).
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2 or values.size == 0:
        raise ValidationError("assignment needs a non-empty 2-D matrix")
    if not np.all(np.isfinite(values)):
        raise ValidationError("assignment matrix must be finite")
    n, m = values.shape
    if n > m:
        raise ValidationError(f"need at least as many columns as rows: n={n} > m={m}")

    base = _solve_max(values)
    best_objective = assignment_objective(values, base)
    if not lexicographic:
        return tuple(base), best_objective

    prefix: list[int] = []
    available = list(range(m))
    for row in range(n):
        chosen = None
        chosen_obj = -np.inf
        for col in available:
            rest_cols = [c for c in available if c != col]
            if row + 1 < n:
                sub = values[np.ix_(range(row + 1, n), rest_cols)]
                sub_assign = _solve_max(sub)
                completion = [rest_cols[c] for c in sub_assign]
            else:
                completion = []
            candidate = prefix + [col] + completion
            obj = assignment_objective(values, candidate)
            if obj >= best_objective:
                chosen, chosen_obj = col, obj
                break
            if obj > chosen_obj:
                chosen, chosen_obj = col, obj
        prefix.append(chosen)
        available.remove(chosen)
        best_objective = max(best_objective, chosen_obj)
    return tuple(prefix), assignment_objective(values, prefix)


def _solve_max(values: np.ndarray) -> list[int]:
    """Kuhn-Munkres on -values (minimization form with row/column potentials)."""
    cost = -np.asarray(values, dtype=np.float64)
    n, m = cost.shape
    INF = np.inf
    u = [0.0] * (n + 1)
    v = [0.0] * (m + 1)
    p = [0] * (m + 1)  # p[j] = 1-based row matched to column j
    way = [0] * (m + 1)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = [INF] * (m + 1)
        used = [False] * (m + 1)
        while True:
            used[j0] = True
            i0 = p[j0]
            delta = INF
            j1 = 0
            row = cost[i0 - 1]
            for j in range(1, m + 1):
                if not used[j]:
                    cur = row[j - 1] - u[i0] - v[j]
                    if cur < minv[j]:
                        minv[j] = cur
                        way[j] = j0
                    if minv[j] < delta:
                        delta = minv[j]
                        j1 = j
            for j in range(m + 1):
                if used[j]:
                    u[p[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while True:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
            if j0 == 0:
                break
    out = [0] * n
    for j in range(1, m + 1):
        if p[j] != 0:
            out[p[j] - 1] = j - 1
    return out


# ---------------------------------------------------------------------------
# Hinton-style diagram export
# ---------------------------------------------------------------------------

_CELL = 26
_LABEL_W = 110
_HEADER_H = 24


def hinton_svg(imp: ImportanceMatrix, alignment: Alignment | None = None) -> str:
    """SVG Hinton diagram: one filled square per nonzero entry.

    Square side is proportional to the entry divided by the matrix maximum;
    cells named by an alignment get an outline. Output bytes are a pure
    function of the inputs.
    """
    values = imp.values
    n, m = values.shape
    vmax = float(values.max()) if values.size else 0.0
    width = _LABEL_W + m * _CELL + 10
    height = _HEADER_H + n * _CELL + 10
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>',
    ]
    for i in range(m):
        x = _LABEL_W + i * _CELL + _CELL / 2
        parts.append(
            f'<text x="{_fmt(x)}" y="16" font-family="monospace" font-size="12" '
            f'text-anchor="middle">z{i}</text>'
        )
    for j in range(n):
        y = _HEADER_H + j * _CELL + _CELL / 2 + 4
        parts.append(
            f'<text x="{_LABEL_W - 8}" y="{_fmt(y)}" font-family="monospace" '
            f'font-size="12" text-anchor="end">{_escape(imp.factor_names[j])}</text>'
        )
    for j in range(n):
        for i in range(m):
            v = float(values[j, i])
            if vmax > 0 and v > 0:
                side = (_CELL - 4) * (v / vmax)
                cx = _LABEL_W + i * _CELL + _CELL / 2
                cy = _HEADER_H + j * _CELL + _CELL / 2
                parts.append(
                    f'<rect class="cell" x="{_fmt(cx - side / 2)}" y="{_fmt(cy - side / 2)}" '
                    f'width="{_fmt(side)}" height="{_fmt(side)}" fill="#222222"/>'
                )
    if alignment is not None:
        for j, i in enumerate(alignment.assignment):
            x = _LABEL_W + i * _CELL + 1
            y = _HEADER_H + j * _CELL + 1
            parts.append(
                f'<rect class="aligned" x="{x}" y="{y}" width="{_CELL - 2}" '
                f'height="{_CELL - 2}" fill="none" stroke="#d62728" stroke-width="2"/>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def hinton_text(imp: ImportanceMatrix, alignment: Alignment | None = None) -> str:
    """Plain-text Hinton rendering: runs of '#' scaled 0-8 per cell.

    Aligned cells are wrapped in brackets.
    """
    values, names = imp.values, imp.factor_names
    n, m = values.shape
    vmax = float(values.max()) if values.size else 0.0
    label_w = max(len(s) for s in names)
    aligned = dict(enumerate(alignment.assignment)) if alignment is not None else {}
    lines = [" " * label_w + "  " + " ".join(f"{'z' + str(i):^10}" for i in range(m))]
    for j in range(n):
        cells = []
        for i in range(m):
            k = int(round(8 * values[j, i] / vmax)) if vmax > 0 else 0
            inner = "#" * k + " " * (8 - k)
            cells.append(f"[{inner}]" if aligned.get(j) == i else f" {inner} ")
        lines.append(f"{names[j]:<{label_w}}  " + " ".join(cells))
    return "\n".join(lines) + "\n"


def export_hinton(
    imp: ImportanceMatrix,
    alignment: Alignment | None = None,
    svg_path: str | Path | None = None,
    text_path: str | Path | None = None,
) -> None:
    """Write the SVG and/or text diagram atomically."""
    if svg_path is not None:
        atomic_write_text(svg_path, hinton_svg(imp, alignment))
    if text_path is not None:
        atomic_write_text(text_path, hinton_text(imp, alignment))


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _escape(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
