"""Seeded synthetic representation generators with known ground truth.

Every generator returns a RepresentationSet. With exact_population=True the
discrete constructions emit their smallest exact base population (all coins
and agreement rates realized with exact multiplicities) replicated
samples_per_cell times; with exact_population=False each factor combination
appears samples_per_cell times and coins are drawn from the seeded RNG.
Gaussian noise is always drawn from the seeded RNG.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import FactorSchema, RepresentationSet
from .errors import ValidationError
from .util import require_int

TABLE1_A = "table1_a"
TABLE1_B = "table1_b"
XOR = "xor"
REDUNDANT_XOR = "redundant_xor"
IDEAL = "ideal"
ROTATED = "rotated"
JOINT_CODE = "joint_code"
NOISE = "noise"
GENERATOR_KINDS = (TABLE1_A, TABLE1_B, XOR, REDUNDANT_XOR, IDEAL, ROTATED, JOINT_CODE, NOISE)

DEFAULT_MAX_ROWS = 10_000_000  # the most rows factor_grid and generate emit

_TABLE1_SCHEMA = FactorSchema(("colour", "shape"), (2, 2))
_XOR_SCHEMA = FactorSchema(("parity",), (2,))
# Per fixed-schema kind: its default schema, and the structure a given schema needs.
_FIXED_SCHEMAS = {
    TABLE1_A: (_TABLE1_SCHEMA, "two binary factors"),
    TABLE1_B: (_TABLE1_SCHEMA, "two binary factors"),
    XOR: (_XOR_SCHEMA, "a single binary factor"),
    REDUNDANT_XOR: (_XOR_SCHEMA, "a single binary factor"),
}


@dataclass(frozen=True)
class GeneratorSpec:
    """Declarative description of one synthetic representation.

    Args:
        kind: one of GENERATOR_KINDS.
        schema: required for ideal/rotated/joint_code/noise; the fixed-schema
            kinds (table1_*, xor, redundant_xor) accept None or a schema with
            the matching structure (2 binary factors, resp. 1 binary factor).
        samples_per_cell: multiplicity (see module docstring).
        exact_population: exact multiplicities vs sampled coins.
        noise_sigma: gaussian sigma for ideal/rotated latents.
        angle: rotation in radians, rotated kind only.
        seed: RNG seed for sampling, noise, and the joint-code shuffle.
    """

    kind: str
    schema: FactorSchema | None = None
    samples_per_cell: int = 1
    exact_population: bool = True
    noise_sigma: float = 0.0
    angle: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.kind not in GENERATOR_KINDS:
            raise ValidationError(f"unknown generator kind {self.kind!r}")
        for name in ("samples_per_cell", "seed"):
            object.__setattr__(self, name, require_int(getattr(self, name), name))
        if self.samples_per_cell < 1:
            raise ValidationError("samples_per_cell must be >= 1")
        if not 0 <= self.noise_sigma < math.inf:  # NaN fails this too
            raise ValidationError(f"noise_sigma must be >= 0 and finite, got {self.noise_sigma}")
        if self.kind == ROTATED:
            if self.angle is None:
                raise ValidationError("rotated generator needs an angle (radians)")
            if not math.isfinite(self.angle):
                raise ValidationError(f"angle must be finite, got {self.angle}")
        elif self.angle is not None:
            raise ValidationError(f"angle is only valid for the rotated kind, not {self.kind!r}")

        if self.kind in _FIXED_SCHEMAS:
            default, needs = _FIXED_SCHEMAS[self.kind]
            if self.schema is not None and tuple(self.schema.cardinalities) != default.cardinalities:
                raise ValidationError(f"{self.kind} needs {needs}")
        elif self.kind == ROTATED:
            if self.schema is None or self.schema.n_factors != 2:
                raise ValidationError("rotated generator needs a schema with exactly 2 factors")
        elif self.kind == JOINT_CODE:
            if self.schema is None or self.schema.n_factors < 2:
                raise ValidationError("joint_code generator needs a schema with >= 2 factors")
        else:
            if self.schema is None:
                raise ValidationError(f"{self.kind} generator needs a schema")

    def resolved_schema(self) -> FactorSchema:
        return self.schema if self.schema is not None else _FIXED_SCHEMAS[self.kind][0]


def factor_grid(schema: FactorSchema, copies: int = 1) -> np.ndarray:
    """Full cartesian product of factor values in lexicographic order
    (factor 0 varies slowest), each combination repeated `copies` times
    consecutively; at most DEFAULT_MAX_ROWS rows, checked before allocating."""
    if copies < 1:
        raise ValidationError("copies must be >= 1")
    cells = math.prod(schema.cardinalities)
    total = cells * copies
    if total > DEFAULT_MAX_ROWS:
        raise ValidationError(f"grid of {total} rows exceeds the cap of {DEFAULT_MAX_ROWS}")
    mesh = np.meshgrid(*[np.arange(k) for k in schema.cardinalities], indexing="ij")
    grid = np.stack(mesh, axis=-1).reshape(-1, schema.n_factors).astype(np.int64)
    return np.repeat(grid, copies, axis=0)


def generate(spec: GeneratorSpec) -> RepresentationSet:
    """Materialize a GeneratorSpec into a representation set."""
    rng = np.random.default_rng(spec.seed)
    schema = spec.resolved_schema()
    builder = {
        TABLE1_A: _gen_table1_a,
        TABLE1_B: _gen_table1_b,
        XOR: _gen_xor,
        REDUNDANT_XOR: _gen_redundant_xor,
        IDEAL: _gen_ideal,
        ROTATED: _gen_rotated,
        JOINT_CODE: _gen_joint_code,
        NOISE: _gen_noise,
    }[spec.kind]
    latents, labels = builder(spec, schema, rng)
    if labels.shape[0] > DEFAULT_MAX_ROWS:
        raise ValidationError(
            f"generated {labels.shape[0]} rows, exceeding the cap of {DEFAULT_MAX_ROWS}"
        )
    return RepresentationSet(latents, labels, schema)


# ---------------------------------------------------------------------------
# two-factor worked constructions: one neuron encoding both factors at 75%
# ---------------------------------------------------------------------------
#
# z0 is 0 on (colour 0, shape 0), 1 on (colour 1, shape 1), and a fair coin
# on the two mixed cells, so thresholding z0 predicts either factor with 75%
# accuracy. In variant A, z1 is a fair coin carrying no factor information;
# in variant B, z1 equals the shape bit with 70% agreement.

# base rows per cell: (colour, shape) -> list of (z0, z1); z1 is balanced
# within every cell and exactly uncorrelated with z0 over the population.
_TABLE1_A_BASE = {
    (0, 0): [(0, 0), (0, 1)],
    (1, 0): [(0, 1), (1, 0)],
    (0, 1): [(0, 0), (1, 1)],
    (1, 1): [(1, 0), (1, 1)],
}


def _gen_table1_a(spec, schema, rng):
    if spec.exact_population:
        rows = []
        for (colour, shape_), zs in _TABLE1_A_BASE.items():
            for z0, z1 in zs:
                rows.append((z0, z1, colour, shape_))
        base = np.array(rows, dtype=np.float64)
        data = np.repeat(base, spec.samples_per_cell, axis=0)
        return data[:, :2].copy(), data[:, 2:].astype(np.int64)
    labels = factor_grid(schema, spec.samples_per_cell)
    z0 = _table1_informative_neuron(labels, rng)
    z1 = rng.integers(0, 2, size=labels.shape[0]).astype(np.float64)
    return np.column_stack([z0, z1]), labels


def _gen_table1_b(spec, schema, rng):
    if spec.exact_population:
        rows = []
        for colour in (0, 1):
            for shape_ in (0, 1):
                z0_values = [colour] * 20 if colour == shape_ else [0] * 10 + [1] * 10
                # per 10-row block: 7 rows agree with shape, 3 disagree
                agree_pattern = ([shape_] * 7 + [1 - shape_] * 3) * 2
                for z0, z1 in zip(z0_values, agree_pattern):
                    rows.append((z0, z1, colour, shape_))
        base = np.array(rows, dtype=np.float64)
        data = np.repeat(base, spec.samples_per_cell, axis=0)
        return data[:, :2].copy(), data[:, 2:].astype(np.int64)
    labels = factor_grid(schema, spec.samples_per_cell)
    z0 = _table1_informative_neuron(labels, rng)
    shape_col = labels[:, 1]
    agree = rng.random(labels.shape[0]) < 0.7
    z1 = np.where(agree, shape_col, 1 - shape_col).astype(np.float64)
    return np.column_stack([z0, z1]), labels


def _table1_informative_neuron(labels, rng):
    colour, shape_ = labels[:, 0], labels[:, 1]
    coin = rng.integers(0, 2, size=labels.shape[0])
    z0 = np.where(colour == shape_, colour, coin)
    return z0.astype(np.float64)


# ---------------------------------------------------------------------------
# XOR constructions: the factor is recoverable only from neurons jointly
# ---------------------------------------------------------------------------


def _gen_xor(spec, schema, rng):
    g0, carrier = _xor_bits(spec, rng)
    latents = np.column_stack([carrier, np.bitwise_xor(g0, carrier)]).astype(np.float64)
    return latents, g0.reshape(-1, 1)


def _gen_redundant_xor(spec, schema, rng):
    g0, carrier = _xor_bits(spec, rng)
    latents = np.column_stack([g0, carrier, np.bitwise_xor(g0, carrier)]).astype(np.float64)
    return latents, g0.reshape(-1, 1)


def _xor_bits(spec, rng):
    if spec.exact_population:
        base = np.array([(g, a) for g in (0, 1) for a in (0, 1)], dtype=np.int64)
        pairs = np.repeat(base, spec.samples_per_cell, axis=0)
        return pairs[:, 0].copy(), pairs[:, 1].copy()
    g0 = np.repeat(np.array([0, 1], dtype=np.int64), spec.samples_per_cell)
    carrier = rng.integers(0, 2, size=g0.shape[0])
    return g0, carrier


# ---------------------------------------------------------------------------
# parametric families over an arbitrary schema
# ---------------------------------------------------------------------------


def _gen_ideal(spec, schema, rng):
    labels = factor_grid(schema, spec.samples_per_cell)
    latents = labels.astype(np.float64)
    if spec.noise_sigma > 0:
        latents = latents + spec.noise_sigma * rng.standard_normal(latents.shape)
    return latents, labels


def _gen_rotated(spec, schema, rng):
    latents, labels = _gen_ideal(spec, schema, rng)
    c, s = math.cos(spec.angle), math.sin(spec.angle)
    rotation = np.array([[c, -s], [s, c]])
    return latents @ rotation.T, labels


def _gen_joint_code(spec, schema, rng):
    """One neuron enumerates every factor combination; the rest is noise.

    The combination index is passed through a seeded shuffle before scaling
    to [0, 1] so that no single factor stays recoverable from contiguous
    ranges of the code, then the remaining n-1 neurons are unit gaussians.
    """
    labels = factor_grid(schema, spec.samples_per_cell)
    n_cells = math.prod(schema.cardinalities)
    index = np.ravel_multi_index(labels.T, schema.cardinalities)
    shuffle = rng.permutation(n_cells)
    code = shuffle[index].astype(np.float64) / float(n_cells - 1)
    fillers = rng.standard_normal((labels.shape[0], schema.n_factors - 1))
    return np.column_stack([code, fillers]), labels


def _gen_noise(spec, schema, rng):
    labels = factor_grid(schema, spec.samples_per_cell)
    sigma = spec.noise_sigma if spec.noise_sigma > 0 else 1.0
    latents = sigma * rng.standard_normal((labels.shape[0], schema.n_factors))
    return latents, labels
