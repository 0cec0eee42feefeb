"""Evaluation toolkit for disentangled representations.

Scores a set of latent activations against ground-truth discrete factors:
single-neuron agreement and knockout metrics built on an injective
factor-to-neuron alignment, the older gap-based baselines (MIG, SAP, DCI),
a held-out-combination generalization harness, and deterministic synthetic
generators for all of it.

The package namespace exports the names below; everything else is imported
from its submodule (e.g. ``detangle.metrics.snc``). ``detangle.cli`` is the
command line module.
"""

from . import cli
from .align import Alignment, hinton_svg, hinton_text
from .analysis import betainc_regularized, pearson, t_two_sided_p
from .cgtask import render_cg_table, run_cg
from .classify import MLP, TrainConfig, train_probe
from .dataset import (
    DEFAULT_BINS,
    QUANTILE,
    FactorSchema,
    RepresentationSet,
    discretize_neuron,
    write_representation_set,
)
from .errors import (
    AlphabetOverflowError,
    DataIOError,
    DegenerateInputError,
    DetangleError,
    HeaderMismatchError,
    LabelOutOfRangeError,
    MalformedCsvError,
    NonFiniteLatentError,
    SchemaError,
    SplitError,
    TrainingDivergedError,
    ValidationError,
)
from .infotheory import ImportanceMatrix
from .metrics import compute_metric_report, render_metric_table
from .synth import GeneratorSpec, factor_grid, generate

__version__ = "0.1.0"

__all__ = [
    "Alignment",
    "AlphabetOverflowError",
    "DEFAULT_BINS",
    "DataIOError",
    "DegenerateInputError",
    "DetangleError",
    "FactorSchema",
    "GeneratorSpec",
    "HeaderMismatchError",
    "ImportanceMatrix",
    "LabelOutOfRangeError",
    "MLP",
    "MalformedCsvError",
    "NonFiniteLatentError",
    "QUANTILE",
    "RepresentationSet",
    "SchemaError",
    "SplitError",
    "TrainConfig",
    "TrainingDivergedError",
    "ValidationError",
    "betainc_regularized",
    "compute_metric_report",
    "discretize_neuron",
    "factor_grid",
    "generate",
    "hinton_svg",
    "hinton_text",
    "pearson",
    "render_cg_table",
    "render_metric_table",
    "run_cg",
    "t_two_sided_p",
    "train_probe",
    "write_representation_set",
]
