"""Shared fixtures: exact toy populations and one precomputed study family.

The heavyweight artifacts (full metric reports, the generator-family study)
are session-scoped so the metric, analysis, and acceptance tests share one
computation.
"""

import math

import pytest
from hypothesis import settings

from detangle.analysis import correlate_metrics_with_cg
from detangle.cgtask import run_cg
from detangle.classify import MLP, TrainConfig
from detangle.dataset import FactorSchema
from detangle.metrics import compute_metric_report
from detangle.synth import (
    GeneratorSpec,
    IDEAL,
    JOINT_CODE,
    ROTATED,
    TABLE1_A,
    TABLE1_B,
    generate,
)

# A failing hypothesis test prints the @reproduce_failure line that replays
# it, so a failure seen once, in CI or locally, can be run again.
settings.register_profile("print_blob", print_blob=True)
settings.load_profile("print_blob")

CELL_COPIES_A = 400
CELL_COPIES_B = 40


@pytest.fixture(scope="session")
def variant_a_rep():
    return generate(GeneratorSpec(kind=TABLE1_A, samples_per_cell=CELL_COPIES_A))


@pytest.fixture(scope="session")
def variant_b_rep():
    return generate(GeneratorSpec(kind=TABLE1_B, samples_per_cell=CELL_COPIES_B))


@pytest.fixture(scope="session")
def variant_a_report(variant_a_rep):
    return compute_metric_report(variant_a_rep, config=TrainConfig(seed=7))


@pytest.fixture(scope="session")
def variant_b_report(variant_b_rep):
    return compute_metric_report(variant_b_rep, config=TrainConfig(seed=7))


# The held-out combination is interior on both axes. Probes extrapolate a
# class band through a gap that training data flanks on both sides; a corner
# cell leaves the band's far end unconstrained and the probe's behavior there
# is seed luck rather than representation quality.
STUDY_SCHEMA = FactorSchema(("size", "shape"), (4, 4))
STUDY_PAIR = ("size", 2, "shape", 1)
STUDY_SUBSET = ("size", "shape")
STUDY_COPIES = 40
STUDY_CONFIG = TrainConfig(seed=17, epochs=150, learning_rate=0.005)

STUDY_SPECS = (
    GeneratorSpec(kind=IDEAL, schema=STUDY_SCHEMA, samples_per_cell=STUDY_COPIES,
                  noise_sigma=0.02, seed=11),
    GeneratorSpec(kind=IDEAL, schema=STUDY_SCHEMA, samples_per_cell=STUDY_COPIES,
                  noise_sigma=0.05, seed=12),
    GeneratorSpec(kind=IDEAL, schema=STUDY_SCHEMA, samples_per_cell=STUDY_COPIES,
                  noise_sigma=0.10, seed=13),
    GeneratorSpec(kind=ROTATED, schema=STUDY_SCHEMA, samples_per_cell=STUDY_COPIES,
                  angle=math.pi / 16, noise_sigma=0.05, seed=14),
    GeneratorSpec(kind=ROTATED, schema=STUDY_SCHEMA, samples_per_cell=STUDY_COPIES,
                  angle=math.pi / 8, noise_sigma=0.05, seed=15),
    GeneratorSpec(kind=ROTATED, schema=STUDY_SCHEMA, samples_per_cell=STUDY_COPIES,
                  angle=3 * math.pi / 16, noise_sigma=0.05, seed=16),
    GeneratorSpec(kind=ROTATED, schema=STUDY_SCHEMA, samples_per_cell=STUDY_COPIES,
                  angle=math.pi / 4, noise_sigma=0.05, seed=17),
    GeneratorSpec(kind=JOINT_CODE, schema=STUDY_SCHEMA, samples_per_cell=STUDY_COPIES,
                  seed=18),
    GeneratorSpec(kind=JOINT_CODE, schema=STUDY_SCHEMA, samples_per_cell=STUDY_COPIES,
                  seed=19),
    GeneratorSpec(kind=JOINT_CODE, schema=STUDY_SCHEMA, samples_per_cell=STUDY_COPIES,
                  seed=20),
)


@pytest.fixture(scope="session")
def generator_family_study():
    """Metric reports + held-out-combination runs over the ten-model family.

    Returns a dict with the raw payload lists and the correlation table the
    analysis and acceptance tests both inspect.
    """
    metric_payloads, cg_payloads = [], []
    for spec in STUDY_SPECS:
        rep = generate(spec)
        metric_payloads.append(compute_metric_report(
            rep, config=STUDY_CONFIG, subset=STUDY_SUBSET, aggregate_mode="product"
        ))
        cg_payloads.append(run_cg(rep, STUDY_PAIR, MLP, STUDY_CONFIG))
    correlation = correlate_metrics_with_cg(
        metric_payloads,
        cg_payloads,
        subset=STUDY_SUBSET,
        metrics=("snc", "nk", "mig", "sap"),
    )
    return {
        "specs": STUDY_SPECS,
        "metric_payloads": metric_payloads,
        "cg_payloads": cg_payloads,
        "correlation": correlation,
    }
