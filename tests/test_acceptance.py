"""Acceptance suite: the package's headline guarantees, one test per criterion.

Every test builds its own inputs (only the generator-family study is shared
through the session fixture) and asserts the stated tolerances. Criteria
with a runtime budget time themselves with a monotonic clock.
"""

import itertools
import math
import time
from pathlib import Path

import numpy as np
import pytest

import detangle
from detangle.align import (
    assignment_objective,
    greedy_alignment,
    injective_alignment,
    max_weight_assignment,
)
from detangle.analysis import pearson
from detangle.classify import (
    LINEAR,
    MLP,
    TrainConfig,
    accuracy,
    adjusted_accuracy,
    probe_loss_and_gradients,
    train_probe,
)
from detangle.dataset import SplitSpec, split_indices
from detangle.infotheory import (
    entropy_from_probs,
    importance_matrix,
    joint_mutual_information,
    mutual_information,
)
from detangle.metrics import compute_metric_report, factor_entropies, mig, nk, sap
from detangle.cgtask import run_cg
from detangle.synth import (
    GENERATOR_KINDS,
    GeneratorSpec,
    IDEAL,
    JOINT_CODE,
    REDUNDANT_XOR,
    TABLE1_A,
    TABLE1_B,
    XOR,
    generate,
)

from conftest import (
    CELL_COPIES_A,
    CELL_COPIES_B,
    STUDY_CONFIG,
    STUDY_PAIR,
    STUDY_SCHEMA,
    STUDY_COPIES,
)


def test_criterion_1_toy_population_information_values():
    start = time.perf_counter()
    rep = generate(GeneratorSpec(kind=TABLE1_A))
    h = entropy_from_probs([0.75, 0.25])
    assert h == pytest.approx(0.8113, abs=5e-4)

    first_neuron = rep.latents[:, 0].astype(np.int64)
    mi = mutual_information(first_neuron, rep.labels[:, 0])
    assert mi == pytest.approx(0.1887, abs=5e-4)

    rep_b = generate(GeneratorSpec(kind=TABLE1_B))
    shape_col = rep_b.schema.index_of("shape")
    mi_b = mutual_information(rep_b.latents[:, 1].astype(np.int64),
                              rep_b.labels[:, shape_col])
    assert mi_b == pytest.approx(0.1187, abs=5e-4)

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"criterion 1: PASS  H={h:.4f} (0.8113±5e-4)  I={mi:.4f} (0.1887±5e-4)  "
          f"I_b={mi_b:.4f} (0.1187±5e-4)  {elapsed:.2f}s < 1s")


def test_criterion_2_metric_shift_between_worked_examples():
    start = time.perf_counter()
    config = TrainConfig(seed=7)
    report_a = compute_metric_report(
        generate(GeneratorSpec(kind=TABLE1_A, samples_per_cell=CELL_COPIES_A)),
        config=config).to_json_dict()
    report_b = compute_metric_report(
        generate(GeneratorSpec(kind=TABLE1_B, samples_per_cell=CELL_COPIES_B)),
        config=config).to_json_dict()

    assert report_a["snc"]["mean"] == pytest.approx(0.25, abs=0.02)
    assert report_b["snc"]["mean"] == pytest.approx(0.45, abs=0.02)

    for rep in (report_a, report_b):
        assert rep["nk"]["per_factor"]["colour"] == pytest.approx(0.25, abs=0.05)
        assert rep["nk"]["per_factor"]["shape"] == pytest.approx(0.0, abs=0.05)

    assert report_a["mig"]["per_factor"]["shape"] == pytest.approx(0.1887, abs=0.005)
    assert report_b["mig"]["per_factor"]["shape"] == pytest.approx(0.07, abs=0.005)

    assert report_a["sap"]["mean"] == pytest.approx(0.25, abs=0.01)
    assert report_b["sap"]["mean"] == pytest.approx(0.15, abs=0.01)

    assert report_b["dci"]["avg_dc"] < report_a["dci"]["avg_dc"]

    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(f"criterion 2: PASS  SNC {report_a['snc']['mean']:.3f}->"
          f"{report_b['snc']['mean']:.3f}  NK ({report_a['nk']['per_factor']['colour']:.3f}, "
          f"{report_a['nk']['per_factor']['shape']:.3f})  MIG shape "
          f"{report_a['mig']['per_factor']['shape']:.4f}->"
          f"{report_b['mig']['per_factor']['shape']:.4f}  SAP "
          f"{report_a['sap']['mean']:.3f}->{report_b['sap']['mean']:.3f}  DCI avg "
          f"{report_a['dci']['avg_dc']:.3f}->{report_b['dci']['avg_dc']:.3f}  "
          f"{elapsed:.1f}s < 120s")


def test_criterion_3_alignment_optimality():
    start = time.perf_counter()
    imp = importance_matrix(generate(GeneratorSpec(kind=TABLE1_A)))

    greedy = greedy_alignment(imp)
    assert greedy.assignment[0] == greedy.assignment[1]

    injective = injective_alignment(imp)
    assert len(set(injective.assignment)) == len(injective.assignment)
    best = max(
        assignment_objective(imp.values, perm)
        for perm in itertools.permutations(range(imp.n_neurons), imp.n_factors)
    )
    assert injective.objective_value == best

    rng = np.random.default_rng(123)
    for trial in range(200):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(n, 9))
        values = rng.random((n, m))
        values[rng.random((n, m)) < 0.2] = 0.0

        expect_assignment, expect_objective = None, -math.inf
        for perm in itertools.permutations(range(m), n):
            objective = assignment_objective(values, perm)
            if objective > expect_objective:
                expect_assignment, expect_objective = perm, objective
        got_assignment, got_objective = max_weight_assignment(values)
        assert got_objective == expect_objective, trial
        assert got_assignment == expect_assignment, trial

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"criterion 3: PASS  greedy shares neuron {greedy.assignment[0]}, "
          f"injective {injective.assignment} optimal, 200 matrices exact  "
          f"{elapsed:.1f}s < 30s")


def test_criterion_4_xor_information_structure():
    rep = generate(GeneratorSpec(kind=XOR))
    parity = rep.labels[:, 0]
    neurons = [rep.latents[:, i].astype(np.int64) for i in range(rep.n_neurons)]
    single = [mutual_information(col, parity) for col in neurons]
    assert all(mi < 1e-9 for mi in single)
    joint = joint_mutual_information(neurons, parity)
    assert joint == pytest.approx(1.0, abs=1e-9)

    redundant = generate(GeneratorSpec(kind=REDUNDANT_XOR, samples_per_cell=256))
    imp = importance_matrix(redundant)
    name = redundant.schema.names[0]
    mig_score = mig(imp, factor_entropies(redundant)).per_factor[name]
    assert mig_score > 0.9
    nk_score = nk(redundant, injective_alignment(imp),
                  config=TrainConfig(seed=7)).per_factor[name]
    assert nk_score < 0.05

    print(f"criterion 4: PASS  single-neuron MI {max(single):.2e} < 1e-9, "
          f"joint MI {joint:.10f} = 1±1e-9; redundant copy: MIG {mig_score:.3f} > 0.9, "
          f"NK {nk_score:.3f} < 0.05")


@pytest.mark.xfail(
    reason="a single binned neuron on a balanced binary factor never exceeds"
           " a 0.5 accuracy gap, so this threshold is unreachable for the"
           " redundant-copy generator",
    strict=True,
)
def test_criterion_4_sap_clause_unattainable():
    redundant = generate(GeneratorSpec(kind=REDUNDANT_XOR, samples_per_cell=256))
    sap_score = sap(redundant).per_factor[redundant.schema.names[0]]
    assert sap_score > 0.9


def test_criterion_5_probe_correctness():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(8, 3))
    y = rng.integers(0, 4, size=8)
    weights = {
        "W1": rng.normal(scale=0.5, size=(3, 5)),
        "b1": rng.normal(scale=0.3, size=5) + 0.4,
        "W2": rng.normal(scale=0.5, size=(5, 4)),
        "b2": rng.normal(scale=0.1, size=4),
    }
    assert np.abs(X @ weights["W1"] + weights["b1"]).min() > 1e-3
    _, grads = probe_loss_and_gradients(weights, MLP, X, y)
    worst = 0.0
    h = 1e-6
    for key in weights:
        flat = weights[key].ravel()
        num = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up, _ = probe_loss_and_gradients(weights, MLP, X, y)
            flat[i] = orig - h
            down, _ = probe_loss_and_gradients(weights, MLP, X, y)
            flat[i] = orig
            num[i] = (up - down) / (2.0 * h)
        diff = np.abs(grads[key].ravel() - num).max()
        scale = max(1e-8, float(np.abs(grads[key]).max() + np.abs(num).max()))
        worst = max(worst, diff / scale)
    assert worst < 1e-4

    xor_rep = generate(GeneratorSpec(kind=XOR, samples_per_cell=256))
    features, labels = xor_rep.latents, xor_rep.labels[:, 0]
    config = TrainConfig(seed=3)
    linear_acc = accuracy(train_probe(features, labels, LINEAR, config),
                          features, labels)
    mlp_model = train_probe(features, labels, MLP, config)
    mlp_acc = accuracy(mlp_model, features, labels)
    assert linear_acc <= 0.75
    assert mlp_acc >= 0.99

    twin = train_probe(features, labels, MLP, config)
    assert all(np.array_equal(mlp_model.weights[k], twin.weights[k])
               for k in mlp_model.weights)
    assert np.array_equal(mlp_model.predict(features), twin.predict(features))

    print(f"criterion 5: PASS  gradient rel err {worst:.2e} < 1e-4, "
          f"linear {linear_acc:.3f} <= 0.75, MLP {mlp_acc:.3f} >= 0.99, "
          f"retrain bit-identical")


def test_criterion_6_chance_adjustment_and_significance():
    for r in (0.1, 0.25, 0.5, 0.9):
        assert adjusted_accuracy(r, r) == 0.0
        assert adjusted_accuracy(1.0, r) == 1.0

    def exact_r_vectors(target_r, n):
        x = np.linspace(-1.0, 1.0, n)
        x = (x - x.mean()) / np.sqrt(np.sum((x - x.mean()) ** 2))
        rng = np.random.default_rng(42)
        e = rng.normal(size=n)
        e = e - e.mean()
        e = e - x * np.dot(e, x)
        e = e / np.sqrt(np.sum(e * e))
        return x, target_r * x + math.sqrt(1.0 - target_r**2) * e

    big = pearson(*exact_r_vectors(0.85, 18))
    assert big.t == pytest.approx(6.45, abs=0.01)
    assert big.p < 1e-5

    small = pearson(*exact_r_vectors(0.85, 6))
    assert small.t == pytest.approx(3.23, abs=0.01)
    assert small.p < 0.033

    print(f"criterion 6: PASS  identities hold; t18={big.t:.4f} (6.45±0.01) "
          f"p={big.p:.2e} < 1e-5; t6={small.t:.4f} (3.23±0.01) p={small.p:.4f} < 0.033")


def test_criterion_7_generalization_harness():
    start = time.perf_counter()
    ideal_rep = generate(GeneratorSpec(kind=IDEAL, schema=STUDY_SCHEMA,
                                       samples_per_cell=STUDY_COPIES,
                                       noise_sigma=0.05, seed=12))
    ideal_run = run_cg(ideal_rep, STUDY_PAIR, MLP, STUDY_CONFIG)
    assert ideal_run.joint_both["adjusted"] >= 0.95
    assert ideal_run.audit["leaked_rows"] == 0
    assert ideal_run.audit["clean"] is True

    code_rep = generate(GeneratorSpec(kind=JOINT_CODE, schema=STUDY_SCHEMA,
                                      samples_per_cell=STUDY_COPIES, seed=18))
    code_run = run_cg(code_rep, STUDY_PAIR, MLP, STUDY_CONFIG)
    assert code_run.joint_both["adjusted"] <= 0.10
    assert code_run.audit["leaked_rows"] == 0

    # The reported random-split control must look like an independently
    # trained random-split evaluation of the same representation.
    control = ideal_run.control
    split = SplitSpec(kind="random",
                      test_fraction=control["split"]["test_fraction"], seed=999)
    train_idx, test_idx = split_indices(ideal_rep, split)
    train, test = ideal_rep.subset(train_idx), ideal_rep.subset(test_idx)
    hits = []
    for j, name in enumerate(ideal_rep.schema.names):
        model = train_probe(train.latents, train.labels[:, j], MLP,
                            STUDY_CONFIG.with_seed(1000 + j),
                            n_classes=ideal_rep.schema.cardinalities[j])
        hits.append(model.predict(test.latents) == test.labels[:, j])
    independent = float(np.mean(np.logical_and.reduce(hits)))
    assert abs(control["joint_both"]["raw"] - independent) <= 0.03

    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    print(f"criterion 7: PASS  ideal joint {ideal_run.joint_both['adjusted']:.3f} >= 0.95, "
          f"entangled code {code_run.joint_both['adjusted']:.3f} <= 0.10, control "
          f"{control['joint_both']['raw']:.3f} vs independent {independent:.3f} "
          f"(|diff| <= 0.03), 0 leaked rows  {elapsed:.1f}s < 300s")


def test_criterion_8_metric_generalization_correlation(generator_family_study):
    correlation = generator_family_study["correlation"]
    assert correlation["n_models"] >= 8
    r_snc = correlation["per_metric"]["snc"]["correlation"]["r"]
    r_mig = correlation["per_metric"]["mig"]["correlation"]["r"]
    assert r_snc > 0.5
    assert r_snc >= r_mig
    print(f"criterion 8: PASS  {correlation['n_models']} models, "
          f"r(SNC)={r_snc:.4f} > 0.5 and >= r(MIG)={r_mig:.4f}")


def test_criterion_9_full_scale_image_tables_out_of_scope():
    # The package evaluates supplied encodings; it ships no image pipeline
    # or encoder training, and its only runtime dependency is numpy.
    public = {name.lower() for name in dir(detangle)}
    assert not any("vae" in name or "image" in name or "encoder" in name
                   for name in public)
    assert set(GENERATOR_KINDS) == {"table1_a", "table1_b", "xor", "redundant_xor",
                                    "ideal", "rotated", "joint_code", "noise"}
    import tomllib  # standard library from Python 3.11

    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    runtime_deps = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["dependencies"]
    assert runtime_deps and all(req.startswith("numpy") for req in runtime_deps)
    print("criterion 9: PASS  synthetic generators and probe harness only; "
          "no image-model training surface is declared or shipped")
