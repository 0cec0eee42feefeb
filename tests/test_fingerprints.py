"""Byte-level fingerprints of fixed-seed CLI payloads.

Each test runs one CLI job on a fixed-seed input and pins the sha256 of
its JSON payload in canonical form (sorted keys, fixed separators, floats
by repr). A refactor that keeps every number bit-identical keeps every
hash; a change that alters numerics must say so and re-pin them. A second
hash pins the raw bytes `--out` writes, so a change of key order or
indentation fails too. The correlation payload of the shared
generator-family study is pinned the same two ways.

Inputs: the exact `table1_b` population with 40 copies per cell (as in the
acceptance suite), whose neurons are already discrete, its split into the
rows with colour=0, shape=1 and the rest (the sets `cg` external mode
reads), and a noisy rotated 4x3 grid, whose continuous neurons go through
quantile binning and whose two cardinalities give SAP two bin widths. Probe
budgets are small: the hashes pin the numbers, not probe quality.
"""

import hashlib
import json

import numpy as np
import pytest

from detangle.cli import cli
from detangle.dataset import load_representation_set, write_representation_set

FINGERPRINTS = {
    "metrics_table1_b": "82cb4fb7385b736c52967aa7c911e4fc6a1eef0aa54808ef47ed360913671e1e",
    "align_table1_b": "6d4ac28f4c4165360d260f3570a45396547893bc4f789129604ec2839ed029ef",
    "cg_control_table1_b": "3c1556bc3c05ee163f3b07697716e38395efdb7a5b16a5012a26bdf01e465778",
    "cg_no_control_table1_b": "204e288671539f6da93f88a7c41b0dee4433611700410a1f155d64ff126335e9",
    "cg_external_table1_b": "600f283f07d6ab4c29cc94a336a16fa7be40fef5e77df0151303b4cc30a7ff29",
    "cg_suite_table1_b": "9d3f77bceb158a85357a6b05ca9c686397ae9ac01f22c17bf34583cc20155c9f",
    "metrics_rotated": "21783c2244f868281aa04869bf16a04a7c1407010562e0ff3e7ded71dc7a5859",
    "align_rotated": "db2e83a428477fe4a1f07974bfce8cad09c9d3c47fbf382422ded463b5e10f09",
}

# sha256 of the file each job writes with --out, byte for byte.
RAW_FINGERPRINTS = {
    "metrics_table1_b": "218c8d1abd861e79d3a0ffb94ce1fba96fc9547beca945f12053ff1d24dfe37e",
    "align_table1_b": "9c09c318c91b40636a107b71608cae56d37b22538c2b73d8f6a09edef8d639b4",
    "cg_control_table1_b": "cea96c628d8178217cc7f22a7092b07be8a1f1a0a787281d65dbd847de3816da",
    "cg_no_control_table1_b": "27def5f952de4ceef799f3c5dc3c7c960dfb46cf7dfb4266b282191b8b113a2a",
    "cg_external_table1_b": "01ebb923f7981c76f2b5358747167646d2eaf57bc26014ba5dc990f23874108f",
    "cg_suite_table1_b": "e44f508814fe738c4ea9616b7a87676a2e21968a37078cb74651dea17f65c8ad",
    "metrics_rotated": "91f864914d05c45417f6947d426a0adcf7112ffb915317b6915c60ce245d6b50",
    "align_rotated": "92549680563f628d48f0912d925d0968e819357bccc03d7429e5103d045bd01c",
}

CORRELATION_FINGERPRINT = "fbf312091db09f9d1a656eb551632b5c34063f86f887f3acb5503d0c4a4b14ac"
CORRELATION_RAW_FINGERPRINT = "74e228b9063169627167486a4c24ece27b73be7bbd64eb7d262979b879644140"


def canonical_sha256(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("fingerprints")
    assert cli(["synth", "--kind", "table1_b", "--copies", "40",
                "--seed", "3", "--out", str(root / "table1_b")]) == 0
    assert cli(["synth", "--kind", "rotated", "--factors", "size:4,shape:3",
                "--copies", "25", "--sigma", "0.3", "--angle", "0.6",
                "--seed", "14", "--out", str(root / "rotated")]) == 0
    rep = load_representation_set(root / "table1_b" / "data.csv", root / "table1_b" / "schema.json")
    held_out = (rep.labels[:, 0] == 0) & (rep.labels[:, 1] == 1)
    for name, rows in (("table1_b_train", ~held_out), ("table1_b_test", held_out)):
        (root / name).mkdir()
        write_representation_set(rep.subset(np.flatnonzero(rows)),
                                 root / name / "data.csv", root / name / "schema.json")
    return root


JOBS = {
    "metrics_table1_b": ["metrics", "--data", "table1_b", "--seed", "7", "--epochs", "3"],
    "align_table1_b": ["align", "--data", "table1_b"],
    "cg_control_table1_b": ["cg", "--data", "table1_b", "--pairs", "colour:0,shape:1",
                            "--probe", "both", "--seed", "17", "--epochs", "3"],
    "cg_suite_table1_b": ["cg", "--data", "table1_b",
                          "--pairs", "colour:0,shape:1;colour:1,shape:0;shape:1,colour:1",
                          "--probe", "both", "--seed", "17", "--epochs", "3"],
    "cg_no_control_table1_b": ["cg", "--data", "table1_b", "--pairs", "shape:1,colour:1",
                               "--probe", "linear", "--no-control", "--seed", "17",
                               "--epochs", "3"],
    "cg_external_table1_b": ["cg", "--train-data", "table1_b_train",
                             "--test-data", "table1_b_test", "--pairs", "colour:0,shape:1",
                             "--probe", "both", "--seed", "17", "--epochs", "3"],
    "metrics_rotated": ["metrics", "--data", "rotated", "--seed", "7", "--epochs", "3",
                        "--subset", "size,shape"],
    "align_rotated": ["align", "--data", "rotated", "--bins", "12"],
}


@pytest.mark.parametrize("job", sorted(JOBS))
def test_payload_fingerprint(job, inputs, tmp_path, capsys):
    argv = [str(inputs / a) if a.startswith(("table1_b", "rotated")) else a for a in JOBS[job]]
    out = tmp_path / "payload.json"
    assert cli(argv + ["--out", str(out)]) == 0
    capsys.readouterr()
    raw = out.read_bytes()
    assert canonical_sha256(json.loads(raw.decode("utf-8"))) == FINGERPRINTS[job]
    assert hashlib.sha256(raw).hexdigest() == RAW_FINGERPRINTS[job]


def test_correlation_fingerprint(generator_family_study):
    payload = generator_family_study["correlation"]
    assert canonical_sha256(payload) == CORRELATION_FINGERPRINT
    text = json.dumps(payload, indent=2) + "\n"
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == CORRELATION_RAW_FINGERPRINT
