"""Byte-level fingerprints of fixed-seed CLI payloads.

Each test runs one CLI job on a fixed-seed input and pins the sha256 of
its JSON payload in canonical form (sorted keys, fixed separators, floats
by repr). A refactor that keeps every number bit-identical keeps every
hash; a change that alters numerics must say so and re-pin them.

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
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert canonical_sha256(payload) == FINGERPRINTS[job]
