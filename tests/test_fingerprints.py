"""Byte-level fingerprints of fixed-seed CLI payloads.

Each test runs one CLI job on a fixed-seed input and pins the sha256 of
its JSON payload in canonical form (sorted keys, fixed separators, floats
by repr). A refactor that keeps every number bit-identical keeps every
hash; a change that alters numerics must say so and re-pin them. A second
hash pins the raw bytes `--out` writes, so a change of key order or
indentation fails too. The correlation payload of the shared
generator-family study is pinned the same two ways. What a user sees is
pinned as well: each job's stdout, which `report --in` must reprint from
the stored payload, and the `--svg` and `--text` Hinton files of the
`align` jobs.

Inputs: the exact `table1_b` population with 40 copies per cell (as in the
acceptance suite), whose neurons are already discrete, its split into the
rows with colour=0, shape=1 and the rest (the sets `cg` external mode
reads), and a noisy rotated 4x3 grid, whose continuous neurons go through
quantile binning and whose two cardinalities give SAP two bin widths. Probe
budgets are small: the hashes pin the numbers, not probe quality.
"""

import contextlib
import hashlib
import io
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

# sha256 of each job's stdout; `report --in` on its payload prints the same.
STDOUT_FINGERPRINTS = {
    "align_rotated": "d86c8727ff9c0c46dfe22663dee7af68c5f6709746dd5b0b8e123e223bfc7cdb",
    "align_table1_b": "0af564d20fcaea7208ffe8f14a7d0faf41bac0a5ea00538ce004be5899985722",
    "cg_control_table1_b": "9df7c2168ce58c8bcda87f11b8dcaf802adf0f42b7f5088d11909cda1c868282",
    "cg_external_table1_b": "9e24ead8979a260f45d90c223bc7bfb6ac16d839263925ddac30f63f0bdf55a5",
    "cg_no_control_table1_b": "8bd4bd7b944a69c72edf781dfa3d2395db126adfbdb6ea99e9836046a7bd5bc0",
    "cg_suite_table1_b": "8d771b31a030b78bec7f46ff27eb83ddfc018d635d3ee7fe3d1b51522c7fff3a",
    "metrics_rotated": "10bd4f2eab983a26f1141848783aa643bf8732f1b775ec5491e49921b9659fd8",
    "metrics_table1_b": "b95a05c49e938d0ff0e8922fa2854396d0df2691cdefbcb94f724e219ed2a1d2",
}

# sha256 of the Hinton files each align job writes with --svg and --text.
HINTON_FINGERPRINTS = {
    "align_rotated": {
        "svg": "7b5ef97deab31836ea7a31d6977bbfa55e0b8206c1e8b524a7da03dfd2d78e7f",
        "text": "d86c8727ff9c0c46dfe22663dee7af68c5f6709746dd5b0b8e123e223bfc7cdb",
    },
    "align_table1_b": {
        "svg": "f306efe4cf1dabfb3662a5e33eab979ef09a74f3ff34d5ea5959712ba7eaec46",
        "text": "0af564d20fcaea7208ffe8f14a7d0faf41bac0a5ea00538ce004be5899985722",
    },
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


def run_cli(argv) -> bytes:
    """Run one CLI command; return its stdout as bytes."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert cli(argv) == 0
    return stdout.getvalue().encode("utf-8")


@pytest.fixture(scope="module")
def outputs(inputs, tmp_path_factory):
    """Each job run once with --out (and --svg/--text for align jobs): its
    payload bytes, stdout, `report --in` stdout and Hinton files."""
    done = {}

    def run(job):
        if job not in done:
            root = tmp_path_factory.mktemp(job)
            payload = root / "payload.json"
            hinton = {"svg": root / "hinton.svg", "text": root / "hinton.txt"}
            argv = [str(inputs / a) if a.startswith(("table1_b", "rotated")) else a
                    for a in JOBS[job]]
            argv += ["--out", str(payload)]
            if job.startswith("align"):
                argv += ["--svg", str(hinton["svg"]), "--text", str(hinton["text"])]
            done[job] = {"stdout": run_cli(argv)}
            done[job]["report"] = run_cli(["report", "--in", str(payload)])
            done[job]["payload"] = payload.read_bytes()
            done[job].update({k: p.read_bytes() for k, p in hinton.items() if p.exists()})
        return done[job]

    return run


def sha256(raw: bytes) -> str:
    return hashlib.sha256(raw).hexdigest()


@pytest.mark.parametrize("job", sorted(JOBS))
def test_payload_fingerprint(job, outputs):
    raw = outputs(job)["payload"]
    assert canonical_sha256(json.loads(raw.decode("utf-8"))) == FINGERPRINTS[job]
    assert sha256(raw) == RAW_FINGERPRINTS[job]


@pytest.mark.parametrize("job", sorted(JOBS))
def test_stdout_fingerprint(job, outputs):
    out = outputs(job)
    assert sha256(out["stdout"]) == STDOUT_FINGERPRINTS[job]
    assert sha256(out["report"]) == STDOUT_FINGERPRINTS[job]


@pytest.mark.parametrize("job", sorted(job for job in JOBS if job.startswith("align")))
def test_hinton_fingerprint(job, outputs):
    out = outputs(job)
    assert {name: sha256(out[name]) for name in ("svg", "text")} == HINTON_FINGERPRINTS[job]


def test_correlation_fingerprint(generator_family_study):
    payload = generator_family_study["correlation"]
    assert canonical_sha256(payload) == CORRELATION_FINGERPRINT
    text = json.dumps(payload, indent=2) + "\n"
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == CORRELATION_RAW_FINGERPRINT
