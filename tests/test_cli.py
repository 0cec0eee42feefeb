"""End-to-end tests for the command line front end.

Every test drives cli() in process with an argv list and asserts on the
exit code, the files written, and the rendered stdout. A couple of tests
shell out to confirm the entry points work from the source tree.
"""

import importlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import detangle
import detangle.cgtask as cgtask
import detangle.classify as classify_module
import detangle.metrics as metrics_module
from detangle.cli import build_parser, cli
from detangle.dataset import FactorSchema, RepresentationSet, write_representation_set
from detangle.util import payload_kind

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def run_python(*args):
    """Run a fresh interpreter that imports this checkout's detangle package."""
    src = str(Path(detangle.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Shared directory tree populated once by real CLI invocations.

    Layout:
      a/          table1_a, 400 rows
      b/          table1_b, 80 rows
      ideal/ rotated/ code/   4x4 two-factor sets, 160 rows each
      a_metrics.json          metrics report for a/
      <model>_metrics.json, <model>_cg.json   per 4x4 model
    """
    root = tmp_path_factory.mktemp("cli")
    assert cli(["synth", "--kind", "table1_a", "--copies", "50",
                "--seed", "3", "--out", str(root / "a")]) == 0
    assert cli(["synth", "--kind", "table1_b", "--copies", "1",
                "--seed", "3", "--out", str(root / "b")]) == 0
    grid = "size:4,shape:4"
    assert cli(["synth", "--kind", "ideal", "--factors", grid, "--copies", "10",
                "--sigma", "0.05", "--seed", "11", "--out", str(root / "ideal")]) == 0
    assert cli(["synth", "--kind", "rotated", "--factors", grid, "--copies", "10",
                "--sigma", "0.05", "--angle", "0.6", "--seed", "14",
                "--out", str(root / "rotated")]) == 0
    assert cli(["synth", "--kind", "joint_code", "--factors", grid, "--copies", "10",
                "--seed", "18", "--out", str(root / "code")]) == 0

    assert cli(["metrics", "--data", str(root / "a"), "--seed", "7",
                "--out", str(root / "a_metrics.json")]) == 0
    # 160-row grids need a bigger training budget than the 3200-row default
    budget = ["--epochs", "150", "--learning-rate", "0.005"]
    for model in ("ideal", "rotated", "code"):
        assert cli(["metrics", "--data", str(root / model), "--seed", "7",
                    "--subset", "size,shape", "--aggregate", "product",
                    "--out", str(root / f"{model}_metrics.json")] + budget) == 0
        assert cli(["cg", "--data", str(root / model), "--pairs", "size:2,shape:1",
                    "--probe", "mlp", "--seed", "17",
                    "--out", str(root / f"{model}_cg.json")] + budget) == 0
    return root


class TestSynth:
    def test_writes_csv_and_schema(self, workspace):
        assert (workspace / "a" / "data.csv").is_file()
        assert (workspace / "a" / "schema.json").is_file()
        header = (workspace / "a" / "data.csv").read_text().splitlines()[0]
        assert header == "z0,z1,g0,g1"
        schema = read_json(workspace / "a" / "schema.json")
        assert [f["name"] for f in schema["factors"]] == ["colour", "shape"]

    def test_row_count_and_summary_line(self, tmp_path, capsys):
        assert cli(["synth", "--kind", "table1_a", "--copies", "50",
                    "--seed", "3", "--out", str(tmp_path / "set")]) == 0
        out = capsys.readouterr().out
        assert "wrote 400 rows (2 neurons, 2 factors)" in out
        n_rows = len((tmp_path / "set" / "data.csv").read_text().splitlines()) - 1
        assert n_rows == 400

    def test_exact_mode_is_deterministic_across_seeds(self, tmp_path):
        for seed, name in (("1", "s1"), ("2", "s2")):
            assert cli(["synth", "--kind", "table1_a", "--copies", "2",
                        "--seed", seed, "--out", str(tmp_path / name)]) == 0
        a = (tmp_path / "s1" / "data.csv").read_text()
        b = (tmp_path / "s2" / "data.csv").read_text()
        assert a == b

    def test_sampled_mode_depends_on_seed(self, tmp_path):
        for seed, name in (("1", "s1"), ("1", "s1b"), ("2", "s2")):
            assert cli(["synth", "--kind", "table1_a", "--sampled", "--copies", "30",
                        "--seed", seed, "--out", str(tmp_path / name)]) == 0
        same = (tmp_path / "s1" / "data.csv").read_text()
        again = (tmp_path / "s1b" / "data.csv").read_text()
        other = (tmp_path / "s2" / "data.csv").read_text()
        assert same == again
        assert same != other

    def test_custom_factor_names_reach_schema(self, tmp_path):
        assert cli(["synth", "--kind", "ideal", "--factors", "hue:3,size:5",
                    "--copies", "1", "--out", str(tmp_path / "set")]) == 0
        schema = read_json(tmp_path / "set" / "schema.json")
        assert [(f["name"], f["cardinality"]) for f in schema["factors"]] == [
            ("hue", 3), ("size", 5)]

    def test_bad_factor_token_exits_1(self, tmp_path, capsys):
        assert cli(["synth", "--kind", "ideal", "--factors", "hue-3",
                    "--out", str(tmp_path / "set")]) == 1
        assert "name:cardinality" in capsys.readouterr().err

    @pytest.mark.parametrize("factors, message", [
        ("a:x", "factor 'a': cardinality 'x' is not an integer"),
        (",", "--factors must name at least one factor"),
    ])
    def test_bad_factor_list_exits_1(self, tmp_path, capsys, factors, message):
        assert cli(["synth", "--kind", "ideal", "--factors", factors,
                    "--out", str(tmp_path / "set")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_out_under_a_regular_file_exits_2(self, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        assert cli(["synth", "--kind", "table1_a", "--out", str(tmp_path / "file" / "set")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_unknown_kind_exits_1(self, tmp_path):
        assert cli(["synth", "--kind", "nope", "--out", str(tmp_path / "set")]) == 1

    @pytest.mark.parametrize("flags, message", [
        (["--kind", "ideal", "--sigma", "nan"], "noise_sigma must be >= 0 and finite, got nan"),
        (["--kind", "ideal", "--sigma", "inf"], "noise_sigma must be >= 0 and finite, got inf"),
        (["--kind", "rotated", "--angle", "inf"], "angle must be finite, got inf"),
        (["--kind", "rotated", "--angle", "nan"], "angle must be finite, got nan"),
    ])
    def test_non_finite_sigma_or_angle_exits_1_without_writing(self, tmp_path, capsys,
                                                               flags, message):
        out = tmp_path / "set"
        assert cli(["synth", *flags, "--factors", "a:2,b:2", "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_negative_seed_exits_1_without_writing(self, tmp_path, capsys):
        out = tmp_path / "set"
        assert cli(["synth", "--kind", "table1_a", "--seed", "-1", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
        assert not out.exists()

    def test_missing_required_flag_exits_1(self):
        assert cli(["synth", "--kind", "table1_a"]) == 1


class TestMetrics:
    def test_worked_example_scores(self, workspace):
        payload = read_json(workspace / "a_metrics.json")
        assert payload["schema_version"] == 1
        assert payload["factor_names"] == ["colour", "shape"]
        assert payload["n_rows"] == 400
        assert payload["snc"]["per_factor"]["colour"] == pytest.approx(0.5, abs=1e-12)
        assert payload["snc"]["per_factor"]["shape"] == 0.0
        assert payload["snc"]["mean"] == pytest.approx(0.25, abs=1e-12)
        assert payload["nk"]["per_factor"]["shape"] == 0.0

    def test_stdout_table(self, workspace, capsys):
        assert cli(["metrics", "--data", str(workspace / "a"), "--seed", "7"]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0].split() == ["metric", "colour", "shape", "mean"]
        assert lines[1].startswith("SNC")
        assert any(line.startswith("NK") for line in lines)

    def test_subset_aggregate_lands_in_payload(self, workspace):
        payload = read_json(workspace / "ideal_metrics.json")
        agg = payload["aggregates"]
        assert agg["subset"] == ["size", "shape"]
        assert agg["mode"] == "product"
        expect = (payload["snc"]["per_factor"]["size"]
                  * payload["snc"]["per_factor"]["shape"])
        assert agg["values"]["snc"] == pytest.approx(expect, abs=1e-12)

    def test_same_seed_reproduces_payload(self, workspace, tmp_path):
        for name in ("r1.json", "r2.json"):
            assert cli(["metrics", "--data", str(workspace / "a"), "--seed", "7",
                        "--out", str(tmp_path / name)]) == 0
        assert read_json(tmp_path / "r1.json") == read_json(tmp_path / "r2.json")

    def test_csv_file_plus_sidecar_schema(self, workspace, tmp_path):
        assert cli(["metrics", "--data", str(workspace / "a" / "data.csv"),
                    "--schema", str(workspace / "a" / "schema.json"),
                    "--seed", "7", "--out", str(tmp_path / "r.json")]) == 0
        assert read_json(tmp_path / "r.json") == read_json(workspace / "a_metrics.json")

    def test_missing_data_exits_2(self, tmp_path, capsys):
        assert cli(["metrics", "--data", str(tmp_path / "nowhere")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_data_file_is_named_not_the_schema(self, tmp_path, capsys):
        # No schema.json sits next to the missing path either.
        missing = tmp_path / "nope"
        assert cli(["metrics", "--data", str(missing)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read data file {missing}: ")
        assert err.count("\n") == 1

    def test_schema_path_is_a_directory_exits_2(self, workspace, tmp_path, capsys):
        assert cli(["metrics", "--data", str(workspace / "b"), "--schema", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read schema file {tmp_path}: ")
        assert err.count("\n") == 1

    def test_malformed_csv_exits_1(self, tmp_path, workspace):
        shutil.copy(workspace / "a" / "schema.json", tmp_path / "schema.json")
        (tmp_path / "data.csv").write_text("z0,z1,g0,g1\n0.1,oops,0,1\n")
        assert cli(["metrics", "--data", str(tmp_path)]) == 1

    def test_non_utf8_csv_exits_1(self, tmp_path, workspace, capsys):
        shutil.copy(workspace / "a" / "schema.json", tmp_path / "schema.json")
        bad = b"0.1,0.2\xff,0,1\n"
        # The second file puts the bad byte ~240 kB in, past the first read
        # buffer, where a decoder position counts from the buffer, not the file.
        for body in (bad, b"0.1,0.2,0,1\n" * 20000 + bad):
            (tmp_path / "data.csv").write_bytes(b"z0,z1,g0,g1\n" + body)
            assert cli(["metrics", "--data", str(tmp_path)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
            assert "data.csv is not valid UTF-8" in err
            assert "position" not in err

    def test_empty_csv_error_names_the_file(self, tmp_path, workspace, capsys):
        shutil.copy(workspace / "a" / "schema.json", tmp_path / "schema.json")
        (tmp_path / "data.csv").write_text("")
        assert cli(["metrics", "--data", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"{tmp_path / 'data.csv'}, line 1: file is empty" in err

    def test_empty_subset_exits_1(self, workspace):
        assert cli(["metrics", "--data", str(workspace / "a"), "--subset", ","]) == 1

    def test_repeated_subset_name_exits_1_before_any_probe_trains(self, workspace,
                                                                  monkeypatch, capsys):
        # A repeated name would count twice: the product would square its score.
        calls = []
        monkeypatch.setattr(metrics_module, "train_probe", lambda *args, **kwargs: calls.append(1))
        assert cli(["metrics", "--data", str(workspace / "b"), "--epochs", "2",
                    "--subset", "colour,colour"]) == 1
        assert calls == []
        assert capsys.readouterr().err == "error: repeated factor in subset: ['colour']\n"

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
    def test_diverged_training_exits_3(self, workspace, capsys):
        assert cli(["metrics", "--data", str(workspace / "b"), "--epochs", "3",
                    "--learning-rate", "1e300"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: training diverged at epoch ")
        assert err.count("\n") == 1

    def test_diverged_training_prints_only_the_error_line(self, workspace):
        # In a fresh interpreter with Python's default warning filters, as a
        # user runs it: no numpy overflow warnings precede the error line.
        proc = run_python("-m", "detangle", "metrics", "--data", str(workspace / "b"),
                          "--epochs", "3", "--learning-rate", "1e30")
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr == "error: training diverged at epoch 1: loss=nan\n"

    def test_lost_probe_worker_exits_2(self, workspace, capsys, monkeypatch):
        # A stack split across two processes whose forked worker dies with
        # status 7 before it sends its probes back.
        parent, train_stack = os.getpid(), classify_module._train_stack
        monkeypatch.setattr(classify_module, "_worker_count", lambda n_probes: min(n_probes, 2))
        monkeypatch.setattr(classify_module, "_train_stack",
                            lambda *args: train_stack(*args) if os.getpid() == parent else os._exit(7))
        assert cli(["metrics", "--data", str(workspace / "b"), "--epochs", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: probe worker ")
        assert captured.err.endswith(" ended with status 7, no result\n")
        assert captured.err.count("\n") == 1

    def test_negative_seed_runs(self, workspace):
        # Every probe and split seed is derived from it with spawn_seed.
        assert cli(["metrics", "--data", str(workspace / "b"), "--epochs", "1",
                    "--seed", "-1"]) == 0
        assert cli(["cg", "--data", str(workspace / "b"), "--pairs", "colour:0,shape:1",
                    "--epochs", "1", "--seed", "-3"]) == 0

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_learning_rate_exits_1(self, workspace, capsys, value):
        assert cli(["metrics", "--data", str(workspace / "b"), "--epochs", "1",
                    f"--learning-rate={value}"]) == 1
        assert capsys.readouterr().err == (
            f"error: learning_rate must be positive and finite, got {float(value)}\n")


class TestAlign:
    def test_greedy_doubles_up_on_strongest_neuron(self, workspace, tmp_path):
        out = tmp_path / "g.json"
        assert cli(["align", "--data", str(workspace / "b"), "--align", "greedy",
                    "--out", str(out)]) == 0
        payload = read_json(out)
        assert payload["alignment"]["mode"] == "greedy"
        assert payload["alignment"]["assignment"] == [0, 0]
        assert payload["alignment"]["degenerate"] is False
        bits = np.asarray(payload["importance"]["bits"])
        assert payload["alignment"]["objective_bits"] == pytest.approx(
            bits[0, 0] + bits[1, 0], abs=1e-12)

    def test_injective_forces_distinct_neurons(self, workspace, tmp_path):
        out = tmp_path / "i.json"
        assert cli(["align", "--data", str(workspace / "b"), "--out", str(out)]) == 0
        payload = read_json(out)
        assert payload["alignment"]["mode"] == "injective"
        assert payload["alignment"]["assignment"] == [0, 1]
        assert payload["alignment"]["degenerate"] is False
        bits = np.asarray(payload["importance"]["bits"])
        expect = bits[0, 0] + bits[1, 1]
        assert payload["alignment"]["objective_bits"] == pytest.approx(expect, abs=1e-12)

    def test_non_utf8_schema_exits_1(self, workspace, tmp_path, capsys):
        shutil.copy(workspace / "b" / "data.csv", tmp_path / "data.csv")
        schema = (workspace / "b" / "schema.json").read_bytes()
        (tmp_path / "schema.json").write_bytes(schema.replace(b"colour", b"col\xffour"))
        assert cli(["align", "--data", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "schema.json is not valid UTF-8" in err

    @pytest.mark.parametrize("argv", [["align"], ["metrics"], ["cg", "--pairs", "colour:0,shape:0"]])
    def test_deeply_nested_schema_exits_1(self, workspace, tmp_path, capsys, argv):
        shutil.copy(workspace / "b" / "data.csv", tmp_path / "data.csv")
        (tmp_path / "schema.json").write_text("[" * 200_000 + "]" * 200_000)
        assert cli(argv + ["--data", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: schema file ") and err.count("\n") == 1
        assert "schema.json is not valid JSON" in err

    def test_integer_past_the_digit_limit_in_schema_exits_1(self, workspace, tmp_path, capsys):
        shutil.copy(workspace / "b" / "data.csv", tmp_path / "data.csv")
        digits = "1" * (sys.get_int_max_str_digits() + 1)
        (tmp_path / "schema.json").write_text('{"factors": [{"name": "colour", "cardinality": '
                                              + digits + "}]}")
        assert cli(["align", "--data", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: schema file ") and err.count("\n") == 1
        assert "schema.json is not valid JSON: Exceeds the limit" in err

    def test_byte_order_mark_is_accepted(self, workspace, tmp_path):
        edits = {"bom": lambda raw: b"\xef\xbb\xbf" + raw,
                 "crlf": lambda raw: raw.replace(b"\n", b"\r\n")}
        for variant, edit in edits.items():
            (tmp_path / variant).mkdir()
            for name in ("data.csv", "schema.json"):
                plain = (workspace / "b" / name).read_bytes()
                (tmp_path / variant / name).write_bytes(edit(plain))
        assert cli(["align", "--data", str(workspace / "b"), "--out", str(tmp_path / "plain.json")]) == 0
        for variant in edits:
            out = tmp_path / f"{variant}.json"
            assert cli(["align", "--data", str(tmp_path / variant), "--out", str(out)]) == 0
            assert out.read_bytes() == (tmp_path / "plain.json").read_bytes()

    @pytest.mark.parametrize("label", ["99999999999999999999", "-99999999999999999999"])
    def test_label_past_int64_exits_1(self, workspace, tmp_path, capsys, label):
        shutil.copy(workspace / "b" / "schema.json", tmp_path / "schema.json")
        (tmp_path / "data.csv").write_text(f"z0,z1,g0,g1\n0.5,0.5,0,1\n0.5,0.5,0,{label}\n")
        assert cli(["align", "--data", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err == (f"error: {tmp_path / 'data.csv'}, line 3, column 'g1': label {label} "
                       "out of range for factor 'shape' (cardinality 2)\n")

    def test_bin_count_past_the_cell_cap_runs(self, workspace, tmp_path):
        # The count-table cap applies to the observed alphabets, not to --bins.
        out = tmp_path / "align.json"
        assert cli(["align", "--data", str(workspace / "ideal"), "--bins", "2000000",
                    "--out", str(out)]) == 0
        assert read_json(out)["importance"]["n_bins"] == 2000000

    def test_diagram_exports(self, workspace, tmp_path, capsys):
        svg = tmp_path / "h.svg"
        txt = tmp_path / "h.txt"
        assert cli(["align", "--data", str(workspace / "b"),
                    "--svg", str(svg), "--text", str(txt)]) == 0
        assert "<svg" in svg.read_text()
        stdout = capsys.readouterr().out
        assert txt.read_text() == stdout
        assert "colour" in stdout


class TestCg:
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_learning_rate_exits_1_before_any_probe_trains(
        self, workspace, monkeypatch, capsys, value
    ):
        calls = []
        monkeypatch.setattr(cgtask, "train_probe", lambda *args, **kwargs: calls.append(1))
        assert cli(["cg", "--data", str(workspace / "b"), "--pairs", "colour:0,shape:1",
                    f"--learning-rate={value}"]) == 1
        assert calls == []
        assert capsys.readouterr().err == (
            f"error: learning_rate must be positive and finite, got {float(value)}\n")

    def test_single_run_payload(self, workspace):
        payload = read_json(workspace / "ideal_cg.json")
        assert payload["pair"] == {"factor_a": "size", "value_a": 2,
                                   "factor_b": "shape", "value_b": 1}
        assert payload["probe_kind"] == "mlp"
        assert payload["n_test"] == 10
        assert payload["n_train"] == 150
        assert payload["audit"]["clean"] is True
        assert payload["audit"]["leaked_rows"] == 0
        assert payload["control"] is not None

    def test_ideal_beats_joint_code(self, workspace):
        ideal = read_json(workspace / "ideal_cg.json")
        code = read_json(workspace / "code_cg.json")
        assert ideal["joint_both"]["adjusted"] > 0.9
        assert code["joint_both"]["adjusted"] < 0.2

    def test_no_control_flag(self, workspace, tmp_path, capsys):
        out = tmp_path / "cg.json"
        assert cli(["cg", "--data", str(workspace / "ideal"),
                    "--pairs", "size:2,shape:1", "--probe", "linear",
                    "--seed", "17", "--no-control", "--out", str(out)]) == 0
        assert read_json(out)["control"] is None
        stdout = capsys.readouterr().out
        assert "excluded pair: size=2, shape=1" in stdout
        assert "cg (linear)" in stdout
        assert "random split" not in stdout

    def test_probe_both_builds_a_suite(self, workspace, tmp_path):
        out = tmp_path / "suite.json"
        assert cli(["cg", "--data", str(workspace / "ideal"),
                    "--pairs", "size:2,shape:1", "--probe", "both",
                    "--seed", "17", "--out", str(out)]) == 0
        payload = read_json(out)
        assert [run["probe_kind"] for run in payload["runs"]] == ["linear", "mlp"]
        assert set(payload["averages"]) == {"linear", "mlp"}

    def test_multiple_pairs_build_a_suite(self, workspace, tmp_path, capsys):
        out = tmp_path / "suite.json"
        assert cli(["cg", "--data", str(workspace / "ideal"),
                    "--pairs", "size:0,shape:1;size:1,shape:2", "--probe", "linear",
                    "--seed", "17", "--out", str(out)]) == 0
        payload = read_json(out)
        assert len(payload["runs"]) == 2
        stdout = capsys.readouterr().out
        assert stdout.splitlines()[0].startswith("setting")
        assert "cg (linear)" in stdout

    def test_presplit_matches_internal_split(self, workspace, tmp_path):
        from detangle.dataset import load_representation_set, write_representation_set

        rep = load_representation_set(workspace / "ideal" / "data.csv",
                                      workspace / "ideal" / "schema.json")
        held_out = (rep.labels[:, 0] == 2) & (rep.labels[:, 1] == 1)
        for name, rows in (("train", ~held_out), ("test", held_out)):
            d = tmp_path / name
            d.mkdir()
            write_representation_set(rep.subset(np.flatnonzero(rows)),
                                     d / "data.csv", d / "schema.json")
        out = tmp_path / "pre.json"
        assert cli(["cg", "--train-data", str(tmp_path / "train"),
                    "--test-data", str(tmp_path / "test"),
                    "--pairs", "size:2,shape:1", "--probe", "mlp",
                    "--seed", "17", "--epochs", "150", "--learning-rate", "0.005",
                    "--out", str(out)]) == 0
        pre = read_json(out)
        ref = read_json(workspace / "ideal_cg.json")
        assert pre["joint_both"] == ref["joint_both"]
        assert pre["per_factor"] == ref["per_factor"]
        assert pre["audit"]["leaked_rows"] is None
        assert pre["audit"]["clean"] is True

    def test_presplit_test_rows_past_float32_exit_1(self, workspace, tmp_path, capsys):
        # Standardized by the train moments, these rows overflow float32; their
        # logits would be NaN and every prediction class 0.
        from detangle.dataset import load_representation_set

        rep = load_representation_set(workspace / "ideal" / "data.csv",
                                      workspace / "ideal" / "schema.json")
        test = tmp_path / "test"
        test.mkdir()
        huge = RepresentationSet(np.full_like(rep.latents, 1e308), rep.labels, rep.schema)
        write_representation_set(huge, test / "data.csv", test / "schema.json")
        out = tmp_path / "cg.json"
        assert cli(["cg", "--train-data", str(workspace / "ideal"), "--test-data", str(test),
                    "--pairs", "size:2,shape:1", "--probe", "linear", "--epochs", "1",
                    "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err == "error: features must be finite once standardized to float32\n"

    @pytest.mark.parametrize("argv, fragment", [
        (["--train-data", "x", "--pairs", "a:0,b:0"],
         "both --train-data and --test-data"),
        (["--data", "x", "--train-data", "y", "--test-data", "z",
          "--pairs", "a:0,b:0"], "conflicts"),
        (["--train-data", "y", "--test-data", "z",
          "--pairs", "a:0,b:0;a:1,b:1"], "exactly one excluded pair"),
        (["--pairs", "a:0,b:0"], "cg needs --data, or --train-data with --test-data"),
    ])
    def test_external_mode_misuse_exits_1(self, argv, fragment, capsys):
        assert cli(["cg"] + argv) == 1
        assert fragment in capsys.readouterr().err

    def test_out_of_range_pair_exits_1_in_both_modes(self, workspace, capsys):
        data = str(workspace / "b")
        errors = []
        for sets in (["--data", data], ["--train-data", data, "--test-data", data]):
            assert cli(["cg", *sets, "--pairs", "colour:5,shape:1"]) == 1
            errors.append(capsys.readouterr().err)
        assert errors == ["error: value_a=5 out of range for factor 'colour' (cardinality 2)\n"] * 2

    def test_bad_last_pair_exits_1_before_any_probe_trains(self, workspace, monkeypatch,
                                                           capsys):
        calls = []
        monkeypatch.setattr(cgtask, "train_probe", lambda *args, **kwargs: calls.append(1))
        assert cli(["cg", "--data", str(workspace / "b"), "--probe", "both",
                    "--pairs", "colour:0,shape:1;colour:5,shape:1"]) == 1
        assert calls == []
        assert capsys.readouterr().err == (
            "error: value_a=5 out of range for factor 'colour' (cardinality 2)\n")

    def test_repeated_pair_exits_1_before_any_probe_trains(self, workspace, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(cgtask, "train_probe", lambda *args, **kwargs: calls.append(1))
        assert cli(["cg", "--data", str(workspace / "b"), "--probe", "both",
                    "--pairs", "colour:0,shape:1;shape:1,colour:0"]) == 1
        assert calls == []
        assert capsys.readouterr().err == (
            "error: pair {'factor_a': 'shape', 'value_a': 1, 'factor_b': 'colour', 'value_b': 0}"
            " holds out the same rows as an earlier pair\n")

    @pytest.mark.parametrize("pairs", ["size:2", "size:2,shape:x", "size,shape",
                                       "size:2,shape:1,extra:0", ";"])
    def test_bad_pair_syntax_exits_1(self, workspace, pairs):
        assert cli(["cg", "--data", str(workspace / "ideal"), "--pairs", pairs]) == 1

    def test_index_pairs_name_the_same_factors(self, workspace, tmp_path):
        runs = {}
        for pairs in ("colour:0,shape:1", "0:0,1:1"):
            out = tmp_path / f"{pairs}.json"
            assert cli(["cg", "--data", str(workspace / "b"), "--pairs", pairs,
                        "--probe", "linear", "--epochs", "2", "--out", str(out)]) == 0
            runs[pairs] = read_json(out)
        assert runs["0:0,1:1"]["pair"] == {"factor_a": "colour", "value_a": 0,
                                           "factor_b": "shape", "value_b": 1}
        assert runs["0:0,1:1"] == runs["colour:0,shape:1"]

    def test_all_digit_factor_names_resolve_as_names(self, tmp_path, capsys):
        data = tmp_path / "digits"
        assert cli(["synth", "--kind", "ideal", "--factors", "10:2,20:2", "--copies", "5",
                    "--out", str(data)]) == 0
        out = tmp_path / "cg.json"
        assert cli(["cg", "--data", str(data), "--pairs", "10:0,20:1", "--probe", "linear",
                    "--epochs", "2", "--out", str(out)]) == 0
        assert read_json(out)["pair"] == {"factor_a": "10", "value_a": 0,
                                          "factor_b": "20", "value_b": 1}
        capsys.readouterr()
        assert cli(["cg", "--data", str(data), "--pairs", "1:0,30:1"]) == 1
        assert capsys.readouterr().err == "error: factor index 30 out of range for 2 factors\n"

    def test_unknown_factor_exits_1(self, workspace, capsys):
        assert cli(["cg", "--data", str(workspace / "ideal"),
                    "--pairs", "hue:0,shape:1"]) == 1
        assert "hue" in capsys.readouterr().err

    @pytest.mark.parametrize("pairs", ["a:1,b:1", "a:0,b:0;a:1,b:1"])
    def test_degenerate_pair_is_reported_alike_alone_or_in_a_suite(self, tmp_path, monkeypatch,
                                                                   capsys, pairs):
        latents = np.random.default_rng(0).normal(size=(30, 2))
        labels = np.array([[0, 0], [0, 1], [1, 0]] * 10)
        rep = RepresentationSet(latents, labels, FactorSchema(("a", "b"), (2, 2)))
        write_representation_set(rep, tmp_path / "data.csv", tmp_path / "schema.json")
        calls = []
        monkeypatch.setattr(cgtask, "train_probe", lambda *args, **kwargs: calls.append(1))
        assert cli(["cg", "--data", str(tmp_path), "--pairs", pairs]) == 1
        assert calls == []
        assert capsys.readouterr().err == (
            "error: degenerate exclusion split for pair {'factor_a': 'a', 'value_a': 1, "
            "'factor_b': 'b', 'value_b': 1}: cg_exclusion pair (a=1, b=1) matches no rows\n")

    @pytest.mark.parametrize("cardinality", [2**40, 2**63 - 1, 2**63])
    def test_class_count_past_the_cell_cap_exits_1(self, tmp_path, capsys, cardinality):
        latents = np.random.default_rng(0).normal(size=(120, 2))
        labels = np.array([[0, 0], [0, 1], [1, 0], [1, 2]] * 30)
        rep = RepresentationSet(latents, labels, FactorSchema(("a", "b"), (2, 3)))
        write_representation_set(rep, tmp_path / "data.csv", tmp_path / "schema.json")
        schema = read_json(tmp_path / "schema.json")
        schema["factors"][1]["cardinality"] = cardinality
        (tmp_path / "schema.json").write_text(json.dumps(schema))
        assert cli(["cg", "--data", str(tmp_path), "--pairs", "a:0,b:1", "--epochs", "1"]) == 1
        assert capsys.readouterr().err == (
            f"error: n_classes={cardinality} exceeds the cap of 1000000 classes\n")

    def test_invalid_train_config_exits_1(self, workspace, capsys):
        assert cli(["cg", "--data", str(workspace / "ideal"),
                    "--pairs", "size:2,shape:1", "--epochs", "0"]) == 1
        assert "epochs" in capsys.readouterr().err


class TestCorrelate:
    def test_end_to_end_from_files(self, workspace, tmp_path, capsys):
        metric_paths = ",".join(
            str(workspace / f"{m}_metrics.json") for m in ("ideal", "rotated", "code"))
        cg_paths = ",".join(
            str(workspace / f"{m}_cg.json") for m in ("ideal", "rotated", "code"))
        out = tmp_path / "corr.json"
        assert cli(["correlate", "--metrics", metric_paths, "--cg", cg_paths,
                    "--subset", "size,shape", "--out", str(out)]) == 0
        payload = read_json(out)
        assert payload["n_models"] == 3
        assert payload["subset"] == ["size", "shape"]
        assert set(payload["per_metric"]) == {"snc", "nk", "mig", "sap"}
        for block in payload["per_metric"].values():
            assert len(block["values"]) == 3
            assert -1.0 <= block["correlation"]["r"] <= 1.0
        # joint_code tanks generalization and the product-of-SNC tracks it
        assert payload["per_metric"]["snc"]["correlation"]["r"] > 0.5
        stdout = capsys.readouterr().out
        assert "models: 3" in stdout
        assert "snc" in stdout

    def test_spaces_around_list_commas_are_ignored(self, workspace, tmp_path, capsys):
        models = ("ideal", "rotated", "code")
        results = []
        for sep in (",", ", "):
            out = tmp_path / f"corr{len(results)}.json"
            assert cli(["correlate",
                        "--metrics", sep.join(str(workspace / f"{m}_metrics.json") for m in models),
                        "--cg", sep.join(str(workspace / f"{m}_cg.json") for m in models),
                        "--subset", f"size{sep}shape", "--columns", f"snc{sep}mig",
                        "--out", str(out)]) == 0
            results.append((out.read_bytes(), capsys.readouterr().out))
        assert results[0] == results[1]

    def test_column_selection(self, workspace, capsys):
        models = ("ideal", "rotated", "code")
        assert cli(["correlate",
                    "--metrics", ",".join(
                        str(workspace / f"{m}_metrics.json") for m in models),
                    "--cg", ",".join(str(workspace / f"{m}_cg.json") for m in models),
                    "--subset", "size,shape", "--columns", "snc"]) == 0
        out = capsys.readouterr().out
        assert "snc" in out
        assert "mig" not in out

    @pytest.mark.parametrize("flags, message", [
        (["--subset", "size,size"], "repeated factor in subset: ['size']"),
        (["--subset", "size,size", "--columns", "mig"], "repeated factor in subset: ['size']"),
        (["--subset", "size,shape", "--columns", ","], "correlate needs at least one metric column"),
        (["--subset", "size,shape", "--columns", "snc,snc"], "repeated metric column: ['snc']"),
    ])
    def test_empty_or_repeated_names_exit_1(self, workspace, capsys, flags, message):
        models = ("ideal", "rotated", "code")
        assert cli(["correlate",
                    "--metrics", ",".join(str(workspace / f"{m}_metrics.json") for m in models),
                    "--cg", ",".join(str(workspace / f"{m}_cg.json") for m in models),
                    *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_length_mismatch_exits_1(self, workspace, capsys):
        assert cli(["correlate",
                    "--metrics", str(workspace / "ideal_metrics.json"),
                    "--cg", str(workspace / "ideal_cg.json") + ","
                    + str(workspace / "code_cg.json"),
                    "--subset", "size,shape"]) == 1
        assert "1 metric payloads but 2" in capsys.readouterr().err

    def test_column_without_per_factor_scores_exits_1(self, workspace, capsys):
        assert cli(["correlate",
                    "--metrics", str(workspace / "ideal_metrics.json"),
                    "--cg", str(workspace / "ideal_cg.json"),
                    "--subset", "size,shape", "--columns", "snc,dci"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "'dci'" in err

    def test_non_numeric_factor_score_exits_1(self, workspace, tmp_path, capsys):
        models = ("ideal", "rotated", "code")
        bad = read_json(workspace / "rotated_metrics.json")
        bad["mig"]["per_factor"]["size"] = "x"
        (tmp_path / "rotated_metrics.json").write_text(json.dumps(bad), encoding="utf-8")
        metric_paths = [workspace / "ideal_metrics.json", tmp_path / "rotated_metrics.json",
                        workspace / "code_metrics.json"]
        assert cli(["correlate", "--metrics", ",".join(map(str, metric_paths)),
                    "--cg", ",".join(str(workspace / f"{m}_cg.json") for m in models),
                    "--subset", "size,shape", "--columns", "mig"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "'mig'" in err and "'size'" in err

    def test_factor_score_too_large_for_a_float_exits_1(self, workspace, tmp_path, capsys):
        models = ("ideal", "rotated", "code")
        bad = read_json(workspace / "rotated_metrics.json")
        bad["mig"]["per_factor"]["size"] = 10**400
        (tmp_path / "rotated_metrics.json").write_text(json.dumps(bad), encoding="utf-8")
        metric_paths = [workspace / "ideal_metrics.json", tmp_path / "rotated_metrics.json",
                        workspace / "code_metrics.json"]
        assert cli(["correlate", "--metrics", ",".join(map(str, metric_paths)),
                    "--cg", ",".join(str(workspace / f"{m}_cg.json") for m in models),
                    "--subset", "size,shape", "--columns", "mig"]) == 1
        assert capsys.readouterr().err == (
            "error: metric payload's 'mig' score for factor 'size' is too large for a float\n")

    def test_metrics_payload_as_cg_exits_1(self, workspace, capsys):
        assert cli(["correlate", "--metrics", str(workspace / "ideal_metrics.json"),
                    "--cg", str(workspace / "ideal_metrics.json"),
                    "--subset", "size,shape"]) == 1
        assert capsys.readouterr().err == (
            "error: not a generalization payload: got a metrics payload\n")

    def test_missing_file_exits_2(self, workspace, tmp_path):
        assert cli(["correlate", "--metrics", str(tmp_path / "gone.json"),
                    "--cg", str(workspace / "ideal_cg.json"),
                    "--subset", "size,shape"]) == 2

    def test_non_object_json_exits_2(self, workspace, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2, 3]")
        assert cli(["correlate", "--metrics", str(bad),
                    "--cg", str(workspace / "ideal_cg.json"),
                    "--subset", "size,shape"]) == 2


class TestReport:
    def test_renders_metrics_payload(self, workspace, capsys):
        assert cli(["report", "--in", str(workspace / "a_metrics.json")]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].split() == ["metric", "colour", "shape", "mean"]

    def test_renders_cg_payload(self, workspace, capsys):
        assert cli(["report", "--in", str(workspace / "ideal_cg.json")]) == 0
        assert "excluded pair: size=2, shape=1" in capsys.readouterr().out

    def test_renders_correlation_payload(self, workspace, tmp_path, capsys):
        models = ("ideal", "rotated", "code")
        out = tmp_path / "corr.json"
        assert cli(["correlate",
                    "--metrics", ",".join(
                        str(workspace / f"{m}_metrics.json") for m in models),
                    "--cg", ",".join(str(workspace / f"{m}_cg.json") for m in models),
                    "--subset", "size,shape", "--out", str(out)]) == 0
        capsys.readouterr()
        assert cli(["report", "--in", str(out)]) == 0
        assert "models: 3" in capsys.readouterr().out

    def test_renders_alignment_payload_and_writes_out(self, workspace, tmp_path, capsys):
        align_json = tmp_path / "align.json"
        assert cli(["align", "--data", str(workspace / "b"),
                    "--out", str(align_json)]) == 0
        capsys.readouterr()
        rendered = tmp_path / "align.txt"
        assert cli(["report", "--in", str(align_json), "--out", str(rendered)]) == 0
        stdout = capsys.readouterr().out
        assert rendered.read_text() == stdout
        assert "colour" in stdout

    @pytest.mark.parametrize("kind", ["metrics", "align", "cg_run", "cg_suite", "correlation"])
    def test_report_prints_what_the_writing_command_printed(self, kind, workspace, tmp_path,
                                                            capsys):
        models = ("ideal", "rotated", "code")
        argv = {
            "metrics": ["metrics", "--data", str(workspace / "b"), "--epochs", "3"],
            "align": ["align", "--data", str(workspace / "b")],
            "cg_run": ["cg", "--data", str(workspace / "b"), "--pairs", "colour:0,shape:1",
                       "--epochs", "3"],
            "cg_suite": ["cg", "--data", str(workspace / "b"), "--pairs", "colour:0,shape:1",
                         "--probe", "both", "--epochs", "3"],
            "correlation": ["correlate",
                            "--metrics", ",".join(str(workspace / f"{m}_metrics.json")
                                                  for m in models),
                            "--cg", ",".join(str(workspace / f"{m}_cg.json") for m in models),
                            "--subset", "size,shape"],
        }[kind]
        payload = tmp_path / "payload.json"
        assert cli(argv + ["--out", str(payload)]) == 0
        written = capsys.readouterr().out
        assert payload_kind(read_json(payload)) == kind
        assert cli(["report", "--in", str(payload)]) == 0
        assert capsys.readouterr().out == written

    def test_unrecognized_payload_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "odd.json"
        bad.write_text(json.dumps({"surprise": 1}))
        assert cli(["report", "--in", str(bad)]) == 1
        assert "unrecognized payload" in capsys.readouterr().err
        # A recognised kind with keys missing names the file, for report and
        # for correlate, which reads the same payloads.
        for payload in ({"per_metric": {}}, {"runs": []}, {"joint_both": {}}, {"snc": {}}):
            bad.write_text(json.dumps(payload))
            for argv in (["report", "--in", str(bad)],
                         ["correlate", "--metrics", str(bad), "--cg", str(bad),
                          "--subset", "a"]):
                assert cli(argv) == 1
                err = capsys.readouterr().err
                assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1

    def test_invalid_json_exits_2(self, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        assert cli(["report", "--in", str(bad)]) == 2

    def test_deeply_nested_json_exits_2(self, workspace, tmp_path, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text('{"a": ' + "[" * 200_000 + "]" * 200_000 + "}")
        for argv in (["report", "--in", str(deep)],
                     ["correlate", "--metrics", str(deep),
                      "--cg", str(workspace / "ideal_cg.json"), "--subset", "size,shape"]):
            assert cli(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: {deep} is not valid JSON: ") and err.count("\n") == 1

    def test_integer_past_the_digit_limit_exits_2(self, workspace, tmp_path, capsys):
        long = tmp_path / "long.json"
        long.write_text('{"snc": ' + "1" * (sys.get_int_max_str_digits() + 1) + "}")
        for argv in (["report", "--in", str(long)],
                     ["correlate", "--metrics", str(long),
                      "--cg", str(workspace / "ideal_cg.json"), "--subset", "size,shape"]):
            assert cli(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: {long} is not valid JSON: ") and err.count("\n") == 1

    def test_number_too_large_for_a_float_exits_1(self, workspace, tmp_path, capsys):
        payload = read_json(workspace / "a_metrics.json")
        payload["snc"]["per_factor"]["colour"] = 10**400
        huge = tmp_path / "huge.json"
        huge.write_text(json.dumps(payload), encoding="utf-8")
        assert cli(["report", "--in", str(huge)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {huge}: incomplete or malformed metrics payload "
                              "(OverflowError: ") and err.count("\n") == 1

    def test_missing_file_exits_2(self, tmp_path):
        assert cli(["report", "--in", str(tmp_path / "gone.json")]) == 2

    def test_non_utf8_payload_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "latin1.json"
        bad.write_bytes(b'{"note": "caf\xe9"}')
        assert cli(["report", "--in", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "latin1.json is not valid UTF-8" in err


class TestParserBasics:
    def test_no_command_exits_1(self, capsys):
        assert cli([]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_command_exits_1(self):
        assert cli(["frobnicate"]) == 1

    def test_unknown_flag_exits_1(self, capsys):
        assert cli(["synth", "--kind", "table1_a", "--out", "x", "--bogus"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_help_exits_0(self, capsys):
        assert cli(["--help"]) == 0
        out = capsys.readouterr().out
        for name in ("synth", "metrics", "align", "cg", "correlate", "report"):
            assert name in out

    def test_subcommand_help_exits_0(self, capsys):
        assert cli(["cg", "--help"]) == 0
        assert "--pairs" in capsys.readouterr().out

    def test_parser_lists_all_subcommands(self):
        sub = build_parser()._subparsers._group_actions[0]
        assert set(sub.choices) == {"synth", "metrics", "align", "cg",
                                    "correlate", "report"}

    def test_module_entry_point(self):
        proc = run_python("-m", "detangle.cli", "--help")
        assert proc.returncode == 0, proc.stderr
        assert "synth" in proc.stdout

    def test_package_entry_point(self):
        proc = run_python("-W", "error", "-m", "detangle", "--help")
        assert proc.returncode == 0, proc.stderr
        assert "synth" in proc.stdout
        assert proc.stderr == ""

    def test_console_script_target_runs_help(self):
        # The [project.scripts] entry resolves, and the command it installs
        # exits 0 on --help.
        import tomllib  # standard library from Python 3.11

        scripts = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]["scripts"]
        module, _, attr = scripts["detangle"].partition(":")
        assert callable(getattr(importlib.import_module(module), attr))
        proc = run_python("-c", f"import sys; sys.argv[0] = 'detangle'; "
                                f"from {module} import {attr}; {attr}()", "--help")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("usage: detangle")
