"""The package namespace: what `detangle` exports and what its callers use.

The callers outside the package are the benchmark harness under bench/ and
the README's library example. The example is also run as written; the
benchmark is read as source, and its tracing module is imported only to
resolve and count its boundaries.
"""

import ast
import functools
import importlib.util
import re
import types
from pathlib import Path

import detangle
from detangle.util import payload_kind

ROOT = Path(__file__).resolve().parents[1]


def names_taken_from_detangle(source: str) -> set[str]:
    """Names a module imports from detangle or reads as detangle.<name>."""
    tree = ast.parse(source)
    aliases = {"detangle"}
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "detangle":
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            aliases.update(a.asname for a in node.names if a.name == "detangle" and a.asname)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            names.add(node.attr)
    return names


def readme_library_example() -> str:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    library = text.split("## Library", 1)[1]
    return re.search(r"```python\n(.*?)```", library, re.S).group(1)


def test_callers_outside_the_package_use_only_exported_names():
    used = names_taken_from_detangle(readme_library_example())
    assert {"compute_metric_report", "run_cg", "TrainConfig"} <= used
    for path in sorted((ROOT / "bench").rglob("*.py")):
        used |= names_taken_from_detangle(path.read_text(encoding="utf-8"))
    assert "hinton_svg" in used
    assert sorted(used - set(detangle.__all__)) == []


def test_readme_library_example_runs(capsys):
    namespace = {}
    exec(compile(readme_library_example(), "README.md", "exec"), namespace)
    report, run = namespace["report"], namespace["run"]
    assert payload_kind(report) == "metrics" and payload_kind(run) == "cg_run"
    assert run["audit"]["clean"] is True
    assert capsys.readouterr().out == (
        detangle.render_metric_table(report) + f"{run['joint_both']['adjusted']} {run['audit']}\n")


def test_every_exported_name_is_bound():
    assert [name for name in detangle.__all__ if not hasattr(detangle, name)] == []
    assert len(set(detangle.__all__)) == len(detangle.__all__)


def test_cli_is_the_command_line_module():
    assert isinstance(detangle.cli, types.ModuleType)
    assert callable(detangle.cli.cli) and callable(detangle.cli.main)


def load_bench_tracing() -> types.ModuleType:
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_benchmark_trace_boundaries_resolve():
    tracing = load_bench_tracing()
    missing = []
    for path, attr, _name, _attrs in tracing.BOUNDARIES:
        owner = tracing._resolve(path)
        fn = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if not callable(fn):
            missing.append((path, attr))
    assert missing == []


def test_benchmark_trace_boundaries_are_called(tmp_path, capsys):
    """Every traced name is still reached through the namespace the tracer
    patches: one tiny metrics, align and cg job call every boundary and open
    a span of every name. Two namespaces can share a span name, so calls are
    counted per (path, attribute)."""
    tracing = load_bench_tracing()
    data = str(tmp_path / "data")
    assert detangle.cli.cli(["synth", "--kind", "table1_b", "--copies", "5", "--out", data]) == 0
    tracer = tracing.Tracer(job=0)
    restore = tracing.install(tracer)
    calls = {(path, attr): 0 for path, attr, _name, _attrs in tracing.BOUNDARIES}
    originals = []

    def counted(fn, key):
        @functools.wraps(fn)
        def count(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return count

    try:
        for path, attr in calls:
            owner = tracing._resolve(path)
            fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            originals.append((owner, attr, fn))
            setattr(owner, attr, counted(fn, (path, attr)))
        for argv in (
            ["metrics", "--data", data, "--epochs", "1"],
            ["align", "--data", data, "--svg", str(tmp_path / "a.svg"),
             "--text", str(tmp_path / "a.txt")],
            ["cg", "--data", data, "--pairs", "colour:0,shape:1", "--epochs", "1"],
        ):
            with tracer.span(tracing.ROOT_SPAN):
                assert detangle.cli.cli([*argv, "--out", str(tmp_path / "out.json")]) == 0
    finally:
        for owner, attr, fn in reversed(originals):
            setattr(owner, attr, fn)
        restore()
    capsys.readouterr()
    # importance_matrix reads MI off its count tables: no CLI path calls the
    # module-level mutual_information that the benchmark traces as infotheory.mi.
    uncalled = [key for key, n in calls.items() if n == 0]
    assert uncalled == [("detangle.infotheory", "mutual_information")]
    expected = {name for _path, _attr, name, _attrs in tracing.BOUNDARIES}
    assert expected - {span["name"] for span in tracer.spans} == {"infotheory.mi"}
