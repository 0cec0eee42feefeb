"""The package namespace: what `detangle` exports and what its callers use.

The callers outside the package are the benchmark harness under bench/ and
the README's library example. Both are read as source, never executed; the
benchmark's tracing module is imported only to resolve its boundaries.
"""

import ast
import importlib.util
import re
import types
from pathlib import Path

import detangle

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


def test_every_exported_name_is_bound():
    assert [name for name in detangle.__all__ if not hasattr(detangle, name)] == []
    assert len(set(detangle.__all__)) == len(detangle.__all__)


def test_cli_is_the_command_line_module():
    assert isinstance(detangle.cli, types.ModuleType)
    assert callable(detangle.cli.cli) and callable(detangle.cli.main)


def test_benchmark_trace_boundaries_resolve():
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for path, attr, _name, _attrs in tracing.BOUNDARIES:
        owner = tracing._resolve(path)
        fn = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if not callable(fn):
            missing.append((path, attr))
    assert missing == []
