"""Static checks over the package source."""

import ast
from pathlib import Path

import pytest

import detangle

SOURCES = sorted(
    path for path in Path(detangle.__file__).parent.glob("*.py") if path.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """Names a module imports (outside __future__) and never reads."""
    tree = ast.parse(source)
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    imported = {
        alias.asname or alias.name.split(".")[0]
        for node in imports
        if getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_are_found():
    source = "from __future__ import annotations\nimport os.path\nfrom typing import Any, List\n"
    assert unused_imports(source + "x: List = os.path") == ["Any"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    unused = unused_imports(path.read_text(encoding="utf-8"))
    assert unused == [], f"{path.name} imports names it never uses: {unused}"


def unread_private_names(source: str) -> list[str]:
    """Module-level private names (defined by def, class or assignment) that
    the module never reads."""
    tree = ast.parse(source)
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update(
                name.id for target in targets for name in ast.walk(target)
                if isinstance(name, ast.Name)
            )
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted(name for name in defined - read if name[:1] == "_" and name[:2] != "__")


def test_unread_private_names_are_found():
    source = ("_A = 1\n_B: int = 2\n_C, d = 3, 4\n__all__ = []\n"
              "def _f(): return _A\nclass _K: pass\nx = _K\n")
    assert unread_private_names(source) == ["_B", "_C", "_f"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_unread_private_names(path):
    unread = unread_private_names(path.read_text(encoding="utf-8"))
    assert unread == [], f"{path.name} defines private names it never reads: {unread}"
