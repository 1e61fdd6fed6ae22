"""Source hygiene without a linter: every module-level import in the package
is used, and every exported name exists."""

import ast
import importlib
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "misspec_krige"
MODULES = sorted(PACKAGE.rglob("*.py"))


def _exported(tree: ast.Module) -> set[str]:
    """The string entries of a module-level ``__all__`` list."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return {elt.value for elt in node.value.elts}
    return set()


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= _exported(tree)
    return [f"line {line}: {name}" for name, line in bound.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_no_unused_module_level_import(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_scan_sees_an_unused_import():
    source = ("from __future__ import annotations\nimport math\nimport numpy as np\n"
              "from dataclasses import dataclass, field\n__all__ = ['np']\n"
              "@dataclass\nclass A:\n    x: float = math.pi\n")
    assert _unused_imports(source) == ["line 4: field"]


@pytest.mark.parametrize("name", ["misspec_krige", "misspec_krige.kernels"])
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    missing = [entry for entry in module.__all__ if not hasattr(module, entry)]
    assert missing == []
