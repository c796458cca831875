"""No module in ``src/pofsig`` imports a name it never uses, except
``__init__.py``, whose imports are its re-exports.

A name is used when the module's code names it anywhere, annotations
included; an import inside a function counts as the module's own.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "pofsig"


def _unused_imports(tree):
    """(line, name) for each name an import in tree binds and no code names."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                if name not in used:
                    yield node.lineno, name


@pytest.mark.parametrize(
    "path", [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"],
    ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    unused = [f"{path.name}:{line} {name}"
              for line, name in _unused_imports(ast.parse(path.read_text(encoding="utf-8")))]
    assert not unused, "imported and never used:\n" + "\n".join(unused)


def test_the_guard_sees_an_unused_import():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os.path, json\nfrom typing import Optional as Opt, Any\n"
                     "def f(x: Any):\n    return os.sep\n")
    assert list(_unused_imports(tree)) == [(2, "json"), (3, "Opt")]
