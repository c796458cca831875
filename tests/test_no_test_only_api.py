"""``src/pofsig`` holds what pofsig itself, the benchmark or the tools run.

Every public module-level function and class, and every public method
and property of such a class, must be referred to somewhere else in
``src/pofsig`` (outside ``__init__.py``, whose re-exports do not count),
in ``bench/*.py`` or in ``tools/*.py``.  A reference is a name, an
attribute, an imported name, or a string constant spelling the name
(``bench/spans.py`` wraps functions by name).  The two reference
computations that tests compare the fast paths against are the only
exceptions.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "pofsig"
REFERENCE_COMPUTATIONS = {"exact_expectation_by_summation", "minimize_bound_constant"}


def _public_definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node
            if isinstance(node, ast.ClassDef):
                yield from (
                    m for m in node.body
                    if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")
                )


def _references(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_every_public_name_in_src_is_used_outside_the_tests():
    modules = {p: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(PACKAGE.glob("*.py"))}
    callers = [t for p, t in modules.items() if p.name != "__init__.py"]
    for p in sorted((ROOT / "bench").glob("*.py")) + sorted((ROOT / "tools").glob("*.py")):
        callers.append(ast.parse(p.read_text(encoding="utf-8")))
    used = {name for tree in callers for name in _references(tree)}
    unused = [
        f"src/pofsig/{path.name}:{node.lineno} {node.name}"
        for path, tree in modules.items()
        for node in _public_definitions(tree)
        if node.name not in used and node.name not in REFERENCE_COMPUTATIONS
    ]
    assert not unused, "only tests reach:\n" + "\n".join(unused)
