"""``src/pofsig`` holds what pofsig itself, the benchmark or the tools run.

Every public module-level function and class, and every public method
and property of such a class, must be referred to somewhere else in
``src/pofsig`` (outside ``__init__.py``, whose re-exports do not count),
in ``bench/*.py`` or in ``tools/*.py``.  A reference is a name, an
attribute, an imported name, or a string constant spelling the name
(``bench/spans.py`` wraps functions by name).

Every private module-level function and class (a leading underscore,
not a dunder) must be referred to somewhere in ``src/pofsig``: a helper
that nothing calls is left behind.

Every defaulted parameter of such a function or method, of such a
class's ``__init__``, every defaulted field of a public dataclass, and
every field a public ``Record`` class names in ``_defaults``, must be
passed by some call in those same files: an option that only tests set
is test-only API too.
A call passes it by keyword, positionally at or past its index, or
through ``*args`` or ``**kwargs``; calls are matched by callee name.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "pofsig"


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


def _parameter_defaults(fn, skip):
    """(parameter, call position or None) for fn's defaulted parameters;
    skip is the number of leading parameters a call does not spell (self)."""
    positional = fn.args.posonlyargs + fn.args.args
    first = len(positional) - len(fn.args.defaults)
    for i, arg in enumerate(positional[first:], first):
        yield arg.arg, i - skip
    for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _field_defaults(cls):
    """(field, call position) for a dataclass's defaulted fields."""
    fields = [
        s for s in cls.body
        if isinstance(s, ast.AnnAssign) and "ClassVar" not in ast.unparse(s.annotation)
    ]
    for i, s in enumerate(fields):
        value = s.value
        if isinstance(value, ast.Call) and ast.unparse(value.func) == "field":
            if not any(k.arg in ("default", "default_factory") for k in value.keywords):
                continue
        if value is not None:
            yield s.target.id, i


def _record_defaults(cls):
    """(field, call position) for a Record's ``_defaults`` entries: the
    position is the field's index in ``__slots__``."""
    assigned = {
        s.targets[0].id: s.value for s in cls.body
        if isinstance(s, ast.Assign) and isinstance(s.targets[0], ast.Name)
    }
    if "_defaults" not in assigned:
        return
    slots = ast.literal_eval(assigned["__slots__"])
    for key in assigned["_defaults"].keys:
        yield key.value, slots.index(key.value)


def _defaults(tree):
    """(owner, callee, parameter, call position) for every defaulted
    parameter of a public function, method or class's ``__init__``, and
    field of a public dataclass or Record."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        if isinstance(node, ast.FunctionDef):
            for param, i in _parameter_defaults(node, 0):
                yield node.name, node.name, param, i
        elif isinstance(node, ast.ClassDef):
            if any(ast.unparse(d).startswith("dataclass") for d in node.decorator_list):
                for param, i in _field_defaults(node):
                    yield node.name, node.name, param, i
            if any(ast.unparse(b) == "Record" for b in node.bases):
                for param, i in _record_defaults(node):
                    yield node.name, node.name, param, i
            for m in node.body:
                if not isinstance(m, ast.FunctionDef):
                    continue
                if m.name == "__init__":  # called by the class's name
                    for param, i in _parameter_defaults(m, 1):
                        yield f"{node.name}.__init__", node.name, param, i
                elif not m.name.startswith("_"):
                    static = any(ast.unparse(d) == "staticmethod" for d in m.decorator_list)
                    for param, i in _parameter_defaults(m, 0 if static else 1):
                        yield f"{node.name}.{m.name}", m.name, param, i


def _passes(call, param, position):
    if any(k.arg in (param, None) for k in call.keywords):  # None: **kwargs
        return True
    if position is None:
        return False
    for i, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred) or i == position:
            return True
    return False


def _callee(call):
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _sources():
    modules = {p: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(PACKAGE.glob("*.py"))}
    callers = [t for p, t in modules.items() if p.name != "__init__.py"]
    for p in sorted((ROOT / "bench").glob("*.py")) + sorted((ROOT / "tools").glob("*.py")):
        callers.append(ast.parse(p.read_text(encoding="utf-8")))
    return modules, callers


def test_every_public_name_in_src_is_used_outside_the_tests():
    modules, callers = _sources()
    used = {name for tree in callers for name in _references(tree)}
    unused = [
        f"src/pofsig/{path.name}:{node.lineno} {node.name}"
        for path, tree in modules.items()
        for node in _public_definitions(tree)
        if node.name not in used
    ]
    assert not unused, "only tests reach:\n" + "\n".join(unused)


def test_every_private_helper_in_src_is_used_in_src():
    modules, _ = _sources()
    used = {name for tree in modules.values() for name in _references(tree)}
    unused = [
        f"src/pofsig/{path.name}:{node.lineno} {node.name}"
        for path, tree in modules.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.endswith("__")
        and node.name not in used
    ]
    assert not unused, "nothing in src/pofsig refers to:\n" + "\n".join(unused)


def test_every_defaulted_parameter_in_src_is_passed_outside_the_tests():
    modules, callers = _sources()
    calls = {}
    for tree in callers:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                calls.setdefault(_callee(node), []).append(node)
    unset = [
        f"{path.name} {owner}.{param}"
        for path, tree in modules.items()
        for owner, callee, param, position in _defaults(tree)
        if not any(_passes(call, param, position) for call in calls.get(callee, ()))
    ]
    assert not unset, "only tests set:\n" + "\n".join(unset)


def test_record_defaults_are_read_at_their_slot_positions():
    tree = ast.parse("class Tag(Record):\n"
                     "    __slots__ = ('label', 'r', 'index')\n"
                     "    _defaults = {'r': None, 'index': None}\n")
    assert list(_defaults(tree)) == [("Tag", "Tag", "r", 1), ("Tag", "Tag", "index", 2)]
    found = {(path.name, owner, param, i) for path, tree in _sources()[0].items()
             for owner, _, param, i in _defaults(tree)}
    assert {("oracle.py", "OracleTag", "r", 1), ("oracle.py", "OracleTag", "index", 2),
            ("pof.py", "DetectionOutcome", "evidence", 1),
            ("adversary.py", "ForgeryBudget", "max_domain_bits", 0)} <= found
