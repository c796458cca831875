"""``tools/mutants.py``'s table still fits the code: each mutant's old
text occurs exactly once in ``src/``, in its own module, and each killer
names a test that exists.  Running the mutants is the tool's own job."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load_tool():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


MUTANTS = _load_tool().MUTANTS
SOURCES = {p.name: p.read_text(encoding="utf-8") for p in (ROOT / "src" / "pofsig").glob("*.py")}


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m[0] for m in MUTANTS])
def test_old_text_occurs_once_in_src_and_in_its_module(mutant):
    _, module, old, new, _ = mutant
    assert old != new
    assert SOURCES[module].count(old) == 1
    assert sum(text.count(old) for text in SOURCES.values()) == 1


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m[0] for m in MUTANTS])
def test_every_killer_names_a_test_that_exists(mutant):
    killers = mutant[4]
    assert killers
    for killer in killers:
        path, *names = killer.split("::")
        text = (ROOT / path).read_text(encoding="utf-8")
        assert names and names[-1].startswith(("test_", "Test")), killer
        for name in names:
            keyword = "class" if name.startswith("Test") else "def"
            assert f"{keyword} {name}(" in text or f"{keyword} {name}:" in text, killer
