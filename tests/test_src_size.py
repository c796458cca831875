"""``tools/src_size.py`` counts a module's lines as ``wc -l`` does, and
its code-only lines without blanks, lone comments and docstrings."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "src_size.py"

SAMPLE = '''\
"""Module docstring,
two lines."""

# a comment alone
import os  # a comment after code


class Thing:
    """Class docstring."""

    def method(self):
        """Method docstring,

        with a blank line inside."""
        text = """not a docstring:
# this line is in a string
"""
        return (text,
                os.sep)


def bare():
    return "a string statement after the first is code"
'''


def _load_tool():
    spec = importlib.util.spec_from_file_location("src_size", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sizes_of_a_synthetic_module():
    # code lines: import, class, def, text = ... (3 lines), return (2), def, return
    assert _load_tool().sizes(SAMPLE) == (23, 10)


def test_the_table_ends_in_the_package_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SAMPLE, encoding="utf-8")
    (tmp_path / "b.py").write_text("x = 1\n\n", encoding="utf-8")
    assert _load_tool().main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["module", "lines", "code"], ["a.py", "23", "10"], ["b.py", "2", "1"],
                    ["total", "25", "11"]]
