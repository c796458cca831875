"""Print the size of pofsig's source, per module and in total.

Usage::

    python tools/src_size.py [PACKAGE_DIR]

``PACKAGE_DIR`` defaults to this tree's ``src/pofsig``.  Each row gives
a module's lines as ``wc -l`` counts them, and its code-only lines: the
lines that hold a token of code, so neither blank, nor a comment alone,
nor part of a docstring (the first statement of a module, class or
function, when it is a string literal, as the AST finds it).
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "pofsig"

# Tokens that hold no code: a line made only of these is not counted.
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers of every docstring in tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def sizes(text: str) -> tuple[int, int]:
    """(wc -l lines, code-only lines) of one module's text."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return text.count("\n"), len(code - docstring_lines(ast.parse(text)))


def main(argv: list[str]) -> int:
    package = Path(argv[0]) if argv else PACKAGE
    rows = [(p.name, *sizes(p.read_text(encoding="utf-8")))
            for p in sorted(package.glob("*.py"))]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    print(f"{'module':<14} {'lines':>6} {'code':>6}")
    for name, lines, code in rows:
        print(f"{name:<14} {lines:>6} {code:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
