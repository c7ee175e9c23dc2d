"""The code-line budget of the library.

Code lines are the lines of ``src/morseflow/*.py`` that hold a token other
than a comment, after the lines of module, class and function docstrings
are set aside; blank lines hold no token.  A change that raises the budget
says which of its lines it could not avoid.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "morseflow"
BUDGET = 1773

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def code_lines(text: str) -> int:
    docstrings: set[int] = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def test_rule_skips_docstrings_comments_and_blank_lines():
    text = '''"""Module
docstring."""

# a comment
def f(x):  # trailing comment
    """Docstring."""
    s = """a
string"""
    return (x,
            s)
'''
    assert code_lines(text) == 5


def test_library_code_lines_stay_within_the_budget():
    counts = {
        path.name: code_lines(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))
    }
    count = sum(counts.values())
    per_module = ", ".join(f"{name} {n}" for name, n in counts.items())
    print(f"src/morseflow code lines: {count} (budget {BUDGET}): {per_module}")
    assert count <= BUDGET
