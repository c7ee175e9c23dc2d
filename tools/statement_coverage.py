"""Statement coverage of ``src/morseflow`` under a pytest run, stdlib only.

Runs pytest in this process under ``sys.settrace``, records every line of
``src/morseflow`` that executes, and lists each statement none of whose
lines ran.  A statement is a simple statement, or the header of a compound
one (its condition, loop target, ``with`` items, or ``def``/``class`` line
with decorators); docstrings, ``try``/``else``/``finally`` keywords and
``global``/``nonlocal`` declarations run no code and are not counted.

Statements that valid input cannot reach, such as internal tripwires, are
listed in an allowlist keyed by file name and statement text, not line
number, so edits elsewhere in a file do not break it::

    acyclicity tripwire | morse.py | raise AcyclicityBug("gradient field ...")

Everything before the first ``|`` is a free-text reason.  The run fails
when pytest fails, when a statement outside the allowlist never ran, or
when an allowlist entry names no unexecuted statement (it has gone stale).

Usage, from the repository root::

    PYTHONPATH=src python tools/statement_coverage.py -- -q -p no:cacheprovider

The arguments go to pytest, with a leading ``--`` dropped.  Tracing slows
the run about five-fold.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "morseflow"
ALLOWLIST = Path(__file__).resolve().parent / "coverage_allowlist.txt"

# Statements that hold no code of their own: their bodies are counted instead.
_NO_CODE = (ast.Global, ast.Nonlocal, ast.Try)


def _is_docstring(node: ast.stmt, parent: ast.AST) -> bool:
    return (
        isinstance(parent, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and node is parent.body[0]
        and isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def statements(text: str) -> list[tuple[range, str]]:
    """Each counted statement of a module: the lines that run it, and its text."""
    tree = ast.parse(text)
    lines = text.splitlines()
    out = []
    for parent in ast.walk(tree):
        for node in ast.iter_child_nodes(parent):
            if not isinstance(node, ast.stmt) or isinstance(node, _NO_CODE):
                continue
            if _is_docstring(node, parent):
                continue
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
            body = getattr(node, "body", None)
            # A compound statement runs its header; its body is counted apart.
            last = body[0].lineno - 1 if body else node.end_lineno
            out.append((range(first, max(first, last) + 1), lines[node.lineno - 1].strip()))
    return sorted(out, key=lambda s: s[0].start)


def read_allowlist() -> set[tuple[str, str]]:
    entries = set()
    for line in ALLOWLIST.read_text(encoding="utf-8").splitlines():
        if line.strip() and not line.lstrip().startswith("#"):
            _, name, text = (part.strip() for part in line.split("|", 2))
            entries.add((name, text))
    return entries


def traced_pytest(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest with ``args`` and return its exit code and the executed
    lines of every file under ``src/morseflow``, keyed by file path."""
    executed: dict[str, set[int]] = {}
    # Each code file once: its executed lines if it is in the library, else None.
    files: dict[str, set[int] | None] = {}

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in files:
            path = Path(os.path.realpath(filename))
            files[filename] = executed.setdefault(str(path), set()) if path.parent == SRC else None
        seen = files[filename]
        if seen is None:
            return None  # no line events for code outside the library

        def local(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return local

        seen.add(frame.f_lineno)
        return local

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), executed


def main(argv: list[str]) -> int:
    code, executed = traced_pytest(argv[1:] if argv[:1] == ["--"] else argv)
    allowed = read_allowlist()
    used: set[tuple[str, str]] = set()
    missed = []
    for path in sorted(SRC.glob("*.py")):
        ran = executed.get(str(path), set())
        for lines, text in statements(path.read_text(encoding="utf-8")):
            if ran.isdisjoint(lines):
                key = (path.name, text)
                if key in allowed:
                    used.add(key)
                else:
                    missed.append(f"{path.relative_to(ROOT)}:{lines.start}: {text}")
    stale = sorted(allowed - used)
    print(f"statement coverage: {len(used)} allowlisted statements unexecuted, "
          f"{len(missed)} others, {len(stale)} stale allowlist entries")
    for line in missed:
        print(f"  not executed: {line}")
    for name, text in stale:
        print(f"  stale allowlist entry: {name} | {text}")
    if code != 0:
        print(f"pytest exited with {code}")
    return 1 if code or missed or stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
