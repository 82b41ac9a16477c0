"""Statements of the package that no tier-1 test executes.

    python tools/untested_lines.py

The script runs the tier-1 suite (``pytest -q --continue-on-collection-errors``
on the repository's ``tests``) in its own process under a line tracer,
``sys.settrace`` and ``threading.settrace``, that records only lines of
``src/planarcrit``.  Then it prints each statement that no test executed,
one per line as ``file:line: source`` with the statement's first source
line, sorted by file and line; pytest's own output goes to stderr.  A
compound statement (``if``, ``for``, ``def`` and so on) counts as executed
when any line of it ran; docstrings are not statements here.  Worker
processes (``--threads`` above 1) and tests that run the CLI in a
subprocess are not traced, so what only they execute is listed too.  It
needs nothing beyond the standard library, numpy and pytest.  It exits 1
when the suite does not pass, since the list is then incomplete, else 0.
"""

from __future__ import annotations

import ast
import contextlib
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "planarcrit"


def _statements(path: Path) -> list[tuple[int, int, int, str]]:
    """(line, first line, last line, source line) of each statement; the first
    line is that of its first decorator, if it has any."""
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text)
    docstrings = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                docstrings.add(id(body[0]))
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.stmt) and id(node) not in docstrings:
            first = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", ()))])
            out.append((node.lineno, first, node.end_lineno, lines[node.lineno - 1].strip()))
    return sorted(out)


def main() -> int:
    import pytest

    prefix = str(PACKAGE) + os.sep
    executed: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            executed.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        with contextlib.redirect_stdout(sys.stderr):
            code = pytest.main(["-q", "--continue-on-collection-errors", "-p",
                                "no:cacheprovider", "tests"])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    for path in sorted(PACKAGE.rglob("*.py")):
        ran = executed.get(str(path), set())
        for lineno, first, last, source in _statements(path):
            if not any(line in ran for line in range(first, last + 1)):
                print(f"{path.relative_to(ROOT)}:{lineno}: {source}")
    return 0 if code == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
