#!/usr/bin/env python3
"""List the statements inside ``src/cellcomplex`` functions that the tests never run.

    python3 tools/untested_lines.py [PYTEST_ARGS ...]

Runs pytest in this interpreter, on ``tests/`` unless other arguments are
given, with a line tracer set by ``sys.settrace`` and
``threading.settrace``.  Then it prints, per module of
``src/cellcomplex``, the first lines of the statements and except
clauses inside functions and methods that never ran, as ranges.  Module
and class bodies are left out: they run at import.  Code that runs only
in a child process (the tests that start ``python -m`` for the traced
CLI) is not seen, so a line reached only there is listed.  Tracing makes
the suite two to three times slower.  The exit code is pytest's when pytest
fails, else 1 if any statement is listed and 0 if none is.
"""

from __future__ import annotations

import ast
import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cellcomplex"


def statement_lines(path: Path) -> set[int]:
    """First lines of the statements and except clauses inside the module's functions
    that compile to code."""
    tree = ast.parse(path.read_text())
    starts = {
        stmt.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for stmt in ast.walk(node)
        if isinstance(stmt, (ast.stmt, ast.excepthandler)) and stmt is not node
    }
    executable, stack = set(), [compile(tree, str(path), "exec")]
    while stack:
        code = stack.pop()
        executable.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return starts & executable


def ranges(lines: list[int]) -> str:
    """Sorted line numbers as comma-separated runs, e.g. ``3, 7-9``."""
    runs: list[list[int]] = []
    for line in lines:
        if runs and line == runs[-1][1] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def main(argv: list[str]) -> int:
    import pytest

    sys.path.insert(0, str(PACKAGE.parent))
    modules = {str(path): path for path in sorted(PACKAGE.glob("*.py"))}
    ran: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename in modules else None

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(argv or [str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    import cellcomplex

    if Path(cellcomplex.__file__).resolve().parent != PACKAGE:
        print(f"cellcomplex was imported from {cellcomplex.__file__}, not {PACKAGE}")
        return 2
    print(f"\nStatements inside functions of {PACKAGE.relative_to(ROOT)} that never ran:")
    listed = 0
    for name, path in modules.items():
        expected = statement_lines(path)
        missing = sorted(line for line in expected if (name, line) not in ran)
        listed += len(missing)
        print(f"{path.name:15} {len(missing):3} of {len(expected):3}  {ranges(missing) or '-'}")
    return int(code) or int(listed > 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
