"""Opt-in pytest plugin: the function-body lines of ``src/circlecount`` that no
test ran.

``conftest.py`` registers it when pytest gets ``--line-trace``.  It installs a
stdlib ``sys.settrace`` hook that records the lines executed in the package's
own frames, in the test process only (CLI runs in subprocesses are not seen),
and at the end of the session prints every statement inside a function body,
docstrings aside, whose first line never ran, with its function.  The suite
runs about twice as slowly under it:

    PYTHONPATH=src python -m pytest -q --line-trace
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "circlecount"


def body_lines(path: Path) -> dict[int, str]:
    """First line of each statement inside a function of ``path``, docstrings
    excepted, mapped to the innermost function's name."""
    out: dict[int, str] = {}

    def visit(node: ast.AST, owner: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                body = child.body[ast.get_docstring(child) is not None:]
                for stmt in body:
                    out.setdefault(stmt.lineno, child.name)
                    visit(stmt, child.name)
            else:
                if owner is not None and isinstance(child, ast.stmt):
                    out.setdefault(child.lineno, owner)
                visit(child, owner)

    visit(ast.parse(path.read_text()), None)
    return out


class LineTrace:
    def __init__(self) -> None:
        self.executed: set[tuple[str, int]] = set()
        self.prefix = str(SRC)

    def _global(self, frame, event, arg):
        if frame.f_code.co_filename.startswith(self.prefix):
            return self._local
        return None

    def _local(self, frame, event, arg):
        if event == "line":
            self.executed.add((frame.f_code.co_filename, frame.f_lineno))
        return self._local

    def pytest_sessionstart(self, session) -> None:
        sys.settrace(self._global)

    def pytest_sessionfinish(self, session, exitstatus) -> None:
        sys.settrace(None)

    def missed(self) -> list[tuple[str, int, str]]:
        """(file, line, function) of every body line that never ran."""
        out = []
        for path in sorted(SRC.glob("*.py")):
            for line, name in sorted(body_lines(path).items()):
                if (str(path), line) not in self.executed:
                    out.append((path.name, line, name))
        return out

    def pytest_terminal_summary(self, terminalreporter) -> None:
        missed = self.missed()
        terminalreporter.section("line trace")
        terminalreporter.write_line(
            f"{len(missed)} function-body lines of src/circlecount never ran")
        for file, line, name in missed:
            terminalreporter.write_line(f"{file}:{line} in {name}")
