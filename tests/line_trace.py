"""Opt-in pytest plugin: the function-body statements of ``src/circlecount``
that no test ran.

``conftest.py`` registers it when pytest gets ``--line-trace``.  It installs a
stdlib ``sys.settrace`` hook that records the lines executed in the package's
own frames, in the test process only (CLI runs in subprocesses are not seen),
and at the end of the session prints every statement inside a function body,
docstrings aside, none of whose header lines ran, with its function.  A simple
statement's header is all its lines and a compound statement's runs up to its
body, since Python may report a multi-line ``if (`` at the line of its first
operand.  Statements on ``ALLOWLIST`` are printed apart, with their reasons.
The sources are read once, when tracing starts, so an edit made during the
run does not shift the reported lines.  The suite runs about twice as slowly
under it:

    PYTHONPATH=src python -m pytest -q --line-trace
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import NamedTuple

SRC = Path(__file__).resolve().parent.parent / "src" / "circlecount"

# (file, function, statement text) -> why the statement stays although no
# test runs it
ALLOWLIST = {
    ("local.py", "hensel_lift",
     'raise NoConvergenceError("Newton iteration did not reach the target level")'):
        "defensive post-condition: the loop cap on Newton steps",
    ("local.py", "hensel_lift", 'raise NoConvergenceError("lift verification failed")'):
        "defensive post-condition: the lift solves the system mod p^t",
    ("local.py", "hensel_lift",
     'raise NoConvergenceError("lift does not reduce to the seed mod p")'):
        "defensive post-condition: the lift reduces to the seed mod p",
}


class Statement(NamedTuple):
    header: range  # the lines any of which counts as running the statement
    function: str  # the innermost enclosing function
    text: str  # the header's source, its lines stripped and joined by spaces


def statements(source: str) -> list[Statement]:
    """Each statement inside a function of the module text ``source``,
    docstrings excepted, in order of its first line."""
    lines = source.splitlines()
    out: dict[int, Statement] = {}

    def add(stmt: ast.stmt, owner: str) -> None:
        body = getattr(stmt, "body", None)
        end = stmt.end_lineno
        if isinstance(body, list):  # a compound statement: up to its body
            end = max(stmt.lineno, body[0].lineno - 1)
        text = " ".join(line.strip() for line in lines[stmt.lineno - 1:end])
        out.setdefault(stmt.lineno, Statement(range(stmt.lineno, end + 1), owner, text))

    def visit(node: ast.AST, owner: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                body = child.body[ast.get_docstring(child) is not None:]
                for stmt in body:
                    add(stmt, child.name)
                    visit(stmt, child.name)
            else:
                if owner is not None and isinstance(child, ast.stmt):
                    add(child, owner)
                visit(child, owner)

    visit(ast.parse(source), None)
    return [out[line] for line in sorted(out)]


class LineTrace:
    def __init__(self) -> None:
        self.executed: set[tuple[str, int]] = set()
        self.prefix = str(SRC)
        self.sources: dict[Path, str] = {}

    def _global(self, frame, event, arg):
        if frame.f_code.co_filename.startswith(self.prefix):
            return self._local
        return None

    def _local(self, frame, event, arg):
        if event == "line":
            self.executed.add((frame.f_code.co_filename, frame.f_lineno))
        return self._local

    def pytest_sessionstart(self, session) -> None:
        self.sources = {path: path.read_text() for path in sorted(SRC.glob("*.py"))}
        sys.settrace(self._global)

    def pytest_sessionfinish(self, session, exitstatus) -> None:
        sys.settrace(None)

    def missed(self) -> list[tuple[str, Statement]]:
        """(file, statement) of every body statement that never ran."""
        return [
            (path.name, stmt)
            for path, source in self.sources.items()
            for stmt in statements(source)
            if not any((str(path), line) in self.executed for line in stmt.header)
        ]

    def pytest_terminal_summary(self, terminalreporter) -> None:
        missed = self.missed()
        allowed = [(f, st) for f, st in missed if (f, st.function, st.text) in ALLOWLIST]
        listed = [(f, st) for f, st in missed if (f, st.function, st.text) not in ALLOWLIST]
        write = terminalreporter.write_line
        terminalreporter.section("line trace")
        write(f"{len(listed)} function-body statements of src/circlecount never ran")
        for file, st in listed:
            write(f"{file}:{st.header.start} in {st.function}")
        write(f"{len(allowed)} of {len(ALLOWLIST)} allowlisted statements never ran")
        for file, st in allowed:
            write(f"{file}:{st.header.start} in {st.function}: "
                  f"{ALLOWLIST[file, st.function, st.text]}")
        for key in ALLOWLIST.keys() - {(f, st.function, st.text) for f, st in allowed}:
            write("allowlisted, but ran or not found: {} in {}: {}".format(*key))
