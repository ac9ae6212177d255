"""The statement inventory behind ``pytest --line-trace``."""

from __future__ import annotations

import sys

import line_trace
from line_trace import ALLOWLIST, SRC, LineTrace, statements

SOURCE = '''\
def f(a, b):
    """Docstring."""
    if (
        a
        and b
    ):
        return g(
            a,
        )
    for x in a:
        pass
    else:
        raise ValueError("empty")
'''


def test_headers_span_every_line_before_the_body():
    found = [(st.header, st.function, st.text) for st in statements(SOURCE)]
    assert found == [
        (range(3, 7), "f", "if ( a and b ):"),
        (range(7, 10), "f", "return g( a, )"),
        (range(10, 11), "f", "for x in a:"),
        (range(11, 12), "f", "pass"),
        (range(13, 14), "f", 'raise ValueError("empty")'),
    ]


def test_multiline_if_header_holds_its_first_operand():
    # Python 3.11 reports this `if (` at the line of `self.exact is not None`
    source = (SRC / "mainterm.py").read_text()
    lines = source.splitlines()
    [st] = [st for st in statements(source)
            if st.function == "power" and st.text.startswith("if ( self.exact")]
    assert lines[st.header.start - 1].strip() == "if ("
    assert "self.exact is not None" in lines[st.header.start]
    assert st.header.start + 1 in st.header


def test_allowlist_names_statements_in_the_source():
    for file, function, text in ALLOWLIST:
        found = {(st.function, st.text) for st in statements((SRC / file).read_text())}
        assert (function, text) in found, (file, function, text)


def test_report_parses_the_source_read_when_tracing_started(tmp_path, monkeypatch):
    path = tmp_path / "mod.py"
    path.write_text(SOURCE)
    monkeypatch.setattr(line_trace, "SRC", tmp_path)
    monkeypatch.setattr(sys, "settrace", lambda hook: None)  # keep the caller's hook
    trace = LineTrace()
    trace.pytest_sessionstart(None)
    # the first line of each statement's header ran, as the module was loaded
    trace.executed = {(str(path), line) for line in (3, 7, 10, 11, 13)}
    # an edit during the run moves every later statement up one line
    path.write_text(SOURCE.replace('    """Docstring."""\n', ""))
    assert trace.missed() == []
