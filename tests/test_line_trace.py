"""The statement inventory behind ``pytest --line-trace``."""

from __future__ import annotations

from line_trace import ALLOWLIST, SRC, statements

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


def test_headers_span_every_line_before_the_body(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(SOURCE)
    found = [(st.header, st.function, st.text) for st in statements(path)]
    assert found == [
        (range(3, 7), "f", "if ( a and b ):"),
        (range(7, 10), "f", "return g( a, )"),
        (range(10, 11), "f", "for x in a:"),
        (range(11, 12), "f", "pass"),
        (range(13, 14), "f", 'raise ValueError("empty")'),
    ]


def test_multiline_if_header_holds_its_first_operand():
    # Python 3.11 reports this `if (` at the line of `self.exact is not None`
    lines = (SRC / "mainterm.py").read_text().splitlines()
    [st] = [st for st in statements(SRC / "mainterm.py")
            if st.function == "power" and st.text.startswith("if ( self.exact")]
    assert lines[st.header.start - 1].strip() == "if ("
    assert "self.exact is not None" in lines[st.header.start]
    assert st.header.start + 1 in st.header


def test_allowlist_names_statements_in_the_source():
    for file, function, text in ALLOWLIST:
        assert any((st.function, st.text) == (function, text)
                   for st in statements(SRC / file)), (file, function, text)
