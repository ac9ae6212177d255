"""No function in the package imports anything: modules import each other at
module level only, so the import graph is explicit, and a cycle in it fails
at import time instead of hiding inside a function body."""

import ast
from pathlib import Path

import circlecount

SRC = Path(circlecount.__file__).parent


def test_no_function_contains_an_import():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [
                    f"{path.name}:{node.lineno} in {fn.name}"
                    for node in ast.walk(fn)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                ]
    assert found == []
