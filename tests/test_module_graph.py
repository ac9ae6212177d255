"""No function in the package imports anything: modules import each other at
module level only, so the import graph is explicit, and a cycle in it fails
at import time instead of hiding inside a function body.  The budget,
error, system and window modules stay free of numpy and mpmath, directly and
through the package modules they import, so that commands needing only them
can start without either.  The one cache decorator in the package is on the
partition histogram, which depends on the coefficients alone; every other
count lives in the call that makes it."""

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


def test_only_the_partition_histogram_is_cached():
    cached = []
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                cached += [
                    f"{path.stem}.{fn.name}"
                    for dec in fn.decorator_list
                    if "cache" in ast.unparse(dec)
                ]
    assert cached == ["enumeration._zero_sum_partition_histogram"]


def _imports(path):
    """(absolute module names, package-relative module names) imported by a file."""
    absolute, relative = set(), set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            absolute.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                relative.add(node.module)
            else:
                absolute.add(node.module.split(".")[0])
    return absolute, relative


def test_pure_python_modules_import_neither_numpy_nor_mpmath():
    for name in ("budget", "errors", "system", "windows"):
        seen, todo, reached = set(), [name], set()
        while todo:
            module = todo.pop()
            if module in seen:
                continue
            seen.add(module)
            absolute, relative = _imports(SRC / f"{module}.py")
            reached |= absolute
            todo.extend(relative)
        assert not reached & {"numpy", "mpmath"}, (name, sorted(seen))
