"""No function in the package imports anything: modules import each other at
module level only, so the import graph is explicit, and a cycle in it fails
at import time instead of hiding inside a function body.  The budget,
error, system and window modules stay free of numpy and mpmath, directly and
through the package modules they import, so that commands needing only them
can start without either.  No module names mpmath: the constant sheet and the
increment trace compute on the stdlib ``decimal``, so no CLI command loads
mpmath, and none imports numpy.polynomial.  The one cache decorator in the
package is on the partition histogram, which depends on the coefficients
alone; every other count lives in the call that makes it."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import circlecount

from conftest import CRITERION_11, criterion_11_commands, subcommand

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


def test_no_module_names_mpmath():
    assert [path.name for path in sorted(SRC.glob("*.py"))
            if "mpmath" in path.read_text()] == []


# imports the package, runs one CLI command in process, then lists on its
# last stderr line the modules of interest that the import or the command
# loaded: modules stay in sys.modules once loaded
PROBE = """
import sys
from circlecount.cli import main
code = main(sys.argv[1:])
print(*(m for m in ("mpmath", "numpy.polynomial") if m in sys.modules),
      file=sys.stderr)
sys.exit(code)
"""


@pytest.mark.parametrize("index", range(len(CRITERION_11)),
                         ids=[subcommand(cmd) for cmd in CRITERION_11])
def test_cli_loads_mpmath_only_to_compute_with_it(index, tmp_path):
    # nothing in the package computes with mpmath, so no command loads it
    cmd = criterion_11_commands(tmp_path)[index]
    proc = subprocess.run([sys.executable, "-c", PROBE, *cmd],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines()[-1].split() == []


def test_every_export_is_used_outside_its_tests():
    """Each name the package binds is referenced (as a name, an attribute or
    an import) by another package module, a demo, perfbench or the
    acceptance tests; a name only its own unit tests call is not API."""
    root = SRC.parent.parent
    bound = set()
    for node in ast.parse((SRC / "__init__.py").read_text()).body:
        if isinstance(node, ast.ImportFrom):
            bound.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Assign):
            bound.update(t.id for t in node.targets if isinstance(t, ast.Name))
    users = [path for path in SRC.glob("*.py") if path.name != "__init__.py"]
    users += [*root.glob("demos/*.py"), *root.glob("perfbench/*.py"),
              root / "tests" / "test_acceptance.py"]
    used = set()
    for path in users:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                used.update(alias.name.rpartition(".")[2] for alias in node.names)
    assert sorted(bound - used) == []
