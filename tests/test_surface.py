"""The library offers only what the program uses, and every oracle has a test.

A public module-level function of ``powerdep`` must be referenced in
``src/`` or ``perfbench/*.py`` (as a name, an attribute or an import
alias), or be documented in README.md as ``<module>.<name>``.  A
function that only the tests call is a test oracle and belongs in
``tests/*_oracle.py``; each public function there must be called by some
``tests/test_*.py``.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TESTS = ROOT / "tests"

# ROADMAP item 4: the benchmark's (taildep, "cross_weak_counts") layer is
# reached only through multivariate_pit, which stays until that layer goes
ALLOWED_UNREFERENCED = {("taildep", "multivariate_pit")}


def public_functions(path):
    return [
        node.name
        for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    ]


def referenced_names(paths):
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


def called_names(paths):
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Name):
                    names.add(func.id)
                elif isinstance(func, ast.Attribute):
                    names.add(func.attr)
    return names


def test_every_public_library_function_is_used_or_documented():
    modules = sorted((ROOT / "src" / "powerdep").glob("*.py"))
    used = referenced_names(modules + sorted((ROOT / "perfbench").glob("*.py")))
    readme = (ROOT / "README.md").read_text()
    unused = [
        (path.stem, name)
        for path in modules
        for name in public_functions(path)
        if name not in used
        and not re.search(rf"(?<![\w.]){path.stem}\.{name}\b", readme)
    ]
    assert sorted(set(unused) - ALLOWED_UNREFERENCED) == []


def test_every_oracle_function_is_called_by_a_test():
    called = called_names(sorted(TESTS.glob("test_*.py")))
    oracles = sorted(TESTS.glob("*_oracle.py"))
    assert oracles  # the pattern still finds the oracles
    uncalled = [
        (path.stem, name)
        for path in oracles
        for name in public_functions(path)
        if name not in called
    ]
    assert uncalled == []
