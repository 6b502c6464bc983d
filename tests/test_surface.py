"""The library offers only what the program uses, and every oracle has a test.

A name counts as used only where it is reached through its owner, so a
same-spelt name elsewhere (a local ``fit``, an attribute ``fit``) does
not keep it alive.  A public module-level function of ``powerdep`` is
used when one of these holds:

- ``src/`` or ``perfbench/*.py`` references it as ``<module>.<name>``;
- code there imports it by name from its module;
- its own module names it bare.

A public classmethod is used when ``src/`` or ``perfbench/*.py``
references it as ``<Class>.<name>``.  Any other public method or
property of a ``src/`` class is used when code there reads ``.<name>``
on anything, so a method named like some other attribute read there
(``HourlyPanel.n_vars`` and ``VineStructure.n_vars``) escapes the
check.  README.md documents the library
and does not count as a use.  A function that only the tests call is a
test oracle and belongs in ``tests/*_oracle.py``; each public function
there must be called by some ``tests/test_*.py``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TESTS = ROOT / "tests"

# ROADMAP item 4: the benchmark's (taildep, "cross_weak_counts") layer is
# reached only through multivariate_pit, which stays until that layer goes
ALLOWED_UNREFERENCED = {("taildep", "multivariate_pit")}

# ROADMAP item 7: the data-side Kendall check would be the first reader
# of KendallFunction.evaluate; if that item is dropped, it moves to tests/
ALLOWED_UNREAD_METHODS = {("KendallFunction", "evaluate")}


def public_functions(path):
    return [
        node.name
        for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    ]


def public_classmethods(path):
    return [
        (node.name, item.name)
        for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, ast.FunctionDef)
        and not item.name.startswith("_")
        and any(
            isinstance(d, ast.Name) and d.id == "classmethod"
            for d in item.decorator_list
        )
    ]


def public_methods(path):
    """(class, name) of every public method and property in ``path``."""
    return [
        (node.name, item.name)
        for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
    ]


def qualified_references(paths):
    """(owner, name) for every ``owner.name`` and ``from owner import name``.

    The owner of ``a.owner.name`` is ``owner``, and the owner of
    ``from package.owner import name`` is ``owner``.
    """
    refs = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                owner = node.value
                if isinstance(owner, ast.Name):
                    refs.add((owner.id, node.attr))
                elif isinstance(owner, ast.Attribute):
                    refs.add((owner.attr, node.attr))
            elif isinstance(node, ast.ImportFrom) and node.module:
                owner = node.module.rpartition(".")[2]
                refs.update((owner, alias.name) for alias in node.names)
    return refs


def read_attributes(paths):
    """Every ``name`` that some ``<expression>.name`` in ``paths`` reads."""
    return {
        node.attr
        for path in paths
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute)
    }


def bare_names(path):
    return {
        node.id
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Name)
    }


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


def test_every_public_library_function_is_used():
    modules = sorted((ROOT / "src" / "powerdep").glob("*.py"))
    refs = qualified_references(modules + sorted((ROOT / "perfbench").glob("*.py")))
    unused = []
    for path in modules:
        own = bare_names(path)
        unused += [
            (path.stem, name)
            for name in public_functions(path)
            if name not in own and (path.stem, name) not in refs
        ]
        unused += [pair for pair in public_classmethods(path) if pair not in refs]
    assert sorted(set(unused) - ALLOWED_UNREFERENCED) == []


def test_every_public_method_is_read():
    modules = sorted((ROOT / "src" / "powerdep").glob("*.py"))
    read = read_attributes(modules + sorted((ROOT / "perfbench").glob("*.py")))
    unread = {
        (cls, name)
        for path in modules
        for cls, name in public_methods(path)
        if name not in read
    }
    assert sorted(unread - ALLOWED_UNREAD_METHODS) == []


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
