"""Library surface guard: every definition in src/fcunits has a caller.

A module-level function or class, or a method, passes when its name is
referenced somewhere in src/fcunits outside its own definition, is listed
in ``fcunits.__all__``, is a dunder, or is in ``ALLOWED`` below.  Names
are matched by spelling only, so a reference to ``mul`` keeps every
``mul`` method alive; the guard catches surface that nothing names at all.
"""

import ast
import collections
import functools
import pathlib

import fcunits

SRC = pathlib.Path(fcunits.__file__).resolve().parent

ALLOWED = {
    # README promises commutators of algebra elements
    "unit_commutator": "documented library call",
    # README documents the bundled-instance loaders
    "bundled_instance": "documented library call",
    "bundled_names": "documented library call",
    # tools/make_bundled_instances.py builds instance files from them
    "cyclic_table": "imported by the bundled-instance generator",
    "symmetric_group_3_table": "imported by the bundled-instance generator",
    # tested library call, timed by name by bench/tracer.py; it goes when
    # the benchmark retires structure.corner_algebra.total_s
    "corner_algebra": "tested library call the benchmark tracer patches",
}


def _definitions(tree):
    """(name, node) for module-level functions and classes and methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield item.name, item


def _references(tree):
    """(name, line) for every name and attribute the module mentions."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name, None


@functools.cache
def _trees():
    return [(path.name, ast.parse(path.read_text(encoding="utf-8")))
            for path in sorted(SRC.glob("*.py"))]


def unreferenced_definitions():
    refs = collections.defaultdict(list)
    for module, tree in _trees():
        for name, line in _references(tree):
            refs[name].append((module, line))

    def referenced(module, name, node):
        return any(not (rmodule == module and line is not None
                        and node.lineno <= line <= node.end_lineno)
                   for rmodule, line in refs[name])

    exported = set(fcunits.__all__)
    return sorted(
        f"{module}:{node.lineno} {name}"
        for module, tree in _trees()
        for name, node in _definitions(tree)
        if not (name.startswith("__") and name.endswith("__"))
        and name not in exported and name not in ALLOWED
        and not referenced(module, name, node))


def test_every_definition_has_a_caller():
    assert unreferenced_definitions() == []


def test_allowlist_names_exist():
    names = {name for _, tree in _trees() for name, _ in _definitions(tree)}
    assert set(ALLOWED) <= names
