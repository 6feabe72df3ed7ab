"""Every module-level function of the package has a caller or is exported.

A function that no module of the package refers to, and that
``sepsym/__init__.py`` does not export, is dead weight that only its own
tests keep alive.  The scan is static: it parses the sources and counts a
name as used when it is loaded (as a bare name or an attribute) anywhere
outside ``__init__.py``.
"""

import ast
from pathlib import Path

import sepsym

PACKAGE = Path(sepsym.__file__).parent


def _trees():
    return {path.name: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def _exports(init_tree):
    return {alias.asname or alias.name
            for node in ast.walk(init_tree) if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def _loaded_names(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def unreferenced_functions():
    trees = _trees()
    exported = _exports(trees["__init__.py"])
    used = set().union(*(_loaded_names(t) for name, t in trees.items() if name != "__init__.py"))
    return sorted(
        f"{name}:{node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and node.name not in used and node.name not in exported
    )


def test_every_function_is_called_or_exported():
    dead = unreferenced_functions()
    assert not dead, f"no caller in src/ and not exported from sepsym: {dead}"


def test_scan_sees_package_functions():
    # guard against a vacuous pass: the scan must find the real modules
    trees = _trees()
    assert {"obstruction.py", "space.py", "symmetry.py", "checks.py"} <= set(trees)
    defined = {node.name for tree in trees.values() for node in tree.body
               if isinstance(node, ast.FunctionDef)}
    assert {"obstruction_rhs", "lift_J", "freelift_report"} <= defined
