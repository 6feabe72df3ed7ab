"""Every function and class member of the package has a reader in it.

A module-level function that no module of the package refers to is dead
weight that only its own tests keep alive.  So is a method, property or
dataclass field of a package class whose name the package never reads as
an attribute.  The scan is static: it parses the sources and counts a name
as used when it is loaded (as a bare name or an attribute for functions,
as an attribute for members) anywhere outside ``__init__.py``.

A load that only copies a field forward does not count as reading it: an
attribute loaded inside a keyword argument of the same name, as in
``NonlinearOperator(..., flag=op.flag or other.flag)``, passes the value
on to a new object and decides nothing.  A flag that every combinator
copies but no code tests is therefore flagged.

Members are matched by name only, not by class: a member whose name some
other class also uses and reads passes.  The scan therefore could not see
that nothing read ``Hierarchy.generators``, because ``Scenario.generators``
has the same name.  Dunder methods and dunder functions are exempt, since
syntax and the import system call them.

No package module imports another module's private name (one leading
underscore): what two modules share is public where it is defined.
"""

import ast
import importlib
import inspect
import typing
from pathlib import Path

import sepsym
from sepsym.checks import _REGISTRY, check_parameters

PACKAGE = Path(sepsym.__file__).parent


def _trees():
    return {path.name: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def _loaded_names(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _attribute_loads(tree, keyword=None):
    """Attributes loaded in ``tree``, leaving out copies: a load inside a
    keyword argument of its own name, ``field=op.field``, only passes the
    field on."""
    if isinstance(tree, ast.keyword):
        keyword = tree.arg
    loads = set()
    if (isinstance(tree, ast.Attribute) and isinstance(tree.ctx, ast.Load)
            and tree.attr != keyword):
        loads.add(tree.attr)
    for child in ast.iter_child_nodes(tree):
        loads |= _attribute_loads(child, keyword)
    return loads


def _members(cls):
    for node in cls.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id


def unread_members():
    trees = _trees()
    read = set().union(*(_attribute_loads(t) for name, t in trees.items() if name != "__init__.py"))
    return sorted(
        f"{name}:{cls.name}.{member}"
        for name, tree in trees.items()
        for cls in tree.body if isinstance(cls, ast.ClassDef)
        for member in _members(cls)
        if not member.startswith("__") and member not in read
    )


def _package_loads(trees):
    return set().union(*(_loaded_names(t) for name, t in trees.items() if name != "__init__.py"))


def unreferenced_functions():
    trees = _trees()
    used = _package_loads(trees)
    return sorted(
        f"{name}:{node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name not in used
        and not node.name.startswith("__")
    )


def test_every_function_is_called():
    dead = unreferenced_functions()
    assert not dead, f"no caller in src/: {dead}"


def test_every_member_is_read():
    dead = unread_members()
    assert not dead, f"never read as an attribute in src/: {dead}"


def test_scan_sees_package_functions():
    # guard against a vacuous pass: the scan must find the real modules
    trees = _trees()
    assert {"obstruction.py", "space.py", "symmetry.py", "checks.py",
            "checks_lifts.py"} <= set(trees)
    defined = {node.name for tree in trees.values() for node in tree.body
               if isinstance(node, ast.FunctionDef)}
    assert {"obstruction_rhs", "lift_J", "point_symmetry_parts", "check_freelift"} <= defined
    members = {f"{cls.name}.{member}" for tree in trees.values()
               for cls in tree.body if isinstance(cls, ast.ClassDef)
               for member in _members(cls)}
    assert {"NonlinearOperator.derivative", "PointSymmetrySpec.eta",
            "ConfigSpace.spacing", "Hierarchy.ops"} <= members


def test_copying_forward_is_not_reading():
    def loads(src):
        return _attribute_loads(ast.parse(src))

    assert loads("Op(flag=a.flag or b.flag, name=a.name)") == set()
    assert loads("Op(other=a.flag)") == {"flag"}
    assert loads("if a.flag: pass") == {"flag"}


def _private_imports(tree):
    """Names with one leading underscore that ``tree`` imports from a module."""
    return sorted(alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                  for alias in node.names
                  if alias.name.startswith("_") and not alias.name.startswith("__"))


def test_no_module_imports_a_private_name():
    found = {name: names for name, tree in _trees().items() if (names := _private_imports(tree))}
    assert not found, f"private names imported across package modules: {found}"


def test_private_import_scan_sees_one():
    # guard against a vacuous pass: an import inside a function counts too
    tree = ast.parse("from . import __version__\ndef f():\n    from .obstruction import _check_range")
    assert _private_imports(tree) == ["_check_range"]


def _annotated(obj):
    """The functions and methods of a module member whose hints can be asked."""
    if inspect.isfunction(obj):
        yield obj
    elif inspect.isclass(obj):
        yield obj
        for member in vars(obj).values():
            if isinstance(member, (staticmethod, classmethod)):
                member = member.__func__
            elif isinstance(member, property):
                member = member.fget
            if inspect.isfunction(member):
                yield member


def test_every_annotation_resolves():
    # with postponed evaluation, an annotation naming something its module
    # never imports goes unnoticed until a caller asks for the hints
    unresolved = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__init__":
            continue  # it holds only the version
        module = importlib.import_module(f"sepsym.{path.stem}")
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            for fn in _annotated(obj):
                try:
                    typing.get_type_hints(fn)
                except NameError as exc:
                    unresolved.append(f"{module.__name__}.{fn.__qualname__}: {exc}")
    assert not unresolved, unresolved


def _families():
    return [importlib.import_module(f"sepsym.{path.stem}")
            for path in sorted(PACKAGE.glob("checks_*.py"))]


def test_families_hold_every_check_once():
    # each check sits in the family the registry names for it, and only there
    families = _families()
    held = [(family.__name__.removeprefix("sepsym.checks_"), name)
            for family in families for name in family.FAMILY]
    assert len(families) == 4
    assert sorted(held) == sorted((entry[0], name) for name, entry in _REGISTRY.items())


def test_family_parameters_are_the_declared_ones():
    # a check function takes exactly the parameters the registry requires,
    # none with a default of its own
    for family in _families():
        for name, fn in family.FAMILY.items():
            params = list(inspect.signature(fn).parameters.values())[1:]
            assert [p.name for p in params] == list(check_parameters(name)), name
            assert all(p.default is inspect.Parameter.empty for p in params), name
