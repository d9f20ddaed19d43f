"""No module of the package reaches a sibling module's private name, and
every public name has a caller in the package.

A name with one leading underscore belongs to its module.  This test parses
every src/crosscap4/*.py with ast and fails on `from .x import _name` and
on `x._name` where x is a sibling module imported with `from . import x`.
A public top-level def, class or assignment that no module of the package
reads, reads as an attribute, or imports is library surface that only
tests reach; a test-only helper belongs in tests/oracles.py.
"""

import ast
from pathlib import Path

import crosscap4

PACKAGE = Path(crosscap4.__file__).parent


def private(name):
    return name.startswith("_") and not name.startswith("__")


def private_crossings(source):
    """The private sibling names that a module's source reaches, as text."""
    tree = ast.parse(source)
    siblings, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:  # from . import x
                siblings.update(a.asname or a.name for a in node.names)
            else:
                found += ["from .%s import %s" % (node.module, a.name)
                          for a in node.names if private(a.name)]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and private(node.attr)
                and isinstance(node.value, ast.Name)
                and node.value.id in siblings):
            found.append("%s.%s" % (node.value.id, node.attr))
    return found


def test_guard_catches_both_forms():
    source = ("from . import torus\n"
              "from .heegaard import _hand, t0\n"
              "torus._check(1)\n"
              "torus.__name__, t0._x\n")
    assert private_crossings(source) == ["from .heegaard import _hand",
                                         "torus._check"]


def test_no_module_reaches_a_private_sibling_name():
    paths = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "reports.py" in paths
    crossings = {path.name: private_crossings(path.read_text())
                 for path in paths}
    assert {k: v for k, v in crossings.items() if v} == {}


def public_definitions(tree):
    """The public names that a module defines at its top level by def,
    class or assignment."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            names += [n.id for n in ast.walk(node)
                      if isinstance(n, ast.Name)
                      and isinstance(n.ctx, ast.Store)]
    return [name for name in names if not name.startswith("_")]


def used_names(tree):
    """The names that a module reads, reads as an attribute, or imports."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Load)):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(a.name for a in node.names)
    return used


def uncalled_public_names(sources):
    """"module.name" for each public top-level name of the modules in
    sources, {file name: text}, that no module uses; __init__.py neither
    counts as a definer nor as a user."""
    trees = {name: ast.parse(text) for name, text in sources.items()
             if name != "__init__.py"}
    used = set().union(*map(used_names, trees.values()))
    return sorted("%s.%s" % (name[:-3], definition)
                  for name, tree in trees.items()
                  for definition in public_definitions(tree)
                  if definition not in used)


def test_caller_guard_sees_reads_attributes_and_imports():
    sources = {
        "a.py": ("X, Y = 1, 2\nZ: int = 3\n_w = 4\n"
                 "def f():\n    return X\n"
                 "class C:\n    pass\n"),
        "b.py": "from . import a\nfrom .a import f\na.C\n",
        "__init__.py": "from .a import Y, Z\n",
    }
    assert uncalled_public_names(sources) == ["a.Y", "a.Z"]


def test_every_public_name_has_a_caller_in_the_package():
    sources = {path.name: path.read_text()
               for path in sorted(PACKAGE.glob("*.py"))}
    assert "cli.py" in sources
    assert uncalled_public_names(sources) == []
