"""No module of the package reaches a sibling module's private name.

A name with one leading underscore belongs to its module.  This test parses
every src/crosscap4/*.py with ast and fails on `from .x import _name` and
on `x._name` where x is a sibling module imported with `from . import x`.
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
