"""Each engine and the oracles that check it share no code.

A cross-check proves something only if the oracle does not run the code it
checks.  This test parses every src/crosscap4/*.py and tests/oracles.py
with ast and takes, for each top-level def, class and assignment, the
package names it reads: its own module's, those bound anywhere in the
module by `from .x import f` (or `from crosscap4.x import f`), and `x.f`
where x comes from `from . import x`.  For each quantity, the closures of the engine and of its
oracles under that relation must meet only in torus.check_pair and the
errors classes.  numtheory.floor_sum stays off that list: it is t0's
engine, so no t0 oracle may use it.
"""

import ast
from pathlib import Path

import pytest

import crosscap4

PACKAGE = Path(crosscap4.__file__).parent

# (engines, oracles) of each quantity.  bounds.invariants and
# oracles.oracle_invariants are no pair: they compute sigma and t0 at
# once, and share numtheory.floor_sum as t0's engine and sigma's oracle.
PAIRS = {
    "sigma": (["torus.sigma_rec"], ["oracle.sigma_lattice"]),
    "t0": (["heegaard.t0"], ["oracle.alexander_t0", "torus.alexander"]),
    "t0 by lens space": (["heegaard.t0"], ["oracles.t0_lens"]),
    "pinch walk": (["pinch.pinch_runs"], ["oracles.step_walk"]),
}


def package_module(node):
    """The package module that node imports from, if it is a `from ...
    import`: "x" for `from .x` and `from crosscap4.x`, "" for `from .` and
    `from crosscap4`; None for any other statement."""
    if not isinstance(node, ast.ImportFrom):
        return None
    module = node.module or ""
    if node.level == 1:
        return module
    if node.level == 0 and module.split(".")[0] == "crosscap4":
        return module[len("crosscap4."):]
    return None


def reads(node, names, modules):
    """The "module.name"s that node reads: by a name in names, {local
    name: "module.name"}, or as x.f for a module x in modules."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and sub.id in names:
            yield names[sub.id]
        elif (isinstance(sub, ast.Attribute)
              and isinstance(sub.value, ast.Name)
              and sub.value.id in modules):
            yield "%s.%s" % (sub.value.id, sub.attr)


def call_graph(sources):
    """{"module.name": the "module.name"s it reads} for each top-level def,
    class and assignment of the modules in sources, {module: text}."""
    graph = {}
    for module, text in sources.items():
        tree = ast.parse(text)
        nodes = {}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                nodes[node.name] = node
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                nodes.update((n.id, node) for n in ast.walk(node)
                             if isinstance(n, ast.Name)
                             and isinstance(n.ctx, ast.Store))
        names = {name: "%s.%s" % (module, name) for name in nodes}
        modules = set()
        for node in ast.walk(tree):  # imports inside a def count too
            source = package_module(node)
            if source is None:
                continue
            for alias in node.names:
                local = alias.asname or alias.name
                if source:
                    names[local] = "%s.%s" % (source, alias.name)
                else:
                    modules.add(local)
        for name, node in nodes.items():
            graph["%s.%s" % (module, name)] = set(
                reads(node, names, modules))
    return graph


def closure(graph, starts):
    """Every name that starts reach in graph, starts included."""
    seen, todo = set(), list(starts)
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo.extend(graph.get(name, ()))
    return seen


def crossings(graph, engines, oracles):
    """The names that the closures of engines and of oracles both reach,
    but torus.check_pair and the errors classes."""
    allowed = {"torus.check_pair"} | {
        name for name in graph if name.startswith("errors.")}
    return sorted(closure(graph, engines) & closure(graph, oracles)
                  - allowed)


SYNTHETIC = {
    "errors": "class InputError(ValueError):\n    pass\n",
    "torus": ("from .errors import InputError\n"
              "def check_pair(p):\n    raise InputError(p)\n"
              "def sigma_rec(p):\n    return check_pair(p)\n"),
    "oracle": ("from . import torus\n"
               "from .torus import check_pair, sigma_rec as rec\n"
               "def direct(p):\n    return rec(p)\n"
               "def dotted(p):\n    return torus.sigma_rec(p)\n"
               "def helper(p):\n    return _helper(p)\n"
               "def _helper(p):\n    return check_pair(p) and rec(p)\n"
               "def tabled(p):\n    return TABLE[0](p)\n"
               "TABLE = [dotted]\n"
               "def lazy(p):\n    from .torus import sigma_rec\n"
               "    return sigma_rec(p)\n"
               "def clean(p):\n    return check_pair(p)\n"),
}


@pytest.mark.parametrize("oracle, found", [
    ("oracle.direct", ["torus.sigma_rec"]),
    ("oracle.dotted", ["torus.sigma_rec"]),
    ("oracle.helper", ["torus.sigma_rec"]),
    ("oracle.tabled", ["torus.sigma_rec"]),
    ("oracle.lazy", ["torus.sigma_rec"]),
    ("oracle.clean", []),
])
def test_guard_catches_every_form(oracle, found):
    graph = call_graph(SYNTHETIC)
    assert crossings(graph, ["torus.sigma_rec"], [oracle]) == found


def package_graph():
    sources = {path.stem: path.read_text()
               for path in sorted(PACKAGE.glob("*.py"))}
    sources["oracles"] = (Path(__file__).parent / "oracles.py").read_text()
    return call_graph(sources)


@pytest.mark.parametrize("quantity", PAIRS)
def test_engine_and_oracles_share_no_code(quantity):
    engines, oracles = PAIRS[quantity]
    graph = package_graph()
    # A renamed function must fail here, not pass with an empty closure.
    assert [name for name in engines + oracles if name not in graph] == []
    assert crossings(graph, engines, oracles) == []
