"""Every public function and class in ``src/ufw`` has a caller that is not
its own unit test.

A top-level name is reached when another ``src`` module, a benchmark module
in ``perfbench/`` or the acceptance tests name it in code, or when its own
module names it at top level or inside a name that is reached.  The
lazy-export tables in the package ``__init__.py`` files list every export
as a string, so they are not read: they would make every name look reached.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ufw"


def _names_used(nodes):
    """Identifiers named in code: variables, attributes and imported
    names, but not the contents of strings."""
    used = set()
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name.rsplit(".", 1)[-1])
    return used


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _unreached(tree, used_elsewhere):
    """The public top-level functions and classes of ``tree`` that nothing
    reaches, given the names other code uses."""
    kinds = (ast.FunctionDef, ast.ClassDef)
    defs = {node.name: node for node in tree.body if isinstance(node, kinds)}
    top_level = [node for node in tree.body if not isinstance(node, kinds)]
    reached = set()
    frontier = (used_elsewhere | _names_used(top_level)) & defs.keys()
    while frontier:
        reached |= frontier
        frontier = _names_used(defs[name] for name in frontier) & defs.keys() - reached
    return sorted(name for name in defs.keys() - reached if not name.startswith("_"))


def test_every_public_name_has_a_caller_outside_the_unit_tests():
    trees = {p: _parse(p) for p in sorted(SRC.rglob("*.py")) if p.name != "__init__.py"}
    used = {path: _names_used([tree]) for path, tree in trees.items()}
    callers = [*sorted((ROOT / "perfbench").glob("*.py")), ROOT / "tests" / "test_acceptance.py"]
    outside = _names_used([_parse(path) for path in callers])
    unreached = []
    for path, tree in trees.items():
        elsewhere = outside.union(*(names for other, names in used.items() if other != path))
        module = path.relative_to(SRC).with_suffix("").as_posix().replace("/", ".")
        unreached += ["%s: %s" % (module, name) for name in _unreached(tree, elsewhere)]
    assert not unreached, "public names only the unit tests call:\n  " + "\n  ".join(unreached)
