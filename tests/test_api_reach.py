"""Every public function, class, method and property in ``src/ufw`` has a
caller that is not its own unit test.

A top-level name is reached when another ``src`` module, a benchmark module
in ``perfbench/`` or the acceptance tests name it in code, or when its own
module names it at top level or inside a name that is reached.  The
lazy-export tables in the package ``__init__.py`` files list every export
as a string, so they are not read: they would make every name look reached.

A public method or property of a ``src`` class is reached when that code
reads it as an attribute anywhere outside its own body.  An override of a
method its class inherits, such as ``_Parser.error``, is called by the base
class and is exempt.
"""

import ast
import importlib
from collections import Counter
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


def _callers():
    return [*sorted((ROOT / "perfbench").glob("*.py")), ROOT / "tests" / "test_acceptance.py"]


def _attributes_read(nodes):
    """How often each attribute name is read in code."""
    return Counter(
        node.attr for top in nodes for node in ast.walk(top) if isinstance(node, ast.Attribute)
    )


def test_every_public_name_has_a_caller_outside_the_unit_tests():
    trees = {p: _parse(p) for p in sorted(SRC.rglob("*.py")) if p.name != "__init__.py"}
    used = {path: _names_used([tree]) for path, tree in trees.items()}
    outside = _names_used([_parse(path) for path in _callers()])
    unreached = []
    for path, tree in trees.items():
        elsewhere = outside.union(*(names for other, names in used.items() if other != path))
        module = path.relative_to(SRC).with_suffix("").as_posix().replace("/", ".")
        unreached += ["%s: %s" % (module, name) for name in _unreached(tree, elsewhere)]
    assert not unreached, "public names only the unit tests call:\n  " + "\n  ".join(unreached)


def test_every_public_method_has_a_caller_outside_the_unit_tests():
    trees = {p: _parse(p) for p in sorted(SRC.rglob("*.py"))}
    reads = _attributes_read([*trees.values(), *map(_parse, _callers())])
    unreached = []
    for path, tree in trees.items():
        name = "ufw." + path.relative_to(SRC).with_suffix("").as_posix().replace("/", ".")
        module = importlib.import_module(name.removesuffix(".__init__"))
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            bases = getattr(module, cls.name).__mro__[1:]
            for fn in cls.body:
                if not isinstance(fn, ast.FunctionDef) or fn.name.startswith("_"):
                    continue
                if any(fn.name in vars(base) for base in bases):
                    continue
                if reads[fn.name] == _attributes_read([fn])[fn.name]:
                    unreached.append("%s: %s.%s" % (module.__name__, cls.name, fn.name))
    assert not unreached, "public methods only the unit tests call:\n  " + "\n  ".join(unreached)
