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

An optional parameter of any ``src`` function or method, private ones
included, is passed when a call from that same code gives it a value.
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


def _module(path):
    name = "ufw." + path.relative_to(SRC).with_suffix("").as_posix().replace("/", ".")
    return importlib.import_module(name.removesuffix(".__init__"))


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
        module = _module(path)
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


def _calls(tree):
    """(callee name, call) for each call in ``tree``.  A callee is named by
    its last identifier, and ``cls(...)`` inside a class names that class."""
    found = []

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                found.append((cls if name == "cls" and cls else name, child))
            visit(child, child.name if isinstance(child, ast.ClassDef) else cls)

    visit(tree, None)
    return found


def _functions(tree, module, classes):
    """(callee names, leading parameters a call does not pass, function,
    qualified name) for each function in ``tree``.  A method skips its
    ``self`` or ``cls``, and an ``__init__`` is named by its class and by
    each of ``classes`` that inherits it."""
    found = []

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                static = any(getattr(d, "id", None) == "staticmethod" for d in child.decorator_list)
                names = {child.name}
                if cls and child.name == "__init__":
                    init = vars(getattr(module, cls))["__init__"]
                    names = {c.__name__ for c in classes if c.__init__ is init}
                qualname = "%s.%s" % (cls, child.name) if cls else child.name
                found.append((names, 1 if cls and not static else 0, child, qualname))
            visit(child, child.name if isinstance(child, ast.ClassDef) and node is tree else None)

    visit(tree, None)
    return found


def _optional(fn):
    """The parameters of ``fn`` that have a default."""
    args = fn.args
    positional = [*args.posonlyargs, *args.args]
    return positional[len(positional) - len(args.defaults):] + [
        a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
    ]


def _passed(call, skip, fn):
    """The parameter names of ``fn`` that ``call`` passes."""
    if any(isinstance(a, ast.Starred) for a in call.args) or any(
        k.arg is None for k in call.keywords
    ):
        return {a.arg for a in ast.walk(fn.args) if isinstance(a, ast.arg)}
    positional = [*fn.args.posonlyargs, *fn.args.args][skip:]
    return {a.arg for a in positional[: len(call.args)]} | {k.arg for k in call.keywords}


def test_every_optional_parameter_is_passed_outside_the_unit_tests():
    # A parameter is passed when a call in src, perfbench or the acceptance
    # tests names it, reaches it by position, or spreads * or ** arguments.
    # Callees are matched by name; a call inside the function's own body,
    # as in a recursion, does not count.
    trees = {p: _parse(p) for p in sorted(SRC.rglob("*.py"))}
    modules = {path: _module(path) for path in trees}
    classes = {
        c for m in modules.values() for c in vars(m).values()
        if isinstance(c, type) and c.__module__.startswith("ufw")
    }
    calls = [call for tree in [*trees.values(), *map(_parse, _callers())] for call in _calls(tree)]
    unpassed = set()
    for path, tree in trees.items():
        for names, skip, fn, qualname in _functions(tree, modules[path], classes):
            optional = _optional(fn)
            if not optional:
                continue
            inside = {id(node) for node in ast.walk(fn)}
            passed = set().union(*(
                _passed(call, skip, fn)
                for name, call in calls
                if name in names and id(call) not in inside
            ))
            where = "%s: %s" % (modules[path].__name__, qualname)
            unpassed |= {"%s(%s=)" % (where, a.arg) for a in optional if a.arg not in passed}
    assert not unpassed, "optional parameters only the unit tests pass:\n  " + "\n  ".join(
        sorted(unpassed)
    )
