"""ufw — exhaustively verified finite combinatorics.

Subpackages:
  setfam     set families, filters, ultrafilters on finite grounds
  semigroup  finite Cayley tables, ideals, kernels, ultrafilter products
  largeness  monochromatic-structure searches and threshold numbers
  discalc    exact finite-difference calculus over the rationals
  genpoly    certified interval evaluation, digit systems, automata
  arrow      preference aggregation and the dictatorship analysis
  folup      first-order structures, ultraproducts, transfer checks
"""

import importlib
import sys

__version__ = "0.1.0"

_SUBPACKAGES = (
    "arrow", "discalc", "errors", "folup", "genpoly", "largeness", "semigroup", "setfam",
)

__all__ = ["__version__", *_SUBPACKAGES]


def lazy_getattr(package, exports, submodules=()):
    """A module ``__getattr__`` (PEP 562) for ``package`` that imports a
    submodule on first access to a public name, so that a program loads
    only the modules it uses.  ``exports`` maps a submodule to the names it
    defines, and ``submodules`` lists the submodules that are public names
    themselves.  Loading a submodule binds all its names on the package.
    The import system also binds each submodule on its package under its
    own name, so no submodule is named like a name in ``exports``."""
    homes = {name: home for home, names in exports.items() for name in names}
    homes.update((name, None) for name in submodules)

    def __getattr__(name):
        if name not in homes:
            raise AttributeError("module %r has no attribute %r" % (package, name))
        home = homes[name]
        if home is None:
            return importlib.import_module("." + name, package)
        module = importlib.import_module("." + home, package)
        namespace = vars(sys.modules[package])
        for export in exports[home]:
            namespace[export] = getattr(module, export)
        return namespace[name]

    return __getattr__


__getattr__ = lazy_getattr(__name__, {}, _SUBPACKAGES)
