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

__version__ = "0.1.0"

_SUBPACKAGES = (
    "arrow", "discalc", "errors", "folup", "genpoly", "largeness", "semigroup", "setfam",
)

__all__ = ["__version__", *_SUBPACKAGES]


def __getattr__(name):
    """Import a subpackage on first access (PEP 562), so that a program
    loads only the layers it uses."""
    if name in _SUBPACKAGES:
        return importlib.import_module("." + name, __name__)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
