"""Generalized polynomials: certified evaluation with floor/nearest nodes,
digit systems (base, mixed-radix, Zeckendorf), automatic functions via
finite automata with output, return-time sets, Weyl-sum magnitudes read
from their closed form on certified brackets (a float within one unit in
the last place, or PrecisionExhausted), and generating-function fitting.
Each public name imports its submodule on first access."""

from .. import lazy_getattr

_EXPORTS = {
    "analysis": ("return_times", "weyl_sum"),
    "dfao": ("Dfao", "dfao_eval"),
    "digits": ("DigitSystem", "base_change", "digit_map"),
    "expr": ("eval_exact", "parse_gpexpr"),
    "fitting": ("fit_generating_function",),
    "reals": ("Interval", "RealConst"),
}

__all__ = sorted(name for names in _EXPORTS.values() for name in names)

__getattr__ = lazy_getattr(__name__, _EXPORTS)
