"""Generalized polynomials: certified evaluation with floor/nearest nodes,
digit systems (base, mixed-radix, Zeckendorf), automatic functions via
finite automata with output, return-time sets, Weyl-sum diagnostics, and
generating-function fitting.  Each public name imports its submodule on
first access."""

from .. import lazy_getattr

_EXPORTS = {
    "analysis": ("empirical_sym_degree", "return_times", "weyl_sum"),
    "dfao": ("Dfao", "dfao_eval", "digit_sum_dfao", "identity_dfao", "validate_bijective"),
    "digits": ("DigitSystem", "base_change", "digit_map", "zeckendorf_indices"),
    "expr": ("GPExpr", "eval_exact", "eval_interval", "parse_gpexpr"),
    "fitting": ("fit_generating_function",),
    "reals": ("Interval", "RealConst"),
}

__all__ = sorted(name for names in _EXPORTS.values() for name in names)

__getattr__ = lazy_getattr(__name__, _EXPORTS)
