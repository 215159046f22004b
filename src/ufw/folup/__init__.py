"""Mini first-order logic over finite structures: parsing, Tarskian
evaluation, ultraproducts over finite index sets, fundamental-theorem
(transfer) checking, and normalization of non-normal models.  Each public
name imports its submodule on first access."""

from .. import lazy_getattr

_EXPORTS = {
    "semantics": ("Structure", "eval_formula", "normalize"),
    "sweep": ("exhaustive_transfer_sweep",),
    "syntax": (
        "Signature", "free_vars", "parse_formula", "print_formula", "print_term",
    ),
    "products": ("UltraproductSpec", "los_check", "ultraproduct"),
}

__all__ = sorted(name for names in _EXPORTS.values() for name in names)

__getattr__ = lazy_getattr(__name__, _EXPORTS)
