"""Mini first-order logic over finite structures: parsing, Tarskian
evaluation, ultraproducts over finite index sets, fundamental-theorem
(transfer) checking, and normalization of non-normal models."""

from .semantics import Structure, eval_formula, normalize
from .sweep import exhaustive_transfer_sweep
from .syntax import (
    Signature,
    formula_vars,
    free_vars,
    generate_formulas,
    parse_formula,
    print_formula,
    print_term,
)
from .ultraproduct import UltraproductSpec, los_check, ultraproduct

__all__ = [
    "Signature",
    "Structure",
    "UltraproductSpec",
    "eval_formula",
    "exhaustive_transfer_sweep",
    "formula_vars",
    "free_vars",
    "generate_formulas",
    "los_check",
    "normalize",
    "parse_formula",
    "print_formula",
    "print_term",
    "ultraproduct",
]
