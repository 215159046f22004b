"""Shared exception types.

Every error that carries a mathematical witness stores it on the exception so
callers (and the CLI) can report the exact violating instance.
"""


class UfwError(Exception):
    """Base class for all package errors."""


class CapExceeded(UfwError):
    """An exhaustive enumeration would exceed its configured size cap."""


class IndexOutOfRange(UfwError, IndexError):
    """An element or subset referenced an index outside the ground set."""


class WitnessError(UfwError):
    """A failed property check; ``witness`` is the violating instance."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NotFIP(WitnessError):
    """Family lacks the finite intersection property.

    ``witness`` is the offending sub-family (tuple of sorted index tuples).
    """


class NotUltrafilter(WitnessError):
    pass


class NotAssociative(WitnessError):
    """Cayley table fails associativity; ``witness`` is the first bad triple."""


class NotCommutative(WitnessError):
    pass


class NotIdempotent(UfwError):
    """``which`` names the offending element."""

    def __init__(self, message, which=None):
        super().__init__(message)
        self.which = which


class PrecisionExhausted(UfwError):
    """A floor/nearest decision could not be certified at the precision cap.

    ``interval`` is the final (lo, hi) rational interval that still straddles
    the decision boundary, or the value's interval when it is not a point;
    ``node`` is the index of that step in the expression's program (the last
    step for a value that is not a point).
    """

    def __init__(self, message, node=None, interval=None):
        super().__init__(message)
        self.node = node
        self.interval = interval


class BudgetExhausted(UfwError):
    """A witness search hit its node or time budget before deciding.

    Distinguished from a proven-absent answer, which is exhaustive.
    ``nodes`` is the number of search nodes expanded.
    """

    def __init__(self, message, nodes=None):
        super().__init__(message)
        self.nodes = nodes


class Underdetermined(UfwError):
    """Too few generators for the requested fitting degree."""


class ParseError(UfwError):
    """Syntax error; ``position`` is a 0-based offset into the input text."""

    def __init__(self, message, position=None):
        super().__init__(message)
        self.position = position


class ArityMismatch(UfwError):
    """A symbol was used with the wrong number of arguments."""


class NotStrictOrder(UfwError):
    """An aggregation rule produced a non-total-order outcome.

    ``profile_index`` identifies the offending profile.
    """

    def __init__(self, message, profile_index=None):
        super().__init__(message)
        self.profile_index = profile_index
