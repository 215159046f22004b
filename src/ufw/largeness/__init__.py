"""Monochromatic-structure searches and threshold numbers (``search``), and
the independent witness checkers (``checkers``).  Each public name imports
its submodule on first access, so the checkers load without the searches."""

from .. import lazy_getattr

_EXPORTS = {
    "search": (
        "APWitness", "EdgeColoring", "FSWitness", "IntervalColoring", "LineWitness",
        "ThresholdResult", "WordColoring", "coloring_from_index", "edge_list",
        "find_mono_ap", "find_mono_clique", "find_mono_fs", "find_mono_line",
        "first_uncovered_coloring", "fs_multiple_window", "ipstar_probe", "pattern_configs",
        "threshold_number", "universal_check",
    ),
}

__all__ = sorted([*_EXPORTS["search"], "checkers"])

__getattr__ = lazy_getattr(__name__, _EXPORTS, ("checkers",))
