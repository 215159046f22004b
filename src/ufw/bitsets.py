"""Small-subset helpers shared across modules.

Subsets of {0..n-1} travel as machine-word masks internally and as sorted
index lists at I/O boundaries.  Subset scan order, where it matters for
deterministic witnesses, is lexicographic on the sorted index tuples.
"""

from functools import lru_cache


def mask_of(indices):
    """Pack an iterable of element indices into a bitmask."""
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def indices_of(mask):
    """Unpack a bitmask into the sorted tuple of element indices."""
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


@lru_cache(maxsize=None)
def subsets_lex(n):
    """All subsets of {0..n-1} as masks, ordered lexicographically by their
    sorted index tuples (the documented witness scan order)."""
    masks = list(range(1 << n))
    masks.sort(key=indices_of)
    return tuple(masks)
