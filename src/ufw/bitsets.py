"""Small-subset helpers shared across modules.

Subsets of {0..n-1} travel as machine-word masks internally and as sorted
index lists at I/O boundaries.  Subset scan order, where it matters for
deterministic witnesses, is lexicographic on the sorted index tuples.
"""

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
