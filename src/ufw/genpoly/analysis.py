"""Finite diagnostics for generalized polynomials: certified return-time
sets and (explicitly non-certified) Weyl-sum magnitudes."""

from fractions import Fraction

from ..errors import PrecisionExhausted
from .expr import DEFAULT_CAP_BITS, DEFAULT_START_BITS, eval_triple, precision_schedule


def return_times(expr, eps, N, start_bits=DEFAULT_START_BITS):
    """A_ε = {n ∈ [1..N] : dist(g(n), ℤ) < ε}, decided by certified interval
    comparison from ``start_bits`` up to DEFAULT_CAP_BITS; undecidable n
    (at that cap) land in ``ambiguous``.

    With ε = p/q and g(n) in [lo/den, hi/den], n is a member when the
    interval lies inside (k − ε, k + ε) for the integer k nearest its
    midpoint, and not one when it lies inside [k + ε, k + 1 − ε] for
    k = ⌊lo/den⌋, the only cell that can hold it; both tests run on ints.
    """
    eps = Fraction(eps)
    if not 0 < eps < Fraction(1, 2):
        raise ValueError("eps must lie in (0, 1/2)")
    p, q = eps.numerator, eps.denominator
    members = []
    ambiguous = []
    schedule = precision_schedule(start_bits, DEFAULT_CAP_BITS)
    for n in range(1, N + 1):
        for bits in schedule:
            try:
                lo, hi, den = eval_triple(expr, n, bits)
            except PrecisionExhausted:
                continue
            lo_q, hi_q = lo * q, hi * q
            k = (lo + hi + den) // (2 * den)
            if (k * q - p) * den < lo_q and hi_q < (k * q + p) * den:
                members.append(n)
                break
            k = lo // den
            if lo_q >= (k * q + p) * den and hi_q <= ((k + 1) * q - p) * den:
                break
        else:
            ambiguous.append(n)
    return members, ambiguous


def weyl_sum(alphas, ks, N):
    """|S_N| = |(1/N) Σ_{n=1..N} e^{2πi (k·α) n}|.

    Floating-point diagnostic — explicitly NOT certified.  The one exact
    special case: when k·α is an exact rational integer the summand is
    constantly 1 and the magnitude is returned as exactly 1.0.
    """
    if N < 1:
        raise ValueError("N must be at least 1")
    if all(k == 0 for k in ks):
        raise ValueError("k must be non-zero")
    if len(alphas) != len(ks):
        raise ValueError("alphas and ks must have equal length")
    if all(a.kind == "rational" for a in alphas):
        theta = sum(Fraction(k) * a.payload[0] for k, a in zip(ks, alphas))
        if theta.denominator == 1:
            return 1.0
        theta_f = float(theta)
    else:
        theta_f = 0.0
        for k, a in zip(ks, alphas):
            iv = a.bracket(64)
            theta_f += k * float((iv.lo + iv.hi) / 2)
    import numpy as np  # the package's only numpy use, so loaded here

    n = np.arange(1, N + 1, dtype=np.float64)
    s = np.exp(2j * np.pi * theta_f * n).sum() / N
    return float(abs(s))
