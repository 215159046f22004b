"""Finite diagnostics for generalized polynomials: certified return-time
sets and Weyl-sum magnitudes, each decided on rational brackets."""

from fractions import Fraction

from ..errors import PrecisionExhausted
from .expr import DEFAULT_CAP_BITS, DEFAULT_START_BITS, eval_triple, precision_schedule
from .reals import Interval, RealConst, sin_pi_bracket


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


def _distance_bracket(lo, hi):
    """Bounds on ‖x‖, the distance from x to the nearest integer, over
    x ∈ [lo, hi]: its least value, and the greatest |x − c| for c the integer
    nearest the midpoint, which is ‖x‖'s greatest when it is at most 1/2."""
    c = round((lo + hi) / 2)
    a, b = lo - c, hi - c
    return (0 if a <= 0 <= b else a if a > 0 else -b), max(-a, b)


def weyl_sum(alphas, ks, N):
    """|S_N| = |(1/N) Σ_{n=1..N} e^{2πiθn}| for θ = Σ kᵢαᵢ, certified.

    The sum is geometric: |S_N| = |sin(πNθ)| / (N·|sin(πθ)|) for θ ∉ ℤ, and
    1 for θ ∈ ℤ.  The constants are bracketed at bits + N.bit_length(), so
    Nθ's bracket is as narrow as θ's at bits; both are reduced mod 1 to
    their distance from the nearest integer, and the sines bracketed by
    sin_pi_bracket.  When θ's bracket holds an integer and lies within w of
    it, |S_N| ∈ [1 − (πNw)²/6, 1] instead, since sin x ≥ x − x³/6 and
    sin x ≤ x; an exact integer θ gives the point 1.

    The precision runs along precision_schedule() until the bracket of |S_N|
    is at most 2^-60 of its upper end wide; the float nearest its midpoint
    is returned, which is within one unit in the last place of |S_N|.  So 0
    is returned only from the point bracket 0, when θ is an exact rational
    with Nθ ∈ ℤ.  A θ that is rational but not given as one (sqrt 8 −
    2·sqrt 2 + 1/4 at N = 4) with Nθ ∈ ℤ keeps a lower end of 0 and raises
    PrecisionExhausted at DEFAULT_CAP_BITS.
    """
    if N < 1:
        raise ValueError("N must be at least 1")
    if all(k == 0 for k in ks):
        raise ValueError("k must be non-zero")
    if len(alphas) != len(ks):
        raise ValueError("alphas and ks must have equal length")
    for bits in precision_schedule():
        theta = Interval.point(0)
        for k, a in zip(ks, alphas):
            theta += Interval.point(k) * a.bracket(bits + N.bit_length())
        near, far = _distance_bracket(theta.lo, theta.hi)
        if near == 0:
            lo, hi = max(0, 1 - (RealConst.pi().bracket(bits).hi * N * far) ** 2 / 6), 1
        else:
            num = sin_pi_bracket(*_distance_bracket(N * theta.lo, N * theta.hi), bits)
            den = sin_pi_bracket(near, far, bits)
            lo, hi = num.lo / (N * den.hi), min(1, num.hi / (N * den.lo))
        if (hi - lo) * (1 << 60) <= hi:
            return float((lo + hi) / 2)
    raise PrecisionExhausted(
        "Weyl sum bracket is wider than 2^-60 of its upper end at the precision cap",
        interval=(lo, hi),
    )
