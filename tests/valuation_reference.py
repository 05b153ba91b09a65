"""The p-adic valuation of a rational: the tests' reference.

The library takes valuations of integers only (``exactnum.vp_int``); the
tests compare its slacks and totals with the valuation of an exact rational,
which this module gives.
"""

from fractions import Fraction

from padicelim.exactnum import check_prime, vp_int


def vp(q: Fraction | int, p: int) -> int:
    """p-adic valuation of a nonzero rational: vp(num) - vp(den)."""
    check_prime(p)
    q = Fraction(q)
    if q == 0:
        raise ValueError("vp(0) is undefined: 0 has valuation +infinity")
    return vp_int(q.numerator, p) - vp_int(q.denominator, p)
