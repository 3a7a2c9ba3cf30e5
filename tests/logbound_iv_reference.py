"""Reference certification of log bounds through the ``mpmath.iv`` context.

The direct form: every enclosure is an ``iv`` interval built at the
context's precision (set for the call and restored), each rational is the
quotient of its outward-rounded numerator and denominator, and a bound is
compared with another by certifying the sign of their difference. The
library builds fixed-point integer enclosures instead and compares a bound
with a rational by exact cross-multiplication; the tests require both to
give the same verdicts and the same ``upper_rational`` digits.
"""

from __future__ import annotations

from fractions import Fraction

from zerosums.errors import CertificationError
from zerosums.logbounds import LogBound

MAX_PREC = 16384


def interval(bound: LogBound, prec: int):
    from mpmath import iv

    saved = iv.prec
    try:
        iv.prec = prec

        def q(x: Fraction):
            return iv.mpf(x.numerator) / iv.mpf(x.denominator)

        acc = q(bound.exact)
        if bound.log2_terms:
            ln2 = iv.log(iv.mpf(2))
            for coeff, arg in bound.log2_terms:
                acc += q(coeff) * iv.log(q(arg)) / ln2
        for coeff, arg in bound.ln_terms:
            acc += q(coeff) * iv.log(q(arg))
        return acc
    finally:
        iv.prec = saved


def sign(bound: LogBound) -> int:
    """Certified sign; zero only for symbolically exact zero."""
    if bound.is_exact:
        return (bound.exact > 0) - (bound.exact < 0)
    from mpmath.libmp import fzero, mpf_cmp

    prec = 64
    while prec <= MAX_PREC:
        lo, hi = interval(bound, prec)._mpi_
        if mpf_cmp(lo, fzero) > 0:
            return 1
        if mpf_cmp(hi, fzero) < 0:
            return -1
        prec *= 2
    raise CertificationError(f"cannot certify the sign of {bound!r}")


def compare(bound: LogBound, other: LogBound | Fraction | int) -> int:
    if not isinstance(other, LogBound):
        other = LogBound.of(other)
    return sign(bound - other)


def upper_rational(bound: LogBound, digits: int = 6) -> Fraction:
    """Rounded up to 10^-digits; the scaling runs at the caller's iv.prec."""
    if bound.is_exact:
        return bound.exact
    import mpmath
    from mpmath import iv

    box = interval(bound, 128)
    scale = 10**digits
    scaled = box * iv.mpf(scale)
    hi = mpmath.mpf(0)
    hi._mpf_ = scaled._mpi_[1]
    return Fraction(int(mpmath.ceil(hi)), scale)
