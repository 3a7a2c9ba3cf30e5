"""Exact rationals mixed with logarithm terms, compared by outward intervals.

Bound expressions are a rational part plus rational multiples of log2(q) and
ln(q) for positive rational q. Powers of two fold into the rational part, so
exact comparisons stay exact; everything else is certified by interval
arithmetic with escalating precision. A comparison never returns an
uncertified verdict. mpmath is imported by the methods that do interval
arithmetic, so building and adding bounds, and exact comparisons, never
load it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import CertificationError, DomainError

_MAX_PREC = 16384

Terms = tuple[tuple[Fraction, Fraction], ...]  # (coefficient, argument)


def _pow2_exponent(q: Fraction) -> int | None:
    """t with q == 2**t, or None."""
    if q <= 0:
        return None
    num, den = q.numerator, q.denominator
    if num == 1 and den & (den - 1) == 0:
        return -(den.bit_length() - 1)
    if den == 1 and num & (num - 1) == 0:
        return num.bit_length() - 1
    return None


def _normalize_merge(terms: Iterable[tuple[Fraction, Fraction]]) -> Terms:
    acc: dict[Fraction, Fraction] = {}
    for coeff, arg in terms:
        if coeff:
            acc[arg] = acc.get(arg, Fraction(0)) + coeff
    return tuple(sorted(((c, a) for a, c in acc.items() if c), key=lambda t: t[1]))


@dataclass(frozen=True)
class LogBound:
    exact: Fraction = Fraction(0)
    log2_terms: Terms = ()
    ln_terms: Terms = ()

    @staticmethod
    def of(value: Fraction | int) -> "LogBound":
        return LogBound(Fraction(value))

    @staticmethod
    def log2(arg: Fraction | int, coeff: Fraction | int = 1) -> "LogBound":
        arg = Fraction(arg)
        coeff = Fraction(coeff)
        if arg <= 0:
            raise DomainError(f"log2 needs a positive argument, got {arg}")
        t = _pow2_exponent(arg)
        if t is not None:
            return LogBound(coeff * t)
        return LogBound(Fraction(0), ((coeff, arg),))

    @staticmethod
    def ln(arg: Fraction | int, coeff: Fraction | int = 1) -> "LogBound":
        arg = Fraction(arg)
        coeff = Fraction(coeff)
        if arg <= 0:
            raise DomainError(f"ln needs a positive argument, got {arg}")
        if arg == 1 or coeff == 0:
            return LogBound(Fraction(0))
        return LogBound(Fraction(0), (), ((coeff, arg),))

    @property
    def is_exact(self) -> bool:
        return not self.log2_terms and not self.ln_terms

    def __add__(self, other: "LogBound | Fraction | int") -> "LogBound":
        if not isinstance(other, LogBound):
            other = LogBound.of(other)
        return LogBound(
            self.exact + other.exact,
            _normalize_merge(self.log2_terms + other.log2_terms),
            _normalize_merge(self.ln_terms + other.ln_terms),
        )

    __radd__ = __add__

    def __neg__(self) -> "LogBound":
        return LogBound(
            -self.exact,
            tuple((-c, a) for c, a in self.log2_terms),
            tuple((-c, a) for c, a in self.ln_terms),
        )

    def __sub__(self, other: "LogBound | Fraction | int") -> "LogBound":
        if not isinstance(other, LogBound):
            other = LogBound.of(other)
        return self + (-other)

    def scaled(self, factor: Fraction | int) -> "LogBound":
        factor = Fraction(factor)
        return LogBound(
            self.exact * factor,
            _normalize_merge((c * factor, a) for c, a in self.log2_terms),
            _normalize_merge((c * factor, a) for c, a in self.ln_terms),
        )

    # -- certified comparisons ------------------------------------------

    def _interval(self, prec: int):
        from mpmath import iv

        saved = iv.prec
        try:
            iv.prec = prec
            def q(x: Fraction):
                return iv.mpf(x.numerator) / iv.mpf(x.denominator)
            acc = q(self.exact)
            if self.log2_terms:
                ln2 = iv.log(iv.mpf(2))
                for coeff, arg in self.log2_terms:
                    acc += q(coeff) * iv.log(q(arg)) / ln2
            for coeff, arg in self.ln_terms:
                acc += q(coeff) * iv.log(q(arg))
            return acc
        finally:
            iv.prec = saved

    def sign(self) -> int:
        """Certified sign; zero only for symbolically exact zero."""
        if self.is_exact:
            return (self.exact > 0) - (self.exact < 0)
        from mpmath.libmp import fzero, mpf_cmp

        prec = 64
        while prec <= _MAX_PREC:
            box = self._interval(prec)
            lo, hi = box._mpi_
            if mpf_cmp(lo, fzero) > 0:
                return 1
            if mpf_cmp(hi, fzero) < 0:
                return -1
            prec *= 2
        raise CertificationError(f"cannot certify the sign of {self!r}")

    def compare(self, other: "LogBound | Fraction | int") -> int:
        if not isinstance(other, LogBound):
            other = LogBound.of(other)
        return (self - other).sign()

    def __lt__(self, other) -> bool:
        return self.compare(other) < 0

    def __le__(self, other) -> bool:
        return self.compare(other) <= 0

    def __gt__(self, other) -> bool:
        return self.compare(other) > 0

    def __ge__(self, other) -> bool:
        return self.compare(other) >= 0

    def upper_rational(self, digits: int = 6) -> Fraction:
        """A certified rational upper bound, rounded outward to 10^-digits."""
        if self.is_exact:
            return self.exact
        import mpmath
        from mpmath import iv

        box = self._interval(128)
        scale = 10**digits
        scaled = box * iv.mpf(scale)
        hi = mpmath.mpf(0)
        hi._mpf_ = scaled._mpi_[1]
        return Fraction(int(mpmath.ceil(hi)), scale)

    def __repr__(self) -> str:
        parts = [str(self.exact)]
        parts.extend(f"{c}*log2({a})" for c, a in self.log2_terms)
        parts.extend(f"{c}*ln({a})" for c, a in self.ln_terms)
        return " + ".join(parts)
