"""Exact rationals mixed with logarithm terms, compared by outward intervals.

Bound expressions are a rational part plus rational multiples of log2(q) and
ln(q) for positive rational q. Powers of two fold into the rational part, so
exact comparisons stay exact; everything else is certified by interval
arithmetic with escalating precision (64 to 16384 bits). A comparison never
returns an uncertified verdict.

An enclosure is an outward (lo, hi) pair of raw mpf values made with
mpmath's low-level kernel, ``mpmath.libmp``: each rational is rounded down
and up, and logarithms, products and sums round outward. No mpmath context
is used, so no global precision is read or set. Each bound memoizes its
enclosures per precision, so comparing it with several rationals and then
rounding it up builds each enclosure once; the memo takes no part in
``==``, ``hash`` or ``repr``. mpmath is imported on first interval use, so
building and adding bounds, and exact comparisons, never load it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from operator import itemgetter
from typing import Iterable

from .errors import CertificationError, DomainError

_START_PREC = 64
_MAX_PREC = 16384
# upper_rational reads the 128-bit enclosure and scales it by 10**digits,
# itself rounded outward, at 53 bits; finer scaling changes its digits.
_UPPER_PREC = 128
_SCALE_PREC = 53

Terms = tuple[tuple[Fraction, Fraction], ...]  # (coefficient, argument)


def _pow2_exponent(q: Fraction) -> int | None:
    """t with q == 2**t, or None; q > 0."""
    num, den = q.numerator, q.denominator
    if num == 1 and den & (den - 1) == 0:
        return -(den.bit_length() - 1)
    if den == 1 and num & (num - 1) == 0:
        return num.bit_length() - 1
    return None


def _normalize_merge(terms: Iterable[tuple[Fraction, Fraction]], log: str) -> Terms:
    """Terms merged per argument, zero coefficients dropped, by argument."""
    out: list[tuple[Fraction, Fraction]] = []
    for coeff, arg in sorted(terms, key=itemgetter(1)):
        if arg.numerator <= 0:  # a rational's sign is its numerator's
            raise DomainError(f"{log} needs a positive argument, got {arg}")
        if out and out[-1][1] == arg:
            coeff += out.pop()[0]
        if coeff:
            out.append((coeff, arg))
    return tuple(out)


def _rational(q: Fraction, prec: int) -> tuple:
    """Outward enclosure of a rational at ``prec`` bits; integers are exact."""
    import mpmath.libmp as libmp

    p, d = q.numerator, q.denominator
    if d == 1:
        x = libmp.from_int(p)
        return x, x
    return (
        libmp.from_rational(p, d, prec, libmp.round_floor),
        libmp.from_rational(p, d, prec, libmp.round_ceiling),
    )


def _log_sum(terms: Terms, prec: int) -> tuple:
    """Outward enclosure of the sum of coeff * ln(arg)."""
    import mpmath.libmp as libmp

    acc = (libmp.fzero, libmp.fzero)
    for coeff, arg in terms:
        log = libmp.mpi_log(_rational(arg, prec), prec)
        acc = libmp.mpi_add(acc, libmp.mpi_mul(_rational(coeff, prec), log, prec), prec)
    return acc


def _enclose(bound: "LogBound", prec: int) -> tuple:
    """Outward (lo, hi) enclosure of a bound's value at ``prec`` bits."""
    import mpmath.libmp as libmp

    acc = _rational(bound.exact, prec)
    if bound.log2_terms:
        ln2 = (
            libmp.mpf_ln2(prec, libmp.round_floor),
            libmp.mpf_ln2(prec, libmp.round_ceiling),
        )
        logs = libmp.mpi_div(_log_sum(bound.log2_terms, prec), ln2, prec)
        acc = libmp.mpi_add(acc, logs, prec)
    if bound.ln_terms:
        acc = libmp.mpi_add(acc, _log_sum(bound.ln_terms, prec), prec)
    return acc


@dataclass(frozen=True)
class LogBound:
    exact: Fraction = Fraction(0)
    log2_terms: Terms = ()
    ln_terms: Terms = ()
    _enclosures: dict = field(
        default_factory=dict, init=False, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        """Bring the terms to normal form: one term per argument, no zero
        coefficient, powers of two in log2 and 1 in ln folded into ``exact``.
        So a bound whose log terms vanish is exact and equals ``LogBound.of``
        of its value, however it was built. A non-positive argument raises
        DomainError."""
        if self.log2_terms == () == self.ln_terms:
            return  # no terms (a list, even empty, is turned into a tuple)
        exact = self.exact
        log2_terms = []
        for coeff, arg in _normalize_merge(self.log2_terms, "log2"):
            t = _pow2_exponent(arg)
            if t is None:
                log2_terms.append((coeff, arg))
            else:
                exact += coeff * t
        ln_terms = tuple(
            (coeff, arg)
            for coeff, arg in _normalize_merge(self.ln_terms, "ln")
            if arg != 1
        )
        object.__setattr__(self, "exact", exact)
        object.__setattr__(self, "log2_terms", tuple(log2_terms))
        object.__setattr__(self, "ln_terms", ln_terms)

    @staticmethod
    def of(value: Fraction | int) -> "LogBound":
        return LogBound(Fraction(value))

    @staticmethod
    def log2(arg: Fraction | int, coeff: Fraction | int = 1) -> "LogBound":
        return LogBound(Fraction(0), ((Fraction(coeff), Fraction(arg)),))

    @staticmethod
    def ln(arg: Fraction | int, coeff: Fraction | int = 1) -> "LogBound":
        return LogBound(Fraction(0), (), ((Fraction(coeff), Fraction(arg)),))

    @property
    def is_exact(self) -> bool:
        return not self.log2_terms and not self.ln_terms

    def __add__(self, other: "LogBound | Fraction | int") -> "LogBound":
        if not isinstance(other, LogBound):
            other = LogBound.of(other)
        return LogBound(
            self.exact + other.exact,
            self.log2_terms + other.log2_terms,
            self.ln_terms + other.ln_terms,
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
            tuple((c * factor, a) for c, a in self.log2_terms),
            tuple((c * factor, a) for c, a in self.ln_terms),
        )

    # -- certified comparisons ------------------------------------------

    def _interval(self, prec: int) -> tuple:
        """Outward (lo, hi) enclosure at ``prec`` bits, built once per precision."""
        box = self._enclosures.get(prec)
        if box is None:
            box = self._enclosures[prec] = _enclose(self, prec)
        return box

    def _certify(self, q: Fraction) -> int:
        """Certified sign of self - q for non-exact self, without building it."""
        from mpmath.libmp import mpf_cmp

        prec = _START_PREC
        while prec <= _MAX_PREC:
            lo, hi = self._interval(prec)
            q_lo, q_hi = _rational(q, prec)
            if mpf_cmp(lo, q_hi) > 0:
                return 1
            if mpf_cmp(hi, q_lo) < 0:
                return -1
            prec *= 2
        raise CertificationError(f"cannot certify the sign of {self - q!r}")

    def sign(self) -> int:
        """Certified sign; zero only for symbolically exact zero."""
        if self.is_exact:
            return (self.exact > 0) - (self.exact < 0)
        return self._certify(Fraction(0))

    def compare(self, other: "LogBound | Fraction | int") -> int:
        if isinstance(other, LogBound):
            if not other.is_exact:
                return (self - other).sign()
            other = other.exact
        q = Fraction(other)
        if self.is_exact:
            return (self.exact > q) - (self.exact < q)
        return self._certify(q)

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
        from mpmath.libmp import from_int, mpi_mul, round_ceiling, round_floor, to_int

        scale = 10**digits
        scale_box = (
            from_int(scale, _SCALE_PREC, round_floor),
            from_int(scale, _SCALE_PREC, round_ceiling),
        )
        _, hi = mpi_mul(self._interval(_UPPER_PREC), scale_box, _SCALE_PREC)
        return Fraction(to_int(hi, round_ceiling), scale)

    def __repr__(self) -> str:
        parts = [str(self.exact)]
        parts.extend(f"{c}*log2({a})" for c, a in self.log2_terms)
        parts.extend(f"{c}*ln({a})" for c, a in self.ln_terms)
        return " + ".join(parts)
