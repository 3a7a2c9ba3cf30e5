"""Exact rationals mixed with logarithm terms, compared by outward intervals.

Bound expressions are a rational part plus rational multiples of log2(q) and
ln(q) for positive rational q. Powers of two fold into the rational part, so
exact comparisons stay exact; everything else is certified by interval
arithmetic with escalating precision (128 to 16384 bits). A comparison never
returns an uncertified verdict.

An enclosure at p bits is a pair of ints (lo, hi) with
lo * 2**-p <= value <= hi * 2**-p. Rationals are enclosed by floor and
ceiling division; each logarithm comes from ``mpmath.libmp.mpf_log`` rounded
down and up, and ln 2 from ``mpf_ln2``, so mpmath's correctly rounded kernel
is the only floating-point part. Products with the coefficients, sums and the
division by ln 2 are integer floor and ceiling operations. No mpmath context
is used, so no global precision is read or set. A comparison with a rational
n/d is an exact cross-multiplication, ``lo * d > n << p``. Each bound
memoizes its enclosures per precision, so comparing it with several
rationals and then rounding it up builds one enclosure; the memo takes no
part in ``==``, ``hash`` or ``repr``. mpmath is imported on first interval
use, so building and adding bounds, and exact comparisons, never load it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from operator import itemgetter
from typing import Iterable

from .errors import CertificationError, DomainError

# Certification starts at the precision upper_rational reads, so a bound
# that is compared and then rounded builds one enclosure.
_MIN_PREC = 128
_MAX_PREC = 16384
# Enclosures are built this many bits finer and rounded outward at the end,
# so each is at most two units of 2**-p wide.
_GUARD = 32
# upper_rational scales the 128-bit upper end by 10**digits, itself rounded
# outward, at 53 bits; finer scaling changes its digits.
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


def _ceil_div(num: int, den: int) -> int:
    return -(-num // den)


def _round_up(v: int, bits: int) -> int:
    """v rounded toward +infinity to ``bits`` significant bits."""
    shift = abs(v).bit_length() - bits
    if shift <= 0:
        return v
    return -((-v >> shift) << shift)


def _log_sum(terms: Terms, logs: dict) -> tuple[int, int]:
    """Enclosure of the sum of coeff * ln(arg), at the scale of ``logs``."""
    lo = hi = 0
    for coeff, arg in terms:
        a, b = coeff.numerator, coeff.denominator
        ln_lo, ln_hi = logs[arg]
        if a < 0:
            ln_lo, ln_hi = ln_hi, ln_lo
        lo += a * ln_lo // b
        hi += _ceil_div(a * ln_hi, b)
    return lo, hi


_LIBMP: tuple = ()  # mpmath.libmp's kernels, bound by the first enclosure


def _enclose(bound: "LogBound", prec: int) -> tuple[int, int]:
    """(lo, hi) with lo * 2**-prec <= value <= hi * 2**-prec.

    Built at ``_GUARD`` more bits and rounded outward at the end. Each
    distinct argument is enclosed once, so the ln |G| of the Gao-Wang bound
    serves both of its terms.
    """
    global _LIBMP
    if not _LIBMP:
        from mpmath import libmp as m

        _LIBMP = (
            m.from_rational, m.mpf_ln2, m.mpf_log, m.mpf_neg, m.to_fixed,
            m.round_ceiling, m.round_floor,
        )
    from_rational, mpf_ln2, mpf_log, mpf_neg, to_fixed, up, down = _LIBMP
    w = prec + _GUARD

    def outward(lo: tuple, hi: tuple) -> tuple[int, int]:
        """Floor of lo and ceiling of hi, raw mpf values, at ``w`` bits."""
        return to_fixed(lo, w), -to_fixed(mpf_neg(hi), w)

    logs = {}
    for _, arg in bound.log2_terms + bound.ln_terms:
        if arg not in logs:
            p, d = arg.numerator, arg.denominator
            logs[arg] = outward(
                mpf_log(from_rational(p, d, w, down), w, down),
                mpf_log(from_rational(p, d, w, up), w, up),
            )
    p, d = bound.exact.numerator, bound.exact.denominator
    lo, hi = (p << w) // d, _ceil_div(p << w, d)
    if bound.log2_terms:
        ln2_lo, ln2_hi = outward(mpf_ln2(w, down), mpf_ln2(w, up))
        s_lo, s_hi = _log_sum(bound.log2_terms, logs)
        lo += (s_lo << w) // (ln2_hi if s_lo >= 0 else ln2_lo)
        hi += _ceil_div(s_hi << w, ln2_lo if s_hi >= 0 else ln2_hi)
    if bound.ln_terms:
        s_lo, s_hi = _log_sum(bound.ln_terms, logs)
        lo += s_lo
        hi += s_hi
    return lo >> _GUARD, -(-hi >> _GUARD)


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

    def _interval(self, prec: int) -> tuple[int, int]:
        """Fixed-point enclosure at ``prec`` bits, built once per precision."""
        box = self._enclosures.get(prec)
        if box is None:
            box = self._enclosures[prec] = _enclose(self, prec)
        return box

    def _certify(self, q: Fraction) -> int:
        """Certified sign of self - q for non-exact self, without building it."""
        num, den = q.numerator, q.denominator
        prec = _MIN_PREC
        while prec <= _MAX_PREC:
            lo, hi = self._interval(prec)
            if lo * den > num << prec:
                return 1
            if hi * den < num << prec:
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
                if self.is_exact:
                    return -other._certify(self.exact)
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
        _, hi = self._interval(_MIN_PREC)
        scale = 10**digits
        # The upper end of hi * [scale rounded down, up] at _SCALE_PREC bits,
        # rounded up at that precision, then its ceiling.
        if hi > 0:
            factor = _round_up(scale, _SCALE_PREC)
        else:
            factor = -_round_up(-scale, _SCALE_PREC)
        top = _round_up(hi * factor, _SCALE_PREC)
        return Fraction(-(-top >> _MIN_PREC), scale)

    def __repr__(self) -> str:
        parts = [str(self.exact)]
        parts.extend(f"{c}*log2({a})" for c, a in self.log2_terms)
        parts.extend(f"{c}*ln({a})" for c, a in self.ln_terms)
        return " + ".join(parts)
