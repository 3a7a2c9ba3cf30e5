from collections import Counter
from fractions import Fraction

import pytest

import logbound_iv_reference as reference
from zerosums.errors import (
    CertificationError,
    ConstraintInapplicableError,
    DomainError,
    LemmaNotApplicableError,
)
from zerosums.groups import abelian_groups_up_to, normalize_group
from zerosums.invariants import lowest_order_bound, mainthm2_constraint, upper_bounds
from zerosums.logbounds import LogBound, _enclose


def test_power_of_two_arguments_fold_to_exact():
    assert LogBound.log2(4).exact == 2
    assert LogBound.log2(4).is_exact
    assert LogBound.log2(Fraction(1, 8)).exact == -3
    assert LogBound.log2(1).exact == 0
    assert not LogBound.log2(6).is_exact
    assert LogBound.ln(1).is_exact


def test_rejects_nonpositive_arguments():
    with pytest.raises(DomainError):
        LogBound.log2(0)
    with pytest.raises(DomainError):
        LogBound.ln(Fraction(-1, 2))


def test_arithmetic_merges_terms():
    a = LogBound.log2(3) + LogBound.log2(3)
    assert a.log2_terms == ((Fraction(2), Fraction(3)),)
    assert (LogBound.log2(3) - LogBound.log2(3)).is_exact
    scaled = LogBound.log2(6, Fraction(1, 2)).scaled(2)
    assert scaled.log2_terms == ((Fraction(1), Fraction(6)),)


def test_certified_comparisons():
    # log2(6) is between 2 and 3
    assert LogBound.log2(6) > 2
    assert LogBound.log2(6) < Fraction(13, 5)
    # ln 2 + 1/2 is about 1.193
    gw = LogBound.ln(2) + Fraction(1, 2)
    assert gw > 1
    assert gw < Fraction(6, 5)
    # equality certifies only symbolically
    x = LogBound.log2(6) + Fraction(1, 3)
    assert x.compare(x) == 0


def test_tight_separation_resolved_by_escalation():
    # log2(338)/13 = 0.64622...; compare against close rationals on each side
    v = LogBound.log2(338, Fraction(1, 13))
    below = Fraction(646221495098629563, 10**18)
    above = Fraction(646221495098629564, 10**18)
    assert v > below
    assert v < above


def test_upper_rational_is_certified_upper_bound():
    v = LogBound.ln(2) + Fraction(1, 2)
    up = v.upper_rational(6)
    assert v < up + Fraction(1, 10**6)
    assert v.compare(up) <= 0
    assert LogBound.of(Fraction(3, 7)).upper_rational() == Fraction(3, 7)


def test_zero_coefficient_log_is_exact_zero():
    zero = LogBound.log2(3, 0)
    assert zero.is_exact
    assert zero == LogBound.of(0)
    assert zero.sign() == 0
    assert LogBound.ln(3, 0) == LogBound.of(0)


def test_constructor_normalizes_terms():
    zero = LogBound(Fraction(0), ((Fraction(0), Fraction(3)),))
    assert zero.is_exact
    assert zero == LogBound.of(0) and hash(zero) == hash(LogBound.of(0))
    assert zero.sign() == 0
    merged = LogBound(
        Fraction(1),
        ((Fraction(1), Fraction(3)), (Fraction(1, 2), Fraction(4)), (2, 3)),
        ((Fraction(1), Fraction(1)),),
    )
    assert merged == LogBound.of(2) + LogBound.log2(3, 3)
    assert hash(LogBound(Fraction(1), [], [])) == hash(LogBound.of(1))


def test_constructor_rejects_nonpositive_arguments():
    with pytest.raises(DomainError):
        LogBound(Fraction(0), ((Fraction(1), Fraction(-3)),)).sign()
    with pytest.raises(DomainError):
        LogBound(Fraction(0), (), ((Fraction(0), Fraction(0)),))


def test_enclosures_ignore_and_keep_mpmath_precision(monkeypatch):
    import mpmath

    v = LogBound.ln(30) + LogBound.log2(30, Fraction(1, 2))
    for prec in (53, 10):
        monkeypatch.setattr(mpmath.iv, "prec", prec)
        monkeypatch.setattr(mpmath.mp, "prec", prec)
        fresh = LogBound.ln(30) + LogBound.log2(30, Fraction(1, 2))
        assert fresh.upper_rational(6) == Fraction(5854643, 1000000)
        assert v.upper_rational(6) == Fraction(5854643, 1000000)
        assert fresh > Fraction(5854642, 1000000)
        assert (fresh - Fraction(5854643, 1000000)).sign() == -1
        assert (mpmath.iv.prec, mpmath.mp.prec) == (prec, prec)


def test_identical_exact_zero_is_not_certified():
    with pytest.raises(CertificationError):
        (LogBound.log2(3) + LogBound.log2(Fraction(1, 3))).sign()
    with pytest.raises(CertificationError):
        LogBound.log2(3).compare(-LogBound.log2(Fraction(1, 3)))


def test_memo_leaves_equality_hash_and_repr_alone():
    a = LogBound.ln(12) + LogBound.log2(12, Fraction(1, 2))
    b = LogBound.ln(12) + LogBound.log2(12, Fraction(1, 2))
    before = (a == b, hash(a), hash(b), repr(a), repr(b))
    assert a > 3 and a < 5 and a.upper_rational(9) > 0
    assert a._enclosures and not b._enclosures
    assert (a == b, hash(a), hash(b), repr(a), repr(b)) == before
    assert len({a, b}) == 1


def test_bounds_sequence_builds_each_enclosure_once(monkeypatch):
    from zerosums import logbounds

    builds = Counter()
    build = logbounds._enclose

    def counted(bound, prec):
        builds[bound, prec] += 1
        return build(bound, prec)

    monkeypatch.setattr(logbounds, "_enclose", counted)
    bounds = upper_bounds(normalize_group([6, 12]), {"k": Fraction(2)})
    gw, gap = bounds["gao_wang_log"], bounds["asymptote_gap"]
    # The predicates benchmark's bounds query: two planted rationals per
    # bound, then the six-digit upper bound.
    assert gw > 7 and gw < 8 and gap > 3 and gap < 4
    assert gw.upper_rational() == Fraction(7361629, 1000000)
    assert builds == {(gw, 128): 1, (gap, 128): 1}
    assert gw.upper_rational(12) > 7 and gw > Fraction(73, 10) and gap < 4
    assert set(builds.values()) == {1}


# -- oracle: the iv-context reference ------------------------------------------


def oracle_bounds() -> list[LogBound]:
    """Every log bound the library builds over groups of order at most 200."""
    out = []
    for group in abelian_groups_up_to(200):
        bounds = upper_bounds(group, {"k": Fraction(0)})
        out += [bounds["gao_wang_log"], bounds["asymptote_gap"]]
        for m_p1 in range(3):
            try:
                out.append(lowest_order_bound(group, m_p1, little_k=Fraction(m_p1 + 1)))
            except LemmaNotApplicableError:
                break
    return [b for b in dict.fromkeys(out) if not b.is_exact]


def constraint_sides():
    for group in abelian_groups_up_to(200):
        for r in (2, 3):
            for c in (1, Fraction(3, 2), 2, Fraction(5, 2), 3):
                try:
                    check = mainthm2_constraint(r, c, group)
                except ConstraintInapplicableError:
                    continue
                rhs = LogBound.log2(check.rhs_log2_argument, Fraction(1, check.p1))
                yield check, LogBound.of(check.lhs), rhs


@pytest.fixture(scope="module")
def bounds_under_test():
    return oracle_bounds()


@pytest.fixture(scope="module")
def values_near(bounds_under_test):
    """Each bound with a rational within 2^-1000 of its value."""
    from mpmath.libmp import to_rational

    return [
        (bound, Fraction(*to_rational(reference.interval(bound, 1024)._mpi_[0])))
        for bound in bounds_under_test
    ]


def test_oracle_covers_every_bound_shape(bounds_under_test):
    assert len(bounds_under_test) > 300
    assert any(b.log2_terms and b.ln_terms for b in bounds_under_test)
    assert any(b.log2_terms and not b.ln_terms for b in bounds_under_test)
    assert any(b.exact for b in bounds_under_test)


def test_upper_rational_matches_iv_reference(bounds_under_test):
    for bound in bounds_under_test:
        for digits in range(3, 16):
            assert bound.upper_rational(digits) == reference.upper_rational(
                bound, digits
            ), (bound, digits)


@pytest.mark.parametrize(
    "gap", [Fraction(1, 10**6), Fraction(1, 10**18), Fraction(1, 2**100)]
)
def test_planted_rationals_match_iv_reference(values_near, gap):
    for bound, value in values_near:
        for q, side in ((value - gap, 1), (value + gap, -1)):
            assert bound.compare(q) == reference.compare(bound, q) == side, (bound, q)
            assert (bound - q).sign() == reference.sign(bound - q) == side


@pytest.mark.parametrize("prec", [128, 256, 1024])
def test_fixed_point_enclosures_hold_the_value(values_near, prec):
    slack = Fraction(1, 2**1000)  # how far values_near may lie from the value
    for bound, value in values_near:
        lo, hi = _enclose(bound, prec)
        assert Fraction(lo, 2**prec) <= value + slack, (bound, prec)
        assert Fraction(hi, 2**prec) >= value - slack, (bound, prec)
        assert hi - lo <= 2, (bound, prec, hi - lo)


def test_exact_side_certifies_on_the_log_side(monkeypatch):
    sides = list(constraint_sides())

    def no_difference(self, other):
        raise AssertionError(f"built {self!r} - {other!r}")

    monkeypatch.setattr(LogBound, "__sub__", no_difference)
    for check, lhs, rhs in sides:
        verdict = lhs.compare(rhs)
        assert verdict == -rhs.compare(lhs) == -rhs.compare(check.lhs)
        assert (check.holds, check.strict) == (verdict >= 0, verdict > 0)


def test_constraint_sides_match_iv_reference():
    seen = 0
    for check, lhs, rhs in constraint_sides():
        verdict = reference.compare(lhs, rhs)
        assert lhs.compare(rhs) == verdict == -rhs.compare(lhs)
        assert (check.holds, check.strict) == (verdict >= 0, verdict > 0)
        assert rhs.upper_rational(9) == reference.upper_rational(rhs, 9)
        seen += 1
    assert seen > 100
