"""Closed-form evaluators for the classical invariant formulas.

All evaluate to exact rationals (or integers) from the group presentation
alone. Every one returns 0 on the trivial group.
"""

from __future__ import annotations

from fractions import Fraction

from .groups import FiniteAbelianGroup


def k1_star(group: FiniteAbelianGroup) -> Fraction:
    """Conjectured maximum cross number over unique-factorization multisets.

    Per prime-power component C_{p^e} the summand is
    (p^e - 1)/(p^e - p^(e-1)) = 1 + 1/p + ... + 1/p^(e-1); the value is
    additive over direct sums.
    """
    total = Fraction(0)
    for p, e in group.primary_components:
        total += Fraction(p**e - 1, p**e - p ** (e - 1))
    return total


def d_star(group: FiniteAbelianGroup) -> int:
    """Classical Davenport-constant formula 1 + sum(n_i - 1); 0 when trivial."""
    if group.is_trivial:
        return 0
    return 1 + sum(n - 1 for n in group.invariant_factors)


def n1_star(group: FiniteAbelianGroup) -> int:
    """Conjectured Narkiewicz constant: the sum of the invariant factors."""
    return sum(group.invariant_factors)


def K_star(group: FiniteAbelianGroup) -> Fraction:
    """Conjectured maximum cross number over minimal zero-sum multisets:
    k*(G) + 1/exp(G)."""
    if group.is_trivial:
        return Fraction(0)
    return k_star(group) + Fraction(1, group.exponent)


def k_star(group: FiniteAbelianGroup) -> Fraction:
    """Conjectured maximum cross number over zero-sum-free multisets."""
    total = Fraction(0)
    for p, e in group.primary_components:
        total += Fraction(p**e - 1, p**e)
    return total
