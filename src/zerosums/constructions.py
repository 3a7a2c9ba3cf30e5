"""Explicit extremal multisets and the kernel-packing decomposition.

The builders assert their defining postconditions at construction time: the
tower witness is a unique-factorization multiset attaining the closed-form
cross number, the zero-sum-free witness attains the zero-sum-free formula,
and componentwise unions preserve unique factorization.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable

from . import formulas
from .errors import DomainError, PreconditionError, ResourceLimitError
from .groups import (
    Element,
    FiniteAbelianGroup,
    Homomorphism,
    factorize,
    group_table,
    is_prime,
    normalize_group,
    product_presentation,
)
from .factorization import is_ufim, is_zero_sum, is_zero_sum_free, masks_with_sum
from .multisets import (
    IndexedMultiset,
    IndexSubset,
    apply_hom,
    cross_number,
    sigma,
)

__all__ = [
    "DecompositionResult",
    "construction4_decompose",
    "direct_sum_union",
    "extremal_ufim",
    "extremal_zero_sum_free",
    "gao_wang_extremal",
    "phiunique_consequences",
]


def _gao_wang_values(p: int, m: int) -> list[int]:
    """Residues of the maximal-cross tower over C_{p^m} with generator 1."""
    q = p**m
    values: list[int] = []
    for i in range(1, m + 1):
        values.extend([p ** (i - 1) % q] * (p - 1))
    for i in range(1, m + 1):
        values.append((1 - p) * p ** (i - 1) % q)
    return values


def gao_wang_extremal(p: int, m: int) -> IndexedMultiset:
    """The tower multiset over C_{p^m}: p-1 copies of each power of p plus
    one balancing element per level (``extremal_ufim`` of C_{p^m}). Unique
    factorization and cross number equal to the closed-form value are
    asserted."""
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    if m < 1:
        raise DomainError(f"exponent must be positive, got {m}")
    return extremal_ufim(normalize_group([p**m]))


def _componentwise(
    group: FiniteAbelianGroup, values: Callable[[int, int], list[int]]
) -> IndexedMultiset:
    """For each prime-power component C_{p^e}, the residues values(p, e)
    times the component's generator, on its invariant factor's coordinate."""
    elements: list[Element] = []
    for j, n in enumerate(group.invariant_factors):
        for p, e in sorted(factorize(n).items()):
            gen = n // p**e
            for v in values(p, e):
                el = [0] * group.rank
                el[j] = v * gen % n
                elements.append(tuple(el))
    return IndexedMultiset.from_elements(group, elements, max_size=len(elements))


def extremal_zero_sum_free(group: FiniteAbelianGroup) -> IndexedMultiset:
    """Zero-sum-free multiset attaining the closed-form maximum.

    Per component C_{p^e}: p-1 copies of each power of p, the tower of
    ``extremal_ufim`` without its balancing elements.
    """
    ms = _componentwise(group, lambda p, e: _gao_wang_values(p, e)[: (p - 1) * e])
    assert is_zero_sum_free(ms), f"witness over {group} is not zero-sum free"
    expected = formulas.k_star(group)
    got = cross_number(ms)
    assert got == expected, f"zero-sum-free cross number {got} != {expected}"
    return ms


def extremal_ufim(group: FiniteAbelianGroup) -> IndexedMultiset:
    """Componentwise tower witness over an arbitrary group.

    Attains the closed-form unique-factorization maximum, which makes it the
    standard incumbent seed for exact searches.
    """
    ms = _componentwise(group, _gao_wang_values)
    assert is_ufim(ms), f"componentwise tower over {group} is not a UFIM"
    expected = formulas.k1_star(group)
    got = cross_number(ms)
    assert got == expected, f"componentwise tower cross number {got} != {expected}"
    return ms


def generator_repeat_union(group: FiniteAbelianGroup) -> IndexedMultiset:
    """Each invariant-factor generator repeated its order times.

    A unique-factorization multiset of size sum(n_i), the incumbent seed for
    maximum-size searches.
    """
    elements: list[Element] = []
    for j, n in enumerate(group.invariant_factors):
        el = [0] * group.rank
        el[j] = 1
        elements.extend([tuple(el)] * n)
    ms = IndexedMultiset.from_elements(group, elements, max_size=len(elements))
    assert is_ufim(ms), f"generator towers over {group} do not factor uniquely"
    return ms


def direct_sum_union(
    s1: IndexedMultiset, s2: IndexedMultiset
) -> IndexedMultiset:
    """Embed both multisets on independent blocks of the direct sum.

    The ambient group is the normalized direct sum; cross numbers add, and
    a union of two unique-factorization multisets factors uniquely (asserted
    when each nonempty summand is a zero-sum multiset that factors uniquely).
    """
    g1, g2 = s1.group, s2.group
    target, images = product_presentation(g1.invariant_factors + g2.invariant_factors)
    first = Homomorphism(g1, target, images[: g1.rank])
    second = Homomorphism(g2, target, images[g1.rank :])
    elements = [*map(first._apply, s1.elements()), *map(second._apply, s2.elements())]
    out = IndexedMultiset.from_elements(
        target, elements, max_size=len(elements)
    )
    if all(
        not part.size or (is_zero_sum(part) and is_ufim(part))
        for part in (s1, s2)
    ):
        assert is_ufim(out), "union of unique-factorization multisets failed"
        assert cross_number(out) == cross_number(s1) + cross_number(s2)
    return out


# -- kernel-packing decomposition --------------------------------------------


@dataclass(frozen=True)
class DecompositionResult:
    """Split of a unique-factorization multiset along a homomorphism.

    kernel_part holds the entries lying in the kernel; packing is a maximal
    family of disjoint zero-sum-free subsets of the rest whose sums land in
    the kernel minus zero; residue is what remains.
    """

    multiset: IndexedMultiset
    hom: Homomorphism
    kernel_part: IndexSubset
    packing: tuple[IndexSubset, ...]
    residue: IndexSubset

    @property
    def t(self) -> int:
        return len(self.packing)

    @property
    def lifted(self) -> IndexedMultiset:
        """The kernel part plus the sum of each packed subset, over G."""
        elements = list(self.kernel_part.elements()) + [sigma(p) for p in self.packing]
        return IndexedMultiset.from_elements(
            self.multiset.group, elements, max_size=len(elements)
        )

    def to_lists(self) -> dict:
        def subset_lists(sub: IndexSubset) -> dict:
            labels = sorted(sub.labels)
            return {
                "labels": labels,
                "elements": [list(self.multiset.element_at(l)) for l in labels],
            }

        return {
            "kernel_part": subset_lists(self.kernel_part),
            "packing": [subset_lists(s) for s in self.packing],
            "residue": subset_lists(self.residue),
            "t": self.t,
        }


def construction4_decompose(
    ms: IndexedMultiset, phi: Homomorphism
) -> DecompositionResult:
    """Maximal packing of kernel-summing zero-sum-free subsets.

    The packing size t is exact: one memo over the free index masks gives
    the lexicographically least maximal family of candidate subsets, which
    is returned. The three
    structural consequences (residue factors uniquely, its image factors
    uniquely over the quotient, kernel part plus packing sums factors
    uniquely over the kernel) are asserted.
    """
    if ms.group != phi.source:
        raise DomainError("multiset group does not match the map's source")
    if ms.has_zero or not is_zero_sum(ms) or not is_ufim(ms):
        raise PreconditionError(
            "decomposition needs a unique-factorization multiset over G\\{0}"
        )
    zero_t = phi.target.zero()
    labels = sorted(ms.labels)
    entry = ms.entries
    in_kernel = [phi._apply(entry[l]) == zero_t for l in labels]
    t_labels = [l for l, k in zip(labels, in_kernel) if k]
    rest = [l for l, k in zip(labels, in_kernel) if not k]
    if len(rest) > 20:
        raise ResourceLimitError(
            f"packing search over {len(rest)} indices exceeds the cap"
        )

    # Candidate subsets of the non-kernel part: zero-sum free with sum in
    # the kernel minus zero.
    table = group_table(ms.group)
    l = len(rest)
    codes = table.encode_all([entry[r] for r in rest])

    def mask_codes(mask: int) -> list[int]:
        return [codes[i] for i in range(l) if mask >> i & 1]

    # Each distinct nonzero subset sum, a set bit of the support, is mapped
    # once, not every element of G.
    candidates = []
    sums = table.sumset(codes) & ~1
    while sums:
        s = sums.bit_length() - 1
        sums ^= 1 << s
        if phi._apply(table.decode(s)) == zero_t:
            candidates += [
                mask
                for mask in masks_with_sum(s, codes, table)
                if table.zero_sum_free(mask_codes(mask))
            ]
    candidates.sort()

    # The lexicographically least maximal family per free mask: the least
    # usable candidate whose tail, the family of what it leaves free, is
    # longest, followed by that tail.
    @lru_cache(maxsize=None)
    def least_family(free: int) -> tuple[int, ...]:
        best: tuple[int, ...] = ()
        for c in candidates:
            if c & ~free == 0:
                tail = least_family(free ^ c)
                if len(tail) >= len(best):
                    best = (c, *tail)
        return best

    family = least_family((1 << l) - 1)

    def mask_labels(mask: int) -> frozenset[int]:
        return frozenset(rest[i] for i in range(l) if mask >> i & 1)

    packing = tuple(IndexSubset(ms, mask_labels(m)) for m in family)
    kernel_part = IndexSubset(ms, frozenset(t_labels))
    used = frozenset().union(*(p.labels for p in packing)) if packing else frozenset()
    residue = IndexSubset(ms, frozenset(rest) - used)
    result = DecompositionResult(ms, phi, kernel_part, packing, residue)
    _assert_decomposition_consequences(result)
    return result


def _assert_decomposition_consequences(d: DecompositionResult) -> None:
    residue_ms = d.residue.submultiset()
    if residue_ms.size:
        assert is_ufim(residue_ms), "residue does not factor uniquely"
        image = apply_hom(d.hom, residue_ms)
        assert not image.has_zero, "residue image touches zero"
        assert is_ufim(image), "residue image does not factor uniquely"
    lifted = d.lifted
    if lifted.size:
        assert is_ufim(lifted), "kernel part plus packing sums not unique"


def phiunique_consequences(
    decomposition: DecompositionResult,
    part_invariants: dict[str, Fraction | None],
) -> list[dict]:
    """Evaluate the kernel-split inequalities on a concrete decomposition.

    part_invariants must provide K1_kernel, N1_kernel, K1_quotient and
    K_quotient as exact values, or None for a value not known. Returns one
    record per inequality with both sides and a pass flag; a row whose right
    side needs an unknown value has rhs and passed None.
    """
    d = decomposition
    ms = d.multiset
    k1_ker = part_invariants["K1_kernel"]
    n1_ker = part_invariants["N1_kernel"]
    k1_quot = part_invariants["K1_quotient"]
    K_quot = part_invariants["K_quotient"]

    s_prime = d.kernel_part.complement()
    lifted_cross = cross_number(d.lifted)
    phi_cross = cross_number(apply_hom(d.hom, s_prime.submultiset()))
    k_s = cross_number(ms)
    k_s_prime = cross_number(s_prime)

    def total(*terms: Fraction | None) -> Fraction | None:
        return None if None in terms else sum(terms, Fraction(0))

    rows = [
        {
            "item": 1,
            "statement": "cross(kernel part + packing sums) <= K1(kernel)",
            "lhs": lifted_cross,
            "rhs": total(k1_ker),
        },
        {
            "item": 2,
            "statement": "|kernel part| + t <= N1(kernel)",
            "lhs": Fraction(d.kernel_part.size + d.t),
            "rhs": total(n1_ker),
        },
        {
            "item": 3,
            "statement": "cross(S) <= K1(kernel) + cross(S')",
            "lhs": k_s,
            "rhs": total(k1_ker, k_s_prime),
        },
        {
            "item": 4,
            "statement": "cross(S) <= K1(kernel) + cross(phi(S'))",
            "lhs": k_s,
            "rhs": total(k1_ker, phi_cross),
        },
        {
            "item": 5,
            "statement": "cross(phi(S')) <= K1(quotient) + t*K(quotient)",
            "lhs": phi_cross,
            "rhs": total(k1_quot, None if K_quot is None else d.t * K_quot),
        },
    ]
    if d.t == 0:
        rows.append(
            {
                "item": 7,
                "statement": "t=0: cross(S) <= K1(kernel) + K1(quotient)",
                "lhs": k_s,
                "rhs": total(k1_ker, k1_quot),
            }
        )
    for row in rows:
        row["passed"] = None if row["rhs"] is None else row["lhs"] <= row["rhs"]
    return rows
