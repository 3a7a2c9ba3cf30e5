"""Indexed multisets over a group: sums, cross numbers, and submultisets.

Distinct integer labels distinguish equal elements; identity of a multiset
(equality, hashing, caching) ignores labels and uses the canonical form, the
element list sorted under the global element order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

from . import config
from .errors import DomainError, PreconditionError, ResourceLimitError
from .groups import Element, FiniteAbelianGroup, Homomorphism

__all__ = [
    "IndexSubset",
    "IndexedMultiset",
    "apply_hom",
    "cross_number",
    "disjoint_union",
    "sigma",
]


@dataclass(frozen=True, eq=False)
class IndexedMultiset:
    """Elements of group under distinct labels. However the multiset is made,
    each element is checked to be a tuple that ``group.contains`` accepts
    (DomainError names the first non-element), so code that reads the
    elements trusts them, and equality and hashing can compare them."""

    group: FiniteAbelianGroup
    items: tuple[tuple[int, Element], ...]  # (label, element), sorted by label

    def __post_init__(self) -> None:
        contains = self.group.contains
        for _, g in self.items:
            if not isinstance(g, tuple) or not contains(g):
                raise DomainError(f"{g!r} is not an element of {self.group}")

    @staticmethod
    def from_elements(
        group: FiniteAbelianGroup,
        elements: Iterable[Iterable[int]],
        *,
        allow_zero: bool = False,
        max_size: int | None = None,
    ) -> "IndexedMultiset":
        els = [group.element(e) for e in elements]
        cap = config.MAX_MULTISET_SIZE if max_size is None else max_size
        if len(els) > cap:
            raise ResourceLimitError(
                f"multiset size {len(els)} exceeds cap {cap}"
            )
        zero = group.zero()
        if not allow_zero and any(e == zero for e in els):
            raise PreconditionError("multiset over G\\{0} cannot contain 0")
        return IndexedMultiset(group, tuple(enumerate(els)))

    @property
    def size(self) -> int:
        return len(self.items)

    @property
    def labels(self) -> tuple[int, ...]:
        return tuple(lbl for lbl, _ in self.items)

    def elements(self) -> tuple[Element, ...]:
        """Elements in label order."""
        return tuple(el for _, el in self.items)

    def element_at(self, label: int) -> Element:
        for lbl, el in self.items:
            if lbl == label:
                return el
        raise DomainError(f"no entry with label {label}")

    @property
    def entries(self) -> dict[int, Element]:
        return dict(self.items)

    def canonical(self) -> tuple[Element, ...]:
        return tuple(sorted(el for _, el in self.items))

    @property
    def has_zero(self) -> bool:
        zero = self.group.zero()
        return any(el == zero for _, el in self.items)

    def subset(self, labels: Iterable[int]) -> "IndexSubset":
        return IndexSubset(self, frozenset(labels))

    def submultiset(self, labels: Iterable[int]) -> "IndexedMultiset":
        """Restriction to the given labels, labels preserved."""
        keep = frozenset(labels)
        unknown = keep - set(self.labels)
        if unknown:
            raise DomainError(f"labels {sorted(unknown)} not in multiset")
        return IndexedMultiset(
            self.group, tuple(it for it in self.items if it[0] in keep)
        )

    def without(self, labels: Iterable[int]) -> "IndexedMultiset":
        drop = frozenset(labels)
        return IndexedMultiset(
            self.group, tuple(it for it in self.items if it[0] not in drop)
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IndexedMultiset):
            return NotImplemented
        return self.group == other.group and self.canonical() == other.canonical()

    def __hash__(self) -> int:
        return hash((self.group, self.canonical()))

    def __repr__(self) -> str:
        body = ",".join(str(list(el)) for el in self.canonical())
        return f"Multiset({self.group.key}: [{body}])"


@dataclass(frozen=True)
class IndexSubset:
    """A subset of a multiset's index labels."""

    multiset: IndexedMultiset
    labels: frozenset[int]

    def __post_init__(self) -> None:
        unknown = self.labels - set(self.multiset.labels)
        if unknown:
            raise DomainError(f"labels {sorted(unknown)} not in multiset")

    @property
    def size(self) -> int:
        return len(self.labels)

    def elements(self) -> tuple[Element, ...]:
        return tuple(
            el for lbl, el in self.multiset.items if lbl in self.labels
        )

    def submultiset(self) -> IndexedMultiset:
        return self.multiset.submultiset(self.labels)

    def complement(self) -> "IndexSubset":
        return IndexSubset(
            self.multiset, frozenset(self.multiset.labels) - self.labels
        )


MultisetLike = Union[IndexedMultiset, IndexSubset]


def _group_and_elements(s: MultisetLike) -> tuple[FiniteAbelianGroup, tuple[Element, ...]]:
    if isinstance(s, IndexSubset):
        return s.multiset.group, s.elements()
    return s.group, s.elements()


def sigma(s: MultisetLike) -> Element:
    """Sum of the elements with multiplicity; the empty sum is 0."""
    return element_sum(*_group_and_elements(s))


def element_sum(group: FiniteAbelianGroup, elements: Sequence[Element]) -> Element:
    """Sum of a sequence of elements, one column at a time; the empty sum is 0."""
    if not elements:
        return group.zero()
    return tuple(
        sum(col) % m for col, m in zip(zip(*elements), group.invariant_factors)
    )


def cross_number(s: MultisetLike) -> Fraction:
    """Sum of reciprocal element orders, exact; empty multiset gives 0."""
    group, els = _group_and_elements(s)
    return sum(
        (Fraction(1, group.element_order(el)) for el in els), Fraction(0)
    )


def disjoint_union(s1: IndexedMultiset, s2: IndexedMultiset) -> IndexedMultiset:
    """Union keeping left labels; right labels are shifted past them."""
    if s1.group != s2.group:
        raise DomainError("disjoint union needs multisets over one group")
    total = s1.size + s2.size
    if total > config.MAX_MULTISET_SIZE:
        raise ResourceLimitError(
            f"union size {total} exceeds cap {config.MAX_MULTISET_SIZE}"
        )
    base = max(s1.labels, default=-1) + 1
    relabeled = tuple(
        (base + i, el) for i, (_, el) in enumerate(s2.items)
    )
    return IndexedMultiset(s1.group, s1.items + relabeled)


def apply_hom(phi: Homomorphism, s: IndexedMultiset) -> IndexedMultiset:
    """Image multiset under a homomorphism, labels preserved.

    The image may contain 0 even when the input does not.
    """
    if s.group != phi.source:
        raise DomainError("multiset group does not match the map's source")
    return IndexedMultiset(
        phi.target, tuple((lbl, phi._apply(el)) for lbl, el in s.items)
    )


def to_lists(s: MultisetLike) -> list[list[int]]:
    """Serialized form: residue vectors in canonical order."""
    _, els = _group_and_elements(s)
    return [list(el) for el in sorted(els)]

