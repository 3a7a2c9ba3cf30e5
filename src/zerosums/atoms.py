"""Catalogs of atoms (minimal zero-sum multisets) and zero-sum-free maxima.

Atoms are enumerated depth-first over nondecreasing sequences of element
codes (``GroupTable``). A prefix is kept only while zero-sum-free. Its subset
sums are tracked as a support bitmask over codes (``GroupTable.translate``):
appending e keeps the prefix zero-sum-free exactly when -e is not a subset
sum, and the new support is supp | (supp + e). Appending the negation of the
running sum closes an atom. Generation in canonical (lexicographic) order
makes deduplication free, and makes the first maximizer met the least: the
walk keeps the longest atom (D), the atom of largest cross weight (K) and
the zero-sum-free prefix of largest cross weight (k).

A catalog holds every atom of its group, each as its ascending codes and,
from the support at its emission, the mask of its proper nonempty subset
sums: the crossing mask the unique-factorization search (``search``) tests
against. Elements are decoded only for ``AtomCatalog.atoms()`` and for
witnesses.

A measure, size or cross number, is an integer weight per element code
over a scale (``code_weights``): the measure of a sequence is the sum of
its codes' weights, and becomes a Fraction once, over the scale, for the
result.

Catalogs live in memory only, one per group for the life of the process
(``atom_catalog``). They are never written to disk: a catalog read back
could not be checked without enumerating it again, and enumerating is no
slower than parsing the text it would be read from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Literal

from . import config
from .errors import ResourceLimitError
from .groups import Element, FiniteAbelianGroup, group_table
from .multisets import IndexedMultiset

__all__ = [
    "AtomCatalog",
    "atom_catalog",
    "enumerate_atoms",
    "max_zero_sum_free_cross",
]


@dataclass(frozen=True)
class AtomCatalog:
    """All atoms of a group, in canonical order.

    ``codes`` holds each atom as its ascending element codes, in (length,
    codes) order; ``sums`` holds, per atom, the mask of its proper nonempty
    subset sums. The three least maximizers the walk kept follow from
    ``codes``, and take no part in ``==``.
    """

    group: FiniteAbelianGroup
    codes: tuple[tuple[int, ...], ...]
    sums: tuple[int, ...]
    longest_atom: tuple[int, ...] = field(default=(), compare=False)
    heaviest_atom: tuple[int, ...] = field(default=(), compare=False)
    heaviest_zero_sum_free: tuple[int, ...] = field(default=(), compare=False)

    @property
    def count(self) -> int:
        return len(self.codes)

    def atoms(self) -> Iterator[tuple[Element, ...]]:
        """Atoms as elements, ordered by (length, elements)."""
        decode = group_table(self.group).decode
        for atom in self.codes:
            yield tuple([decode(c) for c in atom])


def enumerate_atoms(group: FiniteAbelianGroup) -> AtomCatalog:
    """Depth-first enumeration of every atom of the group.

    The depth needs no bound: a zero-sum-free prefix of length l has at
    least l + 1 distinct subset sums, so it is shorter than |G|.
    """
    n = group.order
    cap = config.ATOM_ENTRY_CAP
    if n > config.ATOM_ORDER_CAP:
        raise ResourceLimitError(
            f"group order {n} exceeds atom catalog cap {config.ATOM_ORDER_CAP}"
        )
    if n == 1:
        return AtomCatalog(group, (), ())

    table = group_table(group)
    table.fill_all()  # the DFS reads every code
    neg = table.neg
    translate = table.translate
    weight = code_weights(group, "cross")[0]
    # add[x][e] = x + e, from one-bit translates. n <= ATOM_ORDER_CAP, so
    # n rows of n codes.
    add = [
        tuple([translate(1 << e, x).bit_length() - 1 for e in range(n)])
        for x in range(n)
    ]
    # (codes, sums) per atom, in lexicographic order of codes.
    found: list[tuple[tuple[int, ...], int]] = []
    prefix: list[int] = []
    # The maxima met so far, each replaced only by a strictly larger value.
    longest = heaviest = heaviest_free = 0
    longest_atom = heaviest_atom = heaviest_zsf = ()

    # supp = subset sums of the current prefix, a zero-sum-free sequence, as
    # a mask over codes, and cross = its cross weight. An atom's subset sums
    # are supp | (supp + e); the empty and the full one are the only ones at
    # 0, as the atom is minimal. Codes start at 1, so e == want only when
    # the prefix is nonempty.
    def dfs(start: int, running: int, supp: int, cross: int) -> None:
        nonlocal longest, heaviest, heaviest_free
        nonlocal longest_atom, heaviest_atom, heaviest_zsf
        if cross > heaviest_free:
            heaviest_free, heaviest_zsf = cross, tuple(prefix)
        want = neg[running]
        for e in range(start, n):
            if e == want:
                if len(found) >= cap:
                    raise ResourceLimitError(f"atom catalog exceeds {cap} entries")
                atom = tuple(prefix + [e])
                found.append((atom, (supp | translate(supp, e)) & ~1))
                if len(atom) > longest:
                    longest, longest_atom = len(atom), atom
                if cross + weight[e] > heaviest:
                    heaviest, heaviest_atom = cross + weight[e], atom
            if not (supp >> neg[e]) & 1:
                prefix.append(e)
                dfs(e, add[running][e], supp | translate(supp, e), cross + weight[e])
                prefix.pop()

    try:
        dfs(1, 0, 1, 0)
    finally:
        # dfs holds itself through its closure; dropping the name frees the
        # cycle, and the group table it holds, without waiting for the GC.
        del dfs

    # A prefix is emitted before its extensions, so found is in lexicographic
    # order; a stable sort by length gives (length, codes) order. found is
    # not empty: n > 1, so some (g, -g) is an atom.
    found.sort(key=lambda atom: len(atom[0]))
    codes, sums = zip(*found)
    return AtomCatalog(group, codes, sums, longest_atom, heaviest_atom, heaviest_zsf)


# -- in-memory reuse ----------------------------------------------------------

_MEMORY: dict[FiniteAbelianGroup, AtomCatalog] = {}


def atom_catalog(group: FiniteAbelianGroup) -> AtomCatalog:
    """The catalog of the group, memoized for the process lifetime."""
    got = _MEMORY.get(group)
    if got is None:
        got = _MEMORY[group] = enumerate_atoms(group)
    return got


def clear_catalog_memory() -> None:
    _MEMORY.clear()


# -- zero-sum-free maximum ----------------------------------------------------


def max_zero_sum_free_cross(
    group: FiniteAbelianGroup,
) -> tuple[Fraction, IndexedMultiset]:
    """Largest cross number of a zero-sum-free multiset, with the
    canonically least maximizer as witness: ``little_cross_k``'s value and
    witness, or the empty multiset when there is no witness."""
    from .invariants import little_cross_k  # invariants imports this module
    result = little_cross_k(group)
    return result.value, result.witness or IndexedMultiset(group, ())


def code_weights(
    group: FiniteAbelianGroup, measure: Literal["size", "cross"]
) -> tuple[list[int], int]:
    """An integer weight per element code, and the scale: the measure of a
    sequence is the sum of its codes' weights over the scale. Size weighs
    every code 1 at scale 1; cross number weighs code g exp(G) // ord(g) at
    scale exp(G)."""
    if measure == "size":
        return [1] * group.order, 1
    exp = group.exponent
    order = group_table(group).order
    return [exp // order[c] for c in range(group.order)], exp


def _witness_from_codes(
    group: FiniteAbelianGroup, codes: Iterable[int]
) -> IndexedMultiset | None:
    """The multiset of the decoded codes, or None when there are none."""
    codes = tuple(codes)
    if not codes:
        return None
    elements = [group_table(group).decode(c) for c in codes]
    return IndexedMultiset.from_elements(group, elements, max_size=len(elements))
