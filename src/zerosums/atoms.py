"""Catalogs of atoms (minimal zero-sum multisets) and zero-sum-free maxima.

Atoms are enumerated depth-first over nondecreasing sequences of element
codes (``GroupTable``). A prefix is kept only while zero-sum-free. Its subset
sums are tracked as a support bitmask over codes (``GroupTable.translate``):
appending e keeps the prefix zero-sum-free exactly when -e is not a subset
sum, and the new support is supp | (supp + e). Appending the negation of the
running sum closes an atom. Generation in canonical order makes
deduplication free.

A catalog holds every atom of its group, each as its ascending codes and,
from the support at its emission, the mask of its proper nonempty subset
sums: the crossing mask the unique-factorization search (``search``) tests
against. Elements are decoded only for ``AtomCatalog.atoms()`` and for
witnesses. Cross numbers are summed as integers scaled by exp(G)
(``scaled_crosses``) and become a Fraction once, for the result.

Catalogs live in memory only, one per group for the life of the process
(``atom_catalog``). They are never written to disk: a catalog read back
could not be checked without enumerating it again, and enumerating is no
slower than parsing the text it would be read from.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

from . import config
from .errors import ResourceLimitError
from .groups import Element, FiniteAbelianGroup, group_table
from .multisets import IndexedMultiset


@dataclass(frozen=True)
class AtomCatalog:
    """All atoms of a group, in canonical order.

    ``codes`` holds each atom as its ascending element codes, in (length,
    codes) order; ``sums`` holds, per atom, the mask of its proper nonempty
    subset sums.
    """

    group: FiniteAbelianGroup
    codes: tuple[tuple[int, ...], ...]
    sums: tuple[int, ...]

    @property
    def count(self) -> int:
        return len(self.codes)

    @property
    def max_atom_length(self) -> int:
        return len(self.codes[-1]) if self.codes else 0

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
    # add[x][e] = x + e, from one-bit translates. n <= ATOM_ORDER_CAP, so
    # n rows of n codes.
    add = [
        tuple([translate(1 << e, x).bit_length() - 1 for e in range(n)])
        for x in range(n)
    ]
    # (codes, sums) per atom, in lexicographic order of codes.
    found: list[tuple[tuple[int, ...], int]] = []
    prefix: list[int] = []

    # supp = subset sums of the current prefix, as a mask over codes. An
    # atom's subset sums are supp | (supp + e); the empty and the full one
    # are the only ones at 0, as the atom is minimal. Codes start at 1, so
    # e == want only when the prefix is nonempty.
    def dfs(start: int, running: int, supp: int) -> None:
        want = neg[running]
        for e in range(start, n):
            if e == want:
                if len(found) >= cap:
                    raise ResourceLimitError(f"atom catalog exceeds {cap} entries")
                found.append((tuple(prefix + [e]), (supp | translate(supp, e)) & ~1))
            if not (supp >> neg[e]) & 1:
                prefix.append(e)
                dfs(e, add[running][e], supp | translate(supp, e))
                prefix.pop()

    try:
        dfs(1, 0, 1)
    finally:
        # dfs holds itself through its closure; dropping the name frees the
        # cycle, and the group table it holds, without waiting for the GC.
        del dfs

    # A prefix is emitted before its extensions, so found is in lexicographic
    # order; a stable sort by length gives (length, codes) order. found is
    # not empty: n > 1, so some (g, -g) is an atom.
    found.sort(key=lambda atom: len(atom[0]))
    codes, sums = zip(*found)
    return AtomCatalog(group, codes, sums)


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
    group: FiniteAbelianGroup, catalog: AtomCatalog | None = None
) -> tuple[Fraction, IndexedMultiset]:
    """Largest cross number of a zero-sum-free multiset, with a witness.

    Every zero-sum-free multiset extends to an atom by one element, so the
    maximum is scanned as atom-minus-one-element; the witness is the
    canonically least maximizer.
    """
    if catalog is None:
        catalog = atom_catalog(group)
    weight = cross_weights(group)
    best = 0
    best_witness: tuple[int, ...] = ()
    for atom, total in zip(catalog.codes, scaled_crosses(catalog)):
        last = 0  # codes are ascending and nonzero: skip repeated ones
        for i, c in enumerate(atom):
            if c == last:
                continue
            last = c
            value = total - weight[c]
            if value < best:
                continue
            witness = atom[:i] + atom[i + 1 :]
            if value > best or witness < best_witness:
                best = value
                best_witness = witness
    ms = _witness_from_codes(group, best_witness)
    if ms is None:  # no atoms: the empty multiset
        ms = IndexedMultiset(group, ())
    return Fraction(best, group.exponent), ms


def cross_weights(group: FiniteAbelianGroup) -> list[int]:
    """exp(G) // ord(g) per element code: cross numbers scaled to integers."""
    exp = group.exponent
    order = group_table(group).order
    return [exp // order[c] for c in range(group.order)]


def scaled_crosses(catalog: AtomCatalog) -> list[int]:
    """Each atom's cross number scaled by exp(G), in catalog order."""
    weight = cross_weights(catalog.group)
    return [sum([weight[c] for c in atom]) for atom in catalog.codes]


def _witness_from_codes(
    group: FiniteAbelianGroup, codes: Iterable[int]
) -> IndexedMultiset | None:
    """The multiset of the decoded codes, or None when there are none."""
    codes = tuple(codes)
    if not codes:
        return None
    elements = [group_table(group).decode(c) for c in codes]
    return IndexedMultiset.from_elements(group, elements, max_size=len(elements))
