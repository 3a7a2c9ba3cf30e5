"""Catalogs of atoms (minimal zero-sum multisets) and zero-sum-free maxima.

Atoms are enumerated depth-first over nondecreasing element sequences. A
prefix is kept only while zero-sum-free. Its subset sums are tracked as a
support bitmask over element codes (``GroupTable.translate``): appending e
keeps the prefix zero-sum-free exactly when -e is not a subset sum, and the
new support is supp | (supp + e). Appending the negation of the running sum
closes an atom. Generation in canonical order makes deduplication free.
Cross numbers are summed as integers scaled by exp(G) (``cross_weights``)
and become a Fraction once, for the result.

Catalogs live in memory only, one per group for the life of the process
(``atom_catalog``). They are never written to disk: a catalog read back
could not be checked without enumerating it again, and enumerating is no
slower than parsing the text it would be read from.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from . import config
from .errors import (
    DomainError,
    IncompleteCatalogError,
    ResourceLimitError,
)
from .groups import Element, FiniteAbelianGroup, group_table
from .multisets import IndexedMultiset


@dataclass(frozen=True)
class AtomCatalog:
    """All atoms of a group up to a length bound, in canonical order."""

    group: FiniteAbelianGroup
    atoms_by_length: tuple[tuple[int, tuple[tuple[Element, ...], ...]], ...]
    max_length_enumerated: int
    complete: bool

    @property
    def count(self) -> int:
        return sum(len(atoms) for _, atoms in self.atoms_by_length)

    @property
    def max_atom_length(self) -> int:
        lengths = [l for l, atoms in self.atoms_by_length if atoms]
        return max(lengths, default=0)

    def atoms(self) -> Iterator[tuple[Element, ...]]:
        """Atoms ordered by (length, elements)."""
        for _, atoms in self.atoms_by_length:
            yield from atoms

    def by_length(self, length: int) -> tuple[tuple[Element, ...], ...]:
        for l, atoms in self.atoms_by_length:
            if l == length:
                return atoms
        return ()


def enumerate_atoms(
    group: FiniteAbelianGroup, max_len: int | None = None
) -> AtomCatalog:
    """Depth-first atom enumeration, complete for lengths up to max_len.

    The catalog is marked complete when no longer atom can exist: either
    max_len reaches the group order (atoms never exceed it), or no atom of
    length exactly max_len was found (atom lengths have no gaps, since two
    elements of a longer atom can always be merged into their sum).
    """
    n = group.order
    if max_len is None:
        max_len = n
    if n > 1 and max_len < 2:
        raise DomainError("atom enumeration needs max_len >= 2")
    cap = config.ATOM_ENTRY_CAP
    if n > config.ATOM_ORDER_CAP:
        raise ResourceLimitError(
            f"group order {n} exceeds atom catalog cap {config.ATOM_ORDER_CAP}"
        )
    found: dict[int, list[tuple[Element, ...]]] = {}
    if n == 1:
        return AtomCatalog(group, (), max_len, True)

    table = group_table(group)
    # add[x][e] = x + e. n <= ATOM_ORDER_CAP, so n rows of n codes; tuples,
    # since the search indexes them faster than bytes.
    add = [tuple(table.row(x)) for x in range(n)]
    neg = table.neg
    elements = table.elements
    translate = table.translate
    total = 0
    prefix: list[int] = []

    def emit(codes: list[int]) -> None:
        nonlocal total
        total += 1
        if total > cap:
            raise ResourceLimitError(f"atom catalog exceeds {cap} entries")
        atom = tuple([elements[c] for c in codes])
        found.setdefault(len(atom), []).append(atom)

    # supp = subset sums of the current prefix, as a mask over codes.
    def dfs(start: int, running: int, supp: int) -> None:
        depth = len(prefix)
        want = neg[running]
        extend = depth + 1 <= max_len - 1
        for e in range(start, n):
            if e == want and want != 0 and depth + 1 >= 2:
                emit(prefix + [e])
            if extend and not (supp >> neg[e]) & 1:
                prefix.append(e)
                dfs(e, add[running][e], supp | translate(supp, e))
                prefix.pop()

    try:
        dfs(1, 0, 1)
    finally:
        # dfs holds itself through its closure; dropping the name frees the
        # cycle, and the group table it holds, without waiting for the GC.
        del dfs

    atoms_by_length = tuple(
        (l, tuple(sorted(found[l]))) for l in sorted(found)
    )
    complete = max_len >= n or not found.get(max_len)
    return AtomCatalog(group, atoms_by_length, max_len, complete)


# -- in-memory reuse ----------------------------------------------------------

_MEMORY: dict[FiniteAbelianGroup, AtomCatalog] = {}


def atom_catalog(group: FiniteAbelianGroup) -> AtomCatalog:
    """Complete catalog for the group, memoized for the process lifetime."""
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
    if not catalog.complete:
        raise IncompleteCatalogError(
            f"catalog for {group} enumerated only up to length "
            f"{catalog.max_length_enumerated}"
        )
    weight = cross_weights(group)
    best = 0
    best_witness: tuple[Element, ...] = ()
    for atom in catalog.atoms():
        unit = [weight[el] for el in atom]
        total = sum(unit)
        seen: set[Element] = set()
        for i, el in enumerate(atom):
            if el in seen:
                continue
            seen.add(el)
            value = total - unit[i]
            if value < best:
                continue
            witness = atom[:i] + atom[i + 1 :]
            if value > best or witness < best_witness:
                best = value
                best_witness = witness
    ms = IndexedMultiset.from_elements(
        group, best_witness, max_size=len(best_witness)
    )
    return Fraction(best, group.exponent), ms


def cross_weights(group: FiniteAbelianGroup) -> dict[Element, int]:
    """exp(G) // ord(g) per element: cross numbers scaled to integers."""
    table = group_table(group)
    exp = group.exponent
    return {el: exp // o for el, o in zip(table.elements, table.order)}
