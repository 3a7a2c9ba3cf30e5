"""Reference implementations of the zero-sum predicates by per-mask scans.

Direct forms of the subset scans: dense tables built with one
``group.add`` per pair of elements, the sum of every subset mask computed
one mask at a time, minimality by comparing every pair of zero-sum masks,
and zero-sum freeness by looking at every subset. The library reads
subset-sum supports instead, and lists subsets by walking them; the tests
require both to agree on every answer, mask and block.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, Sequence

from zerosums.groups import FiniteAbelianGroup, kernel_elements


@lru_cache(maxsize=None)
def tables(group: FiniteAbelianGroup) -> tuple[tuple, tuple, tuple]:
    """(add, neg, order) over canonical element codes, pair by pair."""
    elements = tuple(group.elements())
    code = {g: i for i, g in enumerate(elements)}
    add = tuple(
        tuple(code[group.add(a, b)] for b in elements) for a in elements
    )
    neg = tuple(code[group.neg(a)] for a in elements)
    order = tuple(group.element_order(a) for a in elements)
    return add, neg, order


def codes_of(ms) -> tuple[list[int], list[int]]:
    """Sorted labels and the element code at each."""
    elements = list(ms.group.elements())
    code = {g: i for i, g in enumerate(elements)}
    labels = sorted(ms.labels)
    return labels, [code[ms.entries[l]] for l in labels]


def subset_sums(codes: Sequence[int], add) -> list[int]:
    """Sum of every subset mask, one mask at a time."""
    sums = [0] * (1 << len(codes))
    for mask in range(1, 1 << len(codes)):
        low = mask & -mask
        sums[mask] = add[sums[mask ^ low]][codes[low.bit_length() - 1]]
    return sums


def zero_sum_masks_direct(codes: Sequence[int], add) -> list[int]:
    return [m for m, s in enumerate(subset_sums(codes, add)) if s == 0]


def minimal_masks(zs_masks: Sequence[int]) -> list[int]:
    """Masks with no proper nonzero zero-sum submask, by pairwise scan."""
    nonzero = [m for m in zs_masks if m]
    return [
        m for m in nonzero
        if not any(z != m and z & m == z for z in nonzero)
    ]


def is_zero_sum_free(ms) -> bool:
    add = tables(ms.group)[0]
    return zero_sum_masks_direct(codes_of(ms)[1], add) == [0]


def is_minimal_zero_sum(ms) -> bool:
    if ms.size == 0:
        return False
    add = tables(ms.group)[0]
    full = (1 << ms.size) - 1
    return zero_sum_masks_direct(codes_of(ms)[1], add) == [0, full]


def iter_block_partitions(minimal: Sequence[int], full: int) -> Iterator[tuple[int, ...]]:
    if full == 0:
        yield ()
        return
    pivot = full & -full
    for m in minimal:
        if m & pivot and m & full == m:
            for rest in iter_block_partitions(minimal, full ^ m):
                yield (m,) + rest


def partitions(ms, limit: int | None = None) -> list[frozenset[frozenset[int]]]:
    """Up to limit factorizations, in the library's enumeration order, as
    sets of label blocks."""
    labels, codes = codes_of(ms)
    minimal = minimal_masks(zero_sum_masks_direct(codes, tables(ms.group)[0]))
    out = []
    for masks in iter_block_partitions(minimal, (1 << len(labels)) - 1):
        out.append(frozenset(
            frozenset(labels[i] for i in range(len(labels)) if m >> i & 1)
            for m in masks
        ))
        if limit is not None and len(out) >= limit:
            break
    return out


def is_ufim(ms) -> bool:
    return len(partitions(ms, 2)) == 1


def decompose(ms, phi) -> tuple[frozenset[int], tuple[frozenset[int], ...]]:
    """Kernel labels and the least maximal packing, by per-mask scans."""
    group = ms.group
    zero_t = phi.target.zero()
    labels = sorted(ms.labels)
    entry = ms.entries
    kernel_labels = frozenset(l for l in labels if phi(entry[l]) == zero_t)
    rest = [l for l in labels if l not in kernel_labels]
    kernel_set = set(kernel_elements(phi))
    l = len(rest)
    sums = [group.zero()] * (1 << l)
    for mask in range(1, 1 << l):
        low = mask & -mask
        sums[mask] = group.add(sums[mask ^ low], entry[rest[low.bit_length() - 1]])

    def zero_sum_free_mask(mask: int) -> bool:
        sub = mask
        while sub:
            if sums[sub] == group.zero():
                return False
            sub = (sub - 1) & mask
        return True

    cand = [
        mask for mask in range(1, 1 << l)
        if sums[mask] != group.zero() and sums[mask] in kernel_set
        and zero_sum_free_mask(mask)
    ]

    @lru_cache(maxsize=None)
    def best_t(free: int) -> int:
        return max((1 + best_t(free ^ c) for c in cand if c & ~free == 0), default=0)

    family = []
    free = (1 << l) - 1
    while best_t(free):
        for c in cand:
            if c & ~free == 0 and 1 + best_t(free ^ c) == best_t(free):
                family.append(c)
                free ^= c
                break
    packing = tuple(
        frozenset(rest[i] for i in range(l) if m >> i & 1) for m in family
    )
    return kernel_labels, packing
