"""Zero-sum predicates, irreducible factorizations, and unique-factorization tests.

Every subset scan runs on the ``GroupTable`` subset-sum primitive:

* Membership tests read supports. S is zero-sum free exactly when no
  s_i has -s_i among the subset sums of s_1..s_{i-1}
  (``GroupTable.zero_sum_free``), and a zero-sum S is minimal exactly when
  S without its last element is zero-sum free (a proper zero-sum subset or
  its complement misses that element). Both cost O(l * rank(G))
  shift-and-mask steps on |G|-bit masks at every size l.
* Subset listings meet in the middle: ``GroupTable.subset_sums`` gives the
  sum of every subset of each half, indexed by mask, and a zero-sum subset
  joins a subset of the first half with one of the second half of the
  opposite sum. A zero-sum subset is a minimal block when it passes the
  minimality test above.

``is_ufim`` decides unique factorization at every size in O(l^2 * rank(G))
such steps, so no input is refused for its size. It peels one factorization:
the first s_i with -s_i a subset sum of the zero-sum-free prefix before it
closes a block (walk the prefix supports back to pick the summands), which
is minimal because that prefix is zero-sum free; remove it and repeat. Then
it tests crossings, as ``search.maximize_over_ufims`` does: if
B_1..B_{j-1} factor uniquely, adding the atom B_j keeps that unless some
subset sum of B_1..B_{j-1} lies in the nonzero subset sums of B_j. In a
unique-factorization multiset every zero-sum subsequence is a union of
blocks, so a crossing at any step refutes uniqueness. Counting
factorizations (the definition) and the closure of the zero-sum subsets
under intersection (the classical characterization) stay as independent
oracles; verification mode checks ``is_ufim`` against the latter up to
``config.DIRECT_SCAN_LIMIT`` elements.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

from . import config
from .errors import (
    NotUniqueFactorizationError,
    OracleDisagreementError,
    PreconditionError,
    ResourceLimitError,
)
from .groups import group_table, masks_with_sum
from .multisets import IndexedMultiset, IndexSubset, sigma


@dataclass(frozen=True)
class Factorization:
    """A partition of a multiset's labels into minimal zero-sum blocks."""

    multiset: IndexedMultiset
    blocks: frozenset[frozenset[int]]

    @property
    def block_count(self) -> int:
        return len(self.blocks)

    def blocks_sorted(self) -> list[tuple[int, ...]]:
        """Blocks as label tuples, ordered by (elements, labels)."""
        def keyed(block: frozenset[int]) -> tuple:
            labels = tuple(sorted(block))
            els = tuple(sorted(self.multiset.element_at(l) for l in labels))
            return (els, labels)
        return [tuple(sorted(b)) for b in sorted(self.blocks, key=keyed)]

    def to_lists(self) -> list[list[list[int]]]:
        """Blocks as lists of residue vectors, canonically ordered."""
        out = []
        for block in self.blocks_sorted():
            els = sorted(self.multiset.element_at(l) for l in block)
            out.append([list(e) for e in els])
        return out


# -- low-level mask helpers --------------------------------------------------


def _codes(ms: IndexedMultiset) -> tuple[list[int], list[int], "object"]:
    """Sorted labels, element codes per position, and the group table."""
    table = group_table(ms.group)
    labels = sorted(ms.labels)
    entry = ms.entries
    codes = table.encode_all([entry[l] for l in labels])
    return labels, codes, table


def _zero_sum_masks_mitm(codes: Sequence[int], table, cap: int) -> list[int]:
    """Zero-sum masks, ascending, by meet-in-the-middle of two halves."""
    h = len(codes) // 2
    neg = table.neg
    lo = table.subset_sums(codes[:h])
    hi = table.subset_sums(codes[h:])
    out: list[int] = []
    for s in set(lo):
        partners = [b << h for b in masks_with_sum(hi, neg[s])]
        if not partners:
            continue
        for a in masks_with_sum(lo, s):
            out += [a | b for b in partners]
            if len(out) > cap:
                raise ResourceLimitError(f"more than {cap} zero-sum subsets")
    out.sort()
    return out


def _zero_sum_masks(
    ms: IndexedMultiset,
) -> tuple[list[int], list[int], list[int], "object"]:
    """(sorted labels, their codes, zero-sum masks ascending, group table)."""
    labels, codes, table = _codes(ms)
    if len(codes) > config.MAX_MULTISET_SIZE:
        raise ResourceLimitError(
            f"multiset size {len(codes)} exceeds cap {config.MAX_MULTISET_SIZE}"
        )
    masks = _zero_sum_masks_mitm(codes, table, config.SUBSET_OUTPUT_CAP)
    return labels, codes, masks, table


def _minimal_masks(zs_masks: Sequence[int], codes: Sequence[int], table) -> list[int]:
    """Nonzero zero-sum masks that are minimal: without their top element,
    zero-sum free."""
    zero_sum_free = table.zero_sum_free
    out = []
    for m in zs_masks:
        if not m:
            continue
        rest = m ^ (1 << (m.bit_length() - 1))
        sub = []
        while rest:
            low = rest & -rest
            sub.append(codes[low.bit_length() - 1])
            rest ^= low
        if zero_sum_free(sub):
            out.append(m)
    return out


# -- unique factorization by peeling ----------------------------------------


def _peel(codes: Sequence[int], table) -> tuple[list[list[int]], bool]:
    """One factorization of the zero-sum sequence codes into minimal blocks
    (ascending positions, in peel order), and whether it is the only one."""
    neg, translate = table.neg, table.translate
    rest = list(range(len(codes)))  # positions not in a block yet
    supps = [1]  # supps[k]: subset sums of the codes at rest[:k]
    blocks: list[list[int]] = []
    i = 0
    while i < len(rest):
        supp, c = supps[i], codes[rest[i]]
        t = neg[c]
        if not supp >> t & 1:
            supps.append(supp | translate(supp, c))
            i += 1
            continue
        picked = [i]
        for k in range(i - 1, -1, -1):
            if not supps[k] >> t & 1:
                picked.append(k)
                t = translate(1 << t, neg[codes[rest[k]]]).bit_length() - 1
        blocks.append([rest[k] for k in reversed(picked)])
        for k in picked:
            del rest[k]
        i = picked[-1]
        del supps[i + 1 :]
    supp, last = 1, len(blocks) - 1
    for j, block in enumerate(blocks):
        block_codes = [codes[p] for p in block]
        if j and supp & table.sumset(block_codes) & ~1:
            return blocks, False
        if j < last:
            supp = table.minkowski(supp, block_codes)
    return blocks, True


# -- predicates ---------------------------------------------------------------


def is_zero_sum(s: IndexedMultiset | IndexSubset) -> bool:
    if isinstance(s, IndexSubset):
        return sigma(s) == s.multiset.group.zero()
    return sigma(s) == s.group.zero()


def _require_zero_sum(ms: IndexedMultiset, what: str) -> None:
    if ms.has_zero:
        raise PreconditionError(f"{what} requires a multiset over G\\{{0}}")
    if not is_zero_sum(ms):
        raise PreconditionError(f"{what} requires a zero-sum multiset")


def is_minimal_zero_sum(ms: IndexedMultiset) -> bool:
    """Zero-sum with no proper nonempty zero-sum subset; the empty set is not."""
    if ms.size == 0 or not is_zero_sum(ms):
        return False
    _, codes, table = _codes(ms)
    return table.zero_sum_free(codes[:-1])


def is_zero_sum_free(ms: IndexedMultiset) -> bool:
    """No nonempty subset sums to zero; vacuously true for the empty multiset."""
    _, codes, table = _codes(ms)
    return table.zero_sum_free(codes)


def zero_sum_subsets(ms: IndexedMultiset) -> list[IndexSubset]:
    """All index subsets summing to zero, including the empty one."""
    labels, _, masks, _ = _zero_sum_masks(ms)
    out = []
    for mask in masks:
        sel = frozenset(labels[i] for i in range(len(labels)) if mask >> i & 1)
        out.append(IndexSubset(ms, sel))
    return out


# -- factorization counting ---------------------------------------------------


def _factorization_context(ms: IndexedMultiset):
    _require_zero_sum(ms, "factorization")
    labels, codes, masks, table = _zero_sum_masks(ms)
    return labels, _minimal_masks(masks, codes, table)


def _iter_block_partitions(
    minimal: Sequence[int], full: int
) -> Iterator[tuple[int, ...]]:
    """Partitions of the full mask into minimal zero-sum blocks.

    Branching always covers the lowest unassigned position, so each
    partition is produced exactly once.
    """
    def rec(remaining: int) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield ()
            return
        pivot = remaining & -remaining
        for m in minimal:
            if m & pivot and m & remaining == m:
                for rest in rec(remaining ^ m):
                    yield (m,) + rest
    return rec(full)


def count_factorizations(ms: IndexedMultiset, cap: int | None = None) -> int:
    """Number of distinct irreducible factorizations; counting stops at cap."""
    labels, minimal = _factorization_context(ms)
    count = 0
    for _ in _iter_block_partitions(minimal, (1 << len(labels)) - 1):
        count += 1
        if cap is not None and count >= cap:
            return count
    return count


def is_ufim_by_intersection(ms: IndexedMultiset) -> bool:
    """Unique factorization via closure of zero-sum subsets under intersection."""
    _require_zero_sum(ms, "unique-factorization test")
    masks = _zero_sum_masks(ms)[2]
    present = set(masks)
    for i in range(len(masks)):
        a = masks[i]
        for j in range(i + 1, len(masks)):
            if a & masks[j] not in present:
                return False
    return True


def is_ufim(ms: IndexedMultiset, verify: bool | None = None) -> bool:
    """Whether ms factors uniquely into minimal zero-sum blocks.

    Peels one factorization and tests its crossings, at every size. With
    verification on, the answer is cross-checked against the
    intersection-closure characterization up to ``config.DIRECT_SCAN_LIMIT``
    elements.
    """
    _require_zero_sum(ms, "unique-factorization test")
    if verify is None:
        verify = config.VERIFICATION_MODE
    _, codes, table = _codes(ms)
    answer = _peel(codes, table)[1]
    if verify and ms.size <= config.DIRECT_SCAN_LIMIT:
        other = is_ufim_by_intersection(ms)
        if other != answer:
            raise OracleDisagreementError(
                f"unique-factorization algorithms disagree on {ms!r}: "
                f"peeling={answer}, intersection={other}"
            )
    return answer


def unique_factorization(ms: IndexedMultiset) -> Factorization:
    """The single irreducible factorization; raises with two witnesses otherwise."""
    _require_zero_sum(ms, "factorization")
    labels, codes, table = _codes(ms)
    blocks, unique = _peel(codes, table)
    if unique:
        return Factorization(
            ms, frozenset(frozenset(labels[p] for p in b) for b in blocks)
        )
    labels, minimal = _factorization_context(ms)

    def to_blocks(masks: tuple[int, ...]) -> frozenset[frozenset[int]]:
        return frozenset(
            frozenset(labels[i] for i in range(len(labels)) if m >> i & 1)
            for m in masks
        )

    first, second = itertools.islice(
        _iter_block_partitions(minimal, (1 << len(labels)) - 1), 2
    )
    raise NotUniqueFactorizationError(
        f"{ms!r} admits several irreducible factorizations",
        first=Factorization(ms, to_blocks(first)),
        second=Factorization(ms, to_blocks(second)),
    )
