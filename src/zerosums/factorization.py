"""Zero-sum predicates, irreducible factorizations, and unique-factorization tests.

Every subset scan runs on the ``GroupTable`` subset-sum primitive, over the
codes of a multiset's elements, which are encoded with no membership check:

* Membership tests read supports. S is zero-sum free exactly when no
  s_i has 0 in supp + s_i, supp the subset sums of s_1..s_{i-1}
  (``GroupTable.zero_sum_free``; as supp holds the empty sum 0, this is
  -s_i in supp, and supp + s_i is what the next support adds), and a
  zero-sum S is minimal exactly when S without its last element is zero-sum
  free (a proper zero-sum subset or its complement misses that element).
  Both cost O(l * rank(G)) shift-and-mask steps on |G|-bit masks at every
  size l, and read no negation.
* Subset listings walk the supports (``masks_with_sum``): from the first
  element on, an element may be left out when the sum still to be made is
  a subset sum of the ones after it, and taken when that sum minus its
  code is. Partial masks are grouped by the sum still to be made, so each
  element costs rank(G) steps per distinct sum plus list work per mask
  kept, and every mask kept is part of an answer. A zero-sum subset is a
  minimal block when it passes the minimality test above.

``is_ufim`` decides unique factorization at every size in O(l^2 * rank(G))
such steps, so no input is refused for its size. It peels one factorization:
the first s_i with 0 in (the zero-sum-free prefix before it) + s_i closes a
block (walk the prefix supports back from -s_i to pick the summands), which
is minimal because that prefix is zero-sum free; remove it and repeat. Then
it tests crossings, as ``search.maximize_over_ufims`` does: if
B_1..B_{j-1} factor uniquely, adding the atom B_j keeps that unless some
subset sum x != 0 of B_1..B_{j-1} lies in the subset sums of B_j. In a
unique-factorization multiset every zero-sum subsequence is a union of
blocks, so a crossing at any step refutes uniqueness. It also gives
``unique_factorization`` its second witness at any size: T from the earlier
blocks and U from B_j both sum to x, so T with B_j minus U is zero-sum, holds
part of B_j but not all of it, and peeling it and its complement gives a
factorization without the block B_j. Counting
factorizations (the definition) and the closure of the zero-sum subsets
under intersection (the classical characterization) stay as independent
oracles, which the test suite compares ``is_ufim`` with.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from . import config
from .errors import NotUniqueFactorizationError, PreconditionError, ResourceLimitError
from .groups import group_table
from .multisets import IndexedMultiset, IndexSubset, element_sum, sigma

__all__ = [
    "Factorization",
    "count_factorizations",
    "is_minimal_zero_sum",
    "is_ufim",
    "is_ufim_by_intersection",
    "is_zero_sum",
    "is_zero_sum_free",
    "unique_factorization",
    "zero_sum_subsets",
]


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


def _codes(
    ms: IndexedMultiset, require_zero_sum: str | None = None
) -> tuple[tuple[int, ...], list[int], "object"]:
    """Labels in order, element codes per position, and the group table.

    One read of ``ms.items``: elements of the group (encoded unchecked), in
    label order. With require_zero_sum, the name of the caller's test,
    PreconditionError is raised unless ms is a zero-sum multiset over G\\{0}.
    """
    labels, elements = tuple(zip(*ms.items)) or ((), ())
    group = ms.group
    if require_zero_sum:
        if group.zero() in elements:
            raise PreconditionError(
                f"{require_zero_sum} requires a multiset over G\\{{0}}"
            )
        if element_sum(group, elements) != group.zero():
            raise PreconditionError(f"{require_zero_sum} requires a zero-sum multiset")
    table = group_table(group)
    return labels, table.encode_all(elements), table


def masks_with_sum(t: int, codes: Sequence[int], table) -> list[int]:
    """Masks over codes, ascending, whose codes sum to t.

    The rule of ``_walk_back``, on every path and over the supports of the
    suffixes (supp_k: the subset sums of codes[k:]), so that positions are
    decided from the lowest bit up: position k may be left out when the sum
    still to be made is in supp_{k+1}, and taken when that sum minus
    codes[k] is. The partial masks of a level are grouped by the sum still
    to be made, so a level costs rank(G) shift-and-mask steps per distinct
    sum and list work per mask. A group's masks stay ascending: the ones
    that take position k all exceed the ones that leave it out. Each kept
    mask ends in a distinct answer, so more than ``config.SUBSET_OUTPUT_CAP``
    of them is refused at once.
    """
    neg, translate = table.neg, table.translate
    cap = config.SUBSET_OUTPUT_CAP
    supps = [1]
    for c in reversed(codes):
        supps.append(supps[-1] | translate(supps[-1], c))
    if not supps[-1] >> t & 1:
        return []
    supps.reverse()
    level = {t: [0]}
    for k, c in enumerate(codes):
        supp, bit, back = supps[k + 1], 1 << k, neg[c]
        below = {}
        for r, masks in level.items():
            s = translate(1 << r, back).bit_length() - 1
            if supp >> s & 1:
                # r -> r - c is one to one, so no s is met twice.
                below[s] = [m | bit for m in masks]
        for r, masks in level.items():
            if supp >> r & 1:
                masks += below.get(r, ())
                below[r] = masks
        if sum(map(len, below.values())) > cap:
            raise ResourceLimitError(f"more than {cap} zero-sum subsets")
        level = below
    return level[0]


def _zero_sum_masks(
    ms: IndexedMultiset, require_zero_sum: str | None = None
) -> tuple[tuple[int, ...], list[int], list[int], "object"]:
    """(labels, their codes, zero-sum masks ascending, group table)."""
    labels, codes, table = _codes(ms, require_zero_sum)
    if len(codes) > config.MAX_MULTISET_SIZE:
        raise ResourceLimitError(
            f"multiset size {len(codes)} exceeds cap {config.MAX_MULTISET_SIZE}"
        )
    return labels, codes, masks_with_sum(0, codes, table), table


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


def _walk_back(t: int, supps: Sequence[int], codes: Sequence[int],
               positions: Sequence[int], table) -> list[int]:
    """Indices k, descending, of codes at positions[k] that sum to t.

    supps[k] holds the subset sums of the codes at positions[:k], and t is in
    the last of them: an element is taken when t is not a sum of the ones
    before it, and t drops by its code.
    """
    neg, translate = table.neg, table.translate
    picked = []
    for k in range(len(supps) - 2, -1, -1):
        if not supps[k] >> t & 1:
            picked.append(k)
            t = translate(1 << t, neg[codes[positions[k]]]).bit_length() - 1
    return picked


def _peel(
    codes: Sequence[int], table
) -> tuple[list[list[int]], tuple[int, int] | None]:
    """One factorization of the zero-sum sequence codes into minimal blocks
    (ascending positions, in peel order), and its first crossing: (j, x)
    with x a nonzero subset sum of both block j and the blocks before it,
    or None when the factorization is the only one."""
    rotations = table.rotations
    rest = list(range(len(codes)))  # positions not in a block yet
    supps = [1]  # supps[k]: subset sums of the codes at rest[:k]
    blocks: list[list[int]] = []
    i = 0
    while i < len(rest):
        supp = m = supps[i]
        c = codes[rest[i]]
        for up, hi, down, lo in rotations[c]:
            m = (m << up) & hi | (m >> down) & lo
        # m is supp + c, which holds 0 exactly when -c is in supp.
        if not m & 1:
            supps.append(supp | m)
            i += 1
            continue
        picked = [i] + _walk_back(table.neg[c], supps, codes, rest, table)
        blocks.append([rest[k] for k in reversed(picked)])
        for k in picked:
            del rest[k]
        i = picked[-1]
        del supps[i + 1 :]
    supp, last = 1, len(blocks) - 1
    for j, block in enumerate(blocks):
        block_codes = [codes[p] for p in block]
        if j:
            crossing = supp & table.sumset(block_codes) & ~1
            if crossing:
                return blocks, (j, crossing.bit_length() - 1)
        if j < last:
            supp = table.minkowski(supp, block_codes)
    return blocks, None


def _subsequence_with_sum(
    t: int, positions: Sequence[int], codes: Sequence[int], table
) -> list[int]:
    """Positions, from positions, whose codes sum to t (a subset sum of them)."""
    supps = [1]
    for p in positions:
        supps.append(supps[-1] | table.translate(supps[-1], codes[p]))
    return [positions[k] for k in _walk_back(t, supps, codes, positions, table)]


def _second_factorization(
    codes: Sequence[int], blocks: list[list[int]], crossing: tuple[int, int], table
) -> list[list[int]]:
    """A factorization with no block equal to block j of the crossing (j, x).

    T, from the blocks before j, and U, from block j, both sum to x; so T
    with the rest of block j is zero-sum and so is its complement, and
    neither holds all of block j (U is proper and nonempty, as x is not 0).
    Peeling the two gives the factorization.
    """
    j, x = crossing
    earlier = [p for block in blocks[:j] for p in block]
    zero_sum = set(_subsequence_with_sum(x, earlier, codes, table))
    zero_sum |= set(blocks[j]) - set(_subsequence_with_sum(x, blocks[j], codes, table))
    out = []
    for part in (sorted(zero_sum), [p for p in range(len(codes)) if p not in zero_sum]):
        sub_blocks, _ = _peel([codes[p] for p in part], table)
        out += [[part[k] for k in block] for block in sub_blocks]
    return out


# -- predicates ---------------------------------------------------------------


def is_zero_sum(s: IndexedMultiset | IndexSubset) -> bool:
    return sigma(s) == s.group.zero()


def is_minimal_zero_sum(ms: IndexedMultiset) -> bool:
    """Zero-sum with no proper nonempty zero-sum subset; the empty set is not."""
    elements = [el for _, el in ms.items]
    if not elements or element_sum(ms.group, elements) != ms.group.zero():
        return False
    table = group_table(ms.group)
    return table.zero_sum_free(table.encode_all(elements)[:-1])


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
    labels, codes, masks, table = _zero_sum_masks(ms, "factorization")
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
    masks = _zero_sum_masks(ms, "unique-factorization test")[2]
    present = set(masks)
    for i in range(len(masks)):
        a = masks[i]
        for j in range(i + 1, len(masks)):
            if a & masks[j] not in present:
                return False
    return True


def is_ufim(ms: IndexedMultiset) -> bool:
    """Whether ms factors uniquely into minimal zero-sum blocks.

    Peels one factorization and tests its crossings, at every size.
    """
    _, codes, table = _codes(ms, "unique-factorization test")
    return _peel(codes, table)[1] is None


def unique_factorization(ms: IndexedMultiset) -> Factorization:
    """The single irreducible factorization; raises with two witnesses otherwise.

    The witnesses are the peeled factorization and, from its first
    crossing, one with no block equal to the crossed block; both are found
    at every size.
    """
    labels, codes, table = _codes(ms, "factorization")
    blocks, crossing = _peel(codes, table)

    def factorization(blocks: list[list[int]]) -> Factorization:
        return Factorization(
            ms, frozenset(frozenset(labels[p] for p in b) for b in blocks)
        )

    if crossing is None:
        return factorization(blocks)
    raise NotUniqueFactorizationError(
        f"{ms!r} admits several irreducible factorizations",
        first=factorization(blocks),
        second=factorization(_second_factorization(codes, blocks, crossing, table)),
    )
