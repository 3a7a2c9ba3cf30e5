"""Zero-sum predicates, irreducible factorizations, and unique-factorization tests.

Every subset scan runs on the ``GroupTable`` subset-sum primitive:

* Membership tests read supports. S is zero-sum free exactly when no
  s_i has -s_i among the subset sums of s_1..s_{i-1}
  (``GroupTable.zero_sum_free``), and a zero-sum S is minimal exactly when
  S without its last element is zero-sum free (a proper zero-sum subset or
  its complement misses that element). Both cost O(l * |G| / 8) lookups at
  every size l.
* Subset listings read ``GroupTable.subset_sums``, the sum of every subset
  indexed by mask: directly up to ``config.DIRECT_SCAN_LIMIT`` elements, and
  by meet-in-the-middle over two halves beyond it. A zero-sum subset is a
  minimal block when it passes the minimality test above.

Two independent algorithms decide whether a zero-sum multiset factors
uniquely into minimal zero-sum blocks: counting factorizations directly
(the definition) and checking that the zero-sum subsets are closed under
intersection (the classical characterization). Verification mode runs both
and raises on disagreement. Multisets past the direct-scan limit are
decided by an equivalent closure test on multiplicity vectors, which works
when they have few distinct elements; when it gives up, an atom is still
answered (it factors uniquely into itself).
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
    codes = [table.encode(entry[l]) for l in labels]
    return labels, codes, table


def _zero_sum_masks_direct(codes: Sequence[int], table, cap: int) -> list[int]:
    """All subset masks with zero sum, read from the full subset-sum table."""
    sums = table.subset_sums(codes)
    if sums.count(0) > cap:
        raise ResourceLimitError("too many zero-sum subsets")
    return masks_with_sum(sums, 0)


def _zero_sum_masks_mitm(codes: Sequence[int], table, cap: int) -> list[int]:
    """Zero-sum masks by meet-in-the-middle, for sizes past the scan limit."""
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
    if len(codes) <= config.DIRECT_SCAN_LIMIT:
        masks = _zero_sum_masks_direct(codes, table, config.SUBSET_OUTPUT_CAP)
    else:
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


# -- multiplicity-vector route ------------------------------------------------


def _distinct_counts(ms: IndexedMultiset) -> tuple[list[int], list[int], "object"]:
    """Distinct element codes (ascending) with multiplicities."""
    table = group_table(ms.group)
    counts: dict[int, int] = {}
    for _, el in ms.items:
        c = table.encode(el)
        counts[c] = counts.get(c, 0) + 1
    values = sorted(counts)
    return values, [counts[v] for v in values], table


def _zero_sum_vectors(
    values: Sequence[int], counts: Sequence[int], table
) -> list[tuple[int, ...]]:
    """All multiplicity vectors x (0 <= x_i <= c_i) whose weighted sum is 0."""
    add = table.add
    d = len(values)
    out: list[tuple[int, ...]] = []
    budget = [config.VECTOR_CAP]

    def rec(i: int, s: int, prefix: list[int]) -> None:
        budget[0] -= 1
        if budget[0] < 0:
            raise ResourceLimitError("too many multiplicity vectors")
        if i == d:
            if s == 0:
                out.append(tuple(prefix))
            return
        v = values[i]
        cur = s
        for x in range(counts[i] + 1):
            prefix.append(x)
            rec(i + 1, cur, prefix)
            prefix.pop()
            cur = add[cur][v]

    rec(0, 0, [])
    return out


def _ufim_by_multiplicity(ms: IndexedMultiset) -> bool:
    """Intersection-closure test expressed on multiplicity vectors.

    Index subsets realizing zero-sum vectors x and y intersect in every
    vector of the box [max(0, x+y-c), min(x, y)]; closure holds exactly when
    each such box is a single zero-sum point.
    """
    values, counts, table = _distinct_counts(ms)
    vectors = _zero_sum_vectors(values, counts, table)
    vecset = set(vectors)
    d = len(values)
    for a in range(len(vectors)):
        x = vectors[a]
        for b in range(a, len(vectors)):
            y = vectors[b]
            meet = []
            for i in range(d):
                lo = x[i] + y[i] - counts[i]
                if lo < 0:
                    lo = 0
                hi = x[i] if x[i] < y[i] else y[i]
                if lo != hi:
                    return False
                meet.append(hi)
            if tuple(meet) not in vecset:
                return False
    return True


# -- predicates ---------------------------------------------------------------


def is_zero_sum(s: IndexedMultiset | IndexSubset) -> bool:
    if isinstance(s, IndexSubset):
        return sigma(s) == s.multiset.group.zero()
    return sigma(s) == s.group.zero()


def _require_over_nonzero(ms: IndexedMultiset, what: str) -> None:
    if ms.has_zero:
        raise PreconditionError(f"{what} requires a multiset over G\\{{0}}")


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
    _require_over_nonzero(ms, "factorization")
    if not is_zero_sum(ms):
        raise PreconditionError("factorization requires a zero-sum multiset")
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
    if ms.size == 0:
        _factorization_context(ms)
        return 1
    labels, minimal = _factorization_context(ms)
    full = (1 << len(labels)) - 1
    count = 0
    for _ in _iter_block_partitions(minimal, full):
        count += 1
        if cap is not None and count >= cap:
            return count
    return count


def is_ufim_by_intersection(ms: IndexedMultiset) -> bool:
    """Unique factorization via closure of zero-sum subsets under intersection."""
    _require_over_nonzero(ms, "unique-factorization test")
    if not is_zero_sum(ms):
        raise PreconditionError("unique-factorization test requires zero sum")
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

    With verification on, the counting answer is cross-checked against the
    intersection-closure characterization.
    """
    _require_over_nonzero(ms, "unique-factorization test")
    if not is_zero_sum(ms):
        raise PreconditionError("unique-factorization test requires zero sum")
    if verify is None:
        verify = config.VERIFICATION_MODE
    if ms.size > config.DIRECT_SCAN_LIMIT:
        try:
            return _ufim_by_multiplicity(ms)
        except ResourceLimitError:
            # An atom is its own unique factorization; the support test
            # answers that at any size.
            if is_minimal_zero_sum(ms):
                return True
            raise
    answer = count_factorizations(ms, cap=2) == 1
    if verify:
        other = is_ufim_by_intersection(ms)
        if other != answer:
            raise OracleDisagreementError(
                f"unique-factorization algorithms disagree on {ms!r}: "
                f"counting={answer}, intersection={other}"
            )
    return answer


def unique_factorization(ms: IndexedMultiset) -> Factorization:
    """The single irreducible factorization; raises with two witnesses otherwise."""
    if ms.size == 0:
        _factorization_context(ms)
        return Factorization(ms, frozenset())
    labels, minimal = _factorization_context(ms)
    full = (1 << len(labels)) - 1

    def to_blocks(masks: tuple[int, ...]) -> frozenset[frozenset[int]]:
        return frozenset(
            frozenset(labels[i] for i in range(len(labels)) if m >> i & 1)
            for m in masks
        )

    found = list(itertools.islice(_iter_block_partitions(minimal, full), 2))
    if len(found) > 1:
        raise NotUniqueFactorizationError(
            f"{ms!r} admits several irreducible factorizations",
            first=Factorization(ms, to_blocks(found[0])),
            second=Factorization(ms, to_blocks(found[1])),
        )
    return Factorization(ms, to_blocks(found[0]))
