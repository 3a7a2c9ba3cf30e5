"""Reference unique-factorization test on multiplicity vectors.

An independent form of the intersection-closure characterization: index
subsets are grouped by how many copies of each distinct element they take,
so the test enumerates zero-sum multiplicity vectors instead of subsets.
The library peels one factorization and tests its crossings instead; the
tests require both to agree. The enumeration is exponential in the number
of distinct elements, so it gives up past ``config.VECTOR_CAP`` vectors.
"""

from __future__ import annotations

from typing import Sequence

from zerosums import config
from zerosums.errors import ResourceLimitError
from zerosums.groups import group_table

from subset_scan_reference import tables


def distinct_counts(ms) -> tuple[list[int], list[int], object]:
    """Distinct element codes (ascending) with multiplicities."""
    table = group_table(ms.group)
    counts: dict[int, int] = {}
    for _, el in ms.items:
        c = table.encode(el)
        counts[c] = counts.get(c, 0) + 1
    values = sorted(counts)
    return values, [counts[v] for v in values], table


def zero_sum_vectors(
    values: Sequence[int], counts: Sequence[int], table
) -> list[tuple[int, ...]]:
    """All multiplicity vectors x (0 <= x_i <= c_i) whose weighted sum is 0."""
    add = tables(table.group)[0]
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


def ufim_by_multiplicity(ms) -> bool:
    """Intersection-closure test expressed on multiplicity vectors.

    Index subsets realizing zero-sum vectors x and y intersect in every
    vector of the box [max(0, x+y-c), min(x, y)]; closure holds exactly when
    each such box is a single zero-sum point.
    """
    values, counts, table = distinct_counts(ms)
    vectors = zero_sum_vectors(values, counts, table)
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
