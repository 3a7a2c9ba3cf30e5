"""A finite abelian group from the multiset of its element orders, by a scan.

It lists the abelian groups of the given order and returns the first whose
sorted element orders equal the input's. Applied to the element orders of a
map's kernel and image, it is the oracle for ``groups.kernel_structure`` and
``groups.quotient_structure``, which read both off the map's integer matrix.
"""

from __future__ import annotations

from typing import Sequence

from zerosums.errors import DomainError
from zerosums.groups import (
    FiniteAbelianGroup,
    abelian_groups_of_order,
    order_statistics,
)


def group_from_order_statistics(orders: Sequence[int]) -> FiniteAbelianGroup:
    stats = tuple(sorted(orders))
    for cand in abelian_groups_of_order(len(stats)):
        if order_statistics(cand) == stats:
            return cand
    raise DomainError("order statistics do not match any abelian group")
