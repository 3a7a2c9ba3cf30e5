"""The candidate scan that ``groups.group_from_order_statistics`` replaced.

It lists the abelian groups of the given order and returns the first whose
sorted element orders equal the input's; the library reads the one
candidate off per-prime counts. The tests require both to agree.
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
