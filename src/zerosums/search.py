"""Branch-and-bound maximization over unions of atoms with unique factorization.

Candidates are nondecreasing sequences of catalog atoms, in catalog order.
The search keeps the support of a union S, the set of its subset sums, as an
int bitmask over element codes (``GroupTable.minkowski``). When S has unique
factorization, its zero-sum subsets are the unions of its blocks. Adding an
atom A keeps that property unless some T in S and proper nonempty U in A
have sum(T) = -sum(U). The proper nonempty subset sums P of A satisfy
P = -P (complements sum to minus each other, as A sums to zero) and 0 is not
in P (A is minimal). So A crosses a block boundary exactly when supp(S)
meets P: one AND against the atom's mask in ``AtomCatalog.sums``, which the
enumeration records, so the search keeps no per-atom tables or memo of its
own. The support itself is updated only on accepted nodes. Pruning uses the
product bound (block sizes multiply to at most |G|, which also bounds the
number of blocks still to come, as each has at least 2 elements) and an
optimistic value bound against the incumbent. Measures are integer sums of
code weights (``atoms.code_weights``). The outcome is the maximizer's codes
and the search statistics; the caller works out its value.

The search is seeded with a floor witness, a union the caller already
holds, and its floor value is that witness's weight sum. The root branches
(choices of first atom) run one after another, in order, on one thread.
Each starts from its own incumbent seeded from the floor witness, not from
the best value found so far, so the nodes a branch visits and prunes do not
depend on the branches before it; the outcome is the best (value,
canonically least witness) over the branches. A budget stops the search at
the first branch that exhausts it.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Literal, Sequence

from .atoms import AtomCatalog, code_weights
from .errors import DomainError
from .groups import FiniteAbelianGroup, group_table

__all__ = ["Budget"]


@dataclass
class Budget:
    """Limits on one search; None is no limit, and a limit is at least 0.
    The node limit is an int: the search stops when its count equals it."""

    max_nodes: int | None = None
    max_seconds: float | None = None

    def __post_init__(self) -> None:
        if self.max_nodes is not None and not (
            isinstance(self.max_nodes, int) and self.max_nodes >= 0
        ):
            raise DomainError(
                f"node budget must be at least 0 and an int, got {self.max_nodes!r}"
            )
        if self.max_seconds is not None and not self.max_seconds >= 0:
            raise DomainError(f"time budget must be at least 0, got {self.max_seconds}")


@dataclass
class SearchStats:
    nodes: int = 0
    prunes: Counter = field(default_factory=Counter)
    complete: bool = True


@dataclass
class SearchOutcome:
    witness_codes: tuple[int, ...]
    stats: SearchStats


class _BudgetHit(Exception):
    pass


def maximize_over_ufims(
    group: FiniteAbelianGroup,
    catalog: AtomCatalog,
    kind: Literal["cross", "size"],
    floor_witness_codes: Sequence[int],
    budget: Budget | None = None,
) -> SearchOutcome:
    """The least maximizer of the measure over unique-factorization unions
    of atoms, or the floor witness when no union beats it."""
    n = group.order
    stats = SearchStats()
    weight = code_weights(group, kind)[0]
    floor_witness = tuple(sorted(floor_witness_codes))
    floor = sum([weight[c] for c in floor_witness])
    if n == 1 or catalog.count == 0:
        return SearchOutcome(floor_witness, stats)

    table = group_table(group)
    table.fill_all()  # the search reads every code
    codes, crossers = catalog.codes, catalog.sums
    lengths = [len(block) for block in codes]
    measures = [sum([weight[c] for c in block]) for block in codes]
    count = len(codes)
    minkowski = table.minkowski
    suffix_max = [0] * (count + 1)
    for i in range(count - 1, -1, -1):
        suffix_max[i] = max(measures[i], suffix_max[i + 1])
    budgeted = budget is not None
    max_nodes = budget.max_nodes if budgeted else None
    deadline = (
        time.monotonic() + budget.max_seconds
        if budgeted and budget.max_seconds is not None
        else None
    )
    best_value, best_witness = floor, floor_witness
    nodes = crossing = product = bound = 0
    chosen: list[int] = []

    def spend() -> None:
        """Refuse the next node once the budget is spent."""
        if nodes == max_nodes or (
            deadline is not None and time.monotonic() > deadline
        ):
            raise _BudgetHit

    def accept(j: int, prod: int, value: int, supp: int):
        """Take atom j as the next block and search the extensions."""
        nonlocal inc_value, inc_witness
        block = codes[j]
        chosen.extend(block)
        value += measures[j]
        if value >= inc_value:
            witness = tuple(sorted(chosen))
            if value > inc_value or witness < inc_witness:
                inc_value = value
                inc_witness = witness
        dfs(j, prod * lengths[j], value, minkowski(supp, block))
        del chosen[-len(block) :]

    def dfs(min_idx: int, prod: int, value: int, supp: int):
        nonlocal nodes, crossing, product, bound
        # Blocks left room for: each has at least 2 elements, and the sizes
        # of all blocks multiply to at most |G|.
        slots = (n // prod).bit_length() - 1
        if slots <= 0:
            return
        if value + slots * suffix_max[min_idx] < inc_value:
            bound += 1
            return
        for j in range(min_idx, count):
            if prod * lengths[j] > n:
                product += 1
                break
            if budgeted:
                spend()
            nodes += 1
            if supp & crossers[j]:
                crossing += 1
                continue
            accept(j, prod, value, supp)

    for first in range(count):
        inc_value, inc_witness = floor, floor_witness
        try:
            spend()
            nodes += 1  # a single atom always has unique factorization
            accept(first, 1, 0, 1)
        except _BudgetHit:
            stats.complete = False
        if inc_value > best_value or (
            inc_value == best_value and inc_witness < best_witness
        ):
            best_value = inc_value
            best_witness = inc_witness
        if not stats.complete:
            break
    # accept and dfs hold each other through their closures; dropping the
    # names frees the cycle, and the tables it holds, at once.
    del accept, dfs
    stats.nodes = nodes
    prunes = {"crossing": crossing, "product": product, "bound": bound}
    stats.prunes.update({k: v for k, v in prunes.items() if v})
    return SearchOutcome(best_witness, stats)
