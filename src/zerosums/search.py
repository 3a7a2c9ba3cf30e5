"""Branch-and-bound maximization over unions of atoms with unique factorization.

Candidates are nondecreasing sequences of catalog atoms. The search keeps the
support of a union S, the set of its subset sums, as an int bitmask over
element codes (``GroupTable.minkowski``). When S has unique factorization,
its zero-sum subsets are the unions of its blocks. Adding an atom A keeps
that property unless some T in S and proper nonempty U in A have
sum(T) = -sum(U). The proper nonempty subset sums P of A satisfy P = -P
(complements sum to minus each other, as A sums to zero) and 0 is not in P
(A is minimal). So A crosses a block boundary exactly when supp(S) meets P:
one AND against a mask precomputed per atom. The support itself is updated
only on accepted nodes. Pruning uses the product bound (block sizes multiply
to at most |G|), the block-count bound, and an optimistic value bound
against the incumbent. Measures are integers, cross numbers scaled by
exp(G); the value becomes a Fraction once, in the outcome.

Results are deterministic for any worker count: each root branch (choice of
first atom) is explored with its own incumbent seeded from the caller's
floor, and branch outcomes merge by (value, canonically least witness). A
node budget is spent by the branches serially in order, so a node-budgeted
run gives the same outcome for every worker count.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Literal

from .atoms import AtomCatalog
from .errors import DomainError
from .groups import FiniteAbelianGroup, GroupTable, group_table


@dataclass
class Budget:
    max_nodes: int | None = None
    max_seconds: float | None = None


@dataclass
class SearchStats:
    nodes: int = 0
    prunes: Counter = field(default_factory=Counter)
    millis: int = 0
    complete: bool = True


@dataclass
class SearchOutcome:
    value: Fraction
    witness_codes: tuple[int, ...]
    stats: SearchStats


class _BudgetHit(Exception):
    pass


# Per atom: length, codes, and the mask of its proper nonempty subset sums.
Rows = tuple[tuple[int, ...], tuple[tuple[int, ...], ...], tuple[int, ...]]

# Rows of the last (table, catalog) searched. N1 and K1 of one group share
# them; the identity checks keep a rebuilt table or catalog from reusing
# stale rows, and the next group replaces them.
_ROWS: tuple[GroupTable, AtomCatalog, Rows] | None = None


def _rows(table: GroupTable, catalog: AtomCatalog) -> Rows:
    """Per atom in (length, codes) order: length, codes, and the mask of its
    proper nonempty subset sums. The catalog must not be empty."""
    global _ROWS
    memo = _ROWS
    if memo is not None and memo[0] is table and memo[1] is catalog:
        return memo[2]
    code = table.code
    sumset = table.sumset
    rows = []
    for atom in catalog.atoms():
        codes = tuple([code[el] for el in atom])
        rows.append((len(atom), codes, sumset(codes) & ~1))
    rows.sort()  # (length, codes) is unique per atom
    lengths, codes, crossers = zip(*rows)
    _ROWS = (table, catalog, (lengths, codes, crossers))
    return lengths, codes, crossers


class _BudgetState:
    __slots__ = ("nodes_left", "deadline")

    def __init__(self, budget: Budget | None):
        self.nodes_left = budget.max_nodes if budget else None
        self.deadline = (
            time.monotonic() + budget.max_seconds
            if budget and budget.max_seconds is not None
            else None
        )

    def spend(self, amount: int = 1) -> None:
        if self.nodes_left is not None:
            self.nodes_left -= amount
            if self.nodes_left < 0:
                raise _BudgetHit
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise _BudgetHit


def maximize_over_ufims(
    group: FiniteAbelianGroup,
    catalog: AtomCatalog,
    kind: Literal["cross", "size"],
    floor_value: Fraction,
    floor_witness_codes: tuple[int, ...],
    budget: Budget | None = None,
    workers: int = 1,
) -> SearchOutcome:
    """Exact maximum of the measure over unique-factorization unions of atoms."""
    start = time.perf_counter()
    n = group.order
    stats = SearchStats()
    if n == 1 or catalog.count == 0:
        stats.millis = int((time.perf_counter() - start) * 1000)
        return SearchOutcome(floor_value, floor_witness_codes, stats)

    table = group_table(group)
    scale = group.exponent if kind == "cross" else 1
    scaled_floor = Fraction(floor_value) * scale
    if scaled_floor.denominator != 1:
        raise DomainError(
            f"floor value {floor_value} is not a multiple of 1/{scale}"
        )
    floor = scaled_floor.numerator
    lengths, codes, crossers = _rows(table, catalog)
    if kind == "size":
        measures = lengths
    else:  # cross numbers scaled by exp(G)
        weight = [scale // o for o in table.order]
        measures = [sum([weight[c] for c in block]) for block in codes]
    count = len(lengths)
    minkowski = table.minkowski
    m_cap = n.bit_length() - 1
    suffix_max = [0] * (count + 1)
    for i in range(count - 1, -1, -1):
        suffix_max[i] = max(measures[i], suffix_max[i + 1])
    budget_state = _BudgetState(budget)
    spend = budget_state.spend
    budgeted = budget is not None

    def run_branch(
        first: int,
    ) -> tuple[int, tuple[int, ...], tuple[int, int, int, int], bool]:
        nodes = crossing = product = bound = 0
        best_value = floor
        best_witness = tuple(sorted(floor_witness_codes))
        chosen: list[int] = []

        def accept(j: int, m: int, prod: int, value: int, supp: int):
            """Take atom j as block m + 1 and search the extensions."""
            nonlocal best_value, best_witness
            block = codes[j]
            chosen.extend(block)
            value += measures[j]
            if value >= best_value:
                witness = tuple(sorted(chosen))
                if value > best_value or witness < best_witness:
                    best_value = value
                    best_witness = witness
            dfs(j, m + 1, prod * lengths[j], value, minkowski(supp, block))
            del chosen[-len(block) :]

        def dfs(min_idx: int, m: int, prod: int, value: int, supp: int):
            nonlocal nodes, crossing, product, bound
            slots = min(m_cap - m, (n // prod).bit_length() - 1)
            if slots <= 0:
                return
            if value + slots * suffix_max[min_idx] < best_value:
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
                accept(j, m, prod, value, supp)

        finished = True
        try:
            spend()
            nodes += 1  # a single atom always has unique factorization
            accept(first, 0, 1, 0, 1)
        except _BudgetHit:
            finished = False
        # accept and dfs hold each other through their closures; dropping
        # the names frees the cycle, and the tables it holds, at once.
        del accept, dfs
        return best_value, best_witness, (nodes, crossing, product, bound), finished

    branches = range(count)
    if workers <= 1 or budget_state.nodes_left is not None:
        results = [run_branch(i) for i in branches]
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_branch, branches))

    best_value = floor
    best_witness = tuple(sorted(floor_witness_codes))
    totals = [0, 0, 0, 0]
    for value, witness, counts, ok in results:
        totals = [t + c for t, c in zip(totals, counts)]
        stats.complete = stats.complete and ok
        if value > best_value or (value == best_value and witness < best_witness):
            best_value = value
            best_witness = witness
    stats.nodes = totals[0]
    stats.prunes.update(
        {k: v for k, v in zip(("crossing", "product", "bound"), totals[1:]) if v}
    )
    stats.millis = int((time.perf_counter() - start) * 1000)
    return SearchOutcome(Fraction(best_value, scale), best_witness, stats)


def iter_ufims(
    group: FiniteAbelianGroup,
    catalog: AtomCatalog,
    max_blocks: int | None = None,
) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All unique-factorization unions of atoms, as tuples of code blocks.

    Visits every UFIM over the group whose blocks are in the catalog; the
    product and block-count caps are valid for all UFIMs, so with a complete
    catalog this is every UFIM. The empty union is not yielded.
    """
    n = group.order
    if n == 1 or catalog.count == 0:
        return
    table = group_table(group)
    lengths, codes, crossers = _rows(table, catalog)
    m_cap = n.bit_length() - 1
    if max_blocks is not None:
        m_cap = min(m_cap, max_blocks)

    blocks: list[tuple[int, ...]] = []

    def dfs(min_idx: int, m: int, prod: int, supp: int):
        for j in range(min_idx, len(lengths)):
            new_prod = prod * lengths[j]
            if new_prod > n:
                break
            if supp & crossers[j]:
                continue
            blocks.append(codes[j])
            yield tuple(blocks)
            if m + 1 < m_cap:
                yield from dfs(j, m + 1, new_prod, table.minkowski(supp, codes[j]))
            blocks.pop()

    yield from dfs(0, 0, 1, 1)
