"""Reference implementations on subset-sum count vectors.

Direct forms of the atom enumeration and the unique-factorization
branch-and-bound: they carry the full vector of subset-sum counts per node
and use Fraction measures, where the library keeps only the support of the
subset sums and integer measures. The tests require both to agree on
catalogs (crossing masks included), values, witnesses, node counts and
prune counts. ``iter_ufims`` lists every unique-factorization union of
catalog atoms the same way, for tests that check a property on all of them.
"""

from __future__ import annotations

import time
from fractions import Fraction
from typing import Iterator, NamedTuple

from zerosums.atoms import AtomCatalog
from zerosums.groups import FiniteAbelianGroup, group_table
from zerosums.search import Budget, SearchStats

from subset_scan_reference import tables


class Outcome(NamedTuple):
    """A reference search's maximizer: its value, its codes and the
    statistics of finding it."""

    value: Fraction
    witness_codes: tuple[int, ...]
    stats: SearchStats


class _BudgetHit(Exception):
    pass


class _BudgetState:
    """Nodes left and the deadline of one search; ``spend`` raises once
    either is passed."""

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


def extend_counts(cnt: list[int], codes, add) -> list[int]:
    for c in codes:
        prev = cnt
        cnt = prev[:]
        for x, v in enumerate(prev):
            if v:
                cnt[add[x][c]] += v
    return cnt


def enumerate_atoms(group: FiniteAbelianGroup) -> AtomCatalog:
    n = group.order
    if n == 1:
        return AtomCatalog(group, (), ())
    add, neg, _ = tables(group)
    found: list[tuple[int, tuple[int, ...], int]] = []
    prefix: list[int] = []

    def dfs(start: int, running: int, cnt: list[int]) -> None:
        depth = len(prefix)
        want = neg[running]
        for e in range(start, n):
            if e == want and want != 0 and depth + 1 >= 2:
                # Proper nonempty subset sums: every sum reached, but for the
                # empty and the full subset at 0.
                sums = extend_counts(cnt, (e,), add)
                mask = sum(1 << x for x, v in enumerate(sums) if v and x)
                found.append((depth + 1, tuple(prefix + [e]), mask))
            if depth + 1 <= n - 1 and cnt[neg[e]] == 0:
                prefix.append(e)
                dfs(e, add[running][e], extend_counts(cnt, (e,), add))
                prefix.pop()

    root = [0] * n
    root[0] = 1
    dfs(1, 0, root)
    found.sort()
    _, codes, sums = zip(*found)
    return AtomCatalog(group, codes, sums)


def maximize_over_ufims(
    group: FiniteAbelianGroup,
    catalog: AtomCatalog,
    kind: str,
    floor_value: Fraction,
    floor_witness_codes: tuple[int, ...],
    budget: Budget | None = None,
) -> Outcome:
    """Serial count-vector branch-and-bound; same visit order and counters."""
    n = group.order
    stats = SearchStats()
    if n == 1 or catalog.count == 0:
        return Outcome(floor_value, floor_witness_codes, stats)
    table = group_table(group)
    add = tables(group)[0]
    entries = []
    for atom in catalog.atoms():
        codes = tuple(table.encode(el) for el in atom)
        if kind == "cross":
            measure = sum((Fraction(1, table.order[c]) for c in codes), Fraction(0))
        else:
            measure = Fraction(len(codes))
        entries.append((len(codes), codes, measure))
    entries.sort(key=lambda e: (e[0], e[1]))
    m_cap = n.bit_length() - 1
    suffix_max = [Fraction(0)] * (len(entries) + 1)
    for i in range(len(entries) - 1, -1, -1):
        suffix_max[i] = max(entries[i][2], suffix_max[i + 1])
    budget_state = _BudgetState(budget)
    best = [floor_value, tuple(sorted(floor_witness_codes))]
    chosen: list[int] = []

    def dfs(min_idx: int, m: int, prod: int, value: Fraction, cnt: list[int]):
        slots = min(m_cap - m, (n // prod).bit_length() - 1)
        if slots <= 0:
            return
        if value + slots * suffix_max[min_idx] < best[0]:
            stats.prunes["bound"] += 1
            return
        for j in range(min_idx, len(entries)):
            length, codes, measure = entries[j]
            if prod * length > n:
                stats.prunes["product"] += 1
                break
            nxt = extend_counts(cnt, codes, add)
            budget_state.spend()
            stats.nodes += 1
            if nxt[0] != 1 << (m + 1):
                stats.prunes["crossing"] += 1
                continue
            chosen.extend(codes)
            extended = value + measure
            witness = tuple(sorted(chosen))
            if extended > best[0] or (extended == best[0] and witness < best[1]):
                best[:] = [extended, witness]
            dfs(j, m + 1, prod * length, extended, nxt)
            del chosen[len(chosen) - length :]

    root = [0] * n
    root[0] = 1
    try:
        dfs(0, 0, 1, Fraction(0), root)
    except _BudgetHit:
        stats.complete = False
    return Outcome(best[0], best[1], stats)


def iter_ufims(
    group: FiniteAbelianGroup,
    catalog: AtomCatalog,
) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All unique-factorization unions of atoms, as tuples of code blocks.

    Visits every UFIM over the group whose blocks are in the catalog; the
    product and block-count caps are valid for all UFIMs, so with a complete
    catalog this is every UFIM. The empty union is not yielded. A union of
    m blocks has unique factorization exactly when 0 is reached by 2^m
    subsets, the unions of its blocks.
    """
    n = group.order
    if n == 1 or catalog.count == 0:
        return
    table = group_table(group)
    add = tables(group)[0]
    blocks = sorted(
        (len(atom), tuple(table.encode(el) for el in atom)) for atom in catalog.atoms()
    )
    m_cap = n.bit_length() - 1
    chosen: list[tuple[int, ...]] = []

    def dfs(min_idx: int, m: int, prod: int, cnt: list[int]):
        for j in range(min_idx, len(blocks)):
            length, codes = blocks[j]
            if prod * length > n:
                break
            nxt = extend_counts(cnt, codes, add)
            if nxt[0] != 1 << (m + 1):
                continue
            chosen.append(codes)
            yield tuple(chosen)
            if m + 1 < m_cap:
                yield from dfs(j, m + 1, prod * length, nxt)
            chosen.pop()

    root = [0] * n
    root[0] = 1
    yield from dfs(0, 0, 1, root)
