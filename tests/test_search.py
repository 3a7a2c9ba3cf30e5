"""The subset-sum-support kernel against plain sets and the count-vector
reference searches."""

import gc
import itertools
import weakref
from fractions import Fraction

import count_vector_reference as reference
import pytest
import subset_scan_reference
from hypothesis import assume, given
from hypothesis import strategies as st

from zerosums import constructions
from zerosums.atoms import (
    AtomCatalog,
    atom_catalog,
    clear_catalog_memory,
    code_weights,
    enumerate_atoms,
)
from zerosums.groups import (
    abelian_groups_up_to,
    group_table,
    normalize_group,
    trivial_group,
)
from zerosums.invariants import k1, narkiewicz_n1, to_record
from zerosums.multisets import cross_number
from zerosums.search import Budget, maximize_over_ufims


def G(*moduli):
    return normalize_group(list(moduli))


GROUPS_TO_64 = abelian_groups_up_to(64)


@st.composite
def tables(draw):
    """Group tables of order up to 64 (masks of up to eight bytes), cyclic
    and non-cyclic alike."""
    return group_table(draw(st.sampled_from(GROUPS_TO_64)))


def elements_of(mask):
    return {c for c in range(mask.bit_length()) if mask >> c & 1}


def mask_of(codes):
    return sum(1 << c for c in set(codes))


def _add(table):
    """x + y over codes, from the pair-by-pair reference table."""
    return subset_scan_reference.tables(table.group)[0]


def subset_sums(table, codes):
    add = _add(table)
    sums = {0}
    for c in codes:
        sums |= {add[s][c] for s in sums}
    return sums


@given(st.data())
def test_translate_matches_set_arithmetic(data):
    table = data.draw(tables())
    mask = data.draw(st.integers(0, (1 << table.n) - 1))
    g = data.draw(st.integers(0, table.n - 1))
    expected = {_add(table)[x][g] for x in elements_of(mask)}
    assert table.translate(mask, g) == mask_of(expected)


@given(st.data())
def test_sumset_and_minkowski_match_set_arithmetic(data):
    table = data.draw(tables())
    codes = data.draw(st.lists(st.integers(0, table.n - 1), max_size=8))
    mask = data.draw(st.integers(0, (1 << table.n) - 1))
    sums = subset_sums(table, codes)
    assert table.sumset(codes) == mask_of(sums)
    add = _add(table)
    expected = {add[x][s] for x in elements_of(mask) for s in sums}
    assert table.minkowski(mask, codes) == mask_of(expected)


@given(st.data())
def test_crossing_test_matches_set_arithmetic(data):
    """For an atom A, supp(S) meets Σ(A) minus 0 exactly when a subset of S
    cancels a proper nonempty subset of A."""
    table = data.draw(tables())
    nonzero = st.integers(1, table.n - 1)
    head = data.draw(st.lists(nonzero, min_size=1, max_size=6))
    atom = head + [table.neg[_sum(table, head)]]
    proper = [
        _sum(table, [atom[i] for i in idx])
        for r in range(1, len(atom))
        for idx in itertools.combinations(range(len(atom)), r)
    ]
    assume(0 not in proper)  # A is a minimal zero-sum sequence
    assert {table.neg[p] for p in proper} == set(proper)  # P = -P
    union = data.draw(st.lists(nonzero, max_size=6))
    union_sums = subset_sums(table, union)
    crosses = any(table.neg[p] in union_sums for p in proper)
    supp = table.sumset(union)
    assert bool(supp & (table.sumset(atom) & ~1)) == crosses


def _sum(table, codes):
    add = _add(table)
    total = 0
    for c in codes:
        total = add[total][c]
    return total


def _floor(group, kind):
    table = group_table(group)
    if kind == "cross":
        ms = constructions.extremal_ufim(group)
        value = cross_number(ms)
    else:
        ms = constructions.generator_repeat_union(group)
        value = Fraction(ms.size)
    return value, tuple(sorted(table.encode(el) for el in ms.elements()))


def value_of(group, kind, outcome):
    """The measure of a library search's maximizer, from its codes."""
    weight, scale = code_weights(group, kind)
    return Fraction(sum(weight[c] for c in outcome.witness_codes), scale)


SMALL_GROUPS = abelian_groups_up_to(12)


@pytest.mark.parametrize("group", SMALL_GROUPS, ids=lambda g: g.key)
def test_enumerate_atoms_matches_count_vectors(group):
    assert enumerate_atoms(group) == reference.enumerate_atoms(group)


@pytest.mark.parametrize("group", SMALL_GROUPS, ids=lambda g: g.key)
def test_search_matches_count_vectors(group):
    catalog = atom_catalog(group)
    for kind in ("cross", "size"):
        for floor in (_floor(group, kind), (Fraction(0), ())):
            got = maximize_over_ufims(group, catalog, kind, floor[1])
            want = reference.maximize_over_ufims(group, catalog, kind, *floor)
            assert value_of(group, kind, got) == want.value
            assert got.witness_codes == want.witness_codes
            assert got.stats.nodes == want.stats.nodes
            assert got.stats.prunes == want.stats.prunes
            assert got.stats.complete and want.stats.complete


def test_budgeted_search_matches_count_vectors():
    # Where a node budget stops the one walk, and the incumbent it leaves,
    # for every small group, both measures and both floors.
    for group in SMALL_GROUPS:
        catalog = atom_catalog(group)
        for kind in ("cross", "size"):
            for floor in (_floor(group, kind), (Fraction(0), ())):
                for nodes in (0, 1, 10, 100, 1000):
                    budget = Budget(max_nodes=nodes)
                    got = maximize_over_ufims(
                        group, catalog, kind, floor[1], budget=budget
                    )
                    want = reference.maximize_over_ufims(
                        group, catalog, kind, *floor, budget=budget
                    )
                    assert (value_of(group, kind, got), got.witness_codes) == (
                        want.value, want.witness_codes
                    ), (group.key, kind, floor, nodes)
                    assert (
                        got.stats.nodes, got.stats.prunes, got.stats.complete
                    ) == (
                        want.stats.nodes, want.stats.prunes, want.stats.complete
                    ), (group.key, kind, floor, nodes)


@given(
    st.sampled_from(abelian_groups_up_to(16)), st.sampled_from(["cross", "size"])
)
def test_the_floor_moves_no_maximizer(group, kind):
    # The floor only prunes: from the public floor or from the empty one,
    # the search ends on the same value and least maximizer.
    catalog = atom_catalog(group)
    seeded = maximize_over_ufims(group, catalog, kind, _floor(group, kind)[1])
    empty = maximize_over_ufims(group, catalog, kind, ())
    assert seeded.witness_codes == empty.witness_codes
    assert value_of(group, kind, seeded) == value_of(group, kind, empty)


def test_floor_is_the_measure_of_the_floor_witness():
    # With no node to spend, or no atom to search, the search returns the
    # floor witness it was given, whose measure is the floor.
    for group in [trivial_group(), *SMALL_GROUPS]:
        empty = AtomCatalog(group, (), ())
        for kind in ("cross", "size"):
            value, codes = _floor(group, kind)
            for catalog in (atom_catalog(group), empty):
                got = maximize_over_ufims(
                    group, catalog, kind, codes, budget=Budget(max_nodes=0)
                )
                assert (value_of(group, kind, got), got.witness_codes) == (
                    value, codes
                )
                assert got.stats.nodes == 0


@pytest.mark.parametrize("search", [k1, narkiewicz_n1])
def test_node_budgeted_records_identical_across_runs(search):
    group = G(2, 8)
    records = []
    for _ in range(3):
        clear_catalog_memory()
        group_table.cache_clear()
        records.append(to_record(search(group, budget=Budget(max_nodes=20000))))
    assert records[0]["incomplete"]
    assert records[0] == records[1] == records[2]



# -- results depend only on the group and the catalog ---------------------------


def search_records(group, order):
    run = {"N1": narkiewicz_n1, "K1": k1}
    return {name: to_record(run[name](group)) for name in order}


def ufim_listing(group):
    return list(reference.iter_ufims(group, atom_catalog(group)))


@pytest.mark.parametrize("group", SMALL_GROUPS, ids=lambda g: g.key)
def test_shared_search_rows_are_invisible(group):
    # N1 and K1 give the same records in either order, after the memos are
    # cleared, and after a UFIM listing of the same catalog.
    expected = search_records(group, ("N1", "K1"))
    assert search_records(group, ("K1", "N1")) == expected
    clear_catalog_memory()
    group_table.cache_clear()
    assert search_records(group, ("N1", "K1")) == expected
    listing = ufim_listing(group)
    assert search_records(group, ("K1", "N1")) == expected
    assert ufim_listing(group) == listing


def test_searches_keep_no_catalog_alive():
    # The catalog memo is the only holder: once it and the table cache are
    # cleared, nothing left by N1 or K1 keeps the catalog.
    group = G(2, 6)
    catalog = weakref.ref(atom_catalog(group))
    k1(group)
    narkiewicz_n1(group)
    clear_catalog_memory()
    group_table.cache_clear()
    gc.collect()
    assert catalog() is None


def test_search_reads_only_the_catalog_it_is_given():
    # Same group and table, another catalog object: nothing read from the
    # first catalog may be reused for the second.
    group = G(2, 4)
    full = atom_catalog(group)
    cut = sum(len(atom) <= 3 for atom in full.codes)
    short = AtomCatalog(group, full.codes[:cut], full.sums[:cut])
    for catalog in (atom_catalog(group), short, atom_catalog(group), short):
        for kind in ("cross", "size"):
            got = maximize_over_ufims(group, catalog, kind, ())
            want = reference.maximize_over_ufims(group, catalog, kind, Fraction(0), ())
            assert (value_of(group, kind, got), got.witness_codes) == (
                want.value, want.witness_codes
            )
            assert (got.stats.nodes, got.stats.prunes) == (
                want.stats.nodes, want.stats.prunes
            )
