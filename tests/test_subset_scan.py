"""The subset-sum primitive of the zero-sum predicates against per-mask
reference scans, plain set arithmetic and the pair-by-pair tables."""

import re

import peel_reference
import subset_scan_reference as reference
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zerosums import config
from zerosums.constructions import construction4_decompose, extremal_ufim
from zerosums.errors import DomainError, NotUniqueFactorizationError, ResourceLimitError
from zerosums.factorization import (
    _codes,
    _peel,
    _subsequence_with_sum,
    count_factorizations,
    is_minimal_zero_sum,
    is_ufim,
    is_zero_sum_free,
    masks_with_sum,
    unique_factorization,
    zero_sum_subsets,
)
from zerosums.groups import (
    GroupTable,
    abelian_groups_up_to,
    group_table,
    multiplication_hom,
    normalize_group,
    projection_hom,
    trivial_group,
)
from zerosums.multisets import IndexedMultiset

GROUPS_TO_16 = abelian_groups_up_to(16)
GROUPS_TO_64 = abelian_groups_up_to(64)
# 300 elements: masks wider than the codes of any group of order <= 64.
BIG = normalize_group([2, 150])
# A 64-element coordinate: the distinct values of long multisets stay few.
C4_C64 = normalize_group([4, 64])
# Rank 10: ten shift-and-mask steps per translate.
C2_10 = normalize_group([2] * 10)
# Over a million elements: a listing may build nothing of size |G| per
# element.
HUGE = normalize_group([101, 10201])


def key(group):
    return group.key


def _sum(group, elements):
    total = group.zero()
    for el in elements:
        total = group.add(total, el)
    return total


@st.composite
def multisets(draw, group, max_len, nonzero=False, closed=False):
    """Multisets over group; closed ones get one closing element, so they
    sum to zero. Elements are drawn from a small pool so that equal and
    opposite elements, and so zero-sum subsets, are common."""
    elements = list(group.elements())
    pool = elements[1:] if nonzero else elements
    if len(pool) > 8:
        pool = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4))
        pool += [group.neg(x) for x in pool]
    els = draw(st.lists(st.sampled_from(pool), max_size=max_len))
    if closed:
        closing = group.neg(_sum(group, els))
        if closing != group.zero():
            els.append(closing)
    return IndexedMultiset.from_elements(
        group, els, allow_zero=not nonzero, max_size=max(len(els), 1)
    )


def label_sets(subsets):
    return [sorted(s.labels) for s in subsets]


def reference_label_sets(ms, masks):
    labels = sorted(ms.labels)
    return [[labels[i] for i in range(len(labels)) if m >> i & 1] for m in masks]


def check_subsets(ms):
    _, codes = reference.codes_of(ms)
    sums = reference.subset_sums(codes, reference.tables(ms.group)[0])
    expected = [m for m, s in enumerate(sums) if s == 0]
    assert label_sets(zero_sum_subsets(ms)) == reference_label_sets(ms, expected)
    table = group_table(ms.group)
    for t in set(sums):
        with_sum_t = [m for m, s in enumerate(sums) if s == t]
        assert masks_with_sum(t, codes, table) == with_sum_t


def check_factorizations(ms):
    found = reference.partitions(ms)
    assert count_factorizations(ms, cap=2) == min(len(found), 2)
    assert is_ufim(ms) is (len(found) == 1)
    if len(found) == 1:
        assert unique_factorization(ms).blocks == found[0]
    else:
        with pytest.raises(NotUniqueFactorizationError) as err:
            unique_factorization(ms)
        first, second = err.value.first.blocks, err.value.second.blocks
        assert first != second and first in found and second in found


# -- tables -----------------------------------------------------------------


@pytest.mark.parametrize("group", [trivial_group()] + abelian_groups_up_to(64), ids=key)
def test_tables_match_pairwise_construction(group):
    table = GroupTable(group)
    _, neg, order = reference.tables(group)
    elements = list(group.elements())
    # One code at a time on a fresh table, as the predicates read it.
    for c, el in enumerate(elements):
        assert table.encode(el) == c and table.decode(c) == el
        assert (table.neg[c], table.order[c]) == (neg[c], order[c])
    assert table.encode_all(elements) == list(range(table.n))
    # Only a filled table reads a code outside 0..n-1 without a check.
    for memo in (table.neg, table.order, table.rotations):
        for code in (-1, table.n):
            with pytest.raises(IndexError, match="is not an element code"):
                memo[code]
    memo = table.rotations
    table.fill_all()
    assert (table.neg, table.order) == (neg, order)
    assert table.rotations == tuple(memo[c] for c in range(table.n))


@pytest.mark.parametrize(
    "group", [normalize_group([32768]), normalize_group([2] * 16)], ids=key
)
def test_large_group_fills_only_the_codes_it_reads(group):
    # A |G|-bit mask per code would cost |G|^2 bits: 128 MiB on C_32768.
    assert len(GroupTable(group).rotations) == 0
    ms = extremal_ufim(group)
    group_table.cache_clear()
    try:
        assert is_ufim(ms)
        table = group_table(group)
        distinct = set(table.encode_all(ms.elements()))
        assert 0 < len(table.rotations) <= 2 * len(distinct)
    finally:
        group_table.cache_clear()


@pytest.mark.parametrize(
    "moduli, element",
    [
        ([4], (5,)),
        ([4], (-1,)),
        ([4], (2.0,)),
        ([4], (1, 0)),
        ([4], ()),
        ([2, 4], (0, 4)),
        ([2, 4], (2, 1)),
        ([2, 4], (1,)),
    ],
)
def test_encode_rejects_a_non_element(moduli, element):
    # encode trusts its input, so a non-element must never reach it: the
    # multiset that would carry one is refused where it is made.
    group = normalize_group(moduli)
    assert not group.contains(element)
    message = re.escape(f"{element} is not an element of {group}")
    with pytest.raises(DomainError, match=message):
        IndexedMultiset(group, ((0, group.element([1] * group.rank)), (1, element)))


@pytest.mark.parametrize(
    "group", [trivial_group()] + abelian_groups_up_to(64) + [BIG, C2_10], ids=key
)
def test_row_is_the_reference_column(group):
    # The row of g, x + g for every code x, read off one-bit translates, as
    # the atom search builds its addition table. translate distributes over
    # union, so single bits decide every mask.
    table = GroupTable(group)
    add = reference.tables(group)[0]
    for g in range(table.n):
        row = [table.translate(1 << x, g) for x in range(table.n)]
        assert row == [1 << add[x][g] for x in range(table.n)]


@given(st.data())
def test_translate_matches_set_arithmetic(data):
    group = data.draw(
        st.sampled_from(GROUPS_TO_16 + [normalize_group([8, 8]), BIG, C2_10])
    )
    table = GroupTable(group)
    add = reference.tables(group)[0]
    g = data.draw(st.integers(0, table.n - 1))
    mask = data.draw(st.integers(0, (1 << table.n) - 1))
    shifted = {add[x][g] for x in range(table.n) if mask >> x & 1}
    assert table.translate(mask, g) == sum(1 << c for c in shifted)


@given(st.data())
def test_listing_matches_reference(data):
    group = data.draw(st.sampled_from(GROUPS_TO_16 + [BIG, C2_10]))
    table = group_table(group)
    codes = data.draw(st.lists(st.integers(0, table.n - 1), max_size=9))
    sums = reference.subset_sums(codes, reference.tables(group)[0])
    t = data.draw(st.sampled_from(sums) | st.integers(0, table.n - 1))
    assert masks_with_sum(t, codes, table) == [m for m, s in enumerate(sums) if s == t]


@given(st.data())
def test_listing_on_a_million_elements(data):
    # A pool of at most three codes makes equal elements, and so sums
    # reached by several masks, common. A fresh table per example: each
    # translation step it keeps spans the 1,030,301 codes.
    table = GroupTable(HUGE)
    pool = data.draw(st.lists(st.integers(0, table.n - 1), min_size=1, max_size=3))
    codes = data.draw(st.lists(st.sampled_from(pool), max_size=10))
    elements = [table.decode(c) for c in codes]
    sums = []
    for m in range(1 << len(codes)):
        picked = [el for i, el in enumerate(elements) if m >> i & 1]
        sums.append(table.encode(_sum(HUGE, picked)))
    t = data.draw(st.sampled_from(sums))
    assert masks_with_sum(t, codes, table) == [m for m, s in enumerate(sums) if s == t]


def test_listing_cap_boundary(monkeypatch):
    # Eight ones in C_2: 128 masks of each sum.
    table = group_table(normalize_group([2]))
    codes = [1] * 8
    monkeypatch.setattr(config, "SUBSET_OUTPUT_CAP", 128)
    assert masks_with_sum(0, codes, table) == [
        m for m in range(256) if m.bit_count() % 2 == 0
    ]
    monkeypatch.setattr(config, "SUBSET_OUTPUT_CAP", 127)
    with pytest.raises(ResourceLimitError, match="more than 127 zero-sum subsets"):
        masks_with_sum(0, codes, table)


@given(st.data())
def test_walk_back_picks_the_least_listed_mask(data):
    group = data.draw(st.sampled_from(GROUPS_TO_16 + [BIG]))
    table = group_table(group)
    codes = data.draw(st.lists(st.integers(0, table.n - 1), max_size=9))
    positions = [p for p in range(len(codes)) if data.draw(st.booleans())]
    picked = [codes[p] for p in positions]
    sums = reference.subset_sums(picked, reference.tables(group)[0])
    t = data.draw(st.sampled_from(sums))
    least = masks_with_sum(t, picked, table)[0]
    expected = [p for i, p in enumerate(positions) if least >> i & 1]
    assert sorted(_subsequence_with_sum(t, positions, codes, table)) == expected


# -- predicates on every group of order <= 16 -------------------------------


@pytest.mark.parametrize("group", GROUPS_TO_16, ids=key)
@settings(max_examples=25)
@given(data=st.data())
def test_membership_tests_match_reference(group, data):
    ms = data.draw(multisets(group, 12))
    assert is_zero_sum_free(ms) is reference.is_zero_sum_free(ms)
    closed = data.draw(multisets(group, 12, closed=True))
    assert is_minimal_zero_sum(closed) is reference.is_minimal_zero_sum(closed)
    assert is_zero_sum_free(closed) is reference.is_zero_sum_free(closed)


@pytest.mark.parametrize("group", GROUPS_TO_16, ids=key)
@settings(max_examples=15)
@given(data=st.data())
def test_subset_listing_matches_reference(group, data):
    check_subsets(data.draw(multisets(group, 10)))


@pytest.mark.parametrize(
    "moduli, elements",
    [([2], [[1]] * 16), ([3], [[1]] * 8 + [[2]] * 8)],
    ids=["2-sixteen-ones", "3-eight-ones-eight-twos"],
)
def test_dense_subset_listing_matches_reference(moduli, elements):
    group = normalize_group(moduli)
    check_subsets(IndexedMultiset.from_elements(group, elements))


@pytest.mark.parametrize("group", GROUPS_TO_16, ids=key)
@settings(max_examples=15)
@given(data=st.data())
def test_factorizations_match_reference(group, data):
    check_factorizations(data.draw(multisets(group, 8, nonzero=True, closed=True)))


@pytest.mark.parametrize("group", GROUPS_TO_16 + [BIG], ids=key)
@settings(max_examples=15)
@given(data=st.data())
def test_peeled_blocks_factor_the_multiset(group, data):
    ms = data.draw(multisets(group, 8, nonzero=True, closed=True))
    labels, codes, table = _codes(ms)
    blocks, crossing = _peel(codes, table)
    unique = crossing is None
    assert sorted(p for block in blocks for p in block) == list(range(ms.size))
    for block in blocks:
        part = ms.submultiset(labels[p] for p in block)
        assert reference.is_minimal_zero_sum(part)
    assert unique is reference.is_ufim(ms)
    assert is_ufim(ms) is unique


@settings(max_examples=300)
@given(data=st.data())
def test_peel_matches_the_negation_lookup_reference(data):
    group = data.draw(st.sampled_from(GROUPS_TO_64))
    ms = data.draw(multisets(group, 12, nonzero=True, closed=True))
    _, codes, table = _codes(ms)
    blocks, crossing = _peel(codes, table)
    assert (blocks, crossing is None) == peel_reference.peel(codes, GroupTable(group))


@pytest.mark.parametrize("moduli", [[24], [2, 24], [4, 64]], ids=str)
def test_zero_sum_predicates_fill_no_negation_entry(moduli):
    group = normalize_group(moduli)
    n = group.exponent
    unit = group.element([0] * (group.rank - 1) + [1])
    free = [unit] * (n - 1)
    atom = [unit] * n
    pair = [unit, group.neg(unit)] * 2
    checks = [
        (is_zero_sum_free, free, True),
        (is_zero_sum_free, atom, False),
        (is_minimal_zero_sum, atom, True),
        (is_minimal_zero_sum, pair, False),
    ]
    for predicate, elements, answer in checks:
        ms = IndexedMultiset.from_elements(group, elements, max_size=len(elements))
        group_table.cache_clear()
        assert predicate(ms) is answer
        table = group_table(group)
        assert len(table.rotations) and not len(table.neg), predicate.__name__


@pytest.mark.parametrize("group", GROUPS_TO_16, ids=key)
@settings(max_examples=15)
@given(data=st.data())
def test_decompose_matches_reference(group, data):
    ms = data.draw(multisets(group, 8, nonzero=True, closed=True))
    if not reference.is_ufim(ms):
        return
    if data.draw(st.booleans()):
        phi = multiplication_hom(group, data.draw(st.integers(0, group.exponent)))
    else:
        phi = projection_hom(group, data.draw(st.integers(0, group.rank - 1)))
    result = construction4_decompose(ms, phi)
    kernel_labels, packing = reference.decompose(ms, phi)
    assert result.kernel_part.labels == kernel_labels
    assert tuple(p.labels for p in result.packing) == packing


# -- a group of 300 elements ------------------------------------------------


@given(st.data())
def test_predicates_on_a_group_above_256_elements(data):
    ms = data.draw(multisets(BIG, 9))
    assert is_zero_sum_free(ms) is reference.is_zero_sum_free(ms)
    check_subsets(ms)
    closed = data.draw(multisets(BIG, 8, nonzero=True, closed=True))
    assert is_minimal_zero_sum(closed) is reference.is_minimal_zero_sum(closed)
    check_factorizations(closed)


# -- answers past the direct-scan limit --------------------------------------


def test_many_distinct_values_past_the_scan_limit():
    # 20 elements (h, 1) and 20 elements (h, 2): eight distinct values, and
    # the last coordinates sum to 60 < 64, so every nonempty subsum is
    # nonzero. Too many multiplicity vectors for the vector route.
    els = [(h % 4, 1) for h in range(20)] + [(h % 4, 2) for h in range(20)]
    ms = IndexedMultiset.from_elements(C4_C64, els, max_size=40)
    assert ms.size > config.DIRECT_SCAN_LIMIT
    assert is_zero_sum_free(ms)
    closed = els + [C4_C64.neg(_sum(C4_C64, els))]
    atom = IndexedMultiset.from_elements(C4_C64, closed, max_size=41)
    assert is_minimal_zero_sum(atom)
    assert not is_zero_sum_free(atom)


def test_atom_past_the_vector_cap_is_a_ufim():
    # The multiplicity vectors of the 41-element atom above exceed
    # VECTOR_CAP; peeling answers at any size, for atoms and non-atoms.
    els = [(h % 4, 1) for h in range(20)] + [(h % 4, 2) for h in range(20)]
    closed = els + [C4_C64.neg(_sum(C4_C64, els))]
    atom = IndexedMultiset.from_elements(C4_C64, closed, max_size=41)
    assert is_ufim(atom)
    x = (1, 3)
    wider = IndexedMultiset.from_elements(
        C4_C64, closed + [x, C4_C64.neg(x)], max_size=43
    )
    assert not is_minimal_zero_sum(wider)
    assert is_ufim(wider) is False
    # Besides {atom, {x, -x}}: (1, 1) + (0, 2) + (3, 61) = 0 takes labels 1
    # and 20 of the atom and -x (label 42); the rest, with x, has last
    # coordinates summing to 64, so no proper part of it is zero-sum.
    block = {1, 20, 42}
    rest = set(wider.labels) - block
    assert [wider.element_at(l) for l in sorted(block)] == [(1, 1), (0, 2), (3, 61)]
    assert is_minimal_zero_sum(wider.submultiset(block))
    assert is_minimal_zero_sum(wider.submultiset(rest))


def test_non_unique_witnesses_past_the_size_cap():
    # The 43-element multiset above: two factorizations, found without the
    # 2^l partition enumeration.
    els = [(h % 4, 1) for h in range(20)] + [(h % 4, 2) for h in range(20)]
    closed = els + [C4_C64.neg(_sum(C4_C64, els))]
    x = (1, 3)
    wider = IndexedMultiset.from_elements(
        C4_C64, closed + [x, C4_C64.neg(x)], max_size=43
    )
    assert wider.size > config.MAX_MULTISET_SIZE
    with pytest.raises(NotUniqueFactorizationError) as err:
        unique_factorization(wider)
    first, second = err.value.first.blocks, err.value.second.blocks
    assert first != second
    for blocks in (first, second):
        assert sorted(l for b in blocks for l in b) == list(wider.labels)
        assert all(is_minimal_zero_sum(wider.submultiset(b)) for b in blocks)
    # The peel closes {x, -x} after the atom; the crossing of {x, -x} with
    # the atom gives the second factorization, which has neither block.
    assert first == {frozenset(range(41)), frozenset({41, 42})}
    assert not first & second
