"""Routes for multisets past the direct-scan limit, and cross-route checks."""

import random

import pytest

from zerosums import (
    IndexedMultiset,
    abelian_groups_of_order,
    is_minimal_zero_sum,
    is_ufim,
    is_zero_sum_free,
    normalize_group,
    zero_sum_subsets,
)
from zerosums import config
from zerosums.errors import ResourceLimitError
from zerosums.factorization import count_factorizations
from ufim_vector_reference import ufim_by_multiplicity
import subset_scan_reference as reference


def test_minimal_zero_sum_vector_route():
    c31 = normalize_group([31])
    ones = IndexedMultiset.from_elements(c31, [[1]] * 31, max_size=31)
    assert ones.size > config.DIRECT_SCAN_LIMIT
    assert is_minimal_zero_sum(ones)

    c32 = normalize_group([32])
    # 16 + 16 = 32: the two 16s form a proper zero-sum subset
    mixed = IndexedMultiset.from_elements(
        c32, [[16], [16]] + [[1]] * 32, max_size=40
    )
    assert not is_minimal_zero_sum(mixed)


def test_zero_sum_free_vector_route():
    c31 = normalize_group([31])
    ones = IndexedMultiset.from_elements(c31, [[1]] * 30, max_size=30)
    assert is_zero_sum_free(ones)
    more = IndexedMultiset.from_elements(c31, [[1]] * 31, max_size=31)
    assert not is_zero_sum_free(more)


def test_ufim_vector_route_on_tall_towers():
    c29 = normalize_group([29])
    tower = IndexedMultiset.from_elements(c29, [[1]] * 29, max_size=29)
    assert tower.size > config.DIRECT_SCAN_LIMIT
    assert is_ufim(tower)
    # 31 ones and two inverses sum to zero but pair up ambiguously.
    mixed = IndexedMultiset.from_elements(
        c29, [[1]] * 31 + [[28]] * 2, max_size=33
    )
    assert not is_ufim(mixed)


def test_vector_route_agrees_with_counting_randomized():
    rng = random.Random(99)
    groups = [g for n in range(2, 13) for g in abelian_groups_of_order(n)]
    for _ in range(500):
        group = rng.choice(groups)
        nonzero = list(group.elements())[1:]
        els = [rng.choice(nonzero) for _ in range(rng.randint(1, 7))]
        total = group.zero()
        for e in els:
            total = group.add(total, e)
        closing = group.neg(total)
        if closing == group.zero():
            continue
        els.append(closing)
        s = IndexedMultiset.from_elements(group, els)
        assert ufim_by_multiplicity(s) == (count_factorizations(s, cap=2) == 1)


def test_zero_sum_subsets_size_cap():
    group = normalize_group([2])
    big = IndexedMultiset.from_elements(
        group, [[1]] * (config.MAX_MULTISET_SIZE + 2),
        max_size=config.MAX_MULTISET_SIZE + 2,
    )
    with pytest.raises(ResourceLimitError):
        zero_sum_subsets(big)


def test_support_walk_listing_matches_direct_scan():
    group = normalize_group([6])
    elements = [[1], [2], [3], [4], [5], [1], [2], [3]]
    s = IndexedMultiset.from_elements(group, elements)
    labels, codes = reference.codes_of(s)
    masks = reference.zero_sum_masks_direct(codes, reference.tables(group)[0])
    direct = {
        frozenset(labels[i] for i in range(len(labels)) if m >> i & 1) for m in masks
    }
    listed = {frozenset(sub.labels) for sub in zero_sum_subsets(s)}
    assert direct == listed
