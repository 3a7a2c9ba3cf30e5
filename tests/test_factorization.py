import itertools
import random
import re
from fractions import Fraction

import pytest

from zerosums import (
    IndexedMultiset,
    abelian_groups_of_order,
    count_factorizations,
    cross_number,
    disjoint_union,
    is_minimal_zero_sum,
    is_ufim,
    is_ufim_by_intersection,
    is_zero_sum,
    is_zero_sum_free,
    normalize_group,
    sigma,
    unique_factorization,
    zero_sum_subsets,
)
from zerosums.errors import DomainError, NotUniqueFactorizationError, PreconditionError
from zerosums.factorization import _codes, _peel
from ufim_vector_reference import ufim_by_multiplicity


def ms(spec, elements, **kw):
    return IndexedMultiset.from_elements(normalize_group(spec), elements, **kw)


# -- independent naive oracles ------------------------------------------------


def naive_subset_sums(group, elements):
    out = []
    for r in range(len(elements) + 1):
        for combo in itertools.combinations(range(len(elements)), r):
            total = group.zero()
            for i in combo:
                total = group.add(total, elements[i])
            out.append((frozenset(combo), total))
    return out


def naive_minimal_zero_sum(group, elements):
    if not elements:
        return False
    zero = group.zero()
    for combo, total in naive_subset_sums(group, elements):
        if len(combo) == len(elements):
            continue
        if combo and total == zero:
            return False
    total = group.zero()
    for e in elements:
        total = group.add(total, e)
    return total == zero


def naive_partitions(indices):
    """All set partitions of a list of indices."""
    if not indices:
        yield []
        return
    first, rest = indices[0], indices[1:]
    for part in naive_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [part[i] + [first]] + part[i + 1 :]
        yield part + [[first]]


def naive_count_factorizations(group, elements):
    count = 0
    for part in naive_partitions(list(range(len(elements)))):
        if all(
            naive_minimal_zero_sum(group, [elements[i] for i in block])
            for block in part
        ):
            count += 1
    return count


# -- predicate examples --------------------------------------------------------


def test_is_zero_sum_examples():
    assert is_zero_sum(ms([2], [[1], [1]]))
    assert not is_zero_sum(ms([2], [[1]]))
    assert is_zero_sum(ms([2], []))


def test_is_minimal_zero_sum_examples():
    assert is_minimal_zero_sum(ms([2], [[1], [1]]))
    assert is_minimal_zero_sum(ms([4], [[1], [1], [2]]))
    assert not is_minimal_zero_sum(ms([4], [[2], [2], [1], [1], [1], [1]]))
    assert not is_minimal_zero_sum(ms([4], []))


def test_is_zero_sum_free_examples():
    assert is_zero_sum_free(ms([4], [[1], [2]]))
    assert not is_zero_sum_free(ms([2], [[1], [1]]))
    assert is_zero_sum_free(ms([4], []))


def test_zero_sum_subsets_examples():
    s = ms([4], [[1], [2], [3], [2]])
    subs = zero_sum_subsets(s)
    families = {frozenset(sub.labels) for sub in subs}
    assert families == {
        frozenset(),
        frozenset({0, 2}),
        frozenset({1, 3}),
        frozenset({0, 1, 2, 3}),
    }
    assert {frozenset(sub.labels) for sub in zero_sum_subsets(ms([2], [[1]]))} == {
        frozenset()
    }
    assert len(zero_sum_subsets(ms([2], [[1]] * 4))) == 8


def test_ufim_by_intersection_examples():
    s = ms([3, 3], [[1, 1], [2, 2], [1, 2], [2, 1]])
    assert is_ufim_by_intersection(s)
    assert not is_ufim_by_intersection(ms([3], [[1], [2], [1], [2]]))
    assert is_ufim_by_intersection(ms([2], [[1], [1]]))


def test_ufim_preconditions():
    with pytest.raises(PreconditionError):
        is_ufim_by_intersection(ms([2], [[1]]))
    with pytest.raises(PreconditionError):
        is_ufim(ms([4], [[0], [2], [2]], allow_zero=True))


def test_count_factorizations_examples():
    assert count_factorizations(ms([2], [[1], [1]])) == 1
    assert count_factorizations(ms([3], [[1], [2], [1], [2]])) == 2
    assert count_factorizations(ms([2], [[1]] * 4)) == 3
    assert count_factorizations(ms([2], [[1]] * 4), cap=2) == 2


def test_is_ufim_and_unique_factorization_examples():
    s = ms([4], [[1], [2], [3], [2]])
    assert is_ufim(s)
    blocks = unique_factorization(s).to_lists()
    assert blocks == [[[1], [3]], [[2], [2]]]

    single = ms([2, 2], [[1, 1], [1, 0], [0, 1]])
    assert is_ufim(single)
    assert unique_factorization(single).block_count == 1

    quad = ms([2], [[1]] * 4)
    assert not is_ufim(quad)
    with pytest.raises(NotUniqueFactorizationError) as err:
        unique_factorization(quad)
    assert err.value.first is not None and err.value.second is not None
    assert err.value.first.blocks != err.value.second.blocks


def test_empty_multiset_is_ufim():
    empty = ms([4], [])
    assert is_ufim(empty)
    assert unique_factorization(empty).blocks == frozenset()
    assert count_factorizations(empty) == 1


def test_cross_number_splits_over_blocks():
    s = ms([4], [[1], [2], [3], [2]])
    f = unique_factorization(s)
    total = Fraction(0)
    for block in f.blocks:
        total += cross_number(s.subset(block))
    assert total == cross_number(s)


# -- oracle equivalence ---------------------------------------------------------


def all_zero_sum_multisets(group, max_size):
    nonzero = list(group.elements())[1:]
    for size in range(0, max_size + 1):
        for combo in itertools.combinations_with_replacement(nonzero, size):
            total = group.zero()
            for e in combo:
                total = group.add(total, e)
            if total == group.zero():
                yield combo


def test_oracle_equivalence_small_exhaustive():
    for order in range(2, 7):
        for group in abelian_groups_of_order(order):
            for combo in all_zero_sum_multisets(group, 5):
                s = IndexedMultiset.from_elements(group, combo)
                by_count = count_factorizations(s, cap=2) == 1
                by_intersection = is_ufim_by_intersection(s)
                by_vectors = ufim_by_multiplicity(s) if combo else True
                by_peel = _peel(*_codes(s)[1:])[1] is None
                assert by_count == by_intersection == by_vectors == by_peel, combo


def test_against_naive_definition_oracle():
    for order in (2, 3, 4, 5, 6):
        for group in abelian_groups_of_order(order):
            for combo in all_zero_sum_multisets(group, 4):
                if not combo:
                    continue
                s = IndexedMultiset.from_elements(group, combo)
                expected = naive_count_factorizations(group, list(combo))
                assert count_factorizations(s) == expected, combo
                assert is_ufim(s) == (expected == 1)


def test_minimal_zero_sum_against_naive():
    for order in (2, 3, 4, 6, 8):
        for group in abelian_groups_of_order(order):
            nonzero = list(group.elements())[1:]
            for combo in itertools.combinations_with_replacement(nonzero, 3):
                s = IndexedMultiset.from_elements(group, combo)
                assert is_minimal_zero_sum(s) == naive_minimal_zero_sum(
                    group, list(combo)
                )


# -- structural properties -------------------------------------------------------


def random_ufims(rng, orders, count):
    """Sample unique-factorization multisets by rejection."""
    out = []
    groups = [g for n in orders for g in abelian_groups_of_order(n)]
    while len(out) < count:
        group = rng.choice(groups)
        nonzero = list(group.elements())[1:]
        size = rng.randint(1, 7)
        els = [rng.choice(nonzero) for _ in range(size)]
        total = group.zero()
        for e in els:
            total = group.add(total, e)
        closing = group.neg(total)
        if closing == group.zero():
            continue
        els.append(closing)
        s = IndexedMultiset.from_elements(group, els)
        if is_ufim(s):
            out.append(s)
    return out


def test_zero_sum_subsets_of_ufim_are_block_unions():
    rng = random.Random(7)
    for s in random_ufims(rng, range(2, 13), 120):
        blocks = unique_factorization(s).blocks
        unions = set()
        for r in range(len(blocks) + 1):
            for combo in itertools.combinations(blocks, r):
                unions.add(frozenset().union(*combo) if combo else frozenset())
        for sub in zero_sum_subsets(s):
            assert frozenset(sub.labels) in unions


def test_lift_preserves_unique_factorization():
    rng = random.Random(11)
    for s in random_ufims(rng, range(2, 13), 120):
        labels = list(s.labels)
        for _ in range(3):
            k = rng.randint(1, len(labels))
            chosen = rng.sample(labels, k)
            part = s.subset(chosen)
            value = sigma(part)
            if value == s.group.zero():
                continue
            lifted = disjoint_union(
                s.without(chosen),
                IndexedMultiset.from_elements(s.group, [value]),
            )
            assert is_ufim(lifted)


def test_factor_product_and_count_bounds():
    rng = random.Random(13)
    from math import prod
    for s in random_ufims(rng, range(2, 13), 120):
        blocks = unique_factorization(s).blocks
        order = s.group.order
        assert prod(len(b) for b in blocks) <= order
        assert 2 ** len(blocks) <= order  # block count below log2 of the order


@pytest.mark.parametrize(
    "moduli, items, bad",
    [
        # 0 is present as well.
        ([4], ((0, (4,)), (1, (0,))), (4,)),
        # A short entry, whose truncated sum is not 0 either.
        ([2, 4], ((0, (1, 1)), (1, (1,))), (1,)),
        # Zero-sum, but (5,) is not an element.
        ([4], ((0, (5,)), (1, (3,))), (5,)),
    ],
)
def test_the_element_check_comes_before_the_preconditions(moduli, items, bad):
    # No predicate sees these: the multiset is refused where it is made.
    group = normalize_group(moduli)
    message = re.escape(f"{bad!r} is not an element of {group}")
    with pytest.raises(DomainError, match=message):
        IndexedMultiset(group, items)


@pytest.mark.parametrize(
    "moduli, items",
    [
        # 0 is present.
        ([4], ((0, (0,)), (1, (0,)))),
        # Not zero-sum.
        ([2, 4], ((0, (1, 1)), (1, (0, 1)))),
    ],
)
def test_a_valid_multiset_reaches_the_zero_sum_preconditions(moduli, items):
    s = IndexedMultiset(normalize_group(moduli), items)
    for test in (is_ufim, unique_factorization):
        with pytest.raises(PreconditionError):
            test(s)
    assert is_minimal_zero_sum(s) is False
