from fractions import Fraction

import group_fold_reference as reference
import pytest
from hypothesis import given, settings, strategies as st

from zerosums import (
    IndexedMultiset,
    abelian_groups_of_order,
    apply_hom,
    cross_number,
    disjoint_union,
    multiplication_hom,
    normalize_group,
    projection_hom,
    sigma,
    trivial_group,
)
from zerosums.errors import PreconditionError, ResourceLimitError
from zerosums.groups import abelian_groups_up_to
from zerosums.multisets import from_lists, to_lists
from zerosums import config


def ms(spec, elements, **kw):
    return IndexedMultiset.from_elements(normalize_group(spec), elements, **kw)


def test_sigma_empty_is_zero():
    assert sigma(ms([4], [])) == (0,)


def test_sigma_examples():
    assert sigma(ms([4], [[1], [3]])) == (0,)
    assert sigma(ms([2, 2], [[1, 0], [0, 1]])) == (1, 1)


@pytest.mark.parametrize(
    "group", [trivial_group()] + abelian_groups_up_to(64), ids=lambda g: g.key
)
@settings(max_examples=10)
@given(data=st.data())
def test_sigma_is_the_element_fold(group, data):
    element = st.tuples(*(st.integers(0, n - 1) for n in group.invariant_factors))
    els = data.draw(st.lists(element, max_size=12))
    multiset = IndexedMultiset.from_elements(
        group, els, allow_zero=True, max_size=max(len(els), 1)
    )
    assert sigma(multiset) == reference.sigma(group, els)
    labels = data.draw(st.sets(st.sampled_from(multiset.labels))) if els else ()
    part = multiset.subset(labels)
    assert sigma(part) == reference.sigma(group, part.elements())


def test_cross_number_examples():
    assert cross_number(ms([4], [])) == 0
    assert cross_number(ms([4], [[1], [1], [2]])) == 1
    # orders 4, 2, 4, 2
    assert cross_number(ms([4], [[1], [2], [3], [2]])) == Fraction(3, 2)


def test_cross_number_identity_contributes_one():
    s = ms([4], [[0], [2]], allow_zero=True)
    assert cross_number(s) == 1 + Fraction(1, 2)


def test_zero_entries_rejected_by_default():
    with pytest.raises(PreconditionError):
        ms([4], [[0]])


def test_disjoint_union_examples():
    u = disjoint_union(ms([2], [[1]]), ms([2], [[1]]))
    assert u.size == 2 and u.canonical() == ((1,), (1,))
    s = ms([4], [[1], [2]])
    assert disjoint_union(s, ms([4], [])) == s
    a, b = ms([4], [[1], [2]]), ms([4], [[3]])
    assert cross_number(disjoint_union(a, b)) == cross_number(a) + cross_number(b)
    # orders 4, 2, 4
    assert cross_number(disjoint_union(a, b)) == Fraction(1)


def test_disjoint_union_keeps_labels_distinct():
    a = ms([4], [[1], [1]])
    u = disjoint_union(a, a)
    assert len(set(u.labels)) == 4


@st.composite
def group_and_two_multisets(draw):
    order = draw(st.integers(2, 16))
    groups = abelian_groups_of_order(order)
    group = groups[draw(st.integers(0, len(groups) - 1))]
    nonzero = [list(e) for e in group.elements()][1:]
    pick = st.lists(st.sampled_from(nonzero), min_size=0, max_size=6)
    return group, draw(pick), draw(pick)


@given(group_and_two_multisets())
def test_union_additivity_properties(data):
    group, els1, els2 = data
    s1 = IndexedMultiset.from_elements(group, els1)
    s2 = IndexedMultiset.from_elements(group, els2)
    u = disjoint_union(s1, s2)
    assert cross_number(u) == cross_number(s1) + cross_number(s2)
    assert sigma(u) == group.add(sigma(s1), sigma(s2))


def test_hom_image_cross_number_bound():
    # Reciprocal orders never shrink under a homomorphism image.
    for spec, phi_of in (
        ([4], lambda g: multiplication_hom(g, 2)),
        ([2, 2], lambda g: projection_hom(g, 0)),
        ([6], lambda g: multiplication_hom(g, 3)),
    ):
        group = normalize_group(spec)
        phi = phi_of(group)
        nonzero = [list(e) for e in group.elements()][1:]
        import itertools
        for els in itertools.combinations_with_replacement(nonzero, 3):
            s = IndexedMultiset.from_elements(group, els)
            image = apply_hom(phi, s)
            if not image.has_zero:
                assert cross_number(s) <= cross_number(image)


def test_canonical_equality_is_label_insensitive():
    a = ms([4], [[1], [2], [3]])
    b = ms([4], [[3], [1], [2]])
    assert a == b and hash(a) == hash(b)
    assert a != ms([4], [[1], [2]])


def test_size_cap_enforced():
    with pytest.raises(ResourceLimitError):
        ms([2], [[1]] * (config.MAX_MULTISET_SIZE + 1))


def test_serialization_round_trip():
    group = normalize_group([4, 2])
    s = IndexedMultiset.from_elements(group, [[0, 1], [0, 1], [1, 2]])
    lists = to_lists(s)
    assert lists == sorted(lists)
    assert from_lists(group, lists) == s


def test_subset_and_submultiset():
    s = ms([4], [[1], [2], [3], [2]])
    sub = s.subset([0, 2])
    assert sorted(sub.elements()) == [(1,), (3,)]
    assert sigma(sub) == (0,)
    rest = sub.complement()
    assert sorted(rest.elements()) == [(2,), (2,)]
    assert s.submultiset([1, 3]).canonical() == ((2,), (2,))
