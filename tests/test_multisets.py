import random
import re
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
from zerosums.cache import FORMAT_VERSION
from zerosums.errors import DomainError, PreconditionError, ResourceLimitError
from zerosums.groups import abelian_groups_up_to
from zerosums.invariants import from_record
from zerosums.multisets import to_lists
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
    assert IndexedMultiset.from_elements(group, lists) == s


def test_subset_and_submultiset():
    s = ms([4], [[1], [2], [3], [2]])
    sub = s.subset([0, 2])
    assert sorted(sub.elements()) == [(1,), (3,)]
    assert sigma(sub) == (0,)
    rest = sub.complement()
    assert sorted(rest.elements()) == [(2,), (2,)]
    assert s.submultiset([1, 3]).canonical() == ((2,), (2,))


# -- membership: checked once, where a multiset is made -----------------------


def is_element(group, g):
    """Membership written out: a tuple of one residue per invariant factor,
    each an int (not a bool) in range(n)."""
    return (
        isinstance(g, tuple)
        and len(g) == len(group.invariant_factors)
        and all(
            isinstance(r, int) and not isinstance(r, bool) and r in range(n)
            for r, n in zip(g, group.invariant_factors)
        )
    )


def candidates(group, rng, count):
    """Elements, tuples one defect away from an element (a residue out of
    range, negative, a bool or a float; one residue too few or too many),
    elements as lists, and values that are not sequences."""
    moduli = group.invariant_factors
    out = [None, 0, 1.5]
    for _ in range(count):
        g = [rng.randrange(n) for n in moduli]
        kind = rng.choice(
            ["element", "high", "negative", "bool", "float", "short", "long", "list"]
        )
        if kind == "list":
            out.append(g)
            continue
        if kind in ("high", "negative", "bool", "float") and g:
            i = rng.randrange(len(g))
            g[i] = {
                "high": moduli[i] + rng.randrange(2 * moduli[i]),
                "negative": -rng.randrange(1, moduli[i] + 1),
                "bool": rng.random() < 0.5,
                "float": float(g[i]),
            }[kind]
        elif kind == "short" and g:
            g.pop()
        elif kind != "element":
            g.append(rng.randrange(2))
        out.append(tuple(g))
    rng.shuffle(out)
    return out


@pytest.mark.parametrize(
    "group", [trivial_group()] + abelian_groups_up_to(64), ids=lambda g: g.key
)
def test_every_construction_path_holds_only_elements(group):
    rng = random.Random(group.key)
    items = candidates(group, rng, 40)
    for g in items:
        # contains, and from_elements, take a list of residues too; a
        # multiset holds tuples only.
        as_tuple = tuple(g) if isinstance(g, list) else g
        assert group.contains(g) is is_element(group, as_tuple)
        one = ((0, group.zero()), (1, g))
        if is_element(group, g):
            assert IndexedMultiset(group, one).elements() == (group.zero(), g)
        else:
            with pytest.raises(DomainError, match=re.escape(f"{g!r} is not an element")):
                IndexedMultiset(group, one)
        # from_elements reduces integer residues, so it makes an element of
        # every tuple of rank ints, and refuses the rest.
        try:
            made = IndexedMultiset.from_elements(group, [g], allow_zero=True)
        except DomainError:
            assert not is_element(group, as_tuple)
        else:
            assert is_element(group, made.elements()[0])
            assert made.elements()[0] == as_tuple or not is_element(group, as_tuple)
    # The first non-element is the one named.
    first_bad = next(g for g in items if not is_element(group, g))
    with pytest.raises(DomainError, match=re.escape(f"{first_bad!r} is not")):
        IndexedMultiset(group, tuple(enumerate(items)))

    # Every path that makes a multiset from another one keeps to elements.
    good = [g for g in items if is_element(group, g)]
    s = IndexedMultiset(group, tuple(enumerate(good)))
    half = s.labels[::2]
    phis = [multiplication_hom(group, rng.randrange(-5, 6))]
    phis += [projection_hom(group, j) for j in range(group.rank)]
    made = [s.submultiset(half), s.without(half), disjoint_union(s, s)]
    made += [apply_hom(phi, s) for phi in phis]
    nonzero = s.without([lbl for lbl, g in s.items if g == group.zero()])
    record = {
        "version": FORMAT_VERSION, "group_key": group.key, "invariant": "D",
        "value": "0", "witness": to_lists(nonzero), "provenance": "computed",
        "stats": {"nodes": 0, "prunes": {}},
    }
    made.append(from_record(group, record).witness)
    for m in made:
        assert all(is_element(m.group, g) for g in m.elements())
    for phi, image in zip(phis, made[3:]):
        assert image.elements() == tuple(reference.apply(phi, g) for g in good)
    assert made[-1] == nonzero


@pytest.mark.parametrize(
    "labels",
    [(0, 0), (1, 0), (0, 1.0), ("a", "b")],
    ids=["repeated", "decreasing", "float", "string-first"],
)
def test_labels_must_be_strictly_increasing_ints(labels):
    # Every reader keys on the label: over C_4, (1, 3) under the label 0
    # twice would factor as the one block [[1]], list {0} as a zero-sum
    # subset, and keep one element in entries.
    group = normalize_group([4])
    elements = [group.element([1]), group.element([3])]
    with pytest.raises(DomainError, match="strictly increasing ints"):
        IndexedMultiset(group, tuple(zip(labels, elements)))
