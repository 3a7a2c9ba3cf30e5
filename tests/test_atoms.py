import itertools
from fractions import Fraction

import atom_scan_reference as reference
import pytest

from zerosums import (
    IndexedMultiset,
    abelian_groups_of_order,
    atom_catalog,
    config,
    enumerate_atoms,
    is_minimal_zero_sum,
    is_zero_sum_free,
    max_zero_sum_free_cross,
    normalize_group,
    trivial_group,
)
from zerosums.atoms import code_weights
from zerosums.errors import ResourceLimitError
from zerosums.formulas import d_star
from zerosums.groups import abelian_groups_up_to


def brute_force_atoms(group, max_len):
    """Independent oracle: filter nondecreasing tuples by the naive test."""
    nonzero = list(group.elements())[1:]
    found = []
    for size in range(2, max_len + 1):
        for combo in itertools.combinations_with_replacement(nonzero, size):
            total = group.zero()
            for e in combo:
                total = group.add(total, e)
            if total != group.zero():
                continue
            proper_zero = False
            for r in range(1, size):
                for sub in itertools.combinations(range(size), r):
                    t = group.zero()
                    for i in sub:
                        t = group.add(t, combo[i])
                    if t == group.zero():
                        proper_zero = True
                        break
                if proper_zero:
                    break
            if not proper_zero:
                found.append(combo)
    return sorted(found, key=lambda a: (len(a), a))


def test_enumerate_atoms_examples():
    c2 = enumerate_atoms(normalize_group([2]))
    assert list(c2.atoms()) == [((1,), (1,))]

    c3 = enumerate_atoms(normalize_group([3]))
    assert list(c3.atoms()) == [
        ((1,), (2,)),
        ((1,), (1,), (1,)),
        ((2,), (2,), (2,)),
    ]

    c22 = enumerate_atoms(normalize_group([2, 2]))
    atoms = list(c22.atoms())
    assert len(atoms) == 4
    assert ((0, 1), (1, 0), (1, 1)) in atoms
    assert all(len(a) == 2 for a in atoms[:3])


def test_catalog_matches_brute_force():
    for order in range(2, 9):
        for group in abelian_groups_of_order(order):
            catalog = atom_catalog(group)
            assert list(catalog.atoms()) == brute_force_atoms(group, group.order)


def test_every_atom_is_minimal_and_near_zero_sum_free():
    for spec in ([6], [2, 4], [3, 3], [9]):
        group = normalize_group(spec)
        for atom in atom_catalog(group).atoms():
            s = IndexedMultiset.from_elements(group, atom)
            assert is_minimal_zero_sum(s)
            for i in range(len(atom)):
                rest = IndexedMultiset.from_elements(
                    group, atom[:i] + atom[i + 1 :]
                )
                assert is_zero_sum_free(rest)


def test_atom_lengths_have_no_gaps_and_match_formula():
    for order in range(2, 13):
        for group in abelian_groups_of_order(order):
            catalog = atom_catalog(group)
            lengths = sorted({len(atom) for atom in catalog.codes})
            longest = len(catalog.codes[-1])
            assert lengths == list(range(2, longest + 1))
            assert longest <= group.order
            if group.rank <= 2:
                assert longest == d_star(group)


def test_trivial_group_catalog():
    catalog = atom_catalog(trivial_group())
    assert catalog.count == 0


def test_entry_cap(monkeypatch):
    monkeypatch.setattr(config, "ATOM_ENTRY_CAP", 3)
    with pytest.raises(ResourceLimitError):
        enumerate_atoms(normalize_group([8]))


def test_max_zero_sum_free_cross_examples():
    value, witness = max_zero_sum_free_cross(normalize_group([4]))
    assert value == Fraction(3, 4)
    assert witness.canonical() == ((1,), (1,), (1,))
    assert max_zero_sum_free_cross(normalize_group([2]))[0] == Fraction(1, 2)
    assert max_zero_sum_free_cross(normalize_group([6]))[0] == Fraction(7, 6)
    value, witness = max_zero_sum_free_cross(normalize_group([2, 2]))
    assert value == 1 and is_zero_sum_free(witness)


def weighed(group, measure, codes):
    weight = code_weights(group, measure)[0]
    return sum(weight[c] for c in codes), codes


@pytest.mark.parametrize(
    "group",
    [trivial_group(), *abelian_groups_up_to(20), normalize_group([2, 2, 6])],
    ids=lambda g: g.key,
)
def test_walk_keeps_the_least_maximizers_of_the_catalog_scans(group):
    catalog = enumerate_atoms(group)
    assert weighed(group, "size", catalog.longest_atom) == reference.best_atom(
        catalog, "size"
    )
    assert weighed(group, "cross", catalog.heaviest_atom) == reference.best_atom(
        catalog, "cross"
    )
    assert weighed(
        group, "cross", catalog.heaviest_zero_sum_free
    ) == reference.max_zero_sum_free_cross(catalog)
