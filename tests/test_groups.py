import itertools
import random
from math import gcd

import group_fold_reference as reference
import order_scan_reference
import pytest
from hypothesis import given, settings, strategies as st

from zerosums import (
    abelian_groups_of_order,
    element_order,
    kernel_elements,
    kernel_structure,
    make_hom,
    multiplication_hom,
    normalize_group,
    prime_stats,
    projection_hom,
    quotient_structure,
    reduction_hom,
    trivial_group,
)
from zerosums.errors import (
    DomainError,
    IllDefinedHomomorphismError,
    InvalidModulusError,
)
from zerosums.groups import (
    FiniteAbelianGroup,
    abelian_groups_up_to,
    factorize,
    is_prime,
    order_statistics,
    product_presentation,
)


def test_normalize_crt_recombination():
    g = normalize_group([2, 3])
    assert g.invariant_factors == (6,)
    assert g.primary_components == ((2, 1), (3, 1))


def test_normalize_same_group_both_spellings():
    assert normalize_group([6]) == normalize_group([2, 3])


def test_normalize_divisibility_chain_sort():
    g = normalize_group([4, 2])
    assert g.invariant_factors == (2, 4)
    assert g.primary_components == ((2, 1), (2, 2))
    assert FiniteAbelianGroup((2, 4)) == g
    assert FiniteAbelianGroup((2, 4)).primary_components == ((2, 1), (2, 2))


@pytest.mark.parametrize(
    "factors",
    [(4, 2), (1, 2), (2, 3), (2, 0), (2.5,), (6.0,), (2, 4.0), ("4",), (True, 2)],
)
def test_group_rejects_factors_that_are_not_a_chain_above_1(factors):
    with pytest.raises(InvalidModulusError):
        FiniteAbelianGroup(factors)


def test_normalize_rejects_small_moduli():
    with pytest.raises(InvalidModulusError):
        normalize_group([1])
    with pytest.raises(InvalidModulusError):
        normalize_group([4, 0])


@pytest.mark.parametrize("modulus", [2.5, 6.0, "4", True, 0.5])
def test_normalize_rejects_moduli_that_are_not_ints(modulus):
    with pytest.raises(InvalidModulusError):
        normalize_group([modulus])
    with pytest.raises(InvalidModulusError):
        normalize_group([2, modulus])


def test_trivial_group():
    t = trivial_group()
    assert t.order == 1 and t.exponent == 1 and t.rank == 0
    assert t.key == "1"
    assert normalize_group([]) == t


@given(st.lists(st.integers(2, 36), min_size=1, max_size=4))
def test_normalize_presentation_independent(moduli):
    direct = normalize_group(moduli)
    split = []
    for m in moduli:
        split.extend(p**e for p, e in factorize(m).items())
    assert normalize_group(sorted(split, reverse=True)) == direct
    assert normalize_group(direct.invariant_factors) == direct


def test_element_order_examples():
    c4 = normalize_group([4])
    assert element_order(c4, c4.element([2])) == 2
    c6 = normalize_group([6])
    assert element_order(c6, c6.zero()) == 1
    g = normalize_group([4, 2])  # invariant factors (2, 4)
    assert element_order(g, g.element([1, 1])) == 4


def test_element_order_divides_exponent():
    for n in range(2, 17):
        for g in abelian_groups_of_order(n):
            orders = [g.element_order(x) for x in g.elements()]
            assert all(g.exponent % o == 0 for o in orders)
            from math import lcm
            assert lcm(*orders) == g.exponent
            assert len(orders) == g.order


def test_prime_stats_examples():
    assert prime_stats(12) == (2, 3, 2)
    assert prime_stats(7) == (7, 7, 1)
    assert prime_stats(30) == (2, 5, 3)
    with pytest.raises(DomainError):
        prime_stats(1)


def test_is_prime_small():
    primes = [n for n in range(2, 40) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]


def test_make_hom_c4_to_c2():
    c4, c2 = normalize_group([4]), normalize_group([2])
    phi = make_hom(c4, c2, [[1]])
    assert phi(c4.element([3])) == (1,)
    assert phi(c4.element([2])) == (0,)


def test_make_hom_projection():
    g = normalize_group([2, 2])
    phi = make_hom(g, normalize_group([2]), [[1], [0]])
    assert phi(g.element([1, 1])) == (1,)
    assert phi(g.element([0, 1])) == (0,)


def test_make_hom_ill_defined():
    with pytest.raises(IllDefinedHomomorphismError):
        make_hom(normalize_group([2]), normalize_group([3]), [[1]])


def test_hom_additivity_exhaustive_up_to_16():
    for order in range(2, 17):
        for g in abelian_groups_of_order(order):
            homs = [multiplication_hom(g, 2), projection_hom(g, 0)]
            if g.invariant_factors[0] % 2 == 0:
                homs.append(reduction_hom(g, [2] + [1] * (g.rank - 1)))
            for phi in homs:
                for a in g.elements():
                    for b in g.elements():
                        assert phi(g.add(a, b)) == phi.target.add(phi(a), phi(b))


GROUPS_TO_64 = [trivial_group()] + abelian_groups_up_to(64)


@pytest.mark.parametrize("source", GROUPS_TO_64, ids=lambda g: g.key)
@settings(max_examples=10)
@given(data=st.data())
def test_hom_is_the_generator_fold(source, data):
    target = data.draw(st.sampled_from(GROUPS_TO_64))
    images = []
    for n in source.invariant_factors:
        # t // gcd(t, n) times anything has order dividing n in C_t.
        images.append(
            [
                data.draw(st.integers(0, t - 1)) * (t // gcd(t, n)) % t
                for t in target.invariant_factors
            ]
        )
    phi = make_hom(source, target, images)
    zero = target.zero()
    folded = {g: reference.apply(phi, g) for g in source.elements()}
    for g, image in folded.items():
        assert phi(g) == image
    assert kernel_elements(phi) == [g for g, image in folded.items() if image == zero]
    assert quotient_structure(phi).order == len(set(folded.values()))


def test_kernel_examples():
    c4 = normalize_group([4])
    phi = reduction_hom(c4, [2])
    assert kernel_elements(phi) == [(0,), (2,)]
    assert kernel_structure(phi) == normalize_group([2])

    g = normalize_group([2, 2])
    proj = projection_hom(g, 0)
    assert kernel_elements(proj) == [(0, 0), (0, 1)]
    assert kernel_structure(proj) == normalize_group([2])

    c6 = normalize_group([6])
    ident = make_hom(c6, c6, [[1]])
    assert kernel_elements(ident) == [(0,)]
    assert kernel_structure(ident) == trivial_group()


@pytest.mark.parametrize("p,m", [(2, 2), (2, 3), (3, 2)])
def test_multiplication_by_p_kernel_and_image(p, m):
    g = normalize_group([p**m])
    phi = multiplication_hom(g, p)
    assert kernel_structure(phi) == normalize_group([p])
    assert quotient_structure(phi).order == p ** (m - 1)


def test_quotient_structure():
    c4 = normalize_group([4])
    assert quotient_structure(reduction_hom(c4, [2])) == normalize_group([2])
    g = normalize_group([2, 4])
    assert quotient_structure(multiplication_hom(g, 2)) == normalize_group([2])


def _oracle_structures(phi):
    """Kernel and quotient read off the element orders of the kernel and of
    the image set by the candidate scan."""
    scan = order_scan_reference.group_from_order_statistics
    kernel = kernel_elements(phi)
    image = {phi(g) for g in phi.source.elements()}
    return (
        scan([phi.source.element_order(g) for g in kernel]),
        scan([phi.target.element_order(x) for x in image]),
    )


SMALL_TARGETS = [trivial_group()] + abelian_groups_up_to(24)


def _maps_of(source):
    """Every projection, reduction and multiplication map of source (the
    CLI's proj, mod and mul kinds), then 20 seeded random maps into groups of
    order at most 24."""
    for coord in range(source.rank):
        yield projection_hom(source, coord)
    divisors = [[d for d in range(1, n + 1) if n % d == 0] for n in source.invariant_factors]
    for moduli in itertools.product(*divisors):
        yield reduction_hom(source, moduli)
    for k in range(source.exponent):
        yield multiplication_hom(source, k)
    rng = random.Random(source.key)
    for _ in range(20):
        target = rng.choice(SMALL_TARGETS)
        images = [
            [rng.randrange(t) * (t // gcd(t, n)) % t for t in target.invariant_factors]
            for n in source.invariant_factors
        ]
        yield make_hom(source, target, images)


@pytest.mark.parametrize("source", GROUPS_TO_64, ids=lambda g: g.key)
def test_structures_match_the_element_order_scan(source):
    for phi in _maps_of(source):
        got = (kernel_structure(phi), quotient_structure(phi))
        assert got == _oracle_structures(phi), phi


@pytest.mark.parametrize(
    "moduli, hom, kernel, quotient",
    [
        ([2] * 15, projection_hom, "x".join(["2"] * 14), "2"),
        ([101, 10201], lambda g, _: reduction_hom(g, [101, 101]), "101", "101x101"),
        ([8, 4096], lambda g, _: multiplication_hom(g, 2), "2x2", "4x2048"),
    ],
    ids=["proj-2^15", "mod-101x10201", "mul-8x4096"],
)
def test_structures_read_no_element(monkeypatch, moduli, hom, kernel, quotient):
    phi = hom(normalize_group(moduli), 0)

    def refuse(self):
        raise AssertionError(f"listed the elements of {self}")

    monkeypatch.setattr(FiniteAbelianGroup, "elements", refuse)
    assert (kernel_structure(phi).key, quotient_structure(phi).key) == (kernel, quotient)


def test_group_from_order_statistics_distinguishes():
    c4, c22 = normalize_group([4]), normalize_group([2, 2])
    assert order_scan_reference.group_from_order_statistics([1, 2, 4, 4]) == c4
    assert order_scan_reference.group_from_order_statistics([1, 2, 2, 2]) == c22


@pytest.mark.parametrize(
    "group", [trivial_group()] + abelian_groups_up_to(64), ids=lambda g: g.key
)
def test_group_from_order_statistics_matches_the_candidate_scan(group):
    stats = order_statistics(group)
    assert order_scan_reference.group_from_order_statistics(stats) == group


@pytest.mark.parametrize(
    "orders",
    [[], [2, 2], [1, 1], [1, 3], [1, 2, 2, 4], [1, 2, 3, 6, 6, 6], [1, 0], [0]],
)
def test_group_from_order_statistics_rejects_orders_of_no_group(orders):
    with pytest.raises(DomainError):
        order_scan_reference.group_from_order_statistics(orders)


def test_abelian_groups_of_order_counts():
    assert len(abelian_groups_of_order(1)) == 1
    assert len(abelian_groups_of_order(4)) == 2
    assert len(abelian_groups_of_order(8)) == 3
    assert len(abelian_groups_of_order(12)) == 2
    assert len(abelian_groups_of_order(16)) == 5
    assert len(abelian_groups_of_order(36)) == 4


def test_product_presentation_is_isomorphism():
    for moduli in ([2, 3], [4, 2], [6, 2], [2, 2, 3], [4, 6], [12, 18, 2], [6, 10, 15]):
        target, images = product_presentation(moduli)
        seen = set()
        # Enumerate the full product and map elementwise.
        for rs in itertools.product(*(range(m) for m in moduli)):
            acc = target.zero()
            for r, img in zip(rs, images):
                acc = target.add(acc, target.scale(r, img))
            seen.add(acc)
        assert len(seen) == target.order


@pytest.mark.parametrize(
    "moduli, key, images",
    [
        ([4, 6], "2x12", ((0, 3), (1, 4))),
        ([12, 18, 2], "2x6x36", ((0, 2, 9), (1, 0, 4), (0, 3, 0))),
        ([6, 10, 15], "30x30", ((25, 0), (6, 15), (0, 16))),
    ],
)
def test_product_presentation_pins_its_images(moduli, key, images):
    # Within one prime power, inputs take the target's coordinates in
    # ascending order; two primes of one modulus may share a coordinate.
    target, got = product_presentation(moduli)
    assert (target.key, got) == (key, images)
