import itertools
from fractions import Fraction

import pytest

from zerosums import (
    IndexedMultiset,
    abelian_groups_of_order,
    big_cross_K,
    construction4_decompose,
    cross_number,
    direct_sum_union,
    extremal_ufim,
    extremal_zero_sum_free,
    gao_wang_extremal,
    is_ufim,
    is_zero_sum_free,
    k1,
    k1_star,
    k_star,
    narkiewicz_n1,
    normalize_group,
    phiunique_consequences,
    projection_hom,
    reduction_hom,
    sigma,
)
from zerosums.errors import DomainError, PreconditionError
from zerosums.groups import Homomorphism, group_table, is_prime, kernel_elements


def G(*moduli):
    return normalize_group(list(moduli))


def prime_powers_up_to(limit):
    out = []
    for p in range(2, limit + 1):
        if not is_prime(p):
            continue
        q = p
        m = 1
        while q <= limit:
            out.append((p, m, q))
            q *= p
            m += 1
    return sorted(out, key=lambda t: t[2])


def test_gao_wang_examples():
    assert gao_wang_extremal(2, 1).canonical() == ((1,), (1,))
    assert gao_wang_extremal(2, 2).canonical() == ((1,), (2,), (2,), (3,))
    assert gao_wang_extremal(3, 1).canonical() == ((1,), (1,), (1,))


def test_gao_wang_rejects_composite():
    with pytest.raises(DomainError):
        gao_wang_extremal(4, 1)


def test_gao_wang_all_prime_powers_up_to_64():
    for p, m, q in prime_powers_up_to(64):
        witness = gao_wang_extremal(p, m)  # construction self-asserts
        assert witness.size == m * p
        assert cross_number(witness) == k1_star(G(q))


def test_extremal_zero_sum_free_examples():
    assert extremal_zero_sum_free(G(4)).canonical() == ((1,), (2,))
    assert extremal_zero_sum_free(G(2, 2)).canonical() == ((0, 1), (1, 0))
    assert extremal_zero_sum_free(G(3)).canonical() == ((1,), (1,))


def test_extremal_zero_sum_free_all_groups_up_to_16():
    for order in range(2, 17):
        for group in abelian_groups_of_order(order):
            witness = extremal_zero_sum_free(group)
            assert is_zero_sum_free(witness)
            assert cross_number(witness) == k_star(group)


def test_extremal_ufim_matches_formula_up_to_16():
    for order in range(2, 17):
        for group in abelian_groups_of_order(order):
            witness = extremal_ufim(group)
            assert cross_number(witness) == k1_star(group)


def test_direct_sum_union_examples():
    u = direct_sum_union(gao_wang_extremal(2, 1), gao_wang_extremal(3, 1))
    assert u.group == G(6)
    assert cross_number(u) == 2 == k1_star(G(6))

    s = gao_wang_extremal(2, 2)
    embedded = direct_sum_union(
        s, IndexedMultiset.from_elements(normalize_group([]), [])
    )
    assert embedded.group == G(4) and cross_number(embedded) == cross_number(s)

    u2 = direct_sum_union(gao_wang_extremal(2, 2), gao_wang_extremal(2, 1))
    assert u2.group == G(4, 2)
    assert cross_number(u2) == Fraction(5, 2) == k1_star(G(4, 2))


def test_direct_sum_union_preserves_unique_factorization():
    parts = {
        2: gao_wang_extremal(2, 1),
        3: gao_wang_extremal(3, 1),
        4: gao_wang_extremal(2, 2),
        5: gao_wang_extremal(5, 1),
    }
    for a, b in itertools.combinations_with_replacement(sorted(parts), 2):
        if a * b > 16:
            continue
        u = direct_sum_union(parts[a], parts[b])
        assert is_ufim(u)
        assert cross_number(u) == cross_number(parts[a]) + cross_number(parts[b])


def test_direct_sum_union_embeds_summands_that_are_not_zero_sum():
    # A zero-sum-free summand has no factorization to keep: the union is
    # built, and sizes and cross numbers still add.
    zsf = extremal_zero_sum_free(G(2))
    for other in (extremal_ufim(G(3)), extremal_zero_sum_free(G(3))):
        u = direct_sum_union(zsf, other)
        assert u.group == G(6) and u.size == zsf.size + other.size
        assert cross_number(u) == cross_number(zsf) + cross_number(other)
        assert is_zero_sum_free(u) == is_zero_sum_free(other)


# -- kernel-packing decomposition ------------------------------------------------


def test_decompose_example_tower_mod_two():
    group = G(4)
    s = IndexedMultiset.from_elements(group, [[1], [2], [3], [2]])
    phi = reduction_hom(group, [2])
    d = construction4_decompose(s, phi)
    assert sorted(d.kernel_part.elements()) == [(2,), (2,)]
    assert d.t == 0
    assert sorted(d.residue.elements()) == [(1,), (3,)]


def test_decompose_example_with_packing():
    group = G(2, 2)
    s = IndexedMultiset.from_elements(group, [[1, 1], [1, 0], [0, 1]])
    phi = projection_hom(group, 0)
    d = construction4_decompose(s, phi)
    assert sorted(d.kernel_part.elements()) == [(0, 1)]
    assert d.t == 1
    assert sorted(d.packing[0].elements()) == [(1, 0), (1, 1)]
    assert sigma(d.packing[0]) in set(kernel_elements(phi))
    assert d.residue.size == 0


def test_decompose_example_no_packing():
    group = G(2, 2)
    s = IndexedMultiset.from_elements(group, [[1, 0], [1, 0], [0, 1], [0, 1]])
    phi = projection_hom(group, 0)
    d = construction4_decompose(s, phi)
    assert sorted(d.kernel_part.elements()) == [(0, 1), (0, 1)]
    assert d.t == 0
    assert sorted(d.residue.elements()) == [(1, 0), (1, 0)]


def test_decompose_requires_unique_factorization():
    group = G(2)
    s = IndexedMultiset.from_elements(group, [[1]] * 4)
    with pytest.raises(PreconditionError):
        construction4_decompose(s, reduction_hom(group, [2]))


def test_decompose_of_a_multiset_that_is_not_zero_sum_names_its_precondition():
    # The unique-factorization test needs a zero sum; its own message would
    # name that internal test instead of what decompose requires.
    group = G(4)
    s = IndexedMultiset.from_elements(group, [[1], [2]])
    with pytest.raises(PreconditionError, match="decomposition needs a unique-"):
        construction4_decompose(s, reduction_hom(group, [2]))


def test_decompose_packing_count_matches_brute_force():
    """Exact maximal packing count, against direct enumeration of families."""
    cases = [
        (G(4), [[1], [2], [3], [2]], lambda g: reduction_hom(g, [2])),
        (G(2, 2), [[1, 1], [1, 0], [0, 1]], lambda g: projection_hom(g, 0)),
        (G(6), [[3], [3], [2], [2], [2]], lambda g: reduction_hom(g, [3])),
        (G(6), [[1], [2], [3]], lambda g: reduction_hom(g, [3])),
        (G(6), [[1], [1], [1], [3]], lambda g: reduction_hom(g, [3])),
        (G(2, 4), [[1, 1], [1, 1], [0, 2]], lambda g: projection_hom(g, 0)),
    ]
    for group, elements, mk in cases:
        s = IndexedMultiset.from_elements(group, elements)
        phi = mk(group)
        d = construction4_decompose(s, phi)
        kernel = set(kernel_elements(phi))
        labels = [
            l for l in s.labels if phi(s.element_at(l)) != phi.target.zero()
        ]
        candidates = []
        for r in range(1, len(labels) + 1):
            for combo in itertools.combinations(labels, r):
                part = s.submultiset(combo)
                if (
                    sigma(part) != group.zero()
                    and sigma(part) in kernel
                    and is_zero_sum_free(part)
                ):
                    candidates.append(frozenset(combo))
        best = 0
        for size in range(len(candidates), 0, -1):
            for family in itertools.combinations(candidates, size):
                union = set()
                total = 0
                for f in family:
                    union |= f
                    total += len(f)
                if total == len(union):
                    best = size
                    break
            if best:
                break
        assert d.t == best, (group.key, elements)


def test_decompose_deterministic():
    group = G(6)
    s = IndexedMultiset.from_elements(group, [[1], [1], [1], [3]])
    phi = reduction_hom(group, [3])
    d1 = construction4_decompose(s, phi)
    d2 = construction4_decompose(s, phi)
    assert d1.t == d2.t == 1
    assert d1.packing == d2.packing
    assert sorted(d1.packing[0].elements()) == [(1,), (1,), (1,)]
    assert d1.kernel_part.labels == d2.kernel_part.labels


def test_decompose_maps_each_subset_sum_once(monkeypatch):
    # 32 entries over C_2^16, of which 2 lie outside the kernel: the cost
    # follows the entries and their subset sums, not the 65,536 elements.
    group = G(*[2] * 16)
    ms = extremal_ufim(group)
    phi = projection_hom(group, 0)
    rest = [el for el in ms.elements() if any(phi(el))]
    original = Homomorphism._apply
    calls = 0

    def counting(self, g):
        nonlocal calls
        calls += 1
        return original(self, g)

    monkeypatch.setattr(Homomorphism, "_apply", counting)
    d = construction4_decompose(ms, phi)
    assert d.t == 0 and d.residue.size == len(rest) == 2
    assert calls <= ms.size + 2 ** len(rest) + len(rest)


def test_phiunique_consequence_examples():
    group = G(4)
    s = IndexedMultiset.from_elements(group, [[1], [2], [3], [2]])
    d = construction4_decompose(s, reduction_hom(group, [2]))
    parts = {
        "K1_kernel": Fraction(1),
        "N1_kernel": Fraction(2),
        "K1_quotient": Fraction(1),
        "K_quotient": Fraction(1),
    }
    rows = {r["item"]: r for r in phiunique_consequences(d, parts)}
    assert rows[3]["lhs"] == Fraction(3, 2) and rows[3]["rhs"] == Fraction(3, 2)
    assert all(r["passed"] for r in rows.values())

    g22 = G(2, 2)
    s2 = IndexedMultiset.from_elements(g22, [[1, 1], [1, 0], [0, 1]])
    d2 = construction4_decompose(s2, projection_hom(g22, 0))
    rows2 = {r["item"]: r for r in phiunique_consequences(d2, parts)}
    assert rows2[2]["lhs"] == 2 and rows2[2]["rhs"] == 2 and rows2[2]["passed"]

    s3 = IndexedMultiset.from_elements(g22, [[1, 0], [1, 0], [0, 1], [0, 1]])
    d3 = construction4_decompose(s3, projection_hom(g22, 0))
    rows3 = {r["item"]: r for r in phiunique_consequences(d3, parts)}
    assert rows3[7]["lhs"] == 2 and rows3[7]["rhs"] == 2 and rows3[7]["passed"]


def test_phiunique_consequences_on_random_unions():
    """All applicable inequalities hold with exact part invariants."""
    import random

    from zerosums.groups import kernel_structure, quotient_structure

    rng = random.Random(5)
    for spec, mk in (
        ([4], lambda g: reduction_hom(g, [2])),
        ([2, 2], lambda g: projection_hom(g, 0)),
        ([6], lambda g: reduction_hom(g, [2])),
        ([6], lambda g: reduction_hom(g, [3])),
        ([2, 4], lambda g: projection_hom(g, 1)),
    ):
        group = normalize_group(spec)
        phi = mk(group)
        ker = kernel_structure(phi)
        quot = quotient_structure(phi)
        parts = {
            "K1_kernel": k1(ker).value,
            "N1_kernel": narkiewicz_n1(ker).value,
            "K1_quotient": k1(quot).value,
            "K_quotient": big_cross_K(quot).value,
        }
        nonzero = list(group.elements())[1:]
        seen = 0
        attempts = 0
        while seen < 25 and attempts < 4000:
            attempts += 1
            els = [rng.choice(nonzero) for _ in range(rng.randint(1, 6))]
            total = group.zero()
            for e in els:
                total = group.add(total, e)
            closing = group.neg(total)
            if closing == group.zero():
                continue
            els.append(closing)
            s = IndexedMultiset.from_elements(group, els)
            if not is_ufim(s):
                continue
            seen += 1
            d = construction4_decompose(s, phi)
            for row in phiunique_consequences(d, parts):
                assert row["passed"], (spec, els, row)
        assert seen >= 10


def test_r_extension_dichotomy():
    """Over C_r + G with coprime |G|: a unique-factorization multiset either
    stays below the closed-form value with an empty packing, or has no block
    inside the C_r part."""
    from zerosums.atoms import atom_catalog
    from count_vector_reference import iter_ufims

    for r, rest in ((2, 3), (2, 5)):
        group = G(r * rest)
        phi = reduction_hom(group, [rest])
        table = group_table(group)
        zero = group.zero()
        formula = k1_star(group)
        checked = 0
        for blocks in iter_ufims(group, atom_catalog(group)):
            m_r = sum(
                1
                for block in blocks
                if all(group.scale(r, table.decode(c)) == zero for c in block)
            )
            if m_r == 0:
                continue  # second arm of the dichotomy
            codes = [c for block in blocks for c in block]
            elements = [table.decode(c) for c in codes]
            s = IndexedMultiset.from_elements(group, elements)
            d = construction4_decompose(s, phi)
            assert cross_number(s) <= formula and d.t == 0, (r, rest, elements)
            checked += 1
        assert checked > 0
