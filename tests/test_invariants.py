import dataclasses
from fractions import Fraction

import pytest

from zerosums import (
    Budget,
    IndexedMultiset,
    K_star,
    abelian_groups_of_order,
    big_cross_K,
    check_size_limit,
    config,
    cross_number,
    d_star,
    davenport,
    family_membership,
    k1,
    k1_star,
    k_star,
    little_cross_k,
    lowest_order_bound,
    m_p1_of,
    mainthm2_constraint,
    multiplication_hom,
    n1_star,
    narkiewicz_n1,
    normalize_group,
    projection_hom,
    quotient_bound,
    reduction_hom,
    size_limit_threshold,
    trivial_group,
    upper_bounds,
    verify_family,
)
from zerosums.cache import ResultCache, dump_record
from zerosums.errors import (
    ConstraintInapplicableError,
    DomainError,
    LemmaNotApplicableError,
    ResourceLimitError,
)
from zerosums.groups import abelian_groups_up_to, group_table, is_prime, prime_stats
from zerosums.invariants import INVARIANTS, InvariantResult, from_record, to_record
from zerosums.logbounds import LogBound


def G(*moduli):
    return normalize_group(list(moduli))


# -- formula evaluators ----------------------------------------------------------


def test_k1_star_examples():
    assert k1_star(G(8)) == Fraction(7, 4)
    assert k1_star(trivial_group()) == 0
    assert k1_star(G(12)) == Fraction(5, 2)


def test_k1_star_terms_on_every_group_to_200():
    # Each component C_{p^e} adds 1 + 1/p + ... + 1/p^(e-1); the threshold
    # weighs the K1* of each component group by p_minus / p.
    for group in abelian_groups_up_to(200):
        parts = group.primary_components
        geometric = sum(Fraction(1, p**i) for p, e in parts for i in range(e))
        assert k1_star(group) == geometric, group
        if group.is_trivial:
            continue
        p_minus = prime_stats(group.order)[0]
        assert size_limit_threshold(group) == sum(
            Fraction(p_minus, p) * k1_star(G(p**e)) for p, e in parts
        ), group


def test_k1_star_additive_over_direct_sums():
    groups = [g for n in range(2, 9) for g in abelian_groups_of_order(n)]
    for a in groups:
        for b in groups:
            combined = G(*a.invariant_factors, *b.invariant_factors)
            assert k1_star(combined) == k1_star(a) + k1_star(b)


def test_starred_formula_examples():
    assert d_star(G(2, 2)) == 3
    assert n1_star(G(2, 2)) == 4
    assert K_star(G(6)) == Fraction(4, 3)
    assert k_star(G(4)) == Fraction(3, 4)
    assert k_star(G(2, 2)) == 1
    assert d_star(trivial_group()) == 0
    assert K_star(trivial_group()) == 0


# -- atom-backed invariants ---------------------------------------------------------


def test_davenport_examples():
    assert davenport(G(4)).value == 4
    assert davenport(G(2, 2)).value == 3
    assert davenport(G(6)).value == 6
    assert davenport(G(4, 2)).value == 5  # equals 1 + (2-1) + (4-1)


def test_big_cross_examples():
    assert big_cross_K(G(4)).value == 1
    assert big_cross_K(G(6)).value == Fraction(4, 3)
    assert big_cross_K(G(2)).value == 1


def test_little_cross_examples():
    assert little_cross_k(G(4)).value == Fraction(3, 4)
    assert little_cross_k(G(2)).value == Fraction(1, 2)
    assert little_cross_k(G(6)).value == Fraction(7, 6)
    assert little_cross_k(G(2, 2)).value == 1


def test_narkiewicz_examples():
    assert narkiewicz_n1(G(4)).value == 4
    assert narkiewicz_n1(G(2, 2)).value == 4
    assert narkiewicz_n1(G(3, 3)).value == 6


def test_k1_examples():
    assert k1(G(4)).value == Fraction(3, 2)
    assert k1(G(4)).witness.canonical() == ((1,), (2,), (2,), (3,))
    assert k1(G(6)).value == 2
    assert k1(G(4, 2)).value == Fraction(5, 2)
    assert k1(G(2, 2)).value == 2


def test_witnesses_verify():
    for group in [g for n in range(1, 17) for g in abelian_groups_of_order(n)]:
        for func in (davenport, big_cross_K, little_cross_k, narkiewicz_n1, k1):
            result = func(group)
            assert result.verify(), (group.key, result.invariant)


@pytest.mark.parametrize("name", list(INVARIANTS))
def test_table_entries_bound_and_verify_their_results(name):
    spec = INVARIANTS[name]
    for group in [g for n in range(1, 13) for g in abelian_groups_of_order(n)]:
        result = spec.compute(group, None, None)
        assert spec.star(group) <= result.value, (name, group.key)
        assert result.verify(), (name, group.key)
        result.value += Fraction(1, group.exponent)
        assert not result.verify(), (name, group.key)


def test_trivial_group_invariants_are_zero():
    t = trivial_group()
    for func in (davenport, big_cross_K, little_cross_k, narkiewicz_n1, k1):
        result = func(t)
        assert result.value == 0 and result.witness is None
        assert result.verify(), result.invariant


def test_witnessless_result_verifies_only_at_zero():
    result = k1(G(4))
    result.witness = None
    assert not result.verify()  # value 3/2
    result.value = Fraction(7, 2)
    assert not result.verify()
    result.value = Fraction(0)
    assert result.verify()
    for invariant in ("D", "N1", "K", "k"):
        result.invariant = invariant
        result.value = Fraction(1)
        assert not result.verify(), invariant
        result.value = Fraction(0)
        assert result.verify(), invariant


def test_formula_and_bound_results_verify_without_a_witness():
    stats = k1(G(4)).stats
    for invariant in ("K1star", "bound:gaowang-log", "bound:girard"):
        result = InvariantResult(
            G(4), invariant, Fraction(7, 2), None, stats, "formula"
        )
        assert result.verify(), invariant


def test_search_order_cap(monkeypatch):
    with pytest.raises(ResourceLimitError):
        k1(G(17))
    monkeypatch.setattr(config, "SEARCH_ORDER_CAP", 17)
    assert k1(G(17)).value == 1


def test_budget_exhaustion_returns_incumbent():
    result = k1(G(2, 2, 3), budget=Budget(max_nodes=20))
    assert not result.complete
    assert result.value >= k1_star(G(2, 2, 3))


def test_time_budget_exhaustion():
    result = k1(G(2, 2, 3), budget=Budget(max_seconds=0.0))
    assert not result.complete
    assert result.value >= k1_star(G(2, 2, 3))


@pytest.mark.parametrize(
    "limits",
    [
        {"max_nodes": -1},
        {"max_seconds": -1.0},
        {"max_seconds": float("nan")},
        # The search stops when its node count equals the limit, which no
        # count of 1.5 does.
        {"max_nodes": 1.5},
        # A bool is an int to isinstance, but True is not a count of nodes
        # or of seconds; a string is not a number of seconds.
        {"max_nodes": True},
        {"max_nodes": False},
        {"max_seconds": True},
        {"max_seconds": "5"},
    ],
)
def test_a_negative_or_nan_budget_is_refused(limits):
    with pytest.raises(DomainError, match="must be at least 0"):
        Budget(**limits)


def test_a_budget_cannot_be_changed_past_its_checks():
    # Assigned after construction, 1.5 nodes would run K1 of 2x4 to the end.
    budget = Budget(max_nodes=1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        budget.max_nodes = 1.5


def test_record_round_trip_and_cache(tmp_path):
    cache = ResultCache(tmp_path)
    first = k1(G(4), cache=cache)
    assert first.provenance == "computed"
    record = to_record(first)
    assert from_record(G(4), record) is not None
    again = k1(G(4), cache=ResultCache(tmp_path))
    assert again.provenance == "cached"
    served = to_record(again)
    assert {k: v for k, v in served.items() if k != "provenance"} == {
        k: v for k, v in record.items() if k != "provenance"
    }
    # the stored record itself round-trips bit-identically
    stored = ResultCache(tmp_path).get_record("4", "K1")
    assert stored == record
    from zerosums.cache import dump_record

    path = cache._record_path("4", "K1")
    assert path.read_text(encoding="utf-8") == dump_record(record)


def test_incomplete_results_not_cached(tmp_path):
    cache = ResultCache(tmp_path)
    partial = k1(G(2, 2, 3), cache=cache, budget=Budget(max_nodes=5))
    assert not partial.complete
    assert ResultCache(tmp_path).get_record("2x6", "K1") is None


@pytest.mark.parametrize("group", abelian_groups_up_to(12), ids=lambda g: g.key)
def test_records_keep_their_completeness_through_a_round_trip(group):
    # Every witnessed invariant, and the two searches stopped after one node.
    one_node = Budget(max_nodes=1)
    results = [spec.compute(group, None, None) for spec in INVARIANTS.values()]
    results += [INVARIANTS[n].compute(group, None, one_node) for n in ("N1", "K1")]
    for result in results:
        back = from_record(group, to_record(result))
        assert dump_record(to_record(back)) == dump_record(to_record(result))
        assert back.stats.complete == back.complete == result.complete


def test_searches_match_brute_force_maximizer():
    """Fully independent oracle: enumerate every zero-sum multiset, filter
    unique factorization by definition counting, and maximize directly."""
    import itertools

    from zerosums.factorization import count_factorizations
    from zerosums import IndexedMultiset, cross_number

    for order in range(2, 9):
        for group in abelian_groups_of_order(order):
            nonzero = list(group.elements())[1:]
            best_cross = Fraction(0)
            best_size = 0
            for size in range(2, group.order + 1):
                for combo in itertools.combinations_with_replacement(
                    nonzero, size
                ):
                    total = group.zero()
                    for e in combo:
                        total = group.add(total, e)
                    if total != group.zero():
                        continue
                    s = IndexedMultiset.from_elements(group, combo)
                    if count_factorizations(s, cap=2) == 1:
                        best_cross = max(best_cross, cross_number(s))
                        best_size = max(best_size, size)
            assert k1(group).value == best_cross, group.key
            assert narkiewicz_n1(group).value == best_size, group.key


# -- bounds --------------------------------------------------------------------------


def test_upper_bounds_examples():
    b4 = upper_bounds(G(4))
    assert b4["girard_two_little_k"] == Fraction(3, 2)
    assert b4["girard_two_little_k"] == k1(G(4)).value  # tight here

    b2 = upper_bounds(G(2))
    log_bound = b2["gao_wang_log"]
    assert log_bound > 1  # K1(C2) = 1
    assert Fraction(119, 100) < log_bound.upper_rational() < Fraction(6, 5)

    b6 = upper_bounds(G(6))
    assert b6["little_k_plus_inv_exponent"] == Fraction(4, 3)
    assert b6["little_k_plus_inv_exponent"] == big_cross_K(G(6)).value


def test_sandwich_chain_small_groups():
    for order in range(2, 13):
        for group in abelian_groups_of_order(order):
            kv = little_cross_k(group).value
            Kv = big_cross_K(group).value
            assert k_star(group) <= kv
            assert kv + Fraction(1, group.exponent) <= Kv
            if group.order <= 12:
                k1v = k1(group).value
                bounds = upper_bounds(group, {"k": kv})
                assert k1_star(group) <= k1v
                assert k1v <= bounds["girard_two_little_k"]
                assert bounds["gao_wang_log"] >= k1v
                assert bounds["asymptote_gap"] >= k1v - kv


def test_quotient_bound_examples():
    c4 = G(4)
    assert quotient_bound(c4, multiplication_hom(c4, 2)) == 3
    g22 = G(2, 2)
    assert quotient_bound(g22, projection_hom(g22, 0)) == 3
    c6 = G(6)
    assert quotient_bound(c6, reduction_hom(c6, [3])) == 3


def test_size_limit_examples():
    assert size_limit_threshold(G(4)) == k1_star(G(4)) == Fraction(3, 2)
    assert size_limit_threshold(G(6)) == Fraction(5, 3)
    witness = IndexedMultiset.from_elements(G(4), [[1], [2], [3], [2]])
    assert check_size_limit(G(4), witness)  # two blocks exceed 3/2: vacuous


def test_size_limit_on_all_small_ufims():
    from zerosums.atoms import atom_catalog
    from count_vector_reference import iter_ufims

    for spec in ([4], [2, 2], [6], [8]):
        group = normalize_group(spec)
        table = group_table(group)
        for blocks in iter_ufims(group, atom_catalog(group)):
            codes = [c for block in blocks for c in block]
            ms = IndexedMultiset.from_elements(
                group, [table.decode(c) for c in codes]
            )
            assert check_size_limit(group, ms)


def test_m_p1_and_lowest_order_bound():
    witness = IndexedMultiset.from_elements(G(4), [[1], [2], [3], [2]])
    assert m_p1_of(witness) == 1

    b0 = lowest_order_bound(G(4), 0)
    assert b0.is_exact and b0.exact == Fraction(5, 4)
    b1 = lowest_order_bound(G(4), 1)
    assert b1.is_exact and b1.exact == Fraction(3, 2)

    with pytest.raises(LemmaNotApplicableError):
        lowest_order_bound(G(2), 0)
    with pytest.raises(LemmaNotApplicableError):
        lowest_order_bound(G(3, 3), 0)
    # several primes: denominator switches per the case split
    b6 = lowest_order_bound(G(6), 0, little_k=Fraction(7, 6))
    assert b6.compare(Fraction(7, 6) + LogBound.log2(6).scaled(Fraction(1, 3))) == 0


def test_conditional_small_block_bound_on_p_groups():
    """Groups satisfying the smallness hypothesis: every unique-factorization
    union obeys the refined cross-number cap."""
    from zerosums.atoms import atom_catalog
    from count_vector_reference import iter_ufims

    activated = 0
    for spec in ([4], [8], [9], [4, 2]):
        group = normalize_group(spec)
        p = group.primary_components[0][0]
        max_e = max(e for _, e in group.primary_components)
        exp_count = sum(e for _, e in group.primary_components)
        hypothesis = (
            max_e > 1
            and LogBound.log2(p).scaled(Fraction(exp_count, p)).compare(k1_star(group))
            <= 0
        )
        if not hypothesis:
            continue
        activated += 1
        table = group_table(group)
        zero = group.zero()
        for blocks in iter_ufims(group, atom_catalog(group)):
            m_p1 = sum(
                1
                for block in blocks
                if all(group.scale(p, table.decode(c)) == zero for c in block)
            )
            value = sum(
                (Fraction(1, table.order[c]) for block in blocks for c in block),
                Fraction(0),
            )
            cap = k1_star(group) + Fraction(m_p1, p) * (1 - Fraction(1, p))
            assert value <= cap, (spec, blocks)
    assert activated >= 3


# -- the large-prime constraint -------------------------------------------------------


def test_constraint_examples():
    c = mainthm2_constraint(2, 1, G(5, 5))
    assert (c.holds, c.strict) == (False, False)
    assert c.lhs == Fraction(9, 10) and c.rhs_log2_argument == 50

    c = mainthm2_constraint(2, 1, G(13, 13))
    assert (c.holds, c.strict) == (True, True)
    assert c.lhs == Fraction(1, 2) + Fraction(2, 13)
    assert c.rhs_log2_argument == 338


def test_constraint_preconditions():
    with pytest.raises(ConstraintInapplicableError):
        mainthm2_constraint(5, 1, G(7))
    with pytest.raises(ConstraintInapplicableError):
        mainthm2_constraint(2, Fraction(1, 2), G(7))
    with pytest.raises(ConstraintInapplicableError):
        mainthm2_constraint(2, 1, G(2, 2))  # primes must exceed r
    with pytest.raises(ConstraintInapplicableError):
        mainthm2_constraint(2, 1, G(5, 7))  # needs 7 < c*5
    with pytest.raises(ConstraintInapplicableError):
        mainthm2_constraint(2, 1, trivial_group())


def test_constraint_matches_corollary_specialization():
    """Shape n=1 with exponents (m, 1): the sides collapse to the displayed
    corollary inequality, as exact rationals."""
    import random

    rng = random.Random(2024)
    primes = [p for p in range(3, 60) if is_prime(p)]
    for _ in range(20):
        r = rng.choice([2, 3])
        p = rng.choice([q for q in primes if q > r])
        m = rng.randint(1, 4)
        c = mainthm2_constraint(r, 1, G(p**m, p))
        corollary_lhs = (
            Fraction(1, r)
            + Fraction(p**m - 1, p ** (m + 1) - p**m)
            + Fraction(1, p)
        )
        assert c.lhs == corollary_lhs
        assert c.rhs_log2_argument == r * p ** (m + 1)


def test_constraint_monotone_onset_on_prime_sweep():
    for r, shape in ((2, (1,)), (2, (2, 1)), (3, (1, 1))):
        primes = [p for p in range(r + 1, 120) if is_prime(p)]
        holds = []
        for p in primes:
            group = G(*[p**e for e in shape])
            holds.append(mainthm2_constraint(r, 1, group).holds)
        assert holds == sorted(holds), (r, shape, holds)  # False* then True*
        assert holds[-1]


def test_constraint_equality_edge_reports_nonstrict():
    # r=2, artificial c chosen so the argument is a power of two and both
    # sides are exact rationals; equality must report holds without strict.
    from zerosums.invariants import ConstraintCheck

    c = mainthm2_constraint(2, 1, G(5))
    # LHS = 1/2 + 1/5 = 7/10, RHS = log2(10)/5 irrational: sanity only
    assert isinstance(c, ConstraintCheck)
    assert c.holds and c.strict


# -- family membership and the verification harness ------------------------------------


def test_family_membership_examples():
    assert family_membership(G(6), c=2)["omega_c"] is True
    assert family_membership(G(12), N=2)["s_n"] is False
    assert family_membership(G(6), l_profile=[2])["e_profile"] is True
    assert family_membership(G(2, 4), l_profile=[1, 1])["e_profile"] is False
    assert family_membership(G(30), c=2)["omega_c"] is False


def test_verify_family_gaowang_small():
    report = verify_family("gaowang", {"orders": range(2, 10)})
    assert report.all_passed
    keys = {i.label for i in report.instances}
    assert "2x4" not in keys  # not in a verified family
    assert {"4", "6", "2x2x2", "3x3", "9"} <= keys


def test_verify_family_mainthm_instances():
    assert verify_family("mainthm1", {"p": 2, "m": 2, "n": 1}).all_passed
    assert verify_family("mainthm2", {"p": 2, "m": 2, "q": 3, "n": 1}).all_passed
    assert verify_family("n1k1", {"p": 2, "n": 2}).all_passed
    assert verify_family("maximal-split-pq", {"p": 2, "q": 3}).all_passed


@pytest.mark.parametrize("order", [12, 30])
def test_verify_family_refuses_a_grid_with_no_instance(order):
    # No group of order 12 or 30 lies in a family with a proven K1.
    message = rf"^gaowang: no instance at orders \[{order}\]$"
    with pytest.raises(DomainError, match=message):
        verify_family("gaowang", {"orders": range(order, order + 1)})


@pytest.mark.parametrize(
    "theorem, params, missing",
    [
        ("mainthm1", {"p": 2}, "m"),
        ("gaowang", {}, "orders"),
        ("maximal-split-pq", {"p": 2}, "q"),
    ],
)
def test_verify_family_names_a_missing_parameter(theorem, params, missing):
    message = f"{theorem} needs the parameter '{missing}'$"
    with pytest.raises(DomainError, match=message):
        verify_family(theorem, params)
