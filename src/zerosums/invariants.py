"""Exact zero-sum invariants: searches, formula evaluators, and bounds.

Search invariants (D, N1, K, k, K1) come with a witness that reproduces the
value, deterministic statistics, and optional persistent caching. Formula
evaluators are re-exported from the closed-form module. Bound evaluators mix
exact rationals with certified interval comparisons for logarithm terms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

from . import config, constructions
from .atoms import AtomCatalog, atom_catalog, cross_weights
from .cache import ResultCache
from .errors import (
    ConstraintInapplicableError,
    DomainError,
    LemmaNotApplicableError,
    ResourceLimitError,
    ZerosumsError,
)
from .factorization import is_ufim, unique_factorization
from .formulas import K_star, d_star, k1_star, k_star, n1_star
from .groups import (
    Element,
    FiniteAbelianGroup,
    Homomorphism,
    abelian_groups_of_order,
    factorize,
    group_table,
    kernel_structure,
    normalize_group,
    prime_stats,
    quotient_structure,
)
from .logbounds import LogBound
from .multisets import IndexedMultiset, cross_number, to_lists
from .search import Budget, SearchStats, maximize_over_ufims

__all__ = [
    "Budget",
    "ConstraintCheck",
    "FamilyReport",
    "InstanceCheck",
    "InvariantResult",
    "K_star",
    "big_cross_K",
    "check_size_limit",
    "d_star",
    "davenport",
    "family_membership",
    "from_record",
    "k1",
    "k1_star",
    "k_star",
    "little_cross_k",
    "lowest_order_bound",
    "m_p1_of",
    "mainthm2_constraint",
    "n1_star",
    "narkiewicz_n1",
    "quotient_bound",
    "size_limit_threshold",
    "to_record",
    "upper_bounds",
    "verify_family",
]

RECORD_VERSION = 1

# Invariants whose results carry a witness reproducing the value.
_WITNESSED = ("D", "N1", "K", "k", "K1")

# Proven lower bounds of the cached invariants: each is attained by a
# construction, so a smaller cached value is wrong.
_LOWER_BOUNDS = {"D": d_star, "N1": n1_star, "K": K_star, "k": k_star, "K1": k1_star}


@dataclass
class InvariantResult:
    group: FiniteAbelianGroup
    invariant: str
    value: Fraction
    witness: IndexedMultiset | None
    stats: SearchStats
    provenance: str  # computed | cached | formula
    complete: bool = True

    def verify(self) -> bool:
        """Recompute the witness's defining predicate and measure.

        A D, N1, K, k or K1 result without a witness stands for the empty
        one, so it verifies only with value 0. Other results carry no
        witness to check.
        """
        from .factorization import is_minimal_zero_sum, is_zero_sum_free

        if self.witness is None:
            return self.invariant not in _WITNESSED or self.value == 0
        w = self.witness
        if self.invariant == "D":
            return is_minimal_zero_sum(w) and Fraction(w.size) == self.value
        if self.invariant == "N1":
            return is_ufim(w) and Fraction(w.size) == self.value
        if self.invariant == "K":
            return is_minimal_zero_sum(w) and cross_number(w) == self.value
        if self.invariant == "k":
            return is_zero_sum_free(w) and cross_number(w) == self.value
        if self.invariant == "K1":
            return is_ufim(w) and cross_number(w) == self.value
        return True


def to_record(result: InvariantResult) -> dict:
    """Structured record, format version 1."""
    v = result.value
    return {
        "version": RECORD_VERSION,
        "group_key": result.group.key,
        "invariant": result.invariant,
        "value": f"{v.numerator}/{v.denominator}",
        "witness": to_lists(result.witness) if result.witness is not None else None,
        "stats": {
            "nodes": result.stats.nodes,
            "prunes": dict(sorted(result.stats.prunes.items())),
        },
        "provenance": result.provenance,
        "incomplete": not result.complete,
    }


def from_record(group: FiniteAbelianGroup, record: dict) -> InvariantResult:
    if record.get("version") != RECORD_VERSION:
        raise DomainError(f"unsupported record version {record.get('version')}")
    if record["group_key"] != group.key:
        raise DomainError("record belongs to a different group")
    num, _, den = record["value"].partition("/")
    value = Fraction(int(num), int(den or 1))
    witness = None
    if record["witness"] is not None:
        witness = IndexedMultiset.from_elements(
            group, record["witness"], max_size=len(record["witness"])
        )
    stats = SearchStats(nodes=record["stats"]["nodes"])
    stats.prunes.update(record["stats"]["prunes"])
    return InvariantResult(
        group=group,
        invariant=record["invariant"],
        value=value,
        witness=witness,
        stats=stats,
        provenance=record["provenance"],
        complete=not record.get("incomplete", False),
    )


def _cached(
    group: FiniteAbelianGroup, invariant: str, cache: ResultCache | None
) -> InvariantResult | None:
    if cache is None:
        return None
    record = cache.get_record(group.key, invariant)
    if record is None or record.get("incomplete"):
        return None
    # A record that does not decode, whose witness does not reproduce its
    # value, or whose value is below the proven lower bound is a miss: the
    # caller recomputes and rewrites it.
    try:
        result = from_record(group, record)
        valid = (
            result.invariant == invariant
            and result.value >= _LOWER_BOUNDS[invariant](group)
            and result.verify()
        )
    except (KeyError, TypeError, ValueError, ZerosumsError):
        return None
    if not valid:
        return None
    result.provenance = "cached"
    return result


def _store(result: InvariantResult, cache: ResultCache | None) -> None:
    if cache is not None and result.complete:
        cache.put_record(to_record(result))


def _catalog_for(group: FiniteAbelianGroup) -> AtomCatalog:
    if group.order > config.ATOM_ORDER_CAP:
        raise ResourceLimitError(
            f"group order {group.order} exceeds the atom-based cap "
            f"{config.ATOM_ORDER_CAP}"
        )
    return atom_catalog(group)


def _witness_from_codes(
    group: FiniteAbelianGroup, codes: Iterable[int]
) -> IndexedMultiset | None:
    codes = tuple(codes)
    if not codes:
        return None
    table = group_table(group)
    elements = [table.decode(c) for c in codes]
    return IndexedMultiset.from_elements(group, elements, max_size=len(elements))


# -- atom-catalog invariants --------------------------------------------------


def davenport(
    group: FiniteAbelianGroup, *, cache: ResultCache | None = None
) -> InvariantResult:
    """Longest atom (Davenport constant), with a longest atom as witness."""
    got = _cached(group, "D", cache)
    if got is not None:
        return got
    catalog = _catalog_for(group)
    stats = SearchStats(nodes=catalog.count)
    if catalog.count == 0:
        result = InvariantResult(group, "D", Fraction(0), None, stats, "computed")
    else:
        length = catalog.max_atom_length
        witness_els = catalog.by_length(length)[0]
        witness = IndexedMultiset.from_elements(
            group, witness_els, max_size=length
        )
        result = InvariantResult(
            group, "D", Fraction(length), witness, stats, "computed"
        )
    _store(result, cache)
    return result


def big_cross_K(
    group: FiniteAbelianGroup, *, cache: ResultCache | None = None
) -> InvariantResult:
    """Maximum cross number over atoms, with a canonically least witness."""
    got = _cached(group, "K", cache)
    if got is not None:
        return got
    catalog = _catalog_for(group)
    stats = SearchStats(nodes=catalog.count)
    weight = cross_weights(group)
    best = 0
    best_atom: tuple[Element, ...] | None = None
    for atom in catalog.atoms():
        value = sum(weight[el] for el in atom)
        if best_atom is None or value > best or (value == best and atom < best_atom):
            best = value
            best_atom = atom
    witness = (
        IndexedMultiset.from_elements(group, best_atom, max_size=len(best_atom))
        if best_atom is not None
        else None
    )
    result = InvariantResult(
        group, "K", Fraction(best, group.exponent), witness, stats, "computed"
    )
    _store(result, cache)
    return result


def little_cross_k(
    group: FiniteAbelianGroup, *, cache: ResultCache | None = None
) -> InvariantResult:
    """Maximum cross number over zero-sum-free multisets."""
    from .atoms import max_zero_sum_free_cross

    got = _cached(group, "k", cache)
    if got is not None:
        return got
    catalog = _catalog_for(group)
    stats = SearchStats(nodes=catalog.count)
    value, witness = max_zero_sum_free_cross(group, catalog)
    result = InvariantResult(
        group, "k", value, witness if witness.size else None, stats, "computed"
    )
    _store(result, cache)
    return result


# -- search invariants ----------------------------------------------------------


def _search_invariant(
    group: FiniteAbelianGroup,
    invariant: str,
    *,
    cache: ResultCache | None,
    budget: Budget | None,
) -> InvariantResult:
    got = _cached(group, invariant, cache)
    if got is not None:
        return got
    if group.order > config.SEARCH_ORDER_CAP:
        raise ResourceLimitError(
            f"group order {group.order} exceeds the search cap "
            f"{config.SEARCH_ORDER_CAP}"
        )
    table = group_table(group) if not group.is_trivial else None
    if invariant == "K1":
        floor_ms = constructions.extremal_ufim(group)
        kind = "cross"
    else:
        floor_ms = constructions.generator_repeat_union(group)
        kind = "size"
    floor_value = (
        cross_number(floor_ms) if kind == "cross" else Fraction(floor_ms.size)
    )
    floor_codes = (
        tuple(sorted(table.encode(el) for el in floor_ms.elements()))
        if table is not None
        else ()
    )
    catalog = _catalog_for(group)
    outcome = maximize_over_ufims(
        group, catalog, kind, floor_value, floor_codes, budget=budget
    )
    witness = _witness_from_codes(group, outcome.witness_codes)
    result = InvariantResult(
        group,
        invariant,
        outcome.value,
        witness,
        outcome.stats,
        "computed",
        complete=outcome.stats.complete,
    )
    _store(result, cache)
    return result


def k1(
    group: FiniteAbelianGroup,
    *,
    cache: ResultCache | None = None,
    budget: Budget | None = None,
    workers: int = 1,
) -> InvariantResult:
    """Exact maximum cross number over unique-factorization multisets.

    Full branch-and-bound search seeded with the componentwise tower witness;
    on budget exhaustion the incumbent is returned with complete=False.
    The search runs on one thread; ``workers`` is accepted and ignored.
    """
    return _search_invariant(group, "K1", cache=cache, budget=budget)


def narkiewicz_n1(
    group: FiniteAbelianGroup,
    *,
    cache: ResultCache | None = None,
    budget: Budget | None = None,
    workers: int = 1,
) -> InvariantResult:
    """Exact maximum size of a unique-factorization multiset.

    The search runs on one thread; ``workers`` is accepted and ignored.
    """
    return _search_invariant(group, "N1", cache=cache, budget=budget)


# -- bounds --------------------------------------------------------------------


def upper_bounds(
    group: FiniteAbelianGroup,
    precomputed: dict[str, Fraction] | None = None,
    *,
    cache: ResultCache | None = None,
) -> dict[str, Fraction | LogBound]:
    """Named bounds around K1 and K; log terms stay certified, not rounded."""
    if group.is_trivial:
        zero = Fraction(0)
        return {
            "girard_two_little_k": zero,
            "gao_wang_log": LogBound.of(zero),
            "little_k_plus_inv_exponent": zero,
            "asymptote_gap": LogBound.of(zero),
        }
    vals = dict(precomputed or {})
    if "k" not in vals:
        vals["k"] = little_cross_k(group, cache=cache).value
    order = group.order
    p_minus, p_plus, _ = prime_stats(order)
    exp_count = sum(e for _, e in group.primary_components)
    return {
        "girard_two_little_k": 2 * vals["k"],
        "gao_wang_log": LogBound.ln(order) + LogBound.log2(order, Fraction(1, p_minus)),
        "little_k_plus_inv_exponent": vals["k"] + Fraction(1, group.exponent),
        "asymptote_gap": LogBound.log2(p_plus, Fraction(exp_count, p_minus)),
    }


def quotient_bound(
    group: FiniteAbelianGroup,
    phi: Homomorphism,
    invariants_of_parts: dict[str, Fraction] | None = None,
    *,
    cache: ResultCache | None = None,
) -> Fraction:
    """K1(quotient) + N1(kernel) * K(quotient), an upper bound for K1(group)."""
    if phi.source != group:
        raise DomainError("homomorphism source does not match the group")
    vals = dict(invariants_of_parts or {})
    ker = kernel_structure(phi)
    quot = quotient_structure(phi)
    k1_quot = vals.get("K1_quotient")
    if k1_quot is None:
        k1_quot = k1(quot, cache=cache).value
    n1_ker = vals.get("N1_kernel")
    if n1_ker is None:
        n1_ker = narkiewicz_n1(ker, cache=cache).value
    K_quot = vals.get("K_quotient")
    if K_quot is None:
        K_quot = big_cross_K(quot, cache=cache).value
    return k1_quot + n1_ker * K_quot


def size_limit_threshold(group: FiniteAbelianGroup) -> Fraction:
    """Block-count threshold under which cross numbers stay at the formula value."""
    if group.is_trivial:
        return Fraction(0)
    p_minus = prime_stats(group.order)[0]
    total = Fraction(0)
    for p, e in group.primary_components:
        total += Fraction(p_minus, p) * k1_star(normalize_group([p**e]))
    return total


def check_size_limit(group: FiniteAbelianGroup, ms: IndexedMultiset) -> bool:
    """Verify the threshold implication on one unique-factorization multiset."""
    if ms.group != group:
        raise DomainError("multiset group mismatch")
    blocks = unique_factorization(ms).block_count
    if Fraction(blocks) <= size_limit_threshold(group):
        return cross_number(ms) <= k1_star(group)
    return True


def m_p1_of(ms: IndexedMultiset) -> int:
    """Blocks of the unique factorization lying in the smallest-prime torsion."""
    group = ms.group
    if group.is_trivial:
        return 0
    p1 = prime_stats(group.order)[0]
    zero = group.zero()
    factorization = unique_factorization(ms)
    count = 0
    for block in factorization.blocks:
        if all(
            group.scale(p1, ms.element_at(lbl)) == zero for lbl in block
        ):
            count += 1
    return count


def lowest_order_bound(
    group: FiniteAbelianGroup,
    m_p1: int,
    *,
    little_k: Fraction | None = None,
    cache: ResultCache | None = None,
) -> LogBound:
    """Cross-number cap from the count of lowest-order blocks.

    Case split on the group shape; undefined (error) for elementary p-groups.
    """
    if group.is_trivial:
        raise LemmaNotApplicableError("bound undefined for the trivial group")
    if m_p1 < 0:
        raise DomainError("block count cannot be negative")
    primes = sorted({p for p, _ in group.primary_components})
    p1 = primes[0]
    max_e1 = max(e for p, e in group.primary_components if p == p1)
    multi_prime = len(primes) > 1
    if not multi_prime and max_e1 == 1:
        raise LemmaNotApplicableError(
            "bound undefined for elementary p-groups"
        )
    if multi_prime:
        p2 = primes[1]
        denom = min(p1 * p1, p2) if max_e1 > 1 else p2
    else:
        denom = p1 * p1
    k_val = little_k
    if k_val is None:
        k_val = little_cross_k(group, cache=cache).value
    main = (LogBound.log2(group.order) - Fraction(m_p1)).scaled(Fraction(1, denom))
    return LogBound.of(k_val + Fraction(m_p1, p1)) + main


@dataclass(frozen=True)
class ConstraintCheck:
    """Outcome of the large-prime constraint inequality.

    holds is certified LHS >= RHS; strict is certified LHS > RHS. The exact
    sides are exposed for symbolic checks: lhs is rational, the right side
    is log2(rhs_log2_argument) / p1.
    """

    holds: bool
    strict: bool
    lhs: Fraction
    rhs_log2_argument: Fraction
    p1: int


def mainthm2_constraint(
    r: int, c: Fraction | int, group: FiniteAbelianGroup
) -> ConstraintCheck:
    """Evaluate the large-prime constraint for extending by C_r.

    Preconditions: r in {2, 3}; c >= 1; the group's primes all exceed r and,
    with several primes, fit under c times the smallest.
    """
    if r not in (2, 3):
        raise ConstraintInapplicableError(f"r must be 2 or 3, got {r}")
    c = Fraction(c)
    if c < 1:
        raise ConstraintInapplicableError(f"c must be at least 1, got {c}")
    if group.is_trivial:
        raise ConstraintInapplicableError("the group must be nontrivial")
    by_prime: dict[int, list[int]] = {}
    for p, e in group.primary_components:
        by_prime.setdefault(p, []).append(e)
    primes = sorted(by_prime)
    if primes[0] <= r:
        raise ConstraintInapplicableError(
            f"all primes must exceed r={r}, got {primes[0]}"
        )
    p1 = primes[0]
    if len(primes) > 1 and Fraction(primes[-1]) >= c * p1:
        raise ConstraintInapplicableError(
            f"largest prime {primes[-1]} must be below c*p1 = {c * p1}"
        )
    lhs = Fraction(1, r)
    p1_part = sum(
        (k1_star(normalize_group([p1**e])) for e in by_prime[p1]), Fraction(0)
    )
    lhs += p1_part / p1
    cp1 = c * p1
    for p in primes[1:]:
        for e in by_prime[p]:
            lhs += (cp1**e - 1) / (cp1 ** (e + 1) - cp1**e)
    exps_rest = sum(e for p in primes[1:] for e in by_prime[p])
    exps_all = sum(e for p in primes for e in by_prime[p])
    arg = Fraction(r) * c**exps_rest * Fraction(p1) ** exps_all
    rhs = LogBound.log2(arg, Fraction(1, p1))
    cmp = LogBound.of(lhs).compare(rhs)
    return ConstraintCheck(cmp >= 0, cmp > 0, lhs, arg, p1)


# -- family memberships ----------------------------------------------------------


def family_membership(
    group: FiniteAbelianGroup,
    c: Fraction | int | None = None,
    N: int | None = None,
    l_profile: Sequence[int] | None = None,
) -> dict[str, bool]:
    """Membership in the bounded-prime-spread, bounded-exponent-count, and
    coprime-profile families."""
    if group.is_trivial:
        raise DomainError("family membership needs a nontrivial group")
    out: dict[str, bool] = {}
    p_minus, p_plus, _ = prime_stats(group.order)
    if c is not None:
        out["omega_c"] = Fraction(p_plus) <= Fraction(c) * p_minus
    if N is not None:
        out["s_n"] = sum(e for _, e in group.primary_components) <= N
    if l_profile is not None:
        fs = group.invariant_factors
        ok = len(l_profile) == len(fs)
        if ok:
            n_r = fs[-1]
            for n_i, l_i in zip(fs, l_profile):
                if prime_stats(n_i)[2] != l_i or gcd(n_i, n_r // n_i) != 1:
                    ok = False
                    break
        out["e_profile"] = ok
    return out


# -- family verification harness --------------------------------------------------


@dataclass
class InstanceCheck:
    label: str
    lhs: str
    rhs: str
    passed: bool
    note: str = ""


@dataclass
class FamilyReport:
    theorem: str
    instances: list[InstanceCheck] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(inst.passed for inst in self.instances)

    def summary(self) -> str:
        good = sum(1 for i in self.instances if i.passed)
        return (
            f"{self.theorem}: {good}/{len(self.instances)} instances passed"
        )


def _in_verified_k1_family(group: FiniteAbelianGroup) -> bool:
    """Families with a proven formula value: prime-power cyclic, two-prime
    squarefree cyclic, elementary 2- and 3-groups, and rank-two elementary."""
    primary = group.primary_components
    if len(primary) == 1:
        return True
    if len(primary) == 2 and primary[0][1] == primary[1][1] == 1:
        return True  # C_pq (distinct primes) or C_p^2 (equal primes)
    if all(p == 2 and e == 1 for p, e in primary):
        return True
    if all(p == 3 and e == 1 for p, e in primary):
        return True
    return False


def verify_family(
    theorem: str,
    params: dict,
    *,
    cache: ResultCache | None = None,
    budget: Budget | None = None,
    workers: int = 1,
) -> FamilyReport:
    """Check one theorem family on a parameter grid by exact computation.

    ``workers`` is accepted and ignored, as in ``k1``.
    """
    report = FamilyReport(theorem)

    def k1_value(g: FiniteAbelianGroup) -> tuple[Fraction, bool, InvariantResult]:
        res = k1(g, cache=cache, budget=budget)
        return res.value, res.complete, res

    if theorem == "gaowang":
        for order in params["orders"]:
            for g in abelian_groups_of_order(order):
                if not _in_verified_k1_family(g):
                    continue
                value, complete, _ = k1_value(g)
                expected = k1_star(g)
                report.instances.append(
                    InstanceCheck(
                        label=g.key,
                        lhs=str(value),
                        rhs=str(expected),
                        passed=complete and value == expected,
                        note="" if complete else "incomplete (budget)",
                    )
                )
    elif theorem == "mainthm1":
        p, m, n = params["p"], params["m"], params["n"]
        g = normalize_group([p**m] + [p] * n)
        lhs, complete, _ = k1_value(g)
        rhs = (
            k1_value(normalize_group([p**m]))[0]
            + k1_value(normalize_group([p] * (n + 1)))[0]
            - 1
        )
        report.instances.append(
            InstanceCheck(
                label=f"p={p},m={m},n={n}",
                lhs=str(lhs),
                rhs=str(rhs),
                passed=complete and lhs <= rhs,
                note="" if complete else "incomplete (budget)",
            )
        )
    elif theorem == "mainthm2":
        p, m, q, n = params["p"], params["m"], params["q"], params["n"]
        if p == q:
            raise DomainError("the primes must be distinct")
        g = normalize_group([p**m] + [q] * n)
        lhs, complete, _ = k1_value(g)
        rhs = (
            k1_value(normalize_group([p**m]))[0]
            + k1_value(normalize_group([q] * n))[0]
        )
        report.instances.append(
            InstanceCheck(
                label=f"p={p},m={m},q={q},n={n}",
                lhs=str(lhs),
                rhs=str(rhs),
                passed=complete and lhs <= rhs,
                note="" if complete else "incomplete (budget)",
            )
        )
    elif theorem == "n1k1":
        p, n = params["p"], params["n"]
        g = normalize_group([p] * n)
        n1_res = narkiewicz_n1(g, cache=cache, budget=budget)
        k1_res = k1(g, cache=cache, budget=budget)
        complete = n1_res.complete and k1_res.complete
        report.instances.append(
            InstanceCheck(
                label=f"p={p},n={n}",
                lhs=str(n1_res.value),
                rhs=f"{p}*{k1_res.value} = {p * k1_res.value}",
                passed=complete and n1_res.value == p * k1_res.value,
                note="" if complete else "incomplete (budget)",
            )
        )
    elif theorem == "maximal-split-pq":
        p, q = params["p"], params["q"]
        if p == q or not all(len(factorize(x)) == 1 for x in (p, q)):
            raise DomainError("needs two distinct primes")
        g = normalize_group([p * q])
        res = k1(g, cache=cache, budget=budget)
        if not res.complete:
            report.instances.append(
                InstanceCheck(
                    label=f"pq={p}*{q}",
                    lhs=str(res.value),
                    rhs=str(k1_star(g)),
                    passed=False,
                    note="incomplete (budget)",
                )
            )
        else:
            witness = res.witness
            orders = [g.element_order(el) for el in witness.elements()]
            no_cross_terms = all(o in (p, q) for o in orders)
            split_ok = no_cross_terms
            if no_cross_terms:
                for prime in (p, q):
                    labels = [
                        lbl
                        for lbl, el in witness.items
                        if g.element_order(el) == prime
                    ]
                    part = witness.submultiset(labels)
                    if part.size and not is_ufim(part):
                        split_ok = False
            report.instances.append(
                InstanceCheck(
                    label=f"pq={p}*{q}",
                    lhs=f"K1={res.value}, max witness order {max(orders)}",
                    rhs=f"no element of order {p * q}; parts factor uniquely",
                    passed=res.value == k1_star(g) and no_cross_terms and split_ok,
                )
            )
    else:
        raise DomainError(f"unknown theorem id {theorem!r}")
    return report
