"""Exact zero-sum invariants: searches and bounds.

Search invariants (D, N1, K, k, K1) come with a witness that reproduces the
value, deterministic statistics, and optional persistent caching. The closed
forms they are checked against live in ``formulas``. Bound evaluators mix
exact rationals with certified interval comparisons for logarithm terms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Callable, Literal, NamedTuple, Sequence

from . import config, constructions
from .atoms import _witness_from_codes, atom_catalog, code_weights
from .cache import FORMAT_VERSION, ResultCache
from .errors import (
    ConstraintInapplicableError,
    DomainError,
    LemmaNotApplicableError,
    ResourceLimitError,
    ZerosumsError,
)
from .factorization import (
    is_minimal_zero_sum,
    is_ufim,
    is_zero_sum_free,
    unique_factorization,
)
from .formulas import K_star, d_star, k1_star, k1_star_term, k_star, n1_star
from .groups import (
    FiniteAbelianGroup,
    Homomorphism,
    abelian_groups_of_order,
    group_table,
    is_prime,
    kernel_structure,
    normalize_group,
    prime_stats,
    quotient_structure,
)
from .logbounds import LogBound
from .multisets import IndexedMultiset, cross_number, to_lists
from .search import Budget, SearchStats, maximize_over_ufims

__all__ = [
    "ConstraintCheck",
    "FamilyReport",
    "INVARIANTS",
    "InstanceCheck",
    "Invariant",
    "InvariantResult",
    "THEOREMS",
    "big_cross_K",
    "check_size_limit",
    "davenport",
    "family_membership",
    "from_record",
    "k1",
    "little_cross_k",
    "lowest_order_bound",
    "m_p1_of",
    "mainthm2_constraint",
    "narkiewicz_n1",
    "quotient_bound",
    "size_limit_threshold",
    "to_record",
    "upper_bounds",
    "verify_family",
]


class Invariant(NamedTuple):
    """One witnessed invariant: ``compute(group, cache, budget)``, the name
    of the config cap on the group order it obeys, the predicate ``holds``
    that its witnesses satisfy, the ``measure`` it maximizes, ``star``, its
    closed form, and ``best(group, budget)``, the codes of its least
    maximizer with the statistics of finding it. The value is the measure
    of that maximizer. The closed form is a proven lower bound: a
    construction attains it, so a smaller value is wrong. ``compute``,
    ``holds`` and ``best`` call through module-level names, so a wrapper
    installed on those names (perfbench/tracer.py) sees every call."""

    compute: Callable[..., InvariantResult]
    cap: str
    holds: Callable[[IndexedMultiset], bool]
    measure: Literal["size", "cross"]
    star: Callable[[FiniteAbelianGroup], Fraction]
    best: Callable[[FiniteAbelianGroup, Budget | None], tuple]

    def measure_of(self, ms: IndexedMultiset) -> Fraction:
        return cross_number(ms) if self.measure == "cross" else Fraction(ms.size)


# The witnessed invariants by CLI name, in catalog order. D, K and k are read
# off the atom catalog's walk; N1 and K1 are budgeted unique-factorization
# searches, seeded with a construction that attains the closed form.
INVARIANTS = {
    "D": Invariant(
        lambda g, cache, budget: davenport(g, cache=cache), "ATOM_ORDER_CAP",
        lambda w: is_minimal_zero_sum(w), "size", lambda g: Fraction(d_star(g)),
        lambda g, budget: _walk_best(g, "longest_atom"),
    ),
    "K": Invariant(
        lambda g, cache, budget: big_cross_K(g, cache=cache), "ATOM_ORDER_CAP",
        lambda w: is_minimal_zero_sum(w), "cross", K_star,
        lambda g, budget: _walk_best(g, "heaviest_atom"),
    ),
    "k": Invariant(
        lambda g, cache, budget: little_cross_k(g, cache=cache), "ATOM_ORDER_CAP",
        lambda w: is_zero_sum_free(w), "cross", k_star,
        lambda g, budget: _walk_best(g, "heaviest_zero_sum_free"),
    ),
    "N1": Invariant(
        lambda g, cache, budget: narkiewicz_n1(g, cache=cache, budget=budget),
        "SEARCH_ORDER_CAP", lambda w: is_ufim(w), "size",
        lambda g: Fraction(n1_star(g)),
        lambda g, budget: _search_best(
            g, "size", constructions.generator_repeat_union, budget
        ),
    ),
    "K1": Invariant(
        lambda g, cache, budget: k1(g, cache=cache, budget=budget),
        "SEARCH_ORDER_CAP", lambda w: is_ufim(w), "cross", k1_star,
        lambda g, budget: _search_best(
            g, "cross", constructions.extremal_ufim, budget
        ),
    ),
}


@dataclass
class InvariantResult:
    group: FiniteAbelianGroup
    invariant: str
    value: Fraction
    witness: IndexedMultiset | None
    stats: SearchStats
    provenance: str  # computed | cached | formula

    @property
    def complete(self) -> bool:
        """Whether the search finished, rather than stopping on its budget."""
        return self.stats.complete

    def verify(self) -> bool:
        """Recompute the witness's defining predicate and measure.

        A result of an ``INVARIANTS`` entry without a witness stands for the
        empty one, so it verifies only with value 0. Other results carry no
        witness to check.
        """
        spec = INVARIANTS.get(self.invariant)
        if spec is None:
            return True
        w = self.witness
        if w is None:
            return self.value == 0
        return spec.holds(w) and spec.measure_of(w) == self.value


def to_record(result: InvariantResult) -> dict:
    """Structured record, format version 1."""
    v = result.value
    return {
        "version": FORMAT_VERSION,
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
    if record.get("version") != FORMAT_VERSION:
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
    stats = SearchStats(record["stats"]["nodes"], complete=not record.get("incomplete"))
    stats.prunes.update(record["stats"]["prunes"])
    return InvariantResult(
        group=group,
        invariant=record["invariant"],
        value=value,
        witness=witness,
        stats=stats,
        provenance=record["provenance"],
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
    # value, whose value is below the proven lower bound, or whose k witness
    # is not the least is a miss: the caller recomputes and rewrites it.
    try:
        result = from_record(group, dict(record, provenance="cached"))
        valid = (
            result.invariant == invariant
            and result.value >= INVARIANTS[invariant].star(group)
            and result.verify()
            and (invariant != "k" or _locally_least_zero_sum_free(result.witness))
        )
    except (
        AttributeError, KeyError, TypeError, ValueError, ZeroDivisionError,
        ZerosumsError,
    ):
        return None
    return result if valid else None


def _locally_least_zero_sum_free(witness: IndexedMultiset | None) -> bool:
    """Whether no change of one element gives a smaller zero-sum-free
    sequence of the same cross number.

    A computed k witness is the canonically least maximizer, so it passes.
    Changing one element of a zero-sum witness (D, N1, K, K1) breaks its
    zero sum and fails ``verify()``; a zero-sum-free witness can survive
    such a change, and this catches it: the computed witness is one change
    away and smaller. Trading an element c for a smaller e of the same
    order keeps the cross number and lowers the sorted sequence, and keeps
    it zero-sum free exactly when -e is not a subset sum of the others.
    """
    if witness is None:
        return True
    table = group_table(witness.group)
    codes = sorted(table.encode_all(witness.elements()))
    order, neg = table.order, table.neg
    for i, c in enumerate(codes):
        supp = table.sumset(codes[:i] + codes[i + 1 :])
        if any(order[e] == order[c] and not supp >> neg[e] & 1 for e in range(1, c)):
            return False
    return True


def _lookup_or_compute(
    group: FiniteAbelianGroup,
    invariant: str,
    cache: ResultCache | None,
    budget: Budget | None,
) -> InvariantResult:
    """A witnessed invariant: a verified cache hit, or the measure of the
    maximizer that its ``INVARIANTS`` entry finds, with that maximizer as
    witness, stored when the computation completed."""
    got = _cached(group, invariant, cache)
    if got is not None:
        return got
    spec = INVARIANTS[invariant]
    codes, stats = spec.best(group, budget)
    weight, scale = code_weights(group, spec.measure)
    value = Fraction(sum([weight[c] for c in codes]), scale)
    result = InvariantResult(
        group, invariant, value, _witness_from_codes(group, codes), stats, "computed"
    )
    if cache is not None and result.complete:
        cache.put_record(to_record(result))
    return result


def _walk_best(group: FiniteAbelianGroup, kept: str) -> tuple:
    """The least maximizer that the atom catalog's walk kept, the catalog
    field named ``kept``; the walk's nodes are the catalog's atoms."""
    catalog = atom_catalog(group)
    return getattr(catalog, kept), SearchStats(nodes=catalog.count)


def _search_best(
    group: FiniteAbelianGroup,
    measure: Literal["size", "cross"],
    seed: Callable[[FiniteAbelianGroup], IndexedMultiset],
    budget: Budget | None,
) -> tuple:
    """Branch-and-bound search over unique-factorization multisets, from
    the floor witness ``seed(group)``."""
    if group.order > config.SEARCH_ORDER_CAP:
        raise ResourceLimitError(
            f"group order {group.order} exceeds the search cap "
            f"{config.SEARCH_ORDER_CAP}"
        )
    outcome = maximize_over_ufims(
        group,
        atom_catalog(group),
        measure,
        group_table(group).encode_all(seed(group).elements()),
        budget=budget,
    )
    return outcome.witness_codes, outcome.stats


def davenport(
    group: FiniteAbelianGroup, *, cache: ResultCache | None = None
) -> InvariantResult:
    """Longest atom (Davenport constant), with the least longest atom as
    witness."""
    return _lookup_or_compute(group, "D", cache, None)


def big_cross_K(
    group: FiniteAbelianGroup, *, cache: ResultCache | None = None
) -> InvariantResult:
    """Maximum cross number over atoms, with a canonically least witness."""
    return _lookup_or_compute(group, "K", cache, None)


def little_cross_k(
    group: FiniteAbelianGroup, *, cache: ResultCache | None = None
) -> InvariantResult:
    """Maximum cross number over zero-sum-free multisets."""
    return _lookup_or_compute(group, "k", cache, None)


def k1(
    group: FiniteAbelianGroup,
    *,
    cache: ResultCache | None = None,
    budget: Budget | None = None,
) -> InvariantResult:
    """Exact maximum cross number over unique-factorization multisets.

    Full branch-and-bound search seeded with the componentwise tower witness;
    on budget exhaustion the incumbent is returned with complete=False.
    """
    return _lookup_or_compute(group, "K1", cache, budget)


def narkiewicz_n1(
    group: FiniteAbelianGroup,
    *,
    cache: ResultCache | None = None,
    budget: Budget | None = None,
) -> InvariantResult:
    """Exact maximum size of a unique-factorization multiset."""
    return _lookup_or_compute(group, "N1", cache, budget)


# -- bounds --------------------------------------------------------------------


def _log_bounds(group: FiniteAbelianGroup) -> dict[str, LogBound]:
    """The two closed-form log bounds of ``upper_bounds``, from |G| and its
    primes alone: they need no search, at any order."""
    if group.is_trivial:
        return {"gao_wang_log": LogBound.of(0), "asymptote_gap": LogBound.of(0)}
    order = group.order
    p_minus, p_plus, _ = prime_stats(order)
    exp_count = sum(e for _, e in group.primary_components)
    arg = Fraction(order)
    return {
        # ln|G| + log2|G| / p_minus, in one construction
        "gao_wang_log": LogBound(
            Fraction(0), ((Fraction(1, p_minus), arg),), ((Fraction(1), arg),)
        ),
        "asymptote_gap": LogBound.log2(p_plus, Fraction(exp_count, p_minus)),
    }


def upper_bounds(
    group: FiniteAbelianGroup,
    precomputed: dict[str, Fraction] | None = None,
    *,
    cache: ResultCache | None = None,
) -> dict[str, Fraction | LogBound]:
    """Named bounds around K1 and K; log terms stay certified, not rounded."""
    logs = _log_bounds(group)
    if group.is_trivial:
        k = inv_exponent = Fraction(0)
    else:
        vals = dict(precomputed or {})
        k = vals["k"] if "k" in vals else little_cross_k(group, cache=cache).value
        inv_exponent = Fraction(1, group.exponent)
    return {
        "girard_two_little_k": 2 * k,
        "gao_wang_log": logs["gao_wang_log"],
        "little_k_plus_inv_exponent": k + inv_exponent,
        "asymptote_gap": logs["asymptote_gap"],
    }


def quotient_bound(
    group: FiniteAbelianGroup,
    phi: Homomorphism,
    *,
    cache: ResultCache | None = None,
) -> Fraction:
    """K1(quotient) + N1(kernel) * K(quotient), an upper bound for K1(group)."""
    if phi.source != group:
        raise DomainError("homomorphism source does not match the group")
    ker = kernel_structure(phi)
    quot = quotient_structure(phi)
    return (
        k1(quot, cache=cache).value
        + narkiewicz_n1(ker, cache=cache).value * big_cross_K(quot, cache=cache).value
    )


def size_limit_threshold(group: FiniteAbelianGroup) -> Fraction:
    """Block-count threshold under which cross numbers stay at the formula value."""
    if group.is_trivial:
        return Fraction(0)
    p_minus = prime_stats(group.order)[0]
    total = Fraction(0)
    for p, e in group.primary_components:
        total += Fraction(p_minus, p) * k1_star_term(p, e)
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
    lhs += sum(k1_star_term(p1, e) for e in by_prime[p1]) / p1
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


def _instance(label: str, lhs, rhs, holds: bool, complete: bool) -> InstanceCheck:
    """One instance: it passes when its searches completed and it holds."""
    note = "" if complete else "incomplete (budget)"
    return InstanceCheck(label, str(lhs), str(rhs), complete and holds, note)


# Each check takes the parameters and ``search(compute, group)``, which runs
# ``compute`` (k1 or narkiewicz_n1) with the caller's cache and budget.


def _check_gaowang(params: dict, search) -> list[InstanceCheck]:
    instances = []
    for order in params["orders"]:
        for g in abelian_groups_of_order(order):
            if _in_verified_k1_family(g):
                res = search(k1, g)
                expected = k1_star(g)
                instances.append(_instance(
                    g.key, res.value, expected, res.value == expected, res.complete
                ))
    return instances


def _k1_at_most_sum(search, label: str, moduli, parts, offset: int = 0) -> list:
    """The instance K1(moduli) <= offset + the sum of K1(part) over parts."""
    res = search(k1, normalize_group(moduli))
    rhs = sum(
        (search(k1, normalize_group(part)).value for part in parts), Fraction(offset)
    )
    return [_instance(label, res.value, rhs, res.value <= rhs, res.complete)]


def _check_mainthm1(params: dict, search) -> list[InstanceCheck]:
    p, m, n = params["p"], params["m"], params["n"]
    return _k1_at_most_sum(
        search, f"p={p},m={m},n={n}", [p**m] + [p] * n, ([p**m], [p] * (n + 1)), -1
    )


def _check_mainthm2(params: dict, search) -> list[InstanceCheck]:
    p, m, q, n = params["p"], params["m"], params["q"], params["n"]
    return _k1_at_most_sum(
        search, f"p={p},m={m},q={q},n={n}", [p**m] + [q] * n, ([p**m], [q] * n)
    )


def _check_n1k1(params: dict, search) -> list[InstanceCheck]:
    p, n = params["p"], params["n"]
    g = normalize_group([p] * n)
    n1_res = search(narkiewicz_n1, g)
    k1_res = search(k1, g)
    return [_instance(
        f"p={p},n={n}",
        n1_res.value,
        f"{p}*{k1_res.value} = {p * k1_res.value}",
        n1_res.value == p * k1_res.value,
        n1_res.complete and k1_res.complete,
    )]


def _check_maximal_split(params: dict, search) -> list[InstanceCheck]:
    p, q = params["p"], params["q"]
    g = normalize_group([p * q])
    res = search(k1, g)
    label = f"pq={p}*{q}"
    if not res.complete:
        return [_instance(label, res.value, k1_star(g), False, False)]
    witness = res.witness
    orders = [g.element_order(el) for el in witness.elements()]
    parts = [
        witness.submultiset(
            [lbl for lbl, el in witness.items if g.element_order(el) == prime]
        )
        for prime in (p, q)
    ]
    split = all(o in (p, q) for o in orders) and all(
        is_ufim(part) for part in parts if part.size
    )
    return [_instance(
        label,
        f"K1={res.value}, max witness order {max(orders)}",
        f"no element of order {p * q}; parts factor uniquely",
        res.value == k1_star(g) and split,
        True,
    )]


class Theorem(NamedTuple):
    params: tuple[str, ...]
    check: Callable[[dict, Callable], list[InstanceCheck]]


# The theorem families verify_family checks, by id; the CLI reads its
# theorem ids and their parameter names from here.
THEOREMS = {
    "gaowang": Theorem(("orders",), _check_gaowang),
    "mainthm1": Theorem(("p", "m", "n"), _check_mainthm1),
    "mainthm2": Theorem(("p", "m", "q", "n"), _check_mainthm2),
    "n1k1": Theorem(("p", "n"), _check_n1k1),
    "maximal-split-pq": Theorem(("p", "q"), _check_maximal_split),
}


def verify_family(
    theorem: str,
    params: dict,
    *,
    cache: ResultCache | None = None,
    budget: Budget | None = None,
) -> FamilyReport:
    """Check one theorem family of ``THEOREMS`` on a parameter grid by exact
    computation.

    The parameters the theorem names must all be given; p and q must be
    primes, and distinct when both are needed; m and n must be at least 1.
    Anything else, or a grid with no instance, raises DomainError before
    any search.
    """
    if theorem not in THEOREMS:
        raise DomainError(f"unknown theorem id {theorem!r}")
    needed, check = THEOREMS[theorem]
    for name in needed:
        if name not in params:
            raise DomainError(f"{theorem} needs the parameter {name!r}")
    for name in ("p", "q"):
        if name in params and not is_prime(params[name]):
            raise DomainError(f"{name} must be a prime, got {params[name]}")
    for name in ("m", "n"):
        if name in params and params[name] < 1:
            raise DomainError(f"{name} must be at least 1, got {params[name]}")
    if "q" in needed and params["p"] == params["q"]:
        raise DomainError("the primes must be distinct")

    def search(compute, g: FiniteAbelianGroup) -> InvariantResult:
        return compute(g, cache=cache, budget=budget)

    instances = check(params, search)
    if not instances:  # only gaowang's orders can hold no verified group
        raise DomainError(f"{theorem}: no instance at orders {list(params['orders'])}")
    return FamilyReport(theorem, instances)
