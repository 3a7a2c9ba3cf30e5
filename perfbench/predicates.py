"""Seeded inputs for the predicates workload, each with a known answer.

Every input is built so that its answer follows from the construction:

* zero-sum-free sequences over a group of exponent n: elements whose last
  coordinate is u*c_i with u a unit mod n and positive c_i summing below n,
  so every nonempty subsum is u*s with 0 < s < n;
* atoms: a zero-sum-free sequence closed by the negation of its sum;
* early rejects: random elements with a planted pair x, -x;
* unique-factorization multisets: unit multiples of the closed-form towers;
  and non-unique ones: an atom taken twice (swapping the two copies of one
  element gives a second factorization);
* decompositions: unit multiples of towers, whose packing size t does not
  change under an automorphism that commutes with the map;
* log-bound comparisons against rationals planted at a distance of at
  least 1e-6 from the float value of the bound.

The composition of a batch (kinds and sizes) is fixed; the seed picks the
elements, units, element order and parameters.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import zerosums as zs

# Exponent above every direct-scan size, so zero-sum-free sequences exist.
DIRECT_GROUPS = ([24], [30], [2, 24])
MULTI_GROUP = [48]
# Multiplicities of the zero-sum-free sequences on the multiplicity-vector
# route, by size. The first entry gets coefficient 1 and the others distinct
# coefficients from 2..len+1, so the coefficient sum stays below 48.
MULTI_PATTERNS = {
    24: (18, 2, 2, 2),
    28: (22, 3, 3),
    32: (26, 3, 3),
    36: (32, 2, 2),
    40: (38, 1, 1),
    21: (15, 3, 3),
    22: (16, 3, 3),
}
TOWERS = ((2, 3), (2, 4), (3, 2), (5, 2))
UFIM_GROUPS = ([2, 4], [2, 2, 4], [3, 6], [4, 4])
# (construction, its argument, hom kind, hom argument); expected t is pinned.
DECOMPOSE_BASES = (
    ("tower", (2, 4), "mod", (4,)),
    ("tower", (2, 4), "mul", 2),
    ("tower", (3, 2), "mod", (3,)),
    ("ufim", (4, 8), "mul", 2),
    ("ufim", (2, 8), "proj", 1),
    ("ufim", (3, 6), "mul", 3),
)
CONSTRAINT_GROUPS = ([5], [7], [5, 5], [35], [5, 7, 7])
CONSTRAINT_C = (Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5, 2), Fraction(3))
BOUND_GROUPS = ([6, 12], [5], [7, 7], [2, 2, 6], [3, 9], [10])


@dataclass
class Query:
    kind: str  # zsf | minimal | ufim | subsets | decompose | constraint | bounds
    args: tuple
    expected: object
    cross: bool = False  # run the independent cross-check on this input


def _unit(rng: random.Random, n: int) -> int:
    while True:
        u = rng.randrange(1, n)
        if math.gcd(u, n) == 1:
            return u


def _scaled(group, elements, u):
    return [tuple(u * r % m for r, m in zip(el, group.invariant_factors))
            for el in elements]


def _ms(group, elements, rng):
    elements = list(elements)
    rng.shuffle(elements)
    return zs.IndexedMultiset.from_elements(group, elements, max_size=len(elements))


def _zsf_elements(rng, group, coeffs):
    """Elements with last coordinate u*c (c in coeffs), other coordinates random."""
    n = group.invariant_factors[-1]
    u = _unit(rng, n)
    out = []
    for c in coeffs:
        head = [rng.randrange(m) for m in group.invariant_factors[:-1]]
        out.append(tuple(head + [c * u % n]))
    return out


def _random_coeffs(rng, length, n):
    coeffs = [1] * length
    for _ in range(rng.randrange(n - length)):
        coeffs[rng.randrange(length)] += 1
    return coeffs


def _pattern_coeffs(rng, pattern):
    values = [1] + sorted(rng.sample(range(2, 2 + len(pattern)), len(pattern) - 1))
    return [v for v, m in zip(values, pattern) for _ in range(m)]


def _close(group, elements):
    total = group.zero()
    for el in elements:
        total = group.add(total, el)
    return elements + [group.neg(total)]


def _random_nonzero(rng, group):
    while True:
        el = tuple(rng.randrange(m) for m in group.invariant_factors)
        if any(el):
            return el


def generate(seed: int, smoke: bool = False) -> list[Query]:
    rng = random.Random(seed)
    queries: list[Query] = []
    add = queries.append

    # Direct 2^l scans that run to the last mask. Size 20 fills more than a
    # tenth of the batch, so the p90 latency falls inside one size.
    direct_sizes = (8, 10) if smoke else (18, 19, 20, 20, 20)
    for i, l in enumerate(direct_sizes):
        group = zs.normalize_group(DIRECT_GROUPS[i % len(DIRECT_GROUPS)])
        n = group.invariant_factors[-1]
        zsf = _ms(group, _zsf_elements(rng, group, _random_coeffs(rng, l, n)), rng)
        atom = _ms(group, _close(group, _zsf_elements(
            rng, group, _random_coeffs(rng, l - 1, n))), rng)
        add(Query("zsf", (zsf,), True, cross=True))
        add(Query("minimal", (atom,), True))
        add(Query("zsf", (atom,), False, cross=True))
        add(Query("ufim", (atom,), True, cross=True))
        add(Query("subsets", (atom,), 2))

    # Early rejects: zero-sum multisets with a planted pair x, -x.
    for i in range(4 if smoke else 10):
        group = zs.normalize_group(DIRECT_GROUPS[i % len(DIRECT_GROUPS)])
        l = (8 if smoke else 16) + i % 5
        while True:
            x = _random_nonzero(rng, group)
            els = [_random_nonzero(rng, group) for _ in range(l - 3)]
            els += [x, group.neg(x)]
            closed = _close(group, els)
            if any(closed[-1]):
                break
        zs_multiset = _ms(group, closed, rng)
        add(Query("zsf", (zs_multiset,), False))
        add(Query("minimal", (zs_multiset,), False))

    # Unique factorization: unit multiples of towers, and doubled atoms.
    for i, (p, m) in enumerate(TOWERS[: 2 if smoke else 4]):
        tower = zs.gao_wang_extremal(p, m)
        u = _unit(rng, p**m)
        add(Query("ufim", (_ms(tower.group, _scaled(tower.group, tower.elements(), u), rng),),
                  True, cross=True))
    for moduli in UFIM_GROUPS[: 1 if smoke else 4]:
        tower = zs.extremal_ufim(zs.normalize_group(moduli))
        group = tower.group
        u = _unit(rng, group.exponent)
        add(Query("ufim", (_ms(group, _scaled(group, tower.elements(), u), rng),),
                  True, cross=True))
    cyclic = zs.normalize_group([24])
    for a in (4, 5) if smoke else (4, 5, 6, 7):
        atom = _close(cyclic, _zsf_elements(rng, cyclic, _random_coeffs(rng, a - 1, 24)))
        add(Query("ufim", (_ms(cyclic, atom + atom, rng),), False, cross=True))

    # Multiplicity-vector route: sizes above the direct-scan limit. The
    # cross-checks list subsets by meet-in-the-middle, which costs 2^(l/2)
    # per half, so they stop at size 32.
    group = zs.normalize_group(MULTI_GROUP)
    for l in (21, 22) if smoke else (24, 28, 32, 36, 40):
        cross = l <= 32
        pattern = MULTI_PATTERNS[l]
        zsf = _ms(group, _zsf_elements(rng, group, _pattern_coeffs(rng, pattern)), rng)
        shorter = (pattern[0] - 1,) + pattern[1:]
        atom = _ms(group, _close(group, _zsf_elements(
            rng, group, _pattern_coeffs(rng, shorter))), rng)
        add(Query("zsf", (zsf,), True, cross=cross))
        add(Query("minimal", (atom,), True))
        add(Query("zsf", (atom,), False, cross=cross))
        add(Query("ufim", (atom,), True, cross=cross))
        if l <= 28:
            add(Query("subsets", (atom,), 2))
    for l in (21, 22) if smoke else (24, 30, 36, 40):
        while True:
            x = _random_nonzero(rng, group)
            if group.neg(x) != x:
                break
        distinct = {x, group.neg(x)}
        while len(distinct) < 4:
            distinct.add(_random_nonzero(rng, group))
        distinct = sorted(distinct)
        els = [distinct[i % 4] for i in range(l)]
        add(Query("zsf", (_ms(group, els, rng),), False))

    # Kernel-packing decompositions; expected t is pinned per base case.
    for index, (kind, arg, hom, hom_arg) in enumerate(
        DECOMPOSE_BASES[: 2 if smoke else len(DECOMPOSE_BASES)]
    ):
        base = (zs.gao_wang_extremal(*arg) if kind == "tower"
                else zs.extremal_ufim(zs.normalize_group(arg)))
        group = base.group
        u = _unit(rng, group.exponent)
        ms = _ms(group, _scaled(group, base.elements(), u), rng)
        if hom == "mod":
            phi = zs.reduction_hom(group, list(hom_arg))
        elif hom == "mul":
            phi = zs.multiplication_hom(group, hom_arg)
        else:
            phi = zs.projection_hom(group, hom_arg)
        add(Query("decompose", (ms, phi), index))

    # Certified log-bound comparisons.
    for _ in range(2 if smoke else 6):
        while True:
            moduli = rng.choice(CONSTRAINT_GROUPS)
            r = rng.choice((2, 3))
            c = rng.choice(CONSTRAINT_C)
            primes = sorted(_prime_factors(math.prod(moduli)))
            if primes[0] > r and (len(primes) == 1 or primes[-1] < c * primes[0]):
                break
        add(Query("constraint", (r, c, zs.normalize_group(moduli)), None))
    for _ in range(2 if smoke else 6):
        group = zs.normalize_group(rng.choice(BOUND_GROUPS))
        k_value = Fraction(rng.randint(1, 20), rng.randint(1, 6))
        gw, gap = _bound_floats(group)
        planted = [Fraction(v) + s * Fraction(rng.randint(1, 1000), 10**6)
                   for v in (gw, gap) for s in (-1, 1)]
        add(Query("bounds", (group, k_value, planted),
                  {"gw": gw, "k": k_value, "exponent": group.exponent}))
    return queries


def _prime_factors(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _bound_floats(group) -> tuple[float, float]:
    """Float values of the Gao-Wang log bound and the asymptote gap."""
    order = group.order
    factors = _prime_factors(order)
    p_minus, p_plus = min(factors), max(factors)
    gw = math.log(order) + math.log2(order) / p_minus
    gap = math.log2(p_plus) * sum(factors.values()) / p_minus
    return gw, gap


# -- running ------------------------------------------------------------------


def run(query: Query):
    """The timed library call; returns the raw result."""
    kind, args = query.kind, query.args
    if kind == "zsf":
        return zs.is_zero_sum_free(*args)
    if kind == "minimal":
        return zs.is_minimal_zero_sum(*args)
    if kind == "ufim":
        return zs.is_ufim(*args)
    if kind == "subsets":
        return zs.zero_sum_subsets(*args)
    if kind == "decompose":
        return zs.construction4_decompose(*args)
    if kind == "constraint":
        return zs.mainthm2_constraint(*args)
    group, k_value, planted = args
    bounds = zs.upper_bounds(group, {"k": k_value})
    gw, gap = bounds["gao_wang_log"], bounds["asymptote_gap"]
    return (
        [gw > planted[0], gw < planted[1], gap > planted[2], gap < planted[3]],
        gw.upper_rational(),
        bounds["girard_two_little_k"],
        bounds["little_k_plus_inv_exponent"],
    )


def to_output(query: Query, raw):
    """JSON form of a raw result, made outside the timed region."""
    if query.kind == "subsets":
        return [sorted(s.labels) for s in raw]
    if query.kind == "decompose":
        return raw.to_lists()
    if query.kind == "constraint":
        return [raw.holds, raw.strict, str(raw.lhs), str(raw.rhs_log2_argument), raw.p1]
    if query.kind == "bounds":
        verdicts, upper, girard, kpe = raw
        return [verdicts, str(upper), str(girard), str(kpe)]
    return raw


# -- checking -----------------------------------------------------------------


def check(query: Query, output, pinned: dict) -> bool:
    """Whether one output matches the answer known for its input."""
    kind = query.kind
    if kind in ("zsf", "minimal", "ufim"):
        return output is query.expected
    if kind == "subsets":
        return len(output) == query.expected and all(
            _sums_to_zero(query.args[0], labels) for labels in output
        )
    if kind == "decompose":
        return _check_decomposition(query, output, pinned["decompose_t"][query.expected])
    if kind == "constraint":
        return _check_constraint(query, output, pinned["constraints"])
    return _check_bounds(query, output)


def cross_check(query: Query) -> bool:
    """Second algorithm of the program on the same input, outside timing."""
    ms = query.args[0]
    if query.kind == "zsf":
        return (len(zs.zero_sum_subsets(ms)) == 1) is query.expected
    if query.kind == "ufim":
        return zs.is_ufim_by_intersection(ms) is query.expected
    return True


def _sums_to_zero(ms, labels) -> bool:
    group, entries = ms.group, ms.entries
    total = group.zero()
    for label in labels:
        total = group.add(total, entries[label])
    return total == group.zero()


def _check_decomposition(query: Query, out: dict, pinned_t: int) -> bool:
    ms, phi = query.args
    group, entries = ms.group, ms.entries
    parts = [out["kernel_part"]["labels"], out["residue"]["labels"]]
    parts += [p["labels"] for p in out["packing"]]
    flat = [label for part in parts for label in part]
    if sorted(flat) != sorted(entries) or out["t"] != len(out["packing"]):
        return False
    zero_t = phi.target.zero()
    if any(phi(entries[label]) != zero_t for label in out["kernel_part"]["labels"]):
        return False
    for part in out["packing"]:
        labels = part["labels"]
        total = group.zero()
        for label in labels:
            total = group.add(total, entries[label])
        if total == group.zero() or phi(total) != zero_t:
            return False
        for mask in range(1, 1 << len(labels)):
            sub = [labels[i] for i in range(len(labels)) if mask >> i & 1]
            if _sums_to_zero(ms, sub):
                return False
    return out["t"] == pinned_t


def _check_constraint(query: Query, out: list, pinned: dict) -> bool:
    r, c, group = query.args
    key = f"{r} {c} {group.key}"
    holds, strict, lhs, arg, p1 = out
    if pinned.get(key) != [lhs, arg, p1]:
        return False
    with mpmath.workdps(60):
        a = Fraction(arg)
        diff = mpmath.mpf(Fraction(lhs).numerator) / Fraction(lhs).denominator - (
            mpmath.log(a.numerator, 2) - mpmath.log(a.denominator, 2)
        ) / p1
    return holds == (diff >= 0) and strict == (diff > 0)


def _check_bounds(query: Query, out: list) -> bool:
    verdicts, upper, girard, kpe = out
    expected = query.expected
    upper = Fraction(upper)
    gw = Fraction(expected["gw"])
    return (
        verdicts == [True, True, True, True]
        and gw - Fraction(1, 10**9) <= upper <= gw + Fraction(1, 10**6) + Fraction(1, 10**9)
        and Fraction(girard) == 2 * expected["k"]
        and Fraction(kpe) == expected["k"] + Fraction(1, expected["exponent"])
    )
