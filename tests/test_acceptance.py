"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
pass. All arithmetic is exact; logarithm comparisons are certified interval
comparisons.
"""

import itertools
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from math import prod
from pathlib import Path

import zerosums
from zerosums import (
    Budget,
    IndexedMultiset,
    abelian_groups_of_order,
    apply_hom,
    big_cross_K,
    cross_number,
    disjoint_union,
    extremal_zero_sum_free,
    gao_wang_extremal,
    is_ufim,
    is_ufim_by_intersection,
    is_zero_sum_free,
    k1,
    k1_star,
    k_star,
    K_star,
    little_cross_k,
    mainthm2_constraint,
    multiplication_hom,
    narkiewicz_n1,
    normalize_group,
    d_star,
    davenport,
    projection_hom,
    reduction_hom,
    sigma,
    unique_factorization,
    upper_bounds,
    zero_sum_subsets,
)
from zerosums.cli import main as cli_main
from zerosums.constructions import construction4_decompose, phiunique_consequences
from zerosums.factorization import count_factorizations
from zerosums.groups import is_prime, kernel_structure, quotient_structure
from zerosums.invariants import to_record


def G(*moduli):
    return normalize_group(list(moduli))


def finish(criterion: int, description: str, failures: list):
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {criterion:02d} {status}: {description}")
    assert not failures, failures[:10]


def random_zero_sum(rng, group, max_size):
    nonzero = list(group.elements())[1:]
    while True:
        els = [rng.choice(nonzero) for _ in range(rng.randint(1, max_size - 1))]
        total = group.zero()
        for e in els:
            total = group.add(total, e)
        closing = group.neg(total)
        if closing != group.zero():
            els.append(closing)
            return IndexedMultiset.from_elements(group, els)


def random_ufim(rng, group, max_size=8):
    while True:
        s = random_zero_sum(rng, group, max_size)
        if is_ufim(s):
            return s


K1_GOLDEN = [
    ((2,), Fraction(1)),
    ((3,), Fraction(1)),
    ((4,), Fraction(3, 2)),
    ((5,), Fraction(1)),
    ((7,), Fraction(1)),
    ((8,), Fraction(7, 4)),
    ((9,), Fraction(4, 3)),
    ((2, 2), Fraction(2)),
    ((2, 2, 2), Fraction(3)),
    ((3, 3), Fraction(2)),
    ((6,), Fraction(2)),
]


def test_criterion_01_k1_golden_values():
    failures = []
    total_start = time.monotonic()
    for spec, expected in K1_GOLDEN:
        group = G(*spec)
        start = time.monotonic()
        result = k1(group)
        elapsed = time.monotonic() - start
        if not result.complete:
            failures.append(f"{group.key}: search incomplete")
        if result.value != expected or result.value != k1_star(group):
            failures.append(f"{group.key}: got {result.value}, want {expected}")
        if not result.verify():
            failures.append(f"{group.key}: witness does not reproduce the value")
        if elapsed >= 60:
            failures.append(f"{group.key}: took {elapsed:.1f}s (>= 60s)")
    total = time.monotonic() - total_start
    if total >= 600:
        failures.append(f"total {total:.1f}s (>= 10 min)")
    finish(1, f"K1 golden values for {len(K1_GOLDEN)} groups ({total:.1f}s)", failures)


def test_criterion_02_corollary_instances():
    failures = []
    r1 = k1(G(4, 2))
    if not (r1.complete and r1.value == Fraction(5, 2) == k1_star(G(4, 2))):
        failures.append(f"K1(C4+C2) = {r1.value}, complete={r1.complete}")

    budget = Budget(max_nodes=2_000_000)
    r2 = k1(G(2, 2, 3), budget=budget)
    if r2.complete:
        if r2.value != Fraction(3) or r2.value != k1_star(G(2, 2, 3)):
            failures.append(f"K1(C2+C2+C3) = {r2.value}")
    else:
        if r2.value < k1_star(G(2, 2, 3)):
            failures.append("incomplete run lost the closed-form incumbent")

    # Exhausted budgets must surface the incumbent with an explicit marker.
    truncated = k1(G(2, 2, 3), budget=Budget(max_nodes=10))
    record = to_record(truncated)
    if not record["incomplete"] or truncated.value < k1_star(G(2, 2, 3)):
        failures.append("budget exhaustion does not report an incumbent marker")
    finish(2, "corollary family instances (order 8 and 12)", failures)


def test_criterion_03_atom_invariants_up_to_order_12():
    failures = []
    start = time.monotonic()
    for order in range(2, 13):
        for group in abelian_groups_of_order(order):
            d = davenport(group)
            if d.value != d_star(group):
                failures.append(f"D({group.key}) = {d.value} != {d_star(group)}")
            big = big_cross_K(group)
            if big.value != K_star(group):
                failures.append(f"K({group.key}) = {big.value} != {K_star(group)}")
            small = little_cross_k(group)
            if small.value != k_star(group):
                failures.append(f"k({group.key}) = {small.value} != {k_star(group)}")
    if big_cross_K(G(6)).value != Fraction(4, 3):
        failures.append("K(C6) != 4/3")
    if big_cross_K(G(10)).value != Fraction(1, 10) + Fraction(1, 2) + Fraction(4, 5):
        failures.append("K(C10) != 1/10 + 1/2 + 4/5")
    elapsed = time.monotonic() - start
    if elapsed >= 30:
        failures.append(f"took {elapsed:.1f}s (>= 30s)")
    finish(3, f"atom invariants match formulas through order 12 ({elapsed:.1f}s)", failures)


def test_criterion_04_narkiewicz_golden_values():
    failures = []
    for n in range(2, 9):
        value = narkiewicz_n1(G(n)).value
        if value != n:
            failures.append(f"N1(C{n}) = {value}")
    if narkiewicz_n1(G(2, 2)).value != 4:
        failures.append("N1(C2+C2) != 4")
    r9 = narkiewicz_n1(G(3, 3), budget=Budget(max_nodes=2_000_000))
    if r9.complete and r9.value != 6:
        failures.append(f"N1(C3+C3) = {r9.value}")
    if not r9.complete:
        failures.append("order-9 size search exceeded a 2M-node budget")
    finish(4, "Narkiewicz constants for cyclic groups and rank-two cases", failures)


def test_criterion_05_construction_postconditions():
    failures = []
    start = time.monotonic()
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        m = 1
        while p**m <= 32:
            witness = gao_wang_extremal(p, m)  # asserts UFIM internally
            if cross_number(witness) != k1_star(G(p**m)):
                failures.append(f"tower ({p},{m}) cross number off")
            if not is_ufim(witness):
                failures.append(f"tower ({p},{m}) not unique-factorization")
            m += 1
    for order in range(2, 17):
        for group in abelian_groups_of_order(order):
            witness = extremal_zero_sum_free(group)
            if not is_zero_sum_free(witness) or cross_number(witness) != k_star(group):
                failures.append(f"zero-sum-free witness off for {group.key}")
    elapsed = time.monotonic() - start
    if elapsed >= 10:
        failures.append(f"took {elapsed:.1f}s (>= 10s)")
    finish(5, f"construction postconditions ({elapsed:.2f}s)", failures)


def oracles_agree(s):
    """is_ufim, the peel that answers, against both oracles: counting
    factorizations (the definition) and intersection closure."""
    by_count = count_factorizations(s, cap=2) == 1
    return is_ufim(s) == by_count == is_ufim_by_intersection(s)


def test_criterion_06_oracle_equivalence():
    failures = []
    start = time.monotonic()
    checked = 0
    for order in range(2, 9):
        for group in abelian_groups_of_order(order):
            nonzero = list(group.elements())[1:]
            for size in range(0, 9):
                for combo in itertools.combinations_with_replacement(nonzero, size):
                    total = group.zero()
                    for e in combo:
                        total = group.add(total, e)
                    if total != group.zero():
                        continue
                    s = IndexedMultiset.from_elements(group, combo)
                    checked += 1
                    if not oracles_agree(s):
                        failures.append(f"disagree on {combo} over {group.key}")
    exhaustive = checked

    rng = random.Random(20240801)
    groups = [g for n in range(2, 13) for g in abelian_groups_of_order(n)]
    for _ in range(10_000):
        group = rng.choice(groups)
        s = random_zero_sum(rng, group, 8)
        if not oracles_agree(s):
            failures.append(f"disagree on {s!r}")
    elapsed = time.monotonic() - start
    if elapsed >= 300:
        failures.append(f"took {elapsed:.0f}s (>= 5 min)")
    finish(
        6,
        f"is_ufim and both oracles agree: {exhaustive} exhaustive + 10000 random "
        f"({elapsed:.0f}s)",
        failures,
    )


def test_criterion_07_property_suites():
    failures = []
    rng = random.Random(42)
    groups_12 = [g for n in range(2, 13) for g in abelian_groups_of_order(n)]

    # Lifting a non-zero-sum part to its sum preserves unique factorization.
    for _ in range(500):
        group = rng.choice(groups_12)
        s = random_ufim(rng, group)
        labels = list(s.labels)
        chosen = rng.sample(labels, rng.randint(1, len(labels)))
        part = s.subset(chosen)
        value = sigma(part)
        if value == group.zero():
            continue
        lifted = disjoint_union(
            s.without(chosen), IndexedMultiset.from_elements(group, [value])
        )
        if not is_ufim(lifted):
            failures.append(f"lift failed: {s!r} minus {chosen}")

    # Zero-sum subsets of a unique-factorization multiset are block unions.
    for _ in range(500):
        group = rng.choice(groups_12)
        s = random_ufim(rng, group)
        blocks = unique_factorization(s).blocks
        unions = set()
        for r in range(len(blocks) + 1):
            for combo in itertools.combinations(blocks, r):
                unions.add(frozenset().union(*combo) if combo else frozenset())
        for sub in zero_sum_subsets(s):
            if frozenset(sub.labels) not in unions:
                failures.append(f"subset {set(sub.labels)} not a block union in {s!r}")

    # Block sizes multiply to at most |G|; the count stays under log2|G|.
    for _ in range(500):
        group = rng.choice(groups_12)
        s = random_ufim(rng, group)
        blocks = unique_factorization(s).blocks
        if prod(len(b) for b in blocks) > group.order:
            failures.append(f"block product bound fails for {s!r}")
        if 2 ** len(blocks) > group.order:
            failures.append(f"block count bound fails for {s!r}")

    # Homomorphic images never lower the cross number (zero-free images).
    homs = []
    for group in groups_12:
        homs.append((group, multiplication_hom(group, 2)))
        homs.append((group, projection_hom(group, 0)))
    for _ in range(500):
        group, phi = rng.choice(homs)
        s = random_zero_sum(rng, group, 8)
        image = apply_hom(phi, s)
        if image.has_zero:
            continue
        if cross_number(s) > cross_number(image):
            failures.append(f"image cross number dropped for {s!r}")

    # Kernel-split inequalities on concrete decompositions.
    hom_cases = [
        (G(4), reduction_hom(G(4), [2])),
        (G(2, 2), projection_hom(G(2, 2), 0)),
        (G(6), reduction_hom(G(6), [3])),
        (G(6), reduction_hom(G(6), [2])),
        (G(2, 4), projection_hom(G(2, 4), 1)),
        (G(9), multiplication_hom(G(9), 3)),
        (G(2, 6), projection_hom(G(2, 6), 1)),
    ]
    part_values = {}
    for group, phi in hom_cases:
        ker, quot = kernel_structure(phi), quotient_structure(phi)
        part_values[(group.key, phi.generator_images)] = {
            "K1_kernel": k1(ker).value,
            "N1_kernel": narkiewicz_n1(ker).value,
            "K1_quotient": k1(quot).value,
            "K_quotient": big_cross_K(quot).value,
        }
    done = 0
    while done < 500:
        group, phi = rng.choice(hom_cases)
        s = random_ufim(rng, group)
        decomposition = construction4_decompose(s, phi)
        rows = phiunique_consequences(
            decomposition, part_values[(group.key, phi.generator_images)]
        )
        for row in rows:
            if not row["passed"]:
                failures.append(f"split inequality {row['item']} fails on {s!r}")
        done += 1

    # Sandwich chain and the finite gap bound, exhaustively through order 12.
    for group in groups_12:
        kv = little_cross_k(group).value
        Kv = big_cross_K(group).value
        k1v = k1(group).value
        bounds = upper_bounds(group, {"k": kv})
        if not (k_star(group) <= kv):
            failures.append(f"k* > k for {group.key}")
        if not (kv + Fraction(1, group.exponent) <= Kv):
            failures.append(f"k + 1/exp > K for {group.key}")
        if not (k1_star(group) <= k1v <= bounds["girard_two_little_k"]):
            failures.append(f"K1 outside [K1*, 2k] for {group.key}")
        if not (bounds["gao_wang_log"] >= k1v):
            failures.append(f"log bound fails for {group.key}")
        if not (bounds["asymptote_gap"] >= k1v - kv):
            failures.append(f"gap bound fails for {group.key}")

    finish(7, "structural property suites (500 cases each)", failures)


def test_criterion_08_maximal_witness_split():
    failures = []
    for p, q in ((2, 3), (2, 5), (3, 5)):
        group = G(p * q)
        result = k1(group, budget=Budget(max_nodes=5_000_000))
        if not result.complete:
            print(f"  (order {p * q} search hit its budget; skipped)")
            continue
        if result.value != k1_star(group):
            failures.append(f"K1(C{p * q}) = {result.value}")
        orders = {group.element_order(e) for e in result.witness.elements()}
        if p * q in orders:
            failures.append(f"maximal witness over C{p * q} has a full-order element")
    finish(8, "maximal witnesses split over coprime parts", failures)


def test_criterion_09_constraint_evaluator():
    failures = []
    rng = random.Random(7)
    primes = [p for p in range(3, 80) if is_prime(p)]
    for _ in range(20):
        r = rng.choice([2, 3])
        p = rng.choice([x for x in primes if x > r])
        m = rng.randint(1, 4)
        check = mainthm2_constraint(r, 1, G(p**m, p))
        corollary_lhs = (
            Fraction(1, r)
            + Fraction(p**m - 1, p ** (m + 1) - p**m)
            + Fraction(1, p)
        )
        if check.lhs != corollary_lhs:
            failures.append(f"lhs mismatch at r={r} p={p} m={m}")
        if check.rhs_log2_argument != r * p ** (m + 1):
            failures.append(f"rhs argument mismatch at r={r} p={p} m={m}")

    for r, shape in ((2, (1,)), (3, (1,)), (2, (2, 1))):
        sweep = []
        for p in [x for x in primes if x > r]:
            group = G(*[p**e for e in shape])
            sweep.append(mainthm2_constraint(r, 1, group).holds)
        if sweep != sorted(sweep) or not sweep[-1]:
            failures.append(f"onset not monotone for r={r} shape={shape}: {sweep}")
    finish(9, "constraint evaluator: corollary identity and monotone onset", failures)


# Runs each K1 query through the CLI, each with a fresh cache directory under
# argv[1], and prints one JSON list of [spec, exit code, stdout] triples.
HASH_SEED_SCRIPT = r"""
import contextlib, io, json, sys
from pathlib import Path
from zerosums.cli import main

root, specs = Path(sys.argv[1]), sys.argv[2:]
runs = []
for spec in specs:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([
            "invariant", "-g", spec, "-i", "K1", "--format", "json",
            "--cache-dir", str(root / spec.replace(",", "_")),
        ])
    runs.append([spec, code, out.getvalue()])
print(json.dumps(runs))
"""


def test_criterion_10_determinism_across_hash_seeds(tmp_path):
    failures = []
    specs = [",".join(str(m) for m in spec) for spec, _ in K1_GOLDEN]
    specs += ["4,2", "2,2,3"]
    src = str(Path(zerosums.__file__).resolve().parent.parent)
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
        )
        env.pop("ZEROSUMS_CACHE_DIR", None)
        proc = subprocess.run(
            [sys.executable, "-c", HASH_SEED_SCRIPT, str(tmp_path / seed), *specs],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        if proc.returncode != 0:
            failures.append(f"PYTHONHASHSEED={seed} exited {proc.returncode}")
            continue
        runs = json.loads(proc.stdout)
        failures += [
            f"{spec} exited {code} under PYTHONHASHSEED={seed}"
            for spec, code, _ in runs
            if code != 0
        ]
        outputs.append(proc.stdout)
    if len(outputs) == 2 and outputs[0] != outputs[1]:
        failures.append("reports differ across hash seeds")
    finish(10, "byte-identical structured reports across hash seeds", failures)
