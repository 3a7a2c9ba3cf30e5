"""Command-line frontend: invariants, theorem verification, decomposition,
and catalog sweeps, with persistent caching.

Exit codes: 0 success, 2 usage or parse error, 3 budget exhausted,
4 verification failure, 5 resource limit.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path

from . import config
from .cache import dump_record, open_cache
from .constructions import construction4_decompose, phiunique_consequences
from .errors import ResourceLimitError, ZerosumsError
from .groups import (
    FiniteAbelianGroup,
    kernel_structure,
    make_hom,
    multiplication_hom,
    normalize_group,
    projection_hom,
    quotient_structure,
    reduction_hom,
)
from .invariants import (
    INVARIANTS,
    THEOREMS,
    InvariantResult,
    _log_bounds,
    big_cross_K,
    k1,
    narkiewicz_n1,
    to_record,
    upper_bounds,
    verify_family,
)
from .multisets import IndexedMultiset
from .reports import (
    format_value,
    render_catalog_table,
    render_family_report,
    render_invariant_table,
)
from .search import Budget, SearchStats

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_VERIFY = 4
EXIT_RESOURCE = 5

# The CLI names: each witnessed invariant of invariants.INVARIANTS, its
# closed form as the name plus "star" (a catalog column shows it as "*"),
# and the named upper bounds. Theorem ids for `verify` come from
# invariants.THEOREMS.
_FORMULAS = {f"{name}star": spec.star for name, spec in INVARIANTS.items()}

# Named upper bounds: CLI name -> key of upper_bounds().
_BOUNDS = {
    "bound:girard": "girard_two_little_k",
    "bound:gaowang-log": "gao_wang_log",
    "bound:k-plus-inv-exp": "little_k_plus_inv_exponent",
    "bound:asymptote-gap": "asymptote_gap",
}


class UsageError(ZerosumsError, ValueError):
    pass


def parse_group_spec(spec: str) -> FiniteAbelianGroup:
    """Comma-separated moduli; "p^e" tokens are allowed, e.g. "2^2,3".

    The largest integer a command prints for a group is N1*, the sum of its
    invariant factors. A group whose N1* has more decimal digits than Python
    converts to a string is refused, and so is each token past that size, a
    "p^e" token before its power is built. The limit is
    sys.get_int_max_str_digits(), or its default of 4300 where it is off.
    """
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
    too_large = UsageError(
        f"group too large: N1*, the sum of its invariant factors, would have "
        f"more than {digits} digits, the limit of sys.get_int_max_str_digits()"
    )
    moduli = []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            raise UsageError(f"empty token in group spec {spec!r}")
        if len(token) > digits:
            raise too_large
        base, caret, exp = token.partition("^")
        try:
            base, exp = int(base), int(exp) if caret else 1
        except ValueError as exc:
            raise UsageError(f"malformed group spec token {token!r}") from exc
        if exp < 0:
            raise UsageError(f"negative exponent in group spec token {token!r}")
        # |base|^exp has at least exp * (bit_length - 1) bits, and 4 > log2(10).
        if exp * (base.bit_length() - 1) > 4 * digits:
            raise too_large
        moduli.append(base**exp)
    bound = 10**digits
    if any(abs(m) >= bound for m in moduli):
        raise too_large
    try:
        group = normalize_group(moduli)
    except ZerosumsError as exc:
        raise UsageError(str(exc)) from exc
    if sum(group.invariant_factors) >= bound:
        raise too_large
    return group


def parse_hom_spec(group: FiniteAbelianGroup, spec: str):
    """proj:IDX | mod:d1,d2,... | mul:K | images:TARGET:JSON"""
    kind, _, rest = spec.partition(":")
    try:
        if kind == "proj":
            return projection_hom(group, int(rest))
        if kind == "mod":
            return reduction_hom(group, [int(x) for x in rest.split(",")])
        if kind == "mul":
            return multiplication_hom(group, int(rest))
        if kind == "images":
            target_spec, _, payload = rest.partition(":")
            target = parse_group_spec(target_spec)
            images = json.loads(payload)
            if not isinstance(images, list):
                raise ValueError("images must be a JSON list")
            return make_hom(group, target, images)
    except (ValueError, json.JSONDecodeError) as exc:
        raise UsageError(f"malformed hom spec {spec!r}: {exc}") from exc
    raise UsageError(f"unknown hom spec kind {kind!r}")


def _budget(args) -> Budget | None:
    if args.budget_nodes is None and args.budget_seconds is None:
        return None
    return Budget(max_nodes=args.budget_nodes, max_seconds=args.budget_seconds)


def _compute_invariant(
    group: FiniteAbelianGroup, name: str, cache, budget
) -> InvariantResult:
    if name in _FORMULAS:
        return InvariantResult(
            group, name, _FORMULAS[name](group), None, SearchStats(), "formula"
        )
    if name in INVARIANTS:
        return INVARIANTS[name].compute(group, cache, budget)
    if name not in _BOUNDS:
        raise UsageError(f"unknown invariant {name!r}")
    # The log bounds are closed forms; only the other two need k, a search.
    key, logs = _BOUNDS[name], _log_bounds(group)
    value = logs[key] if key in logs else upper_bounds(group, cache=cache)[key]
    rational = value if isinstance(value, Fraction) else value.upper_rational()
    return InvariantResult(group, name, rational, None, SearchStats(), "formula")


def cmd_invariant(args) -> int:
    group = parse_group_spec(args.group)
    cache = open_cache(args.cache_dir)
    start = time.perf_counter()
    result = _compute_invariant(group, args.invariant, cache, _budget(args))
    millis = int((time.perf_counter() - start) * 1000)
    if args.format == "json":
        sys.stdout.write(dump_record(to_record(result)))
    else:
        print(render_invariant_table(result, args.witness))
        print(f"elapsed {millis} ms", file=sys.stderr)
    return EXIT_OK if result.complete else EXIT_BUDGET


def cmd_verify(args) -> int:
    if args.theorem not in THEOREMS:
        raise UsageError(f"unknown theorem {args.theorem!r}")
    # Each parameter comes from the option of its name, but for the two
    # primes of maximal-split-pq, which come as one option, --pq.
    names = THEOREMS[args.theorem].params
    if args.theorem == "maximal-split-pq":
        names = ("pq",)
    params: dict = {}
    for name in names:
        value = getattr(args, name)
        if value in (None, ""):
            raise UsageError(f"--{name} is required for {args.theorem}")
        if name == "orders":
            bounds = re.fullmatch(r"([0-9]+)(?:\.\.([0-9]+))?", value)
            if bounds:
                lo, hi = int(bounds[1]), int(bounds[2] or bounds[1])
            if not bounds or not 1 <= lo <= hi:
                raise UsageError(
                    f"malformed --orders {value!r}: want LO or LO..HI, "
                    "positive integers with LO <= HI"
                )
            params["orders"] = range(lo, hi + 1)
        elif name == "pq":
            try:
                params["p"], params["q"] = (int(x) for x in value.split(","))
            except ValueError as exc:
                raise UsageError(f"malformed --pq {value!r}") from exc
        else:
            params[name] = value
    cache = open_cache(args.cache_dir)
    report = verify_family(args.theorem, params, cache=cache, budget=_budget(args))
    if args.format == "json":
        payload = {
            "theorem": report.theorem,
            "instances": [asdict(i) for i in report.instances],
            "all_passed": report.all_passed,
        }
        sys.stdout.write(dump_record(payload))
    else:
        print(render_family_report(report))
    return EXIT_OK if report.all_passed else EXIT_VERIFY


def cmd_decompose(args) -> int:
    if args.max_size is not None and args.max_size < 0:
        raise UsageError(f"--max-size must be at least 0, got {args.max_size}")
    try:
        payload = json.loads(Path(args.multiset).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read multiset file {args.multiset!r}: {exc}") from exc
    if not (
        isinstance(payload, dict)
        and isinstance(payload.get("group"), str)
        and isinstance(payload.get("elements"), list)
    ):
        raise UsageError(
            f"multiset file {args.multiset!r} must hold an object with a "
            'string "group" and a list "elements"'
        )
    group = parse_group_spec(payload["group"])
    ms = IndexedMultiset.from_elements(
        group, payload["elements"], max_size=args.max_size
    )
    phi = parse_hom_spec(group, args.hom)
    decomposition = construction4_decompose(ms, phi)
    cache = open_cache(args.cache_dir)
    ker = kernel_structure(phi)
    quot = quotient_structure(phi)

    budget = _budget(args)
    stopped = False

    def known(name: str, compute, group, **options) -> Fraction | None:
        """The invariant, or None (with a note) when it is past a cap or its
        search stopped on the budget."""
        nonlocal stopped
        try:
            result = compute(group, cache=cache, **options)
        except ResourceLimitError as exc:
            print(f"note: {name} not computed: {exc}", file=sys.stderr)
            return None
        if not result.complete:
            stopped = True
            print(
                f"note: {name} not computed: the search stopped on the budget "
                f"after {result.stats.nodes} nodes",
                file=sys.stderr,
            )
            return None
        return result.value

    parts = {
        "K1_kernel": known("K1 of the kernel", k1, ker, budget=budget),
        "N1_kernel": known("N1 of the kernel", narkiewicz_n1, ker, budget=budget),
        "K1_quotient": known("K1 of the quotient", k1, quot, budget=budget),
        "K_quotient": known("K of the quotient", big_cross_K, quot),
    }
    rows = phiunique_consequences(decomposition, parts)
    ok = all(r["passed"] is not False for r in rows)

    def rhs(row: dict) -> str:
        return "-" if row["rhs"] is None else format_value(row["rhs"])
    if args.format == "json":
        payload = decomposition.to_lists()
        payload["consequences"] = [
            {
                "item": r["item"],
                "statement": r["statement"],
                "lhs": format_value(r["lhs"]),
                "rhs": rhs(r),
                "passed": r["passed"],
            }
            for r in rows
        ]
        sys.stdout.write(dump_record(payload))
    else:
        d = decomposition.to_lists()
        print(f"kernel part  {d['kernel_part']['elements']}")
        print(f"packing (t={d['t']})")
        for sub in d["packing"]:
            print(f"  {sub['elements']}")
        print(f"residue      {d['residue']['elements']}")
        for r in rows:
            mark = {True: "pass", False: "FAIL", None: "-"}[r["passed"]]
            print(
                f"  [{mark}] ({r['item']}) {r['statement']}: "
                f"{format_value(r['lhs'])} <= {rhs(r)}"
            )
    if not ok:
        return EXIT_VERIFY
    return EXIT_BUDGET if stopped else EXIT_OK


def cmd_catalog(args) -> int:
    from .groups import abelian_groups_up_to

    if args.max_order < 0:
        raise UsageError(f"--max-order must be at least 0, got {args.max_order}")
    cache = open_cache(args.cache_dir)
    budget = _budget(args)
    rows = []
    any_incomplete = False
    for group in abelian_groups_up_to(args.max_order):
        row: dict = {"group": group.key}
        row["K1 gap"] = "-"
        provenances = set()
        for name, spec in INVARIANTS.items():
            row[f"{name}*"] = format_value(spec.star(group))
            if group.order > getattr(config, spec.cap):
                row[name] = "-"
                continue
            res = spec.compute(group, cache, budget)
            provenances.add(res.provenance)
            if not res.complete:
                row[name] = f">={format_value(res.value)} (incomplete)"
                any_incomplete = True
                continue
            row[name] = format_value(res.value)
            if name == "K1":
                row["K1 gap"] = format_value(res.value - spec.star(group))
        row["provenance"] = (
            "cached" if provenances == {"cached"} else "computed"
        )
        rows.append(row)
    if args.format == "json":
        sys.stdout.write(dump_record(rows))
    else:
        if rows:
            print(render_catalog_table(rows))
        else:
            print("(empty catalog)")
    return EXIT_BUDGET if any_incomplete else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zerosums",
        description="Exact zero-sum invariants of finite abelian groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--budget-nodes", type=int, default=None)
        p.add_argument("--budget-seconds", type=float, default=None)
        p.add_argument("--format", choices=("table", "json"), default="table")
        p.add_argument("--cache-dir", default=None,
                       help="cache directory (default: $ZEROSUMS_CACHE_DIR)")

    p_inv = sub.add_parser("invariant", help="compute one invariant of one group")
    p_inv.add_argument("-g", "--group", required=True,
                       help="comma-separated moduli, e.g. 4,2 or 2^2,3")
    p_inv.add_argument("-i", "--invariant", required=True,
                       help=" ".join([*INVARIANTS, *_FORMULAS, *_BOUNDS]))
    p_inv.add_argument("--witness", action="store_true")
    common(p_inv)
    p_inv.set_defaults(func=cmd_invariant)

    p_ver = sub.add_parser("verify", help="verify a theorem family on a grid")
    p_ver.add_argument("--theorem", required=True,
                       help=" ".join(THEOREMS))
    p_ver.add_argument("--orders", default=None, help="order range, e.g. 2..9")
    p_ver.add_argument("--p", type=int, default=None)
    p_ver.add_argument("--q", type=int, default=None)
    p_ver.add_argument("--m", type=int, default=None)
    p_ver.add_argument("--n", type=int, default=None)
    p_ver.add_argument("--pq", default=None, help="two primes, e.g. 2,3")
    common(p_ver)
    p_ver.set_defaults(func=cmd_verify)

    p_dec = sub.add_parser("decompose", help="kernel-packing decomposition")
    p_dec.add_argument("--multiset", required=True,
                       help='JSON file {"group": "4", "elements": [[1],[2],[3],[2]]}')
    p_dec.add_argument("--hom", required=True,
                       help="proj:IDX | mod:d1,d2,... | mul:K | images:TARGET:JSON")
    p_dec.add_argument("--max-size", type=int, default=None,
                       help="size cap on the multiset read from the file "
                       "(default: config.MAX_MULTISET_SIZE)")
    common(p_dec)
    p_dec.set_defaults(func=cmd_decompose)

    p_cat = sub.add_parser("catalog", help="invariant sweep over small groups")
    p_cat.add_argument("--max-order", type=int, required=True)
    common(p_cat)
    p_cat.set_defaults(func=cmd_catalog)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ZerosumsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
