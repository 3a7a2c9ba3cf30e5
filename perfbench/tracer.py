"""Layer timing from outside the program.

The tracer replaces public functions and methods of the ``zerosums`` modules
with wrappers that record a span (name, start, end, parent) per call, plus
counts taken from return values. Module-level functions are replaced at every
module that binds them by name, so ``invariants.maximize_over_ufims``,
``cache.enumerate_atoms`` and ``cli.davenport`` are timed too. Private
per-node helpers are never wrapped. Spans stay in memory; ``summary()``
reduces them to per-name call counts, total and self time, where self time
is a span's duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter
from pathlib import Path

# (module, attribute) of every wrapped function; "Class.method" wraps a
# method on the class itself, so every instance and caller sees it.
TARGETS = {
    "groups": ("GroupTable.__init__",),
    "atoms": ("enumerate_atoms", "atom_catalog", "max_zero_sum_free_cross"),
    "search": ("maximize_over_ufims",),
    "invariants": (
        "davenport",
        "big_cross_K",
        "little_cross_k",
        "k1",
        "narkiewicz_n1",
        "upper_bounds",
        "quotient_bound",
        "mainthm2_constraint",
        "lowest_order_bound",
        "check_size_limit",
        "size_limit_threshold",
        "m_p1_of",
        "family_membership",
        "verify_family",
    ),
    "factorization": (
        "is_zero_sum_free",
        "is_minimal_zero_sum",
        "is_ufim",
        "is_ufim_by_intersection",
        "count_factorizations",
        "unique_factorization",
        "zero_sum_subsets",
    ),
    "constructions": (
        "construction4_decompose",
        "extremal_ufim",
        "generator_repeat_union",
        "extremal_zero_sum_free",
        "gao_wang_extremal",
        "direct_sum_union",
        "phiunique_consequences",
    ),
    "logbounds": ("LogBound.sign", "LogBound.upper_rational"),
    "cache": (
        "ResultCache.get_record",
        "ResultCache.load_catalog",
        "ResultCache.put_record",
        "ResultCache.store_catalog",
    ),
    "cli": ("main",),
}

BOOLEAN_PREDICATES = {
    "factorization.is_zero_sum_free",
    "factorization.is_minimal_zero_sum",
    "factorization.is_ufim",
    "factorization.is_ufim_by_intersection",
}


def _file_size(path: Path) -> int:
    try:
        return path.stat().st_size
    except OSError:
        return 0


def _count(name: str, result, args, counters: Counter) -> None:
    """Counts read from return values (and, for the cache, file sizes)."""
    if name == "search.maximize_over_ufims":
        stats = result.stats
        counters["search.nodes"] += stats.nodes
        for kind in ("crossing", "product", "bound"):
            counters[f"search.prune_{kind}"] += stats.prunes.get(kind, 0)
    elif name == "atoms.enumerate_atoms":
        counters["atoms.atoms_enumerated"] += result.count
    elif name in BOOLEAN_PREDICATES:
        counters["factorization.bool_calls"] += 1
        counters["factorization.false"] += result is False
    elif name == "cache.ResultCache.get_record" and args[0].root is not None:
        if result is None:
            counters["cache.misses"] += 1
        else:
            counters["cache.hits"] += 1
            counters["cache.bytes_read"] += _file_size(args[0]._record_path(*args[1:3]))
    elif name == "cache.ResultCache.load_catalog" and args[0].root is not None:
        if result is None:
            counters["cache.misses"] += 1
        else:
            counters["cache.hits"] += 1
            counters["cache.bytes_read"] += _file_size(args[0]._catalog_path(*args[1:3]))
    elif name == "cache.ResultCache.put_record" and args[0].root is not None:
        record = args[1]
        path = args[0]._record_path(record["group_key"], record["invariant"])
        counters["cache.bytes_written"] += _file_size(path)
    elif name == "cache.ResultCache.store_catalog" and args[0].root is not None:
        catalog = args[1]
        path = args[0]._catalog_path(catalog.group, catalog.max_length_enumerated)
        counters["cache.bytes_written"] += _file_size(path)


class Tracer:
    """Spans and counters for calls into the wrapped functions."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            _count(name, result, args, counters)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target; module functions at every binding site."""
        package = [m for n, m in list(sys.modules.items())
                   if n == "zerosums" or n.startswith("zerosums.")]
        for mod_name, attrs in TARGETS.items():
            module = importlib.import_module(f"zerosums.{mod_name}")
            for attr in attrs:
                name = f"{mod_name}.{attr}"
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[meth]
                    self._patch(cls, meth, original, self._wrap(name, original))
                    continue
                original = getattr(module, attr)
                wrapper = self._wrap(name, original)
                for mod in package:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, original, wrapper)

    def _patch(self, owner, attr: str, original, replacement) -> None:
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()

    def summary(self) -> dict:
        """Per span name: calls, total ms and self ms; plus the counters."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        per_name: dict[str, list[float]] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            acc = per_name.setdefault(name, [0, 0.0, 0.0])
            acc[0] += 1
            acc[1] += (end - start) * 1000
            acc[2] += (end - start - child_time[i]) * 1000
        return {
            "spans": {n: {"calls": c, "total_ms": t, "self_ms": s}
                      for n, (c, t, s) in per_name.items()},
            "counters": dict(self.counters),
        }


def merge(summaries: list[dict]) -> dict:
    """Sum several summaries (one per process or query) into one."""
    spans: dict[str, dict] = {}
    counters: Counter = Counter()
    import_ms: list[float] = []
    for s in summaries:
        for name, v in s["spans"].items():
            acc = spans.setdefault(name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
            for k in acc:
                acc[k] += v[k]
        counters.update(s["counters"])
        import_ms.extend(s.get("import_ms", []))
    return {"spans": spans, "counters": dict(counters), "import_ms": import_ms}


def layer_metrics(summary: dict) -> dict[str, float]:
    """Per-layer metrics of one batch, from its merged summary."""
    spans, counters = summary["spans"], summary["counters"]

    def self_ms(*names: str) -> float:
        return sum(spans[n]["self_ms"] for n in names if n in spans)

    def calls(prefix: str) -> int:
        return sum(v["calls"] for n, v in spans.items() if n.startswith(prefix))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def layer_self(prefix: str) -> float:
        return sum(v["self_ms"] for n, v in spans.items() if n.startswith(prefix))

    search_ms = self_ms("search.maximize_over_ufims")
    nodes = counters.get("search.nodes", 0)
    crossing = counters.get("search.prune_crossing", 0)
    enum_ms = self_ms("atoms.enumerate_atoms")
    atoms_n = counters.get("atoms.atoms_enumerated", 0)
    import_ms = sorted(summary.get("import_ms", []))
    return {
        "search.self_ms": search_ms,
        "search.calls": calls("search."),
        "search.nodes": nodes,
        "search.nodes_per_s": ratio(nodes, search_ms / 1000),
        "search.prune_crossing": crossing,
        "search.prune_product": counters.get("search.prune_product", 0),
        "search.prune_bound": counters.get("search.prune_bound", 0),
        "search.accept_ratio": ratio(nodes - crossing, nodes),
        "atoms.enumerate_ms": enum_ms,
        "atoms.atoms_enumerated": atoms_n,
        "atoms.atoms_per_s": ratio(atoms_n, enum_ms / 1000),
        "atoms.zsf_scan_ms": self_ms("atoms.max_zero_sum_free_cross"),
        "invariants.self_ms": layer_self("invariants."),
        "invariants.calls": calls("invariants."),
        "factorization.zero_sum_free_ms": self_ms("factorization.is_zero_sum_free"),
        "factorization.minimal_ms": self_ms("factorization.is_minimal_zero_sum"),
        "factorization.ufim_ms": self_ms(
            "factorization.is_ufim",
            "factorization.is_ufim_by_intersection",
            "factorization.count_factorizations",
            "factorization.unique_factorization",
        ),
        "factorization.subsets_ms": self_ms("factorization.zero_sum_subsets"),
        "factorization.calls": calls("factorization."),
        "factorization.false_ratio": ratio(
            counters.get("factorization.false", 0),
            counters.get("factorization.bool_calls", 0),
        ),
        "constructions.decompose_ms": self_ms("constructions.construction4_decompose"),
        "constructions.floor_ms": self_ms(
            "constructions.extremal_ufim", "constructions.generator_repeat_union"
        ),
        "logbounds.ms": layer_self("logbounds."),
        "logbounds.calls": calls("logbounds."),
        "cache.read_ms": self_ms(
            "cache.ResultCache.get_record", "cache.ResultCache.load_catalog"
        ),
        "cache.hits": counters.get("cache.hits", 0),
        "cache.misses": counters.get("cache.misses", 0),
        "cache.bytes_read": counters.get("cache.bytes_read", 0),
        "cache.write_ms": self_ms(
            "cache.ResultCache.put_record", "cache.ResultCache.store_catalog"
        ),
        "cache.bytes_written": counters.get("cache.bytes_written", 0),
        "groups.table_ms": self_ms("groups.GroupTable.__init__"),
        "groups.table_builds": calls("groups.GroupTable"),
        "cli.import_ms": import_ms[len(import_ms) // 2] if import_ms else 0.0,
        "cli.self_ms": self_ms("cli.main"),
    }
