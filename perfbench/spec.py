"""Workload definitions shared by the runner, the worker and the pinning script."""

from __future__ import annotations

import json
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected"

# The sweeps stop at order 12 (a 0.6 s sweep) rather than 16 (6 s): the
# CPU speed of a shared machine drifts by 20% over seconds, and only short
# queries repeated many times in a run give steady figures.
SWEEP_MAX_ORDER = 12
SMOKE_MAX_ORDER = 6
WARM_INVARIANTS = ("D", "K", "k", "N1", "K1")
ATOM_INVARIANTS = ("D", "K", "k")
# Orders 20-24 with catalogs of 6k-12k atoms: above the search cap, so only
# atom enumeration and the cross-number scans run. C_24 (28k atoms) and
# larger are left out so that every query stays under a second.
ATOM_SCAN_GROUPS = ("2x10", "20", "2x2x6")
ATOM_SCAN_SMOKE = ("8", "2x4", "3x3")


def atom_scan_queries(smoke: bool) -> list[tuple[str, str]]:
    """(group key, invariant): one query is what one CLI invocation computes."""
    groups = ATOM_SCAN_SMOKE if smoke else ATOM_SCAN_GROUPS
    return [(g, inv) for g in groups for inv in ATOM_INVARIANTS]


def moduli(group_key: str) -> list[int]:
    return [int(x) for x in group_key.split("x")]


def order(group_key: str) -> int:
    out = 1
    for m in moduli(group_key):
        out *= m
    return out


def dump_record(record: dict) -> str:
    """Byte form the CLI prints and the cache stores for a record."""
    return json.dumps(record, sort_keys=True, indent=2) + "\n"


def load(name: str):
    return json.loads((EXPECTED / name).read_text(encoding="utf-8"))


def record_file(group_key: str, invariant: str) -> str:
    """Path of a record inside a cache directory."""
    return f"results-v1/{group_key.replace('x', '_')}__{invariant}.json"
