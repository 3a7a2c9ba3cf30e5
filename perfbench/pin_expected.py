"""Regenerate the pinned expected outputs in perfbench/expected/.

The current code is the oracle: this script records what it computes. Run it
from the repository root only when a change to the program's outputs is
intended, and review the diff of expected/ like any other change:

    python3 perfbench/pin_expected.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import spec

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import zerosums as zs  # noqa: E402
from zerosums import config  # noqa: E402
from zerosums.invariants import to_record  # noqa: E402

import predicates  # noqa: E402

CONFIG_NAMES = (
    "MAX_MULTISET_SIZE",
    "DIRECT_SCAN_LIMIT",
    "SUBSET_OUTPUT_CAP",
    "VECTOR_CAP",
    "ATOM_ENTRY_CAP",
    "ATOM_ORDER_CAP",
    "SEARCH_ORDER_CAP",
    "VERIFICATION_MODE",
)


def write(name: str, payload) -> None:
    text = json.dumps(payload, sort_keys=True, indent=1) + "\n"
    (spec.EXPECTED / name).write_text(text, encoding="utf-8")


def pin_sweep() -> None:
    cache_dir = ROOT / ".bench_build" / "pin-cache"
    shutil.rmtree(cache_dir, ignore_errors=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("ZEROSUMS_CACHE_DIR", None)
    out = subprocess.run(
        [sys.executable, "-m", "zerosums", "catalog", "--max-order",
         str(spec.SWEEP_MAX_ORDER), "--format", "json", "--cache-dir", str(cache_dir)],
        env=env, check=True, capture_output=True, text=True,
    ).stdout
    (spec.EXPECTED / "catalog.json").write_text(out, encoding="utf-8")
    records = {}
    for row in json.loads(out):
        for inv in spec.WARM_INVARIANTS:
            text = (cache_dir / spec.record_file(row["group"], inv)).read_text(encoding="utf-8")
            record = json.loads(text)
            assert spec.dump_record(record) == text, "record format changed"
            records[f"{row['group']}/{inv}"] = record
    write("records.json", records)
    shutil.rmtree(cache_dir)


def pin_atom_scan() -> None:
    records = {}
    for key in spec.ATOM_SCAN_GROUPS:
        group = zs.normalize_group(spec.moduli(key))
        for inv, fn in zip(spec.ATOM_INVARIANTS,
                           (zs.davenport, zs.big_cross_K, zs.little_cross_k)):
            records[f"{key}/{inv}"] = to_record(fn(group))
        zs.atoms.clear_catalog_memory()
    write("atomscan.json", records)


def pin_predicates() -> None:
    decompose_t = []
    for index in range(len(predicates.DECOMPOSE_BASES)):
        query = next(q for q in predicates.generate(0) if q.kind == "decompose"
                     and q.expected == index)
        decompose_t.append(zs.construction4_decompose(*query.args).t)
    constraints = {}
    for moduli in predicates.CONSTRAINT_GROUPS:
        group = zs.normalize_group(moduli)
        for r in (2, 3):
            for c in predicates.CONSTRAINT_C:
                try:
                    got = zs.mainthm2_constraint(r, c, group)
                except zs.ZerosumsError:
                    continue
                constraints[f"{r} {c} {group.key}"] = [
                    str(got.lhs), str(got.rhs_log2_argument), got.p1]
    write("predicates.json", {"decompose_t": decompose_t, "constraints": constraints})


def main() -> None:
    spec.EXPECTED.mkdir(exist_ok=True)
    write("config.json", {name: getattr(config, name) for name in CONFIG_NAMES})
    pin_sweep()
    pin_atom_scan()
    pin_predicates()


if __name__ == "__main__":
    main()
