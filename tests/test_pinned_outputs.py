"""The outputs the benchmark pins, checked in process.

The benchmark (``perfbench/``) rejects a run whose output differs from the
files in ``perfbench/expected/`` by one byte. These tests read those files
only, and check that a cold in-process run of the same queries gives them,
so a change of a value, witness, node count or record format fails here
first.
"""

import json
from pathlib import Path

import pytest

import zerosums as zs
from zerosums import atoms, groups
from zerosums.cache import dump_record
from zerosums.cli import main
from zerosums.invariants import to_record

EXPECTED = Path(__file__).resolve().parent.parent / "perfbench" / "expected"


def load(name: str):
    return json.loads((EXPECTED / name).read_text(encoding="utf-8"))


@pytest.fixture
def cold(monkeypatch):
    """No catalog or group table memoized, and no cache but the test's own."""
    monkeypatch.delenv("ZEROSUMS_CACHE_DIR", raising=False)
    atoms.clear_catalog_memory()
    groups.group_table.cache_clear()


def test_cold_sweep_gives_the_pinned_catalog_and_records(cold, tmp_path, capsys):
    code = main(["catalog", "--max-order", "12", "--format", "json",
                 "--cache-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (EXPECTED / "catalog.json").read_text(encoding="utf-8")
    records = load("records.json")
    written = {}
    for path in sorted(tmp_path.glob("results-v1/*.json")):
        text = path.read_text(encoding="utf-8")
        record = json.loads(text)
        written[f"{record['group_key']}/{record['invariant']}"] = text
    assert len(written) == len(records) == 80
    assert written == {key: dump_record(rec) for key, rec in records.items()}


def test_atom_invariants_give_the_pinned_records(cold):
    pinned = load("atomscan.json")
    computes = {"D": zs.davenport, "K": zs.big_cross_K, "k": zs.little_cross_k}
    got = {}
    for key in ("2x10", "20", "2x2x6"):
        group = zs.normalize_group([int(m) for m in key.split("x")])
        for name, compute in computes.items():
            got[f"{key}/{name}"] = to_record(compute(group))
    assert got == pinned
