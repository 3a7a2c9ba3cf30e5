"""A corrupted cache record never changes what ``zerosums invariant`` reports.

Every D, N1, K, k and K1 record of every group of order <= 8 is written to a
cache directory, damaged by one byte (substituted or deleted) or truncated,
and queried through the CLI: the value and witness printed must be those of
a fresh computation, whether the damaged record is served or recomputed.
"""

import contextlib
import io
import json
import tempfile
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zerosums.cache import ResultCache
from zerosums.cli import main
from zerosums.groups import abelian_groups_up_to, normalize_group

GROUPS_TO_8 = abelian_groups_up_to(8)
NAMES = ("D", "N1", "K", "k", "K1")


def query(group, name, cache_dir=None):
    """The record printed by ``invariant --format json``."""
    argv = ["invariant", "-g", group.key.replace("x", ","), "-i", name, "--format", "json"]
    if cache_dir is not None:
        argv += ["--cache-dir", str(cache_dir)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0
    return json.loads(out.getvalue())


@lru_cache(maxsize=None)
def fresh(group, name):
    """The value and witness computed in an empty cache directory."""
    with tempfile.TemporaryDirectory() as root:
        record = query(group, name, root)
    assert record["provenance"] == "computed"
    return reported(record)


@lru_cache(maxsize=None)
def stored(group, name):
    """The bytes of the record a fresh query writes."""
    with tempfile.TemporaryDirectory() as root:
        query(group, name, root)
        return ResultCache(Path(root))._record_path(group.key, name).read_bytes()


def served(group, name, raw):
    """The record reported with raw as the cached record."""
    with tempfile.TemporaryDirectory() as root:
        path = ResultCache(Path(root))._record_path(group.key, name)
        path.parent.mkdir(parents=True)
        path.write_bytes(raw)
        return query(group, name, root)


def reported(record):
    return record["value"], record["witness"]


@pytest.mark.parametrize("group", GROUPS_TO_8, ids=lambda g: g.key)
def test_intact_records_are_served_from_the_cache(group):
    for name in NAMES:
        assert served(group, name, stored(group, name))["provenance"] == "cached"


@st.composite
def damaged_records(draw, raw):
    """raw with one byte substituted or deleted, or raw truncated.

    A damage that can still decode to a record that verifies changes a
    digit of the value or the witness into a digit or a minus sign, so
    three draws in four are such a substitution.
    """
    start = raw.index(b'"value"')
    digits = [i for i in range(start, len(raw)) if raw[i : i + 1].isdigit()]
    if draw(st.integers(0, 3)):
        i = draw(st.sampled_from(digits))
        new = draw(st.sampled_from(b"0123456789-").filter(lambda b: b != raw[i]))
        return raw[:i] + bytes([new]) + raw[i + 1 :]
    i = draw(st.integers(0, len(raw) - 1))
    kind = draw(st.sampled_from(["substitute", "delete", "truncate"]))
    if kind == "truncate":
        return raw[:i]
    if kind == "delete":
        return raw[:i] + raw[i + 1 :]
    new = draw(st.integers(0, 255).filter(lambda b: b != raw[i]))
    return raw[:i] + bytes([new]) + raw[i + 1 :]


@pytest.mark.parametrize(
    "group, name",
    [(group, name) for group in GROUPS_TO_8 for name in NAMES],
    ids=lambda x: x if isinstance(x, str) else x.key,
)
@settings(max_examples=15)
@given(data=st.data())
def test_damaged_record_reports_the_fresh_result(group, name, data):
    damaged = data.draw(damaged_records(stored(group, name)))
    assert reported(served(group, name, damaged)) == fresh(group, name)


@pytest.mark.parametrize(
    "moduli, name, old, new",
    [
        # A zero denominator in the stored value.
        ([4], "K1", b'"value": "3/2"', b'"value": "3/0"'),
        # One witness element changed: still zero-sum free with the same
        # cross number, but not the canonically least witness.
        ([2, 2, 2], "k", b"[\n    [\n      0,", b"[\n    [\n      1,"),
    ],
    ids=["K1-zero-denominator", "k-other-witness"],
)
def test_damaged_record_regressions(moduli, name, old, new):
    group = normalize_group(moduli)
    raw = stored(group, name)
    assert raw.count(old) == 1
    assert reported(served(group, name, raw.replace(old, new))) == fresh(group, name)
