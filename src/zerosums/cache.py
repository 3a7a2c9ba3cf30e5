"""Persistent cache of invariant records.

``open_cache`` opens the directory given explicitly, else the one named by
the ZEROSUMS_CACHE_DIR environment variable; with neither there is no cache,
and callers pass ``cache=None``. Records are written bit-reproducibly for a
fixed format version, and atomically: a reader sees the old file or the new
one, never a partial one. A file that cannot be read or does not decode
counts as a miss, so it is recomputed and rewritten; the caller re-verifies
every record it serves. A record that cannot be written raises
``CacheError``. Atom catalogs are not persisted (see ``atoms``).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from .errors import CacheError

ENV_CACHE_DIR = "ZEROSUMS_CACHE_DIR"
FORMAT_VERSION = 1


def open_cache(override: str | os.PathLike | None = None) -> ResultCache | None:
    """The cache at override ("" is the current directory), else at
    $ZEROSUMS_CACHE_DIR; None when neither names one."""
    if override is None:
        override = os.environ.get(ENV_CACHE_DIR) or None
    return None if override is None else ResultCache(override)


class ResultCache:
    """Disk-backed store of invariant records under one root directory."""

    def __init__(self, root: str | os.PathLike):
        self.root = Path(root)

    def _record_path(self, group_key: str, invariant: str) -> Path:
        safe = group_key.replace("x", "_")
        return self.root / f"results-v{FORMAT_VERSION}" / f"{safe}__{invariant}.json"

    def get_record(self, group_key: str, invariant: str) -> dict | None:
        path = self._record_path(group_key, invariant)
        try:
            record = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):  # missing or unreadable; does not decode
            return None
        return record if isinstance(record, dict) else None

    def put_record(self, record: dict) -> None:
        path = self._record_path(record["group_key"], record["invariant"])
        try:
            _write_atomic(path, dump_record(record))
        except OSError as exc:
            reason = exc.strerror or exc
            raise CacheError(f"cannot write to the cache: {path}: {reason}") from exc

    # Catalogs are not persisted. These two no-ops stay only because
    # perfbench/tracer.py wraps both names on the class and fails on a
    # missing one; they go when the tracer stops naming them.
    def load_catalog(self, group, max_len) -> None:
        return None

    def store_catalog(self, catalog) -> None:
        return None


def dump_record(record: dict | list) -> str:
    """Canonical serialized form of a structured record, or of any JSON
    payload the CLI prints: sorted keys, indent 2, a final newline."""
    return json.dumps(record, sort_keys=True, indent=2) + "\n"


def _write_atomic(path: Path, text: str) -> None:
    """Write through a temporary file in the same directory and os.replace.

    A missing directory is created when a write into it fails, instead of
    being checked before every write.
    """
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        try:
            tmp.write_text(text, encoding="utf-8")
        except FileNotFoundError:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        try:
            tmp.unlink(missing_ok=True)
        except OSError:  # the first error is the one to report
            pass
        raise
