"""Persistent caches for atom catalogs and invariant results.

The cache directory comes from the ZEROSUMS_CACHE_DIR environment variable
unless a path is given explicitly; with no directory, caching is off.
Records are written bit-reproducibly for a fixed format version, and
atomically: a reader sees the old file or the new one, never a partial one.
A file that does not decode counts as a miss, so it is recomputed and
rewritten.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from .atoms import AtomCatalog, enumerate_atoms, parse_catalog, serialize_catalog
from .groups import FiniteAbelianGroup

ENV_CACHE_DIR = "ZEROSUMS_CACHE_DIR"
FORMAT_VERSION = 1


def resolve_cache_dir(override: str | os.PathLike | None = None) -> Path | None:
    if override is not None:
        return Path(override)
    env = os.environ.get(ENV_CACHE_DIR)
    return Path(env) if env else None


class ResultCache:
    """Disk-backed store of invariant records plus atom catalogs.

    A None root disables persistence; lookups miss and writes are dropped.
    """

    def __init__(self, root: Path | None):
        self.root = Path(root) if root is not None else None
        self._catalog_memory: dict[tuple[FiniteAbelianGroup, int], AtomCatalog] = {}

    # -- invariant records -------------------------------------------------

    def _record_path(self, group_key: str, invariant: str) -> Path:
        assert self.root is not None
        safe = group_key.replace("x", "_")
        return self.root / f"results-v{FORMAT_VERSION}" / f"{safe}__{invariant}.json"

    def get_record(self, group_key: str, invariant: str) -> dict | None:
        if self.root is None:
            return None
        path = self._record_path(group_key, invariant)
        if not path.exists():
            return None
        try:
            record = json.loads(path.read_text(encoding="utf-8"))
        except ValueError:  # JSONDecodeError, UnicodeDecodeError
            return None
        return record if isinstance(record, dict) else None

    def put_record(self, record: dict) -> None:
        if self.root is None:
            return
        path = self._record_path(record["group_key"], record["invariant"])
        _write_atomic(path, dump_record(record))

    # -- atom catalogs ------------------------------------------------------

    def _catalog_path(self, group: FiniteAbelianGroup, max_len: int) -> Path:
        assert self.root is not None
        safe = group.key.replace("x", "_")
        return self.root / f"atoms-v{FORMAT_VERSION}" / f"{safe}__L{max_len}.txt"

    def load_catalog(
        self, group: FiniteAbelianGroup, max_len: int
    ) -> AtomCatalog | None:
        if self.root is None:
            return None
        path = self._catalog_path(group, max_len)
        if not path.exists():
            return None
        try:
            catalog = parse_catalog(path.read_text(encoding="utf-8"))
        except (KeyError, ValueError):  # DomainError and decode errors included
            return None
        if catalog.group != group:
            return None
        return catalog

    def store_catalog(self, catalog: AtomCatalog) -> None:
        if self.root is None:
            return
        path = self._catalog_path(catalog.group, catalog.max_length_enumerated)
        _write_atomic(path, serialize_catalog(catalog))

    def catalog(self, group: FiniteAbelianGroup, max_len: int) -> AtomCatalog:
        key = (group, max_len)
        got = self._catalog_memory.get(key)
        if got is None:
            got = self.load_catalog(group, max_len)
            if got is None:
                got = enumerate_atoms(group, max_len)
                self.store_catalog(got)
            self._catalog_memory[key] = got
        return got


def dump_record(record: dict) -> str:
    """Canonical serialized form of a structured record."""
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
        tmp.unlink(missing_ok=True)
        raise
