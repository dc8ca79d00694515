"""Shared runtime helpers: an in-order map, canonical JSON, and a small
content-addressed result cache.

Everything here is policy-free plumbing, and all of it runs on the calling
thread.  ``pmap`` is a plain in-order map.  ``canonical_json`` renders JSON
with sorted keys and fixed separators, which makes reports byte-stable and
lets ``content_key`` derive cache keys by hashing.  ``ResultCache`` stores one
JSON document per key under a schema-version directory; bumping the version
orphans old entries instead of migrating them, and writes go through a
temporary file plus :func:`os.replace` so a crashed run never leaves a
half-written entry behind.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Callable, Iterable, TypeVar

_T = TypeVar("_T")
_R = TypeVar("_R")

#: Bump when the JSON shape of any cached result changes.  Entries written
#: under other versions are ignored (recomputed), never migrated.
SCHEMA_VERSION = 2

#: Environment variable overriding the default cache directory.
CACHE_DIR_ENV = "ADICGAPS_CACHE_DIR"


def pmap(fn: Callable[[_T], _R], items: Iterable[_T]) -> list[_R]:
    """``[fn(x) for x in items]``, on the calling thread and in input order.

    Kept as a named function only because the benchmark tracer
    (``bench/tracer.py``) looks up ``runtime.pmap`` to time the audit's
    jigsaw queries; retire it together with that lookup.
    """
    return [fn(item) for item in items]


def canonical_json(obj: Any) -> str:
    """Render ``obj`` as deterministic JSON (sorted keys, fixed separators)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def content_key(obj: Any) -> str:
    """Content hash of ``obj``'s canonical JSON, usable as a cache key."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def default_cache_dir() -> Path:
    """Cache root: ``$ADICGAPS_CACHE_DIR`` or ``~/.cache/adicgaps``."""
    raw = os.environ.get(CACHE_DIR_ENV, "")
    if raw.strip():
        return Path(raw).expanduser()
    xdg = os.environ.get("XDG_CACHE_HOME", "")
    base = Path(xdg).expanduser() if xdg.strip() else Path.home() / ".cache"
    return base / "adicgaps"


class ResultCache:
    """Content-addressed JSON store under ``root/v<SCHEMA_VERSION>/``.

    ``get`` returns the parsed document or ``None`` (missing and corrupt
    entries are both misses; corrupt files are left in place for inspection).
    ``put`` writes atomically.  Keys must be hex digests from
    :func:`content_key`; the store never enumerates or expires entries.
    """

    def __init__(self, root: "Path | str") -> None:
        self.root = Path(root)
        self.entry_dir = self.root / f"v{SCHEMA_VERSION}"

    def path_for(self, key: str) -> Path:
        if not key or any(c not in "0123456789abcdef" for c in key):
            raise ValueError(f"cache keys are lowercase hex digests, got {key!r}")
        return self.entry_dir / f"{key}.json"

    def get(self, key: str) -> Any:
        path = self.path_for(key)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            return None
        try:
            return json.loads(text)
        except ValueError:
            return None

    def put(self, key: str, obj: Any) -> Path:
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(canonical_json(obj))
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return path
