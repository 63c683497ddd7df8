"""Append-only file cache for twisted Bernoulli numbers.

One JSON record per line, keyed by (p, m, exponent vector, k), holding
the exact power-basis coefficients as "num/den" strings.  Append-only
with last-entry-wins on duplicate keys, so a single writer needs no
coordination beyond O_APPEND.  A final line without its newline is what
a crash during an append leaves: it is never trusted, only skipped with
a warning, and the next append cuts it off.  A bad line anywhere else
is a CacheError.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

from .bernoulli import BernoulliCache, CharKey
from .characters import character
from .cyclotomic import CyclotomicElement

CacheKey = tuple[CharKey, int]


class CacheError(RuntimeError):
    """Unreadable or internally inconsistent cache file."""


def default_cache_path() -> Path:
    root = os.environ.get("LCONG_CACHE_DIR")
    base = Path(root) if root else Path.cwd() / ".lcong-cache"
    return base / "values.jsonl"


def _encode(key: CacheKey, value: CyclotomicElement) -> str:
    (p, m, images), k = key
    record = {
        "p": p,
        "m": m,
        "chi": list(images),
        "k": k,
        **value.record(),
    }
    return json.dumps(record, sort_keys=True)


def _decode(line: str, lineno: int) -> tuple[CacheKey, CyclotomicElement]:
    try:
        record = json.loads(line)
        key = (
            (int(record["p"]), int(record["m"]), tuple(int(e) for e in record["chi"])),
            int(record["k"]),
        )
        value = CyclotomicElement(int(record["order"]), record["coeffs"])
    except (ValueError, KeyError, TypeError) as exc:
        raise CacheError(f"corrupt cache record at line {lineno}: {exc}") from exc
    return key, value


def read_entries(path: Path | str) -> dict[CacheKey, CyclotomicElement]:
    """All records, later lines overriding earlier ones with the same key."""
    entries: dict[CacheKey, CyclotomicElement] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            if not line.endswith("\n"):
                print(f"warning: skipping unterminated last line {lineno} of {path}",
                      file=sys.stderr)
                continue
            key, value = _decode(line, lineno)
            entries[key] = value
    return entries


def load_into(path: Path | str, cache: BernoulliCache) -> int:
    """Seed a memo cache from the file; returns the number of entries."""
    path = Path(path)
    if not path.exists():
        return 0
    entries = read_entries(path)
    for key, value in entries.items():
        cache.store_twisted(key, value)
    return len(entries)


def append_new(path: Path | str, cache: BernoulliCache) -> int:
    """Append every value computed since the last sync; returns the count."""
    path = Path(path)
    keys = sorted(cache.dirty_keys)
    if not keys:
        return 0
    path.parent.mkdir(parents=True, exist_ok=True)
    if path.exists():
        _truncate_torn_tail(path)
    with open(path, "a", encoding="utf-8") as fh:
        for key in keys:
            fh.write(_encode(key, cache._twisted[key]) + "\n")
    cache.dirty_keys.clear()
    return len(keys)


def append_corrections(path: Path | str, fresh: BernoulliCache, loaded: BernoulliCache) -> int:
    """Append the values ``fresh`` computed that ``loaded`` lacks or holds
    differently; last-entry-wins then heals the file.  Returns the count."""
    fresh.dirty_keys = {
        key for key in fresh.dirty_keys if loaded._twisted.get(key) != fresh._twisted[key]
    }
    return append_new(path, fresh)


def _truncate_torn_tail(path: Path) -> None:
    with open(path, "rb+") as fh:
        if fh.seek(0, os.SEEK_END) == 0:
            return
        fh.seek(-1, os.SEEK_END)
        if fh.read(1) == b"\n":
            return
        fh.seek(0)
        fh.truncate(fh.read().rfind(b"\n") + 1)


def entry_count(path: Path | str) -> int:
    path = Path(path)
    if not path.exists():
        return 0
    return len(read_entries(path))


def clear(path: Path | str) -> None:
    Path(path).unlink(missing_ok=True)


def verify(path: Path | str, limit: int | None = None) -> list[str]:
    """Recompute cached entries from scratch and compare bit-exactly.

    Returns the serialized keys of any mismatches; raises CacheError if
    the file cannot be parsed.
    """
    path = Path(path)
    if not path.exists():
        return []
    entries = read_entries(path)
    fresh = BernoulliCache()
    mismatches = []
    for i, (key, value) in enumerate(sorted(entries.items())):
        if limit is not None and i >= limit:
            break
        (p, m, images), k = key
        chi = character(p, m, images)
        recomputed = fresh.twisted_bernoulli(chi, k)
        if not (recomputed.order == value.order and recomputed == value):
            mismatches.append(f"p={p} m={m} chi={list(images)} k={k}")
    return mismatches
