"""Append-only file cache for twisted Bernoulli numbers.

One JSON record per line, keyed by (p, m, exponent vector, k), holding
the exact power-basis coefficients as "n" or "n/d" strings (written by
CyclotomicElement.record, read by CyclotomicElement.from_record).  Append-only
with last-entry-wins on duplicate keys, so a single writer needs no
coordination beyond O_APPEND.  A final line without its newline is what
a crash during an append leaves: it is never trusted, only skipped with
a warning, and the next append cuts it off.  A bad line anywhere else
is a CacheError.

Loading checks every line (UTF-8, JSON, each field, the key against the
unit group characters.build_unit_group(p, m), k against the index bound,
and the coefficient text by CyclotomicElement.check_record) but builds
no element: the memo gets a builder per key, which its first lookup
replaces by the value.
``lcong cache verify`` builds only the entries it recomputes.
"""

from __future__ import annotations

import json
import os
import sys
from functools import lru_cache, partial
from pathlib import Path
from typing import Callable

from .bernoulli import BernoulliCache, CharKey
from .characters import build_unit_group, character, check_index
from .cyclotomic import CyclotomicElement

CacheKey = tuple[CharKey, int]

_SORTED = json.JSONEncoder(sort_keys=True)
# The C encoder _SORTED.encode builds per call, built once; no circular check
# (markers None): records are trees, and shared markers outlive a failed call.
_encoder = json.encoder.c_make_encoder(
    None, _SORTED.default, json.encoder.encode_basestring_ascii, _SORTED.indent,
    _SORTED.key_separator, _SORTED.item_separator, _SORTED.sort_keys, _SORTED.skipkeys,
    _SORTED.allow_nan)


def json_text(value) -> str:
    """JSONEncoder(sort_keys=True).encode: the one JSON text of records and reports."""
    return "".join(_encoder(value, 0))


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
    return json_text(record)


@lru_cache(maxsize=None)
def _character_key(p: int, m: int, order: int, chi: tuple[int, ...]) -> CharKey:
    """A record's character key once its modulus fields and exponents fit
    the unit group mod p^m; ValueError otherwise."""
    group = build_unit_group(p, m)
    orders = [n for _, n in group.generators]
    if len(chi) != len(orders):
        raise ValueError(f"chi mod {p}^{m} needs {len(orders)} image exponent(s)")
    if order != group.order:
        raise ValueError(f"order {order} is not phi({p}^{m})")
    if not all(0 <= e < n for e, n in zip(chi, orders)):
        raise ValueError(f"chi {list(chi)} is not reduced mod the generator orders {orders}")
    return p, m, chi


def _build(lineno: int, order: int, coeffs: list[str]) -> CyclotomicElement:
    try:
        return CyclotomicElement.from_record(order, coeffs)
    except ValueError as exc:
        raise CacheError(f"corrupt cache record at line {lineno}: {exc}") from exc


def _check(line: bytes, lineno: int) -> tuple[CacheKey, Callable[[], CyclotomicElement]]:
    """The key of a line that passes every record check, and a builder of
    its value; CacheError otherwise."""
    try:
        record = json.loads(line.decode("utf-8"))
        fields = (record["p"], record["m"], record["k"], record["order"], *record["chi"])
        if not all(type(x) is int for x in fields):  # JSON ints: no bool, no float
            raise ValueError(f"p, m, k, order and chi {list(fields)} are not all integers")
        p, m, k, order, *chi = fields
        # Memoised on ints only: True == 1 would share a key.
        char = _character_key(p, m, order, tuple(chi))
        check_index(k)
        coeffs = record["coeffs"]
        CyclotomicElement.check_record(order, coeffs)
    except (ValueError, KeyError, TypeError) as exc:  # UnicodeDecodeError is a ValueError
        raise CacheError(f"corrupt cache record at line {lineno}: {exc}") from exc
    return (char, k), partial(_build, lineno, order, coeffs)


def _builders(path: Path | str) -> dict[CacheKey, Callable[[], CyclotomicElement]]:
    """Every line checked, later lines overriding earlier ones with the same
    key; each value is left for its builder to read.  No file, no entries."""
    entries = {}
    if not Path(path).exists():
        return entries
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            if not line.endswith(b"\n"):
                print(f"warning: skipping unterminated last line {lineno} of {path}",
                      file=sys.stderr)
                continue
            key, build = _check(line, lineno)
            entries[key] = build
    return entries


def load_into(path: Path | str, cache: BernoulliCache) -> int:
    """Seed a memo cache from the file, every line checked but each value
    built on its first lookup; returns the number of entries."""
    entries = _builders(path)
    for key, build in entries.items():
        cache.store_twisted(key, build)
    return len(entries)


def append_new(path: Path | str, values: dict[CacheKey, CyclotomicElement]) -> int:
    """Append the given values, in the mapping's order; returns the count."""
    if not values:
        return 0
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if path.exists():
        _truncate_torn_tail(path)
    with open(path, "a", encoding="utf-8") as fh:
        fh.writelines(_encode(key, value) + "\n" for key, value in values.items())
    return len(values)


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
    return len(_builders(path))


def clear(path: Path | str) -> None:
    Path(path).unlink(missing_ok=True)


def verify(path: Path | str, limit: int | None = None) -> list[str]:
    """Recompute cached entries from scratch and compare bit-exactly.

    Returns the serialized keys of any mismatches; raises CacheError if
    the file cannot be parsed.
    """
    fresh = BernoulliCache()
    mismatches = []
    # Keys are unique, so sorting never compares two builders.
    for key, build in sorted(_builders(path).items())[:limit]:
        (p, m, images), k = key
        value = build()
        recomputed = fresh.twisted_bernoulli(character(p, m, images), k)
        if not (recomputed.order == value.order and recomputed == value):
            mismatches.append(f"p={p} m={m} chi={list(images)} k={k}")
    return mismatches
