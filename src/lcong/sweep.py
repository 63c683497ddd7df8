"""Parameter-grid sweeps over the congruence catalog, with CSV/JSONL
reports and an aligned human-readable table.

Grid points whose hypotheses fail are recorded as skips, never as
failed verdicts.  Identical configs produce byte-identical
machine-readable reports (the only timestamp lives in the JSONL header
record), and parallel execution yields the same verdict sequence as
serial execution.  The thread pool takes the work in batches: each
contiguous run of instances that share a congruence id and a character
(or just an id, for jobs without characters) is one task, so one thread
computes all of a character's values, and the batches' results are
collected in submission order.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import groupby, product
from typing import Callable, Iterator, Optional

from . import congruences as cg
from .bernoulli import DEFAULT_CACHE, BernoulliCache, DomainError
from .characters import DirichletCharacter, enumerate_characters, enumerate_primitive
from .congruences import CongruenceVerdict


class ConfigError(ValueError):
    """Invalid sweep configuration."""


def parse_values(text: str) -> list[int]:
    """Parse '3', '1,3,5', '0..20', or '0..20:2' (step >= 1) into a list of ints."""
    out: list[int] = []
    try:
        for chunk in str(text).split(","):
            chunk = chunk.strip()
            if ".." in chunk:
                span, _, step = chunk.partition(":")
                lo, _, hi = span.partition("..")
                step = int(step) if step else 1
                if step < 1:  # 'hi + 1' stops only an ascending range
                    raise ValueError(step)
                out.extend(range(int(lo), int(hi) + 1, step))
            elif chunk:
                out.append(int(chunk))
    except ValueError:
        raise ConfigError(f"cannot parse parameter value {text!r}") from None
    if not out:
        raise ConfigError(f"empty parameter value {text!r}")
    return out


@dataclass(frozen=True)
class SweepJob:
    """One congruence id over a parameter grid.  ``params`` is parsed and
    checked on construction, so a malformed job raises ConfigError:

    - an axis is an int, a string '3', '1,3,5' or 'lo..hi[:step]', or a
      list of ints and such strings; it is stored as a list of ints;
    - ``chi`` is a string 'e1,e2' of generator image exponents or a list
      of integer exponent lists; it is stored as a list of int lists;
    - ``parity`` is 'even', 'odd' or None.
    """

    id: str
    params: dict

    def __post_init__(self) -> None:
        parsed = {}
        for key, value in self.params.items():
            if key == "chi":
                value = self._parse_chi(value)
            elif key != "parity":
                value = self._parse_axis(key, value)
            elif value not in (None, "even", "odd"):
                raise ConfigError(f"job '{self.id}': parity must be 'even' or 'odd'")
            parsed[key] = value
        object.__setattr__(self, "params", parsed)

    def _parse_axis(self, name: str, value) -> list[int]:
        out: list[int] = []
        for v in value if isinstance(value, (list, tuple)) else [value]:
            if isinstance(v, str):
                out.extend(parse_values(v))
            elif type(v) is int:  # not a bool, a float or an object
                out.append(v)
            else:
                raise ConfigError(f"job '{self.id}': cannot interpret '{name}' value {v!r}")
        return out

    def _parse_chi(self, value) -> list[list[int]]:
        if isinstance(value, str):
            try:
                value = [[int(e) for e in value.split(",")]]
            except ValueError:
                pass  # left a string, so rejected below
        if isinstance(value, list) and all(
            isinstance(images, list) and all(type(e) is int for e in images) for images in value
        ):
            return value
        raise ConfigError(f"job '{self.id}': 'chi' must be 'e1,e2' or a list of integer lists")

    def axis(self, name: str) -> list[int]:
        value = self.params.get(name)
        if not value:
            raise ConfigError(f"job '{self.id}': missing or empty axis '{name}'")
        return value


@dataclass(frozen=True)
class SweepConfig:
    jobs: tuple[SweepJob, ...]
    csv_path: Optional[str] = None
    records_path: Optional[str] = None
    cache_path: Optional[str] = None
    parallelism: int = 1

    def echo(self) -> dict:
        return {
            "jobs": [{"id": job.id, **job.params} for job in self.jobs],
            "parallelism": self.parallelism,
        }


@dataclass(frozen=True)
class SkipRecord:
    id: str
    params: dict
    reason: str


@dataclass
class SweepReport:
    config: dict
    verdicts: list[CongruenceVerdict]
    skips: list[SkipRecord]
    duration: float = 0.0
    summary: dict = field(default_factory=dict)

    def finalize(self) -> "SweepReport":
        per_id: dict[str, dict] = {}
        for r in (*self.verdicts, *self.skips):
            row = per_id.setdefault(
                r.id, {"total": 0, "holds": 0, "fails": 0, "skips": 0, "min_margin": math.inf}
            )
            if isinstance(r, SkipRecord):
                row["skips"] += 1
            else:
                row["total"] += 1
                row["holds" if r.holds else "fails"] += 1
                row["min_margin"] = min(row["min_margin"], r.observed_margin)
        counts = ("total", "holds", "fails", "skips")
        self.summary = {c: sum(row[c] for row in per_id.values()) for c in counts}
        self.summary["per_id"] = per_id
        return self

    @property
    def all_hold(self) -> bool:
        return all(v.holds for v in self.verdicts)


# ---------------------------------------------------------------------
# Congruence registry


@dataclass(frozen=True)
class CongruenceSpec:
    id: str
    aliases: tuple[str, ...]
    axes: tuple[str, ...]
    runner: Callable[..., CongruenceVerdict]
    char_mode: Optional[str] = None  # None | "primitive" | "all" | "vanishing"
    char_axes: tuple[str, str] = ("p", "m")
    char_fixed_p: Optional[int] = None  # conductor prime fixed by the congruence


def _vanishing_family(p: int, m: int) -> list[DirichletCharacter]:
    return [chi for chi in enumerate_characters(p, m) if cg.vanishing_character_ok(chi)]


_CHAR_FAMILIES = {
    "primitive": enumerate_primitive,
    "all": enumerate_characters,
    "vanishing": _vanishing_family,
}


def _run_sum_lift(chi, p, m, k, n, cache):
    if cg.sum_lift_excluded(chi, k):
        raise DomainError("excluded case: p = 2, m = 1, odd k")
    return cg.verify_sum_lift(chi, k, n)


def _run_sum_lift_excluded(chi, p, m, k, n, cache):
    if not cg.sum_lift_excluded(chi, k):
        raise DomainError("not in the excluded region")
    return dataclasses.replace(cg.verify_sum_lift(chi, k, n), id="2.1x")


def _run_vanishing_two(chi, p, m, k, n, cache):
    if not cg.strengthened_vanishing_applies(chi, k):
        raise DomainError("outside the strengthened-vanishing cases")
    return cg.verify_sum_vanishing_two(chi, k, n)


def _run_vanishing_two_excluded(chi, p, m, k, n, cache):
    if cg.strengthened_vanishing_applies(chi, k):
        raise DomainError("not in the excluded region")
    return dataclasses.replace(cg.verify_sum_vanishing_two(chi, k, n), id="2.5x")


REGISTRY: dict[str, CongruenceSpec] = {}


def _register(spec: CongruenceSpec) -> None:
    for name in (spec.id, *spec.aliases):
        if name in REGISTRY:
            raise ValueError(f"duplicate congruence id {name}")
        REGISTRY[name] = spec


_register(CongruenceSpec(
    id="kummer", aliases=(), axes=("p", "k", "l", "n"),
    runner=lambda p, k, l, n, cache: cg.verify_kummer_classical(p, k, l, n, cache),
))
_register(CongruenceSpec(
    id="ernvall", aliases=("1.1",), axes=("p", "k", "l", "n"),
    char_mode="primitive", char_axes=("chi_p", "chi_m"),
    runner=lambda chi, chi_p, chi_m, p, k, l, n, cache: cg.verify_ernvall(chi, p, k, l, n, cache),
))
_register(CongruenceSpec(
    id="euler-kummer", aliases=("1.2",), axes=("p", "k", "l"),
    runner=lambda p, k, l, cache: cg.verify_euler_kummer(p, k, l, cache),
))
_register(CongruenceSpec(
    id="stern", aliases=("1.3",), axes=("k", "n", "q"),
    runner=lambda k, n, q, cache: cg.verify_stern(k, n, q, cache),
))
_register(CongruenceSpec(
    id="stern-iff", aliases=(), axes=("k", "l", "n"),
    runner=lambda k, l, n, cache: cg.verify_stern_iff(k, l, n, cache),
))
_register(CongruenceSpec(
    id="1.4", aliases=("lshift-two",), axes=("m", "k", "n", "q"), char_mode="primitive",
    char_fixed_p=2,
    runner=lambda chi, p, m, k, n, q, cache: cg.verify_lvalue_shift_two(chi, k, n, q, cache),
))
_register(CongruenceSpec(
    id="1.5", aliases=("lshift-two-iff",), axes=("m", "k", "l", "n"), char_mode="primitive",
    char_fixed_p=2,
    runner=lambda chi, p, m, k, l, n, cache: cg.verify_lvalue_shift_two_iff(chi, k, l, n, cache),
))
_register(CongruenceSpec(
    id="1.6", aliases=("1.7", "lshift-odd"), axes=("p", "m", "k", "n", "q"),
    char_mode="primitive",
    runner=lambda chi, p, m, k, n, q, cache: cg.verify_lvalue_shift_odd(chi, k, n, q, cache),
))
_register(CongruenceSpec(
    id="1.8", aliases=("lshift-odd-iff",), axes=("p", "m", "k", "h", "n"),
    char_mode="primitive",
    runner=lambda chi, p, m, k, h, n, cache: cg.verify_lvalue_shift_odd_iff(chi, k, h, n, cache),
))
_register(CongruenceSpec(
    id="2.1", aliases=("sum-lift",), axes=("p", "m", "k", "n"), char_mode="all",
    runner=_run_sum_lift,
))
_register(CongruenceSpec(
    id="2.1x", aliases=("sum-lift-excluded",), axes=("p", "m", "k", "n"), char_mode="all",
    runner=_run_sum_lift_excluded,
))
_register(CongruenceSpec(
    id="2.2", aliases=("sum-twist",), axes=("p", "m", "k", "a"), char_mode="primitive",
    runner=lambda chi, p, m, k, a, cache: cg.verify_sum_twist(chi, k, a),
))
_register(CongruenceSpec(
    id="2.3", aliases=("char-orders",), axes=("p", "m"), char_mode="primitive",
    runner=lambda chi, p, m, cache: cg.verify_character_orders(chi),
))
_register(CongruenceSpec(
    id="2.4", aliases=("sum-vanishing",), axes=("p", "m", "k", "n"), char_mode="vanishing",
    runner=lambda chi, p, m, k, n, cache: cg.verify_sum_vanishing(chi, k, n),
))
_register(CongruenceSpec(
    id="2.5", aliases=("sum-vanishing-two",), axes=("m", "k", "n"), char_mode="vanishing",
    char_fixed_p=2,
    runner=_run_vanishing_two,
))
_register(CongruenceSpec(
    id="2.5x", aliases=("sum-vanishing-two-excluded",), axes=("m", "k", "n"),
    char_mode="vanishing", char_fixed_p=2,
    runner=_run_vanishing_two_excluded,
))
_register(CongruenceSpec(
    id="sun", aliases=("3.1",), axes=("k", "n"),
    runner=lambda k, n, cache: cg.verify_sun(k, n, cache),
))
_register(CongruenceSpec(
    id="3.2", aliases=("twisted-voronoi",), axes=("p", "m", "a", "k", "n"), char_mode="all",
    runner=lambda chi, p, m, a, k, n, cache: cg.verify_twisted_voronoi(chi, a, k, n, cache),
))
_register(CongruenceSpec(
    id="voronoi", aliases=(), axes=("a", "p", "k"),
    runner=lambda a, p, k, cache: cg.verify_voronoi(a, p, k, cache),
))
_register(CongruenceSpec(
    id="lerch", aliases=(), axes=("a", "n"),
    runner=lambda a, n, cache: cg.verify_lerch(a, n),
))
_register(CongruenceSpec(
    id="nondiv", aliases=(), axes=("p", "m", "d"), char_mode="primitive",
    runner=lambda chi, p, m, d, cache: cg.check_nondivisibility(chi, d, cache),
))
_register(CongruenceSpec(
    id="floor-parity", aliases=(), axes=("m",),
    runner=lambda m, cache: cg.verify_floor_count(m),
))


def registered_ids() -> list[str]:
    return sorted({spec.id for spec in REGISTRY.values()})


def lookup(id_: str) -> CongruenceSpec:
    spec = REGISTRY.get(id_)
    if spec is None:
        raise ConfigError(f"unknown congruence id '{id_}' (known: {', '.join(registered_ids())})")
    return spec


# ---------------------------------------------------------------------
# Grid expansion and execution


def _select_characters(spec: CongruenceSpec, job: SweepJob) -> list[DirichletCharacter]:
    """The family's characters at each (p, m), filtered by ``parity`` and by
    ``chi``.  A ``chi`` entry is read as a character mod p^m, its exponents
    reduced by the constructor, when its length is the generator count;
    other entries are left to the job's other moduli."""
    p_axis, m_axis = spec.char_axes
    out = []
    parity = job.params.get("parity")
    restrict = job.params.get("chi")
    p_values = [spec.char_fixed_p] if spec.char_fixed_p else job.axis(p_axis)
    for p in p_values:
        for m in job.axis(m_axis):
            family = _CHAR_FAMILIES[spec.char_mode](p, m)
            if restrict is not None and family:
                group = family[0].group
                keys = {DirichletCharacter(group, tuple(images)).key()
                        for images in restrict if len(images) == len(group.generators)}
                family = [chi for chi in family if chi.key() in keys]
            out.extend(chi for chi in family if not parity or chi.parity() == parity)
    if not out:
        raise ConfigError(f"job '{job.id}': selects no character")
    return out


def expand_job(job: SweepJob) -> Iterator[tuple[CongruenceSpec, dict]]:
    """Instances of a job in deterministic grid order: per character, the
    numeric grid with the last axis varying fastest.  An instance is the
    runner's keyword arguments, ``chi`` and the character axes first.
    A job key must be one of the spec's axes or, with a character family,
    ``chi``, ``parity`` or a character axis, less a fixed conductor prime."""
    spec = lookup(job.id)
    taken = set(spec.axes)
    if spec.char_mode is not None:
        taken |= {"chi", "parity", *spec.char_axes}
    if spec.char_fixed_p is not None:
        taken.discard("p")
    for key in job.params:
        if key not in taken:
            raise ConfigError(f"job '{job.id}': '{key}' is not a parameter of {spec.id}")
    numeric_axes = [a for a in spec.axes if spec.char_mode is None or a not in spec.char_axes]
    grid = [dict(zip(numeric_axes, values))
            for values in product(*(job.axis(a) for a in numeric_axes))]
    p_axis, m_axis = spec.char_axes
    chars = [None] if spec.char_mode is None else _select_characters(spec, job)
    for chi in chars:
        head = {} if chi is None else {"chi": chi, p_axis: chi.p, m_axis: chi.m}
        for inst in grid:
            yield spec, {**head, **inst}


def run_instance(
    spec: CongruenceSpec, inst: dict, cache: BernoulliCache
) -> CongruenceVerdict | SkipRecord:
    try:
        return spec.runner(**inst, cache=cache)
    except DomainError as exc:
        params = {k: v.label() if k == "chi" else v for k, v in inst.items()}
        return SkipRecord(id=spec.id, params=params, reason=str(exc))


def _run_key(item: tuple[CongruenceSpec, dict]) -> tuple:
    spec, inst = item
    return spec.id, inst["chi"].key() if "chi" in inst else None


def _run_batch(batch: list, cache: BernoulliCache) -> list[CongruenceVerdict | SkipRecord]:
    return [run_instance(spec, inst, cache) for spec, inst in batch]


def run_sweep(config: SweepConfig, cache: BernoulliCache = DEFAULT_CACHE) -> SweepReport:
    """Evaluate every grid point of every job; write configured reports."""
    if not config.jobs:
        raise ConfigError("no jobs configured")
    if config.parallelism < 1:
        raise ConfigError("parallelism must be >= 1")
    work: list[tuple[CongruenceSpec, dict]] = []
    for job in config.jobs:
        work.extend(expand_job(job))

    t0 = time.perf_counter()
    if config.parallelism == 1:
        results = _run_batch(work, cache)
    else:
        batches = [list(run) for _, run in groupby(work, key=_run_key)]
        with ThreadPoolExecutor(max_workers=config.parallelism) as pool:
            done = pool.map(lambda batch: _run_batch(batch, cache), batches)
            results = [result for batch_results in done for result in batch_results]
    duration = time.perf_counter() - t0

    verdicts = [r for r in results if isinstance(r, CongruenceVerdict)]
    skips = [r for r in results if isinstance(r, SkipRecord)]
    report = SweepReport(
        config=config.echo(), verdicts=verdicts, skips=skips, duration=duration
    ).finalize()
    if config.csv_path:
        write_csv(report, config.csv_path)
    if config.records_path:
        write_records(report, config.records_path)
    return report


# ---------------------------------------------------------------------
# Report rendering

CSV_PARAM_COLUMNS = ("chi", "p", "m", "k", "l", "d", "h", "n", "q", "a")
CSV_HEADER = ("id", "branch", *CSV_PARAM_COLUMNS, "holds", "required_exponent", "observed_margin", "extra")


def _margin_str(margin) -> str:
    return "inf" if margin == math.inf else str(margin)


def _csv_row(v: CongruenceVerdict) -> list[str]:
    extra = {k: v_ for k, v_ in v.params.items() if k not in CSV_PARAM_COLUMNS}
    return [
        v.id,
        v.branch or "",
        *[str(v.params.get(col, "")) for col in CSV_PARAM_COLUMNS],
        "true" if v.holds else "false",
        str(v.required_modulus_exponent),
        _margin_str(v.observed_margin),
        json.dumps(extra, sort_keys=True) if extra else "",
    ]


def csv_text(report: SweepReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for v in report.verdicts:
        writer.writerow(_csv_row(v))
    return buf.getvalue()


def write_csv(report: SweepReport, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(csv_text(report))


def records_lines(report: SweepReport, timestamp: str | None = None) -> list[str]:
    """Line-delimited records; the timestamp appears only in the header."""
    header = {
        "type": "header",
        "timestamp": timestamp if timestamp is not None else time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "config": report.config,
    }
    lines = [json.dumps(header, sort_keys=True)]
    for v in report.verdicts:
        lines.append(json.dumps({
            "type": "verdict",
            "id": v.id,
            "branch": v.branch,
            "params": v.params,
            "holds": v.holds,
            "required_exponent": v.required_modulus_exponent,
            "observed_margin": _margin_str(v.observed_margin),
            "lhs": v.lhs.record(),
            "rhs": v.rhs.record(),
        }, sort_keys=True))
    for s in report.skips:
        lines.append(json.dumps(
            {"type": "skip", "id": s.id, "params": s.params, "reason": s.reason},
            sort_keys=True,
        ))
    summary = dict(report.summary)
    summary["per_id"] = {
        id_: {**row, "min_margin": _margin_str(row["min_margin"])}
        for id_, row in report.summary["per_id"].items()
    }
    lines.append(json.dumps({"type": "summary", **summary}, sort_keys=True))
    return lines


def write_records(report: SweepReport, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(records_lines(report)) + "\n")


def table_text(report: SweepReport, max_rows: int | None = None) -> str:
    rows = [["id", "branch", "params", "holds", "req", "margin"]]
    shown = report.verdicts if max_rows is None else report.verdicts[:max_rows]
    for v in shown:
        params = " ".join(f"{k}={val}" for k, val in v.params.items())
        rows.append([
            v.id, v.branch or "-", params,
            "yes" if v.holds else "NO",
            str(v.required_modulus_exponent),
            _margin_str(v.observed_margin),
        ])
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    out = []
    for i, r in enumerate(rows):
        out.append("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())
        if i == 0:
            out.append("  ".join("-" * w for w in widths))
    if max_rows is not None and len(report.verdicts) > max_rows:
        out.append(f"... ({len(report.verdicts) - max_rows} more verdicts)")
    s = report.summary
    out.append(
        f"total={s['total']} holds={s['holds']} fails={s['fails']} skips={s['skips']}"
        f"  ({report.duration:.2f}s)"
    )
    return "\n".join(out)
