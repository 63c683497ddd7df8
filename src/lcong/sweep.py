"""Parameter-grid sweeps over the congruence catalog, with the value
cache, CSV/JSONL reports and an aligned human-readable table.

Grid points whose hypotheses fail are recorded as skips, never as
failed verdicts.  Identical configs produce byte-identical
machine-readable reports (the only timestamp lives in the JSONL header
record).  Every job is checked before any instance runs; instances are
then expanded lazily and run in grid order on the calling thread, and
the reports are written line by line.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import inspect
import math
import os
import sys
import time
from dataclasses import dataclass, field
from itertools import chain, product
from typing import Iterator, Optional

from . import congruences as cg
from .bernoulli import DEFAULT_CACHE, BernoulliCache, DomainError
from .characters import DirichletCharacter, enumerate_characters, enumerate_primitive
from .congruences import CongruenceVerdict
from . import valuecache
from .valuecache import json_text


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

    def echo(self) -> dict:
        return {"jobs": [{"id": job.id, **job.params} for job in self.jobs]}


@dataclass(frozen=True)
class SkipRecord:
    id: str
    params: dict
    reason: str


@dataclass
class SweepReport:
    """The verdicts and skips of a sweep in grid order, with a summary
    counted as each result is added."""

    config: dict
    verdicts: list[CongruenceVerdict] = field(default_factory=list)
    skips: list[SkipRecord] = field(default_factory=list)
    duration: float = 0.0
    summary: dict = field(
        default_factory=lambda: {"total": 0, "holds": 0, "fails": 0, "skips": 0, "per_id": {}})

    def add(self, result: CongruenceVerdict | SkipRecord) -> None:
        row = self.summary["per_id"].setdefault(
            result.id, {"total": 0, "holds": 0, "fails": 0, "skips": 0, "min_margin": math.inf})
        if isinstance(result, SkipRecord):
            self.skips.append(result)
            counts = ("skips",)
        else:
            self.verdicts.append(result)
            counts = ("total", "holds" if result.holds else "fails")
            row["min_margin"] = min(row["min_margin"], result.observed_margin)
        for count in counts:
            row[count] += 1
            self.summary[count] += 1

    @property
    def all_hold(self) -> bool:
        return self.summary["fails"] == 0


# ---------------------------------------------------------------------
# Congruence registry


@dataclass(frozen=True)
class CongruenceSpec:
    """One catalog id.  ``verifier`` names the ``congruences`` function
    that checks an instance; it is looked up on the module at call time
    and given the instance values its signature names, plus ``cache``
    when it takes one.  ``region``, when set, is ``(predicate, value,
    reason)``: an instance where ``congruences.<predicate>(chi, k)`` is not
    ``value`` is skipped with ``reason``, and the spec's id is stamped on
    the verdicts, so a probe of an excluded region reports as itself."""

    id: str
    aliases: tuple[str, ...]
    axes: tuple[str, ...]
    verifier: str
    char_mode: Optional[str] = None  # None | "primitive" | "all" | "vanishing"
    char_axes: tuple[str, str] = ("p", "m")
    region: Optional[tuple[str, bool, str]] = None
    arguments: tuple[str, ...] = field(init=False, repr=False)  # the verifier's, in order

    def __post_init__(self) -> None:
        names = tuple(inspect.signature(getattr(cg, self.verifier)).parameters)
        object.__setattr__(self, "arguments", names)


def _vanishing_family(p: int, m: int) -> list[DirichletCharacter]:
    return [chi for chi in enumerate_characters(p, m) if cg.vanishing_character_ok(chi)]


_CHAR_FAMILIES = {
    "primitive": enumerate_primitive,
    "all": enumerate_characters,
    "vanishing": _vanishing_family,
}

REGISTRY: dict[str, CongruenceSpec] = {}


def _register(id_: str, aliases: tuple, axes: tuple, verifier: str, **options) -> None:
    spec = CongruenceSpec(id_, aliases, axes, verifier, **options)
    for name in (id_, *aliases):
        if name in REGISTRY:
            raise ValueError(f"duplicate congruence id {name}")
        REGISTRY[name] = spec


_register("kummer", (), ("p", "k", "l", "n"), "verify_kummer_classical")
_register("ernvall", ("1.1",), ("chi_p", "chi_m", "p", "k", "l", "n"), "verify_ernvall",
          char_mode="primitive", char_axes=("chi_p", "chi_m"))
_register("euler-kummer", ("1.2",), ("p", "k", "l"), "verify_euler_kummer")
_register("stern", ("1.3",), ("k", "n", "q"), "verify_stern")
_register("stern-iff", (), ("k", "l", "n"), "verify_stern_iff")
_register("1.4", ("lshift-two",), ("m", "k", "n", "q"), "verify_lvalue_shift_two",
          char_mode="primitive")
_register("1.5", ("lshift-two-iff",), ("m", "k", "l", "n"), "verify_lvalue_shift_two_iff",
          char_mode="primitive")
_register("1.6", ("1.7", "lshift-odd"), ("p", "m", "k", "n", "q"), "verify_lvalue_shift_odd",
          char_mode="primitive")
_register("1.8", ("lshift-odd-iff",), ("p", "m", "k", "h", "n"), "verify_lvalue_shift_odd_iff",
          char_mode="primitive")
_register("2.1", ("sum-lift",), ("p", "m", "k", "n"), "verify_sum_lift",
          char_mode="all", region=("sum_lift_excluded", False, "excluded case: p = 2, m = 1, odd k"))
_register("2.1x", ("sum-lift-excluded",), ("p", "m", "k", "n"), "verify_sum_lift",
          char_mode="all", region=("sum_lift_excluded", True, "not in the excluded region"))
_register("2.2", ("sum-twist",), ("p", "m", "k", "a"), "verify_sum_twist", char_mode="primitive")
_register("2.3", ("char-orders",), ("p", "m"), "verify_character_orders", char_mode="primitive")
_register("2.4", ("sum-vanishing",), ("p", "m", "k", "n"), "verify_sum_vanishing",
          char_mode="vanishing")
_register("2.5", ("sum-vanishing-two",), ("m", "k", "n"), "verify_sum_vanishing_two",
          char_mode="vanishing",
          region=("strengthened_vanishing_applies", True, "outside the strengthened-vanishing cases"))
_register("2.5x", ("sum-vanishing-two-excluded",), ("m", "k", "n"), "verify_sum_vanishing_two",
          char_mode="vanishing",
          region=("strengthened_vanishing_applies", False, "not in the excluded region"))
_register("sun", ("3.1",), ("k", "n"), "verify_sun")
_register("3.2", ("twisted-voronoi",), ("p", "m", "a", "k", "n"), "verify_twisted_voronoi",
          char_mode="all")
_register("voronoi", (), ("a", "p", "k"), "verify_voronoi")
_register("lerch", (), ("a", "n"), "verify_lerch")
_register("nondiv", (), ("p", "m", "d"), "check_nondivisibility", char_mode="primitive")
_register("floor-parity", (), ("m",), "verify_floor_count")


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
    # an id whose axes name no conductor prime is stated for 2-power moduli
    for p in job.axis(p_axis) if p_axis in spec.axes else [2]:
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
    numeric grid with the last axis varying fastest.  An instance maps
    ``chi`` and the character axes, then each numeric axis, to its value;
    the verifier takes the names its signature lists.
    A job key must be one of the spec's axes or, with a character family,
    ``chi`` or ``parity``.
    The job is checked on the call, raising ConfigError; the instances
    come lazily."""
    spec = lookup(job.id)
    taken = {*spec.axes, *(("chi", "parity") if spec.char_mode else ())}
    for key in job.params:
        if key not in taken:
            raise ConfigError(f"job '{job.id}': '{key}' is not a parameter of {spec.id}")
    numeric_axes = [a for a in spec.axes if spec.char_mode is None or a not in spec.char_axes]
    values = [job.axis(a) for a in numeric_axes]
    p_axis, m_axis = spec.char_axes
    heads = [{}] if spec.char_mode is None else [
        {"chi": chi, p_axis: chi.p, m_axis: chi.m} for chi in _select_characters(spec, job)
    ]
    return ((spec, {**head, **dict(zip(numeric_axes, point))})
            for head in heads for point in product(*values))


def run_instance(
    spec: CongruenceSpec, inst: dict, cache: BernoulliCache
) -> CongruenceVerdict | SkipRecord:
    try:
        if spec.region is not None:
            predicate, value, reason = spec.region
            if getattr(cg, predicate)(inst["chi"], inst["k"]) != value:
                raise DomainError(reason)
        args = [cache if name == "cache" else inst[name] for name in spec.arguments]
        verdict = getattr(cg, spec.verifier)(*args)
    except DomainError as exc:
        params = {k: v.label() if k == "chi" else v for k, v in inst.items()}
        return SkipRecord(id=spec.id, params=params, reason=str(exc))
    if spec.region is not None and verdict.id != spec.id:
        verdict = dataclasses.replace(verdict, id=spec.id)
    return verdict


def _run(config: SweepConfig, cache: BernoulliCache) -> SweepReport:
    instances = chain(*[expand_job(job) for job in config.jobs])
    report = SweepReport(config=config.echo())
    t0 = time.perf_counter()
    for spec, inst in instances:
        report.add(run_instance(spec, inst, cache))
    report.duration = time.perf_counter() - t0
    return report


def run_sweep(config: SweepConfig, cache: Optional[BernoulliCache] = None) -> SweepReport:
    """Run a config and handle every file it names: load ``cache_path`` into
    the memo, check and run the jobs and append the new values; if a verdict
    fails on loaded values, run again on a fresh memo, warn once per changed
    verdict and append the fresh values that differ.  Then write the reports,
    once.  Without ``cache``, a config with a cache file runs on a fresh memo,
    so a file never seeds DEFAULT_CACHE; any other runs on DEFAULT_CACHE."""
    cache_path = config.cache_path
    if cache is None:
        cache = BernoulliCache() if cache_path else DEFAULT_CACHE
    loaded = valuecache.load_into(cache_path, cache) if cache_path else 0
    if not config.jobs:
        raise ConfigError("no jobs configured")
    report = _run(config, cache)
    if cache_path:
        valuecache.append_new(cache_path, cache)
    if loaded and not report.all_hold:
        fresh = BernoulliCache()
        fresh_report = _run(config, fresh)
        for old, new in zip(report.verdicts, fresh_report.verdicts):
            if (old.holds, old.observed_margin) != (new.holds, new.observed_margin):
                print(f"warning: cached values changed {old.id} {old.params}: "
                      f"holds={old.holds} margin={old.observed_margin} from the cache, "
                      f"holds={new.holds} margin={new.observed_margin} recomputed",
                      file=sys.stderr)
        fresh.dirty_keys = {key for key in fresh.dirty_keys
                            if cache.stored_twisted(key) != fresh.stored_twisted(key)}
        valuecache.append_new(cache_path, fresh)
        report = fresh_report
    for path, write in ((config.csv_path, write_csv), (config.records_path, write_records)):
        if path:
            with _replacing(path) as fh:
                write(report, fh)
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
        json_text(extra) if extra else "",
    ]


def write_csv(report: SweepReport, fh) -> None:
    """One CSV row per verdict, to an open text stream."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    writer.writerows(map(_csv_row, report.verdicts))


@contextlib.contextmanager
def _replacing(path) -> Iterator:
    """A new file beside ``path`` that replaces it only once fully written."""
    temp = f"{path}.{os.getpid()}.tmp"
    fh = open(temp, "x", encoding="utf-8", newline="")
    try:
        with fh:
            yield fh
        os.replace(temp, path)
    except BaseException:
        os.unlink(temp)
        raise


def _record_lines(report: SweepReport) -> Iterator[str]:
    header = {
        "type": "header",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "config": report.config,
    }
    yield json_text(header)
    for v in report.verdicts:
        yield json_text({
            "type": "verdict",
            "id": v.id,
            "branch": v.branch,
            "params": v.params,
            "holds": v.holds,
            "required_exponent": v.required_modulus_exponent,
            "observed_margin": _margin_str(v.observed_margin),
            "lhs": v.lhs.record(),
            "rhs": v.rhs.record(),
        })
    for s in report.skips:
        yield json_text({"type": "skip", "id": s.id, "params": s.params, "reason": s.reason})
    summary = dict(report.summary)
    summary["per_id"] = {
        id_: {**row, "min_margin": _margin_str(row["min_margin"])}
        for id_, row in report.summary["per_id"].items()
    }
    yield json_text({"type": "summary", **summary})


def write_records(report: SweepReport, fh) -> None:
    """Line-delimited records, to an open text stream; the timestamp
    appears only in the header."""
    fh.writelines(line + "\n" for line in _record_lines(report))


#: The most verdict rows ``table_text`` shows.
TABLE_ROWS = 200


def table_text(report: SweepReport) -> str:
    rows = [["id", "branch", "params", "holds", "req", "margin"]]
    for v in report.verdicts[:TABLE_ROWS]:
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
    if len(report.verdicts) > TABLE_ROWS:
        out.append(f"... ({len(report.verdicts) - TABLE_ROWS} more verdicts)")
    s = report.summary
    out.append(
        f"total={s['total']} holds={s['holds']} fails={s['fails']} skips={s['skips']}"
        f"  ({report.duration:.2f}s)"
    )
    return "\n".join(out)
