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
import math
import os
import sys
import time
from itertools import chain, product
from json.encoder import encode_basestring_ascii as _string_text
from operator import itemgetter
from typing import Callable, Iterator, NamedTuple, Optional

from . import congruences as cg
from .bernoulli import BernoulliCache
from .characters import (
    DirichletCharacter, DomainError, ResourceLimitError, build_unit_group, check_work,
    enumerate_characters,
)
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
                values = range(int(lo), int(hi) + 1, step)
                check_work(len(out) + len(values), 1)  # each value is at least one instance
                out.extend(values)
            elif chunk:
                out.append(int(chunk))
    except ResourceLimitError:
        raise
    except ValueError:
        raise ConfigError(f"cannot parse parameter value {text!r}") from None
    if not out:
        raise ConfigError(f"empty parameter value {text!r}")
    return out


class SweepJob:
    """One congruence id over a parameter grid, read-only by convention.
    ``params`` is parsed and checked on construction, so a malformed job
    raises ConfigError:

    - an axis is an int, a string '3', '1,3,5' or 'lo..hi[:step]', or a
      list of ints and such strings; it is stored as a list of ints;
    - ``chi`` is a string 'e1,e2' of generator image exponents or a list
      of integer exponent lists; it is stored as a list of int lists;
    - ``parity`` is 'even', 'odd' or None.
    """

    def __init__(self, id: str, params: dict):
        self.id = id
        self.params = {}
        for key, value in params.items():
            if key == "chi":
                value = self._parse_chi(value)
            elif key != "parity":
                value = self._parse_axis(key, value)
            elif value not in (None, "even", "odd"):
                raise ConfigError(f"job '{id}': parity must be 'even' or 'odd'")
            self.params[key] = value

    def __repr__(self) -> str:
        return f"SweepJob(id={self.id!r}, params={self.params!r})"

    def _parse_axis(self, name: str, value) -> list[int]:
        out: list[int] = []
        for v in value if isinstance(value, (list, tuple)) else [value]:
            if isinstance(v, str):
                out.extend(parse_values(v))
                check_work(len(out), 1)  # the whole axis, as parse_values bounds one string
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


class SweepConfig(NamedTuple):
    jobs: tuple[SweepJob, ...]
    csv_path: Optional[str] = None
    records_path: Optional[str] = None
    cache_path: Optional[str] = None

    def echo(self) -> dict:
        return {"jobs": [{"id": job.id, **job.params} for job in self.jobs]}


class SweepReport:
    """The verdicts and skips of a sweep in grid order, with a summary
    counted as each result is added.  A skip is kept as its JSONL line."""

    def __init__(self, config: dict):
        self.config = config
        self.verdicts: list[CongruenceVerdict] = []
        self.skips: list[str] = []
        self.duration = 0.0
        self.summary: dict = {"total": 0, "holds": 0, "fails": 0, "skips": 0, "per_id": {}}

    def __repr__(self) -> str:
        return (f"SweepReport(config={self.config!r}, verdicts={self.verdicts!r}, "
                f"skips={self.skips!r}, duration={self.duration!r}, summary={self.summary!r})")

    def add(self, id_: str, result: CongruenceVerdict | str) -> None:
        """Count a verdict under its own id, or a skip, its JSONL line, under ``id_``."""
        summary, per_id = self.summary, self.summary["per_id"]
        skipped = result.__class__ is str
        id_ = id_ if skipped else result.id
        row = per_id.get(id_) or per_id.setdefault(  # a new row on an id's first result
            id_, {"total": 0, "holds": 0, "fails": 0, "skips": 0, "min_margin": math.inf})
        if skipped:
            self.skips.append(result)
            row["skips"] += 1
            summary["skips"] += 1
            return
        self.verdicts.append(result)
        outcome = "holds" if result.holds else "fails"
        row["total"] += 1
        row[outcome] += 1
        summary["total"] += 1
        summary[outcome] += 1
        if result.observed_margin < row["min_margin"]:
            row["min_margin"] = result.observed_margin

    @property
    def all_hold(self) -> bool:
        return self.summary["fails"] == 0


# ---------------------------------------------------------------------
# Congruence registry


class CongruenceSpec:
    """One catalog id, read-only by convention.  ``verifier`` names the
    ``congruences`` function that checks an instance; it is looked up on
    the module once per job and given, by position, ``chi`` exactly when
    the id has a character family, then the ``numeric_axes`` its other
    argument names list, then ``cache`` when it takes one.  The grid ``axes``
    are the character axes, but that of a ``prime`` the id fixes, then the
    numeric axes.  ``region``, when set, is ``(predicate, value, reason)``: an
    instance where ``congruences.<predicate>(chi, k)`` is not ``value`` is
    skipped with ``reason``, and the spec's id is stamped on the verdicts,
    so a probe of an excluded region reports as itself."""

    def __init__(self, id: str, aliases: tuple[str, ...], verifier: str,
                 char_mode: Optional[str] = None,  # None or a key of _FAMILY_MEMBER
                 char_axes: tuple[str, str] = ("p", "m"), prime: Optional[int] = None,
                 region: Optional[tuple[str, bool, str]] = None):
        self.id, self.aliases, self.verifier, self.prime = id, aliases, verifier, prime
        self.char_mode, self.char_axes, self.region = char_mode, char_axes, region
        code = getattr(cg, verifier).__code__
        self.arguments = code.co_varnames[:code.co_argcount]  # the verifier's, in order
        self.takes_cache = self.arguments[-1] == "cache"
        self.keys = self.arguments[:-1] if self.takes_cache else self.arguments
        head = () if char_mode is None else ("chi", *char_axes)  # the character's keys
        self.numeric_axes = self.keys[1:] if head else self.keys
        if head and self.keys[:1] != ("chi",) or {"chi", "cache", *head} & {*self.numeric_axes}:
            raise ValueError(f"{id}: {verifier} must take {'chi, ' if head else ''}"
                             f"the numeric axes, then optionally cache")
        grid_chars = () if char_mode is None else char_axes[1:] if prime else char_axes
        self.axes = (*grid_chars, *self.numeric_axes)
        self.region_k = None if region is None else self.keys.index("k")
        # A skip's JSONL line: the instance keys in json_text's sorted order in
        # the fixed layout, filled from skip_line's values but chi's object.
        names = (*head, *self.keys)
        order = sorted((i for i, name in enumerate(names) if name != "chi" or i == 0),
                       key=names.__getitem__)
        fields = ", ".join(f"{_string_text(names[i])}: %s" for i in order)  # identifiers: no %
        self._skip_line = (f'{{"id": {_string_text(id).replace("%", "%%")}, '
                           f'"params": {{{fields}}}, "reason": %s, "type": "skip"}}\n')
        self._skip_values = itemgetter(*order, len(names))

    def __repr__(self) -> str:
        return (f"CongruenceSpec(id={self.id!r}, aliases={self.aliases!r}, "
                f"verifier={self.verifier!r}, char_mode={self.char_mode!r}, "
                f"char_axes={self.char_axes!r}, prime={self.prime!r}, region={self.region!r})")

    def skip_line(self, head: tuple, args: tuple, reason: str) -> str:
        """The JSONL line of a skip at the verifier arguments ``args``:
        ``head`` is the character's label as JSON text and its two axes, or
        () without a family."""
        return self._skip_line % self._skip_values((*head, *args, _string_text(reason)))


_FAMILY_MEMBER = {
    "primitive": DirichletCharacter.is_primitive,
    "all": lambda chi: True,
    "vanishing": cg.vanishing_character_ok,
}

REGISTRY: dict[str, CongruenceSpec] = {}


def _register(id_: str, aliases: tuple, verifier: str, **options) -> None:
    spec = CongruenceSpec(id_, aliases, verifier, **options)
    for name in (id_, *aliases):
        if name in REGISTRY:
            raise ValueError(f"duplicate congruence id {name}")
        REGISTRY[name] = spec


_register("kummer", (), "verify_kummer_classical")
_register("ernvall", ("1.1",), "verify_ernvall", char_mode="primitive",
          char_axes=("chi_p", "chi_m"))
_register("euler-kummer", ("1.2",), "verify_euler_kummer")
_register("stern", ("1.3",), "verify_stern")
_register("stern-iff", (), "verify_stern_iff")
_register("1.4", ("lshift-two",), "verify_lvalue_shift_two", char_mode="primitive", prime=2)
_register("1.5", ("lshift-two-iff",), "verify_lvalue_shift_two_iff", char_mode="primitive",
          prime=2)
_register("1.6", ("1.7", "lshift-odd"), "verify_lvalue_shift_odd", char_mode="primitive")
_register("1.8", ("lshift-odd-iff",), "verify_lvalue_shift_odd_iff", char_mode="primitive")
_register("2.1", ("sum-lift",), "verify_sum_lift", char_mode="all",
          region=("sum_lift_excluded", False, "excluded case: p = 2, m = 1, odd k"))
_register("2.1x", ("sum-lift-excluded",), "verify_sum_lift", char_mode="all",
          region=("sum_lift_excluded", True, "not in the excluded region"))
_register("2.2", ("sum-twist",), "verify_sum_twist", char_mode="primitive")
_register("2.3", ("char-orders",), "verify_character_orders", char_mode="primitive")
_register("2.4", ("sum-vanishing",), "verify_sum_vanishing", char_mode="vanishing")
_register("2.5", ("sum-vanishing-two",), "verify_sum_vanishing_two", char_mode="vanishing",
          prime=2,
          region=("strengthened_vanishing_applies", True, "outside the strengthened-vanishing cases"))
_register("2.5x", ("sum-vanishing-two-excluded",), "verify_sum_vanishing_two",
          char_mode="vanishing", prime=2,
          region=("strengthened_vanishing_applies", False, "not in the excluded region"))
_register("sun", ("3.1",), "verify_sun")
_register("3.2", ("twisted-voronoi",), "verify_twisted_voronoi", char_mode="all")
_register("voronoi", (), "verify_voronoi")
_register("lerch", (), "verify_lerch")
_register("nondiv", (), "check_nondivisibility", char_mode="primitive")
_register("floor-parity", (), "verify_floor_count")


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
    """The family's characters at each (p, m) that match ``parity``: all, or
    those ``chi`` names, each built alone and once, in enumeration (image)
    order.  A ``chi`` entry is read as a character mod p^m, its exponents
    reduced by the constructor, when its length is the generator count;
    other entries are left to the job's other moduli."""
    p_axis, m_axis = spec.char_axes
    out = []
    member = _FAMILY_MEMBER[spec.char_mode]
    parity, named = job.params.get("parity"), job.params.get("chi")
    for p in [spec.prime] if spec.prime else job.axis(p_axis):
        for m in job.axis(m_axis):
            if named is None:
                chis = enumerate_characters(p, m)
            else:
                group = build_unit_group(p, m)
                chis = sorted({DirichletCharacter(group, tuple(images)) for images in named
                               if len(images) == len(group.generators)}, key=DirichletCharacter.key)
            out.extend(chi for chi in chis if member(chi) and (not parity or chi.parity() == parity))
    if not out:
        raise ConfigError(f"job '{job.id}': selects no character")
    return out


def expand_job(job: SweepJob) -> Iterator[tuple[CongruenceSpec, Callable, tuple, tuple]]:
    """Instances of a job in deterministic grid order: per character, the
    numeric grid with the last axis varying fastest.  An instance is
    ``(spec, verify, args, head)``: the verifier, looked up once per job;
    its positional arguments, ``chi`` and then the numeric point; and the
    character's skip values, its label as JSON text and its two axes (both
    () without a family).
    A job key must be one of the spec's axes or, with a character family,
    ``chi`` or ``parity``.
    The job is checked on the call, raising ConfigError; the instances
    come lazily."""
    spec = lookup(job.id)
    taken = {*spec.axes, *(("chi", "parity") if spec.char_mode else ())}
    for key in job.params:
        if key not in taken:
            raise ConfigError(f"job '{job.id}': '{key}' is not a parameter of {spec.id}")
    values = [job.axis(a) for a in spec.numeric_axes]
    verify = getattr(cg, spec.verifier)
    heads = [([], ())] if spec.char_mode is None else [  # ([chi's one-value axis], skip values)
        ([(chi,)], (_string_text(chi.label()), chi.p, chi.m)) for chi in _select_characters(spec, job)
    ]

    def instances() -> Iterator[tuple[CongruenceSpec, Callable, tuple, tuple]]:
        for chi_axes, head in heads:
            for args in product(*chi_axes, *values):
                yield spec, verify, args, head
    return instances()


def run_instance(spec: CongruenceSpec, verify: Callable, args: tuple, head: tuple,
                 cache: BernoulliCache) -> CongruenceVerdict | str:
    """The verdict at one instance, or its skip's JSONL line."""
    try:
        if spec.region is not None:
            predicate, value, reason = spec.region
            if getattr(cg, predicate)(args[0], args[spec.region_k]) != value:
                raise DomainError(reason)
        verdict = verify(*args, cache) if spec.takes_cache else verify(*args)
    except DomainError as exc:
        return spec.skip_line(head, args, str(exc))
    if spec.region is not None and verdict.id != spec.id:
        verdict = verdict._replace(id=spec.id)
    return verdict


def _run(config: SweepConfig, cache: BernoulliCache) -> SweepReport:
    instances = chain(*[expand_job(job) for job in config.jobs])
    report = SweepReport(config=config.echo())
    t0 = time.perf_counter()
    for spec, verify, args, head in instances:
        report.add(spec.id, run_instance(spec, verify, args, head, cache))
    report.duration = time.perf_counter() - t0
    return report


def run_sweep(config: SweepConfig, cache: BernoulliCache) -> SweepReport:
    """Run a config on ``cache`` and handle the files it names, no two of
    them one file (else ConfigError): load ``cache_path`` into the memo,
    check and run the jobs and append the new values; if a verdict fails
    on loaded values, run again on a fresh memo, warn once per changed
    verdict and append the fresh values that differ.  Then write the
    reports, once."""
    paths = {"csv": config.csv_path, "records": config.records_path, "cache": config.cache_path}
    paths = {key: path for key, path in paths.items() if path}
    if len({os.path.realpath(path) for path in paths.values()}) < len(paths):
        raise ConfigError(f"two of the csv, records and cache paths name one file: {paths}")
    cache_path = config.cache_path
    loaded = valuecache.load_into(cache_path, cache) if cache_path else 0
    if not config.jobs:
        raise ConfigError("no jobs configured")
    report = _run(config, cache)
    if cache_path:
        valuecache.append_new(cache_path, cache.take_new())
    if loaded and not report.all_hold:
        fresh = BernoulliCache()
        fresh_report = _run(config, fresh)
        for old, new in zip(report.verdicts, fresh_report.verdicts):
            if (old.holds, old.observed_margin) != (new.holds, new.observed_margin):
                print(f"warning: cached values changed {old.id} {old.params}: "
                      f"holds={old.holds} margin={old.observed_margin} from the cache, "
                      f"holds={new.holds} margin={new.observed_margin} recomputed",
                      file=sys.stderr)
        valuecache.append_new(cache_path, {key: value for key, value in fresh.take_new().items()
                                           if cache.stored_twisted(key) != value})
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
_CSV_COLUMN_SET = frozenset(CSV_PARAM_COLUMNS)


def _margin_str(margin) -> str:
    return "inf" if margin == math.inf else str(margin)


def _element_text(x) -> str:
    # json_text(x.record()); record()'s coefficient texts need no escapes.
    record = x.record()
    coeffs = '", "'.join(record["coeffs"])
    return f'{{"coeffs": ["{coeffs}"], "order": {record["order"]}}}'


def _csv_row(v: CongruenceVerdict) -> list[str]:
    params = v.params
    extra = {k: v_ for k, v_ in params.items() if k not in _CSV_COLUMN_SET}
    return [
        v.id,
        v.branch or "",
        *[str(params.get(col, "")) for col in CSV_PARAM_COLUMNS],
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


_TEXT_MEMO_SIZE = 256  # the most element texts _record_lines keeps for reuse


def _record_lines(report: SweepReport) -> Iterator[str]:
    header = {
        "type": "header",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "config": report.config,
    }
    yield json_text(header) + "\n"
    # Verdict lines are written from fixed keys, in the order json_text
    # sorts them, each value as json_text writes it; a skip is already its
    # line, from its spec's template.  Memoised
    # values repeat across nearby verdicts, so up to _TEXT_MEMO_SIZE element
    # texts are kept, by id(): the report holds each element, so ids are unique.
    texts: dict[int, str] = {}
    for v in report.verdicts:
        if len(texts) >= _TEXT_MEMO_SIZE:
            texts.clear()
        branch = "null" if v.branch is None else _string_text(v.branch)
        lhs = texts.get(id(v.lhs)) or texts.setdefault(id(v.lhs), _element_text(v.lhs))
        rhs = texts.get(id(v.rhs)) or texts.setdefault(id(v.rhs), _element_text(v.rhs))
        yield (f'{{"branch": {branch}, "holds": {"true" if v.holds else "false"}, '
               f'"id": {_string_text(v.id)}, "lhs": {lhs}, '
               f'"observed_margin": "{_margin_str(v.observed_margin)}", '
               f'"params": {json_text(v.params)}, '
               f'"required_exponent": {v.required_modulus_exponent}, '
               f'"rhs": {rhs}, "type": "verdict"}}\n')
    yield from report.skips
    summary = dict(report.summary)
    summary["per_id"] = {
        id_: {**row, "min_margin": _margin_str(row["min_margin"])}
        for id_, row in report.summary["per_id"].items()
    }
    yield json_text({"type": "summary", **summary}) + "\n"


def write_records(report: SweepReport, fh) -> None:
    """Line-delimited records, to an open text stream; the timestamp
    appears only in the header."""
    fh.writelines(_record_lines(report))


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
