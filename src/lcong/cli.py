"""Command-line front end.

Commands:
    lcong verify <id> [param flags]      one congruence over small flag-given grids
    lcong sweep --config FILE            parameter-grid sweep from a JSON config
    lcong table <kind> [flags]           exact value tables
    lcong cache <stat|clear|verify>      persistent value-cache maintenance

Exit codes: 0 all verdicts hold, 1 at least one fails, 2 configuration or
usage error, 3 internal, cache or file error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .bernoulli import (
    BernoulliCache,
    DomainError,
    bernoulli_number,
    euler_number,
    generalized_bernoulli,
    l_value,
    script_l,
)
from .characters import character, enumerate_primitive
from .sweep import (
    REGISTRY,
    ConfigError,
    SweepConfig,
    SweepJob,
    lookup,
    parse_values,  # re-exported: part of the CLI module's public names
    registered_ids,
    run_sweep,
    table_text,
)
from . import valuecache

EXIT_OK = 0
EXIT_FAILURES = 1
EXIT_CONFIG = 2
EXIT_INTERNAL = 3

#: Every registered axis and character axis, in first-seen order.
PARAM_FLAGS = tuple(dict.fromkeys(
    name for spec in REGISTRY.values() for name in (*spec.axes, *spec.char_axes)))


def _job_from_mapping(mapping: dict) -> SweepJob:
    if "id" not in mapping:
        raise ConfigError("every job needs an 'id'")
    params = {key: value for key, value in mapping.items() if key != "id"}
    return SweepJob(id=str(mapping["id"]), params=params)


def load_config(path: str | Path) -> SweepConfig:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    jobs = raw.get("jobs")
    if not isinstance(jobs, list) or not jobs:
        raise ConfigError("config must contain a non-empty 'jobs' list")
    if not all(isinstance(j, dict) for j in jobs):
        raise ConfigError("every job must be a JSON object")
    for key in ("csv", "records", "cache"):
        if raw.get(key) is not None and not isinstance(raw[key], str):
            raise ConfigError(f"'{key}' must be a path string, not {raw[key]!r}")
    return SweepConfig(
        jobs=tuple(_job_from_mapping(j) for j in jobs),
        csv_path=raw.get("csv"),
        records_path=raw.get("records"),
        cache_path=raw.get("cache"),
    )


def _report_and_exit(config: SweepConfig, args) -> int:
    # A given --csv, --records or --cache overrides the config's path.
    config = dataclasses.replace(config, **{
        f"{flag}_path": getattr(args, flag) for flag in ("csv", "records", "cache")
        if getattr(args, flag) is not None})
    # Each command starts from the persistent file, not from whatever the
    # process happens to have memoized: the file is the reuse layer.
    report = run_sweep(config, cache=BernoulliCache())
    if report.skips and not report.verdicts:
        first = report.skips[0]
        raise ConfigError(f"every instance was skipped, first {first.id}: {first.reason}")
    print(table_text(report))
    return EXIT_OK if report.all_hold else EXIT_FAILURES


def cmd_verify(args) -> int:
    spec = lookup(args.id)
    params = {
        flag: getattr(args, flag)
        for flag in (*PARAM_FLAGS, "chi", "parity")
        if getattr(args, flag) is not None
    }
    return _report_and_exit(SweepConfig(jobs=(SweepJob(id=spec.id, params=params),)), args)


def cmd_sweep(args) -> int:
    return _report_and_exit(load_config(args.config), args)


def cmd_table(args) -> int:
    kind = args.kind
    if args.max_k < 0:
        raise ConfigError("--max-k must be >= 0")
    if kind in ("bernoulli", "euler"):
        fn = bernoulli_number if kind == "bernoulli" else euler_number
        rows = [(k, str(fn(k))) for k in range(args.max_k + 1)]
    else:
        if args.p is None or args.m is None:
            raise ConfigError(f"table '{kind}' needs --p and --m (and usually --chi)")
        if args.chi is not None:
            try:
                images = tuple(int(e) for e in args.chi.split(","))
            except ValueError:
                raise ConfigError(f"table '{kind}': --chi must be 'e1,e2'") from None
            chi = character(args.p, args.m, images)
            if args.parity not in (None, chi.parity()):
                raise ConfigError(f"table '{kind}': character {chi.label()} is {chi.parity()}, "
                                  f"not {args.parity}")
            chis = [chi]
        else:
            chis = enumerate_primitive(args.p, args.m)
            if args.parity:
                chis = [c for c in chis if c.parity() == args.parity]
            if not chis:
                which = f"primitive {args.parity}" if args.parity else "primitive"
                raise ConfigError(f"table '{kind}': no {which} character mod {args.p}^{args.m}")
        fn = {"generalized-bernoulli": generalized_bernoulli, "l-values": l_value,
              "script-l": script_l}[kind]
        rows = []
        for chi in chis:
            for k in range(args.max_k + 1):
                try:
                    value = str(fn(k, chi))
                except DomainError as exc:
                    value = f"undefined ({exc})"
                rows.append((f"chi={chi.label()} k={k}", value))
    width = max(len(str(label)) for label, _ in rows)
    for label, value in rows:
        print(f"{str(label).ljust(width)}  {value}")
    return EXIT_OK


def cmd_cache(args) -> int:
    path = Path(args.path) if args.path else valuecache.default_cache_path()
    if args.action == "stat":
        print(f"{valuecache.entry_count(path)} entries in {path}")
    elif args.action == "clear":
        valuecache.clear(path)
        print(f"cleared {path}")
    elif args.action == "verify":
        if args.limit is not None and args.limit < 1:
            raise ConfigError("--limit must be >= 1")
        mismatches = valuecache.verify(path, limit=args.limit)
        print(f"{len(mismatches)} mismatches in {path}")
        for key in mismatches:
            print(f"  MISMATCH {key}")
        if mismatches:
            return EXIT_INTERNAL
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lcong",
        description="Exact verification of Bernoulli/Euler/L-value congruences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run one congruence id over flag-given parameters")
    p_verify.add_argument("id", help=f"congruence id ({', '.join(registered_ids())})")
    for flag in PARAM_FLAGS:
        p_verify.add_argument(f"--{flag.replace('_', '-')}", dest=flag,
                              help="int, comma list, or lo..hi[:step]")
    p_verify.add_argument("--chi", help="character image exponents, e.g. '0,1'")
    p_verify.add_argument("--parity", choices=("even", "odd"))
    p_verify.add_argument("--csv", help="write a CSV report to this path")
    p_verify.add_argument("--records", help="write a JSONL record report to this path")
    p_verify.add_argument("--cache", help="value-cache file to load/extend")
    p_verify.set_defaults(fn=cmd_verify)

    p_sweep = sub.add_parser("sweep", help="run a sweep from a JSON config")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--csv")
    p_sweep.add_argument("--records")
    p_sweep.add_argument("--cache")
    p_sweep.set_defaults(fn=cmd_sweep)

    p_table = sub.add_parser("table", help="print exact value tables")
    p_table.add_argument(
        "kind",
        choices=("bernoulli", "euler", "generalized-bernoulli", "l-values", "script-l"),
    )
    p_table.add_argument("--max-k", type=int, default=10)
    p_table.add_argument("--p", type=int)
    p_table.add_argument("--m", type=int)
    p_table.add_argument("--chi")
    p_table.add_argument("--parity", choices=("even", "odd"))
    p_table.set_defaults(fn=cmd_table)

    p_cache = sub.add_parser("cache", help="inspect or maintain the value cache")
    p_cache.add_argument("action", choices=("stat", "clear", "verify"))
    p_cache.add_argument("--path")
    p_cache.add_argument("--limit", type=int, help="verify at most this many entries")
    p_cache.set_defaults(fn=cmd_cache)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, which matches our convention
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except valuecache.CacheError as exc:
        print(f"cache error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ValueError as exc:  # ResourceLimitError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:  # a report or cache path that cannot be read or written
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
