"""Benchmark of `lcong sweep`, run from outside as a user runs it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload, one table
    python3 perfbench/run.py --record-references # rewrite references.json

Run it from the root of a checkout; it builds nothing and uses `src/`.

It is a closed loop: one sweep process at a time, each a fresh interpreter
in a directory of its own, spawned and waited for by this single-threaded
harness.  Module memos inside `lcong` (the witness `lru_cache`, the zeta
powers, the default value cache) therefore start cold in every sweep, as
they do for a CLI user.  Set-up is done before the clock starts and is
repeated at least `SETUP_REPEATS` times and for `SETUP_MIN_S`, probes
included: an interpreter that imports `lcong` and loads the config, plus,
for a warm-cache workload, the sweeps that build its cache file with the
program under test.  Each timed sweep of a warm workload gets a fresh
copy of that file; a cold one starts from an empty cache path.

Untraced (`--trace 0`), sweeps are repeated until `--seconds` is used up
(at least `MIN_SAMPLES`), and the end-to-end metrics are:

    wall_s        median wall time of one sweep process, spawn to exit,
                  at the reference host speed
    peak_rss_mib  median peak resident set of the sweep process
    setup_s       median set-up time, at the reference host speed

The speed of a shared host flips between a fast and a slow state, about
1.4x apart, within seconds, and the share of slow time drifts over
minutes; that drift swamps the median of a run.  So `probe.py`, a fixed
pure-Python workload that does not import lcong, is spawned before every
set-up repeat and every timed sweep, and each median is multiplied by
`REFERENCE_PROBE_S / mean(probe times beside it)`.  The probes' mean, not
their median, gauges the average speed over the stretch: the median of a
two-state sample jumps between the states.  A change to lcong moves the
scaled times in full; a host that runs everything slower moves them
little.  The unscaled medians and every probe time are in the JSON line
printed before the result.

Traced (`--trace 1`), untraced and traced sweeps alternate; the traced ones
run `tracer.py`, and the per-layer metrics are the medians of theirs.

Every sweep must pass the correctness gate: exit code 0, every verdict
holding, the verdict and skip counts in `references.json`, and reports
identical to the first sweep of the run.  For seed 0 the SHA-256 of the
CSV and of the JSONL body (the records after the timestamped header) must
also match `references.json`; under another seed, the lines of the jobs
the seed does not redraw must match the seed-0 lines.  On a mismatch the
first differing line is printed.  The result is the last line of standard output, a JSON object
with `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
REFERENCES = HERE / "references.json"

MIN_SAMPLES = 3
MIN_TRACED = 1
SETUP_REPEATS = 3
SETUP_MIN_S = 2.0
SWEEP_TIMEOUT_S = 60
#: Seconds `probe.py` takes, spawn to exit, on the host that defines the
#: scale of the reported times (2 vCPUs, Python 3.11).
REFERENCE_PROBE_S = 0.5
ROW_HASH_HEX = 8

END_TO_END_UNITS = {"wall_s": "s", "peak_rss_mib": "MiB", "setup_s": "s"}
PER_LAYER_UNITS = {
    **tracer.PER_LAYER_UNITS,
    "trace.overhead_ratio": "ratio",
    "host.probe_s": "s",
}


class BenchError(RuntimeError):
    """The checkout or the program cannot be benchmarked at all."""


@dataclass
class Sweep:
    wall_s: float
    peak_rss_mib: float
    returncode: int
    dir: Path


@dataclass
class Reports:
    """What the gate compares: verdict and skip counts, and row hashes."""

    verdicts: int
    skips: int
    csv_sha256: str
    records_body_sha256: str
    csv_rows: str
    records_body_rows: str
    problems: list[str] = field(default_factory=list)


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(argv: list[str], cwd: Path) -> Sweep:
    """Run one process in `cwd`, timed from spawn to exit."""
    with open(cwd / "stdout.txt", "wb") as out, open(cwd / "stderr.txt", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=_env(), stdout=out, stderr=err)
        watchdog = threading.Timer(SWEEP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sweep(wall, usage.ru_maxrss / 1024, proc.returncode, cwd)


def _tail(path: Path, lines: int = 5) -> str:
    text = path.read_text(encoding="utf-8", errors="replace").strip().splitlines()
    return " | ".join(text[-lines:])


def host_probe(run_dir: Path) -> float:
    """Seconds for one `probe.py` process, spawn to exit: a gauge of host speed."""
    probe_dir = run_dir / "probe"
    probe_dir.mkdir(exist_ok=True)
    return _checked(spawn([sys.executable, str(HERE / "probe.py")], probe_dir), "host probe")


# ---------------------------------------------------------------------
# Set-up


@dataclass
class Prepared:
    config: Path
    cache: str | None
    pristine_cache: Path | None
    setup_s: list[float]
    setup_probes: list[float]


def _lcong(*args: str) -> list[str]:
    return [sys.executable, "-m", "lcong.cli", *args]


def _checked(sweep: Sweep, what: str) -> float:
    if sweep.returncode != 0:
        raise BenchError(f"{what} exited {sweep.returncode}: {_tail(sweep.dir / 'stderr.txt')}")
    return sweep.wall_s


def prepare(name: str, seed: int, run_dir: Path, repeats: int = SETUP_REPEATS,
            min_s: float = SETUP_MIN_S) -> Prepared:
    workload = workloads.WORKLOADS[name]
    config = run_dir / "sweep.json"
    config.write_text(json.dumps(workloads.sweep_config(name, seed), indent=1))
    history = workloads.history_config(name)
    if history:
        (run_dir / "history.json").write_text(json.dumps(history, indent=1))
    load = ("import sys, lcong.cli; lcong.cli.load_config(sys.argv[1])", str(config))
    setup_dir = run_dir / "setup"
    setup_dir.mkdir()
    warm = workload["cache"] == "warm"
    cache_file = run_dir / "warm-cache.jsonl"
    times: list[float] = []
    probes: list[float] = []
    while len(times) < repeats or sum(times) + sum(probes) < min_s:
        probes.append(host_probe(run_dir))
        cache_file.unlink(missing_ok=True)
        t = _checked(spawn([sys.executable, "-c", *load], setup_dir), "import and config load")
        if warm:
            if history:
                t += _checked(spawn(_lcong("sweep", "--config", str(run_dir / "history.json"),
                                           "--cache", str(cache_file)), setup_dir),
                              "history sweep")
            t += _checked(spawn(_lcong("sweep", "--config", str(config),
                                       "--cache", str(cache_file)), setup_dir),
                          "cold sweep building the cache")
        times.append(t)
    return Prepared(config, workload["cache"], cache_file if warm else None, times, probes)


def run_sweep(prepared: Prepared, run_dir: Path, traced: bool) -> Sweep:
    sweep_dir = Path(tempfile.mkdtemp(dir=run_dir, prefix="sweep-"))
    argv = [sys.executable, str(HERE / "tracer.py"), "trace.json"] if traced else _lcong()
    argv += ["sweep", "--config", str(prepared.config), "--csv", "out.csv",
             "--records", "out.jsonl"]
    if prepared.cache:
        if prepared.pristine_cache:
            shutil.copyfile(prepared.pristine_cache, sweep_dir / "cache.jsonl")
        argv += ["--cache", "cache.jsonl"]
    return spawn(argv, sweep_dir)


# ---------------------------------------------------------------------
# Correctness gate


def _row_hashes(lines: list[bytes]) -> str:
    return "".join(hashlib.sha256(line).hexdigest()[:ROW_HASH_HEX] for line in lines)


def read_reports(sweep: Sweep) -> Reports:
    """Counts and digests of a sweep's CSV and JSONL body.

    The stdout table (it holds the duration) and the cache file (its
    format may change) are never compared.
    """
    csv_bytes = (sweep.dir / "out.csv").read_bytes()
    records = (sweep.dir / "out.jsonl").read_bytes().split(b"\n")
    body = records[1:]
    rows = list(csv.reader(csv_bytes.decode("utf-8").splitlines()))
    holds = rows[0].index("holds")
    summary = json.loads(body[-2])
    out = Reports(
        verdicts=len(rows) - 1,
        skips=summary["skips"],
        csv_sha256=hashlib.sha256(csv_bytes).hexdigest(),
        records_body_sha256=hashlib.sha256(b"\n".join(body)).hexdigest(),
        csv_rows=_row_hashes(csv_bytes.split(b"\n")[:-1]),
        records_body_rows=_row_hashes(body[:-1]),
    )
    failing = sum(1 for row in rows[1:] if row[holds] != "true")
    if failing or summary["fails"] or summary["total"] != out.verdicts:
        out.problems.append(
            f"{failing} failing CSV rows; summary total={summary['total']} fails={summary['fails']}"
        )
    return out


def _first_difference(kind: str, path: Path, skip: int, got: str, want: str,
                      spans: list[tuple[int, int]]) -> str | None:
    """The first line in `spans` whose hash differs, shown from `path`."""
    step = ROW_HASH_HEX
    for lo, hi in spans:
        for row in range(lo, hi):
            if got[row * step:(row + 1) * step] != want[row * step:(row + 1) * step]:
                lines = path.read_text(encoding="utf-8").split("\n")[skip:]
                text = lines[row] if row < len(lines) else "<missing>"
                return f"{kind} first differs at line {row + 1}: {text[:300]}"
    return None


def gate(sweep: Sweep, expected: dict, reference: Reports, first: Reports | None,
         seeded: bool) -> tuple[list[str], Reports | None]:
    """Problems found in one sweep's outputs (none when it passes), and
    the outputs' counts and digests.

    `reference` holds the seed-0 reports.  Under another seed only the
    lines of the jobs the seed leaves alone must match them, and the whole
    reports must match those of the run's `first` sweep.
    """
    if sweep.returncode != 0:
        return [f"exit code {sweep.returncode}: {_tail(sweep.dir / 'stderr.txt')}"], None
    try:
        got = read_reports(sweep)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"unreadable reports: {exc!r}"], None
    problems = list(got.problems)
    verdicts, skips = expected["verdicts"], expected["skips"]
    if (got.verdicts, got.skips) != (verdicts, skips):
        problems.append(
            f"{got.verdicts} verdicts and {got.skips} skips, expected {verdicts} and {skips}"
        )
    if seeded:
        fixed_verdicts, fixed_skips = expected["fixed_verdicts"], expected["fixed_skips"]
        csv_spans = [(0, 1 + fixed_verdicts)]
        body_spans = [(0, fixed_verdicts), (verdicts, verdicts + fixed_skips)]
    else:
        csv_spans = [(0, 1 + verdicts)]
        body_spans = [(0, verdicts + skips + 1)]
    for kind, path, skip, got_rows, want_rows, spans, digests in (
        ("CSV", sweep.dir / "out.csv", 0, got.csv_rows, reference.csv_rows, csv_spans,
         (got.csv_sha256, reference.csv_sha256)),
        ("JSONL body", sweep.dir / "out.jsonl", 1, got.records_body_rows,
         reference.records_body_rows, body_spans,
         (got.records_body_sha256, reference.records_body_sha256)),
    ):
        difference = _first_difference(kind, path, skip, got_rows, want_rows, spans)
        if difference is None and not seeded and digests[0] != digests[1]:
            difference = f"{kind} SHA-256 differs from the reference"
        if difference:
            problems.append(difference)
    if first is not None and (got.csv_sha256, got.records_body_sha256) != (
        first.csv_sha256, first.records_body_sha256
    ):
        problems.append("reports differ from the first sweep of this run")
    return problems, got


# ---------------------------------------------------------------------
# Measurement


def speed(probes: list[float]) -> float:
    """How many times faster than the reference the host ran, by the probe."""
    return REFERENCE_PROBE_S / statistics.mean(probes)


@dataclass
class Result:
    name: str
    seed: int
    attempted: int = 0
    failed: int = 0
    walls: list[float] = field(default_factory=list)
    rss: list[float] = field(default_factory=list)
    traced_walls: list[float] = field(default_factory=list)
    layers: list[dict] = field(default_factory=list)
    probes: list[float] = field(default_factory=list)
    setup_s: list[float] = field(default_factory=list)
    setup_probes: list[float] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    def end_to_end(self) -> dict[str, float]:
        return {
            "wall_s": statistics.median(self.walls) * speed(self.probes),
            "peak_rss_mib": statistics.median(self.rss),
            "setup_s": statistics.median(self.setup_s) * speed(self.setup_probes),
        }

    def per_layer(self) -> dict[str, float]:
        out = {name: statistics.median(m[name] for m in self.layers)
               for name in tracer.PER_LAYER_UNITS}
        out["trace.overhead_ratio"] = (
            statistics.median(self.traced_walls) / statistics.median(self.walls))
        out["host.probe_s"] = statistics.median(self.probes)
        return out

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted


def measure(name: str, seed: int, seconds: float, trace: bool) -> Result:
    references = json.loads(REFERENCES.read_text(encoding="utf-8"))[name]
    reference = Reports(**references["seed0"])
    result = Result(name, seed)
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK, prefix=f"{name}-") as tmp:
        run_dir = Path(tmp)
        prepared = prepare(name, seed, run_dir)
        result.setup_s = prepared.setup_s
        result.setup_probes = prepared.setup_probes
        first: Reports | None = None
        start = time.perf_counter()
        while True:
            round_t0 = time.perf_counter()
            result.probes.append(host_probe(run_dir))
            for traced in (False, True) if trace else (False,):
                sweep = run_sweep(prepared, run_dir, traced)
                problems, got = gate(sweep, references, reference, first, seed != 0)
                if first is None and not problems:
                    first = got
                result.attempted += 1
                if problems:
                    result.failed += 1
                    result.problems.extend(f"{'traced ' if traced else ''}sweep: {p}" for p in problems)
                if traced:
                    result.traced_walls.append(sweep.wall_s)
                    if sweep.returncode == 0:
                        trace_data = json.loads((sweep.dir / "trace.json").read_text())
                        result.layers.append(tracer.layer_metrics(trace_data))
                else:
                    result.walls.append(sweep.wall_s)
                    result.rss.append(sweep.peak_rss_mib)
                shutil.rmtree(sweep.dir)
            done = len(result.traced_walls) if trace else len(result.walls)
            elapsed = time.perf_counter() - start
            if done >= (MIN_TRACED if trace else MIN_SAMPLES) and (
                elapsed + (time.perf_counter() - round_t0) > seconds
            ):
                break
    return result


def provenance() -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            sha = None
    src = hashlib.sha256()
    for path in sorted((SRC / "lcong").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def report(result: Result, seconds: float, trace: bool) -> dict:
    print(f"{result.name} seed={result.seed}: {result.attempted} sweeps, {result.failed} failed")
    for problem in result.problems[:10]:
        print(f"  FAILED {problem}")
    e2e = result.end_to_end()
    for name, value, unit in (
        *((k, v, END_TO_END_UNITS[k]) for k, v in e2e.items()),
        ("failed_ratio", result.failed_ratio, "fraction"),
        ("unscaled wall", statistics.median(result.walls), "s (diagnostic)"),
        ("unscaled setup", statistics.median(result.setup_s), "s (diagnostic)"),
        ("host.probe_s", statistics.median(result.probes), "s (diagnostic)"),
    ):
        print(f"  {name:<14} {value:>12.4f} {unit}")
    print(json.dumps({
        "provenance": provenance(),
        "workload": result.name, "seed": result.seed, "seconds": seconds, "trace": int(trace),
        "failed_ratio": result.failed_ratio,
        "reference_probe_s": REFERENCE_PROBE_S,
        "host.probe_s": result.probes, "setup_probe_s": result.setup_probes,
        "unscaled_wall_s": result.walls, "peak_rss_mib": result.rss,
        "unscaled_setup_s": result.setup_s,
    }))
    if trace:
        if not result.layers:
            return {}
        return {k: _metric(v, PER_LAYER_UNITS[k]) for k, v in result.per_layer().items()}
    return {k: _metric(v, END_TO_END_UNITS[k]) for k, v in e2e.items()}


def record_references() -> None:
    """Write the seed-0 counts and digests of every workload."""
    out = {}
    WORK.mkdir(exist_ok=True)
    for name in workloads.WORKLOADS:
        with tempfile.TemporaryDirectory(dir=WORK, prefix=f"{name}-") as tmp:
            prepared = prepare(name, 0, Path(tmp), repeats=1, min_s=0)
            sweep = run_sweep(prepared, Path(tmp), traced=False)
            _checked(sweep, f"{name} sweep")
            got = read_reports(sweep)
            if got.problems:
                raise BenchError(f"{name}: {got.problems}")
            fixed = workloads.fixed_config(name)
            if len(fixed["jobs"]) < len(workloads.WORKLOADS[name]["jobs"]):
                prepared.config.write_text(json.dumps(fixed))
                fixed_sweep = run_sweep(prepared, Path(tmp), traced=False)
                _checked(fixed_sweep, f"{name} sweep of the unsampled jobs")
                fixed_reports = read_reports(fixed_sweep)
            else:
                fixed_reports = got
            out[name] = {"verdicts": got.verdicts, "skips": got.skips,
                         "fixed_verdicts": fixed_reports.verdicts,
                         "fixed_skips": fixed_reports.skips,
                         "seed0": {k: v for k, v in vars(got).items() if k != "problems"}}
            print(f"{name}: {got.verdicts} verdicts, {got.skips} skips, {sweep.wall_s:.2f} s")
    REFERENCES.write_text(json.dumps(out, indent=1) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-references", action="store_true")
    args = parser.parse_args(argv)
    # On SIGTERM, unwind like an error: `spawn` kills and waits for its
    # child, and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "lcong" / "cli.py").is_file():
        print(f"no lcong sources under {SRC}: run from the root of a checkout", file=sys.stderr)
        return 2
    try:
        if args.record_references:
            record_references()
            return 0
        names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
        results = [measure(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1

    metrics = {}
    for result in results:
        got = report(result, args.seconds, bool(args.trace))
        prefix = f"{result.name}." if args.workload == "all" else ""
        metrics.update({prefix + k: v for k, v in got.items()})
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    print(json.dumps({"correct": failed == 0 and bool(metrics), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
