"""Traced run of the `lcong` CLI, instrumented from outside the program.

    PYTHONPATH=src python3 perfbench/tracer.py TRACE.json sweep --config FILE ...

installs wrappers around the public functions of every layer of `lcong`,
calls `lcong.cli.main` with the remaining arguments, writes the trace to
TRACE.json and exits with the CLI's exit code.

Every wrapped call is a span on a per-thread stack.  A span's self time is
its duration minus the durations of the spans it called, so on each thread
the self times add up to the thread's outermost spans; on the main thread
that is `cli.main`.  Hot element-level spans are only aggregated per name
(calls, self time, total time); the coarse ones (CLI, sweep phases, value
cache, character enumeration) are also kept as records of name, start, end,
parent and attributes.  Everything stays in memory until the CLI returns.

Names are patched where the program looks them up: `congruences`, `cli`
and `sweep` import several functions by name, `__rmul__`/`__radd__` are
aliases bound when `CyclotomicElement` is created, and `sweep` keeps the
character enumerators in `_CHAR_FAMILIES`.  A name the program no longer
has is skipped, and its metrics read 0.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time

perf = time.perf_counter

#: The verifiers the benchmark workloads run, by function name.
VERIFIERS = (
    "verify_lvalue_shift_odd",
    "verify_lvalue_shift_two",
    "verify_lvalue_shift_two_iff",
    "verify_twisted_voronoi",
    "verify_sum_lift",
    "verify_sum_twist",
    "verify_character_orders",
    "verify_sum_vanishing",
    "verify_sum_vanishing_two",
)


class _ThreadState:
    __slots__ = ("main", "frames", "agg", "counts", "open_records")

    def __init__(self, main: bool):
        self.main = main
        self.frames: list[list] = []  # [name, time spent in child spans]
        self.agg: dict[str, list] = {}  # name -> [calls, self_s, total_s]
        self.counts: dict[str, float] = {}
        self.open_records: list[int] = []


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._main_ident = threading.get_ident()
        self.threads: list[_ThreadState] = []
        #: recorded spans: [name, start, end, parent index, thread index, attrs]
        self.records: list[list] = []
        self.extra: dict = {}

    def state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            st = _ThreadState(threading.get_ident() == self._main_ident)
            with self._lock:
                self.threads.append(st)
            self._local.state = st
            return st

    def count(self, name: str, n: float = 1) -> None:
        counts = self.state().counts
        counts[name] = counts.get(name, 0) + n

    def wrap(self, name: str, fn, record: bool = False, attrs=None):
        """`fn` wrapped in a span called `name`.

        A call made while a span of the same name is innermost on the stack
        belongs to that span (an operator calling its own alias).  With
        `record`, the span is also kept as a record; `attrs(args, result)`
        may then return attributes for it.
        """
        state = self.state
        if record:
            return self._wrap_recorded(name, fn, attrs)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = state()
            frames = st.frames
            if frames and frames[-1][0] == name:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            frames.append(frame)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf() - t0
                frames.pop()
                if frames:
                    frames[-1][1] += dur
                agg = st.agg.get(name)
                if agg is None:
                    agg = st.agg[name] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += dur - frame[1]
                agg[2] += dur

        return traced

    def _wrap_recorded(self, name: str, fn, attrs):
        state = self.state
        traced = self.wrap(name, fn)

        @functools.wraps(fn)
        def recorded(*args, **kwargs):
            st = state()
            if st.frames and st.frames[-1][0] == name:
                return fn(*args, **kwargs)
            parent = st.open_records[-1] if st.open_records else self._main_parent()
            with self._lock:
                index = len(self.records)
                record = [name, 0.0, 0.0, parent, self.threads.index(st), {}]
                self.records.append(record)
            st.open_records.append(index)
            cpu0 = time.process_time()
            t0 = perf()
            result = None
            try:
                result = traced(*args, **kwargs)
                return result
            finally:
                record[1], record[2] = t0, perf()
                st.open_records.pop()
                record[5]["cpu_s"] = time.process_time() - cpu0
                if attrs is not None:
                    record[5].update(attrs(args, result))

        return recorded

    def _main_parent(self):
        # A span opened on a pool thread was caused by the innermost open
        # recorded span of the main thread (the sweep that submitted it).
        for st in self.threads:
            if st.main and st.open_records:
                return st.open_records[-1]
        return None

    def dump(self) -> dict:
        return {
            "threads": [
                {"main": st.main, "agg": st.agg, "counts": st.counts} for st in self.threads
            ],
            "spans": self.records,
            "extra": self.extra,
        }


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def install(tracer: Tracer):
    """Wrap every layer of `lcong`; returns the wrapped `cli.main`."""
    from lcong import bernoulli, characters, cli, congruences, cyclotomic, power_sums, sweep, valuecache

    wrappers: dict[int, object] = {}

    def patch(name, attr, *owners, **kw):
        for owner in owners:
            original = getattr(owner, attr, None)
            if original is None:
                continue
            if id(original) not in wrappers:
                wrappers[id(original)] = tracer.wrap(name, original, **kw)
            setattr(owner, attr, wrappers[id(original)])

    element = cyclotomic.CyclotomicElement
    for attr, name in (
        ("__mul__", "cyclotomic.mul"), ("__rmul__", "cyclotomic.mul"),
        ("__add__", "cyclotomic.addsub"), ("__radd__", "cyclotomic.addsub"),
        ("__sub__", "cyclotomic.addsub"), ("__rsub__", "cyclotomic.addsub"),
        ("inverse", "cyclotomic.inverse"), ("__pow__", "cyclotomic.pow"),
    ):
        patch(name, attr, element)
    patch("cyclotomic.is_unit_at_p", "is_unit_at_p", cyclotomic, congruences)

    witness = getattr(congruences, "unit_branch_witness", None)
    patch("congruences.unit_branch_witness", "unit_branch_witness", congruences)
    for attr in VERIFIERS:
        patch(f"congruences.{attr}", attr, congruences)

    cache_cls = bernoulli.BernoulliCache
    twisted = tracer.wrap("bernoulli.twisted", cache_cls.twisted_bernoulli)

    @functools.wraps(cache_cls.twisted_bernoulli)
    def twisted_bernoulli(self, chi, k):
        store = getattr(self, "_twisted", None)
        if store is not None and (chi.key(), k) not in store:
            tracer.count("bernoulli.twisted.computed")
        return twisted(self, chi, k)

    cache_cls.twisted_bernoulli = twisted_bernoulli
    patch("bernoulli.power_moment", "power_moment", cache_cls)
    patch("bernoulli.sequences", "bernoulli", cache_cls)
    patch("bernoulli.sequences", "euler", cache_cls)
    patch("bernoulli.l_value", "l_value", bernoulli, congruences, cli)
    patch("bernoulli.script_l", "script_l", bernoulli, congruences, cli)

    patch("characters.build_unit_group", "build_unit_group", characters)
    patch("characters.enumerate", "enumerate_characters", characters, sweep)
    patch("characters.enumerate", "enumerate_primitive", characters, sweep, cli)
    families = getattr(sweep, "_CHAR_FAMILIES", {})
    for mode, enumerator in list(families.items()):
        families[mode] = tracer.wrap(
            "characters.enumerate", enumerator, record=True,
            attrs=lambda args, result: {"p": args[0], "m": args[1], "characters": len(result)},
        )

    patch("power_sums.power_sum", "power_sum", power_sums, congruences)
    patch("power_sums.floor_weighted_sum", "floor_weighted_sum", power_sums, congruences)

    expand = sweep.expand_job
    sweep.expand_job = tracer.wrap(
        "sweep.expand", lambda job: list(expand(job)), record=True,
        attrs=lambda args, result: {"id": args[0].id, "instances": len(result)},
    )
    patch("sweep.instance", "run_instance", sweep)
    patch("sweep.run", "run_sweep", cli, record=True, attrs=lambda args, report: {
        "run_wall_s": report.duration,
        "verdicts": len(report.verdicts),
        "skips": len(report.skips),
    })
    patch("sweep.report", "write_csv", sweep, record=True)
    patch("sweep.report", "write_records", sweep, record=True)
    patch("sweep.report", "table_text", cli, record=True)

    # The CLI loads and appends the same file, so the bytes it appends are
    # the file's size after the append minus the size that was loaded.
    patch("valuecache.load", "load_into", valuecache, record=True,
          attrs=lambda args, loaded: {"loaded": loaded, "bytes": _file_size(args[0])})
    patch("valuecache.append", "append_new", valuecache, record=True,
          attrs=lambda args, appended: {"appended": appended, "file_bytes": _file_size(args[0])})

    def main(argv):
        try:
            return cli.main(argv)
        finally:
            if witness is not None and hasattr(witness, "cache_info"):
                info = witness.cache_info()
                tracer.extra["witness_hits"] = info.hits
                tracer.extra["witness_misses"] = info.misses

    return tracer.wrap("cli.main", main, record=True)


# ---------------------------------------------------------------------
# Per-layer metrics from a trace

_CALLS_AND_SELF = (
    "cyclotomic.is_unit_at_p",
    "cyclotomic.mul",
    "cyclotomic.addsub",
    "cyclotomic.inverse",
    "cyclotomic.pow",
    "bernoulli.power_moment",
    "bernoulli.script_l",
    "bernoulli.l_value",
    "characters.enumerate",
    "characters.build_unit_group",
    "power_sums.power_sum",
    "power_sums.floor_weighted_sum",
    *(f"congruences.{v}" for v in VERIFIERS),
)

#: Every per-layer metric of a traced run, with its unit.
PER_LAYER_UNITS: dict[str, str] = {
    **{f"{n}.{m}": u for n in _CALLS_AND_SELF for m, u in (("calls", "count"), ("self_s", "s"))},
    "congruences.unit_branch_witness.calls": "count",
    "congruences.unit_branch_witness.hit_ratio": "fraction",
    "congruences.unit_branch_witness.self_s": "s",
    "bernoulli.twisted.calls": "count",
    "bernoulli.twisted.computed": "count",
    "bernoulli.twisted.hit_ratio": "fraction",
    "bernoulli.twisted.self_s": "s",
    "bernoulli.sequences.self_s": "s",
    "characters.enumerated": "count",
    "sweep.expand_s": "s",
    "sweep.run_wall_s": "s",
    "sweep.instance_busy_s": "s",
    "sweep.concurrency": "ratio",
    "sweep.report_s": "s",
    "sweep.instances": "count",
    "sweep.skips": "count",
    "sweep.cpu_s": "s",
    "valuecache.load_s": "s",
    "valuecache.loaded": "count",
    "valuecache.load_bytes": "bytes",
    "valuecache.append_s": "s",
    "valuecache.appended": "count",
    "valuecache.append_bytes": "bytes",
    "cli.main_s": "s",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer metrics (without `trace.overhead_ratio`) of one trace."""
    agg: dict[str, list] = {}
    counts: dict[str, float] = {}
    for thread in trace["threads"]:
        for name, (calls, self_s, total_s) in thread["agg"].items():
            row = agg.setdefault(name, [0, 0.0, 0.0])
            row[0] += calls
            row[1] += self_s
            row[2] += total_s
        for name, n in thread["counts"].items():
            counts[name] = counts.get(name, 0) + n

    def calls(name):
        return agg.get(name, (0, 0.0, 0.0))[0]

    def self_s(name):
        return agg.get(name, (0, 0.0, 0.0))[1]

    def total_s(name):
        return agg.get(name, (0, 0.0, 0.0))[2]

    def span_attr(name, key):
        return sum(s[5].get(key, 0) for s in trace["spans"] if s[0] == name)

    out: dict[str, float] = {}
    for name in _CALLS_AND_SELF:
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.self_s"] = self_s(name)
    witness = "congruences.unit_branch_witness"
    hits = trace["extra"].get("witness_hits", 0)
    out[f"{witness}.calls"] = calls(witness)
    out[f"{witness}.hit_ratio"] = _ratio(hits, hits + trace["extra"].get("witness_misses", 0))
    out[f"{witness}.self_s"] = self_s(witness)
    computed = counts.get("bernoulli.twisted.computed", 0)
    out["bernoulli.twisted.calls"] = calls("bernoulli.twisted")
    out["bernoulli.twisted.computed"] = computed
    out["bernoulli.twisted.hit_ratio"] = _ratio(calls("bernoulli.twisted") - computed,
                                                calls("bernoulli.twisted"))
    out["bernoulli.twisted.self_s"] = self_s("bernoulli.twisted")
    out["bernoulli.sequences.self_s"] = self_s("bernoulli.sequences")
    out["characters.enumerated"] = span_attr("characters.enumerate", "characters")
    run_wall = span_attr("sweep.run", "run_wall_s")
    out["sweep.expand_s"] = total_s("sweep.expand")
    out["sweep.run_wall_s"] = run_wall
    out["sweep.instance_busy_s"] = total_s("sweep.instance")
    out["sweep.concurrency"] = _ratio(total_s("sweep.instance"), run_wall)
    out["sweep.report_s"] = total_s("sweep.report")
    out["sweep.instances"] = calls("sweep.instance")
    out["sweep.skips"] = span_attr("sweep.run", "skips")
    out["sweep.cpu_s"] = span_attr("sweep.run", "cpu_s")
    out["valuecache.load_s"] = total_s("valuecache.load")
    out["valuecache.loaded"] = span_attr("valuecache.load", "loaded")
    out["valuecache.load_bytes"] = span_attr("valuecache.load", "bytes")
    out["valuecache.append_s"] = total_s("valuecache.append")
    out["valuecache.appended"] = span_attr("valuecache.append", "appended")
    out["valuecache.append_bytes"] = (
        span_attr("valuecache.append", "file_bytes") - span_attr("valuecache.load", "bytes")
        if calls("valuecache.append") else 0
    )
    out["cli.main_s"] = total_s("cli.main")
    return out


def main_thread_self_s(trace: dict) -> float:
    """Sum of the self times of every span on the main thread."""
    return sum(
        self_s
        for thread in trace["threads"] if thread["main"]
        for _, self_s, _ in thread["agg"].values()
    )


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    traced_main = install(tracer)
    try:
        return traced_main(cli_args)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
