import hashlib
import inspect
import io
import json
import math
import re
import tracemalloc
from pathlib import Path

import pytest

from lcong import DomainError, ParityError, UndefinedCaseError
from lcong.bernoulli import BernoulliCache
from lcong.characters import character
from lcong.cyclotomic import CyclotomicElement
from lcong.sweep import (
    ConfigError,
    SweepConfig,
    SweepJob,
    expand_job,
    lookup,
    registered_ids,
    run_sweep,
    table_text,
    write_csv,
    write_records,
)
from lcong import bernoulli, congruences, power_sums, sweep, valuecache
from lcong.cli import (
    EXIT_CONFIG, EXIT_FAILURES, EXIT_INTERNAL, EXIT_OK, build_parser, load_config, main,
)


def rendered(write, report) -> str:
    """What the report writer ``write`` writes of ``report`` to a stream."""
    buf = io.StringIO()
    write(report, buf)
    return buf.getvalue()


def stern_config(**kwargs):
    return SweepConfig(
        jobs=(SweepJob("1.3", {"k": [0, 2, 4], "n": [1, 2], "q": [1, 3]}),),
        **kwargs,
    )


class TestConfigValidation:
    def test_unknown_id(self):
        with pytest.raises(ConfigError, match="unknown congruence id"):
            run_sweep(SweepConfig(jobs=(SweepJob("9.9", {"k": [1]}),)))

    def test_empty_axis(self):
        with pytest.raises(ConfigError, match="missing or empty axis"):
            run_sweep(SweepConfig(jobs=(SweepJob("1.3", {"k": [], "n": [1], "q": [1]}),)))

    def test_missing_axis(self):
        with pytest.raises(ConfigError):
            run_sweep(SweepConfig(jobs=(SweepJob("1.3", {"k": [0]}),)))

    def test_no_jobs(self):
        with pytest.raises(ConfigError):
            run_sweep(SweepConfig(jobs=()))

    def test_bad_parity(self):
        with pytest.raises(ConfigError):
            run_sweep(SweepConfig(jobs=(
                SweepJob("1.4", {"m": [3], "k": [1], "n": [1], "q": [1], "parity": "left"}),
            )))

    def test_params_are_parsed_on_construction(self):
        job = SweepJob("1.4", {"m": 3, "k": "0..4:2", "n": [1, "2..3"], "q": (1,),
                               "chi": "0,1", "parity": None})
        assert job.params == {"m": [3], "k": [0, 2, 4], "n": [1, 2, 3], "q": [1],
                              "chi": [[0, 1]], "parity": None}
        assert SweepJob("1.4", {"chi": [[0, 1], [1, 1]]}).params == {"chi": [[0, 1], [1, 1]]}

    @pytest.mark.parametrize("params", [
        {"chi": ["0,1"]}, {"chi": "0..1"}, {"chi": [0, 1]}, {"chi": None}, {"chi": [[False, 1]]},
        {"k": None}, {"k": 2.0}, {"k": "1.5"}, {"k": "0..4:0"}, {"k": [[1]]},
        {"parity": "left"}, {"parity": True}, {"k": "5..1:-1"},
    ])
    def test_malformed_params_raise_on_construction(self, params):
        with pytest.raises(ConfigError, match="job '1.4'|parameter value"):
            SweepJob("1.4", params)

    @pytest.mark.parametrize("bad", [
        {"id": "1.4", "p": [2], "m": [3], "k": [1], "n": [1], "q": [1]},
        {"id": "1.4", "m": [3], "k": [1], "n": [1], "q": [1], "chi": "1,0"},
    ], ids=["foreign-key", "chi-selects-nothing"])
    def test_every_job_is_checked_before_any_instance_runs(self, tmp_path, monkeypatch, bad):
        # The instances are expanded lazily, but a bad second job must
        # still stop the sweep before the first job's instances run.
        calls = []
        run = sweep.run_instance

        def counting(*args):
            calls.append(args)
            return run(*args)

        monkeypatch.setattr(sweep, "run_instance", counting)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "jobs": [{"id": "stern", "k": [0, 2], "n": [1], "q": [1]}, bad],
            "csv": str(tmp_path / "out.csv"), "records": str(tmp_path / "out.jsonl"),
            "cache": str(tmp_path / "values.jsonl"),
        }))
        with pytest.raises(ConfigError, match="job '1.4'"):
            run_sweep(load_config(config))
        assert main(["sweep", "--config", str(config)]) == EXIT_CONFIG
        assert calls == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    def test_aliases_resolve(self):
        assert lookup("1.3").id == "stern"
        assert lookup("lshift-two").id == "1.4"
        assert "stern" in registered_ids()


class TestExpansion:
    def test_grid_order_deterministic(self):
        job = SweepJob("1.3", {"k": [2, 0], "n": [1], "q": [1]})
        ks = [inst["k"] for _, inst in expand_job(job)]
        assert ks == [2, 0]  # given order preserved

    def test_character_axes(self):
        job = SweepJob("1.4", {"m": [3], "k": [1], "n": [1], "q": [1]})
        instances = list(expand_job(job))
        assert len(instances) == 2  # two primitive characters mod 8
        assert all(inst["p"] == 2 for _, inst in instances)


class TestRunSweep:
    def test_stern_job(self):
        report = run_sweep(stern_config())
        assert report.summary["total"] == 12
        assert report.summary["fails"] == 0
        assert report.all_hold
        assert report.summary["per_id"]["stern"]["min_margin"] >= 2

    def test_out_of_hypothesis_points_become_skips(self):
        report = run_sweep(SweepConfig(jobs=(
            SweepJob("1.4", {"m": [3], "k": [0, 1], "n": [1], "q": [1]}),
        )))
        assert report.summary["skips"] == 2  # parity mismatches
        assert report.summary["fails"] == 0
        assert all(s.reason for s in report.skips)

    @pytest.mark.parametrize("jobs", [
        (SweepJob("2.2", {"p": [3], "m": [2], "k": [0, 1, 2], "a": [1, 2, 3, 4]}),),
        (SweepJob("2.1x", {"p": [2], "m": [1], "k": [1, 3], "n": [2, 3]}),  # failing verdicts
         SweepJob("1.4", {"m": [3], "k": [0, 1], "n": [1], "q": [1]}),  # parity skips
         SweepJob("euler-kummer", {"p": [3], "k": [2], "l": [2]}),  # margin inf
         SweepJob("lerch", {"a": [2], "n": [6]})),  # every instance skipped
    ], ids=["one-id", "fails-skips-inf-all-skipped"])
    def test_summary_counts_match_lists(self, jobs):
        # The summary is counted as the sweep runs; recount it from the lists.
        report = run_sweep(SweepConfig(jobs=jobs))
        per_id = {}
        for id_ in {r.id for r in (*report.verdicts, *report.skips)}:
            verdicts = [v for v in report.verdicts if v.id == id_]
            per_id[id_] = {
                "total": len(verdicts),
                "holds": sum(v.holds for v in verdicts),
                "fails": sum(not v.holds for v in verdicts),
                "skips": sum(s.id == id_ for s in report.skips),
                "min_margin": min((v.observed_margin for v in verdicts), default=math.inf),
            }
        assert report.summary == {
            "total": len(report.verdicts),
            "holds": sum(v.holds for v in report.verdicts),
            "fails": sum(not v.holds for v in report.verdicts),
            "skips": len(report.skips),
            "per_id": per_id,
        }
        assert report.all_hold == all(v.holds for v in report.verdicts)
        if len(jobs) > 1:  # the mixed sweep reaches every kind of row
            assert per_id["2.1x"]["fails"] and per_id["1.4"]["skips"]
            assert per_id["euler-kummer"]["min_margin"] == math.inf
            assert per_id["lerch"] == {"total": 0, "holds": 0, "fails": 0, "skips": 1,
                                       "min_margin": math.inf}

    def test_isolated_cache(self, chi8):
        cache = BernoulliCache()
        report = run_sweep(
            SweepConfig(jobs=(SweepJob("1.4", {"m": [3], "k": [1], "n": [1], "q": [1]}),)),
            cache=cache,
        )
        assert report.all_hold
        assert (chi8.key(), 2) in cache._twisted  # B_(2,chi8) entered the memo


class TestSkipContract:
    """Every failed hypothesis is a DomainError, which a sweep records as a
    skip: the instance's parameters, ``chi`` as its label, and the reason."""

    def test_one_exception_family(self):
        assert issubclass(ParityError, DomainError)
        assert issubclass(UndefinedCaseError, DomainError)
        assert DomainError is power_sums.DomainError is bernoulli.DomainError
        with pytest.raises(DomainError, match="same parity"):
            congruences.verify_lvalue_shift_two(character(2, 3, (0, 1)), k=2, n=1, q=1)
        with pytest.raises(DomainError, match="undefined for conductor 3"):
            congruences.check_nondivisibility(character(3, 1, (1,)), 0)

    def test_parity_undefined_and_coprimality_failures_are_skips(self):
        report = run_sweep(SweepConfig(jobs=(
            SweepJob("1.5", {"m": [3], "k": [1], "l": [0], "n": [1]}),
            SweepJob("nondiv", {"p": [3], "m": [1], "d": [0]}),
            SweepJob("lerch", {"a": [2], "n": [6]}),
        )))
        parity = "k and l must both have parity opposite to chi"
        assert [(s.id, list(s.params.items()), s.reason) for s in report.skips] == [
            ("1.5", [("chi", "8:0,1"), ("p", 2), ("m", 3), ("k", 1), ("l", 0), ("n", 1)], parity),
            ("1.5", [("chi", "8:1,1"), ("p", 2), ("m", 3), ("k", 1), ("l", 0), ("n", 1)], parity),
            ("nondiv", [("chi", "3:1"), ("p", 3), ("m", 1), ("d", 0)],
             "normalized L-value undefined for conductor 3^1"),
            ("lerch", [("a", 2), ("n", 6)], "a=2 must be coprime to n=6"),
        ]
        assert report.verdicts == []
        assert {id_: row["skips"] for id_, row in report.summary["per_id"].items()} == {
            "1.5": 2, "nondiv": 1, "lerch": 1,
        }


def test_tracer_hooks_see_every_call(monkeypatch, tmp_path):
    # The benchmark tracer wraps module attributes: the sweep must look each
    # registry entry's verifier up on the congruences module, and it
    # must enumerate characters through _CHAR_FAMILIES, or its per-layer
    # metrics silently read 0.
    verified = []
    verify = congruences.verify_lvalue_shift_two

    def counting(*args, **kwargs):
        verified.append(args)
        return verify(*args, **kwargs)

    moduli = []
    family = sweep._CHAR_FAMILIES["primitive"]

    def recording(p, m):
        moduli.append((p, m))
        return family(p, m)

    # The sweep must also expand jobs and write records through the module
    # attributes, or `sweep.expand_s` and `sweep.report_s` read 0.
    expanded, written = [], []
    expand, write = sweep.expand_job, sweep.write_records

    def expanding(job):
        expanded.append(job.id)
        return expand(job)

    def writing(report, fh):
        written.append(fh)
        write(report, fh)

    monkeypatch.setattr(congruences, "verify_lvalue_shift_two", counting)
    monkeypatch.setitem(sweep._CHAR_FAMILIES, "primitive", recording)
    monkeypatch.setattr(sweep, "expand_job", expanding)
    monkeypatch.setattr(sweep, "write_records", writing)
    records = str(tmp_path / "out.jsonl")
    report = run_sweep(SweepConfig(jobs=(
        SweepJob("1.4", {"m": "3..4", "k": "0..3", "n": [1], "q": [1]}),
    ), records_path=records), cache=BernoulliCache())
    assert moduli == [(2, 3), (2, 4)]
    assert report.verdicts and report.skips
    assert len(verified) == len(report.verdicts) + len(report.skips)
    assert expanded == ["1.4"] and len(written) == 1


class TestReports:
    def test_csv_deterministic(self):
        first, second = (rendered(write_csv, run_sweep(stern_config())) for _ in range(2))
        assert first == second

    def test_records_deterministic_modulo_header(self):
        r1, r2 = (rendered(write_records, run_sweep(stern_config())).splitlines()
                  for _ in range(2))
        assert "timestamp" in json.loads(r1[0])  # the clock reaches the header only
        assert r1[1:] == r2[1:]        # bodies byte-identical

    def test_records_carry_exact_sides(self):
        lines = rendered(write_records, run_sweep(stern_config())).splitlines()
        verdicts = [json.loads(l) for l in lines if '"type": "verdict"' in l]
        assert verdicts
        for v in verdicts:
            assert set(v["lhs"]) == {"order", "coeffs"}
            int(v["lhs"]["coeffs"][0])  # exact integer string

    def test_infinite_margin_serialization(self):
        report = run_sweep(SweepConfig(jobs=(
            SweepJob("euler-kummer", {"p": [3], "k": [2], "l": [2]}),
        )))
        assert "inf" in rendered(write_csv, report)
        # every record line must be strict JSON (no bare Infinity tokens)
        for line in rendered(write_records, report).splitlines():
            assert "Infinity" not in line
            json.loads(line)

    def test_table_text_summary_line(self):
        text = table_text(run_sweep(stern_config()))
        assert "total=12 holds=12 fails=0" in text

    def test_written_files(self, tmp_path):
        csv_path = tmp_path / "out.csv"
        rec_path = tmp_path / "out.jsonl"
        run_sweep(stern_config(csv_path=str(csv_path), records_path=str(rec_path)))
        assert csv_path.read_text().startswith("id,branch,chi")
        first = json.loads(rec_path.read_text().splitlines()[0])
        assert first["type"] == "header" and "timestamp" in first


def test_file_writers_stream_what_the_views_collect(tmp_path):
    """`write_records` and `write_csv` write to an open file the very lines
    they write to an in-memory stream, one at a time: the memory traced
    while the records are written stays below half of the bytes written."""
    report = run_sweep(SweepConfig(jobs=(SweepJob("lerch", {"a": "1..100", "n": "1..60"}),)))
    lines = rendered(write_records, report).splitlines()
    assert len(lines) >= 5000
    csv_path, records_path = tmp_path / "out.csv", tmp_path / "out.jsonl"
    tracemalloc.start()
    try:
        with open(records_path, "w", encoding="utf-8", newline="") as fh:
            write_records(report, fh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    body = records_path.read_bytes().split(b"\n", 1)[1]
    assert body == ("\n".join(lines[1:]) + "\n").encode()
    assert peak < records_path.stat().st_size / 2
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        write_csv(report, fh)
    assert csv_path.read_bytes() == rendered(write_csv, report).encode()


@pytest.mark.parametrize("id_", registered_ids())
def test_registry_entry_fits_its_verifier(id_):
    """An entry names a congruences function whose arguments other than
    ``cache`` are all instance keys (an axis, ``chi`` or a character axis),
    since run_instance passes each of them; its region predicate exists,
    and every axis is a `lcong verify` flag."""
    spec = lookup(id_)
    parameters = inspect.signature(getattr(congruences, spec.verifier)).parameters
    keys = {*spec.axes, *(("chi", *spec.char_axes) if spec.char_mode else ())}
    required = {name for name, param in parameters.items()
                if param.default is param.empty and name != "cache"}
    assert spec.arguments == tuple(parameters)
    assert required <= set(spec.arguments) - {"cache"} <= keys
    if spec.region is not None:
        assert callable(getattr(congruences, spec.region[0]))
    axes = [*spec.axes, *spec.char_axes]
    args = build_parser().parse_args(
        ["verify", id_, *(f"--{axis.replace('_', '-')}=1" for axis in axes)]
    )
    assert all(getattr(args, axis) == "1" for axis in axes)


@pytest.mark.parametrize("option, writer", [("csv", "_csv_row"), ("records", "_record_lines")])
def test_failed_report_write_leaves_the_old_report(tmp_path, capsys, monkeypatch, option, writer):
    """A report is written beside its target and renamed onto it: an
    exception partway through keeps the old report byte for byte, leaves
    no temporary file and exits 3."""
    report = tmp_path / "report"
    report.write_bytes(b"old report\n")
    original = getattr(sweep, writer)
    calls = []

    def failing(*args):
        calls.append(args)
        if len(calls) == 3:
            raise RuntimeError("write failed")
        return original(*args)

    def failing_lines(*args):
        for i, line in enumerate(original(*args)):
            if i == 3:
                raise RuntimeError("write failed")
            yield line

    monkeypatch.setattr(sweep, writer, failing_lines if writer == "_record_lines" else failing)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "jobs": [{"id": "1.3", "k": [0, 2, 4], "n": [1, 2], "q": [1, 3]}], option: str(report),
    }))
    assert main(["sweep", "--config", str(config)]) == EXIT_INTERNAL
    assert capsys.readouterr().err.splitlines() == ["internal error: RuntimeError: write failed"]
    assert report.read_bytes() == b"old report\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["config.json", "report"]


def test_readme_catalog_states_every_registered_id():
    """README's catalog table is the one prose statement of each id: the
    backticked names in a row's first two columns are one spec's id and
    aliases, and every registered id has a row."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    catalog = readme.split("## Congruence catalog", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[1:3] for line in catalog.splitlines() if line.startswith("| `")]
    named = sorted(sorted(re.findall(r"`([^`]+)`", "".join(cells))) for cells in rows)
    specs = [lookup(id_) for id_ in registered_ids()]
    assert named == sorted(sorted({spec.id, *spec.aliases}) for spec in specs)


class TestLemmaSweep:
    """The power-sum lemmas run as sweeps of their catalog ids."""

    def test_scaling_lemma_grid(self):
        grid = {"p": [2, 3], "m": [1, 2], "k": [0, 1, 2], "n": [2, 3]}
        verdicts = run_sweep(SweepConfig(jobs=(SweepJob("2.1", grid),))).verdicts
        assert verdicts and all(v.holds for v in verdicts)

    def test_vanishing_covers_both_forms(self):
        # 2.4's p^(n-1) divisibility, and over p = 2 the full 2^n form 2.5
        grid = {"m": [2], "k": [0, 2], "n": [2, 3]}
        jobs = (SweepJob("2.4", {"p": [2, 3], **grid}), SweepJob("2.5", grid))
        verdicts = run_sweep(SweepConfig(jobs=jobs)).verdicts
        assert {v.id for v in verdicts} == {"2.4", "2.5"}
        assert all(v.holds for v in verdicts)

    def test_order_lemma(self):
        job = SweepJob("2.3", {"p": [2, 3], "m": [3, 2]})
        verdicts = run_sweep(SweepConfig(jobs=(job,))).verdicts
        assert verdicts and all(v.holds for v in verdicts)


class TestValueCache:
    JOB = SweepJob("1.4", {"m": [3], "k": [1, 3], "n": [1], "q": [1]})

    def _sweep_with_cache(self, path, **reports):
        return run_sweep(SweepConfig(jobs=(self.JOB,), cache_path=str(path), **reports))

    def test_roundtrip_and_verify(self, tmp_path):
        path = tmp_path / "values.jsonl"
        self._sweep_with_cache(path)
        count = valuecache.entry_count(path)
        assert count > 0
        assert valuecache.verify(path) == []

    def test_cached_values_reused_not_rewritten(self, tmp_path):
        path = tmp_path / "values.jsonl"
        self._sweep_with_cache(path)
        size = path.stat().st_size
        report = self._sweep_with_cache(path)
        assert report.all_hold
        assert path.stat().st_size == size  # second run appended nothing

    def test_corrupt_line_detected(self, tmp_path):
        path = tmp_path / "values.jsonl"
        self._sweep_with_cache(path)
        with open(path, "a") as fh:
            fh.write("{not json\n")
        with pytest.raises(valuecache.CacheError, match="line"):
            valuecache.verify(path)

    def test_mismatch_detected(self, tmp_path):
        path = tmp_path / "values.jsonl"
        self._sweep_with_cache(path)
        lines = path.read_text().splitlines()
        record = json.loads(lines[0])
        record["coeffs"] = ["12345"] + record["coeffs"][1:]
        lines.append(json.dumps(record))  # later line wins, with a wrong value
        path.write_text("\n".join(lines) + "\n")
        bad = valuecache.verify(path)
        assert len(bad) == 1 and f"k={record['k']}" in bad[0]

    def test_value_that_fails_to_build_on_lookup_names_its_line(self, tmp_path):
        # Load runs every check from_record runs, so no line that loads can
        # fail to build; should a builder's text stop reading, its lookup
        # still raises CacheError naming the line, not a bare ValueError.
        path = tmp_path / "values.jsonl"
        self._sweep_with_cache(path)
        cache = BernoulliCache()
        valuecache.load_into(path, cache)
        (char_key, k), build = next(iter(cache._twisted.items()))
        build.args[2][0] = "1/0"  # the first coefficient of line 1
        with pytest.raises(valuecache.CacheError,
                           match=r"line 1: coefficient '1/0' is not n or n/d"):
            cache.twisted_bernoulli(character(*char_key), k)

    def test_clear(self, tmp_path):
        path = tmp_path / "values.jsonl"
        self._sweep_with_cache(path)
        valuecache.clear(path)
        assert valuecache.entry_count(path) == 0

    def test_library_sweep_leaves_the_bytes_the_command_leaves(self, tmp_path, capsys):
        # run_sweep loads and appends the file its config names, on a fresh
        # memo: the process-wide DEFAULT_CACHE gets none of its values.
        library, command = tmp_path / "library.jsonl", tmp_path / "command.jsonl"
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"jobs": [{"id": self.JOB.id, **self.JOB.params}],
                                      "cache": str(command)}))
        default = dict(bernoulli.DEFAULT_CACHE._twisted)
        for run in (1, 2):
            self._sweep_with_cache(library)
            assert main(["sweep", "--config", str(config)]) == EXIT_OK
            if run == 1:
                written = library.read_bytes()
        assert library.read_bytes() == command.read_bytes() == written  # run 2 appended nothing
        assert bernoulli.DEFAULT_CACHE._twisted == default

    def test_failing_sweep_over_cached_values_writes_each_report_once(self, tmp_path,
                                                                     monkeypatch, capsys):
        # A wrong B_(4,chi) makes a verdict fail; the sweep runs again on a
        # fresh memo and writes the recomputed verdicts, opening each
        # report once.
        path = tmp_path / "values.jsonl"
        self._sweep_with_cache(path)
        good = path.read_text()
        assert '"coeffs": ["-44", "0"], "k": 4' in good
        path.write_text(good.replace('["-44", "0"]', '["-45", "0"]'))
        opened = []
        replacing = sweep._replacing

        def counted(target):
            opened.append(target)
            return replacing(target)

        monkeypatch.setattr(sweep, "_replacing", counted)
        csv_path, records_path = tmp_path / "out.csv", tmp_path / "out.jsonl"
        report = self._sweep_with_cache(path, csv_path=str(csv_path),
                                        records_path=str(records_path))
        assert opened == [str(csv_path), str(records_path)]
        assert report.all_hold
        assert capsys.readouterr().err.startswith("warning: cached values changed 1.4 ")
        fresh = run_sweep(SweepConfig(jobs=(self.JOB,)), cache=BernoulliCache())
        assert csv_path.read_text() == rendered(write_csv, fresh)
        body = records_path.read_text().split("\n", 1)[1]
        assert body == rendered(write_records, fresh).split("\n", 1)[1]


def test_warm_sweep_reports_what_an_uncached_sweep_reports(tmp_path, capsys):
    # The cache holds foreign moduli (ernvall's chi mod 8 and 16) as well
    # as every value the 1.6 sweep needs, so the warm run computes nothing.
    cache = tmp_path / "values.jsonl"
    job = {"id": "1.6", "p": [3, 5, 7], "m": [1, 2], "k": "0..2", "n": [1, 2], "q": [1, 2]}
    history = {"id": "ernvall", "chi_p": [2], "chi_m": [3, 4], "p": [3], "k": "1..6",
               "l": [1], "n": [1]}

    def run(name, jobs, **cache_option):
        config, csv, records = (tmp_path / f"{name}.{ext}" for ext in ("json", "csv", "jsonl"))
        config.write_text(json.dumps({
            "jobs": jobs, "csv": str(csv), "records": str(records), **cache_option,
        }))
        assert main(["sweep", "--config", str(config)]) == EXIT_OK
        return csv.read_bytes(), records.read_bytes().split(b"\n", 1)[1]

    run("history", [history], cache=str(cache))
    run("cold", [job], cache=str(cache))
    warm_file = cache.read_bytes()
    assert {json.loads(line)["p"] for line in warm_file.splitlines()} == {2, 3, 5, 7}
    assert run("warm", [job], cache=str(cache)) == run("uncached", [job])
    assert cache.read_bytes() == warm_file


def test_warm_sweep_builds_only_the_values_it_looks_up(tmp_path):
    # Load checks every line of a file holding ernvall's foreign moduli and
    # 1.6's own values, but builds a value only when the sweep looks it up:
    # exactly the keys an uncached run computes, each equal field for field
    # to what every builder of the file builds eagerly.  The others stay
    # unbuilt.
    path = tmp_path / "values.jsonl"
    job = SweepJob("1.6", {"p": [3, 5, 7], "m": [1, 2], "k": "0..2", "n": [1, 2], "q": [1, 2]})
    history = SweepJob("ernvall", {"chi_p": [2], "chi_m": [3, 4], "p": [3], "k": "1..6",
                                   "l": [1], "n": [1]})
    filled = BernoulliCache()
    run_sweep(SweepConfig(jobs=(history, job)), cache=filled)
    valuecache.append_new(path, filled)
    uncached = BernoulliCache()
    expected = rendered(write_csv, run_sweep(SweepConfig(jobs=(job,)), cache=uncached))
    used = set(uncached._twisted)

    warm = BernoulliCache()
    eager = {key: build() for key, build in valuecache._builders(path).items()}
    assert valuecache.load_into(path, warm) == len(eager)
    assert rendered(write_csv, run_sweep(SweepConfig(jobs=(job,)), cache=warm)) == expected
    assert not warm.dirty_keys and set(warm._twisted) == set(eager)
    built = {key for key, value in warm._twisted.items() if type(value) is CyclotomicElement}
    assert built == used and len(used) < len(eager)
    for key in used:
        value = warm._twisted[key]
        assert (value.order, value.num, value.den) == (eager[key].order, eager[key].num,
                                                       eager[key].den)


#: Every verdict shape: plain congruences (stern, 1.4), the three iff
#: checks (stern-iff, 1.5 and 1.8 with expected_aligned), nondiv, 2.3,
#: lerch at prime-power and composite n, and skips (parity, witness,
#: p = 2 with m = 2, a not coprime to n); the axes use every accepted
#: form (int, list, string range, string inside a list), chi both as a
#: string and as lists, and a parity filter.
GOLDEN_JOBS = [
    {"id": "stern", "k": "0..4:2", "n": [1, 2], "q": 1},
    {"id": "stern-iff", "k": [0, 2, 4], "l": [0, 4], "n": "1..2"},
    {"id": "1.5", "m": [3], "k": "0..3", "l": [1, 5], "n": [1, 2], "parity": "even"},
    {"id": "1.8", "p": [3], "m": [2], "k": [0, 1], "h": [0, 1, 3], "n": [1, 2]},
    {"id": "nondiv", "p": [3, 5], "m": [2], "d": [0, 1]},
    {"id": "2.3", "p": [2, 3], "m": ["2..3"], "chi": [[1, 1], [1], [2], [1, 2]]},
    {"id": "lerch", "a": [1, 2, 5], "n": [6, 8, 9]},
    {"id": "1.4", "m": 3, "k": [1, 2], "n": [1], "q": [1], "chi": "0,1"},
]


#: The power-sum lemmas and the twisted Voronoi congruence over small
#: grids that include the two-generator moduli 8 and 16: 2.1 and 2.1x
#: (with skips either side of the excluded region), 2.2 with a = 4
#: skipped at p = 2, 2.4, 2.5 and 2.5x (whose verdicts fail), and 3.2.
GOLDEN_SUM_JOBS = [
    {"id": "2.1", "p": [2, 3], "m": [1, 2, 3], "k": "0..3", "n": "1..4"},
    {"id": "2.1x", "p": [2], "m": [1], "k": "0..3", "n": "2..3"},
    {"id": "2.2", "p": [2], "m": [3, 4], "k": "0..2", "a": [3, 4]},
    {"id": "2.2", "p": [5], "m": [1, 2], "k": [1, 2], "a": [2]},
    {"id": "2.4", "p": [2, 3], "m": [2, 3], "k": "0..2", "n": "1..4"},
    {"id": "2.5", "m": [1, 2, 3], "k": "0..3", "n": "2..4"},
    {"id": "2.5x", "m": [1, 2], "k": "0..3", "n": [2, 3]},
    {"id": "3.2", "p": [2, 3], "m": [2, 3], "a": [1, 5], "k": "0..3", "n": [2, 3]},
]


#: The classical and Euler-number ids the other two cases leave out:
#: kummer, ernvall (by its alias 1.1, prime p only), euler-kummer (whose
#: k = 0 verdicts fail), 1.6 with both branches (the second job is named
#: by the alias 1.7), sun (by its alias 3.1), voronoi and floor-parity,
#: each with skips.
GOLDEN_CLASSICAL_JOBS = [
    {"id": "kummer", "p": [5, 7], "k": [2, 4, 8], "l": [6, 10, 14], "n": [1, 2]},
    {"id": "1.1", "chi_p": [3], "chi_m": [1, 2], "p": [2, 5], "k": [1, 2], "l": [5, 9], "n": [1, 2]},
    {"id": "euler-kummer", "p": [3, 5], "k": [0, 1, 2, 4], "l": [2, 6]},
    {"id": "1.6", "p": [3, 5], "m": [1], "k": "0..3", "n": [1, 2], "q": [1, 5]},
    {"id": "1.7", "p": [3], "m": [2], "k": "0..3", "n": [1, 2], "q": [1, 3]},
    {"id": "3.1", "k": "0..4", "n": [1, 3]},
    {"id": "voronoi", "a": [2, 5], "p": [5, 7], "k": [1, 2, 4]},
    {"id": "floor-parity", "m": "2..7"},
]


@pytest.mark.parametrize("jobs, summary, digests", [
    (GOLDEN_JOBS, "total=83 holds=75 fails=8 skips=56", (  # fails: the 1.8 finding
        "225eef4301b0d2551a16c0abbe647b944e493def0d6eae845f85ab3b23a5f489",
        "188ce7327bd1ae1a00891fdcba58384d1214b88b80582a57d59ada58b8e5bbef",
        "b2867cd1c8ca4c8cbccc6152b7546cde1e98239159859453332251887a8147ae",
    )),
    (GOLDEN_SUM_JOBS, "total=689 holds=677 fails=12 skips=693", (  # fails: 2.1x, 2.5x
        "373bd7bf566360bbb677bbfdbc4f81bf47109e99f986550724dfe146aec7284a",
        "c9bf4643fac1453a62524bb85c49fc0004d8f0e703fa80add9bcc5203295423e",
        "3ec9ed48d51ab1f92ce6b2048d548990b1312fee825b261c895d03d629ba171a",
    )),
    (GOLDEN_CLASSICAL_JOBS, "total=88 holds=86 fails=2 skips=200", (  # fails: E_0 vs E_2
        "bfbe80e6b8e28c1ba46ba437fd6b89369dcde524a12e1c1ad13df972f18d1665",
        "e1f3407489b2f88d8ef3647ca5e3a4d0e18ef5b67a63b69d0b82cf3904b2ecd0",
        "adb9d0ce8ffbd53779ddde989ec2208cb71938f80fd01ff59b8cd4bc1e14a078",
    )),
], ids=["catalog", "character-sums", "classical"])
def test_golden_report_bytes(tmp_path, capsys, jobs, summary, digests):
    """The CSV, the JSONL body (every line after the timestamped header)
    and the value-cache file of a small sweep are pinned by SHA-256; any
    change to a verdict, a margin, a params key or its order, or to the
    text of a coefficient shows here."""
    csv_path, records_path = tmp_path / "out.csv", tmp_path / "out.jsonl"
    cache_path, config = tmp_path / "values.jsonl", tmp_path / "config.json"
    config.write_text(json.dumps({
        "jobs": jobs, "csv": str(csv_path), "records": str(records_path),
        "cache": str(cache_path),
    }))
    assert main(["sweep", "--config", str(config)]) == EXIT_FAILURES
    assert summary in capsys.readouterr().out
    body = records_path.read_bytes().split(b"\n", 1)[1]
    assert tuple(
        hashlib.sha256(data).hexdigest()
        for data in (csv_path.read_bytes(), body, cache_path.read_bytes())
    ) == digests
