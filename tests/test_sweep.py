import hashlib
import json
import re
import threading
from itertools import groupby
from pathlib import Path

import pytest

from lcong import DomainError, ParityError, UndefinedCaseError
from lcong.bernoulli import BernoulliCache
from lcong.characters import character
from lcong.sweep import (
    ConfigError,
    SweepConfig,
    SweepJob,
    csv_text,
    expand_job,
    lookup,
    records_lines,
    registered_ids,
    run_sweep,
    table_text,
    write_csv,
)
from lcong import bernoulli, congruences, power_sums, sweep, valuecache
from lcong.cli import EXIT_FAILURES, main


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

    def test_bad_parallelism(self):
        with pytest.raises(ConfigError):
            run_sweep(stern_config(parallelism=0))

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

    def test_summary_counts_match_lists(self):
        report = run_sweep(SweepConfig(jobs=(
            SweepJob("2.2", {"p": [3], "m": [2], "k": [0, 1, 2], "a": [1, 2, 3, 4]}),
        )))
        s = report.summary
        assert s["total"] == len(report.verdicts)
        assert s["skips"] == len(report.skips)
        assert s["holds"] + s["fails"] == s["total"]

    def test_parallel_equals_serial(self):
        serial = run_sweep(stern_config())
        parallel = run_sweep(stern_config(parallelism=4))
        assert [v.sort_key() for v in serial.verdicts] == [v.sort_key() for v in parallel.verdicts]
        assert csv_text(serial) == csv_text(parallel)

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


def test_tracer_hooks_see_every_call(monkeypatch):
    # The benchmark tracer wraps module attributes: the registry's runners
    # must reach congruences.verify_* through the module, and the sweep
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

    monkeypatch.setattr(congruences, "verify_lvalue_shift_two", counting)
    monkeypatch.setitem(sweep._CHAR_FAMILIES, "primitive", recording)
    report = run_sweep(SweepConfig(jobs=(
        SweepJob("1.4", {"m": "3..4", "k": "0..3", "n": [1], "q": [1]}),
    )), cache=BernoulliCache())
    assert moduli == [(2, 3), (2, 4)]
    assert report.verdicts and report.skips
    assert len(verified) == len(report.verdicts) + len(report.skips)


class TestReports:
    def test_csv_deterministic(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(run_sweep(stern_config()), p1)
        write_csv(run_sweep(stern_config()), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_records_deterministic_modulo_header(self, tmp_path):
        r1 = records_lines(run_sweep(stern_config()), timestamp="X")
        r2 = records_lines(run_sweep(stern_config()), timestamp="Y")
        assert r1[0] != r2[0]          # timestamps differ, isolated to header
        assert r1[1:] == r2[1:]        # bodies byte-identical

    def test_records_carry_exact_sides(self):
        lines = records_lines(run_sweep(stern_config()), timestamp="T")
        verdicts = [json.loads(l) for l in lines if '"type": "verdict"' in l]
        assert verdicts
        for v in verdicts:
            assert set(v["lhs"]) == {"order", "coeffs"}
            int(v["lhs"]["coeffs"][0])  # exact integer string

    def test_infinite_margin_serialization(self):
        report = run_sweep(SweepConfig(jobs=(
            SweepJob("euler-kummer", {"p": [3], "k": [2], "l": [2]}),
        )))
        assert "inf" in csv_text(report)
        # every record line must be strict JSON (no bare Infinity tokens)
        for line in records_lines(report, timestamp="T"):
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
    def _sweep_with_cache(self, path, cache):
        config = SweepConfig(
            jobs=(SweepJob("1.4", {"m": [3], "k": [1, 3], "n": [1], "q": [1]}),),
        )
        valuecache.load_into(path, cache)
        report = run_sweep(config, cache=cache)
        valuecache.append_new(path, cache)
        return report

    def test_roundtrip_and_verify(self, tmp_path):
        path = tmp_path / "values.jsonl"
        self._sweep_with_cache(path, BernoulliCache())
        count = valuecache.entry_count(path)
        assert count > 0
        assert valuecache.verify(path) == []

    def test_cached_values_reused_not_rewritten(self, tmp_path):
        path = tmp_path / "values.jsonl"
        self._sweep_with_cache(path, BernoulliCache())
        size = path.stat().st_size
        report = self._sweep_with_cache(path, BernoulliCache())
        assert report.all_hold
        assert path.stat().st_size == size  # second run appended nothing

    def test_corrupt_line_detected(self, tmp_path):
        path = tmp_path / "values.jsonl"
        self._sweep_with_cache(path, BernoulliCache())
        with open(path, "a") as fh:
            fh.write("{not json\n")
        with pytest.raises(valuecache.CacheError, match="line"):
            valuecache.verify(path)

    def test_mismatch_detected(self, tmp_path):
        path = tmp_path / "values.jsonl"
        self._sweep_with_cache(path, BernoulliCache())
        lines = path.read_text().splitlines()
        record = json.loads(lines[0])
        record["coeffs"] = ["12345"] + record["coeffs"][1:]
        lines.append(json.dumps(record))  # later line wins, with a wrong value
        path.write_text("\n".join(lines) + "\n")
        bad = valuecache.verify(path)
        assert len(bad) == 1 and f"k={record['k']}" in bad[0]

    def test_clear(self, tmp_path):
        path = tmp_path / "values.jsonl"
        self._sweep_with_cache(path, BernoulliCache())
        valuecache.clear(path)
        assert valuecache.entry_count(path) == 0


#: 1.4, 1.5 and 3.2 over 2-power and 3-power moduli; the 1.5 job gives
#: every character a run of 13 * 13 * 2 = 338 instances.
POOL_GRID = (
    SweepJob("1.4", {"m": [3, 4, 5], "k": list(range(9)), "n": [1, 2], "q": [1, 3]}),
    SweepJob("1.5", {"m": [3, 4], "k": list(range(13)), "l": list(range(13)), "n": [1, 2]}),
    SweepJob("3.2", {"p": [2, 3], "m": [1, 2, 3], "a": [1, 2, 4, 5], "k": list(range(7)),
                     "n": [2, 3]}),
)


class TestBatchedPool:
    """The pool runs contiguous per-character batches; its reports and
    value-cache bytes must equal the serial run's."""

    def _outputs(self, tmp_path, jobs, parallelism):
        path = tmp_path / f"values-{len(jobs)}-{parallelism}.jsonl"
        cache = BernoulliCache()
        report = run_sweep(SweepConfig(jobs=jobs, parallelism=parallelism), cache=cache)
        valuecache.append_new(path, cache)
        cache_bytes = path.read_bytes() if path.exists() else None
        return csv_text(report), records_lines(report, timestamp="T")[1:], cache_bytes

    def test_grid_runs_are_long_and_many(self):
        work = [item for job in POOL_GRID for item in expand_job(job)]
        runs = [len(list(run)) for _, run in groupby(work, key=sweep._run_key)]
        assert max(runs) > 256
        assert len(runs) == len({sweep._run_key(item) for item in work})

    @pytest.mark.parametrize("parallelism", [2, 4])
    def test_pool_matches_serial(self, tmp_path, parallelism):
        serial = self._outputs(tmp_path, POOL_GRID, 1)
        assert serial[2]  # values were computed and appended
        assert self._outputs(tmp_path, POOL_GRID, parallelism) == serial

    def test_more_workers_than_runs(self, tmp_path):
        jobs = (SweepJob("1.4", {"m": [3], "k": list(range(9)), "n": [1, 2], "q": [1]}),)
        assert self._outputs(tmp_path, jobs, 4) == self._outputs(tmp_path, jobs, 1)

    def test_jobs_without_characters(self, tmp_path):
        jobs = stern_config().jobs + (SweepJob("euler-kummer", {"p": [3, 5], "k": [2, 4],
                                                                 "l": [2, 4]}),)
        assert self._outputs(tmp_path, jobs, 2) == self._outputs(tmp_path, jobs, 1)

    def test_each_character_runs_on_one_thread(self, monkeypatch):
        # run_instance is looked up by name for every instance, so a
        # wrapper installed on the module sees all of them.
        seen: dict[tuple, set] = {}
        original = sweep.run_instance

        def recording(spec, inst, cache):
            seen.setdefault(sweep._run_key((spec, inst)), set()).add(threading.get_ident())
            return original(spec, inst, cache)

        monkeypatch.setattr(sweep, "run_instance", recording)
        report = run_sweep(SweepConfig(jobs=POOL_GRID[:2], parallelism=2), cache=BernoulliCache())
        assert report.all_hold
        assert len(seen) == (2 + 4 + 8) + (2 + 4)  # primitive characters per job
        assert all(len(threads) == 1 for threads in seen.values())


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


def test_golden_report_bytes(tmp_path, capsys):
    """The CSV, the JSONL body (every line after the timestamped header)
    and the value-cache file of a small sweep are pinned by SHA-256; any
    change to a verdict, a margin, a params key or its order, or to the
    text of a coefficient shows here."""
    csv_path, records_path = tmp_path / "out.csv", tmp_path / "out.jsonl"
    cache_path, config = tmp_path / "values.jsonl", tmp_path / "config.json"
    config.write_text(json.dumps({
        "jobs": GOLDEN_JOBS, "csv": str(csv_path), "records": str(records_path),
        "cache": str(cache_path),
    }))
    assert main(["sweep", "--config", str(config)]) == EXIT_FAILURES  # the 1.8 finding
    assert "total=83 holds=75 fails=8 skips=56" in capsys.readouterr().out
    body = records_path.read_bytes().split(b"\n", 1)[1]
    assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == (
        "225eef4301b0d2551a16c0abbe647b944e493def0d6eae845f85ab3b23a5f489"
    )
    assert hashlib.sha256(body).hexdigest() == (
        "188ce7327bd1ae1a00891fdcba58384d1214b88b80582a57d59ada58b8e5bbef"
    )
    assert hashlib.sha256(cache_path.read_bytes()).hexdigest() == (
        "b2867cd1c8ca4c8cbccc6152b7546cde1e98239159859453332251887a8147ae"
    )
