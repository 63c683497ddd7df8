import json
import subprocess
import sys

import pytest

from lcong.cli import (
    EXIT_CONFIG,
    EXIT_FAILURES,
    EXIT_INTERNAL,
    EXIT_OK,
    main,
    parse_values,
)
from lcong import valuecache
from lcong.bernoulli import BernoulliCache, script_l
from lcong.characters import build_unit_group, character
from lcong.cyclotomic import CyclotomicElement
from lcong.sweep import ConfigError, SweepConfig, SweepJob, run_sweep


class TestParseValues:
    def test_single(self):
        assert parse_values("3") == [3]

    def test_comma_list(self):
        assert parse_values("1,3,5") == [1, 3, 5]

    def test_range(self):
        assert parse_values("0..4") == [0, 1, 2, 3, 4]

    def test_range_with_step(self):
        assert parse_values("0..20:2") == list(range(0, 21, 2))

    def test_mixed(self):
        assert parse_values("1,4..6") == [1, 4, 5, 6]

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            parse_values("")


class TestVerifyCommand:
    def test_anchor_instance(self, capsys):
        code = main(["verify", "1.4", "--m", "3", "--k", "1", "--n", "1", "--q", "1"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "chi=8:0,1" in out and "holds" in out

    def test_failing_verdicts_exit_one(self, capsys):
        # euler-kummer at the k=0 boundary genuinely fails
        code = main(["verify", "euler-kummer", "--p", "3", "--k", "0", "--l", "2"])
        assert code == EXIT_FAILURES
        assert "NO" in capsys.readouterr().out

    def test_unknown_id_exits_two(self, capsys):
        assert main(["verify", "bogus", "--k", "1"]) == EXIT_CONFIG

    def test_missing_axis_exits_two(self, capsys):
        assert main(["verify", "1.3", "--k", "0"]) == EXIT_CONFIG

    def test_descending_range_exits_two(self, capsys):
        # 'hi + 1' would stop a step of -1 at 3, silently dropping 2 and 1
        args = ["verify", "1.4", "--m", "3", "--k", "5..1:-1", "--n", "1", "--q", "1"]
        assert main(args) == EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [
            "configuration error: cannot parse parameter value '5..1:-1'"
        ]

    def test_lerch_flags(self, capsys):
        code = main(["verify", "lerch", "--a", "1..4", "--n", "5"])
        assert code == EXIT_OK
        assert "total=4 holds=4" in capsys.readouterr().out

    def test_chi_filter(self, capsys):
        code = main([
            "verify", "3.2", "--p", "2", "--m", "3", "--a", "3",
            "--k", "1", "--n", "3", "--chi", "0,1",
        ])
        out = capsys.readouterr().out
        assert code == EXIT_OK and "total=1" in out

    def test_chi_exponents_are_reduced_like_the_constructor(self, capsys):
        # 5 has order 2 mod 8, so the exponents 0,9 name the character 8:0,1
        args = ["verify", "1.4", "--m", "3", "--k", "1", "--n", "1", "--q", "1", "--chi"]
        assert main([*args, "0,1"]) == EXIT_OK
        reduced = capsys.readouterr().out.splitlines()
        assert main([*args, "0,9"]) == EXIT_OK
        unreduced = capsys.readouterr().out.splitlines()
        assert "chi=8:0,1" in reduced[2] and unreduced[:-1] == reduced[:-1]

    def test_chi_that_selects_no_character_exits_two(self, capsys):
        code = main(["verify", "1.4", "--m", "3", "--k", "1", "--n", "1", "--q", "1", "--chi", "7"])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [
            "configuration error: job '1.4': selects no character"
        ]

    @pytest.mark.parametrize("args, reason", [
        (["kummer", "--p", "4", "--k", "2", "--l", "6", "--n", "1"], "requires a prime p >= 5"),
        (["1.4", "--m", "3", "--k", "1", "--n", "0", "--q", "1"], "n must be >= 1"),
        (["1.4", "--m", "3", "--k", "2", "--n", "1", "--q", "1", "--chi", "0,1"],
         "k=2 has the same parity as chi=8:0,1"),
        (["ernvall", "--chi-p", "3", "--chi-m", "1", "--p", "4", "--k", "1", "--l", "3", "--n", "1"],
         "requires a prime p"),
        (["ernvall", "--chi-p", "3", "--chi-m", "1", "--p", "0", "--k", "1", "--l", "3", "--n", "1"],
         "requires a prime p"),
    ], ids=["non-prime-p", "n-zero", "parity", "ernvall-composite-p", "ernvall-zero-p"])
    def test_run_of_nothing_but_skips_exits_two(self, capsys, args, reason):
        # A run with no verdict checked nothing; it must not pass vacuously.
        assert main(["verify", *args]) == EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [
            f"configuration error: every instance was skipped, first {args[0]}: {reason}"
        ]

    @pytest.mark.parametrize("args, key", [
        (["kummer", "--p", "5", "--k", "2", "--l", "6", "--n", "1", "--chi", "0,1"], "chi"),
        (["kummer", "--p", "5", "--k", "2", "--l", "6", "--n", "1", "--q", "7"], "q"),
        (["1.4", "--p", "3", "--m", "3", "--k", "1", "--n", "1", "--q", "1"], "p"),
    ], ids=["kummer-chi", "kummer-q", "fixed-prime-p"])
    def test_parameter_the_id_does_not_take_exits_two(self, capsys, args, key):
        assert main(["verify", *args]) == EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [
            f"configuration error: job '{args[0]}': '{key}' is not a parameter of {args[0]}"
        ]

    def test_separate_character_modulus_flags(self, capsys):
        # the twisted Kummer congruence takes the character's modulus
        # through --chi-p/--chi-m, distinct from the congruence prime --p
        code = main([
            "verify", "ernvall", "--chi-p", "2", "--chi-m", "2",
            "--p", "5", "--k", "3", "--l", "7", "--n", "1",
        ])
        out = capsys.readouterr().out
        assert code == EXIT_OK and "total=1 holds=1" in out

    @pytest.mark.parametrize("argv, bounded", [
        (["voronoi", "--a", "2", "--p", "2305843009213693951", "--k", "2"], "prime"),
        (["kummer", "--p", "2305843009213693951", "--k", "2", "--l", "4", "--n", "1"], "prime"),
        (["euler-kummer", "--p", "2305843009213693951", "--k", "2", "--l", "4"], "prime"),
        (["ernvall", "--p", "2305843009213693951", "--chi-p", "3", "--chi-m", "1",
          "--k", "2", "--l", "2", "--n", "1"], "prime"),
        (["lerch", "--a", "2", "--n", "2305843009213693951"], "modulus"),
    ], ids=["voronoi", "kummer", "euler-kummer", "ernvall", "lerch"])
    def test_congruence_prime_is_bounded_before_trial_division(self, capsys, argv, bounded):
        assert main(["verify", *argv]) == EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [
            f"error: {bounded} 2305843009213693951 exceeds dlog table bound 200000"
        ]


class TestSweepCommand:
    def write_config(self, tmp_path, body):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(body))
        return str(path)

    def test_sweep_with_reports(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, {
            "jobs": [
                {"id": "1.3", "k": "0..8:2", "n": "1..3", "q": [1, 3]},
                {"id": "voronoi", "a": "1..4", "p": [5, 7], "k": [2, 4]},
            ],
            "csv": str(tmp_path / "report.csv"),
            "records": str(tmp_path / "report.jsonl"),
        })
        assert main(["sweep", "--config", cfg]) == EXIT_OK
        assert (tmp_path / "report.csv").exists()
        header = json.loads((tmp_path / "report.jsonl").read_text().splitlines()[0])
        assert header["type"] == "header"

    def test_flag_overrides(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, {
            "jobs": [{"id": "1.3", "k": [0], "n": [1], "q": [1]}],
        })
        out_csv = tmp_path / "override.csv"
        assert main(["sweep", "--config", cfg, "--csv", str(out_csv)]) == EXIT_OK
        assert out_csv.exists()

    def test_parallelism_key_is_ignored_and_jobs_flag_is_gone(self, tmp_path, capsys):
        # Configs written for the removed thread pool still set
        # "parallelism"; the key is ignored like any unknown top-level key.
        jobs = [{"id": "1.4", "m": [3, 4], "k": "0..4", "n": [1, 2], "q": [1]}]
        outputs = []
        for extra in ({}, {"parallelism": 2}):
            out_csv = tmp_path / f"report-{len(extra)}.csv"
            cfg = self.write_config(tmp_path, {"jobs": jobs, "csv": str(out_csv), **extra})
            assert main(["sweep", "--config", cfg]) == EXIT_OK
            outputs.append(out_csv.read_bytes())
        assert outputs[0] == outputs[1]
        capsys.readouterr()
        assert main(["sweep", "--config", cfg, "--jobs", "2"]) == 2
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["sweep", "--config", str(tmp_path / "none.json")]) == EXIT_CONFIG

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{jobs: [")
        assert main(["sweep", "--config", str(path)]) == EXIT_CONFIG

    @pytest.mark.parametrize("body", [[{"id": "1.3"}], "jobs", 3, None])
    def test_config_that_is_not_an_object(self, tmp_path, capsys, body):
        assert main(["sweep", "--config", self.write_config(tmp_path, body)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("configuration error:")

    def test_job_that_is_not_an_object(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, {"jobs": [["id", "1.3"]]})
        assert main(["sweep", "--config", cfg]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("configuration error:")

    @pytest.mark.parametrize("key", ["csv", "records", "cache"])
    def test_non_string_output_path_is_a_config_error(self, tmp_path, key):
        # An integer path would be opened as a file descriptor (1 is
        # stdout), so the check runs in a child process of its own.
        cfg = self.write_config(tmp_path, {
            "jobs": [{"id": "1.3", "k": [0], "n": [1], "q": [1]}], key: 1,
        })
        result = subprocess.run(
            [sys.executable, "-m", "lcong.cli", "sweep", "--config", cfg],
            capture_output=True, text=True,
        )
        assert result.returncode == EXIT_CONFIG
        assert result.stdout == ""
        assert result.stderr.splitlines() == [
            f"configuration error: '{key}' must be a path string, not 1"
        ]

    @pytest.mark.parametrize("shape", [
        {"chi": 5},
        {"chi": [[0, "x"]]},
        {"k": [1.5]},
        {"k": [True]},
        {"k": [{"a": 1}]},
        {"parity": 5},
    ], ids=["chi-int", "chi-string-image", "k-float", "k-bool", "k-object", "parity-int"])
    def test_malformed_job_shape_is_a_config_error(self, tmp_path, shape):
        cfg = self.write_config(tmp_path, {
            "jobs": [{"id": "1.4", "m": [3], "k": [1], "n": [1], "q": [1], **shape}],
        })
        result = subprocess.run(
            [sys.executable, "-m", "lcong.cli", "sweep", "--config", cfg],
            capture_output=True, text=True,
        )
        assert result.returncode == EXIT_CONFIG
        assert "Traceback" not in result.stderr
        [line] = result.stderr.splitlines()
        assert line.startswith("configuration error: job '1.4': ")

    def test_job_key_the_id_does_not_take_is_a_config_error(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, {
            "jobs": [{"id": "1.6", "p": [3], "m": [1], "k": [0], "n": [1], "q": [1], "h": [1]}],
        })
        assert main(["sweep", "--config", cfg]) == EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [
            "configuration error: job '1.6': 'h' is not a parameter of 1.6"
        ]

    def test_cache_integration(self, tmp_path, capsys):
        cache_path = tmp_path / "values.jsonl"
        cfg = self.write_config(tmp_path, {
            "jobs": [{"id": "1.4", "m": [3], "k": [1], "n": [1], "q": [1]}],
            "cache": str(cache_path),
        })
        assert main(["sweep", "--config", cfg]) == EXIT_OK
        assert cache_path.exists()
        assert main(["cache", "verify", "--path", str(cache_path)]) == EXIT_OK

    def test_probe_job_reports_failures(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, {
            "jobs": [{"id": "2.1x", "p": [2], "m": [1], "k": [1, 3], "n": [2, 3]}],
        })
        assert main(["sweep", "--config", cfg]) == EXIT_FAILURES


@pytest.mark.parametrize("job, axis, value", [
    ({"id": "1.4", "m": [3], "k": [1, 3], "n": [1], "q": [1]}, "k", -1),
    ({"id": "1.5", "m": [3], "k": [1, 3], "l": [1, 5], "n": [1, 2]}, "l", -3),
    ({"id": "1.6", "p": [3], "m": [2], "k": [0, 1, 2], "n": [1], "q": [1]}, "k", -2),
    ({"id": "1.8", "p": [3], "m": [2], "k": [0, 1], "h": [0, 3], "n": [1, 2]}, "k", -1),
    ({"id": "3.2", "p": [3], "m": [2], "a": [2], "k": [0, 1, 2, 3], "n": [2]}, "k", -2),
    ({"id": "nondiv", "p": [3, 5], "m": [2], "d": [0, 1]}, "d", -1),
    ({"id": "stern-iff", "k": [0, 2, 4], "l": [0, 4], "n": [1, 2]}, "k", -2),
], ids=lambda value: value["id"] if isinstance(value, dict) else None)
def test_negative_index_is_a_skip(tmp_path, capsys, job, axis, value):
    # A negative index is a hypothesis violation (DomainError): the sweep
    # exits as the non-negative grid does, with the negative points skipped.
    def run(name, job):
        config, csv, records = (tmp_path / f"{name}.{ext}" for ext in ("json", "csv", "jsonl"))
        config.write_text(json.dumps({"jobs": [job], "csv": str(csv), "records": str(records)}))
        code = main(["sweep", "--config", str(config)])
        lines = [json.loads(line) for line in records.read_text().splitlines()]
        return code, csv.read_text(), [r for r in lines if r["type"] == "skip"]

    code, csv, skips = run("base", job)
    negative_code, negative_csv, negative_skips = run("negative", {**job, axis: [value, *job[axis]]})
    assert (negative_code, negative_csv) == (code, csv)
    assert [s for s in negative_skips if s["params"][axis] != value] == skips
    assert any(s["params"][axis] == value for s in negative_skips)


class TestTableCommand:
    def test_euler_table(self, capsys):
        assert main(["table", "euler", "--max-k", "10"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "1385" in out and "-50521" in out

    def test_bernoulli_table(self, capsys):
        assert main(["table", "bernoulli", "--max-k", "12"]) == EXIT_OK
        assert "-691/2730" in capsys.readouterr().out

    def test_script_l_rows(self, capsys):
        assert main(["table", "script-l", "--p", "2", "--m", "3",
                     "--chi", "0,1", "--max-k", "3"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "-2" in out and "22" in out
        assert "undefined" in out  # same-parity rows reported, not fatal

    def test_generalized_bernoulli_rows(self, capsys):
        assert main(["table", "generalized-bernoulli", "--p", "2", "--m", "2",
                     "--chi", "1", "--max-k", "1"]) == EXIT_OK
        assert "-1/2" in capsys.readouterr().out

    def test_character_table_needs_modulus(self, capsys):
        assert main(["table", "l-values", "--max-k", "4"]) == EXIT_CONFIG

    def test_negative_max_k_is_a_config_error(self, capsys):
        assert main(["table", "bernoulli", "--max-k", "-1"]) == EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == ["configuration error: --max-k must be >= 0"]

    @pytest.mark.parametrize("flags, selection", [
        (["--m", "1"], "primitive character mod 2^1"),
        (["--m", "2", "--parity", "even"], "primitive even character mod 2^2"),
    ], ids=["no-character", "no-even-character"])
    def test_modulus_without_a_character_is_a_config_error(self, capsys, flags, selection):
        assert main(["table", "l-values", "--p", "2", *flags]) == EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [
            f"configuration error: table 'l-values': no {selection}"
        ]

    @pytest.mark.parametrize("flags, message", [
        (["--chi", "1", "--parity", "even"], "character 9:1 is odd, not even"),
        (["--chi="], "--chi must be 'e1,e2'"),
    ], ids=["odd-character-as-even", "empty-chi"])
    def test_chi_and_parity_read_as_verify_reads_them(self, capsys, flags, message):
        assert main(["table", "l-values", "--p", "3", "--m", "2", *flags]) == EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [
            f"configuration error: table 'l-values': {message}"
        ]
        verify = ["verify", "1.6", "--p", "3", "--m", "2", "--k", "0", "--n", "1", "--q", "1"]
        assert main([*verify, *flags]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("configuration error: ")


@pytest.mark.parametrize("argv", [
    ["verify", "1.4", "--m", "3", "--k", "1", "--n", "1", "--q", "1", "--cache"],
    ["verify", "1.4", "--m", "3", "--k", "1", "--n", "1", "--q", "1", "--csv"],
    ["verify", "1.4", "--m", "3", "--k", "1", "--n", "1", "--q", "1", "--records"],
    ["cache", "stat", "--path"],
    ["cache", "verify", "--path"],
    ["cache", "clear", "--path"],
], ids=["verify-cache", "verify-csv", "verify-records", "cache-stat", "cache-verify",
        "cache-clear"])
def test_a_directory_given_as_a_file_is_one_file_error(tmp_path, capsys, argv):
    directory = tmp_path / "dir"
    directory.mkdir()
    assert main([*argv, str(directory)]) == EXIT_INTERNAL
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("file error: ")
    assert [path.name for path in tmp_path.iterdir()] == ["dir"]  # no temporary left


class TestCacheCommand:
    def test_stat_clear_roundtrip(self, tmp_path, capsys):
        path = tmp_path / "values.jsonl"
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "jobs": [{"id": "1.4", "m": [3], "k": [1], "n": [1], "q": [1]}],
            "cache": str(path),
        }))
        main(["sweep", "--config", str(cfg)])
        main(["cache", "stat", "--path", str(path)])
        out = capsys.readouterr().out
        assert "entries" in out and "0 entries" not in out
        assert main(["cache", "clear", "--path", str(path)]) == EXIT_OK
        main(["cache", "stat", "--path", str(path)])
        assert "0 entries" in capsys.readouterr().out

    def test_corrupt_cache_exits_three(self, tmp_path, capsys):
        path = tmp_path / "values.jsonl"
        path.write_text("not json at all\n")
        assert main(["cache", "verify", "--path", str(path)]) == EXIT_INTERNAL

    @pytest.mark.parametrize("field, value, message", [
        ("coeffs", ["1/0", "0"], "coefficient '1/0' is not n or n/d with d > 0"),
        ("order", 3, "order 3 is not phi(2^3)"),
        ("m", 10**9, "modulus 2^1000000000 exceeds dlog table bound 200000"),
        ("p", 4, "4 is not prime"),
        ("chi", [0, 1, 5], "chi mod 2^3 needs 2 image exponent(s)"),
        # Records the writer never writes.
        ("coeffs", ["2"], "coeffs is not a list of 2 coefficient strings"),
        ("coeffs", "20", "coeffs is not a list of 2 coefficient strings"),
        ("coeffs", [True, 0.5], "coefficient True is not n or n/d with d > 0"),
        ("coeffs", ["2", "\u0661"], "coefficient '\u0661' is not n or n/d with d > 0"),
        ("k", 2.7, "p, m, k, order and chi [2, 3, 2.7, 4, 0, 1] are not all integers"),
        ("k", -3, "k -3 is negative"),
        ("p", True, "p, m, k, order and chi [True, 3, 2, 4, 0, 1] are not all integers"),
        ("chi", [0, 1.0], "p, m, k, order and chi [2, 3, 2, 4, 0, 1.0] are not all integers"),
        ("chi", "01", "p, m, k, order and chi [2, 3, 2, 4, '0', '1'] are not all integers"),
        ("chi", [0, 9], "chi [0, 9] is not reduced mod the generator orders [2, 2]"),
        ("coeffs", ["1,2"], "coeffs is not a list of 2 coefficient strings"),
        ("coeffs", ["2", 0], "coefficient 0 is not n or n/d with d > 0"),
        # Each refusal of the unit group mod p^m is a cache error too.
        ("m", 0, "2^0 is not a prime power p^m with m >= 1"),
        ("p", -2, "-2^3 is not a prime power p^m with m >= 1"),
        ("m", 18, "modulus 2^18 exceeds dlog table bound 200000"),
        ("p", 59, "modulus 205379 exceeds dlog table bound 200000"),
    ], ids=["zero-denominator", "wrong-order", "huge-modulus", "composite-p", "extra-exponent",
            "short-coeffs", "string-coeffs", "non-string-coeffs", "non-ascii-digit",
            "float-k", "negative-k", "bool-p", "float-exponent", "string-chi",
            "unreduced-exponent", "comma-in-coeff", "int-coeff",
            "zero-m", "negative-p", "m-above-bound", "modulus-above-bound"])
    def test_corrupt_record_is_a_cache_error(self, tmp_path, capsys, field, value, message):
        # A record for B_(2,chi), chi = 8:0,1, with one field broken.
        record = {"p": 2, "m": 3, "chi": [0, 1], "k": 2, "order": 4, "coeffs": ["2", "0"]}
        path = tmp_path / "values.jsonl"
        sweep = ["verify", "1.4", "--m", "3", "--k", "1", "--n", "1", "--q", "1",
                 "--cache", str(path)]
        # The broken record on line 1, keyed to a value the sweep looks up;
        # then on line 2, after that record intact, keyed to chi = 8:1,1,
        # which the sweep never looks up (1.4 skips it for its parity).
        # Every line is checked on load, so both forms fail the same way.
        unused = {**record, "chi": [1, 1], field: value}
        for text, lineno, expected in (
            (json.dumps({**record, field: value}) + "\n", 1, message),
            (json.dumps(record) + "\n" + json.dumps(unused) + "\n", 2,
             message.replace("4, 0, 1]", "4, 1, 1]")),
        ):
            path.write_text(text)
            for argv in (sweep, ["cache", "verify", "--path", str(path)]):
                assert main(argv) == EXIT_INTERNAL
                assert capsys.readouterr().err.splitlines() == [
                    f"cache error: corrupt cache record at line {lineno}: {expected}"
                ]

    @pytest.mark.parametrize("lineno", [1, 2])
    def test_undecodable_line_is_a_cache_error(self, tmp_path, capsys, lineno):
        valid = '{"p": 2, "m": 3, "chi": [0, 1], "k": 2, "order": 4, "coeffs": ["2", "0"]}\n'
        path = tmp_path / "values.jsonl"
        path.write_bytes(valid.encode() * (lineno - 1) + b"\xff\xfe\n")
        for argv in (
            ["verify", "1.4", "--m", "3", "--k", "1", "--n", "1", "--q", "1", "--cache", str(path)],
            ["cache", "stat", "--path", str(path)],
            ["cache", "verify", "--path", str(path)],
        ):
            assert main(argv) == EXIT_INTERNAL
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.splitlines() == [
                f"cache error: corrupt cache record at line {lineno}: 'utf-8' codec can't "
                "decode byte 0xff in position 0: invalid start byte"
            ]

    def test_stat_of_a_corrupt_cache_is_a_cache_error(self, tmp_path, capsys):
        path = tmp_path / "values.jsonl"
        path.write_text('{"p": 2, "m": 3, "chi": [0, 1], "k": 2, "order": 4, "coeffs": ["2"]}\n')
        assert main(["cache", "stat", "--path", str(path)]) == EXIT_INTERNAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "cache error: corrupt cache record at line 1: "
            "coeffs is not a list of 2 coefficient strings"
        ]

    def test_torn_last_line_is_recomputed(self, tmp_path, capsys):
        # A crash during an append leaves the last record without its
        # newline: the next sweep skips it, recomputes its value and
        # cuts it off before appending, so the file is valid again.
        path = tmp_path / "values.jsonl"
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "jobs": [{"id": "1.4", "m": [3], "k": [1, 3], "n": [1], "q": [1]}],
            "cache": str(path),
        }))
        assert main(["sweep", "--config", str(cfg)]) == EXIT_OK
        whole = path.read_text()
        path.write_text(whole[: len(whole) - len(whole.splitlines()[-1]) // 2])
        capsys.readouterr()
        assert main(["sweep", "--config", str(cfg)]) == EXIT_OK
        warnings = capsys.readouterr().err.splitlines()
        assert len(warnings) == 1
        assert f"unterminated last line {len(whole.splitlines())}" in warnings[0]
        assert path.read_text() == whole
        assert main(["cache", "verify", "--path", str(path)]) == EXIT_OK
        assert "0 mismatches" in capsys.readouterr().out

    def test_wrong_cached_value_is_recomputed(self, tmp_path, capsys):
        # A cache entry with a wrong B_(4,chi) flips 1.4 for chi = 8:0,1;
        # the failing sweep is run again without the cache, the fresh
        # verdict is reported, and the appended value heals the file.
        path = tmp_path / "values.jsonl"
        args = ["verify", "1.4", "--m", "3", "--chi", "0,1", "--k", "1",
                "--n", "1", "--q", "1", "--cache", str(path)]
        assert main(args) == EXIT_OK
        good = path.read_text()
        assert '"coeffs": ["-44", "0"], "k": 4' in good
        path.write_text(good.replace('["-44", "0"]', '["-45", "0"]'))
        capsys.readouterr()
        assert main(args) == EXIT_OK
        captured = capsys.readouterr()
        warnings = captured.err.splitlines()
        assert len(warnings) == 1
        assert warnings[0].startswith("warning: cached values changed 1.4 ")
        assert "holds=False" in warnings[0] and "holds=True" in warnings[0]
        assert "NO" not in captured.out
        lines = path.read_text().splitlines()
        assert len(lines) == 3 and '["-44", "0"]' in lines[-1]
        assert main(["cache", "verify", "--path", str(path)]) == EXIT_OK
        assert "0 mismatches" in capsys.readouterr().out
        assert main(args) == EXIT_OK
        assert capsys.readouterr().err == ""

    def test_wrong_cached_value_among_foreign_entries_is_recomputed(self, tmp_path, capsys,
                                                                    monkeypatch):
        # As above, with values for chi mod 16 in the file, which no 1.4 run
        # mod 8 builds: the recheck appends the one corrected line only.
        path = tmp_path / "values.jsonl"
        history = tmp_path / "history.json"
        history.write_text(json.dumps({"cache": str(path), "jobs": [
            {"id": "ernvall", "chi_p": [2], "chi_m": [4], "p": [3], "k": "1..6", "l": [1],
             "n": [1]},
        ]}))
        assert main(["sweep", "--config", str(history)]) == EXIT_OK
        args = ["verify", "1.4", "--m", "3", "--chi", "0,1", "--k", "1",
                "--n", "1", "--q", "1", "--cache", str(path)]
        assert main(args) == EXIT_OK
        good = path.read_text()
        assert good.count('["-44", "0"]') == 1
        path.write_text(good.replace('["-44", "0"]', '["-45", "0"]'))
        before = path.read_text().splitlines()
        capsys.readouterr()
        assert main(args) == EXIT_OK
        assert len(capsys.readouterr().err.splitlines()) == 1
        lines = path.read_text().splitlines()
        assert lines[:-1] == before and '["-44", "0"]' in lines[-1]

        # The recheck builds what it compares.  Here the first run serves
        # L*_1 from the memo, so the loaded B_(2,chi) is still unbuilt when
        # the fresh run computes it; it is built, found equal and not
        # appended again, and only the wrong B_(4,chi) is corrected.
        path.write_text("\n".join(before) + "\n")
        chi = character(2, 3, (0, 1))
        load_into = valuecache.load_into

        def load_then_serve_l1(file, memo):
            count = load_into(file, memo)
            memo._script_l[(chi.key(), 1)] = script_l(1, chi, BernoulliCache())
            return count

        monkeypatch.setattr(valuecache, "load_into", load_then_serve_l1)
        job = SweepJob("1.4", {"m": 3, "chi": "0,1", "k": 1, "n": 1, "q": 1})
        report = run_sweep(SweepConfig(jobs=(job,), cache_path=str(path)))
        assert report.all_hold
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert path.read_text().splitlines() == lines

    @pytest.mark.parametrize("limit", ["-1", "0"])
    def test_verify_limit_below_one_is_a_config_error(self, tmp_path, capsys, limit):
        path = tmp_path / "values.jsonl"
        assert main(["verify", "1.4", "--m", "3", "--chi", "0,1", "--k", "1", "--n", "1",
                     "--q", "1", "--cache", str(path)]) == EXIT_OK
        capsys.readouterr()
        assert main(["cache", "verify", "--path", str(path), "--limit", limit]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["configuration error: --limit must be >= 1"]

    def test_verify_limit_builds_only_the_entries_it_compares(self, tmp_path, monkeypatch,
                                                              capsys):
        path = tmp_path / "values.jsonl"
        assert main(["verify", "1.4", "--m", "3", "--k", "1,3,5", "--n", "1", "--q", "1",
                     "--cache", str(path)]) == EXIT_OK
        entries = valuecache.entry_count(path)
        assert entries > 2
        from_record = CyclotomicElement.from_record
        built = []

        def counted(order, coeffs):
            built.append(order)
            return from_record(order, coeffs)

        monkeypatch.setattr(CyclotomicElement, "from_record", counted)
        for argv, count in ((["--limit", "1"], 1), ([], entries)):
            built.clear()
            assert main(["cache", "verify", "--path", str(path), *argv]) == EXIT_OK
            assert "0 mismatches" in capsys.readouterr().out
            assert len(built) == count

    def test_verify_builds_one_unit_group_per_modulus(self, tmp_path, capsys):
        path = tmp_path / "values.jsonl"
        cache = BernoulliCache()
        for images in ((0, 1), (1, 1), (1, 3)):
            for k in (1, 2):
                cache.twisted_bernoulli(character(2, 11, images), k)
        assert valuecache.append_new(path, cache) == 6
        build_unit_group.cache_clear()
        assert main(["cache", "verify", "--path", str(path)]) == EXIT_OK
        assert "0 mismatches" in capsys.readouterr().out
        assert build_unit_group.cache_info().misses == 1

    def test_default_path_from_environment(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("LCONG_CACHE_DIR", str(tmp_path))
        assert main(["cache", "stat"]) == EXIT_OK
        assert str(tmp_path) in capsys.readouterr().out


#: The numeric flags of a 1.6 instance.
SHIFT = ("--k", "0", "--n", "1", "--q", "1")


class TestConsoleScript:
    def test_module_invocation(self):
        result = subprocess.run(
            [sys.executable, "-m", "lcong.cli", "verify", "stern",
             "--k", "0", "--n", "1", "--q", "1"],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        assert "stern" in result.stdout

    def test_modulus_above_table_bound_is_a_usage_error(self):
        # 3^12 exceeds the discrete-log table bound: ResourceLimitError.
        result = subprocess.run(
            [sys.executable, "-m", "lcong.cli", "verify", "1.6", "--p", "3",
             "--m", "12", "--k", "0", "--n", "1", "--q", "1"],
            capture_output=True, text=True,
        )
        assert result.returncode == EXIT_CONFIG
        assert result.stderr.splitlines() == [
            "error: modulus 531441 exceeds dlog table bound 200000"
        ]

    @pytest.mark.parametrize("argv, modulus", [
        (["verify", "1.6", "--p", "3", "--m", "100000000", *SHIFT], "3^100000000"),
        (["verify", "1.6", "--p", "3", "--m", "10000000", *SHIFT], "3^10000000"),
        (["verify", "1.6", "--p", "2305843009213693951", "--m", "1", *SHIFT],
         "2305843009213693951"),
        (["table", "l-values", "--p", "2305843009213693951", "--m", "1", "--chi", "1"],
         "2305843009213693951"),
        (["verify", "2.4", "--p", "3", "--m", "2", "--k", "1", "--n", "1000000000"],
         "3^1000000000"),
        (["verify", "2.1", "--p", "3", "--m", "1", "--k", "2", "--n", "40"], "3^40"),
        (["verify", "2.5", "--m", "3", "--k", "0", "--n", "60"], "2^60"),
        (["verify", "sun", "--k", "0", "--n", "60"], "2^60"),
        (["verify", "3.2", "--p", "3", "--m", "1", "--a", "2", "--k", "1", "--n", "30"], "3^30"),
    ], ids=["huge-m", "large-m", "huge-p", "table-huge-p", "sum-vanishing-n", "sum-lift-n",
            "sum-vanishing-two-n", "sun-n", "floor-sum-n"])
    def test_modulus_is_bounded_before_it_is_formed(self, argv, modulus):
        # m is bounded before p**m is formed, and p**m before p is
        # trial-divided; a sum over p^n terms bounds p^n the same way.  So
        # each of these exits at once.
        result = subprocess.run(
            [sys.executable, "-m", "lcong.cli", *argv],
            capture_output=True, text=True, timeout=2,
        )
        assert result.returncode == EXIT_CONFIG
        assert result.stderr.splitlines() == [
            f"error: modulus {modulus} exceeds dlog table bound 200000"
        ]

    def test_unexpected_error_exits_three_without_traceback(self):
        script = (
            "import sys\n"
            "import lcong.cli as cli\n"
            "def boom(*args, **kwargs):\n"
            "    raise RuntimeError('injected')\n"
            "cli.run_sweep = boom\n"
            "sys.exit(cli.main(['verify', 'stern', '--k', '0', '--n', '1', '--q', '1']))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
        )
        assert result.returncode == EXIT_INTERNAL
        assert "Traceback" not in result.stderr
        assert result.stderr.splitlines() == ["internal error: RuntimeError: injected"]
