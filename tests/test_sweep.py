import functools
import hashlib
import inspect
import io
import json
import math
import random
import re
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from lcong import DomainError, ParityError, UndefinedCaseError
from lcong.bernoulli import BernoulliCache
from lcong.characters import DirichletCharacter, build_unit_group, character, is_prime
from lcong.congruences import CongruenceVerdict
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
from lcong import bernoulli, characters, congruences, power_sums, sweep, valuecache
from lcong.cli import (
    EXIT_CONFIG, EXIT_FAILURES, EXIT_INTERNAL, EXIT_OK, build_parser, load_config, main,
)

import fraction_oracle as oracle


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
            run_sweep(SweepConfig(jobs=(SweepJob("9.9", {"k": [1]}),)), BernoulliCache())

    def test_empty_axis(self):
        with pytest.raises(ConfigError, match="missing or empty axis"):
            run_sweep(SweepConfig(jobs=(SweepJob("1.3", {"k": [], "n": [1], "q": [1]}),)),
                      BernoulliCache())

    def test_missing_axis(self):
        with pytest.raises(ConfigError):
            run_sweep(SweepConfig(jobs=(SweepJob("1.3", {"k": [0]}),)), BernoulliCache())

    def test_no_jobs(self):
        with pytest.raises(ConfigError):
            run_sweep(SweepConfig(jobs=()), BernoulliCache())

    def test_bad_parity(self):
        with pytest.raises(ConfigError):
            run_sweep(SweepConfig(jobs=(
                SweepJob("1.4", {"m": [3], "k": [1], "n": [1], "q": [1], "parity": "left"}),
            )), BernoulliCache())

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
            run_sweep(load_config(config), BernoulliCache())
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
        points = [args for _, _, args, _ in expand_job(job)]
        assert points == [(2, 1, 1), (0, 1, 1)]  # stern takes (k, n, q); given order preserved

    def test_character_axes(self):
        job = SweepJob("1.4", {"m": [3], "k": [1], "n": [1], "q": [1]})
        instances = list(expand_job(job))
        assert len(instances) == 2  # two primitive characters mod 8
        assert all(args[1:] == (1, 1, 1) and head == (f'"{args[0].label()}"', 2, 3)
                   for _, _, args, head in instances)


    def test_named_characters_are_built_once_each_in_enumeration_order(self, monkeypatch):
        # [1, 11] reduces to [1, 3] mod 32, and [0, 1] comes twice; nothing
        # is enumerated, so the family's size does not matter.
        monkeypatch.setattr(sweep, "enumerate_characters", None)
        job = SweepJob("2.3", {"p": [2], "m": [5], "chi": [[1, 3], [0, 1], [1, 11], [0, 1]]})
        assert [args[0].label() for _, _, args, _ in expand_job(job)] == ["32:0,1", "32:1,3"]


@functools.cache
def _enumerated_family(char_mode, p, m):
    if char_mode == "primitive":
        return characters.enumerate_primitive(p, m)
    family = characters.enumerate_characters(p, m)
    if char_mode == "vanishing":
        return [chi for chi in family if congruences.vanishing_character_ok(chi)]
    return family


def _selected_by_enumeration(spec, job):
    """What a job selects when each (p, m)'s whole family is enumerated and
    then kept by the keys ``chi`` names and by parity: the oracle of the
    named-character route."""
    p_axis, m_axis = spec.char_axes
    parity, named, out = job.params.get("parity"), job.params.get("chi"), []
    for p in [spec.prime] if spec.prime else job.axis(p_axis):
        for m in job.axis(m_axis):
            family = _enumerated_family(spec.char_mode, p, m)
            if named is not None:
                group = build_unit_group(p, m)
                keys = {DirichletCharacter(group, tuple(images)).key()
                        for images in named if len(images) == len(group.generators)}
                family = [chi for chi in family if chi.key() in keys]
            out.extend(chi for chi in family if parity in (None, chi.parity()))
    if not out:
        raise ConfigError(f"job '{job.id}': selects no character")
    return out


def _selection(select, spec, job):
    try:
        return [chi.key() for chi in select(spec, job)]
    except ConfigError as exc:
        return str(exc)


#: Every prime power up to 81.
_SMALL_MODULI = [(p, m) for p in range(2, 82) if is_prime(p) for m in range(1, 7) if p**m <= 81]


@pytest.mark.parametrize("id_", ["2.3", "2.1", "2.4", "1.4", "2.5", "ernvall"])
def test_named_characters_match_the_enumerated_family(id_):
    # One id per (family, fixed prime, character axes); every modulus up to
    # 81 alone without chi, then random chi lists over one or two moduli with
    # unreduced exponents, duplicates, wrong-length entries and empty lists.
    spec, rng = lookup(id_), random.Random(id_)
    p_axis, m_axis = spec.char_axes
    moduli = [(p, m) for p, m in _SMALL_MODULI if spec.prime in (None, p)]
    primes = sorted({p for p, _ in moduli})
    jobs = [{p_axis: [p], m_axis: [m for q, m in moduli if q == p]} for p in primes]
    for _ in range(60):
        ps = rng.sample(primes, min(len(primes), rng.choice((1, 1, 2))))
        ms = [m for m in range(1, 7) if max(ps)**m <= 81]
        ms = rng.sample(ms, min(len(ms), rng.choice((1, 1, 2))))
        named = []
        for _ in range(rng.randrange(5)):
            generators = build_unit_group(rng.choice(ps), rng.choice(ms)).generators
            images = [rng.randrange(-2 * order, 3 * order) for _, order in generators]
            named.append(rng.choice((images, images, images, images[1:], [*images, 0])))
            if rng.random() < 0.3:
                named.append(rng.choice(named))
        jobs.append({p_axis: ps, m_axis: ms, "chi": named})
    for params in jobs:
        if spec.prime:
            del params[p_axis]
        for parity in (None, "even", "odd"):
            job = SweepJob(id_, {**params, "parity": parity})
            assert (_selection(sweep._select_characters, spec, job)
                    == _selection(_selected_by_enumeration, spec, job)), job


class TestRunSweep:
    def test_stern_job(self):
        report = run_sweep(stern_config(), BernoulliCache())
        assert report.summary["total"] == 12
        assert report.summary["fails"] == 0
        assert report.all_hold
        assert report.summary["per_id"]["stern"]["min_margin"] >= 2

    def test_out_of_hypothesis_points_become_skips(self):
        report = run_sweep(SweepConfig(jobs=(
            SweepJob("1.4", {"m": [3], "k": [0, 1], "n": [1], "q": [1]}),
        )), BernoulliCache())
        assert report.summary["skips"] == 2  # parity mismatches
        assert report.summary["fails"] == 0
        assert all(json.loads(s)["reason"] for s in report.skips)

    @pytest.mark.parametrize("jobs", [
        (SweepJob("2.2", {"p": [3], "m": [2], "k": [0, 1, 2], "a": [1, 2, 3, 4]}),),
        (SweepJob("2.1x", {"p": [2], "m": [1], "k": [1, 3], "n": [2, 3]}),  # failing verdicts
         SweepJob("1.4", {"m": [3], "k": [0, 1], "n": [1], "q": [1]}),  # parity skips
         SweepJob("euler-kummer", {"p": [3], "k": [2], "l": [2]}),  # margin inf
         SweepJob("lerch", {"a": [2], "n": [6]})),  # every instance skipped
    ], ids=["one-id", "fails-skips-inf-all-skipped"])
    def test_summary_counts_match_lists(self, jobs):
        # The summary is counted as the sweep runs; recount it from the lists.
        report = run_sweep(SweepConfig(jobs=jobs), BernoulliCache())
        per_id, skips = {}, [json.loads(line) for line in report.skips]
        for id_ in {*(v.id for v in report.verdicts), *(s["id"] for s in skips)}:
            verdicts = [v for v in report.verdicts if v.id == id_]
            per_id[id_] = {
                "total": len(verdicts),
                "holds": sum(v.holds for v in verdicts),
                "fails": sum(not v.holds for v in verdicts),
                "skips": sum(s["id"] == id_ for s in skips),
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

    def test_one_exception_family(self, memo):
        assert issubclass(ParityError, DomainError)
        assert issubclass(UndefinedCaseError, DomainError)
        assert DomainError is power_sums.DomainError is bernoulli.DomainError
        assert DomainError is characters.DomainError
        assert DomainError.__module__ == "lcong.characters"
        with pytest.raises(DomainError, match="same parity"):
            congruences.verify_lvalue_shift_two(character(2, 3, (0, 1)), k=2, n=1, q=1, cache=memo)
        with pytest.raises(DomainError, match="undefined for conductor 3"):
            congruences.check_nondivisibility(character(3, 1, (1,)), 0, memo)

    def test_parity_undefined_and_coprimality_failures_are_skips(self):
        report = run_sweep(SweepConfig(jobs=(
            SweepJob("1.5", {"m": [3], "k": [1], "l": [0], "n": [1]}),
            SweepJob("nondiv", {"p": [3], "m": [1], "d": [0]}),
            SweepJob("lerch", {"a": [2], "n": [6]}),
        )), BernoulliCache())
        parity = "k and l must both have parity opposite to chi"
        assert [(s["id"], s["params"], s["reason"]) for s in map(json.loads, report.skips)] == [
            ("1.5", {"chi": "8:0,1", "p": 2, "m": 3, "k": 1, "l": 0, "n": 1}, parity),
            ("1.5", {"chi": "8:1,1", "p": 2, "m": 3, "k": 1, "l": 0, "n": 1}, parity),
            ("nondiv", {"chi": "3:1", "p": 3, "m": 1, "d": 0},
             "normalized L-value undefined for conductor 3^1"),
            ("lerch", {"a": 2, "n": 6}, "a=2 must be coprime to n=6"),
        ]
        assert report.verdicts == []
        assert {id_: row["skips"] for id_, row in report.summary["per_id"].items()} == {
            "1.5": 2, "nondiv": 1, "lerch": 1,
        }


def test_tracer_hooks_see_every_call(monkeypatch, tmp_path):
    # The benchmark tracer wraps module attributes: the sweep must look each
    # registry entry's verifier up on the congruences module, and it must
    # enumerate a whole family through its own `enumerate_characters`, which
    # the tracer wraps as `characters.enumerate`, or its per-layer metrics
    # silently read 0.
    verified = []
    verify = congruences.verify_lvalue_shift_two

    def counting(*args, **kwargs):
        verified.append(args)
        return verify(*args, **kwargs)

    moduli = []
    enumerate_characters = sweep.enumerate_characters

    def recording(p, m):
        moduli.append((p, m))
        return enumerate_characters(p, m)

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

    # A 1.4 verdict makes one element difference, L*_(k+2^n q) - L*_k,
    # through CyclotomicElement.__sub__, and a 3.2 verdict one floor sum,
    # through congruences.floor_weighted_sum, or `cyclotomic.addsub.*` and
    # `power_sums.floor_weighted_sum.*` read 0.
    floor_sums, subs = [], []
    floor_sum, sub = congruences.floor_weighted_sum, CyclotomicElement.__sub__

    def summing(*args):
        floor_sums.append(args)
        return floor_sum(*args)

    def subtracting(self, other):
        subs.append(other)
        return sub(self, other)

    monkeypatch.setattr(congruences, "verify_lvalue_shift_two", counting)
    monkeypatch.setattr(sweep, "enumerate_characters", recording)
    monkeypatch.setattr(sweep, "expand_job", expanding)
    monkeypatch.setattr(sweep, "write_records", writing)
    monkeypatch.setattr(congruences, "floor_weighted_sum", summing)
    monkeypatch.setattr(CyclotomicElement, "__sub__", subtracting)
    records = str(tmp_path / "out.jsonl")
    report = run_sweep(SweepConfig(jobs=(
        SweepJob("1.4", {"m": "3..4", "k": "0..3", "n": [1], "q": [1]}),
    ), records_path=records), cache=BernoulliCache())
    assert moduli == [(2, 3), (2, 4)]
    assert report.verdicts and report.skips
    assert len(verified) == len(report.verdicts) + len(report.skips)
    assert expanded == ["1.4"] and len(written) == 1
    assert len(subs) == len(report.verdicts)
    floor_sums.clear()
    report = run_sweep(SweepConfig(jobs=(
        SweepJob("3.2", {"p": [2, 3], "m": [1, 2], "a": [1, 2], "k": "0..3", "n": [2]}),
    )), cache=BernoulliCache())
    assert report.verdicts and report.skips
    assert len(floor_sums) == len(report.verdicts)


def test_a_grid_point_repeats_no_value_work(monkeypatch):
    # A cost guard over the 1.4 + 1.5 grids at m = 3..4, whose points share
    # their L-values: each L(-k, chi) forms its scalar product,
    # B_(k+1,chi) / -(k+1), once for the whole sweep, and the JSONL writer
    # renders the text of each distinct element object once.
    divisions, texts = {}, {}
    divide, element_text = CyclotomicElement.__truediv__, sweep._element_text

    def counted_division(self, other):
        divisions[id(self), other] = divisions.get((id(self), other), 0) + 1
        return divide(self, other)

    def counted_text(x):
        texts[id(x)] = texts.get(id(x), 0) + 1
        return element_text(x)

    monkeypatch.setattr(CyclotomicElement, "__truediv__", counted_division)
    monkeypatch.setattr(sweep, "_element_text", counted_text)
    cache = BernoulliCache()
    report = run_sweep(SweepConfig(jobs=(
        SweepJob("1.4", {"m": "3..4", "k": "0..8", "n": "1..2", "q": [1, 3]}),
        SweepJob("1.5", {"m": "3..4", "k": "0..8", "l": "0..8", "n": "1..2"}),
    )), cache=cache)
    assert report.all_hold and report.skips
    assert len(divisions) == len(cache._l_values) > 0
    assert set(divisions.values()) == {1}
    rendered(write_records, report)
    sides = {id(side) for v in report.verdicts for side in (v.lhs, v.rhs)}
    assert set(texts) == sides and set(texts.values()) == {1}
    assert len(sides) < len(report.verdicts)  # the sides do repeat


def test_a_skip_is_its_line(monkeypatch):
    # A cost guard over a skip-heavy 1.5 + 1.4 sweep at m = 3..4: each
    # instance is one run_instance call, a skip is written as the line its
    # spec rendered (json_text runs for the header, the summary and each
    # verdict's params, never for a skip), and the skip lines follow the
    # verdicts in grid order.
    jobs = (SweepJob("1.5", {"m": "3..4", "k": "0..8", "l": "0..8", "n": "1..2"}),
            SweepJob("1.4", {"m": "3..4", "k": "0..8", "n": "1..2", "q": [1, 3]}))
    run, encoder, calls, encoded = sweep.run_instance, valuecache._encoder, [], []

    def counting(*args):
        calls.append(args[2])
        return run(*args)

    def counted_encoder(value, level):
        encoded.append(value)
        return encoder(value, level)

    monkeypatch.setattr(sweep, "run_instance", counting)
    report = run_sweep(SweepConfig(jobs=jobs), cache=BernoulliCache())
    instances = [instance for job in jobs for instance in expand_job(job)]
    assert calls == [args for _, _, args, _ in instances]
    assert len(report.skips) > 2 * len(report.verdicts) > 0
    monkeypatch.setattr(valuecache, "_encoder", counted_encoder)
    lines = [json.loads(line) for line in rendered(write_records, report).splitlines()[1:-1]]
    assert len(encoded) <= len(report.verdicts) + 2
    # The slow route: each instance's verifier called directly, its
    # hypothesis failures turned into skip records by hand.
    skipped, cache = [], BernoulliCache()
    for spec, verify, args, _ in instances:
        try:
            verify(*args, cache)
        except DomainError as exc:
            chi, point = args[0], dict(zip(spec.numeric_axes, args[1:]))
            skipped.append({"type": "skip", "id": spec.id, "reason": str(exc),
                            "params": {"chi": chi.label(), "p": chi.p, "m": chi.m, **point}})
    assert [line["type"] for line in lines[:len(report.verdicts)]] == ["verdict"] * len(report.verdicts)
    assert lines[len(report.verdicts):] == skipped


class TestReports:
    def test_csv_deterministic(self):
        first, second = (rendered(write_csv, run_sweep(stern_config(), BernoulliCache()))
                         for _ in range(2))
        assert first == second

    def test_records_deterministic_modulo_header(self):
        r1, r2 = (rendered(write_records, run_sweep(stern_config(), BernoulliCache())).splitlines()
                  for _ in range(2))
        assert "timestamp" in json.loads(r1[0])  # the clock reaches the header only
        assert r1[1:] == r2[1:]        # bodies byte-identical

    def test_records_carry_exact_sides(self):
        lines = rendered(write_records, run_sweep(stern_config(), BernoulliCache())).splitlines()
        verdicts = [json.loads(l) for l in lines if '"type": "verdict"' in l]
        assert verdicts
        for v in verdicts:
            assert set(v["lhs"]) == {"order", "coeffs"}
            int(v["lhs"]["coeffs"][0])  # exact integer string

    def test_infinite_margin_serialization(self):
        report = run_sweep(SweepConfig(jobs=(
            SweepJob("euler-kummer", {"p": [3], "k": [2], "l": [2]}),
        )), BernoulliCache())
        assert "inf" in rendered(write_csv, report)
        # every record line must be strict JSON (no bare Infinity tokens)
        for line in rendered(write_records, report).splitlines():
            assert "Infinity" not in line
            json.loads(line)

    def test_table_text_summary_line(self):
        text = table_text(run_sweep(stern_config(), BernoulliCache()))
        assert "total=12 holds=12 fails=0" in text

    def test_written_files(self, tmp_path):
        csv_path = tmp_path / "out.csv"
        rec_path = tmp_path / "out.jsonl"
        run_sweep(stern_config(csv_path=str(csv_path), records_path=str(rec_path)),
                  BernoulliCache())
        assert csv_path.read_text().startswith("id,branch,chi")
        first = json.loads(rec_path.read_text().splitlines()[0])
        assert first["type"] == "header" and "timestamp" in first


# Text with the characters JSON escapes: a quote, a backslash, controls
# and non-ASCII; and %, which a skip line's %-template must pass through.
escaped_text = st.text(alphabet=st.sampled_from('ab:,%"\\\n\x01\u00e9\u2013\U0001f600'), max_size=6)
param_values = st.one_of(st.integers(-10**20, 10**20), st.booleans(), escaped_text,
                         st.floats(allow_nan=False))
params = st.dictionaries(st.one_of(st.sampled_from(["chi", "k", "n", "congruent", "expected"]),
                                   escaped_text), param_values, max_size=5)
elements = st.builds(
    oracle.to_element, st.sampled_from([1, 4, 8, 12]),
    st.lists(st.fractions(min_value=-50, max_value=50, max_denominator=30), max_size=4))
verdicts = st.builds(
    CongruenceVerdict, id=st.one_of(st.sampled_from(registered_ids()), escaped_text),
    params=params, holds=st.booleans(), required_modulus_exponent=st.integers(0, 10**6),
    observed_margin=st.one_of(st.integers(-5, 60), st.just(math.inf)),
    lhs=elements, rhs=elements, branch=st.sampled_from([None, "i", "ii", "iff"]))
ints = st.integers(-10**20, 10**20)


@st.composite
def skip(draw, spec):
    """A skip of ``spec`` at drawn values, as its spec's line and as the
    dict the writer built for JSONEncoder(sort_keys=True).encode before a
    skip was its line: the keys are the spec's own instance keys, ``chi``
    and its two axes included with a family."""
    reason = draw(escaped_text.map(lambda text: f'{text} "\\\u00e9'))
    numeric = tuple(draw(ints) for _ in spec.numeric_axes)
    params, head, args = dict(zip(spec.numeric_axes, numeric)), (), numeric
    if spec.char_mode:
        label, p, m = draw(escaped_text), draw(ints), draw(ints)
        params.update({"chi": label, spec.char_axes[0]: p, spec.char_axes[1]: m})
        head, args = (json.dumps(label), p, m), (object(), *numeric)  # chi is not printed
    record = {"type": "skip", "id": spec.id, "params": params, "reason": reason}
    return spec.id, spec.skip_line(head, args, reason), record


# One drawn skip of every registered spec.
skips = st.tuples(*(skip(lookup(id_)) for id_ in registered_ids()))


def legacy_record(result) -> dict:
    """A verdict line's dict, as the writer built it for
    JSONEncoder(sort_keys=True).encode."""
    return {
        "type": "verdict", "id": result.id, "branch": result.branch, "params": result.params,
        "holds": result.holds, "required_exponent": result.required_modulus_exponent,
        "observed_margin": "inf" if result.observed_margin == math.inf
        else str(result.observed_margin),
        "lhs": result.lhs.record(), "rhs": result.rhs.record(),
    }


@settings(max_examples=100, deadline=None)
@given(st.lists(verdicts, max_size=3), skips)
def test_record_lines_match_the_sort_keys_encoder(drawn_verdicts, drawn_skips):
    # The fixed-key line writer and every spec's skip template against the
    # generic encoder, line by line; the one-encoder json_text against it
    # on the same values.
    encode = json.JSONEncoder(sort_keys=True).encode
    report = sweep.SweepReport(config={"jobs": []})
    for verdict in drawn_verdicts:
        report.add(verdict.id, verdict)
    for id_, line, _ in drawn_skips:
        report.add(id_, line)
    lines = rendered(write_records, report).splitlines()
    records = [*map(legacy_record, drawn_verdicts), *(record for _, _, record in drawn_skips)]
    assert lines[1:-1] == [encode(record) for record in records]
    assert all(line.endswith("\n") for _, line, _ in drawn_skips)
    for record in records:
        assert valuecache.json_text(record) == encode(record)
        assert all(valuecache.json_text(value) == encode(value) for value in record.values())
    for line in lines[0], lines[-1]:
        assert valuecache.json_text(json.loads(line)) == encode(json.loads(line)) == line


def test_file_writers_stream_what_the_views_collect(tmp_path):
    """`write_records` and `write_csv` write to an open file the very lines
    they write to an in-memory stream, one at a time: the memory traced
    while the records are written stays below half of the bytes written."""
    report = run_sweep(SweepConfig(jobs=(SweepJob("lerch", {"a": "1..100", "n": "1..60"}),)),
                       BernoulliCache())
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
def test_registry_entry_fits_its_verifier(id_, monkeypatch):
    """An entry names a congruences function whose arguments other than
    ``cache`` are all instance keys (an axis, ``chi`` or a character axis),
    since run_instance passes each of them; its region predicate exists,
    and every axis is a `lcong verify` flag.  The arguments are ``chi``
    exactly when the entry has a character family, then the numeric axes in
    grid order, then optionally ``cache``, since run_instance passes them
    all by position; a verifier that breaks this is refused at
    registration."""
    spec = lookup(id_)
    parameters = inspect.signature(getattr(congruences, spec.verifier)).parameters
    keys = {*spec.axes, *(("chi", *spec.char_axes) if spec.char_mode else ())}
    required = {name for name, param in parameters.items()
                if param.default is param.empty and name != "cache"}
    assert spec.arguments == tuple(parameters)
    assert spec.keys == tuple(name for name in spec.arguments if name != "cache")
    assert required <= set(spec.arguments) - {"cache"} <= keys
    grid_numeric = [axis for axis in spec.axes if not spec.char_mode or axis not in spec.char_axes]
    assert spec.keys == (*(("chi",) if spec.char_mode else ()), *grid_numeric)
    assert spec.numeric_axes == tuple(grid_numeric)
    family = "all" if spec.char_mode is None else None
    with pytest.raises(ValueError, match="must take"):  # chi taken without a family, or missing
        sweep.CongruenceSpec(id_, (), spec.verifier, char_mode=family)
    # cache not last; an axis ahead of chi, or chi without a family; a
    # character axis among the numeric ones, or chi last without a family.
    for names in (("cache", *spec.keys), ("x" if spec.char_mode else "chi", *spec.keys),
                  (*spec.keys, spec.char_axes[0] if spec.char_mode else "chi")):
        namespace = {}
        exec(f"def misordered({', '.join(names)}): pass", namespace)
        monkeypatch.setattr(congruences, "misordered", namespace["misordered"], raising=False)
        with pytest.raises(ValueError, match="must take"):
            sweep.CongruenceSpec(id_, (), "misordered", char_mode=spec.char_mode,
                                 char_axes=spec.char_axes, prime=spec.prime, region=spec.region)
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
        verdicts = run_sweep(SweepConfig(jobs=(SweepJob("2.1", grid),)), BernoulliCache()).verdicts
        assert verdicts and all(v.holds for v in verdicts)

    def test_vanishing_covers_both_forms(self):
        # 2.4's p^(n-1) divisibility, and over p = 2 the full 2^n form 2.5
        grid = {"m": [2], "k": [0, 2], "n": [2, 3]}
        jobs = (SweepJob("2.4", {"p": [2, 3], **grid}), SweepJob("2.5", grid))
        verdicts = run_sweep(SweepConfig(jobs=jobs), BernoulliCache()).verdicts
        assert {v.id for v in verdicts} == {"2.4", "2.5"}
        assert all(v.holds for v in verdicts)

    def test_order_lemma(self):
        job = SweepJob("2.3", {"p": [2, 3], "m": [3, 2]})
        verdicts = run_sweep(SweepConfig(jobs=(job,)), BernoulliCache()).verdicts
        assert verdicts and all(v.holds for v in verdicts)


class TestValueCache:
    JOB = SweepJob("1.4", {"m": [3], "k": [1, 3], "n": [1], "q": [1]})

    def _sweep_with_cache(self, path, **reports):
        return run_sweep(SweepConfig(jobs=(self.JOB,), cache_path=str(path), **reports),
                         BernoulliCache())

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
        # run_sweep loads and appends the file its config names, as the
        # command does.
        library, command = tmp_path / "library.jsonl", tmp_path / "command.jsonl"
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"jobs": [{"id": self.JOB.id, **self.JOB.params}],
                                      "cache": str(command)}))
        for run in (1, 2):
            self._sweep_with_cache(library)
            assert main(["sweep", "--config", str(config)]) == EXIT_OK
            if run == 1:
                written = library.read_bytes()
        assert library.read_bytes() == command.read_bytes() == written  # run 2 appended nothing

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
    valuecache.append_new(path, filled.take_new())
    uncached = BernoulliCache()
    expected = rendered(write_csv, run_sweep(SweepConfig(jobs=(job,)), cache=uncached))
    used = set(uncached._twisted)

    warm = BernoulliCache()
    eager = {key: build() for key, build in valuecache._builders(path).items()}
    assert valuecache.load_into(path, warm) == len(eager)
    assert rendered(write_csv, run_sweep(SweepConfig(jobs=(job,)), cache=warm)) == expected
    assert not warm.take_new() and set(warm._twisted) == set(eager)
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
