"""Tests of the benchmark itself: `python3 -m pytest perfbench`.

The traced-sweep tests run one traced sweep per workload (about half a
minute in all) and check the baseline trace against what the workloads
are built to exercise.
"""

from __future__ import annotations

import json
import tempfile
import threading
import time
from pathlib import Path

import pytest

import run
import tracer
import workloads


def test_seed_zero_gives_the_defaults_and_seeds_repeat():
    config = workloads.sweep_config("two-power-cold", 0)
    assert config["jobs"][2]["a"] == [1, 2, 4, 5]
    assert workloads.sweep_config("lemma-wide", 0)["jobs"][-1]["chi"] == [[1, 1], [1, 3]]
    for name in workloads.WORKLOADS:
        assert workloads.sweep_config(name, 7) == workloads.sweep_config(name, 7)
    assert workloads.sweep_config("two-power-cold", 7) != config
    # The draw keeps the default's shape: two values prime to 6, two even.
    a = workloads.sweep_config("two-power-cold", 7)["jobs"][2]["a"]
    assert [x % 2 for x in a] == [1, 1, 0, 0] and all(x % 3 for x in a)


def test_benchmark_json_names_what_the_benchmark_emits():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END_UNITS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert set(json.loads(run.REFERENCES.read_text())) == set(workloads.WORKLOADS)


def test_times_are_scaled_to_the_reference_host_speed():
    ref = run.REFERENCE_PROBE_S
    result = run.Result("odd-shift-warm", 0, walls=[3.0, 4.0, 9.0], rss=[20.0, 30.0, 40.0],
                        probes=[ref, 3 * ref], setup_s=[1.0, 2.0, 3.0],
                        setup_probes=[ref, ref, 2 * ref, 4 * ref])
    # Medians of the times, each scaled by the mean of its own probes.
    assert result.end_to_end() == pytest.approx(
        {"wall_s": 2.0, "peak_rss_mib": 30.0, "setup_s": 1.0})


def test_self_times_add_up_to_the_outermost_span_per_thread():
    t = tracer.Tracer()

    def leaf():
        time.sleep(0.002)

    leaf = t.wrap("leaf", leaf)

    def middle():
        leaf()
        leaf()
        time.sleep(0.001)

    middle = t.wrap("middle", middle)

    def root():
        worker = threading.Thread(target=middle)
        worker.start()
        middle()
        worker.join(timeout=10)
        assert not worker.is_alive()

    root = t.wrap("root", root, record=True)
    root()
    trace = json.loads(json.dumps(t.dump()))
    main = [th for th in trace["threads"] if th["main"]]
    assert len(main) == 1 and len(trace["threads"]) == 2
    assert tracer.main_thread_self_s(trace) == pytest.approx(main[0]["agg"]["root"][2], abs=1e-9)
    assert sum(calls for th in trace["threads"] for calls, _, _ in [th["agg"]["leaf"]]) == 4


@pytest.fixture(scope="module")
def baseline_traces():
    traces = {}
    run.WORK.mkdir(exist_ok=True)
    references = json.loads(run.REFERENCES.read_text())
    for name in workloads.WORKLOADS:
        with tempfile.TemporaryDirectory(dir=run.WORK, prefix="test-") as tmp:
            prepared = run.prepare(name, 0, Path(tmp), repeats=1, min_s=0)
            sweep = run.run_sweep(prepared, Path(tmp), traced=True)
            reference = run.Reports(**references[name]["seed0"])
            assert run.gate(sweep, references[name], reference, None, False)[0] == []
            traces[name] = json.loads((sweep.dir / "trace.json").read_text())
    return traces


def test_witness_runs_only_on_odd_shift(baseline_traces):
    calls = {name: tracer.layer_metrics(trace)["congruences.unit_branch_witness.calls"]
             for name, trace in baseline_traces.items()}
    assert calls["odd-shift-warm"] > 0
    assert calls["two-power-cold"] == 0
    assert calls["lemma-wide"] == 0


def test_twisted_values_come_from_the_warm_cache(baseline_traces):
    warm = tracer.layer_metrics(baseline_traces["odd-shift-warm"])
    assert warm["bernoulli.twisted.calls"] > 0
    assert warm["bernoulli.twisted.computed"] == 0
    assert warm["valuecache.loaded"] > warm["bernoulli.twisted.calls"] / 2
    cold = tracer.layer_metrics(baseline_traces["two-power-cold"])
    # Pool threads may both compute a value the other is computing.
    assert cold["bernoulli.twisted.computed"] >= cold["valuecache.appended"] > 0


def test_lemmas_bypass_bernoulli(baseline_traces):
    lemma = tracer.layer_metrics(baseline_traces["lemma-wide"])
    assert lemma["bernoulli.twisted.calls"] == 0
    assert lemma["power_sums.power_sum.calls"] > 0
    assert lemma["characters.enumerated"] >= 1024 // 2


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_layer_self_times_sum_to_cli_main(baseline_traces, name):
    trace = baseline_traces[name]
    main_s = tracer.layer_metrics(trace)["cli.main_s"]
    assert tracer.main_thread_self_s(trace) == pytest.approx(main_s, rel=1e-9)


def test_only_the_pool_workload_runs_instances_off_the_main_thread(baseline_traces):
    def instance_threads(trace):
        return sum(1 for th in trace["threads"] if "sweep.instance" in th["agg"])

    assert instance_threads(baseline_traces["two-power-cold"]) == 2
    for name in ("odd-shift-warm", "lemma-wide"):
        assert instance_threads(baseline_traces[name]) == 1
        concurrency = tracer.layer_metrics(baseline_traces[name])["sweep.concurrency"]
        assert concurrency == pytest.approx(1, abs=0.02)


def test_a_seeded_sweep_keeps_the_rows_of_the_unsampled_jobs():
    name = "two-power-cold"
    references = json.loads(run.REFERENCES.read_text())[name]
    run.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK, prefix="test-") as tmp:
        prepared = run.prepare(name, 5, Path(tmp), repeats=1, min_s=0)
        sweep = run.run_sweep(prepared, Path(tmp), traced=False)
        reference = run.Reports(**references["seed0"])
        problems, got = run.gate(sweep, references, reference, None, True)
        assert problems == []
        # The redrawn 3.2 rows do differ, so the full check would fail.
        assert got.csv_sha256 != reference.csv_sha256
        assert run.gate(sweep, references, reference, None, False)[0] != []
