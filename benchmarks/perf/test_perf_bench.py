"""Tests of the perf benchmark: estimator arithmetic and a smoke run per workload."""

from __future__ import annotations

import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

import compare
import measure
import pytest
import run
import workloads

BENCH_DIR = Path(__file__).resolve().parent
CONTRACT = json.loads((BENCH_DIR.parents[1] / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


# --- estimators ----------------------------------------------------------------


def test_normalise_rescales_by_the_mean_probe():
    nominal = measure.PROBE_NOMINAL_S
    assert measure.normalise(2.0, nominal, nominal) == pytest.approx(2.0)
    # The machine ran at half speed around the pass: half the seconds count.
    assert measure.normalise(2.0, 2 * nominal, 2 * nominal) == pytest.approx(1.0)
    assert measure.normalise(2.0, nominal, 3 * nominal) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        measure.speed_factor(0.0, 0.0)


def test_summary_matches_the_drivers_quartiles():
    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert measure.summary(values) == {"median": 3.0, "q1": q1, "q3": q3, "n": 7}
    assert measure.spread(values) == pytest.approx((q3 - q1) / 3.0)
    assert measure.summary([2.5]) == {"median": 2.5, "q1": 2.5, "q3": 2.5, "n": 1}


def test_median_of_normalised_samples_ignores_a_slow_phase():
    nominal = measure.PROBE_NOMINAL_S
    fast = [measure.normalise(1.0, nominal, nominal) for _ in range(5)]
    slow = [measure.normalise(1.5, 1.5 * nominal, 1.5 * nominal) for _ in range(4)]
    assert measure.summary(fast + slow)["median"] == pytest.approx(1.0)


def test_self_time_is_span_minus_direct_children():
    spans = [
        ("pass", 0.0, 10.0, -1, ""),
        ("read", 1.0, 5.0, 0, "a"),
        ("basecall", 1.5, 2.5, 1, "a"),
        ("seed", 3.0, 4.5, 1, "a"),
        ("encode", 3.2, 3.4, 3, "a"),
        ("read", 5.0, 9.0, 0, "b"),
    ]
    own = measure.self_times(spans)
    assert own == pytest.approx([2.0, 1.5, 1.0, 1.3, 0.2, 4.0])
    assert sum(own) == pytest.approx(10.0)  # self times tile the root span
    table = measure.self_time_by_name(spans)
    assert table["read"] == {"self_s": pytest.approx(5.5), "total_s": 8.0, "calls": 2}


def test_span_recorder_nests_and_restores():
    import tracing
    from repro.core.pipeline import GenPIPPipeline
    from repro.genomics import alphabet

    recorder = tracing.SpanRecorder()
    inner = recorder.wrap("inner", lambda: 1)
    outer = recorder.wrap("outer", lambda read_id: inner(), read_id_of=lambda read_id: read_id)
    assert outer("r1") == 1
    (outer_span, inner_span) = recorder.spans
    assert (outer_span[0], outer_span[3], outer_span[4]) == ("outer", -1, "r1")
    assert (inner_span[0], inner_span[3], inner_span[4]) == ("inner", 0, "r1")
    assert outer_span[1] <= inner_span[1] <= inner_span[2] <= outer_span[2]

    workload = workloads.WORKLOADS["ecoli-align"]
    pipeline = workloads.build_pipeline(workload, workloads.build_index(workload))
    basecaller_type = type(pipeline.basecaller)
    before = (alphabet.encode, GenPIPPipeline.process_read, basecaller_type.basecall_chunk)
    with tracing.installed(recorder, pipeline):
        assert alphabet.encode is not before[0]
        assert GenPIPPipeline.process_read is not before[1]
    after = (alphabet.encode, GenPIPPipeline.process_read, basecaller_type.basecall_chunk)
    assert after == before


def test_worsening_follows_the_metric_direction():
    assert compare.worsening(100.0, 90.0, "higher") == pytest.approx(0.10)
    assert compare.worsening(100.0, 110.0, "higher") == pytest.approx(-0.10)
    assert compare.worsening(2.0, 2.5, "lower") == pytest.approx(0.25)


# --- child hygiene -------------------------------------------------------------


def test_supervisor_ends_an_orphan_that_left_its_session(tmp_path):
    """A grandchild that outlives its parent in a session of its own is still ended."""
    pid_file = tmp_path / "orphan.pid"
    orphan = "import os, sys, time; os.setsid(); open(sys.argv[1], 'w').write(str(os.getpid()))"
    runner = (
        "import subprocess, sys, time\n"
        f"subprocess.Popen([sys.executable, '-c', {orphan + '; time.sleep(60)'!r}, sys.argv[1]])\n"
        "while not open(sys.argv[1]).read(): time.sleep(0.01)\n"
        "raise SystemExit(3)\n"
    )
    pid_file.write_text("")
    helper = (
        "import sys, supervise\n"
        "command = [sys.executable, '-c', sys.argv[1], sys.argv[2]]\n"
        "raise SystemExit(supervise.supervised(command, grace_s=0.2))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", helper, runner, str(pid_file)], cwd=BENCH_DIR, timeout=30
    )
    assert done.returncode == 3  # the runner's own exit code is handed on
    orphan_pid = int(pid_file.read_text())
    assert not Path(f"/proc/{orphan_pid}").exists()


# --- workloads -----------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_slices_are_stratified_and_repeatable(name):
    workload = workloads.WORKLOADS[name]
    first = workloads.SliceStream(workload, seed=5)
    again = workloads.SliceStream(workload, seed=5)
    other = workloads.SliceStream(workload, seed=6)
    a0, a1 = first.next_slice(), first.next_slice()
    assert [r.read_id for r in a0] == [r.read_id for r in again.next_slice()]
    assert {r.read_id for r in a0}.isdisjoint(r.read_id for r in a1)
    b0 = other.next_slice()
    assert [len(r) for r in a0] != [len(r) for r in b0]
    for reads in (a0, a1, b0):
        for read_class, (count, _) in workload.strata.items():
            assert sum(r.read_class is read_class for r in reads) == count


# --- the contract --------------------------------------------------------------


def test_benchmark_json_names_what_the_runner_prints():
    assert [w["name"] for w in CONTRACT["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in CONTRACT["per_layer"]} == run.PER_LAYER
    names = [m["name"] for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(0 < m["bound"] <= 0.25 for m in CONTRACT["end_to_end"])


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run_prints_every_metric(name, trace):
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name, "--seed", "7"]
        + ["--rounds", "1", "--trace", str(trace)],
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
    for name_, metric in result["metrics"].items():
        assert NAME.fullmatch(name_)
        assert set(metric) == {"value", "unit"}
        assert isinstance(metric["value"], (int, float))
    if trace:
        assert result["metrics"]["runtime.leaked_segments"]["value"] == 0
    else:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())
