"""Fast self-test of the benchmark harness at tiny sizes.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, Explore, GaborTight  # noqa: E402

WORK = BENCH / "_work" / "selftest"
TINY = [
    GaborTight(N=8, a=2, b=2, pool_size=2, trace_pairs=1),
    Explore(N_lo=4, N_hi=6, trials=20, pool_size=3, trace_pairs=2),
]
COUNT_METRICS = [name for name, unit in run.PER_LAYER_UNITS.items()
                 if unit in ("count", "elems", "B-computed")]


def _run(wl, trace: bool, seed: int = 3) -> tuple[dict, dict]:
    """A run with its processes measured in this one, as ``--proc`` does."""
    def spawn(proc: int, budget: float) -> dict:
        return run.measure(wl, seed, budget, trace, time.perf_counter(), proc,
                           work_root=WORK)
    return run.run(wl.name, seed, 0.05, trace, spawn, 1 if trace else 2,
                   work_root=WORK)


def test_benchmark_json_matches_harness():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS


@pytest.mark.parametrize("wl", TINY, ids=lambda wl: wl.name)
def test_untraced_run_is_correct(wl):
    result, detail = _run(wl, trace=False)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 4
    assert {k: m["unit"] for k, m in result["metrics"].items()} == run.END_TO_END_UNITS
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert len(detail["setup_s"]) == 2
    assert result["metrics"]["setup_s"]["value"] == statistics.median(detail["setup_s"])
    ops = [t for proc_ops in detail["op_s"] for t in proc_ops]
    assert result["metrics"]["op_p50_s"]["value"] == statistics.median(ops)


def test_processes_get_distinct_inputs():
    wl = TINY[1]
    _run(wl, trace=False)
    seeds = (WORK / wl.name / "seeds.txt").read_text().split()
    assert len(seeds) == 2 * wl.pool_size
    assert len(set(seeds)) == len(seeds)


@pytest.mark.parametrize("wl", TINY, ids=lambda wl: wl.name)
def test_traced_run_counts_repeat_and_spans_nest(wl):
    first, _ = _run(wl, trace=True)
    spans_file = WORK / "results" / f"spans-{wl.name}.jsonl"
    lines = spans_file.read_text().splitlines()
    second, _ = _run(wl, trace=True)
    assert first["correct"] and second["correct"]
    assert {k: m["unit"] for k, m in first["metrics"].items()} == run.PER_LAYER_UNITS
    for name in COUNT_METRICS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert first["metrics"]["numerics.lapack_calls"]["value"] > 0

    assert json.loads(lines[0]) == {"fields": tracing.SPAN_FIELDS}
    spans = [json.loads(line) for line in lines[1:]]
    assert spans
    for rec in spans:
        parent = rec[tracing.PARENT]
        assert rec[tracing.START] <= rec[tracing.END]
        if parent < 0:
            assert rec[tracing.NAME] == "cli.main"
            continue
        outer = spans[parent]
        assert outer[tracing.OP] == rec[tracing.OP]
        assert outer[tracing.START] <= rec[tracing.START]
        assert rec[tracing.END] <= outer[tracing.END]
    own = tracing.self_times(spans)
    assert min(own) > -1e-6


def test_checks_reject_wrong_outputs():
    cert = {"verdict": "WeakRDual", "characterization_verdict": "WeakRDual"}
    tight = {"tight_weak_r_dual": {"certificate": cert}, "v_is_onb": False}
    g = GaborTight()
    assert g.check({}, 0, tight) is None
    assert g.check({}, 1, tight)
    assert g.check({}, 0, {**tight, "v_is_onb": True})
    split = {**cert, "characterization_verdict": "NotWeakRDual"}
    assert g.check({}, 0, {"tight_weak_r_dual": {"certificate": split}, "v_is_onb": False})

    e = Explore(trials=2)
    records = [{"trial": 0, "N": 4, "a": 4, "b": 2, "verdict": "NotFrame"},
               {"trial": 1, "N": 4, "a": 2, "b": 1, "verdict": "Gated"}]
    good = {"verdict_counts": {"Gated": 1, "NotFrame": 1}, "records": records}
    assert e.check({}, 0, good) is None
    assert e.check({}, 0, {**good, "verdict_counts": {"Gated": 1}})
    wrong = [records[0], {**records[1], "verdict": "NotFrame"}]
    assert e.check({}, 0, {"verdict_counts": {"NotFrame": 2}, "records": wrong})
    odd = [records[0], {**records[1], "verdict": "Odd"}]
    assert e.check({}, 0, {"verdict_counts": {"NotFrame": 1, "Odd": 1}, "records": odd})


def test_fails_without_the_program_sources():
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "explore", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_command_line_run_prints_result():
    """The path a user takes: full-size explore, one op per process."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "explore", "--seed", "1",
         "--seconds", "0.1", "--trace", "0"],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    # 3 processes x (warm-up + one timed op), plus the warm-up rerun
    assert result["attempted"] == 2 * run.PROCS + 1
    assert {k: m["unit"] for k, m in result["metrics"].items()} == run.END_TO_END_UNITS
