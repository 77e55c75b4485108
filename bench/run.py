"""framedual benchmark: closed-loop CLI ops, checked, with an optional layer trace.

Run from the repository root:

    python3 bench/run.py --workload gabor-tight --seed 1 --seconds 45 --trace 0

A run of one workload is ``PROCS`` fresh processes, one after another
(one in a traced run).  Each process sets up -- imports framedual,
builds its own inputs, makes one warm-up op -- and then times ops for
its share of ``--seconds``, with one client and no think time.  An op
is one in-process ``framedual.cli.main(argv)`` call that writes its
report with ``--out``; every report is checked.  With ``--trace 0`` the
last stdout line carries the end-to-end metrics over all processes;
with ``--trace 1`` it carries the per-layer metrics of a traced run.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"

# One BLAS thread: on a small shared VM a second OpenBLAS thread made op
# and set-up times jump between processes.  Set before numpy is loaded.
THREAD_VARS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}

# Set-ups per untraced run; setup_s is their median.
PROCS = 3
# Input indices of process p start at p * INDEX_STRIDE, so no input
# repeats within a run.
INDEX_STRIDE = 100_000
# A run must end within this many seconds; a process still running then
# is killed.
RUN_DEADLINE_S = 170.0

WORKLOAD_NAMES = ("gabor-tight", "explore")

END_TO_END_UNITS = {
    "op_p50_s": "s",
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "numerics.self_s": "s",
    "numerics.calls": "count",
    "numerics.lapack_s": "s",
    "numerics.lapack_calls": "count",
    "numerics.lapack_max_elems": "elems",
    "numerics.lapack_bytes": "B-computed",
    "frames.self_s": "s",
    "frames.calls": "count",
    "frames.analyze_calls": "count",
    "frames.load_family_s": "s",
    "rduality.self_s": "s",
    "rduality.calls": "count",
    "gabor.self_s": "s",
    "gabor.calls": "count",
    "gabor.generate_s": "s",
    "gabor.explore_useful_frac": "1",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


def _git_commit() -> str | None:
    """Commit of the checkout, read from .git without starting git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import platform

    import numpy as np

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "framedual").glob("*.py")):
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_lapack": np.show_config(mode="dicts").get("Build Dependencies"),
        "thread_vars": {key: os.environ.get(key) for key in THREAD_VARS},
        "workload_seed": seed,
        "git_commit": _git_commit(),
        "source_sha256": digest.hexdigest(),
    }


def measure(wl, seed: int, budget: float, trace: bool, t0: float, proc: int = 0,
            work_root: Path = WORK) -> dict:
    """One process's share of a run; ``t0`` is taken just before
    ``import framedual``.  Returns the record the run is summarized from.

    Rounds are single untraced ops, or with ``trace`` pairs of an
    untraced and a traced op.  A round starts only while the median round
    so far is predicted to finish within ``budget`` seconds; at least one
    round (``wl.trace_pairs`` when tracing) always runs.
    """
    from framedual import cli
    from tracing import Tracer, layer_metrics

    work = work_root / wl.name
    work.mkdir(parents=True, exist_ok=True)
    base = proc * INDEX_STRIDE
    inputs = [wl.make_input(seed, base + k, work) for k in range(wl.pool_size)]
    tracer = Tracer()
    failures: list[tuple[int, str]] = []  # (input index, reason)

    def op(k: int, traced: bool = False) -> tuple[float, bool]:
        """Run and check the op on local input ``k``: (seconds, passed)."""
        while len(inputs) <= k:  # pool exhausted: extend it, untimed
            inputs.append(wl.make_input(seed, base + len(inputs), work))
        inp, out = inputs[k], work / f"report-{base + k}.json"
        argv = wl.argv(inp, out)
        start = time.perf_counter()
        try:
            if traced:
                with tracer.installed(base + k):
                    start = time.perf_counter()
                    rc = cli.main(argv)
                    elapsed = time.perf_counter() - start
            else:
                rc = cli.main(argv)
                elapsed = time.perf_counter() - start
            reason = wl.check(inp, rc, json.loads(out.read_text()))
        except Exception as exc:  # a crashed op is a failed op, not a crashed run
            elapsed = time.perf_counter() - start
            reason = f"{type(exc).__name__}: {exc}"
        if reason:
            failures.append((base + k, reason))
        if k:  # the warm-up report stays for the rerun check
            out.unlink(missing_ok=True)
        return elapsed, not reason

    warmup_s, _ = op(0)
    setup_s = time.perf_counter() - t0

    plain: list[float] = []
    traced: list[float] = []
    rounds: list[float] = []
    completed = 0
    min_rounds = wl.trace_pairs if trace else 1
    loop_start = time.perf_counter()
    k = 1
    while True:
        est = statistics.median(rounds) if rounds else warmup_s * (2 if trace else 1)
        if len(rounds) >= min_rounds and time.perf_counter() - loop_start + est > budget:
            break
        round_start = time.perf_counter()
        elapsed, passed = op(k)
        plain.append(elapsed)
        completed += passed
        k += 1
        if trace:
            traced.append(op(k, traced=True)[0])
            k += 1
        rounds.append(time.perf_counter() - round_start)
    loop_s = time.perf_counter() - loop_start
    attempted = k

    if wl.rerun_identical and proc == 0:
        first = (work / f"report-{base}.json").read_bytes()
        op(0)
        attempted += 1
        if (work / f"report-{base}.json").read_bytes() != first:
            failures.append((base, "rerun of the warm-up input is not byte-identical"))

    layers = None
    if trace:
        traced_ops = {base + 2 * j for j in range(1, wl.trace_pairs + 1)}
        layers = layer_metrics(tracer.spans, traced_ops)
        layers["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
        results = work_root / "results"
        results.mkdir(parents=True, exist_ok=True)
        tracer.write(results / f"spans-{wl.name}.jsonl")  # latest traced run only
    return {
        "proc": proc,
        "setup_s": setup_s,
        "warmup_s": warmup_s,
        "loop_s": loop_s,
        "op_s": plain,
        "traced_op_s": traced,
        "completed": completed,
        "attempted": attempted,
        "failures": [f"op {i}: {reason}" for i, reason in failures],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "layers": layers,
    }


def run(name: str, seed: int, seconds: float, trace: bool, spawn, procs: int,
        work_root: Path = WORK) -> tuple[dict, dict]:
    """Run workload ``name`` as ``procs`` processes, one after another.

    ``spawn(proc, budget)`` runs process ``proc`` and returns its
    ``measure`` record.  Budgets are cumulative: a process may use what
    the processes before it left of their share of ``seconds``.
    Returns the result line and the detail record written beside it.
    """
    shutil.rmtree(work_root / name, ignore_errors=True)
    records: list[dict] = []
    used = 0.0
    for proc in range(procs):
        records.append(spawn(proc, seconds * (proc + 1) / procs - used))
        used += records[-1]["loop_s"]

    ops = [t for rec in records for t in rec["op_s"]]
    failures = [reason for rec in records for reason in rec["failures"]]
    attempted = sum(rec["attempted"] for rec in records)
    setups = [rec["setup_s"] for rec in records]
    if trace:
        values, units = records[0]["layers"], PER_LAYER_UNITS
    else:
        values = {
            "op_p50_s": statistics.median(ops),
            "ops_per_s": sum(rec["completed"] for rec in records) / sum(ops),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": max(rec["peak_rss_mb"] for rec in records),
        }
        units = END_TO_END_UNITS
    metrics = {key: {"value": float(values.get(key, 0.0)), "unit": unit}
               for key, unit in units.items()}

    failed = len(failures)
    detail = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(seed),
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "failures": failures,
        "setup_s": setups,
        "warmup_s": [rec["warmup_s"] for rec in records],
        "op_s": [rec["op_s"] for rec in records],
        "traced_op_s": [rec["traced_op_s"] for rec in records],
        "metrics": metrics,
    }
    results = work_root / "results"
    results.mkdir(parents=True, exist_ok=True)
    tag = f"{name}-seed{seed}-trace{int(trace)}"
    (results / f"result-{tag}.json").write_text(json.dumps(detail, indent=1) + "\n")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, detail


def _subprocess_spawner(args, deadline: float):
    """``spawn`` for ``run``: each process is this script with ``--proc``;
    it writes its record to a file.  Its stdout goes to our stderr, so the
    result stays the last line of our stdout."""
    def spawn(proc: int, budget: float) -> dict:
        record = WORK / args.workload / f"proc-{proc}.json"
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--proc", str(proc), "--budget", repr(budget)]
        subprocess.run(cmd, stdout=sys.stderr, check=True,
                       timeout=max(deadline - time.monotonic(), 1.0))
        return json.loads(record.read_text())
    return spawn


def _child(args) -> int:
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import framedual

    if Path(framedual.__file__).resolve().parent != (SRC / "framedual").resolve():
        print(f"imported framedual from {framedual.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    record = measure(wl, args.seed, args.budget, bool(args.trace), t0, args.proc)
    (WORK / wl.name / f"proc-{args.proc}.json").write_text(json.dumps(record))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--proc", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--budget", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "framedual" / "__init__.py").is_file():
        print(f"framedual sources not found under {SRC}", file=sys.stderr)
        return 2

    os.environ.update(THREAD_VARS)
    if args.proc is not None:
        return _child(args)

    procs = 1 if args.trace else PROCS
    spawn = _subprocess_spawner(args, time.monotonic() + RUN_DEADLINE_S)
    try:
        result, detail = run(args.workload, args.seed, args.seconds,
                             bool(args.trace), spawn, procs)
    except (subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"benchmark process failed: {exc}", file=sys.stderr)
        return 1
    env = detail["environment"]
    print(f"workload {detail['workload']} seed {detail['seed']} trace {args.trace}"
          f" | {env['cpu_model']} x{env['nproc']} | python {env['python']}"
          f" numpy {env['numpy']} | commit {env['git_commit']}")
    print(f"ops attempted {detail['attempted']} failed {detail['failed']}"
          f" fail_frac {detail['fail_frac']:.4g} timed ops"
          f" {sum(map(len, detail['op_s']))} in {procs} processes")
    for reason in detail["failures"][:10]:
        print(f"FAILED {reason}")
    for name, m in result["metrics"].items():
        print(f"{name:<28} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
