"""The benchmark's workloads: seeded inputs, the CLI call, the output check.

Input ``i`` of a workload depends only on ``(seed, i)``, so a run's
input sequence is fixed by its seed and independent of how many ops
fit in the run.  Process ``p`` of a run uses inputs ``p * 100000 + k``:
``k = 0`` is its warm-up op, and its timed ops use ``k = 1, 2, ...``
Checks rest on what the mathematics fixes (exit codes, verdicts,
counts), never on byte digests of a report.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from framedual.frames import VectorFamily, save_family
from framedual.gabor import GaborLattice, canonical_tight_window

EXPLORE_VERDICTS = {"NotFrame", "Tight", "Gated", "WitnessFound", "NoWitness"}


def _rng(seed: int, i: int) -> np.random.Generator:
    return np.random.default_rng([seed, i])


def _certificate_verdicts(cert: dict, want: str) -> str | None:
    direct, charac = cert["verdict"], cert["characterization_verdict"]
    if direct != charac:
        return f"direct verdict {direct} != characterization verdict {charac}"
    if direct != want:
        return f"verdict {direct}, expected {want}"
    return None


@dataclass(frozen=True)
class GaborTight:
    """``gabor tight-wrd`` on the canonical tight window of a random window."""

    N: int = 96
    a: int = 2
    b: int = 2
    pool_size: int = 3
    trace_pairs: int = 1
    rerun_identical: bool = False
    name: str = "gabor-tight"

    def make_input(self, seed: int, i: int, work: Path) -> dict:
        rng = _rng(seed, i)
        raw = rng.standard_normal(self.N) + 1j * rng.standard_normal(self.N)
        tight = canonical_tight_window(GaborLattice(self.N, self.a, self.b), raw)
        path = work / f"window-{i}.json"
        save_family(VectorFamily(tight[None, :], label=f"window-{i}"), path)
        return {"window": str(path)}

    def argv(self, inp: dict, out: Path) -> list[str]:
        return ["gabor", "tight-wrd", "--N", str(self.N), "--a", str(self.a),
                "--b", str(self.b), "--window", inp["window"], "--out", str(out)]

    def check(self, inp: dict, rc: int, report: dict) -> str | None:
        if rc != 0:
            return f"exit code {rc}, expected 0"
        if report["v_is_onb"] is not False:
            return "v_is_onb is not false"
        return _certificate_verdicts(
            report["tight_weak_r_dual"]["certificate"], "WeakRDual"
        )


@dataclass(frozen=True)
class Explore:
    """``gabor explore`` with a distinct exploration seed per op."""

    N_lo: int = 4
    N_hi: int = 12
    trials: int = 1000
    pool_size: int = 16
    trace_pairs: int = 6
    rerun_identical: bool = True
    name: str = "explore"

    def make_input(self, seed: int, i: int, work: Path) -> dict:
        explore_seed = 1_000_000 * seed + i  # distinct for i < 10**6
        with open(work / "seeds.txt", "a") as fh:
            fh.write(f"{explore_seed}\n")
        return {"seed": explore_seed}

    def argv(self, inp: dict, out: Path) -> list[str]:
        return ["gabor", "explore", "--N", f"{self.N_lo}..{self.N_hi}",
                "--trials", str(self.trials), "--seed", str(inp["seed"]),
                "--out", str(out)]

    def check(self, inp: dict, rc: int, report: dict) -> str | None:
        if rc != 0:
            return f"exit code {rc}, expected 0"
        counts = report["verdict_counts"]
        if sum(counts.values()) != self.trials or len(report["records"]) != self.trials:
            return f"verdict counts {counts} do not sum to {self.trials} trials"
        unknown = set(counts) - EXPLORE_VERDICTS
        if unknown:
            return f"unknown verdicts {sorted(unknown)}"
        for rec in report["records"]:
            if rec["verdict"] not in EXPLORE_VERDICTS:
                return f"trial {rec['trial']}: unknown verdict {rec['verdict']}"
            # N^2/(ab) members span C^N only if ab <= N (a random window
            # then gives a frame with probability one).
            if (rec["verdict"] == "NotFrame") != (rec["a"] * rec["b"] > rec["N"]):
                return (f"trial {rec['trial']}: verdict {rec['verdict']} on"
                        f" N={rec['N']} a={rec['a']} b={rec['b']}")
        return None


WORKLOADS = {wl.name: wl for wl in (GaborTight(), Explore())}
