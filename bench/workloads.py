"""The four workloads of the lfdrkit benchmark.

Each workload is one single-threaded, closed-loop client: the next job starts
only after the previous one returns.  A workload object is used on both sides
of a run:

* in the parent (``run.py``): ``make_inputs`` builds every input from the
  seed before anything is timed, and ``check`` judges each job's output;
* in the worker (``worker.py``): ``warm_up`` is part of set-up, ``prepare``
  builds one job's in-memory input outside the timer, ``job`` is what is
  timed, and ``record`` reads back the job's output after the timer stops.

Sizes are fixed here; ``smoke`` shrinks them so every workload runs in a few
seconds for the benchmark's own test.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np


# input index of the warm-up job; the closed loop never reaches it
WARM_INDEX = 1 << 32


def job_seed(seed: int, index: int) -> int:
    """The simulate seed of job ``index`` in a run with workload seed ``seed``."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1, np.uint64)[0])


def _digest(*paths: Path) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.read_bytes())
    return h.hexdigest()


class Workload:
    name = ""
    why = ""
    min_jobs = 1
    # untraced runs end with one more job on job 0's input, whose output
    # bytes must equal job 0's
    repeat_first = False

    def __init__(self, run_dir: Path, seed: int, smoke: bool):
        self.run_dir = run_dir
        self.seed = seed

    def input_index(self, k: int) -> int:
        return k

    def make_inputs(self) -> None:
        pass

    def large_files(self) -> List[Path]:
        return []

    def warm_up(self) -> None:
        raise NotImplementedError

    def prepare(self, index: int):
        return index

    def job(self, inp):
        raise NotImplementedError

    def record(self, inp, result) -> Dict:
        raise NotImplementedError

    def check(self, jobs: List[Dict]) -> List[Optional[str]]:
        raise NotImplementedError

    def _same_bytes(self, jobs: List[Dict], key: str) -> List[Optional[str]]:
        """Jobs on the same input must produce the same output bytes."""
        first: Dict[int, str] = {}
        reasons: List[Optional[str]] = []
        for job in jobs:
            if job.get("error"):
                reasons.append(job["error"].strip().splitlines()[-1])
                continue
            ref = first.setdefault(job["input"], job[key])
            reasons.append(None if job[key] == ref else
                           f"output differs from an earlier job on input {job['input']}")
        return reasons


# ---------------------------------------------------------------------------
# analyze_p1m
# ---------------------------------------------------------------------------

def write_pvalues(path: Path, m: int, rng: np.random.Generator) -> np.ndarray:
    """``id,stat`` CSV of m p-values in (0, 1]: 10% Beta(0.05, 1) alternatives
    at random rows, uniform nulls elsewhere."""
    m1 = m // 10
    p = 1.0 - rng.random(m)
    alt = rng.permutation(m)[:m1]
    # Beta(0.05, 1) can underflow to 0, where the monotone fit is undefined
    p[alt] = np.maximum(rng.beta(0.05, 1.0, m1), np.finfo(float).tiny)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("id,stat\n")
        fh.write("".join(f"h{i},{v!r}\n" for i, v in enumerate(p.tolist())))
    return p


class AnalyzeP1M(Workload):
    name = "analyze_p1m"
    why = ("analyst path at the largest ROADMAP size: CSV parsing, the per-row table and "
           "the write dominate, Grenander and sorts take the rest; no simulate or compound code")
    # every job reads the same file, so two jobs also check that output bytes repeat
    min_jobs = 2
    alpha = 0.1

    def __init__(self, run_dir, seed, smoke):
        super().__init__(run_dir, seed, smoke)
        self.m = 2_000 if smoke else 1_000_000
        self.input = run_dir / "input.csv"
        self.warm = run_dir / "warm_input.csv"
        self.stem = run_dir / "out"

    def _args(self, path: Path, stem: Path) -> List[str]:
        return ["analyze", "--input", str(path), "--density", "grenander",
                "--pi0", "storey:0.5", "--alpha", str(self.alpha), "--lambda", "4",
                "--out", str(stem)]

    def input_index(self, k):
        return 0

    def make_inputs(self):
        self.pvalues = write_pvalues(self.input, self.m, np.random.default_rng([self.seed, 0]))
        write_pvalues(self.warm, 2_000, np.random.default_rng([self.seed, 1]))

    def large_files(self):
        return [self.input, self.stem.with_suffix(".csv")]

    def warm_up(self):
        from lfdrkit import cli
        self._cli = cli
        if cli.main(self._args(self.warm, self.run_dir / "warm_out")) != 0:
            raise RuntimeError("warm-up analyze failed")

    def prepare(self, index):
        # every job writes fresh files, so none reads back an earlier job's
        for path in (self.stem.with_suffix(".csv"), self.stem.with_suffix(".json")):
            path.unlink(missing_ok=True)
        return index

    def job(self, inp):
        return self._cli.main(self._args(self.input, self.stem))

    def record(self, inp, rc):
        table, summary = self.stem.with_suffix(".csv"), self.stem.with_suffix(".json")
        return {"rc": rc, "digest": _digest(table, summary),
                "bytes_read": self.input.stat().st_size,
                "bytes_written": table.stat().st_size + summary.stat().st_size,
                "hypotheses": self.m, "replicates": 1}

    def _content_error(self) -> Optional[str]:
        summary = json.loads(self.stem.with_suffix(".json").read_text(encoding="utf-8"))
        procs = summary["procedures"]
        p = np.sort(self.pvalues)
        m = p.size
        k = np.arange(1, m + 1)
        # step-up: the largest k whose estimated FDP m * p_(k) / k is <= alpha
        passing = np.flatnonzero(m * p / k <= self.alpha)
        bh = int(passing[-1]) + 1 if passing.size else 0
        # support line: the largest maximizer of alpha * k / m - p_(k), p_(0) = 0
        objective = self.alpha * np.arange(m + 1) / m - np.concatenate([[0.0], p])
        sl = int(np.flatnonzero(objective == objective.max())[-1])
        if summary["m"] != m:
            return f"summary m={summary['m']}, expected {m}"
        if procs["bh"]["rejections"] != bh:
            return f"bh rejections {procs['bh']['rejections']}, numpy step-up gives {bh}"
        if procs["sl"]["rejections"] != sl:
            return f"sl rejections {procs['sl']['rejections']}, numpy argmax gives {sl}"
        flags = np.loadtxt(self.stem.with_suffix(".csv"), delimiter=",", skiprows=1,
                           usecols=(4, 5, 6, 7), dtype=np.int64, ndmin=2)
        if flags.shape[0] != m:
            return f"table has {flags.shape[0]} rows, expected {m}"
        expected = (procs["bh"]["rejections"], procs["storey_bh"]["rejections"],
                    procs["sl"]["rejections"], summary["lfdr_threshold"]["rejections"])
        sums = tuple(int(s) for s in flags.sum(axis=0))
        if sums != expected:
            return f"flag column sums {sums} differ from the summary counts {expected}"
        return None

    def check(self, jobs):
        reasons = self._same_bytes(jobs, "digest")
        content = self._content_error() if any(r is None for r in reasons) else None
        for i, job in enumerate(jobs):
            if reasons[i] is None and job["rc"] != 0:
                reasons[i] = f"analyze exited with {job['rc']}"
            elif reasons[i] is None and content:
                reasons[i] = content
        return reasons


# ---------------------------------------------------------------------------
# mc_theorem, mc_grid
# ---------------------------------------------------------------------------

class _Simulate(Workload):
    """``lfdrkit simulate`` jobs, each on its own seed; bFDR must match theory."""

    repeat_first = True
    m = 0
    reps = 0
    smoke_reps = 0
    exact_bfdr = 0.0

    def __init__(self, run_dir, seed, smoke):
        super().__init__(run_dir, seed, smoke)
        self.out = run_dir / "report.json"
        self.n_reps = self.smoke_reps if smoke else self.reps

    def _args(self, seed: int, reps: int, out: Path) -> List[str]:
        raise NotImplementedError

    def warm_up(self):
        from lfdrkit import cli
        self._cli = cli
        args = self._args(job_seed(self.seed, WARM_INDEX), 5, self.run_dir / "warm.json")
        if cli.main(args) != 0:
            raise RuntimeError("warm-up simulate failed")

    def prepare(self, index):
        self.out.unlink(missing_ok=True)
        return index

    def job(self, inp):
        return self._cli.main(self._args(job_seed(self.seed, inp), self.n_reps, self.out))

    def _bytes_read(self) -> int:
        return 0

    def record(self, inp, rc):
        text = self.out.read_text(encoding="utf-8")
        return {"rc": rc, "text": text, "bytes_read": self._bytes_read(),
                "bytes_written": len(text.encode("utf-8")),
                "hypotheses": self.m * self.n_reps, "replicates": self.n_reps}

    def check(self, jobs):
        reasons = self._same_bytes(jobs, "text")
        estimates: Dict[int, Dict] = {}
        for i, job in enumerate(jobs):
            if reasons[i] is not None:
                continue
            report = json.loads(job["text"]) if job["rc"] == 0 else None
            if report is None:
                reasons[i] = f"simulate exited with {job['rc']}"
            elif report["replicates"] != self.n_reps:
                reasons[i] = f"{report['replicates']} replicates, asked for {self.n_reps}"
            else:
                estimates.setdefault(job["input"], report["estimates"]["bFDR"])
        if estimates:
            # one test per run, on the mean over its distinct seeds: a test
            # per job would fail by chance in some of the many jobs a
            # campaign runs
            k = len(estimates)
            mean = sum(e["mean"] for e in estimates.values()) / k
            se = math.sqrt(sum(e["std_error"] ** 2 for e in estimates.values())) / k
            dev = abs(mean - self.exact_bfdr)
            if not dev <= 4.0 * se:
                bad = (f"bFDR {mean} over {k} seeds is {dev / se:.2f} standard errors "
                       f"from the exact {self.exact_bfdr}")
                reasons = [bad if r is None else r for r in reasons]
        return reasons


class McTheorem(_Simulate):
    name = "mc_theorem"
    why = ("criterion 1's design at m = 100: per-replicate overhead (Philox, StatVector, "
           "Fraction accumulators) dominates, so a batched MC core gains most here")
    m = 100
    reps = 5_000
    smoke_reps = 200
    exact_bfdr = 0.8 * 0.1  # pi0 * alpha of the theorem-5.1 preset

    def _args(self, seed, reps, out):
        return ["simulate", "--preset", "theorem-5.1",
                "--criteria", "fdr,bfdr,power,mfdr:0:0.1,pfdr:0:0.1",
                "--reps", str(reps), "--seed", str(seed), "--out", str(out)]


class McGrid(_Simulate):
    name = "mc_grid"
    why = ("criterion 9's grid design at m = 5000: the support line's sort dominates, so a "
           "grid-aware procedure shows here and an overhead-only change mostly does not")
    m = 5_000
    reps = 1_000
    smoke_reps = 50
    exact_bfdr = 0.9 * 0.5  # pi0 * alpha; perturbed grid nulls are exactly uniform

    def __init__(self, run_dir, seed, smoke):
        super().__init__(run_dir, seed, smoke)
        self.config = run_dir / "grid.json"

    def make_inputs(self):
        design = {"generator": {"kind": "discrete-uniform-nulls", "m": self.m, "L": 10,
                                "alt_positions": [10] * 500},
                  "alpha": 0.5}
        self.config.write_text(json.dumps(design), encoding="utf-8")

    def _bytes_read(self):
        return self.config.stat().st_size

    def _args(self, seed, reps, out):
        return ["simulate", "--config", str(self.config), "--perturb-discrete",
                "--criteria", "bfdr",
                "--reps", str(reps), "--seed", str(seed), "--out", str(out)]


# ---------------------------------------------------------------------------
# zscale_compound
# ---------------------------------------------------------------------------

class ZscaleCompound(Workload):
    name = "zscale_compound"
    why = ("the paper's compound-versus-pointwise comparison: NPMLE EM and the exact "
           "two-groups compound scores, which no other workload runs")
    mu = 2.0

    def __init__(self, run_dir, seed, smoke):
        super().__init__(run_dir, seed, smoke)
        self.m, self.m1 = (40, 4) if smoke else (400, 40)

    def _instance(self, m: int, m1: int, rng: np.random.Generator):
        from lfdrkit.core import GaussianLocation, GroundTruth, Scale, StatVector
        z = rng.standard_normal(m)
        z[:m1] += self.mu
        nulls = np.arange(m) >= m1
        null, alt = GaussianLocation(0.0), GaussianLocation(self.mu)
        models = [null if flag else alt for flag in nulls]
        return StatVector(z, Scale.Z_VALUE), GroundTruth(nulls), models

    def warm_up(self):
        from lfdrkit import compound, core, density, lfdr
        self._compound, self._density, self._core, self._lfdr = compound, density, core, lfdr
        # keep the last exact result, whose scores clfdr_vs_lfdr_gap does not return
        exact = compound.clfdr_exact

        def keep_result(*args, **kwargs):
            self._exact = exact(*args, **kwargs)
            return self._exact
        compound.clfdr_exact = keep_result
        self.job(self._instance(40, 4, np.random.default_rng([self.seed, WARM_INDEX])))

    def prepare(self, index):
        return self._instance(self.m, self.m1, np.random.default_rng([self.seed, index]))

    def job(self, inp):
        stats, truth, models = inp
        fit = self._density.npmle_mixture_fit(stats, grid_size=300, tol=1e-8)
        curve = self._lfdr.LfdrCurve(truth.m0 / truth.m, self._core.GaussianLocation(0.0),
                                     fit.density())
        return fit, self._compound.clfdr_vs_lfdr_gap(stats, truth, models, curve)

    def record(self, inp, result):
        fit, gap = result
        return {"score_sum": float(np.sum(self._exact.scores)), "m0": inp[1].m0,
                "weight_sum": float(math.fsum(fit.weights)), "loglik": fit.loglik,
                "max_ratio_dev": gap.max_ratio_dev, "bytes_read": 0, "bytes_written": 0,
                "hypotheses": self.m, "replicates": 1}

    def check(self, jobs):
        reasons = []
        for job in jobs:
            if job.get("error"):
                reasons.append(job["error"].strip().splitlines()[-1])
            elif not abs(job["score_sum"] - job["m0"]) <= 1e-8 * self.m:
                reasons.append(f"compound scores sum to {job['score_sum']}, not m0={job['m0']}")
            elif not abs(job["weight_sum"] - 1.0) <= 1e-9:
                reasons.append(f"NPMLE weights sum to {job['weight_sum']}")
            elif not (math.isfinite(job["loglik"]) and math.isfinite(job["max_ratio_dev"])):
                reasons.append("non-finite log-likelihood or score gap")
            else:
                reasons.append(None)
        return reasons


WORKLOADS = {w.name: w for w in (AnalyzeP1M, McTheorem, McGrid, ZscaleCompound)}


def make_workload(name: str, run_dir: Path, seed: int, smoke: bool) -> Workload:
    return WORKLOADS[name](run_dir, seed, smoke)
