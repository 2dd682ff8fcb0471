"""lfdrkit benchmark: one run of one workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a checkout.  The run builds every input from ``--seed``,
times set-up in fresh interpreters, runs the workload's closed loop for
``--seconds`` in another fresh interpreter (``worker.py``) with BLAS and
OpenMP pinned to one thread, checks every job's output, and prints one JSON
object as the last line of stdout: the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.  Scratch files go to
``.bench_out/<workload>/``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib.metadata import version
from pathlib import Path
from typing import Dict, List

# pinned before numpy is first imported, here and in every worker
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
os.environ.update({v: "1" for v in THREAD_VARS})

from workloads import WORKLOADS, make_workload  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# fresh interpreters timed for set-up besides the one that runs the jobs
SETUP_PROBES = 3
# the whole run must end within 180 s
RUN_LIMIT_S = 170.0


class BenchError(RuntimeError):
    pass


def _median(values: List[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def _per_rep(spans: Dict, name: str) -> float:
    reps = spans["calls"].get("simulate.replicate_rng", 0)
    return spans["total_s"].get(name, 0.0) / reps * 1e6 if reps else 0.0


# name -> (unit, value from one traced job's span summary and output record)
PER_LAYER = {
    "cli.read_stats_csv_s": ("s", lambda s, j: s["total_s"].get("cli.read_stats_csv", 0.0)),
    # derived: analyze (or simulate) wall time minus the timed layer calls
    "cli.residual_s": ("s", lambda s, j: s["self_s"].get("cli.main", 0.0)),
    "cli.bytes_read": ("bytes", lambda s, j: j["bytes_read"]),
    "cli.bytes_written": ("bytes", lambda s, j: j["bytes_written"]),
    "density.grenander_fit_s": ("s", lambda s, j: s["total_s"].get("density.grenander_fit", 0.0)),
    "density.grenander_pieces": ("count", lambda s, j: s["value"].get("density.grenander_fit", 0)),
    "lfdr.score_hypotheses_s": ("s", lambda s, j: s["total_s"].get("lfdr.score_hypotheses", 0.0)),
    "procedures.q_values_s": ("s", lambda s, j: s["total_s"].get("procedures.q_values", 0.0)),
    "procedures.rejection_rules_s": ("s", lambda s, j: (
        s["total_s"].get("procedures.bh_threshold", 0.0)
        + s["total_s"].get("procedures.support_line", 0.0))),
    "simulate.replicate_rng_us": ("us", lambda s, j: _per_rep(s, "simulate.replicate_rng")),
    "simulate.generate_us": ("us", lambda s, j: _per_rep(s, "simulate.generate")),
    "procedures.run_procedure_us": ("us", lambda s, j: _per_rep(s, "procedures.run_procedure")),
    # derived: the harness's own time per replicate (loop, tie-pick, Fraction
    # accumulators), i.e. mc_error_rates minus the calls timed inside it
    "simulate.accumulate_us": ("us", lambda s, j: (
        s["self_s"].get("simulate.mc_error_rates", 0.0)
        / max(1, s["calls"].get("simulate.replicate_rng", 0)) * 1e6)),
    "procedures.perturb_grid_pvalues_us": (
        "us", lambda s, j: _per_rep(s, "procedures.perturb_grid_pvalues")),
    "simulate.replicates": ("count", lambda s, j: s["calls"].get("simulate.replicate_rng", 0)),
    "procedures.values_sorted": ("count", lambda s, j: s["value"].get("procedures.run_procedure", 0)),
    "density.npmle_mixture_fit_s": (
        "s", lambda s, j: s["total_s"].get("density.npmle_mixture_fit", 0.0)),
    "density.npmle_loglik": ("nat", lambda s, j: s["value"].get("density.npmle_mixture_fit", 0.0)),
    "compound.clfdr_exact_s": ("s", lambda s, j: s["total_s"].get("compound.clfdr_exact", 0.0)),
}


def _start(cmd: List[str], env: Dict[str, str]):
    """Start a worker; return it and the seconds until it printed READY."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    if line.strip() != "READY":
        _finish(proc, 30.0)
        raise BenchError(f"worker did not get ready (exit code {proc.returncode})")
    return proc, ready


def _finish(proc, timeout: float) -> None:
    # communicate, not wait: it drains stdout, so a chatty worker cannot block
    try:
        proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker ran past the run's time limit and was stopped")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")


def _end_to_end(jobs: List[Dict], setup: List[float], peak_rss_mb: float) -> Dict:
    # work done over time spent: jobs of one workload differ in work (EM
    # iterations vary with the sample), so this is steadier than a median of
    # per-job rates
    done = [j for j in jobs if not j["error"]]
    busy = sum(j["seconds"] for j in done) or math.inf
    return {
        "setup_s": (_median(setup), "s"),
        "hyp_per_s": (sum(j["hypotheses"] for j in done) / busy, "hyp/s"),
        "reps_per_s": (sum(j["replicates"] for j in done) / busy, "rep/s"),
        "instances_per_s": (len(done) / busy, "inst/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def _per_layer(jobs: List[Dict], spans: Dict) -> Dict:
    traced = [(spans[str(i)], j) for i, j in enumerate(jobs)
              if j["traced"] and not j["error"]]
    metrics = {name: (_median([fn(s, j) for s, j in traced]), unit)
               for name, (unit, fn) in PER_LAYER.items()}
    # jobs come in pairs on one input, one traced and one not
    overhead = []
    for a, b in zip(jobs[::2], jobs[1::2]):
        if not (a["error"] or b["error"]):
            traced, plain = (a, b) if a["traced"] else (b, a)
            overhead.append(100.0 * (traced["seconds"] / plain["seconds"] - 1.0))
    metrics["trace.overhead_pct"] = (_median(overhead), "%")
    return metrics


def _environment(args) -> Dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "machine": platform.machine(),
        "platform": platform.platform(),
    }


def run(args) -> Dict:
    t0 = time.perf_counter()
    run_dir = ROOT / ".bench_out" / args.workload
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    wl = make_workload(args.workload, run_dir, args.seed, args.smoke)
    wl.make_inputs()

    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--run-dir", str(run_dir)]
    if args.smoke:
        cmd.append("--smoke")
    env = dict(os.environ)
    setup = []
    for _ in range(SETUP_PROBES):
        proc, ready = _start(cmd + ["--setup-only"], env)
        _finish(proc, 30.0)
        setup.append(ready)
    proc, ready = _start(cmd, env)
    setup.append(ready)
    _finish(proc, RUN_LIMIT_S - (time.perf_counter() - t0))

    result = json.loads((run_dir / "result.json").read_text(encoding="utf-8"))
    jobs = result["jobs"]
    reasons = wl.check(jobs)
    failed = sum(r is not None for r in reasons)
    if args.trace:
        metrics = _per_layer(jobs, result["spans"])
    else:
        metrics = _end_to_end(jobs, setup, result["peak_rss_mb"])
    record = {
        "environment": _environment(args),
        "why": wl.why,
        "attempted": len(jobs),
        "failed": failed,
        "failed_frac": failed / len(jobs),
        "failures": [r for r in reasons if r is not None],
        "setup_samples_s": setup,
        "job_seconds": [j["seconds"] for j in jobs],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if args.trace:
        record["layer_self_s"] = {
            str(i): result["spans"][str(i)]["layer_self_s"]
            for i, j in enumerate(jobs) if j["traced"] and not j["error"]}
    (run_dir / "record.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    for path in wl.large_files():
        path.unlink(missing_ok=True)
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes and the fewest jobs, for the benchmark's own test")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        ap.error("--seed and --seconds must be non-negative")
    if not (ROOT / "src" / "lfdrkit" / "__init__.py").is_file():
        print(f"error: no lfdrkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        record = run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print("env " + json.dumps(record["environment"], sort_keys=True))
    print(f"jobs attempted={record['attempted']} failed={record['failed']} "
          f"failed_frac={record['failed_frac']}")
    for reason in record["failures"]:
        print(f"failure: {reason}")
    for name, metric in record["metrics"].items():
        print(f"metric {name} = {metric['value']!r} {metric['unit']}")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
