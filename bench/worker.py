"""One workload's closed loop in a fresh interpreter; started by run.py.

Imports lfdrkit from the checkout's ``src``, warms up, prints ``READY`` on
stdout (the parent times set-up up to that line), then runs jobs one after
another until ``--seconds`` have passed and writes ``result.json`` to the
run directory.  With ``--trace 1`` every input runs twice, once untraced and
once traced, in alternating order, so the pair gives the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def schedule(wl, seconds: float, trace: bool):
    """Yield (input index, traced) for each job of the closed loop."""
    deadline = time.perf_counter() + seconds
    k = 0
    while k < wl.min_jobs or time.perf_counter() < deadline:
        index = wl.input_index(k // 2 if trace else k)
        if trace:
            first = (k // 2) % 2 == 1
            yield index, first
            yield index, not first
            k += 2
        else:
            yield index, False
            k += 1
    if wl.repeat_first and not trace:
        yield wl.input_index(0), False


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--run-dir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    from spans import Tracer
    from workloads import make_workload

    run_dir = Path(args.run_dir)
    wl = make_workload(args.workload, run_dir, args.seed, args.smoke)
    wl.warm_up()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    tracer = Tracer() if args.trace else None
    jobs = []
    for index, traced in schedule(wl, args.seconds, tracer is not None):
        inp = wl.prepare(index)
        job = {"input": index, "traced": traced, "error": None}
        start = time.perf_counter()
        try:
            if traced:
                with tracer.job(len(jobs)):
                    result = wl.job(inp)
            else:
                result = wl.job(inp)
            job["seconds"] = time.perf_counter() - start
            job.update(wl.record(inp, result))
        except Exception:
            job["seconds"] = time.perf_counter() - start
            job["error"] = traceback.format_exc()
            print(job["error"], file=sys.stderr)
        jobs.append(job)

    out = {"jobs": jobs,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        out["spans"] = {str(k): v for k, v in tracer.job_summaries().items()}
        tracer.write(run_dir / "spans.tsv")
    (run_dir / "result.json").write_text(json.dumps(out), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
