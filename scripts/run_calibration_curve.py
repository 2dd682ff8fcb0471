#!/usr/bin/env python3
"""Pooled calibration curves for p-values, q-values, and pointwise scores.

Writes one CSV per scorer (plot-ready: bin_lo, bin_hi, count, null_fraction)
for the 3000-hypothesis Gaussian design with a 5% planted shift.  Each file
is the output of ``lfdrkit calibrate --preset fig2-gaussian --scorer NAME``.
"""

import argparse
import sys
from pathlib import Path

from lfdrkit.cli import main as lfdrkit_main
from lfdrkit.simulate import SCORERS


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--reps", type=int, default=500)
    parser.add_argument("--bin-width", type=float, default=0.025)
    parser.add_argument("--seed", type=int, default=20240915)
    parser.add_argument("--outdir", default="calibration_out")
    args = parser.parse_args()

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for scorer in SCORERS:
        path = outdir / f"calibration_{scorer.replace('-', '_')}.csv"
        code = lfdrkit_main(["calibrate", "--preset", "fig2-gaussian", "--scorer", scorer,
                             "--reps", str(args.reps), "--bin-width", str(args.bin_width),
                             "--seed", str(args.seed), "--out", str(path)])
        if code:
            return code
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
