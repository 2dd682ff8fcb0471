#!/usr/bin/env python3
"""Pooled calibration curves for p-values, q-values, and pointwise scores.

Writes one CSV per scorer (plot-ready: bin_lo, bin_hi, count, null_fraction)
for the 3000-hypothesis Gaussian design with a 5% planted shift.
"""

import argparse
from pathlib import Path

from lfdrkit.simulate import PRESETS, calibration_experiment

SCORERS = ("p-value", "q-value", "oracle-lfdr", "estimated-lfdr")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--reps", type=int, default=500)
    parser.add_argument("--bin-width", type=float, default=0.025)
    parser.add_argument("--seed", type=int, default=20240915)
    parser.add_argument("--outdir", default="calibration_out")
    args = parser.parse_args()

    spec, _ = PRESETS["fig2-gaussian"]
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for scorer in SCORERS:
        curve = calibration_experiment(spec, scorer, args.reps,
                                       args.bin_width, args.seed)
        lines = ["bin_lo,bin_hi,count,null_fraction"]
        for k in range(curve.bin_counts.size):
            frac = curve.bin_null_fraction[k]
            frac_txt = "" if curve.bin_counts[k] == 0 else repr(float(frac))
            lines.append(f"{float(curve.bin_edges[k])!r},{float(curve.bin_edges[k + 1])!r},"
                         f"{int(curve.bin_counts[k])},{frac_txt}")
        path = outdir / f"calibration_{scorer.replace('-', '_')}.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
