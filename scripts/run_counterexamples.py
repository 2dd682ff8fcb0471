#!/usr/bin/env python3
"""Exact vs Monte Carlo boundary-FDR for the two control-breaking designs.

Both designs break the pi0 * alpha guarantee of the support line: a
super-uniform (non-uniform) null, and nulls uniform on a short grid.
"""

import argparse

from lfdrkit.simulate import PRESETS, Bfdr, ProcedureConfig, mc_error_rates
from lfdrkit.verify import discrete_boundary_null_prob, superuniform_boundary_null_prob


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--reps", type=int, default=100_000)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    proc = ProcedureConfig("support-line", 0.5)
    rows = [
        ("super-uniform null (m=2)", PRESETS["counterexample-superuniform"][0],
         superuniform_boundary_null_prob(0.5), 0.25),
        ("grid null (m=6, L=9)", PRESETS["counterexample-discrete"][0],
         discrete_boundary_null_prob(), 1 / 6),
    ]
    print(f"{'design':28s} {'exact':>10s} {'monte carlo':>12s} {'3*se':>8s} {'pi0*alpha':>10s}")
    for name, spec, exact, guarantee in rows:
        report = mc_error_rates(spec, proc, args.reps, [Bfdr()], seed=args.seed)
        est = report.estimates["bFDR"]
        print(f"{name:28s} {exact:10.6f} {est['mean']:12.6f} "
              f"{3 * est['std_error']:8.5f} {guarantee:10.6f}")


if __name__ == "__main__":
    main()
