#!/usr/bin/env python3
"""Boundary-FDR of the support line when the grid length grows with m.

With L = 1.8 m, nulls uniform on the grid and the alternatives parked on the
lowest cells, the boundary error rate overshoots pi0 * alpha and stays high;
rerunning on perturbed p-values restores the exact pi0 * alpha rate.
"""

import argparse

from lfdrkit.simulate import (
    Bfdr,
    DiscreteUniformNulls,
    ProcedureConfig,
    mc_error_rates,
)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--reps", type=int, default=20_000)
    parser.add_argument("--seed", type=int, default=202)
    parser.add_argument("--alpha", type=float, default=0.5)
    parser.add_argument("--pi0", type=float, default=0.9)
    parser.add_argument("--m", type=int, nargs="+",
                        default=[10, 50, 100, 500, 1000])
    args = parser.parse_args()

    print(f"pi0*alpha = {args.pi0 * args.alpha}")
    print(f"{'m':>6s} {'L':>6s} {'bFDR':>8s} {'3*se':>8s} {'perturbed':>10s}")
    for m in args.m:
        L = int(round(1.8 * m))
        m1 = int(round((1 - args.pi0) * m))
        spec = DiscreteUniformNulls(m=m, L=L,
                                    alt_positions=tuple(range(1, m1 + 1)))
        plain = mc_error_rates(spec, ProcedureConfig("support-line", args.alpha),
                               args.reps, [Bfdr()], seed=args.seed)
        pert = mc_error_rates(
            spec,
            ProcedureConfig("support-line", args.alpha, perturb=True),
            args.reps, [Bfdr()], seed=args.seed, start=args.reps)
        a = plain.estimates["bFDR"]
        b = pert.estimates["bFDR"]
        print(f"{m:6d} {L:6d} {a['mean']:8.4f} {3 * a['std_error']:8.4f} "
              f"{b['mean']:10.4f}")


if __name__ == "__main__":
    main()
