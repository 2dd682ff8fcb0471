"""Command-line surface: analyze, simulate, calibrate, verify.

Input statistics arrive as CSV with a mandatory header ``id,stat[,truth]``
(truth 0 marks a true null).  Summaries are written as JSON with sorted
keys, per-hypothesis and per-bin tables as CSV; with a fixed seed every
output file is byte-identical across runs.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from itertools import chain
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .core import (
    AssumptionError,
    CapacityError,
    DegeneracyError,
    DomainError,
    EstimationError,
    FitError,
    GaussianLocation,
    LossSpec,
    Scale,
    StatVector,
    Uniform01,
    to_pvalues,
)
from .density import grenander_fit, lindsey_fit, npmle_mixture_fit
from .lfdr import LfdrCurve, score_hypotheses, selection_window_pi0, storey_pi0
from .procedures import (
    Procedure,
    bh_threshold,
    lfdr_threshold_rule,
    q_values,
    support_line,
)
from .simulate import (
    PRESETS,
    SCORERS,
    Bfdr,
    DiscreteUniformNulls,
    Fdr,
    GaussianMeans,
    MfdrInterval,
    PfdrInterval,
    Power,
    ProcedureConfig,
    SuperUniformCE,
    TwoGroupsBeta,
    calibration_experiment,
    mc_error_rates,
)
from .verify import DEFAULT_SEED, SUITE_NAMES, run_suite


class CliError(Exception):
    """User-facing error with a machine-parsable reason code."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


# the first matching class names the code, so subclasses come before ValueError
_ERROR_CODES = {
    DomainError: "domain",
    CapacityError: "capacity",
    DegeneracyError: "degenerate",
    EstimationError: "estimate",
    AssumptionError: "assumption",
    FitError: "fit",
    ValueError: "bad-arg",
    OSError: "io",
}


def _reason_code(exc: Exception) -> str:
    for etype, code in _ERROR_CODES.items():
        if isinstance(exc, etype):
            return code
    return "internal"


# ---------------------------------------------------------------------------
# I/O helpers
# ---------------------------------------------------------------------------

def read_stats_csv(path: str, scale: Scale) -> Tuple[StatVector, Optional[np.ndarray]]:
    """Parse ``id,stat[,truth]`` rows; errors carry the 1-based line number."""
    ids: List[str] = []
    vals: List[float] = []
    truth: List[bool] = []
    has_truth = False
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CliError("bad-input", f"{path}: empty file")
        cols = [c.strip().lower() for c in header]
        if cols[:2] != ["id", "stat"] or len(cols) > 3 or \
                (len(cols) == 3 and cols[2] != "truth"):
            raise CliError("bad-header", f"{path}:1: header must be id,stat[,truth]")
        has_truth = len(cols) == 3
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(cols):
                raise CliError("bad-row", f"{path}:{lineno}: expected {len(cols)} fields")
            try:
                stat = float(row[1])
            except ValueError:
                raise CliError("bad-row", f"{path}:{lineno}: non-numeric stat {row[1]!r}")
            if scale is Scale.P_VALUE and not 0.0 <= stat <= 1.0:
                raise CliError("bad-pvalue",
                               f"id {row[0]!r}: p-value {stat} outside [0, 1]")
            ids.append(row[0])
            vals.append(stat)
            if has_truth:
                if row[2] not in ("0", "1"):
                    raise CliError("bad-row", f"{path}:{lineno}: truth must be 0 or 1")
                truth.append(row[2] == "0")  # 0 marks a true null
    if not vals:
        raise CliError("bad-input", f"{path}: no statistics")
    try:
        stats = StatVector(vals, scale, ids=tuple(ids))
    except ValueError as exc:
        raise CliError("bad-input", f"{path}: {exc}")
    return stats, (np.array(truth, dtype=bool) if has_truth else None)


def _write_lines(path: Optional[str], lines: Iterable[str]) -> None:
    """Stream lines to stdout when ``path`` is None or ``-``, else to the file."""
    if path is None or path == "-":
        sys.stdout.writelines(lines)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(lines)


def write_json(path: Optional[str], payload: Dict) -> None:
    _write_lines(path, [json.dumps(payload, sort_keys=True, indent=2) + "\n"])


def write_csv(path: Optional[str], columns: Dict[str, Sequence[str]]) -> None:
    """Write a table given as header name -> equal-length column of formatted cells."""
    rows = zip(*columns.values(), strict=True)
    _write_lines(path, chain([",".join(columns) + "\n"],
                             (",".join(row) + "\n" for row in rows)))


def _float_cells(values: np.ndarray) -> List[str]:
    return list(map(repr, values.tolist()))


def _flag_cells(m: int, rejected: np.ndarray) -> List[str]:
    """Cells "1" at the rejected positions (indices or a boolean mask), "0" elsewhere."""
    flags = np.full(m, "0")
    flags[rejected] = "1"
    return flags.tolist()


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def _parse_pi0(text: str):
    parts = text.split(":")
    if parts[0] == "storey" and len(parts) == 2:
        return ("storey", float(parts[1]))
    if parts[0] == "fixed" and len(parts) == 2:
        return ("fixed", float(parts[1]))
    if parts[0] == "window" and len(parts) == 3:
        return ("window", float(parts[1]), float(parts[2]))
    raise CliError("bad-arg", f"cannot parse --pi0 {text!r}")


def _parse_density(text: str):
    parts = text.split(":")
    if parts[0] == "grenander" and len(parts) == 1:
        return ("grenander",)
    if parts[0] == "lindsey" and len(parts) == 3:
        return ("lindsey", int(parts[1]), int(parts[2]))
    if parts[0] == "npmle" and len(parts) == 3:
        return ("npmle", int(parts[1]), float(parts[2]))
    raise CliError("bad-arg", f"cannot parse --density {text!r}")


def _resolve(flag_value, config: Dict, key: str, default):
    if flag_value is not None:
        return flag_value
    return config.get(key, default)


def cmd_analyze(args) -> int:
    config: Dict = {}
    if args.config:
        config = json.loads(Path(args.config).read_text(encoding="utf-8"))
    input_path = _resolve(args.input, config, "input", None)
    if input_path is None:
        raise CliError("bad-arg", "analyze needs --input (or an input config key)")
    scale_txt = _resolve(args.scale, config, "scale", "p")
    if scale_txt not in ("p", "z"):
        raise CliError("bad-arg", f"unknown scale {scale_txt!r}")
    args.alpha = float(_resolve(args.alpha, config, "alpha", 0.1))
    args.lam = float(_resolve(args.lam, config, "lambda", 4.0))
    loss = LossSpec(args.lam)
    args.pi0 = _resolve(args.pi0, config, "pi0", "storey:0.5")
    args.density = _resolve(args.density, config, "density", "grenander")
    args.out = _resolve(args.out, config, "out", None)

    scale = Scale.P_VALUE if scale_txt == "p" else Scale.Z_VALUE
    stats, _ = read_stats_csv(input_path, scale)
    pstats = stats if scale is Scale.P_VALUE else \
        StatVector(to_pvalues(stats.values, scale), Scale.P_VALUE, ids=stats.ids)

    pi0_cfg = _parse_pi0(args.pi0)
    if pi0_cfg[0] == "fixed":
        pi0_value = float(pi0_cfg[1])
        if not 0.0 <= pi0_value <= 1.0:
            raise CliError("bad-arg", "fixed pi0 must lie in [0, 1]")
    elif pi0_cfg[0] == "storey":
        pi0_value = storey_pi0(pstats, pi0_cfg[1]).value
    else:
        pi0_value = selection_window_pi0(pstats, (0.0, pi0_cfg[1]), pi0_cfg[2]).value

    dens_cfg = _parse_density(args.density)
    if dens_cfg[0] == "grenander":
        null, avg, scored_stats = Uniform01(), grenander_fit(pstats), pstats
    else:
        if scale is not Scale.Z_VALUE:
            raise CliError("bad-arg", f"{dens_cfg[0]} density requires --scale z")
        if dens_cfg[0] == "lindsey":
            fit = lindsey_fit(stats, degree=dens_cfg[1], bins=dens_cfg[2])
        else:
            fit = npmle_mixture_fit(stats, grid_size=dens_cfg[1], tol=dens_cfg[2])
        null, avg, scored_stats = GaussianLocation(0.0), fit.density(), stats

    scores = score_hypotheses(LfdrCurve(pi0_value, null, avg), scored_stats)
    qvals = q_values(pstats).qvalues

    alpha = args.alpha
    results = {
        "bh": bh_threshold(pstats, alpha),
        "storey_bh": bh_threshold(pstats, alpha, m0_hat=pi0_value * pstats.m),
        "sl": support_line(pstats, alpha),
    }
    lfdr_decisions = lfdr_threshold_rule(scores, loss)

    table = {
        "id": stats.ids,
        "stat": _float_cells(stats.values),
        "q_value": _float_cells(qvals),
        "lfdr_score": _float_cells(scores),
        **{f"rejected_{name}": _flag_cells(stats.m, res.rejected)
           for name, res in results.items()},
        "rejected_lfdr": _flag_cells(stats.m, lfdr_decisions),
    }
    write_csv(args.out + ".csv" if args.out else None, table)

    summary = {
        "m": stats.m,
        "pi0_hat": pi0_value,
        "alpha": alpha,
        "lambda": args.lam,
        "density": args.density,
        "procedures": {
            name: {
                "rejections": res.n_rejections,
                "threshold": res.boundary_stat,
            } for name, res in results.items()
        },
        "lfdr_threshold": {"cutoff": loss.threshold,
                           "rejections": int(lfdr_decisions.sum())},
    }
    write_json(args.out + ".json" if args.out else None, summary)
    return 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

_GENERATOR_KINDS = {
    "gaussian-means": GaussianMeans,
    "two-groups-beta": TwoGroupsBeta,
    "discrete-uniform-nulls": DiscreteUniformNulls,
    "superuniform-ce": SuperUniformCE,
}


def _generator_from_config(cfg: Dict):
    kind = cfg.get("kind")
    if kind not in _GENERATOR_KINDS:
        raise CliError("bad-arg", f"unknown generator kind {kind!r}")
    params = {k: v for k, v in cfg.items() if k != "kind"}
    try:
        return _GENERATOR_KINDS[kind](**params)
    except (TypeError, ValueError) as exc:
        raise CliError("bad-arg", f"generator kind {kind!r}: {exc}")


def _parse_criteria(text: str):
    crits = []
    for item in text.split(","):
        item = item.strip()
        if item == "fdr":
            crits.append(Fdr())
        elif item == "bfdr":
            crits.append(Bfdr())
        elif item == "power":
            crits.append(Power())
        elif item.startswith("mfdr:"):
            _, s, t = item.split(":")
            crits.append(MfdrInterval(float(s), float(t)))
        elif item.startswith("pfdr:"):
            _, s, t = item.split(":")
            crits.append(PfdrInterval(float(s), float(t)))
        else:
            raise CliError("bad-arg", f"unknown criterion {item!r}")
    return crits


def _seeded_design(args, command: str):
    """The generator and default alpha of --preset, else of the --config file;
    a design from both is refused rather than one of them silently dropped."""
    if args.seed is None:
        raise CliError("bad-arg", f"--seed is mandatory for {command}")
    config = json.loads(Path(args.config).read_text(encoding="utf-8")) if args.config else {}
    if args.preset:
        if args.preset not in PRESETS:
            raise CliError("bad-arg", f"unknown preset {args.preset!r}; "
                                      f"choose from {sorted(PRESETS)}")
        clash = [key for key in ("generator", "alpha") if key in config]
        if clash:
            raise CliError("bad-arg", f"--preset {args.preset} conflicts with the "
                                      f"--config keys {clash}; give one design")
        return PRESETS[args.preset]
    if "generator" not in config:
        raise CliError("bad-arg", f"{command} needs --preset or a config generator")
    return _generator_from_config(config["generator"]), config.get("alpha", 0.1)


def cmd_simulate(args) -> int:
    if args.reps < 1:
        raise CliError("bad-arg", "--reps must be a positive integer")
    generator, alpha = _seeded_design(args, "simulate")
    if args.alpha is not None:
        alpha = args.alpha

    grid_L = None
    if args.perturb_discrete:
        if not isinstance(generator, DiscreteUniformNulls):
            raise CliError("bad-arg", "--perturb-discrete requires a grid generator")
        grid_L = generator.L
    proc = ProcedureConfig(args.procedure, alpha,
                           perturb=args.perturb_discrete, grid_L=grid_L)
    criteria = _parse_criteria(args.criteria)
    report = mc_error_rates(generator, proc, args.reps, criteria, seed=args.seed)
    write_json(args.out, report.to_jsonable())
    return 0


# ---------------------------------------------------------------------------
# calibrate
# ---------------------------------------------------------------------------

def cmd_calibrate(args) -> int:
    generator, _ = _seeded_design(args, "calibrate")
    curve = calibration_experiment(generator, args.scorer, args.reps,
                                   args.bin_width, args.seed)
    edges = curve.bin_edges
    write_csv(args.out, {
        "bin_lo": _float_cells(edges[:-1]),
        "bin_hi": _float_cells(edges[1:]),
        "count": list(map(str, curve.bin_counts.tolist())),
        # a bin that no score reached has no null fraction
        "null_fraction": ["" if math.isnan(f) else repr(f)
                          for f in curve.bin_null_fraction.tolist()],
    })
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args) -> int:
    results = run_suite(args.suite, seed=args.seed)
    for res in results:
        print(res.line())
    failures = sum(1 for r in results if not r.passed)
    print(f"{args.suite}: {len(results) - failures}/{len(results)} checks passed")
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lfdrkit",
        description="Local false discovery rate analysis and verification")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="score a CSV of statistics")
    pa.add_argument("--input", default=None)
    pa.add_argument("--config", default=None,
                    help="JSON config; explicit flags override its keys")
    pa.add_argument("--scale", choices=("p", "z"), default=None)
    pa.add_argument("--alpha", type=float, default=None)
    pa.add_argument("--lambda", dest="lam", type=float, default=None)
    pa.add_argument("--pi0", default=None,
                    help="storey:LAMBDA | fixed:VALUE | window:C:LAMBDA")
    pa.add_argument("--density", default=None,
                    help="grenander | lindsey:J:BINS | npmle:GRID:TOL")
    pa.add_argument("--out", default=None,
                    help="output stem; writes STEM.csv and STEM.json")
    pa.set_defaults(func=cmd_analyze)

    ps = sub.add_parser("simulate", help="run the Monte Carlo harness")
    ps.add_argument("--preset", default=None,
                    help=f"one of {sorted(PRESETS)}")
    ps.add_argument("--config", default=None, help="JSON config file")
    ps.add_argument("--procedure", choices=[p.value for p in Procedure],
                    default=Procedure.SUPPORT_LINE.value)
    ps.add_argument("--alpha", type=float, default=None)
    ps.add_argument("--criteria", default="bfdr,fdr")
    ps.add_argument("--reps", type=int, default=100_000)
    ps.add_argument("--seed", type=int, default=None)
    ps.add_argument("--perturb-discrete", action="store_true")
    ps.add_argument("--out", default=None)
    ps.set_defaults(func=cmd_simulate)

    pc = sub.add_parser("calibrate", help="pooled calibration curve")
    pc.add_argument("--preset", default=None)
    pc.add_argument("--config", default=None)
    pc.add_argument("--scorer", default="oracle-lfdr", choices=SCORERS)
    pc.add_argument("--reps", type=int, default=10_000)
    pc.add_argument("--bin-width", type=float, default=0.025)
    pc.add_argument("--seed", type=int, default=None)
    pc.add_argument("--out", default=None)
    pc.set_defaults(func=cmd_calibrate)

    pv = sub.add_parser("verify", help="run a named verification suite")
    pv.add_argument("suite", help=" | ".join(SUITE_NAMES))
    pv.add_argument("--seed", type=int, default=DEFAULT_SEED)
    pv.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"ERROR {exc.code}: {exc}", file=sys.stderr)
        return 2
    except tuple(_ERROR_CODES) as exc:
        print(f"ERROR {_reason_code(exc)}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
