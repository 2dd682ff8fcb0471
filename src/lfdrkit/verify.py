"""Named verification suites: theorem predictions, counterexamples, oracles.

Each check compares an observed quantity against an expected value at a
stated tolerance and returns :class:`CheckResult` records.  The CLI
``verify`` command and the acceptance test suite both run these.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List

import numpy as np

from .compound import _clfdr_generic, clfdr_exact
from .core import (
    BetaDensity,
    GaussianLocation,
    GroundTruth,
    Scale,
    StatVector,
    TwoGroupsSpec,
    Uniform01,
)
from .density import grenander_fit
from .procedures import bh_threshold, q_values
from .simulate import (
    PRESETS,
    Bfdr,
    ProcedureConfig,
    TwoGroupsBeta,
    calibration_experiment,
    discrete_limit_check,
    exp_family_null_density_check,
    mc_error_rates,
    merge_reports,
    mfdr_pfdr_limit_check,
    replicate_rng,
)

DEFAULT_SEED = 20240915

# the sizes the acceptance criteria state: constants, so that no run of a
# check can be smaller than its criterion
MC_REPS = 100_000            # replicates per Monte Carlo estimate, criteria 1-3 and 9
CALIBRATION_REPS = 500       # replicates pooled per curve, criterion 4
CALIBRATION_MIN_COUNT = 500  # pooled scores a bin needs to be read, criterion 4
GRENANDER_INSTANCES = 1000   # criterion 5
CLFDR_INSTANCES = 500        # criterion 6
DUALITY_INSTANCES = 1000     # criterion 7


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    observed: float
    expected: float
    tolerance: float
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f"  ({self.detail})" if self.detail else ""
        return (f"{status} {self.name}: observed={self.observed:.6g} "
                f"expected={self.expected:.6g} tol={self.tolerance:.3g}{extra}")


def _close(observed: float, expected: float, tol: float) -> bool:
    return abs(observed - expected) <= tol


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------

def hull_density_oracle(p: np.ndarray):
    """Left derivative of the least concave majorant, by O(k^2) chord search.

    Walks from (0, 0), repeatedly taking the steepest chord to a remaining
    ECDF vertex (farthest vertex on ties).  Independent of the stack scan
    used by :func:`lfdrkit.density.grenander_fit`.
    """
    p = np.sort(np.asarray(p, dtype=float))
    m = p.size
    u, counts = np.unique(p, return_counts=True)
    ys = np.concatenate([[0.0], np.cumsum(counts) / m])
    xs = np.concatenate([[0.0], u])
    pieces = []  # (x0, x1, slope)
    cur = 0
    while cur < xs.size - 1:
        slopes = (ys[cur + 1:] - ys[cur]) / (xs[cur + 1:] - xs[cur])
        best = float(slopes.max())
        nxt = cur + 1 + int(np.flatnonzero(slopes == best)[-1])
        pieces.append((xs[cur], xs[nxt], (ys[nxt] - ys[cur]) / (xs[nxt] - xs[cur])))
        cur = nxt

    def evaluate(t: float) -> float:
        if t <= pieces[0][1]:
            return pieces[0][2]
        for x0, x1, s in pieces:
            if x0 < t <= x1:
                return s
        return 0.0

    return pieces, evaluate


def clfdr_factorial_oracle(dens: np.ndarray, null_flags: np.ndarray) -> np.ndarray:
    """Compound scores by brute enumeration over all m! relabelings."""
    m = dens.shape[0]
    total = 0.0
    nums = np.zeros(m)
    for perm in itertools.permutations(range(m)):
        w = 1.0
        for pos in range(m):
            w *= dens[perm[pos], pos]
        total += w
        for pos in range(m):
            if null_flags[perm[pos]]:
                nums[pos] += w
    return nums / total


def superuniform_boundary_null_prob(alpha: float = 0.5) -> float:
    """Exact boundary-null probability of the two-hypothesis super-uniform design.

    The alternative is fixed at p2 = 1/4; the event that the null p-value is
    the last support-line rejection is an interval in p1, integrated under
    the three-piece null density.
    """
    from .simulate import _SUPERUNIFORM_NULL as null_density

    p2 = 0.25
    prob = 0.0
    # boundary == p1 as the smaller value: p1 - alpha/2 < min(p2 - alpha, 0)
    upper_small = alpha / 2.0 - max(0.0, alpha - p2)
    a = min(p2, upper_small)
    if a > 0.0:
        prob += float(null_density.cdf(a))
    # boundary == p1 as the larger value: p1 - alpha < min(p2 - alpha/2, 0)
    upper_large = min(1.0, alpha - max(0.0, alpha / 2.0 - p2))
    if upper_large > p2:
        prob += float(null_density.cdf(upper_large)) - float(null_density.cdf(p2))
    return prob


def discrete_boundary_null_prob(alpha: Fraction = Fraction(1, 2)) -> float:
    """Exact boundary-null probability of the ``counterexample-discrete`` design.

    Enumerates the L grid values of its one null p-value in rational
    arithmetic, runs the support line exactly, and weighs the tied boundary
    uniformly.
    """
    spec, _ = PRESETS["counterexample-discrete"]
    L, m = spec.L, spec.m
    alts = [Fraction(k, L) for k in spec.alt_positions]
    prob = Fraction(0)
    for ell in range(1, L + 1):
        p6 = Fraction(ell, L)
        ps = sorted(alts + [p6])
        objective = [Fraction(0)] + [alpha * Fraction(k, m) - ps[k - 1]
                                     for k in range(1, m + 1)]
        best = max(objective)
        r = max(k for k, val in enumerate(objective) if val == best)
        if r == 0:
            continue
        threshold = ps[r - 1]
        if threshold == p6:
            n_other = sum(1 for q in alts if q == p6)
            prob += Fraction(1, L) * Fraction(1, n_other + 1)
    return float(prob)


# ---------------------------------------------------------------------------
# Criterion 1: exact boundary-FDR of the support line under uniform nulls
# ---------------------------------------------------------------------------

def check_exact_bfdr_control(seed: int = DEFAULT_SEED) -> List[CheckResult]:
    spec, _ = PRESETS["theorem-5.1"]
    out = []
    for alpha in (0.1, 0.3):
        proc = ProcedureConfig("support-line", alpha)
        report = mc_error_rates(spec, proc, MC_REPS, [Bfdr()], seed)
        est = report.estimates["bFDR"]
        expected = spec.pi0 * alpha
        tol = 3.0 * est["std_error"]
        out.append(CheckResult(
            name=f"exact-bfdr-alpha-{alpha}",
            passed=_close(est["mean"], expected, tol),
            observed=est["mean"], expected=expected, tolerance=tol,
            detail=f"N={MC_REPS}"))
    return out


# ---------------------------------------------------------------------------
# Criteria 2-3: counterexamples
# ---------------------------------------------------------------------------

def check_superuniform_counterexample(seed: int = DEFAULT_SEED) -> List[CheckResult]:
    spec, alpha = PRESETS["counterexample-superuniform"]
    exact = superuniform_boundary_null_prob(alpha=alpha)
    out = [CheckResult(
        name="superuniform-exact",
        passed=_close(exact, 3.0 / 8.0, 1e-10),
        observed=exact, expected=3.0 / 8.0, tolerance=1e-10)]
    report = mc_error_rates(spec, ProcedureConfig("support-line", alpha), MC_REPS,
                            [Bfdr()], seed)
    est = report.estimates["bFDR"]
    tol = 3.0 * est["std_error"]
    out.append(CheckResult(
        name="superuniform-montecarlo",
        passed=_close(est["mean"], 0.375, tol),
        observed=est["mean"], expected=0.375, tolerance=tol,
        detail=f"N={MC_REPS}"))
    out.append(CheckResult(
        name="superuniform-exceeds-uniform-null-level",
        passed=est["mean"] - 3.0 * est["std_error"] > 0.25,
        observed=est["mean"], expected=0.25, tolerance=0.0,
        detail="must strictly exceed pi0*alpha = 1/4"))
    return out


def check_discrete_counterexample(seed: int = DEFAULT_SEED) -> List[CheckResult]:
    exact = discrete_boundary_null_prob()
    out = [CheckResult(
        name="discrete-exact",
        passed=_close(exact, 11.0 / 54.0, 1e-10) and exact > 1.0 / 6.0,
        observed=exact, expected=11.0 / 54.0, tolerance=1e-10,
        detail="must exceed 2*alpha/m = 1/6")]
    spec, alpha = PRESETS["counterexample-discrete"]
    report = mc_error_rates(spec, ProcedureConfig("support-line", alpha), MC_REPS,
                            [Bfdr()], seed)
    est = report.estimates["bFDR"]
    tol = 3.0 * est["std_error"]
    out.append(CheckResult(
        name="discrete-montecarlo",
        passed=_close(est["mean"], exact, tol),
        observed=est["mean"], expected=exact, tolerance=tol,
        detail=f"N={MC_REPS}"))
    return out


# ---------------------------------------------------------------------------
# Criterion 4: calibration of pointwise scores vs anti-conservative q-values
# ---------------------------------------------------------------------------

def check_calibration(seed: int = DEFAULT_SEED) -> List[CheckResult]:
    spec, _ = PRESETS["fig2-gaussian"]
    bw = 0.025
    oracle = calibration_experiment(spec, "oracle-lfdr", CALIBRATION_REPS, bw, seed)
    mids = 0.5 * (oracle.bin_edges[:-1] + oracle.bin_edges[1:])
    use = oracle.bin_counts >= CALIBRATION_MIN_COUNT
    dev = np.abs(oracle.bin_null_fraction[use] - mids[use])
    out = [CheckResult(
        name="calibration-oracle-diagonal",
        passed=bool(use.any()) and float(dev.max()) <= 0.05,
        observed=float(dev.max()) if use.any() else math.nan,
        expected=0.0, tolerance=0.05,
        detail=f"{int(use.sum())} bins with >= {CALIBRATION_MIN_COUNT} pooled scores")]

    qcurve = calibration_experiment(spec, "q-value", CALIBRATION_REPS, bw, seed)
    sel = (qcurve.bin_counts >= CALIBRATION_MIN_COUNT) & (mids <= 0.3)
    margins = qcurve.bin_null_fraction[sel] - mids[sel]
    out.append(CheckResult(
        name="calibration-qvalue-anticonservative",
        passed=bool(sel.any()) and float(margins.min()) > 0.0,
        observed=float(margins.min()) if sel.any() else math.nan,
        expected=0.0, tolerance=0.0,
        detail="null fraction must exceed the q-value bin in every bin <= 0.3"))
    return out


# ---------------------------------------------------------------------------
# Criterion 5: monotone MLE equals the brute-force hull oracle
# ---------------------------------------------------------------------------

def _random_grenander_instance(rng) -> np.ndarray:
    n = int(rng.integers(1, 51))
    kind = rng.integers(4)
    if kind == 0:
        p = rng.random(n)
    elif kind == 1:
        p = rng.beta(0.3, 1.0, n)
    elif kind == 2:
        p = rng.beta(2.0, 5.0, n)
    else:
        p = rng.integers(1, 11, n) / 10.0  # heavy ties
    return np.clip(p, 1e-12, 1.0)


def check_grenander_oracle(seed: int = DEFAULT_SEED) -> List[CheckResult]:
    worst = 0.0
    worst_mass = 0.0
    monotone_ok = True
    for i in range(GRENANDER_INSTANCES):
        rng = replicate_rng(seed, i)
        p = _random_grenander_instance(rng)
        fit = grenander_fit(StatVector(p, Scale.P_VALUE))
        _, oracle_eval = hull_density_oracle(p)
        u = np.unique(p)
        probes = np.concatenate([u, (u[:-1] + u[1:]) / 2.0,
                                 [u[-1] / 2.0, min(1.0, u[-1] + (1 - u[-1]) / 2.0), 1.0]])
        probes = np.unique(np.clip(probes, 0.0, 1.0))
        got = np.asarray(fit.pdf(probes))
        want = np.array([oracle_eval(float(t)) for t in probes])
        worst = max(worst, float(np.abs(got - want).max()))
        worst_mass = max(worst_mass, abs(fit.total_mass() - 1.0))
        monotone_ok = monotone_ok and bool(np.all(np.diff(fit.heights) <= 0))
    return [
        CheckResult("grenander-vs-hull-oracle", worst <= 1e-10, worst, 0.0, 1e-10,
                    detail=f"{GRENANDER_INSTANCES} instances, n <= 50"),
        CheckResult("grenander-unit-mass", worst_mass <= 1e-10, worst_mass, 0.0, 1e-10),
        CheckResult("grenander-nonincreasing", monotone_ok,
                    1.0 if monotone_ok else 0.0, 1.0, 0.0),
    ]


# ---------------------------------------------------------------------------
# Criterion 6: compound-score identities
# ---------------------------------------------------------------------------

def _random_two_groups_instance(rng, max_m: int):
    m = int(rng.integers(1, max_m + 1))
    m0 = int(rng.integers(0, m + 1))
    a = float(rng.uniform(0.1, 0.9))
    flags = np.zeros(m, dtype=bool)
    flags[rng.permutation(m)[:m0]] = True
    p = np.where(flags, rng.random(m), rng.beta(a, 1.0, m))
    p = np.clip(p, 1e-12, 1.0)
    f0, f1 = Uniform01(), BetaDensity(a, 1.0)
    models = [f0 if f else f1 for f in flags]
    stats = StatVector(p, Scale.P_VALUE)
    return stats, GroundTruth(flags), models


def check_clfdr_identities(seed: int = DEFAULT_SEED) -> List[CheckResult]:
    worst_sum = 0.0
    worst_fact = 0.0
    worst_paths = 0.0
    n_fact = 0
    for i in range(CLFDR_INSTANCES):
        rng = replicate_rng(seed, 10_000 + i)
        stats, truth, models = _random_two_groups_instance(rng, 15)
        res = clfdr_exact(stats, truth, models)
        worst_sum = max(worst_sum, abs(float(res.scores.sum()) - truth.m0))

        dens = np.stack([np.asarray(mod.pdf(stats.values), dtype=float)
                         for mod in models])
        generic_scores, _ = _clfdr_generic(dens, truth.null_flags)
        worst_paths = max(worst_paths, float(np.abs(res.scores - generic_scores).max()))

        if stats.m <= 7:
            n_fact += 1
            fact = clfdr_factorial_oracle(dens, truth.null_flags)
            worst_fact = max(worst_fact, float(np.abs(res.scores - fact).max()))
    return [
        CheckResult("clfdr-sum-equals-m0", worst_sum <= 1e-8, worst_sum, 0.0, 1e-8,
                    detail=f"{CLFDR_INSTANCES} instances, m <= 15"),
        CheckResult("clfdr-vs-factorial", worst_fact <= 1e-10, worst_fact, 0.0, 1e-10,
                    detail=f"{n_fact} instances, m <= 7"),
        CheckResult("clfdr-fast-vs-generic", worst_paths <= 1e-10, worst_paths,
                    0.0, 1e-10, detail=f"{CLFDR_INSTANCES} instances, m <= 15"),
    ]


# ---------------------------------------------------------------------------
# Criterion 7: q-value / step-up duality
# ---------------------------------------------------------------------------

def check_qvalue_bh_duality(seed: int = DEFAULT_SEED) -> List[CheckResult]:
    failures = 0
    total = 0
    for i in range(DUALITY_INSTANCES):
        rng = replicate_rng(seed, 20_000 + i)
        m = int(rng.integers(1, 201))
        mix = rng.random(m) < 0.3
        p = np.where(mix, rng.beta(0.2, 1.0, m), rng.random(m))
        p = np.clip(p, 1e-6, 1.0)
        stats = StatVector(p, Scale.P_VALUE)
        q = q_values(stats).qvalues
        for j in range(m):
            total += 1
            hit = bh_threshold(stats, float(q[j]))
            ok = j in set(hit.rejected.tolist())
            alpha_below = float(q[j]) - 1e-9
            if alpha_below > 0.0:
                miss = bh_threshold(stats, alpha_below)
                ok = ok and j not in set(miss.rejected.tolist())
            if not ok:
                failures += 1
    return [CheckResult(
        "qvalue-bh-duality", failures == 0, float(failures), 0.0, 0.0,
        detail=f"{total} hypothesis checks across {DUALITY_INSTANCES} instances")]


# ---------------------------------------------------------------------------
# Criterion 8: interval error rates converge to the pointwise score
# ---------------------------------------------------------------------------

def check_mfdr_pfdr_limit() -> List[CheckResult]:
    spec = TwoGroupsSpec(0.95, GaussianLocation(0.0), GaussianLocation(2.0))
    eps = (0.5, 0.1, 0.02)
    records = mfdr_pfdr_limit_check(spec, t=0.0, eps_sequence=eps)
    devs = [r.mfdr_deviation for r in records]
    decreasing = all(devs[k] > devs[k + 1] for k in range(len(devs) - 1))
    return [
        CheckResult("mfdr-limit-strictly-decreasing", decreasing,
                    devs[-1], 0.0, 0.0,
                    detail="deviations " + ", ".join(f"{d:.2e}" for d in devs)),
        CheckResult("mfdr-limit-final-deviation", devs[-1] < 0.01,
                    devs[-1], 0.0, 0.01, detail="eps = 0.02"),
    ]


# ---------------------------------------------------------------------------
# Criterion 9: discrete-grid asymptotics and the perturbation fix
# ---------------------------------------------------------------------------

def check_discrete_grid_asymptotics(seed: int = DEFAULT_SEED) -> List[CheckResult]:
    """Support-line boundary FDR on grid p-values at m = 5000, L = 10.

    At pi0* = 0.9 and alpha = 0.5 no grid pmf can push the population
    objective positive (alpha * max f* = 0.095 < 1/L), so the stated design
    sits in the zero-limit regime: with the alternatives parked at the top
    grid cell the limit is 0 and the perturbed run must recover pi0* * alpha.
    A third run at alpha = 0.6 (alternatives at the bottom cell) exercises
    the nonzero-limit branch, pi0* / (L * f*(l*/L)).
    """
    L, pi0 = 10, 0.9
    m = 5000
    out = []

    f_top = [pi0 / L] * (L - 1) + [pi0 / L + (1 - pi0)]
    rec = discrete_limit_check(L, 0.5, f_top, pi0, m, MC_REPS, seed)
    tol = max(3.0 * rec.std_error, 1e-12)
    out.append(CheckResult(
        "discrete-asymptotics-zero-limit",
        _close(rec.bfdr, rec.limit, tol), rec.bfdr, rec.limit, tol,
        detail=f"alpha=0.5, l*={rec.l_star}, m={m}, N={MC_REPS}"))

    # each sub-experiment runs on its own replicate range of the same stream
    rec_p = discrete_limit_check(L, 0.5, f_top, pi0, m, MC_REPS, seed,
                                 perturb=True, start=MC_REPS)
    tol = 3.0 * rec_p.std_error
    out.append(CheckResult(
        "discrete-asymptotics-perturbed",
        _close(rec_p.bfdr, pi0 * 0.5, tol), rec_p.bfdr, pi0 * 0.5, tol,
        detail=f"perturbed grid p-values, m={m}, N={MC_REPS}"))

    f_bottom = [pi0 / L + (1 - pi0)] + [pi0 / L] * (L - 1)
    rec_nz = discrete_limit_check(L, 0.6, f_bottom, pi0, m, MC_REPS, seed,
                                  start=2 * MC_REPS)
    tol = 3.0 * rec_nz.std_error
    out.append(CheckResult(
        "discrete-asymptotics-nonzero-limit",
        _close(rec_nz.bfdr, rec_nz.limit, tol), rec_nz.bfdr, rec_nz.limit, tol,
        detail=f"alpha=0.6, l*={rec_nz.l_star}, limit={rec_nz.limit:.6f}"))
    return out


# ---------------------------------------------------------------------------
# Criterion 10: null p-value density bound for one-sided location tests
# ---------------------------------------------------------------------------

def check_pvalue_density_bound() -> List[CheckResult]:
    grid = np.linspace(0.0, 0.5, 10_000)
    out = []
    for theta in (0.0, -0.5, -2.0):
        res = exp_family_null_density_check(theta, 0.0, grid)
        out.append(CheckResult(
            f"null-pvalue-density-bound-theta-{theta}",
            res.max_density_on_window <= 1.0 + 1e-9,
            res.max_density_on_window, 1.0, 1e-9,
            detail=f"alpha* = {res.alpha_star}"))
    return out


# ---------------------------------------------------------------------------
# Criterion 11: determinism and the exact merge law
# ---------------------------------------------------------------------------

def check_determinism_and_merge(seed: int = DEFAULT_SEED) -> List[CheckResult]:
    import json

    from .simulate import Fdr, MfdrInterval, PfdrInterval, Power

    spec = TwoGroupsBeta(m=50, pi0=0.6, a=0.2, b=1.0)
    proc = ProcedureConfig("support-line", 0.3)
    crits = [Fdr(), Bfdr(), Power(), MfdrInterval(0.0, 0.5), PfdrInterval(0.0, 0.5)]

    full_a = mc_error_rates(spec, proc, 400, crits, seed)
    full_b = mc_error_rates(spec, proc, 400, crits, seed)
    bytes_a = json.dumps(full_a.to_jsonable(), sort_keys=True)
    bytes_b = json.dumps(full_b.to_jsonable(), sort_keys=True)
    identical = bytes_a == bytes_b

    left = mc_error_rates(spec, proc, 150, crits, seed, start=0)
    right = mc_error_rates(spec, proc, 250, crits, seed, start=150)
    merged = merge_reports(left, right)
    merged_bytes = json.dumps(merged.to_jsonable(), sort_keys=True)
    merge_exact = merged_bytes == bytes_a

    return [
        CheckResult("determinism-identical-reruns", identical,
                    1.0 if identical else 0.0, 1.0, 0.0),
        CheckResult("merge-law-exact", merge_exact,
                    1.0 if merge_exact else 0.0, 1.0, 0.0,
                    detail="150 + 250 replicates merge to the 400-replicate run"),
    ]


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------

SUITE_NAMES = ("theorems", "counterexamples", "oracles")


def run_suite(name: str, seed: int = DEFAULT_SEED) -> List[CheckResult]:
    if name == "counterexamples":
        return (check_superuniform_counterexample(seed)
                + check_discrete_counterexample(seed))
    if name == "oracles":
        return (check_grenander_oracle(seed)
                + check_clfdr_identities(seed)
                + check_qvalue_bh_duality(seed))
    if name == "theorems":
        return (check_exact_bfdr_control(seed)
                + check_calibration(seed)
                + check_mfdr_pfdr_limit()
                + check_discrete_grid_asymptotics(seed)
                + check_pvalue_density_bound()
                + check_determinism_and_merge(seed))
    raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
