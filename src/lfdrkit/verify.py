"""Named verification suites: theorem predictions, counterexamples, oracles.

Each check compares an observed quantity against an expected value at a
stated tolerance and returns :class:`CheckResult` records.  The CLI
``verify`` command and the acceptance test suite both run these.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional

import numpy as np
import scipy

from .compound import _clfdr_generic, clfdr_exact
from .core import (
    AssumptionError,
    BetaDensity,
    GaussianLocation,
    GroundTruth,
    Scale,
    StatVector,
    TwoGroupsSpec,
    Uniform01,
)
from .density import grenander_fit
from .lfdr import LfdrCurve
from .procedures import bh_threshold, q_values
from .simulate import (
    _SUPERUNIFORM_NULL,
    PRESETS,
    Bfdr,
    DiscreteUniformNulls,
    Fdr,
    MfdrInterval,
    PfdrInterval,
    Power,
    ProcedureConfig,
    TwoGroupsBeta,
    calibration_experiment,
    mc_error_rates,
    merge_reports,
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


def _bfdr_check(name: str, spec, proc: ProcedureConfig, expected: float, seed: int,
                start: int = 0, detail: Optional[str] = None):
    """The bFDR of ``proc`` on ``spec`` over replicates ``start .. start +
    MC_REPS - 1`` against ``expected``, within 3 standard errors (at least
    1e-12, for a run whose replicates all agree); the check and the estimate."""
    est = mc_error_rates(spec, proc, MC_REPS, [Bfdr()], seed, start=start).estimates["bFDR"]
    tol = max(3.0 * est["std_error"], 1e-12)
    return CheckResult(name, _close(est["mean"], expected, tol), est["mean"], expected, tol,
                       detail=f"N={MC_REPS}" if detail is None else detail), est


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
    p2 = 0.25
    prob = 0.0
    # boundary == p1 as the smaller value: p1 - alpha/2 < min(p2 - alpha, 0)
    upper_small = alpha / 2.0 - max(0.0, alpha - p2)
    a = min(p2, upper_small)
    if a > 0.0:
        prob += float(_SUPERUNIFORM_NULL.cdf(a))
    # boundary == p1 as the larger value: p1 - alpha < min(p2 - alpha/2, 0)
    upper_large = min(1.0, alpha - max(0.0, alpha / 2.0 - p2))
    if upper_large > p2:
        prob += float(_SUPERUNIFORM_NULL.cdf(upper_large)) - float(_SUPERUNIFORM_NULL.cdf(p2))
    return prob


def discrete_boundary_null_prob(alpha: Fraction) -> float:
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
    return [_bfdr_check(f"exact-bfdr-alpha-{alpha}", spec,
                        ProcedureConfig("support-line", alpha), spec.pi0 * alpha, seed)[0]
            for alpha in (0.1, 0.3)]


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
    check, est = _bfdr_check("superuniform-montecarlo", spec,
                             ProcedureConfig("support-line", alpha), 0.375, seed)
    out.append(check)
    out.append(CheckResult(
        name="superuniform-exceeds-uniform-null-level",
        passed=est["mean"] - 3.0 * est["std_error"] > 0.25,
        observed=est["mean"], expected=0.25, tolerance=0.0,
        detail="must strictly exceed pi0*alpha = 1/4"))
    return out


def check_discrete_counterexample(seed: int = DEFAULT_SEED) -> List[CheckResult]:
    spec, alpha = PRESETS["counterexample-discrete"]
    exact = discrete_boundary_null_prob(Fraction(alpha))
    return [
        CheckResult(name="discrete-exact",
                    passed=_close(exact, 11.0 / 54.0, 1e-10) and exact > 1.0 / 6.0,
                    observed=exact, expected=11.0 / 54.0, tolerance=1e-10,
                    detail="must exceed 2*alpha/m = 1/6"),
        _bfdr_check("discrete-montecarlo", spec, ProcedureConfig("support-line", alpha),
                    exact, seed)[0],
    ]


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
        generic_scores = _clfdr_generic(dens, truth.null_flags)
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
        q = q_values(stats)
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
    """The interval mFDR on [-eps, eps], null mass over total mass from the
    component cdfs, against the pointwise score at 0 as eps shrinks.  Its
    conditional form, pFDR, is the harness criterion :class:`PfdrInterval`."""
    spec = TwoGroupsSpec(0.95, GaussianLocation(0.0), GaussianLocation(2.0))
    target = LfdrCurve(spec.pi0, spec.f0, spec.mixture(), clip=False).evaluate(0.0)
    devs = []
    for eps in (0.5, 0.1, 0.02):
        mass0 = spec.pi0 * (spec.f0.cdf(eps) - spec.f0.cdf(-eps))
        mass1 = (1.0 - spec.pi0) * (spec.f1.cdf(eps) - spec.f1.cdf(-eps))
        devs.append(abs(float(mass0 / (mass0 + mass1)) - target))
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

def _grid_design(L: int, alpha: float, f_star, pi0_star: float, m: int):
    """A grid design of m p-values on {1/L..L/L} whose average pmf tends to
    ``f_star`` with null share ``pi0_star``, the maximizer l* of the
    population objective ``alpha * sum_{k<=l} f*(k/L) - l/L``, and the
    support line's limiting bFDR, pi0* / (L * f*(l*/L)) when l* > 0, else 0.

    The alternatives match ``(f_star - pi0_star/L) / (1 - pi0_star)`` by
    largest-remainder rounding.  Raises :class:`AssumptionError` unless the
    maximizer is unique with a strict gap.
    """
    f = np.asarray(f_star, dtype=float)
    objective = alpha * np.concatenate([[0.0], np.cumsum(f)]) - np.arange(L + 1) / L
    order = np.argsort(objective)
    if objective[order[-1]] - objective[order[-2]] < 1e-9:
        raise AssumptionError("population objective has no unique maximizer")
    l_star = int(order[-1])
    limit = pi0_star / (L * f[l_star - 1]) if l_star > 0 else 0.0

    # clipped, so that a cell a rounding error below 0 floors to 0, not -1
    alt_pmf = np.maximum((f - pi0_star / L) / (1.0 - pi0_star), 0.0)
    m1 = m - int(round(pi0_star * m))
    ideal = alt_pmf * m1
    base = np.floor(ideal).astype(int)
    order = np.argsort(-(ideal - base))
    base[order[:m1 - base.sum()]] += 1
    positions = tuple(k + 1 for k in range(L) for _ in range(base[k]))
    return DiscreteUniformNulls(m=m, L=L, alt_positions=positions), l_star, limit


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
    f_top = [pi0 / L] * (L - 1) + [pi0 / L + (1 - pi0)]
    spec, l_star, limit = _grid_design(L, 0.5, f_top, pi0, m)
    out = [_bfdr_check("discrete-asymptotics-zero-limit", spec,
                       ProcedureConfig("support-line", 0.5), limit, seed,
                       detail=f"alpha=0.5, l*={l_star}, m={m}, N={MC_REPS}")[0]]

    # each sub-experiment runs on its own replicate range of the same stream
    out.append(_bfdr_check("discrete-asymptotics-perturbed", spec,
                           ProcedureConfig("support-line", 0.5, perturb=True),
                           pi0 * 0.5, seed, start=MC_REPS,
                           detail=f"perturbed grid p-values, m={m}, N={MC_REPS}")[0])

    f_bottom = [pi0 / L + (1 - pi0)] + [pi0 / L] * (L - 1)
    spec, l_star, limit = _grid_design(L, 0.6, f_bottom, pi0, m)
    out.append(_bfdr_check("discrete-asymptotics-nonzero-limit", spec,
                           ProcedureConfig("support-line", 0.6), limit, seed,
                           start=2 * MC_REPS,
                           detail=f"alpha=0.6, l*={l_star}, limit={limit:.6f}")[0])
    return out


# ---------------------------------------------------------------------------
# Criterion 10: null p-value density bound for one-sided location tests
# ---------------------------------------------------------------------------

def check_pvalue_density_bound() -> List[CheckResult]:
    """The density of p = 1 - Phi(z) when Z ~ N(theta, 1), theta <= 0, is
    exp(theta * q(t) - theta^2 / 2) at t, with q(t) the upper t-quantile:
    at most 1 on [0, alpha*], alpha* = 1/2."""
    alpha_star = 0.5
    q = -scipy.special.ndtri(np.linspace(0.0, alpha_star, 10_000))
    out = []
    for theta in (0.0, -0.5, -2.0):
        with np.errstate(invalid="ignore"):
            dens = np.exp(theta * q - 0.5 * theta * theta)
        # at t = 0, q = +inf: the density's limit there is 0 for theta < 0
        peak = float(np.where(np.isposinf(q), 0.0, dens).max())
        out.append(CheckResult(
            f"null-pvalue-density-bound-theta-{theta}", peak <= 1.0 + 1e-9,
            peak, 1.0, 1e-9, detail=f"alpha* = {alpha_star}"))
    return out


# ---------------------------------------------------------------------------
# Criterion 11: determinism and the exact merge law
# ---------------------------------------------------------------------------

def check_determinism_and_merge(seed: int = DEFAULT_SEED) -> List[CheckResult]:
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
