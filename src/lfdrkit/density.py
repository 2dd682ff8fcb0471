"""Average-density estimators: monotone MLE, exponential-family fit, grid NPMLE.

All three maximize the same objective, the mean log-likelihood
``(1/m) * sum_i log f(z_i)``, over different candidate families:

* :func:`grenander_fit` -- nonincreasing densities on [0, 1],
* :func:`lindsey_fit` -- exp(polynomial) densities fitted through a binned
  Poisson regression,
* :func:`npmle_mixture_fit` -- Gaussian location mixtures over a fixed
  atom grid, fitted by a primal-dual interior point method that stops on the
  KKT condition: TOL bounds the KKT gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .core import (
    Density,
    DegeneracyError,
    ExpFamilyPoly,
    FitError,
    GaussianLocation,
    MixtureDensity,
    Scale,
    StatVector,
    _StepMass,
    normal_pdf,
)


# ---------------------------------------------------------------------------
# Grenander: monotone maximum likelihood on [0, 1]
# ---------------------------------------------------------------------------

# vertices this close under a chord between two vertices are kept for the
# exact stack scan; float error in the chord test is far below it
_HULL_CANDIDATE_TOL = 1e-12
# a chord shorter than this drops nothing: its cross products could underflow
# and lose the relative precision that the tolerance test needs
_MIN_CHORD_SPAN = 2.0 ** -600
# a pass of the filter that would drop less than this share of the vertices
# it tests ends its loop, which keeps the filter's work O(m)
_MIN_DROP_SHARE = 0.125
# while more than _COARSE_MIN vertices are left, the filter tests them against
# the hull of every _COARSE_STRIDE-th one
_COARSE_STRIDE = 32
_COARSE_MIN = 1024
# vertices a coarse pass tests at a time
_HULL_BLOCK = 1 << 16


def _far_under(gap, span):
    """Whether a vertex whose height over a chord, times the chord's span,
    is ``gap`` lies more than ``_HULL_CANDIDATE_TOL`` under that chord."""
    far = span >= _MIN_CHORD_SPAN
    far &= gap < -_HULL_CANDIDATE_TOL * span
    return far


def _far_under_hull(xs: np.ndarray, ys: np.ndarray, hx: np.ndarray,
                    hy: np.ndarray) -> np.ndarray:
    """``_far_under`` of each vertex ``(xs, ys)`` for the chord of the hull
    ``(hx, hy)`` that spans it, ``_HULL_BLOCK`` vertices at a time, so that
    no temporary is as long as ``xs``.  A chord spans the vertices from its
    start up to the next chord's; the last vertex, the last chord's end, goes
    with the last chord."""
    starts = np.searchsorted(xs, hx[:-1])
    dhx, dhy = np.diff(hx), np.diff(hy)
    far = np.empty(xs.size, dtype=bool)
    for lo in range(0, xs.size, _HULL_BLOCK):
        hi = min(lo + _HULL_BLOCK, xs.size)
        chord = np.searchsorted(starts, np.arange(lo, hi), side="right") - 1
        span = dhx[chord]
        gap = (ys[lo:hi] - hy[chord]) * span
        gap -= dhy[chord] * (xs[lo:hi] - hx[chord])
        far[lo:hi] = _far_under(gap, span)
    return far


def _hull_candidates(xs: np.ndarray, ys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The ECDF vertices ``(xs, ys)`` that the hull scan must see, in order.

    A vertex more than ``_HULL_CANDIDATE_TOL`` under a chord between two
    vertices lies at least that far under the least concave majorant, and
    is dropped.  Heights over a chord are taken in cross-product form, times
    the chord's span: there is no division, so subnormal spacings cannot
    overflow it.  While more than ``_COARSE_MIN`` vertices are left, coarse
    passes test each against the hull of every ``_COARSE_STRIDE``-th one,
    which this filter and the stack scan find; local rounds then test each
    against the chord of its neighbours.  Local rounds alone would stall on
    a long straight run under the majorant, as evenly spaced p-values make,
    dropping one vertex a round.  A pass that would drop less than
    ``_MIN_DROP_SHARE`` of the vertices it tests drops none and ends its
    loop, so the work is O(m).  Both endpoints are kept.
    """
    with np.errstate(under="ignore"):
        while xs.size > _COARSE_MIN:
            sub = np.append(np.arange(0, xs.size - 1, _COARSE_STRIDE), xs.size - 1)
            hx, hy = _hull_candidates(xs[sub], ys[sub])
            hull = _stack_scan(hx, hy)
            hx, hy = hx[hull], hy[hull]
            far = _far_under_hull(xs, ys, hx, hy)
            if np.count_nonzero(far) < _MIN_DROP_SHARE * far.size:
                break
            # np.compress skips the branchy path of boolean indexing
            xs, ys = np.compress(~far, xs), np.compress(~far, ys)
        while xs.size > 2:
            dx, dy = np.diff(xs), np.diff(ys)
            gap = dy[:-1] * dx[1:]
            gap -= dy[1:] * dx[:-1]
            far = _far_under(gap, dx[:-1] + dx[1:])
            if np.count_nonzero(far) < _MIN_DROP_SHARE * far.size:
                break
            keep = np.concatenate(([True], ~far, [True]))
            xs, ys = np.compress(keep, xs), np.compress(keep, ys)
    return xs, ys


def _stack_scan(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Indices of the vertices that a float stack scan keeps on the least
    concave majorant of ``(xs, ys)``: those with strictly decreasing chords."""
    # Python floats do the same IEEE double arithmetic as numpy scalars, and
    # faster per step, which matters when every vertex is a candidate
    cx, cy = xs.tolist(), ys.tolist()
    hull = [0]
    for j in range(1, len(cx)):
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            s_prev = (cy[b] - cy[a]) / (cx[b] - cx[a])
            s_new = (cy[j] - cy[b]) / (cx[j] - cx[b])
            if s_prev <= s_new:
                hull.pop()
            else:
                break
        hull.append(j)
    return np.array(hull)


@dataclass(frozen=True)
class MonotoneDensityFit(_StepMass, Density):
    """Nonincreasing step density from the least concave majorant of the ECDF.

    ``heights[j]`` is the density on ``(breakpoints[j], breakpoints[j+1]]``;
    the value at 0 is the first height (left-derivative convention), and the
    value past the last breakpoint, up to 1, is 0.
    """

    breakpoints: Tuple[float, ...]
    heights: Tuple[float, ...]
    loglik: float
    support = (0.0, 1.0)

    def __post_init__(self):
        bp, hts = self._set_steps()
        if not (bp[0] == 0.0 and bp[-1] <= 1.0 and (np.diff(hts) <= 0).all()):
            raise ValueError("need breakpoints from 0 to at most 1 and nonincreasing heights")

    def _pdf(self, arr):
        bp = np.asarray(self.breakpoints)
        hts = np.asarray(self.heights)
        # piece ending at each knot: value on (bp[j], bp[j+1]], and h[0] at 0
        idx = np.searchsorted(bp[1:], arr, side="left")
        return np.where(idx < len(hts), hts[np.minimum(idx, len(hts) - 1)], 0.0)


def grenander_fit(stats: StatVector) -> MonotoneDensityFit:
    """Maximum likelihood nonincreasing density on [0, 1].

    Computed as the left derivative of the least concave majorant of the
    empirical CDF (tied order statistics collapse to a single jump).  A
    numpy chord filter drops every vertex more than ``_HULL_CANDIDATE_TOL``
    under a chord between two vertices, and so at least that far under the
    majorant; a float stack scan over the vertices left, both endpoints
    among them, picks the hull.  A vertex that far under the majorant is
    far from every hull chord, so dropping it changes no comparison the scan
    makes: the breakpoints and heights are those of the same scan over every
    vertex.  O(m log m) including the sort, which is ``stats.order``; the
    filter is O(m).  Raises :class:`FitError` when a height or the
    log-likelihood is not finite, as when two p-values lie a subnormal
    spacing apart.
    """
    if stats.scale is not Scale.P_VALUE:
        raise ValueError("grenander_fit expects p-scale statistics")
    p = stats.values[stats.order]
    m = p.size
    if p[0] <= 0.0:
        raise DegeneracyError(
            "monotone MLE undefined with an observation at exactly 0; "
            "perturb grid p-values first")
    # ECDF vertices: the last order statistic of each tie run, after (0, 0).
    # Each is written once into its own array, and the sorted sample is let
    # go while the hull is found, so that few m-long arrays live at once
    is_last = np.empty(m, dtype=bool)
    np.not_equal(p[1:], p[:-1], out=is_last[:-1])
    is_last[-1] = True
    xs = np.zeros(np.count_nonzero(is_last) + 1)
    np.compress(is_last, p, out=xs[1:])
    del p
    ys = np.zeros(xs.size)
    ys[1:] = np.flatnonzero(is_last)
    del is_last
    ys[1:] += 1.0
    ys[1:] /= m

    cx, cy = _hull_candidates(xs, ys)
    del xs, ys
    hull = _stack_scan(cx, cy)
    hx = cx[hull]
    hy = cy[hull]
    with np.errstate(over="ignore"):
        heights = np.diff(hy) / np.diff(hx)

    # every sample point sits on (hx[j], hx[j+1]] for some piece j
    logs = heights[np.searchsorted(hx[1:], stats.values[stats.order], side="left")]
    ll = float(np.mean(np.log(logs, out=logs)))
    if not (np.all(np.isfinite(heights)) and math.isfinite(ll)):
        raise FitError(f"monotone fit has log-likelihood {ll!r}: p-values a subnormal "
                       f"spacing apart make a height overflow to {float(heights.max())!r}")
    return MonotoneDensityFit(hx, heights, loglik=ll)


# ---------------------------------------------------------------------------
# Lindsey: exp(polynomial) density via binned Poisson regression
# ---------------------------------------------------------------------------

# the Newton steps have converged once no gradient component exceeds this
_GRAD_TOL = 1e-8


@dataclass(frozen=True)
class ExpFamilyFit:
    coefficients: Tuple[float, ...]
    bin_edges: Tuple[float, ...]
    iterations: int
    converged: bool

    def density(self) -> ExpFamilyPoly:
        return ExpFamilyPoly(self.coefficients, self.bin_edges[0], self.bin_edges[-1])


def _poisson_loglik(y, eta):
    return float(np.sum(y * eta - np.exp(eta)))


def lindsey_fit(stats: StatVector, degree: int = 7, bins: int = 120,
                max_iter: int = 200) -> ExpFamilyFit:
    """Fit exp(sum_j beta_j z^j) by Poisson regression on histogram counts.

    Bins span [min z - 0.5, max z + 0.5] with equal widths.  The GLM is
    solved by damped Newton with step halving; the returned coefficients are
    shifted so the density integrates to 1 over the bin range.  ``iterations``
    counts Newton steps, and converged is False when ``max_iter`` of them left
    the gradient above ``_GRAD_TOL``.  Raises
    :class:`FitError` when that integral is not finite and positive, or when
    the fitted density's mean log-likelihood on the data is not finite.
    """
    z = stats.values
    m = z.size
    if degree < 0:
        raise ValueError("degree must be >= 0")
    if m < degree + 2:
        raise ValueError(f"need m >= degree + 2, got m={m}")
    if bins < degree + 2:
        raise ValueError(f"need bins >= degree + 2, got bins={bins}")

    lo, hi = float(z.min()) - 0.5, float(z.max()) + 0.5
    edges = np.linspace(lo, hi, bins + 1)
    if not np.all(edges[1:] > edges[:-1]):
        # far from 0 the float spacing exceeds the bin width, and bins collapse
        raise FitError(f"{bins} bins of width {(hi - lo) / bins!r} over the data range "
                       f"[{float(z.min())!r}, {float(z.max())!r}] round to width 0")
    counts, _ = np.histogram(z, bins=edges)
    if np.count_nonzero(counts) <= 1:
        raise FitError("degenerate histogram: all mass in one bin")
    width = edges[1] - edges[0]
    mids = 0.5 * (edges[:-1] + edges[1:])

    # fit in the standardized variable u for conditioning, map back after
    c, s = 0.5 * (lo + hi), 0.25 * (hi - lo)
    u = (mids - c) / s
    V = np.vander(u, degree + 1, increasing=True)
    offset = math.log(m * width)

    # exp may overflow to inf: step halving refuses a -inf loglik, the mass gate an inf norm
    with np.errstate(over="ignore"):
        gamma = np.zeros(degree + 1)
        y = counts.astype(float)
        eta = V @ gamma + offset
        ll = _poisson_loglik(y, eta)
        iterations = 0
        while True:
            mu = np.exp(eta)
            grad = V.T @ (y - mu)
            converged = bool(np.max(np.abs(grad)) <= _GRAD_TOL)
            if converged or iterations >= max_iter:
                break
            hess = V.T @ (mu[:, None] * V)
            try:
                step = np.linalg.solve(hess, grad)
            except np.linalg.LinAlgError:
                step = np.linalg.lstsq(hess, grad, rcond=None)[0]
            # step halving keeps the objective nondecreasing
            t = 1.0
            for _ in range(60):
                cand = gamma + t * step
                eta_cand = V @ cand + offset
                ll_cand = _poisson_loglik(y, eta_cand)
                if np.isfinite(ll_cand) and ll_cand >= ll - 1e-12:
                    break
                t *= 0.5
            gamma = gamma + t * step
            eta = V @ gamma + offset
            ll = _poisson_loglik(y, eta)
            iterations += 1

        poly_u = np.polynomial.Polynomial(gamma)
        beta = poly_u(np.polynomial.Polynomial([-c / s, 1.0 / s])).coef
        beta = np.concatenate([beta, np.zeros(degree + 1 - beta.size)])

        # a coefficient that is not finite has no density, and fails the gate
        norm = ExpFamilyPoly(beta, lo, hi).total_mass() if np.isfinite(beta).all() else math.nan
        if not (math.isfinite(norm) and norm > 0.0):
            raise FitError(f"exp-polynomial fit has mass {norm!r} over the bin range")
        beta[0] -= math.log(norm)

    fit = ExpFamilyFit(
        coefficients=tuple(float(b) for b in beta),
        bin_edges=tuple(float(e) for e in edges),
        iterations=iterations,
        converged=converged,
    )
    loglik = density_loglik(fit.density(), stats)
    if not math.isfinite(loglik):
        raise FitError(f"exp-polynomial fit has mean log-likelihood {loglik!r} on the data")
    return fit


# ---------------------------------------------------------------------------
# Grid NPMLE: Gaussian location mixture by a primal-dual interior point method
# ---------------------------------------------------------------------------

# a later iterate replaces the best one unless its mean log-likelihood is lower
# by more than this many ulps of the largest log term: the rounding of the mean
_LOGLIK_ULPS = 64
# fraction of the step to the boundary x = 0 (or s = 0) that an iterate takes
_TO_BOUNDARY = 0.99
# each Newton step aims at this fraction of the current duality gap
_CENTERING = 0.1


@dataclass(frozen=True)
class MixtureFit:
    grid: Tuple[float, ...]
    weights: Tuple[float, ...]
    loglik: float
    iterations: int
    converged: bool

    def density(self) -> MixtureDensity:
        return MixtureDensity(tuple(map(GaussianLocation, self.grid)), self.weights)


def _step_to_boundary(v: np.ndarray, dv: np.ndarray) -> float:
    """Largest step in [0, 1] that keeps ``v + t * dv`` a fraction off 0."""
    down = dv < 0.0
    return min(1.0, _TO_BOUNDARY * float(np.min(-v[down] / dv[down], initial=math.inf)))


def npmle_mixture_fit(stats: StatVector, grid_size: int = 300, tol: float = 1e-8,
                      max_iter: int = 200) -> MixtureFit:
    """Maximum likelihood mixing weights over a fixed location grid.

    Solves the convex problem of Koenker & Mizera (2014),
    ``min -(1/m) sum_i log (Phi x)_i + sum_g x_g`` over ``x >= 0`` with
    ``Phi[i, g] = phi(z_i - mu_g)``, whose optimum has unit mass, by a
    primal-dual interior point method.  Each Newton step solves the G x G
    system ``(Phi' diag(1/mix^2) Phi / m + diag(s/x)) dx = rhs`` and takes a
    fraction-to-boundary step in the weights x and their multipliers s.

    ``tol`` is the TOL of ``--density npmle:GRID:TOL``, and
    TOL bounds the KKT gap, not the gain per step: the fit has converged
    once its normalized weights w have
    ``max_g mean_i(phi(z_i - mu_g) / (Phi w)_i) <= 1 + tol``, which puts the
    mean log-likelihood within ``tol`` of the optimum, and the duality gap
    ``x's`` is at most ``tol``.

    The fit is the normalized iterate with the highest log-likelihood so
    far, so ``loglik`` does not fall, beyond the rounding of the mean, as
    ``max_iter`` grows.  ``iterations`` counts Newton steps, and converged
    is False when ``max_iter`` of them ran first.  Raises :class:`FitError`
    when an observation has zero kernel mass at every atom, a Newton solve
    fails, the log-likelihood is not finite or the weights do not have
    unit mass.
    """
    z = stats.values
    m = z.size
    if grid_size < 2:
        raise ValueError("grid_size must be >= 2")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    grid = np.linspace(float(z.min()) - 1.0, float(z.max()) + 1.0, grid_size)
    phi = normal_pdf(z[:, None] - grid[None, :])
    massless = ~phi.any(axis=1)
    if massless.any():
        raise FitError(f"observation {float(z[massless][0])!r} has zero kernel mass at "
                       f"every atom of a grid spaced {float(grid[1] - grid[0])!r} apart")

    x = np.full(grid_size, 1.0 / grid_size)
    s = np.ones(grid_size)
    scaled = np.empty_like(phi)
    best_w, best_ll = x, -math.inf
    iterations, converged = 0, False
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        while True:
            w = x / x.sum()
            mix = phi @ w
            logs = np.log(mix)
            ll = float(np.mean(logs))
            if not math.isfinite(ll):
                raise FitError(f"mixture fit has mean log-likelihood {ll!r} "
                               f"after {iterations} Newton steps")
            # phi / mix elementwise, not a product with 1/mix: a subnormal mix
            # would make 1/mix inf, and inf * 0 NaN at the atoms it cannot see
            np.divide(phi, (phi @ x)[:, None], out=scaled)
            ratio = scaled.sum(axis=0) / m
            if ll >= best_ll - _LOGLIK_ULPS * np.spacing(np.abs(logs).max()):
                best_w, best_ll = w, ll
                # mean_i(phi_g / mix) at w = x / sum(x) is sum(x) * ratio_g
                kkt = float(x.sum() * ratio.max()) - 1.0
                converged = kkt <= tol and float(x @ s) <= tol
            if converged or iterations >= max_iter:
                break
            hess = scaled.T @ scaled / m
            hess[np.diag_indices(grid_size)] += s / x
            mu = _CENTERING * float(x @ s) / grid_size
            try:
                dx = np.linalg.solve(hess, ratio - 1.0 + mu / x)
            except np.linalg.LinAlgError as exc:
                raise FitError(f"Newton step {iterations + 1} failed: {exc}") from None
            if not np.all(np.isfinite(dx)):
                raise FitError(f"Newton step {iterations + 1} is not finite")
            ds = mu / x - s - s / x * dx
            x = x + _step_to_boundary(x, dx) * dx
            s = s + _step_to_boundary(s, ds) * ds
            iterations += 1

    if not abs(math.fsum(best_w) - 1.0) <= 1e-9:
        raise FitError(f"mixture weights sum to {math.fsum(best_w)!r}, not 1")
    return MixtureFit(tuple(float(g) for g in grid), tuple(float(v) for v in best_w),
                      best_ll, iterations, converged)


def density_loglik(model: Density, stats: StatVector) -> float:
    """Mean log density ``(1/m) * sum_i log f(z_i)``; -inf where f vanishes."""
    with np.errstate(divide="ignore"):
        vals = np.log(np.asarray(model.pdf(stats.values), dtype=float))
    return float(np.mean(vals))
