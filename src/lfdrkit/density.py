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
import scipy

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

# vertices this close under the pool-adjacent-violators majorant are kept for
# the exact stack scan; float error in the majorant is far below it at m = 10^6
_HULL_CANDIDATE_TOL = 1e-12


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
        bp = tuple(float(x) for x in self.breakpoints)
        hts = tuple(float(h) for h in self.heights)
        if len(bp) != len(hts) + 1 or len(hts) < 1 or bp[0] != 0.0:
            raise ValueError("breakpoints must start at 0 and bound each height")
        if np.any(np.diff(bp) <= 0):
            raise ValueError("breakpoints must be strictly increasing")
        if not (np.all(np.isfinite(hts)) and min(hts) >= 0 and np.all(np.diff(hts) <= 0)):
            raise ValueError("heights must be finite, nonnegative and nonincreasing")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "heights", hts)

    def _pdf(self, arr):
        bp = np.asarray(self.breakpoints)
        hts = np.asarray(self.heights)
        # piece ending at each knot: value on (bp[j], bp[j+1]], and h[0] at 0
        idx = np.searchsorted(bp[1:], arr, side="left")
        return np.where(idx < len(hts), hts[np.minimum(idx, len(hts) - 1)], 0.0)


def grenander_fit(stats: StatVector) -> MonotoneDensityFit:
    """Maximum likelihood nonincreasing density on [0, 1].

    Computed as the left derivative of the least concave majorant of the
    empirical CDF (tied order statistics collapse to a single jump).
    Pool-adjacent-violators over the ECDF spacings (Robertson, Wright &
    Dykstra, 1988) gives the majorant; every vertex within
    ``_HULL_CANDIDATE_TOL`` of it, and both endpoints, is a candidate, and a
    float stack scan over the candidates alone picks the hull.  A vertex
    further under the majorant is far from every hull chord, so dropping it
    changes no comparison the scan makes: the breakpoints and heights are
    those of the same scan over every vertex.  O(m log m) including the
    sort, which is ``stats.order``.  Raises :class:`FitError` when a height
    or the log-likelihood is not finite, as when two p-values lie a
    subnormal spacing apart.
    """
    if stats.scale is not Scale.P_VALUE:
        raise ValueError("grenander_fit expects p-scale statistics")
    p = stats.values[stats.order]
    m = p.size
    if p[0] <= 0.0:
        raise DegeneracyError(
            "monotone MLE undefined with an observation at exactly 0; "
            "perturb grid p-values first")
    # ECDF vertices: the last order statistic of each tie run
    last = np.append(np.flatnonzero(p[1:] != p[:-1]), m - 1)
    xs = np.concatenate([[0.0], p[last]])
    ys = np.concatenate([[0.0], (last + 1) / m])

    dx = np.diff(xs)
    # subnormal spacings overflow the slopes to inf, and with them the
    # majorant, so a vertex without a finite majorant is always a candidate
    with np.errstate(over="ignore", invalid="ignore"):
        iso = scipy.optimize.isotonic_regression(np.diff(ys) / dx, weights=dx, increasing=False)
        # majorant at each vertex, from the first vertex of its block: a
        # running sum over the spacings would gather error that grows with m
        start = np.repeat(iso.blocks[:-1], np.diff(iso.blocks))
        majorant = ys[start] + iso.x * (xs[1:] - xs[start])
    near = np.flatnonzero(~np.isfinite(majorant)
                          | (majorant - ys[1:] <= _HULL_CANDIDATE_TOL)) + 1
    cand = np.unique(np.concatenate([[0], near, [xs.size - 1]]))
    # Python floats do the same IEEE double arithmetic as numpy scalars, and
    # faster per step, which matters when every vertex is a candidate
    cx, cy = xs[cand].tolist(), ys[cand].tolist()

    # least concave majorant: keep vertices with strictly decreasing chords
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
    hx = xs[cand[hull]]
    hy = ys[cand[hull]]
    with np.errstate(over="ignore"):
        heights = np.diff(hy) / np.diff(hx)

    # every sample point sits on (hx[j], hx[j+1]] for some piece j
    idx = np.searchsorted(hx[1:], p, side="left")
    ll = float(np.mean(np.log(heights[idx])))
    if not (np.all(np.isfinite(heights)) and math.isfinite(ll)):
        raise FitError(f"monotone fit has log-likelihood {ll!r}: p-values a subnormal "
                       f"spacing apart make a height overflow to {float(heights.max())!r}")
    return MonotoneDensityFit(tuple(hx), tuple(heights), loglik=ll)


# ---------------------------------------------------------------------------
# Lindsey: exp(polynomial) density via binned Poisson regression
# ---------------------------------------------------------------------------

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
                max_iter: int = 200, grad_tol: float = 1e-8) -> ExpFamilyFit:
    """Fit exp(sum_j beta_j z^j) by Poisson regression on histogram counts.

    Bins span [min z - 0.5, max z + 0.5] with equal widths.  The GLM is
    solved by damped Newton with step halving; the returned coefficients are
    shifted so the density integrates to 1 over the bin range.  ``iterations``
    counts Newton steps, and converged is False when ``max_iter`` of them left
    the gradient above ``grad_tol``.  Raises
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
        converged = False
        for iterations in range(max_iter):
            mu = np.exp(eta)
            grad = V.T @ (y - mu)
            if np.max(np.abs(grad)) <= grad_tol:
                converged = True
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
        else:
            iterations = max_iter
            mu = np.exp(eta)
            converged = bool(np.max(np.abs(V.T @ (y - mu))) <= grad_tol)

        poly_u = np.polynomial.Polynomial(gamma)
        beta = poly_u(np.polynomial.Polynomial([-c / s, 1.0 / s])).coef
        beta = np.concatenate([beta, np.zeros(degree + 1 - beta.size)])

        norm, _ = scipy.integrate.quad(
            lambda x: np.exp(np.polynomial.polynomial.polyval(x, beta)), lo, hi, limit=200)
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
