import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.stats import norm

import lfdrkit as lk
from lfdrkit.core import DegeneracyError, FitError
from lfdrkit.simulate import replicate_rng
from lfdrkit.verify import hull_density_oracle


def _pstats(values):
    return lk.StatVector(values, lk.Scale.P_VALUE)


def _zstats(values):
    return lk.StatVector(values, lk.Scale.Z_VALUE)


def _two_groups_z(m, index):
    """m z-values, a fifth of them shifted by 2.5, from replicate ``index``."""
    rng = replicate_rng(7, index)
    z = rng.normal(0.0, 1.0, m)
    z[:m // 5] += 2.5
    return z


# the z-scale fits place their bins and grid relative to min z and max z, so
# refitting on z + c shifts the fit; a unit-variance kernel and the +-0.5
# bin padding make them not scale-equivariant, by design
_SHIFTED_INSTANCES = (st.integers(30, 300), st.integers(0, 10_000),
                      st.floats(-3.0, 3.0))


# ---------------------------------------------------------------------------
# grenander_fit
# ---------------------------------------------------------------------------

def test_grenander_single_observation():
    fit = lk.grenander_fit(_pstats([0.5]))
    assert fit.breakpoints == (0.0, 0.5)
    assert fit.heights == (2.0,)
    assert fit.pdf(0.3) == 2.0
    assert fit.pdf(0.7) == 0.0
    assert fit.pdf(0.0) == 2.0


def test_grenander_uniform_like_sample():
    fit = lk.grenander_fit(_pstats([0.2, 0.4, 0.6, 0.8, 1.0]))
    assert fit.breakpoints == (0.0, 1.0)
    assert fit.heights == (1.0,)


def test_grenander_matches_hull_oracle_on_random_instances():
    worst = 0.0
    for i in range(200):
        rng = replicate_rng(42, i)
        n = int(rng.integers(1, 51))
        p = np.clip(rng.beta(0.4, 1.0, n), 1e-12, 1.0)
        if rng.random() < 0.3:
            p = np.ceil(p * 10) / 10  # force ties on a coarse grid
        fit = lk.grenander_fit(_pstats(p))
        _, oracle = hull_density_oracle(p)
        u = np.unique(p)
        probes = np.unique(np.concatenate([u, (u[:-1] + u[1:]) / 2, [1.0, u[-1] / 2]]))
        got = np.asarray(fit.pdf(probes))
        want = np.array([oracle(float(t)) for t in probes])
        worst = max(worst, float(np.abs(got - want).max()))
        assert np.all(np.diff(fit.heights) <= 0)
        assert abs(fit.total_mass() - 1.0) < 1e-10
    assert worst <= 1e-10


def test_grenander_ties_collapse_to_single_jump():
    fit = lk.grenander_fit(_pstats([0.5, 0.5, 0.5, 0.5]))
    assert fit.breakpoints == (0.0, 0.5)
    assert fit.heights == (2.0,)


def test_grenander_rejects_zero():
    with pytest.raises(DegeneracyError):
        lk.grenander_fit(_pstats([0.0, 0.5]))


def test_grenander_rejects_a_fit_of_infinite_mass():
    # 5e-324 and 1e-323 are a subnormal spacing apart: the first height
    # overflows, which would make the density and the log-likelihood inf
    with pytest.raises(FitError):
        lk.grenander_fit(_pstats([5e-324, 1e-323, 0.5, 1.0]))


def test_grenander_scale_check():
    with pytest.raises(ValueError):
        lk.grenander_fit(_zstats([0.1, 0.2]))


def test_grenander_loglik_beats_uniform():
    for i in range(20):
        rng = replicate_rng(7, i)
        p = np.clip(rng.beta(0.5, 1.0, 40), 1e-12, 1.0)
        fit = lk.grenander_fit(_pstats(p))
        assert fit.loglik >= -1e-12  # uniform scores exactly 0


def test_monotone_fit_cdf_accumulates_the_step_masses():
    fit = lk.MonotoneDensityFit((0.0, 0.25, 0.5), (3.0, 1.0), loglik=0.0)
    assert fit.cdf(-0.5) == fit.cdf(0.0) == 0.0
    assert list(fit.cdf([0.125, 0.25, 0.375, 0.5])) == [0.375, 0.75, 0.875, 1.0]
    assert fit.cdf(0.75) == fit.cdf(1.0) == fit.cdf(3.0) == fit.total_mass() == 1.0
    for i in range(20):
        rng = replicate_rng(9, i)
        fit = lk.grenander_fit(_pstats(np.clip(rng.beta(0.5, 1.0, 30), 1e-12, 1.0)))
        bp = np.asarray(fit.breakpoints)
        mass = np.cumsum(np.asarray(fit.heights) * np.diff(bp))
        assert fit.cdf(0.0) == fit.cdf(-1.0) == 0.0
        assert np.array_equal(fit.cdf(bp[1:]), mass)
        for t in (bp[-1], (bp[-1] + 1.0) / 2, 1.0, 2.0):
            assert fit.cdf(t) == pytest.approx(fit.total_mass(), rel=1e-14)


# ---------------------------------------------------------------------------
# lindsey_fit
# ---------------------------------------------------------------------------

def test_lindsey_recovers_standard_normal():
    rng = replicate_rng(3, 0)
    z = rng.normal(0.0, 1.0, 50_000)
    fit = lk.lindsey_fit(_zstats(z), degree=2)
    assert fit.converged and 1 <= fit.iterations < 200
    capped = lk.lindsey_fit(_zstats(z), degree=2, max_iter=1)
    assert (capped.iterations, capped.converged) == (1, False)
    assert fit.coefficients[2] == pytest.approx(-0.5, abs=0.05)
    assert fit.coefficients[1] == pytest.approx(0.0, abs=0.05)


def test_lindsey_degree_zero_is_uniform():
    rng = replicate_rng(3, 1)
    z = rng.normal(0.0, 1.0, 500)
    fit = lk.lindsey_fit(_zstats(z), degree=0, bins=30)
    d = fit.density()
    width = d.hi - d.lo
    ts = np.linspace(d.lo, d.hi, 7)
    assert np.allclose(d.pdf(ts), 1.0 / width, rtol=1e-9)


def test_lindsey_normalizes():
    rng = replicate_rng(3, 2)
    z = rng.normal(0.0, 1.0, 2000)
    fit = lk.lindsey_fit(_zstats(z), degree=5)
    d = fit.density()
    mass, _ = integrate.quad(lambda x: d.pdf(x), d.lo, d.hi, limit=200)
    assert abs(mass - 1.0) < 1e-6


def test_lindsey_self_consistency_quartic():
    # draw from an exp-family member (here N(1, 0.8^2), a degree-2 member)
    rng = replicate_rng(3, 3)
    z = rng.normal(1.0, 0.8, 50_000)
    fit = lk.lindsey_fit(_zstats(z), degree=2)
    # N(mu, s^2): beta2 = -1/(2 s^2), beta1 = mu / s^2
    assert fit.coefficients[2] == pytest.approx(-1 / (2 * 0.64), abs=0.05)
    assert fit.coefficients[1] == pytest.approx(1.0 / 0.64, abs=0.05)


@settings(max_examples=20, deadline=None)
@given(*_SHIFTED_INSTANCES)
def test_lindsey_is_shift_equivariant(m, index, c):
    z = _two_groups_z(m, index)
    fit = lk.lindsey_fit(_zstats(z))
    moved = lk.lindsey_fit(_zstats(z + c))
    assert np.allclose(moved.density().pdf(z + c), fit.density().pdf(z),
                       rtol=1e-9, atol=0.0)


def test_lindsey_argument_errors():
    rng = replicate_rng(3, 4)
    z = rng.normal(0.0, 1.0, 5)
    with pytest.raises(ValueError):
        lk.lindsey_fit(_zstats(z), degree=7)       # m < degree + 2
    with pytest.raises(ValueError):
        lk.lindsey_fit(_zstats(rng.normal(size=100)), degree=7, bins=4)


def test_lindsey_degenerate_histogram():
    with pytest.raises(FitError):
        lk.lindsey_fit(_zstats(np.zeros(50)), degree=2, bins=20)


def test_lindsey_rejects_a_fit_that_does_not_normalize():
    # a spike far narrower than the +-0.5 bin padding: the Newton steps end
    # in a polynomial whose exp overflows, so the mass is not finite
    z = np.random.default_rng(0).normal(0.0, 0.01, 3000)
    with np.errstate(over="ignore"), pytest.raises(FitError):
        lk.lindsey_fit(_zstats(z))


# ---------------------------------------------------------------------------
# npmle_mixture_fit
# ---------------------------------------------------------------------------

def _em_reference(z, grid_size, tol=1e-8, max_iter=5000):
    """The EM loop the interior point fit replaced: the same grid and kernel,
    stopped once an iteration gains less than ``tol`` in mean log-likelihood."""
    grid = np.linspace(float(z.min()) - 1.0, float(z.max()) + 1.0, grid_size)
    phi = norm.pdf(z[:, None] - grid[None, :])
    w = np.full(grid_size, 1.0 / grid_size)
    mix = phi @ w
    ll = float(np.mean(np.log(mix)))
    iterations, converged = 0, False
    while iterations < max_iter and not converged:
        w = w * (phi.T @ (1.0 / mix)) / z.size
        w = np.maximum(w, 0.0)
        w /= w.sum()
        mix = phi @ w
        new_ll = float(np.mean(np.log(mix)))
        converged = new_ll - ll < tol
        ll = new_ll
        iterations += 1
    return ll


def _kkt_gap(z, fit):
    """``max_g mean_i(phi(z_i - mu_g) / mix_i) - 1`` at the fit's weights."""
    phi = norm.pdf(z[:, None] - np.asarray(fit.grid)[None, :])
    mix = phi @ np.asarray(fit.weights)
    return float((phi / mix[:, None]).mean(axis=0).max()) - 1.0


def _zscale_compound_z(seed, index=0, m=400, m1=40, mu=2.0):
    """The benchmark's compound-comparison input: m1 of m N(0, 1) draws shifted by mu."""
    z = np.random.default_rng([seed, index]).standard_normal(m)
    z[:m1] += mu
    return z


def _golden_z():
    """The z-values of the ``analyze_z-npmle`` golden table."""
    z = np.random.default_rng(52).normal(0.0, 1.0, 400)
    z[:40] += 2.5
    return z


# (z, grid_size, tol) of the compound-comparison and golden fits
_REFERENCE_FITS = {
    "zscale-0": (_zscale_compound_z(0), 300, 1e-8),
    "zscale-1": (_zscale_compound_z(1), 300, 1e-8),
    "golden": (_golden_z(), 100, 1e-6),
}


@pytest.mark.parametrize("name", sorted(_REFERENCE_FITS))
def test_npmle_loglik_is_at_least_that_of_em(name):
    z, grid_size, tol = _REFERENCE_FITS[name]
    fit = lk.npmle_mixture_fit(_zstats(z), grid_size=grid_size, tol=tol)
    assert fit.converged
    assert fit.loglik >= _em_reference(z, grid_size, tol) - 1e-12


@pytest.mark.parametrize("z, kwargs", [
    *((z, {"grid_size": g, "tol": tol}) for z, g, tol in _REFERENCE_FITS.values()),
    (np.full(100, 1.5), {}),
    (np.array([-5.0, 5.0]), {"tol": 1e-13}),
    (np.array([0.3]), {"grid_size": 2}),
    (_two_groups_z(250, 3), {"grid_size": 60, "tol": 1e-7}),
    (np.random.default_rng(2).standard_cauchy(500), {"tol": 1e-10}),
    (np.array([-300.0, 0.0, 300.0]), {}),
], ids=["zscale-0", "zscale-1", "golden", "point-mass", "two-point", "single", "two-groups",
        "cauchy", "wide"])
def test_npmle_converged_fit_meets_the_kkt_condition(z, kwargs):
    fit = lk.npmle_mixture_fit(_zstats(z), **kwargs)
    assert fit.converged
    assert _kkt_gap(z, fit) <= kwargs.get("tol", 1e-8)


def test_npmle_converges_in_few_newton_steps_at_large_m():
    # EM ran 3,043 iterations on this input and stopped at a KKT gap of 1.5e-4
    z = _zscale_compound_z(0, m=10**4, m1=10**3)
    fit = lk.npmle_mixture_fit(_zstats(z))
    assert fit.converged and fit.iterations <= 50


def test_npmle_observation_without_kernel_mass_is_a_fit_error():
    # atoms 6,689 apart: z = 0 is thousands of units from the nearest one
    with pytest.raises(FitError, match="zero kernel mass"):
        lk.npmle_mixture_fit(_zstats([-1e6, 0.0, 1e6]), grid_size=300)


def test_npmle_density_matches_the_component_sum_bitwise():
    fit = lk.npmle_mixture_fit(_zstats(_golden_z()), grid_size=100, tol=1e-6)
    dens = fit.density()
    ts = np.linspace(-5.0, 7.0, 1001)
    # the sum the mixture made before: each atom's public pdf/cdf, in order
    want_pdf, want_cdf = np.zeros_like(ts), np.zeros_like(ts)
    for w, c in zip(dens.weights, dens.components):
        if w > 0.0:
            want_pdf = want_pdf + w * np.asarray(c.pdf(ts))
        want_cdf = want_cdf + w * np.asarray(c.cdf(ts))
    assert np.array_equal(dens.pdf(ts), want_pdf)
    assert np.array_equal(dens.cdf(ts), want_cdf)


def test_npmle_point_mass():
    fit = lk.npmle_mixture_fit(_zstats(np.full(100, 1.5)))
    d = fit.density()
    zs = np.linspace(-0.5, 3.5, 81)
    assert np.abs(np.asarray(d.pdf(zs)) - norm.pdf(zs - 1.5)).max() < 1e-3


def test_npmle_symmetric_two_point():
    fit = lk.npmle_mixture_fit(_zstats(np.array([-5.0, 5.0])),
                               tol=1e-13, max_iter=200_000)
    g = np.asarray(fit.grid)
    w = np.asarray(fit.weights)
    near_lo = w[np.abs(g + 5.0) < 0.5].sum()
    near_hi = w[np.abs(g - 5.0) < 0.5].sum()
    assert near_lo == pytest.approx(0.5, abs=0.02)
    assert near_hi == pytest.approx(0.5, abs=0.02)
    # no two-atom competitor on the grid scores higher
    z = np.array([-5.0, 5.0])
    phi = norm.pdf(z[:, None] - g[None, :])
    pair = np.log(0.5 * phi[:, :, None] + 0.5 * phi[:, None, :]).sum(axis=0)
    assert fit.loglik * 2 >= pair.max() - 1e-9


def test_npmle_beats_single_atom():
    rng = replicate_rng(5, 0)
    z = rng.normal(0.7, 1.0, 150)
    fit = lk.npmle_mixture_fit(_zstats(z), grid_size=120)
    g = np.asarray(fit.grid)
    single = np.mean(norm.logpdf(z[:, None] - g[None, :]), axis=0).max()
    assert fit.loglik >= single - 1e-12


def test_npmle_loglik_monotone_in_iterations():
    rng = replicate_rng(5, 1)
    z = rng.normal(0.0, 1.2, 80)
    lls = [lk.npmle_mixture_fit(_zstats(z), grid_size=60, max_iter=k).loglik
           for k in range(1, 12)]
    assert np.all(np.diff(lls) >= -1e-10)


def test_npmle_weights_sum_to_one():
    rng = replicate_rng(5, 2)
    fit = lk.npmle_mixture_fit(_zstats(rng.normal(size=60)), grid_size=50)
    assert abs(sum(fit.weights) - 1.0) < 1e-10
    assert min(fit.weights) >= 0.0


def test_npmle_reports_iterations_and_convergence():
    rng = replicate_rng(5, 3)
    z = np.concatenate([rng.normal(0.0, 1.0, 1600), rng.normal(3.0, 1.0, 400)])
    capped = lk.npmle_mixture_fit(_zstats(z), grid_size=100, max_iter=3)
    assert (capped.iterations, capped.converged) == (3, False)
    full = lk.npmle_mixture_fit(_zstats(z), grid_size=100, tol=1e-4)
    assert full.converged and 1 <= full.iterations < 5000
    assert full.loglik >= capped.loglik


@settings(max_examples=20, deadline=None)
@given(*_SHIFTED_INSTANCES)
def test_npmle_is_shift_equivariant(m, index, c):
    z = _two_groups_z(m, index)
    fit = lk.npmle_mixture_fit(_zstats(z), grid_size=60, tol=1e-7)
    moved = lk.npmle_mixture_fit(_zstats(z + c), grid_size=60, tol=1e-7)
    assert np.allclose(moved.grid, np.asarray(fit.grid) + c, rtol=0.0, atol=1e-9)
    assert np.allclose(moved.weights, fit.weights, rtol=0.0, atol=1e-9)
    assert moved.loglik == pytest.approx(fit.loglik, rel=0.0, abs=1e-9)


def test_npmle_density_is_a_mixture_evaluated_in_linear_memory():
    # 300 atoms at m = 10^5: an m x atoms kernel matrix would peak near 690 MiB
    grid = np.linspace(-4.0, 6.0, 300)
    fit = lk.MixtureFit(tuple(grid), tuple(np.full(300, 1.0 / 300)), 0.0, 0, True)
    dens = fit.density()
    assert isinstance(dens, lk.MixtureDensity)
    assert [c.mean for c in dens.components] == list(fit.grid)
    z = np.linspace(-5.0, 7.0, 10**5)
    tracemalloc.start()
    try:
        dens.pdf(z)
        dens.cdf(z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_npmle_argument_errors():
    with pytest.raises(ValueError):
        lk.npmle_mixture_fit(_zstats([0.0, 1.0]), grid_size=1)
    # a NaN or nonpositive tol would run every Newton step without converging
    for tol in (math.nan, math.inf, 0.0, -1e-6):
        with pytest.raises(ValueError, match="tol"):
            lk.npmle_mixture_fit(_zstats([0.0, 1.0]), tol=tol)


# ---------------------------------------------------------------------------
# density_loglik
# ---------------------------------------------------------------------------

def test_density_loglik_uniform_is_zero():
    rng = replicate_rng(6, 0)
    p = rng.random(50)
    assert lk.density_loglik(lk.Uniform01(), _pstats(p)) == 0.0


def test_density_loglik_allows_minus_inf():
    pc = lk.PiecewiseConstant((0.0, 0.5, 1.0), (2.0, 0.0))
    ll = lk.density_loglik(pc, _pstats([0.25, 0.75]))
    assert ll == -math.inf


def test_grenander_loglik_converges_to_population_value():
    # i.i.d. Beta(a, 1): E log f = log a - (a - 1)/a
    a = 0.3
    target = math.log(a) - (a - 1) / a
    devs = []
    for m in (100, 1000, 10000):
        rng = replicate_rng(11, m)
        p = np.clip(rng.beta(a, 1.0, m), 1e-12, 1.0)
        fit = lk.grenander_fit(_pstats(p))
        devs.append(abs(fit.loglik - target))
    assert devs[0] > devs[1] > devs[2]
    assert devs[2] < 0.02
