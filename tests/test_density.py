import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.stats import norm

import lfdrkit as lk
from lfdrkit import density
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


def _pava_grenander_fit(stats):
    """Reference fit: candidates from the pool-adjacent-violators majorant.

    Vertices within 1e-12 of the PAVA majorant of the ECDF, and both ends,
    go to the same float stack scan the package runs.
    """
    from scipy.optimize import isotonic_regression

    p = stats.values[stats.order]
    m = p.size
    if p[0] <= 0.0:
        raise DegeneracyError("observation at exactly 0")
    last = np.append(np.flatnonzero(p[1:] != p[:-1]), m - 1)
    xs = np.concatenate([[0.0], p[last]])
    ys = np.concatenate([[0.0], (last + 1) / m])
    dx = np.diff(xs)
    with np.errstate(over="ignore", invalid="ignore"):
        iso = isotonic_regression(np.diff(ys) / dx, weights=dx, increasing=False)
        start = np.repeat(iso.blocks[:-1], np.diff(iso.blocks))
        majorant = ys[start] + iso.x * (xs[1:] - xs[start])
    near = np.flatnonzero(~np.isfinite(majorant) | (majorant - ys[1:] <= 1e-12)) + 1
    cand = np.unique(np.concatenate([[0], near, [xs.size - 1]]))
    cx, cy = xs[cand].tolist(), ys[cand].tolist()
    hull = [0]
    for j in range(1, len(cx)):
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            if (cy[b] - cy[a]) / (cx[b] - cx[a]) <= (cy[j] - cy[b]) / (cx[j] - cx[b]):
                hull.pop()
            else:
                break
        hull.append(j)
    hx = xs[cand[hull]]
    hy = ys[cand[hull]]
    with np.errstate(over="ignore"):
        heights = np.diff(hy) / np.diff(hx)
    idx = np.searchsorted(hx[1:], p, side="left")
    ll = float(np.mean(np.log(heights[idx])))
    if not (np.all(np.isfinite(heights)) and math.isfinite(ll)):
        raise FitError("monotone fit of infinite mass")
    return lk.MonotoneDensityFit(tuple(hx), tuple(heights), loglik=ll)


def _bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


def _assert_fit_matches_reference(p):
    stats = _pstats(p)
    try:
        want = _pava_grenander_fit(stats)
    except (DegeneracyError, FitError) as err:
        with pytest.raises((DegeneracyError, FitError)) as raised:
            lk.grenander_fit(stats)
        assert type(raised.value) is type(err)
        return
    got = lk.grenander_fit(stats)
    assert np.array_equal(_bits(got.breakpoints), _bits(want.breakpoints))
    assert np.array_equal(_bits(got.heights), _bits(want.heights))
    assert _bits(got.loglik) == _bits(want.loglik)


_UNIT = st.floats(0.0, 1.0, exclude_min=True)


@st.composite
def _grenander_inputs(draw):
    shape = draw(st.sampled_from(["draws", "grid", "subnormal", "even", "ulps", "power"]))
    n = draw(st.integers(1, 80))
    if shape == "draws":
        return draw(st.lists(_UNIT, min_size=1, max_size=80))
    if shape == "grid":
        # ties on a coarse grid; k = 0 is an exact 0
        g = draw(st.integers(1, 12))
        return [k / g for k in draw(st.lists(st.integers(0, g), min_size=1, max_size=80))]
    if shape == "subnormal":
        tiny = st.integers(1, 4).map(lambda k: k * 5e-324)
        return draw(st.lists(tiny | _UNIT, min_size=1, max_size=40))
    if shape == "even":
        lo = draw(st.floats(1e-6, 1.0))
        return np.linspace(lo, draw(st.floats(lo, 1.0)), n)
    if shape == "ulps":
        # the ECDF's diagonal, i/n, with values one ulp off: rounding decides
        # which vertices the scan keeps
        p = np.arange(1, n + 1) / n
        steps = draw(st.lists(st.sampled_from([-1.0, 0.0, 1.0]), min_size=n, max_size=n))
        return np.minimum(np.nextafter(p, p + np.array(steps)), 1.0)
    # quantiles (i/n)**k: concave ECDFs for k > 1, convex for k < 1
    k = draw(st.floats(0.1, 10.0))
    return (np.arange(1, n + 1) / n) ** k


@settings(max_examples=500, deadline=None)
@given(_grenander_inputs())
def test_grenander_equals_the_pava_reference_bitwise(p):
    _assert_fit_matches_reference(p)


@pytest.mark.parametrize("p", [
    pytest.param([5e-324, 1e-323, 0.5, 1.0], id="subnormal"),
    pytest.param([0.0, 0.5], id="zero"),
    pytest.param([0.1, 0.1, 0.2, 0.5, 0.5, 0.5, 1.0], id="ties"),
    pytest.param([0.08333333333333331, 0.16666666666666666, 0.25, 0.3333333333333333,
                  0.4166666666666667, 0.49999999999999994, 0.5833333333333334,
                  0.6666666666666665, 0.75, 0.8333333333333334, 0.9166666666666666, 1.0],
                 id="diagonal-ulps"),
    pytest.param(np.linspace(0.001, 1.0, 2000), id="even"),
    pytest.param((np.arange(1, 2001) / 2000) ** 3, id="concave"),
    pytest.param((np.arange(1, 2001) / 2000) ** 0.3, id="convex"),
])
def test_grenander_equals_the_pava_reference_on_fixed_inputs(p):
    _assert_fit_matches_reference(p)


@settings(max_examples=300, deadline=None)
@given(_grenander_inputs())
def test_grenander_equals_the_pava_reference_with_coarse_passes_on_few_vertices(p):
    # at these settings the filter's coarse passes, and their recursion, run
    # on a handful of vertices
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(density, "_COARSE_STRIDE", 3)
        mp.setattr(density, "_COARSE_MIN", 4)
        _assert_fit_matches_reference(p)


def _ecdf_vertices(p):
    p = np.sort(p)
    last = np.append(np.flatnonzero(p[1:] != p[:-1]), p.size - 1)
    return np.concatenate([[0.0], p[last]]), np.concatenate([[0.0], (last + 1) / p.size])


def test_grenander_filter_leaves_the_two_ends_of_evenly_spaced_p_values():
    # every vertex but the first lies on a line under the chord from (0, 0)
    # to (1, 1): local rounds alone would drop one vertex a round
    p = np.linspace(0.001, 1.0, 50_000)
    cx, cy = density._hull_candidates(*_ecdf_vertices(p))
    assert cx.tolist() == [0.0, 1.0] and cy.tolist() == [0.0, 1.0]
    _assert_fit_matches_reference(p)


def test_grenander_filter_leaves_few_candidates_on_evenly_spaced_nulls():
    # a tenth of the p-values Beta(0.05, 1), the rest on an even grid: local
    # rounds alone leave about 14,800 of the 20,001 vertices
    m = 20_000
    rng = replicate_rng(29, 0)
    p = np.linspace(1 / m, 1.0, m)
    alt = rng.permutation(m)[:m // 10]
    p[alt] = np.maximum(rng.beta(0.05, 1.0, alt.size), 1e-300)
    cx, _ = density._hull_candidates(*_ecdf_vertices(p))
    assert cx.size < 2 * len(lk.grenander_fit(_pstats(p)).breakpoints)
    _assert_fit_matches_reference(p)


def test_grenander_filter_drops_nothing_under_a_chord_shorter_than_its_floor():
    # (1e-190, 0.1) lies 0.4 under the chord from (0, 0) to (2e-190, 1), but
    # the cross products of so short a chord could underflow
    xs, ys = np.array([0.0, 1e-190, 2e-190]), np.array([0.0, 0.1, 1.0])
    assert 2e-190 < density._MIN_CHORD_SPAN
    cx, _ = density._hull_candidates(xs, ys)
    assert cx.tolist() == xs.tolist()
    cx, _ = density._hull_candidates(xs * 1e100, ys)
    assert cx.tolist() == [0.0, 2e-90]


def test_grenander_equals_the_pava_reference_on_draws():
    for i in range(50):
        rng = replicate_rng(23, i)
        m = int(rng.integers(1, 5000))
        p = rng.random(m)
        alt = rng.random(m) < 0.1
        p[alt] = rng.beta(0.05, 1.0, int(alt.sum()))
        _assert_fit_matches_reference(np.clip(p, 1e-300, 1.0))


# ---------------------------------------------------------------------------
# lindsey_fit
# ---------------------------------------------------------------------------

# lindsey_fit on _two_groups_z(2000, 0): the hex of each coefficient, the
# Newton steps and whether they converged
_LINDSEY_PINS = {
    "default": ({}, ("-0x1.36d818f3f648fp+0", "-0x1.bba1bfa9c8d4cp-5", "-0x1.5495c58c15453p-2",
                     "0x1.78c25b2f0de58p-4", "-0x1.3945704c77dfcp-9", "-0x1.8b123b48e40f5p-9",
                     "0x1.9c679499641d5p-12", "-0x1.92473094c56aap-15"), 12, True),
    "one-step": ({"max_iter": 1},
                 ("-0x1.091c59578a0b3p+1", "0x1.5be60e9023e6cp-8", "-0x1.1e4eb6572f590p-4",
                  "0x1.af4dc6182cea6p-8", "0x1.9add7060e32fcp-8", "-0x1.e260630b26d8bp-11",
                  "-0x1.817623ed7a6b1p-13", "0x1.063001d06b2d9p-15"), 1, False),
    "degree-2": ({"degree": 2},
                 ("-0x1.539868f050573p+0", "0x1.f16b2a4fcdc48p-3", "-0x1.fd52d71114c75p-3"),
                 9, True),
}


@pytest.mark.parametrize("case", sorted(_LINDSEY_PINS))
def test_lindsey_fit_is_pinned(case):
    kwargs, coefficients, iterations, converged = _LINDSEY_PINS[case]
    fit = lk.lindsey_fit(_zstats(_two_groups_z(2000, 0)), **kwargs)
    assert tuple(c.hex() for c in fit.coefficients) == coefficients
    assert (fit.iterations, fit.converged) == (iterations, converged)


def test_lindsey_fit_of_narrow_data_is_pinned_as_a_fit_error():
    z = np.random.default_rng(0).normal(0.0, 0.01, 3000)
    with pytest.raises(FitError, match="^exp-polynomial fit has mass inf over the bin range$"):
        lk.lindsey_fit(_zstats(z))


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
    with pytest.raises(FitError):
        lk.lindsey_fit(_zstats(z))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf * 0 in the patched steps
def test_lindsey_coefficients_that_are_not_finite_fail_the_mass_gate(monkeypatch):
    # a Newton step of inf moves the coefficients to inf and NaN
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: np.full_like(b, np.inf))
    with pytest.raises(FitError, match="^exp-polynomial fit has mass nan over the bin range$"):
        lk.lindsey_fit(_zstats(_two_groups_z(2000, 0)))


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
