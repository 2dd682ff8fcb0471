import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import ndtri
from scipy.stats import beta, norm

import lfdrkit as lk
from lfdrkit.core import DomainError, to_pvalues


def test_statvector_validation():
    sv = lk.StatVector([0.1, 0.9], lk.Scale.P_VALUE, ids=("a", "b"))
    assert sv.m == 2
    with pytest.raises(ValueError):
        lk.StatVector([], lk.Scale.P_VALUE)
    with pytest.raises(ValueError):
        lk.StatVector([1.2], lk.Scale.P_VALUE)
    with pytest.raises(ValueError):
        lk.StatVector([0.1, 0.2], lk.Scale.P_VALUE, ids=("a", "a"))
    # z-scale places no range restriction
    lk.StatVector([-3.0, 11.0], lk.Scale.Z_VALUE)


def test_statvector_ids_with_equal_hashes_are_told_apart():
    # -1 and -2 share a CPython hash, so only the exact check can tell them apart
    assert hash(-1) == hash(-2)
    sv = lk.StatVector([0.1, 0.2], lk.Scale.P_VALUE, ids=(-1, -2))
    assert sv.ids == (-1, -2)
    for ids in [(-1, -1), ("h1", "h2", "h1"), (-2, "x", -1, -2)]:
        with pytest.raises(ValueError, match="ids must be unique"):
            lk.StatVector(np.full(len(ids), 0.5), lk.Scale.P_VALUE, ids=ids)


# ints whose hashes collide: CPython reduces an int's hash modulo 2**61 - 1
COLLIDING = st.sampled_from([-1, -2, 0, 2**61 - 1, 2**62 - 2, 1, 2**61, -(2**61 - 1)])


@settings(max_examples=200, deadline=None)
@given(st.lists(COLLIDING | st.integers(-3, 3) | st.text(max_size=2) | st.floats(),
                min_size=1, max_size=30))
def test_statvector_id_check_agrees_with_a_set(ids):
    ids = tuple(ids)
    try:
        lk.StatVector(np.full(len(ids), 0.5), lk.Scale.P_VALUE, ids=ids)
    except ValueError as exc:
        assert str(exc) == "ids must be unique"
        accepted = False
    else:
        accepted = True
    assert accepted == (len(set(ids)) == len(ids))


def test_statvector_endpoints_allowed():
    sv = lk.StatVector([0.0, 1.0, 0.5], lk.Scale.P_VALUE)
    assert sv.values.min() == 0.0 and sv.values.max() == 1.0


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(st.floats(-5.0, 5.0), st.sampled_from([-1.0, 0.0, 0.25])),
                min_size=1, max_size=50))
def test_statvector_order_is_a_cached_read_only_stable_argsort(values):
    sv = lk.StatVector(values, lk.Scale.Z_VALUE)
    assert np.array_equal(sv.order, np.argsort(sv.values, kind="stable"))
    assert sv.order is sv.order
    assert not sv.order.flags.writeable
    with pytest.raises(ValueError):
        sv.order[0] = 0


def test_ground_truth_counts():
    gt = lk.GroundTruth([True, False, True])
    assert gt.m0 == 2 and gt.m == 3
    assert gt.m0 / gt.m == pytest.approx(2 / 3)


def _two_groups(pi0, f0, f1):
    """The marginal pi0*f0 + (1-pi0)*f1 of the two-groups model."""
    return lk.MixtureDensity((f0, f1), (pi0, 1.0 - pi0))


def test_mixture_density_examples():
    # degenerate mixture
    mixture = _two_groups(1.0, lk.Uniform01(), lk.BetaDensity(0.05, 1.0))
    assert mixture.pdf(0.3) == pytest.approx(1.0)

    # hand evaluation of Beta(0.05, 1) at t = 1: density a * t^(a-1) = 0.05
    mixture = _two_groups(0.5, lk.Uniform01(), lk.BetaDensity(0.05, 1.0))
    assert mixture.pdf(1.0) == pytest.approx(0.525)

    mixture = _two_groups(0.95, lk.GaussianLocation(0.0), lk.GaussianLocation(2.0))
    assert mixture.pdf(0.0) == pytest.approx(
        0.95 * norm.pdf(0.0) + 0.05 * norm.pdf(-2.0))


def test_mixture_density_outside_support():
    mixture = _two_groups(0.5, lk.Uniform01(), lk.BetaDensity(0.05, 1.0))
    with pytest.raises(DomainError):
        mixture.pdf(1.5)


def test_mixed_support_mixture_raises_the_first_component_error():
    # the mixture's support is the real line, each component checks its own
    step = lk.PiecewiseConstant((0.0, 2.0), (0.5,))
    ts = np.array([0.5, 1.5, 2.5, -1.0])
    for comps in ((lk.Uniform01(), step), (step, lk.Uniform01())):
        mix = lk.MixtureDensity((lk.GaussianLocation(0.0), *comps), (0.2, 0.4, 0.4))
        # the first weighted component that ts leaves raises, as its own pdf does
        with pytest.raises(DomainError) as want:
            comps[0].pdf(ts)
        with pytest.raises(DomainError) as got:
            mix.pdf(ts)
        assert str(got.value) == str(want.value)
    # a weightless component is not evaluated, so its support does not apply
    mix = lk.MixtureDensity((lk.GaussianLocation(0.0), lk.Uniform01()), (1.0, 0.0))
    assert np.array_equal(mix.pdf(ts), norm.pdf(ts))


def _average(models):
    """The pointwise mean of the m model densities, as an equal-weight mixture."""
    return lk.MixtureDensity(tuple(models), (1.0 / len(models),) * len(models))


def test_average_density_examples():
    u = lk.Uniform01()
    assert _average([u]).pdf(0.4) == pytest.approx(1.0)
    assert _average([u, lk.Uniform01()]).pdf(0.7) == pytest.approx(1.0)
    b = lk.BetaDensity(0.05, 1.0)
    want = (1.0 + 0.05 * 0.25 ** (-0.95)) / 2.0
    assert _average([u, b]).pdf(0.25) == pytest.approx(want)
    with pytest.raises(ValueError):
        lk.MixtureDensity((), ())


def test_average_of_identical_models_is_pointwise_equal():
    b = lk.BetaDensity(0.4, 2.0)
    ts = np.linspace(0.05, 0.95, 11)
    avg = _average([b] * 5).pdf(ts)
    assert np.allclose(avg, b.pdf(ts), atol=1e-14)


# the NPMLE fit's density: Gaussian atoms summed one at a time, in order
_GAUSSIAN_MIXTURE = lk.MixtureDensity((lk.GaussianLocation(-1.0), lk.GaussianLocation(2.0)),
                                      (0.3, 0.7))


@pytest.mark.parametrize("model", [
    lk.Uniform01(),
    lk.GaussianLocation(1.3),
    lk.BetaDensity(0.05, 1.0),
    lk.PiecewiseConstant((0.0, 0.25, 0.5, 1.0), (0.5, 1.5, 1.0)),
    lk.ExpFamilyPoly((-math.log(2.0),), -1.0, 1.0),
    _GAUSSIAN_MIXTURE,
    lk.MixtureDensity((lk.Uniform01(), lk.BetaDensity(0.5, 1.0)), (0.8, 0.2)),
    lk.MonotoneDensityFit((0.0, 0.25, 0.5), (3.0, 1.0), loglik=0.0),
])
def test_density_normalizes(model):
    assert abs(model.total_mass() - 1.0) <= 1e-8


# total_mass() of each family, as float.hex: the exact value of the
# closed form, step sum, quadrature or weighted sum that each family had
_MASS_PINS = [
    (lk.Uniform01(), "0x1.0000000000000p+0"),
    (lk.GaussianLocation(-40.0), "0x1.0000000000000p+0"),
    (lk.GaussianLocation(37.5), "0x1.0000000000000p+0"),
    (lk.BetaDensity(0.05, 1.0), "0x1.0000000000000p+0"),
    (lk.BetaDensity(30.0, 0.3), "0x1.0000000000000p+0"),
    (lk.BetaDensity(1e-3, 50.0), "0x1.0000000000000p+0"),
    (lk.PiecewiseConstant((0.0, 0.25, 0.5, 1.0), (0.5, 1.5, 1.0)), "0x1.0000000000000p+0"),
    (lk.MonotoneDensityFit((0.0, 0.1, 0.3, 0.7), (4.0, 1.3, 0.35), loglik=0.0),
     "0x1.999999999999ap-1"),
    (lk.ExpFamilyPoly((-math.log(2.0),), -1.0, 1.0), "0x1.0000000000000p+0"),
    (lk.ExpFamilyPoly((0.1, 0.3, -0.5), -3.0, 4.0), "0x1.72b1b57fa94a5p+1"),
    (lk.MixtureDensity((lk.GaussianLocation(-1.0), lk.GaussianLocation(2.0),
                        lk.GaussianLocation(0.5)), (0.7, 0.2, 0.1)), "0x1.fffffffffffffp-1"),
    (lk.MixtureDensity((lk.Uniform01(), lk.BetaDensity(0.5, 1.0)), (0.8, 0.2)),
     "0x1.0000000000000p+0"),
    (lk.MixtureDensity((lk.Uniform01(), lk.PiecewiseConstant((0.0, 0.2, 0.5, 1.0),
                                                              (0.5, 1.5, 1.0))), (0.35, 0.65)),
     "0x1.0851eb851eb84p+0"),
]


@pytest.mark.parametrize("model, mass", _MASS_PINS, ids=lambda x: type(x).__name__)
def test_total_mass_is_pinned(model, mass):
    assert model.total_mass().hex() == mass


@settings(max_examples=100, deadline=None)
@given(st.floats(1e-3, 50.0), st.floats(1e-3, 50.0), st.floats(-40.0, 40.0))
def test_closed_form_families_have_unit_mass_exactly(a, b, mean):
    for model in (lk.BetaDensity(a, b), lk.GaussianLocation(mean)):
        assert model.total_mass() == 1.0


def test_mixture_of_spec_is_valid_density():
    mixture = _two_groups(0.8, lk.Uniform01(), lk.BetaDensity(0.05, 1.0))
    assert abs(mixture.total_mass() - 1.0) <= 1e-8


def test_piecewise_constant_right_continuous():
    pc = lk.PiecewiseConstant((0.0, 0.25, 0.5, 1.0), (0.5, 1.5, 1.0))
    assert pc.pdf(0.25) == pytest.approx(1.5)   # value at the left endpoint
    assert pc.pdf(0.0) == pytest.approx(0.5)
    assert pc.pdf(1.0) == pytest.approx(1.0)    # right edge stays on last piece
    assert pc.cdf(0.25) == pytest.approx(0.125)
    assert pc.cdf(0.5) == pytest.approx(0.5)


def test_loss_spec_threshold():
    assert lk.LossSpec(4.0).threshold == pytest.approx(0.2)
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="lambda must be finite and positive"):
            lk.LossSpec(bad)


@settings(max_examples=50, deadline=None)
@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
@example(pi0=1.0, t=0.0)  # the weightless Beta(0.5, 1) is inf at 0
def test_mixture_density_nonnegative(pi0, t):
    assert _two_groups(pi0, lk.Uniform01(), lk.BetaDensity(0.5, 1.0)).pdf(t) >= 0.0


_EVERY_DENSITY = [
    lk.Uniform01(),
    lk.GaussianLocation(1.3),
    lk.BetaDensity(0.5, 2.0),
    lk.PiecewiseConstant((0.0, 0.25, 0.5, 1.0), (0.5, 1.5, 1.0)),
    lk.ExpFamilyPoly((-math.log(2.0),), -1.0, 1.0),
    pytest.param(_GAUSSIAN_MIXTURE, id="GaussianMixture"),
    lk.MixtureDensity((lk.Uniform01(), lk.BetaDensity(0.5, 1.0)), (0.8, 0.2)),
    lk.MonotoneDensityFit((0.0, 0.25, 0.5), (3.0, 1.0), loglik=0.0),
]


@pytest.mark.parametrize("model", _EVERY_DENSITY,
                         ids=lambda d: type(d).__name__)
def test_density_pdf_cdf_contract(model):
    ts = np.array([[1 / 9, 0.3], [0.5, 1.0]])
    outs = {fn: fn(ts) for fn in (model.pdf, model.cdf)}
    for out in outs.values():
        assert isinstance(out, np.ndarray) and out.shape == ts.shape

    lo, hi = model.support
    for bad in (lo - 0.5, hi + 0.5):
        if math.isinf(bad):
            continue
        for t in (bad, np.array([0.5, bad])):
            with pytest.raises(DomainError, match=re.escape(repr(bad))):
                model.pdf(t)
        assert type(model.cdf(bad)) is float
        assert model.cdf(np.array([0.5, bad])).shape == (2,)

    for fn, out in outs.items():
        for idx, t in np.ndenumerate(ts):
            for scalar in (float(t), np.asarray(t)):
                val = fn(scalar)
                assert type(val) is float
                assert val == out[idx]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-40.0, 40.0), min_size=1, max_size=50), st.floats(-5.0, 5.0))
@example([-4.841789314843784], 0.0)  # squared as a numpy scalar, it was one ulp off
def test_gaussian_scalar_pdf_cdf_equal_the_array_elements(xs, mu):
    x = np.array(xs)
    mixture = lk.MixtureDensity((lk.GaussianLocation(mu), lk.GaussianLocation(mu + 1.5),
                                 lk.GaussianLocation(-3.0)), (0.5, 0.3, 0.2))
    for model in (lk.GaussianLocation(mu), mixture):
        for fn in (model.pdf, model.cdf):
            out = fn(x)
            for t, want in zip(xs, out):
                assert fn(t) == want
                assert fn(np.float64(t)) == want


@pytest.mark.parametrize("build, field", [
    (lambda: lk.GaussianLocation(math.nan), "mean"),
    (lambda: lk.BetaDensity(math.nan, 1.0), "a"),
    (lambda: lk.BetaDensity(1.0, math.inf), "b"),
    (lambda: lk.PiecewiseConstant((0.0, 0.5, 1.0), (1.0, math.nan)), "heights"),
    (lambda: lk.ExpFamilyPoly((0.0, math.nan), -1.0, 1.0), "coefficients"),
    (lambda: lk.MonotoneDensityFit((0.0, 0.5, 1.0), (math.nan, 1.0), loglik=0.0), "heights"),
    (lambda: lk.MonotoneDensityFit((0.0, math.nan, 0.5), (3.0, 1.0), loglik=0.0),
     "breakpoints"),
    (lambda: lk.MonotoneDensityFit((0.0, 0.5, math.inf), (1.0, 0.0), loglik=0.0),
     "breakpoints"),
    (lambda: lk.PiecewiseConstant((-math.inf, 0.5, 1.0), (0.0, 1.0)), "breakpoints"),
    (lambda: lk.ExpFamilyPoly((0.0,), -math.inf, 1.0), "lo"),
    (lambda: lk.ExpFamilyPoly((0.0,), -1.0, math.inf), "hi"),
    (lambda: lk.MixtureDensity((lk.Uniform01(), lk.Uniform01()), (math.nan, math.nan)),
     "weights"),
    (lambda: lk.TwoGroupsBeta(m=10, pi0=0.5, a=math.nan, b=1.0), "a"),
    (lambda: lk.GaussianMeans(m=10, m1=2, mu=math.nan), "mu"),
    (lambda: lk.GaussianMeans(m=10, m1=2, mu=math.inf), "mu"),
], ids=["gaussian-nan", "beta-a-nan", "beta-b-inf", "piecewise-nan", "expfamily-nan",
        "monotone-nan", "monotone-breakpoint-nan", "monotone-breakpoint-inf",
        "piecewise-breakpoint-inf", "expfamily-lo-inf", "expfamily-hi-inf", "mixture-nan", "two-groups-beta-nan", "gaussian-means-nan",
        "gaussian-means-inf"])
def test_nonfinite_parameters_are_refused_at_construction(build, field):
    # a check written as ``a <= 0`` lets NaN through to every evaluation
    with pytest.raises(ValueError, match=field):
        build()


def test_z_to_pvalues_equals_norm_sf_bitwise():
    rng = np.random.default_rng(11)
    special = np.array([0.0, -0.0, np.inf, -np.inf, 40.0, -40.0, 1e308, -1e308,
                        1e-300, -1e-300, 5e-324])
    for z in (rng.normal(size=10**5), rng.normal(scale=10.0, size=10**5),
              rng.normal(size=(21, 300)), special):
        got = to_pvalues(z, lk.Scale.Z_VALUE)
        assert got.shape == z.shape
        assert np.array_equal(got.view(np.uint64), norm.sf(z).view(np.uint64))


def _bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


# scipy.stats is the reference here only; the package evaluates every density
# through scipy.special, and these pin it to the scipy.stats values bitwise
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_UNIT = st.floats(0.0, 1.0)
_SHAPE = st.floats(1e-3, 50.0)


@settings(max_examples=200, deadline=None)
@given(st.lists(_FINITE | st.sampled_from([np.inf, -np.inf]), min_size=1, max_size=20),
       st.floats(-40.0, 40.0))
def test_gaussian_location_equals_scipy_stats_norm_bitwise(xs, mu):
    x = np.array(xs)
    g = lk.GaussianLocation(mu)
    with np.errstate(over="ignore"):  # scipy squares a huge x to inf, as normal_pdf does
        ref = norm.pdf(x, loc=mu)
    assert np.array_equal(_bits(g.pdf(x)), _bits(ref))
    assert np.array_equal(_bits(g.cdf(x)), _bits(norm.cdf(x, loc=mu)))


@settings(max_examples=200, deadline=None)
@given(st.lists(_UNIT | st.sampled_from([0.0, 1.0, 5e-324, 1e-310, 1.0 - 2**-53]),
                min_size=1, max_size=20),
       _SHAPE | st.floats(1e-3, 1.0), _SHAPE)
def test_beta_density_equals_scipy_stats_beta_bitwise(xs, a, b):
    x = np.array(xs)
    d = lk.BetaDensity(a, b)
    with np.errstate(over="ignore"):
        ref = np.exp(beta.logpdf(x, a, b))
    assert np.array_equal(_bits(d.pdf(x)), _bits(ref))
    assert np.array_equal(_bits(d.cdf(x)), _bits(beta.cdf(x, a, b)))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(0.0, 0.5) | st.sampled_from([0.0, 5e-324, 0.5]),
                min_size=1, max_size=20))
def test_negated_ndtri_equals_scipy_stats_norm_isf_bitwise(qs):
    q = np.array(qs)
    # norm.isf adds its loc of 0.0, which turns -ndtri(0.5) = -0.0 into +0.0;
    # every other value agrees bit for bit
    assert np.array_equal(_bits(-ndtri(q) + 0.0), _bits(norm.isf(q)))


_SUBMODULES = ("scipy.stats", "scipy.special", "scipy.integrate", "scipy.optimize",
               "scipy.linalg")
_LOADED = ("import sys, lfdrkit, lfdrkit.cli\n"
           "assert len(sys.argv) == 1 or lfdrkit.cli.main(sys.argv[1:]) == 0\n"
           f"print(*[m for m in {_SUBMODULES!r} if m in sys.modules])")


# Each case starts a fresh interpreter: in this one other tests have already
# loaded scipy, so a stray eager import would not show.
@pytest.mark.parametrize("argv, absent", [
    pytest.param([], _SUBMODULES, id="import"),
    pytest.param(["simulate", "--preset", "theorem-5.1", "--reps", "5", "--seed", "1"],
                 _SUBMODULES, id="simulate-theorem"),
    pytest.param(["simulate", "--preset", "counterexample-discrete", "--perturb-discrete",
                  "--reps", "5", "--seed", "1"], _SUBMODULES, id="simulate-perturbed"),
    pytest.param(["analyze", "--input", "{tmp}/p.csv", "--scale", "p", "--density",
                  "grenander", "--out", "{tmp}/res"], _SUBMODULES, id="analyze-grenander"),
    pytest.param(["calibrate", "--preset", "theorem-5.1", "--scorer", "estimated-lfdr",
                  "--reps", "2", "--seed", "1", "--out", "{tmp}/cal.csv"], _SUBMODULES,
                 id="calibrate-estimated-lfdr"),
])
def test_entry_point_leaves_scipy_submodules_out(tmp_path, argv, absent):
    (tmp_path / "p.csv").write_text("id,stat\na,0.01\nb,0.2\nc,0.7\n", encoding="utf-8")
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    proc = subprocess.run([sys.executable, "-c", _LOADED, *argv], capture_output=True,
                          text=True, env=dict(os.environ), timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.splitlines()[-1].split()
    assert not set(absent) & set(loaded), loaded
