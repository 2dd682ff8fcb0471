import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import norm

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
    assert gt.pi0_bar == pytest.approx(2 / 3)


def test_mixture_density_examples():
    # degenerate mixture
    spec = lk.TwoGroupsSpec(1.0, lk.Uniform01(), lk.BetaDensity(0.05, 1.0))
    assert spec.mixture().pdf(0.3) == pytest.approx(1.0)

    # hand evaluation of Beta(0.05, 1) at t = 1: density a * t^(a-1) = 0.05
    spec = lk.TwoGroupsSpec(0.5, lk.Uniform01(), lk.BetaDensity(0.05, 1.0))
    assert spec.mixture().pdf(1.0) == pytest.approx(0.525)

    spec = lk.TwoGroupsSpec(0.95, lk.GaussianLocation(0.0), lk.GaussianLocation(2.0))
    assert spec.mixture().pdf(0.0) == pytest.approx(
        0.95 * norm.pdf(0.0) + 0.05 * norm.pdf(-2.0))


def test_mixture_density_outside_support():
    spec = lk.TwoGroupsSpec(0.5, lk.Uniform01(), lk.BetaDensity(0.05, 1.0))
    with pytest.raises(DomainError):
        spec.mixture().pdf(1.5)


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


@pytest.mark.parametrize("model", [
    lk.Uniform01(),
    lk.GaussianLocation(1.3),
    lk.BetaDensity(0.05, 1.0),
    lk.PiecewiseConstant((0.0, 0.25, 0.5, 1.0), (0.5, 1.5, 1.0)),
    lk.ExpFamilyPoly((-math.log(2.0),), -1.0, 1.0),
    lk.LocationMixture((-1.0, 2.0), (0.3, 0.7)),
    lk.MixtureDensity((lk.Uniform01(), lk.BetaDensity(0.5, 1.0)), (0.8, 0.2)),
    lk.MonotoneDensityFit((0.0, 0.25, 0.5), (3.0, 1.0), loglik=0.0),
])
def test_density_normalizes(model):
    assert abs(model.total_mass() - 1.0) <= 1e-8


def test_mixture_of_spec_is_valid_density():
    spec = lk.TwoGroupsSpec(0.8, lk.Uniform01(), lk.BetaDensity(0.05, 1.0))
    assert abs(spec.mixture().total_mass() - 1.0) <= 1e-8


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


def test_density_sampling_matches_cdf():
    rng = np.random.default_rng(1)
    pc = lk.PiecewiseConstant((0.0, 0.25, 0.5, 1.0), (0.5, 1.5, 1.0))
    x = pc.sample(rng, 20000)
    assert abs(np.mean(x <= 0.5) - pc.cdf(0.5)) < 0.02


@settings(max_examples=50, deadline=None)
@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
@example(pi0=1.0, t=0.0)  # the weightless Beta(0.5, 1) is inf at 0
def test_mixture_density_nonnegative(pi0, t):
    spec = lk.TwoGroupsSpec(pi0, lk.Uniform01(), lk.BetaDensity(0.5, 1.0))
    assert spec.mixture().pdf(t) >= 0.0


_EVERY_DENSITY = [
    lk.Uniform01(),
    lk.GaussianLocation(1.3),
    lk.BetaDensity(0.5, 2.0),
    lk.PiecewiseConstant((0.0, 0.25, 0.5, 1.0), (0.5, 1.5, 1.0)),
    lk.ExpFamilyPoly((-math.log(2.0),), -1.0, 1.0),
    # the matmul over atoms sums in an order that depends on the array's
    # length, so a scalar can differ from its array element in the last bit
    pytest.param(lk.LocationMixture((-1.0, 2.0), (0.3, 0.7)),
                 marks=pytest.mark.xfail(strict=True, reason="matmul summation order")),
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


def test_z_to_pvalues_equals_norm_sf_bitwise():
    rng = np.random.default_rng(11)
    special = np.array([0.0, -0.0, np.inf, -np.inf, 40.0, -40.0, 1e308, -1e308,
                        1e-300, -1e-300, 5e-324])
    for z in (rng.normal(size=10**5), rng.normal(scale=10.0, size=10**5),
              rng.normal(size=(21, 300)), special):
        got = to_pvalues(z, lk.Scale.Z_VALUE)
        assert got.shape == z.shape
        assert np.array_equal(got.view(np.uint64), norm.sf(z).view(np.uint64))
