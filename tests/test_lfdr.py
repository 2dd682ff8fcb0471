import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

import lfdrkit as lk
from lfdrkit.core import DomainError, EstimationError
from lfdrkit.lfdr import lfdr_ratio
from lfdrkit.simulate import replicate_rng


def _pstats(values):
    return lk.StatVector(values, lk.Scale.P_VALUE)


# ---------------------------------------------------------------------------
# oracle and curve evaluation
# ---------------------------------------------------------------------------

def test_oracle_lfdr_all_null():
    truth = lk.GroundTruth([True, True, True])
    models = [lk.Uniform01()] * 3
    for t in (0.0, 0.3, 1.0):
        assert lk.oracle_lfdr(truth, models, t) == pytest.approx(1.0)


def test_oracle_lfdr_gaussian_design():
    # 95% null N(0,1), 5% N(2,1)
    m, m1 = 40, 2
    truth = lk.GroundTruth([False] * m1 + [True] * (m - m1))
    models = [lk.GaussianLocation(2.0)] * m1 + [lk.GaussianLocation(0.0)] * (m - m1)
    for t in (-1.0, 0.0, 2.5):
        want = 0.95 * norm.pdf(t) / (0.95 * norm.pdf(t) + 0.05 * norm.pdf(t - 2.0))
        assert lk.oracle_lfdr(truth, models, t) == pytest.approx(want, rel=1e-12)


def test_oracle_matches_curve_when_nulls_share_density():
    m, m1 = 10, 3
    truth = lk.GroundTruth([False] * m1 + [True] * (m - m1))
    f1 = lk.BetaDensity(0.3, 1.0)
    models = [f1] * m1 + [lk.Uniform01()] * (m - m1)
    avg = lk.MixtureDensity(tuple(models), tuple([1 / m] * m))
    curve = lk.LfdrCurve(truth.pi0_bar, lk.Uniform01(), avg, clip=False)
    for t in (0.05, 0.4, 0.99):
        assert abs(lk.oracle_lfdr(truth, models, t) - curve.evaluate(t)) < 1e-12


def test_oracle_lfdr_infinite_null_and_total_is_domain_error():
    # Beta(0.5, 1) and Beta(0.05, 1) are both infinite at 0, so the ratio is inf/inf
    truth = lk.GroundTruth([True, False])
    models = [lk.BetaDensity(0.5, 1.0), lk.BetaDensity(0.05, 1.0)]
    with pytest.raises(DomainError):
        lk.oracle_lfdr(truth, models, 0.0)
    with pytest.raises(DomainError):
        lk.oracle_lfdr(truth, models, np.array([0.5, 0.0]))


def test_curve_eval_examples():
    all_null = lk.LfdrCurve(1.0, lk.Uniform01(), lk.Uniform01())
    assert all_null.evaluate(0.37) == pytest.approx(1.0)

    mix = lk.MixtureDensity((lk.Uniform01(), lk.BetaDensity(0.05, 1.0)), (0.5, 0.5))
    curve = lk.LfdrCurve(0.5, lk.Uniform01(), mix)
    t = 0.01
    want = 0.5 / (0.5 + 0.5 * 0.05 * t ** (-0.95))
    assert curve.evaluate(t) == pytest.approx(want, rel=1e-12)


def test_curve_eval_zero_density_is_domain_error():
    fit = lk.grenander_fit(_pstats([0.2, 0.5]))
    curve = lk.LfdrCurve(1.0, lk.Uniform01(), fit)
    with pytest.raises(DomainError):
        curve.evaluate(0.9)  # past the last knot, estimate is exactly 0


def test_unclipped_ratio_can_exceed_one():
    # hull of {0.1, 0.9} has slope 0.625 on (0.1, 0.9], so the raw ratio
    # pi0 * 1 / fhat rises above 1 there
    fit = lk.grenander_fit(_pstats([0.1, 0.9]))
    curve = lk.LfdrCurve(1.0, lk.Uniform01(), fit, clip=False)
    raw = curve.evaluate(0.5)
    assert raw > 1.0
    clipped = lk.LfdrCurve(1.0, lk.Uniform01(), fit).evaluate(0.5)
    assert clipped == 1.0


# ---------------------------------------------------------------------------
# null-proportion estimators
# ---------------------------------------------------------------------------

def test_storey_examples():
    assert lk.storey_pi0(_pstats([0.1, 0.2, 0.3]), 0.5).value == 0.0
    est = lk.storey_pi0(_pstats([0.1, 0.3, 0.6, 0.9]), 0.5)
    assert est.raw == pytest.approx(1.0)
    assert est.value == pytest.approx(1.0)

    rng = replicate_rng(17, 0)
    big = lk.storey_pi0(_pstats(rng.random(10_000)), 0.5)
    assert big.raw == pytest.approx(1.0, abs=0.05)


def test_storey_lambda_validation():
    with pytest.raises(ValueError):
        lk.storey_pi0(_pstats([0.5]), 0.0)
    with pytest.raises(ValueError):
        lk.storey_pi0(_pstats([0.5]), 1.0)


def test_storey_clip_retains_raw():
    est = lk.storey_pi0(_pstats([0.9, 0.95, 0.99, 0.6]), 0.5)
    assert est.raw == pytest.approx(2.0)
    assert est.value == 1.0


def test_selection_window_examples():
    p = _pstats([0.1, 0.3, 0.6, 0.9])
    full = lk.selection_window_pi0(p, 1.0, 0.5)
    assert full.raw == lk.storey_pi0(p, 0.5).raw

    est = lk.selection_window_pi0(_pstats([0.005, 0.01, 0.02]), 0.025, 0.5)
    assert est.raw == pytest.approx(2.0 / 3.0)

    rng = replicate_rng(17, 1)
    c = 0.05
    nulls = rng.random(200_000)
    kept = lk.StatVector(nulls, lk.Scale.P_VALUE)
    est = lk.selection_window_pi0(kept, c, 0.5)
    assert est.value == pytest.approx(1.0, abs=0.05)


def test_selection_window_errors():
    with pytest.raises(EstimationError):
        lk.selection_window_pi0(_pstats([0.9, 0.8]), 0.1, 0.5)
    for c in (0.0, 1.5, float("nan")):
        with pytest.raises(ValueError, match=r"window must be \[0, c\] with c in \(0, 1\]"):
            lk.selection_window_pi0(_pstats([0.5]), c, 0.5)


def test_storey_upward_bias_under_pure_null():
    raws = []
    for r in range(1000):
        rng = replicate_rng(17, 100 + r)
        raws.append(lk.storey_pi0(_pstats(rng.random(200)), 0.5).raw)
    raws = np.asarray(raws)
    se = raws.std(ddof=1) / np.sqrt(raws.size)
    assert raws.mean() >= 1.0 - 3.0 * se


# ---------------------------------------------------------------------------
# scoring
# ---------------------------------------------------------------------------

def test_score_hypotheses_all_null_curve():
    curve = lk.LfdrCurve(1.0, lk.Uniform01(), lk.Uniform01())
    scores = lk.score_hypotheses(curve, _pstats([0.2, 0.9, 0.5]))
    assert np.allclose(scores, 1.0)


def test_score_hypotheses_monotone_on_sorted_input():
    rng = replicate_rng(17, 2)
    p = np.sort(np.clip(rng.beta(0.3, 1.0, 60), 1e-9, 1.0))
    fit = lk.grenander_fit(_pstats(p))
    curve = lk.LfdrCurve(0.9, lk.Uniform01(), fit)
    scores = lk.score_hypotheses(curve, _pstats(p))
    assert np.all(np.diff(scores) >= -1e-12)


def test_score_hypotheses_names_offending_index():
    fit = lk.grenander_fit(_pstats([0.2, 0.5]))
    curve = lk.LfdrCurve(1.0, lk.Uniform01(), fit)
    stats = lk.StatVector([0.1, 0.95], lk.Scale.P_VALUE, ids=("ok", "tail"))
    with pytest.raises(DomainError, match="tail"):
        lk.score_hypotheses(curve, stats)


def test_score_hypotheses_permutation_equivariant():
    rng = replicate_rng(17, 3)
    p = np.clip(rng.beta(0.4, 1.0, 30), 1e-9, 1.0)
    fit = lk.grenander_fit(_pstats(p))
    curve = lk.LfdrCurve(0.8, lk.Uniform01(), fit)
    perm = rng.permutation(30)
    direct = lk.score_hypotheses(curve, _pstats(p))[perm]
    permuted = lk.score_hypotheses(curve, _pstats(p[perm]))
    assert np.array_equal(direct, permuted)


@settings(max_examples=100, deadline=None)
@given(st.floats(0.01, 1.0), st.floats(1e-6, 1e6), st.floats(1e-6, 1e6),
       st.floats(1e-6, 1e6))
def test_clipped_ratio_invariant_to_common_rescaling(pi0, f0, fbar, c):
    base = lfdr_ratio(pi0, f0, fbar, clip=True)
    scaled = lfdr_ratio(pi0, c * f0, c * fbar, clip=True)
    assert abs(float(base) - float(scaled)) <= 1e-12


def test_lfdr_ratio_raises_on_zero_average():
    with pytest.raises(DomainError):
        lfdr_ratio(0.5, 1.0, 0.0)
