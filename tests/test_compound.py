import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import beta as sbeta

import lfdrkit as lk
from lfdrkit.compound import _clfdr_generic, _two_groups_scores
from lfdrkit.core import CapacityError, DegeneracyError
from lfdrkit.simulate import replicate_rng
from lfdrkit.verify import clfdr_factorial_oracle


def _pstats(values):
    return lk.StatVector(values, lk.Scale.P_VALUE)


def test_single_null_scores_one():
    res = lk.clfdr_exact(_pstats([0.4]), lk.GroundTruth([True]), [lk.Uniform01()])
    assert res.scores[0] == pytest.approx(1.0)


def test_two_hypothesis_hand_enumeration():
    f0, f1 = lk.Uniform01(), lk.BetaDensity(0.25, 1.0)
    t1, t2 = 0.3, 0.6
    res = lk.clfdr_exact(_pstats([t1, t2]), lk.GroundTruth([True, False]), [f0, f1])
    want = f1.pdf(t2) / (f1.pdf(t1) + f1.pdf(t2))
    assert res.scores[0] == pytest.approx(want, rel=1e-12)
    assert res.scores.sum() == pytest.approx(1.0, abs=1e-12)


def test_six_hypothesis_scores_sum_to_m0():
    rng = replicate_rng(61, 0)
    m, m0 = 6, 4
    flags = np.array([True] * m0 + [False] * (m - m0))
    f0, f1 = lk.Uniform01(), lk.BetaDensity(0.25, 1.0)
    p = np.clip(np.where(flags, rng.random(m), rng.beta(0.25, 1.0, m)), 1e-12, 1.0)
    res = lk.clfdr_exact(_pstats(p), lk.GroundTruth(flags),
                         [f0 if f else f1 for f in flags])
    assert res.scores.sum() == pytest.approx(m0, abs=1e-12)
    assert np.all((res.scores >= 0) & (res.scores <= 1))


def test_identical_models_give_constant_scores():
    m, m0 = 7, 3
    flags = np.array([True] * m0 + [False] * (m - m0))
    rng = replicate_rng(61, 1)
    p = rng.random(m)
    models = [lk.Uniform01()] * m
    res = lk.clfdr_exact(_pstats(p), lk.GroundTruth(flags), models)
    assert np.allclose(res.scores, m0 / m, atol=1e-12)


def test_all_null_and_all_alternative():
    p = _pstats([0.2, 0.5, 0.8])
    res = lk.clfdr_exact(p, lk.GroundTruth([True] * 3), [lk.Uniform01()] * 3)
    assert np.allclose(res.scores, 1.0)
    res = lk.clfdr_exact(p, lk.GroundTruth([False] * 3),
                         [lk.BetaDensity(0.5, 1.0)] * 3)
    assert np.allclose(res.scores, 0.0)


def test_fast_path_matches_factorial_enumeration():
    f0 = lk.Uniform01()
    for i in range(60):
        rng = replicate_rng(61, 100 + i)
        m = int(rng.integers(1, 8))
        m0 = int(rng.integers(0, m + 1))
        a = float(rng.uniform(0.15, 0.9))
        f1 = lk.BetaDensity(a, 1.0)
        flags = np.zeros(m, dtype=bool)
        flags[rng.permutation(m)[:m0]] = True
        p = np.clip(rng.random(m), 1e-9, 1.0)
        models = [f0 if f else f1 for f in flags]
        res = lk.clfdr_exact(_pstats(p), lk.GroundTruth(flags), models)
        dens = np.stack([np.asarray(mod.pdf(p)) for mod in models])
        want = clfdr_factorial_oracle(dens, flags)
        assert np.abs(res.scores - want).max() < 1e-10


def test_generic_path_handles_distinct_densities():
    # three hypotheses with three different densities
    models = [lk.BetaDensity(0.3, 1.0), lk.Uniform01(), lk.BetaDensity(2.0, 2.0)]
    flags = np.array([True, True, False])
    p = np.array([0.1, 0.5, 0.7])
    res = lk.clfdr_exact(_pstats(p), lk.GroundTruth(flags), models)
    dens = np.stack([np.asarray(mod.pdf(p)) for mod in models])
    want = clfdr_factorial_oracle(dens, flags)
    assert np.abs(res.scores - want).max() < 1e-12
    assert res.scores.sum() == pytest.approx(2.0, abs=1e-10)


def test_permutation_equivariance():
    rng = replicate_rng(61, 200)
    m, m0 = 9, 5
    flags = np.zeros(m, dtype=bool)
    flags[:m0] = True
    p = np.clip(rng.beta(0.4, 1.0, m), 1e-9, 1.0)
    f0, f1 = lk.Uniform01(), lk.BetaDensity(0.4, 1.0)
    models = [f0 if f else f1 for f in flags]
    base = lk.clfdr_exact(_pstats(p), lk.GroundTruth(flags), models).scores

    perm = rng.permutation(m)
    permuted = lk.clfdr_exact(
        _pstats(p[perm]), lk.GroundTruth(flags[perm]),
        [models[j] for j in perm]).scores
    assert np.allclose(base[perm], permuted, atol=1e-12)


def test_scaling_invariance_at_matrix_level():
    rng = replicate_rng(61, 300)
    m = 6
    dens = rng.uniform(0.1, 3.0, size=(m, m))
    flags = np.array([True, False, True, True, False, False])
    base = _clfdr_generic(dens, flags)
    scaled = _clfdr_generic(dens * 17.3, flags)
    assert np.abs(base - scaled).max() < 1e-12


def test_capacity_error_for_large_generic_instances():
    m = 21
    models = [lk.BetaDensity(0.2 + 0.01 * i, 1.0) for i in range(m)]
    flags = np.zeros(m, dtype=bool)
    flags[:10] = True
    p = np.linspace(0.05, 0.95, m)
    with pytest.raises(CapacityError):
        lk.clfdr_exact(_pstats(p), lk.GroundTruth(flags), models)


def test_two_groups_fast_path_scales_past_generic_cap():
    rng = replicate_rng(61, 400)
    m, m0 = 40, 25
    flags = np.zeros(m, dtype=bool)
    flags[:m0] = True
    p = np.clip(rng.beta(0.3, 1.0, m), 1e-9, 1.0)
    models = [lk.Uniform01() if f else lk.BetaDensity(0.3, 1.0) for f in flags]
    res = lk.clfdr_exact(_pstats(p), lk.GroundTruth(flags), models)
    assert res.scores.sum() == pytest.approx(m0, abs=1e-8)


def test_degeneracy_error_when_density_vanishes_everywhere():
    dead = lk.PiecewiseConstant((0.0, 0.5, 1.0), (2.0, 0.0))
    with pytest.raises(DegeneracyError):
        lk.clfdr_exact(_pstats([0.75, 0.2]), lk.GroundTruth([True, False]),
                       [dead, dead])


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_two_groups_kernel_matches_generic_dp(data):
    m = data.draw(st.integers(1, 10), label="m")
    m1 = data.draw(st.integers(0, m), label="m1")
    rows = data.draw(st.lists(st.lists(st.floats(-5.0, 5.0), min_size=m, max_size=m),
                              min_size=1, max_size=4), label="log_r")
    perm = np.array(data.draw(st.permutations(range(m)), label="perm"))
    # null rows have density 1, so an alternative's density is its ratio
    flags = np.arange(m) >= m1
    for row in np.array(rows):
        scores, _ = _two_groups_scores(row, m1)
        dens = np.where(flags[:, None], 1.0, np.exp(row)[None, :])
        generic = _clfdr_generic(dens, flags)
        assert np.abs(scores - generic).max() <= 1e-10
        assert abs(scores.sum() - (m - m1)) <= 1e-10
        permuted, _ = _two_groups_scores(row[perm], m1)
        assert np.abs(permuted - scores[perm]).max() <= 1e-12


def test_clfdr_vs_lfdr_gap_trivial_cases():
    res = lk.clfdr_vs_lfdr_gap(
        _pstats([0.4]), lk.GroundTruth([True]), [lk.Uniform01()],
        lk.LfdrCurve(1.0, lk.Uniform01(), lk.Uniform01()))
    assert res.max_ratio_dev == pytest.approx(0.0, abs=1e-12)

    m, m0 = 8, 5
    flags = np.array([True] * m0 + [False] * (m - m0))
    p = np.linspace(0.1, 0.9, m)
    models = [lk.Uniform01()] * m
    curve = lk.LfdrCurve(m0 / m, lk.Uniform01(), lk.Uniform01(), clip=False)
    res = lk.clfdr_vs_lfdr_gap(_pstats(p), lk.GroundTruth(flags), models, curve)
    assert res.max_ratio_dev < 1e-12


def test_clfdr_vs_lfdr_gap_where_the_null_density_vanishes():
    # above 0.5 the null density is 0, so both scores are 0 there: 0/0 agrees
    f0 = lk.PiecewiseConstant((0.0, 0.5, 1.0), (2.0, 0.0))
    f1 = lk.Uniform01()
    truth = lk.GroundTruth([True, True, False, False])
    curve = lk.LfdrCurve(0.5, f0, lk.MixtureDensity((f0, f1), (0.5, 0.5)), clip=False)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gap = lk.clfdr_vs_lfdr_gap(_pstats([0.1, 0.2, 0.7, 0.3]), truth, [f0, f0, f1, f1],
                                   curve)
    assert math.isfinite(gap.max_ratio_dev)
    res = lk.clfdr_exact(_pstats([0.1, 0.2, 0.7, 0.3]), truth, [f0, f0, f1, f1])
    pointwise = curve.evaluate(np.array([0.1, 0.2, 0.3]))
    assert gap.max_ratio_dev == np.abs(res.scores[[0, 1, 3]] / pointwise - 1.0).max()
    # a positive compound score against a pointwise 0 stays infinitely far off
    off = lk.clfdr_vs_lfdr_gap(_pstats([0.1, 0.2, 0.7, 0.3]), truth, [f1] * 4, curve)
    assert off.max_ratio_dev == math.inf


def test_clfdr_approaches_pointwise_score_as_m_grows():
    pi0, a = 0.5, 0.25
    f0, f1 = lk.Uniform01(), lk.BetaDensity(a, 1.0)
    medians = []
    for m in (6, 10, 14):
        m0 = m // 2
        devs = []
        for r in range(200):
            rng = replicate_rng(61, 1000 + 7 * m + r)
            flags = np.zeros(m, dtype=bool)
            flags[:m0] = True
            p = np.clip(np.where(flags, rng.random(m), rng.beta(a, 1.0, m)),
                        1e-9, 1.0)
            models = [f0 if f else f1 for f in flags]
            avg = lk.MixtureDensity((f0, f1), (m0 / m, 1 - m0 / m))
            curve = lk.LfdrCurve(m0 / m, f0, avg, clip=False)
            gap = lk.clfdr_vs_lfdr_gap(_pstats(p), lk.GroundTruth(flags),
                                       models, curve)
            devs.append(gap.max_ratio_dev)
        medians.append(float(np.median(devs)))
    assert medians[0] > medians[1] > medians[2]


def _compound_scores_by_rows(r, m1):
    """Compound scores ``e_{m1}(r without r_i) / e_{m1}(r)`` of each row of
    likelihood ratios r, from elementary symmetric polynomials built in the
    linear domain, a whole column of rows per step."""
    def esym(columns):
        e = np.zeros((r.shape[0], m1 + 1))
        e[:, 0] = 1.0
        for j in columns:
            e[:, 1:] += r[:, j, None] * e[:, :-1]
        return e[:, m1]

    m = r.shape[1]
    without = np.stack([esym([j for j in range(m) if j != i]) for i in range(m)], axis=1)
    return without / esym(range(m))[:, None]


def test_best_pe_rule_dominates_separable_thresholds():
    # shared-noise comparison of expected weighted loss at m = 8
    reps, m, m0 = 100_000, 8, 4
    a, lam = 0.25, 4.0
    loss = lk.LossSpec(lam)
    rng = replicate_rng(61, 2000)
    isnull = np.zeros((reps, m), dtype=bool)
    isnull[:, :m0] = True
    p = np.where(isnull, rng.random((reps, m)), rng.beta(a, 1.0, (reps, m)))
    p = np.clip(p, 1e-12, 1.0)
    f1 = sbeta.pdf(p, a, 1.0)
    # the kernel scores one row per call, and 100,000 calls take seconds: it
    # is checked on the first 1,000 rows of the scores built a column at a time
    scores = _compound_scores_by_rows(f1, m - m0)
    for row, row_scores in zip(f1[:1000], scores):
        assert np.abs(_two_groups_scores(np.log(row), m - m0)[0] - row_scores).max() <= 1e-12

    def mean_loss(dec):
        fp = (dec & isnull).sum(axis=1)
        fn = (~dec & ~isnull).sum(axis=1)
        return lam * fp + fn

    loss_pe = mean_loss(scores <= loss.threshold)
    marginal = 0.5 / (0.5 + 0.5 * f1)
    for cutoff in np.linspace(0.05, 0.95, 19):
        diff = loss_pe - mean_loss(marginal <= cutoff)
        se = diff.std(ddof=1) / np.sqrt(reps)
        assert diff.mean() <= 3.0 * se
