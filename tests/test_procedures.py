import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import beta as sbeta

import lfdrkit as lk
from lfdrkit.simulate import replicate_rng


def _pstats(values):
    return lk.StatVector(values, lk.Scale.P_VALUE)


# ---------------------------------------------------------------------------
# fdp_hat
# ---------------------------------------------------------------------------

def fdp_hat(stats, t, m0_hat=None):
    """Estimated FDP of the rejection region [0, t]: ``m0_hat * t / #{p <= t}``,
    with m0_hat = m by default; 0 at t = 0 and +inf on an empty region."""
    m0 = stats.m if m0_hat is None else m0_hat
    n = np.count_nonzero(stats.values <= t)
    if t == 0.0:
        return 0.0
    return m0 * t / n if n else math.inf


def test_fdp_hat_examples():
    stats = _pstats([0.01, 0.02, 0.5, 0.9])
    assert fdp_hat(stats, 0.0) == 0.0
    assert fdp_hat(stats, 0.02) == pytest.approx(0.04)
    assert fdp_hat(_pstats([0.5, 0.9]), 0.1) == math.inf
    # null-adjusted variant
    assert fdp_hat(stats, 0.02, m0_hat=2.0) == pytest.approx(0.02)


# ---------------------------------------------------------------------------
# bh_threshold
# ---------------------------------------------------------------------------

def test_bh_examples():
    res = lk.bh_threshold(_pstats([0.01, 0.02, 0.03, 0.04]), 0.05)
    assert res.n_rejections == 4
    assert res.boundary_stat == pytest.approx(0.04)

    res = lk.bh_threshold(_pstats([1.0, 1.0, 1.0]), 0.1)
    assert res.n_rejections == 0
    assert res.boundary_stat is None


def _stepup_bh_oracle(p, alpha, m0=None):
    """Classic step-up rule, written independently of the threshold search."""
    p = np.asarray(p)
    m = p.size
    m0 = m if m0 is None else m0
    order = np.argsort(p)
    ps = p[order]
    ok = np.flatnonzero(ps <= alpha * np.arange(1, m + 1) / m0)
    if ok.size == 0:
        return np.array([], dtype=int)
    k = ok[-1] + 1
    return np.sort(order[:k])


def test_bh_equals_stepup_oracle():
    for i in range(1000):
        rng = replicate_rng(31, i)
        m = int(rng.integers(1, 101))
        p = np.where(rng.random(m) < 0.3, rng.beta(0.2, 1.0, m), rng.random(m))
        alpha = float(rng.uniform(0.01, 0.5))
        got = lk.bh_threshold(_pstats(p), alpha).rejected
        want = _stepup_bh_oracle(p, alpha)
        assert np.array_equal(got, want)


def test_bh_monotone_in_alpha():
    rng = replicate_rng(31, 5000)
    p = rng.random(80)
    stats = _pstats(p)
    prev: set = set()
    for alpha in (0.01, 0.05, 0.1, 0.2, 0.5, 1.0):
        cur = set(lk.bh_threshold(stats, alpha).rejected.tolist())
        assert prev <= cur
        prev = cur


@pytest.mark.parametrize("m0_hat", [math.nan, math.inf, -1.0])
def test_null_count_must_be_finite_and_nonnegative(m0_hat):
    stats = _pstats([0.01, 0.02, 0.5])
    with pytest.raises(ValueError, match="m0_hat must be finite and >= 0"):
        lk.bh_threshold(stats, 0.1, m0_hat=m0_hat)
    with pytest.raises(ValueError, match="m0_hat must be finite and >= 0"):
        lk.q_values(stats, m0_hat=m0_hat)
    # zero nulls is a valid estimate: every p-value has estimated FDP 0
    assert lk.bh_threshold(stats, 0.1, m0_hat=0.0).n_rejections == 3


def test_bh_rejects_exact_zeros_even_at_tiny_alpha():
    res = lk.bh_threshold(_pstats([0.0, 0.7]), 0.01)
    assert res.n_rejections == 1
    assert res.boundary_stat == 0.0


# ---------------------------------------------------------------------------
# q_values
# ---------------------------------------------------------------------------

def test_qvalue_examples():
    assert lk.q_values(_pstats([0.37]))[0] == pytest.approx(0.37)
    q = lk.q_values(_pstats([0.01, 0.02, 0.03, 0.04]))
    assert np.allclose(q, 0.04)


def test_qvalues_nondecreasing_in_p_order():
    rng = replicate_rng(31, 6000)
    p = rng.random(200)
    q = lk.q_values(_pstats(p))
    order = np.argsort(p)
    assert np.all(np.diff(q[order]) >= 0)


def test_qvalue_duality_spot_check():
    rng = replicate_rng(31, 6001)
    p = np.clip(rng.beta(0.3, 1.0, 50), 1e-6, 1.0)
    stats = _pstats(p)
    q = lk.q_values(stats)
    for j in (0, 17, 33, 49):
        assert j in lk.bh_threshold(stats, float(q[j])).rejected
        assert j not in lk.bh_threshold(stats, float(q[j]) - 1e-9).rejected


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 6), min_size=1, max_size=40), st.integers(1, 6),
       st.floats(0.01, 1.0), st.floats(0.5, 40.0))
def test_step_up_rules_match_true_tie_counts(cells, L, alpha, m0):
    # grid p-values tie heavily; the reference estimates the FDP at p_(k)
    # with the true count #{p <= p_(k)}, not the position k
    p = np.minimum(np.array(cells) / L, 1.0)
    ps = np.sort(p)
    fdp = m0 * ps / np.searchsorted(ps, ps, side="right")
    ok = np.flatnonzero(fdp <= alpha)
    threshold = ps[ok[-1]] if ok.size else 0.0
    res = lk.bh_threshold(_pstats(p), alpha, m0_hat=m0)
    assert res.n_rejections == np.count_nonzero(p <= threshold)
    q_sorted = np.minimum(np.minimum.accumulate(fdp[::-1])[::-1], 1.0)
    assert np.array_equal(np.sort(lk.q_values(_pstats(p), m0_hat=m0)), q_sorted)


# ---------------------------------------------------------------------------
# support_line
# ---------------------------------------------------------------------------

def _support_line_objective(p, alpha):
    """``alpha*k/m - p_(k)`` for k = 0..m, with ``p_(0) = 0``."""
    m = len(p)
    return alpha * np.arange(m + 1) / m - np.concatenate([[0.0], np.sort(p)])


def test_support_line_examples():
    res = lk.support_line(_pstats([1.0, 1.0, 1.0]), 0.1)
    assert res.n_rejections == 0

    res = lk.support_line(_pstats([0.01, 0.02, 0.5]), 0.3)
    assert res.n_rejections == 2
    assert res.boundary_stat == pytest.approx(0.02)
    obj = _support_line_objective([0.01, 0.02, 0.5], 0.3)
    assert np.allclose(obj, [0.0, 0.09, 0.18, -0.2])


def test_support_line_boundary_event_interval():
    # two hypotheses, alternative pinned at 1/4, alpha = 1/2: the null is the
    # boundary rejection exactly when it lands in (1/4, 1/2).  The grid of
    # odd multiples of 1/1001 avoids the measure-zero tie points 1/4 and 1/2.
    for p1 in np.arange(1, 1001, 2) / 1001.0:
        res = lk.support_line(_pstats([p1, 0.25]), 0.5)
        is_boundary = res.n_rejections > 0 and res.boundary_stat == p1
        assert is_boundary == (0.25 < p1 < 0.5)


def test_support_line_largest_k_tie_break():
    # objective ties at k=2 and k=6 in the grid counterexample with p6 = 4/9
    p = np.array([1, 1, 2, 3, 4, 4]) / 9.0
    res = lk.support_line(_pstats(p), 0.5)
    assert res.n_rejections == 6


def test_support_line_objective_dominance():
    for i in range(200):
        rng = replicate_rng(31, 7000 + i)
        m = int(rng.integers(1, 60))
        p = rng.random(m)
        alpha = float(rng.uniform(0.05, 0.9))
        res = lk.support_line(_pstats(p), alpha)
        obj = _support_line_objective(p, alpha)
        assert obj[res.n_rejections] >= obj.max() - 1e-15


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=30),
       st.floats(0.05, 1.0))
def test_support_line_rejects_lower_set(values, alpha):
    stats = _pstats(values)
    res = lk.support_line(stats, alpha)
    if res.n_rejections:
        assert np.all(np.sort(stats.values)[:res.n_rejections]
                      <= res.boundary_stat + 1e-15)
        rejected_vals = stats.values[res.rejected]
        assert rejected_vals.max() == res.boundary_stat


# ---------------------------------------------------------------------------
# threshold rules
# ---------------------------------------------------------------------------

def test_lfdr_threshold_rule():
    loss = lk.LossSpec(4.0)
    dec = lk.lfdr_threshold_rule([0.1, 0.2, 0.21, 1.0], loss)
    assert dec.tolist() == [True, True, False, False]
    assert not lk.lfdr_threshold_rule([1.0, 1.0], loss).any()
    for bad in ([1.5], [-0.1, 0.5], [math.nan, 0.1], [0.1, math.nan]):
        with pytest.raises(ValueError, match="scores must lie in"):
            lk.lfdr_threshold_rule(bad, loss)


def test_lfdr_threshold_rule_monotone_invariance():
    loss = lk.LossSpec(4.0)
    scores = np.array([0.05, 0.2, 0.35, 0.8])
    base = lk.lfdr_threshold_rule(scores, loss)
    # applying a strictly increasing map to scores and cutoff together
    transformed = np.sqrt(scores) <= math.sqrt(loss.threshold)
    assert np.array_equal(base, transformed)


# ---------------------------------------------------------------------------
# grid perturbation
# ---------------------------------------------------------------------------

def test_perturb_grid_pvalues():
    rng = replicate_rng(31, 9000)
    L = 9
    p = np.array([1, 3, 9, 9]) / L
    out = lk.perturb_grid_pvalues(_pstats(p), L, rng)
    assert np.all(out.values <= p) and np.all(out.values > p - 1.0 / L)
    with pytest.raises(ValueError, match=r"^statistics are not supported on the 1/9 grid$"):
        lk.perturb_grid_pvalues(_pstats([0.123]), L, rng)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 12), st.integers(1, 40), st.integers(0, 1000))
def test_perturb_grid_pvalues_is_the_cell_formula(L, m, index):
    p = replicate_rng(31, index).integers(1, L + 1, m) / L
    u = replicate_rng(32, index).random(m)
    out = lk.perturb_grid_pvalues(_pstats(p), L, replicate_rng(32, index))
    # the formula the harness has always used, in the same operation order
    assert out.values.tobytes() == ((np.rint(p * L) - 1.0 + u) / L).tobytes()


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 1 << 40).flatmap(lambda L: st.tuples(
    st.just(L), st.lists(st.integers(1, L), min_size=1, max_size=20))))
@example((5 * 10**7, replicate_rng(34, 0).integers(1, 5 * 10**7 + 1, 100).tolist()))
@example((10**8, replicate_rng(34, 1).integers(1, 10**8 + 1, 100).tolist()))
def test_perturb_grid_pvalues_takes_exact_grid_values_on_fine_grids(grid):
    # (k / L) * L rounds up to two ulps of k away from k, past 1e-9 once
    # L exceeds 2**22; a hundredth of a cell off the grid is far beyond that
    L, cells = grid
    k = np.array(cells)
    rng = replicate_rng(33, 0)
    out = lk.perturb_grid_pvalues(_pstats(k / L), L, rng)
    assert np.all(out.values <= k / L) and np.all(out.values > (k - 1) / L)
    for i in range(k.size):
        p = k / L
        p[i] = (k[i] - 0.01) / L
        with pytest.raises(ValueError, match="not supported on the 1/"):
            lk.perturb_grid_pvalues(_pstats(p), L, rng)


def test_perturbed_nulls_are_uniform():
    rng = replicate_rng(31, 9001)
    L = 7
    p = rng.integers(1, L + 1, 50_000) / L
    out = lk.perturb_grid_pvalues(_pstats(p), L, rng)
    hist, _ = np.histogram(out.values, bins=10, range=(0, 1))
    assert hist.min() > 4500  # roughly uniform


# ---------------------------------------------------------------------------
# boundary score dominates tail-average estimate (monotone designs)
# ---------------------------------------------------------------------------

def test_boundary_lfdr_dominates_fdp_hat_in_expectation():
    pi0, a, alpha = 0.8, 0.05, 0.3
    m = 100
    m0 = int(round(pi0 * m))
    diffs = []
    for r in range(10_000):
        rng = replicate_rng(31, 10_000 + r)
        p = np.concatenate([rng.beta(a, 1.0, m - m0), rng.random(m0)])
        stats = _pstats(p)
        res = lk.support_line(stats, alpha)
        if res.n_rejections == 0:
            continue
        t = res.boundary_stat
        oracle = min(1.0, pi0 / (pi0 + (1 - pi0) * sbeta.pdf(t, a, 1.0)))
        diffs.append(oracle - fdp_hat(stats, t))
    diffs = np.asarray(diffs)
    se = diffs.std(ddof=1) / np.sqrt(diffs.size)
    assert diffs.mean() >= -3.0 * se
