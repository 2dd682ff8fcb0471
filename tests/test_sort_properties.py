"""Property tests for the code that sorts p-values: the Grenander fit, the
q-values and the two lower-set rejection rules.

Inputs are drawn three ways, all strictly positive so the monotone fit is
defined: continuous values, values drawn from a small pool (heavy ties) and
values on a 1/L grid.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lfdrkit as lk


def _pstats(values):
    return lk.StatVector(values, lk.Scale.P_VALUE)


_continuous = st.lists(
    st.floats(min_value=1e-300, max_value=1.0, allow_subnormal=False),
    min_size=1, max_size=60)

_tie_heavy = st.lists(
    st.floats(min_value=1e-12, max_value=1.0, allow_subnormal=False),
    min_size=1, max_size=4,
).flatmap(lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=60))

_grid = st.integers(1, 12).flatmap(
    lambda L: st.lists(st.integers(1, L), min_size=1, max_size=60).map(
        lambda cells: [c / L for c in cells]))

pvalue_lists = st.one_of(_continuous, _tie_heavy, _grid)


def reference_grenander(p):
    """Least concave majorant of the ECDF by a float stack scan over every
    vertex (tied order statistics collapse to one jump).

    Returns the breakpoints, the heights ``diff(hy) / diff(hx)`` and the mean
    log-likelihood of the sample.
    """
    p = np.sort(np.asarray(p, dtype=float))
    m = p.size
    u, counts = np.unique(p, return_counts=True)
    ys = np.concatenate([[0.0], np.cumsum(counts) / m])
    xs = np.concatenate([[0.0], u])
    # a subnormal spacing overflows a slope or a height to inf
    with np.errstate(over="ignore"):
        hull = [0]
        for j in range(1, xs.size):
            while len(hull) >= 2:
                a, b = hull[-2], hull[-1]
                s_prev = (ys[b] - ys[a]) / (xs[b] - xs[a])
                s_new = (ys[j] - ys[b]) / (xs[j] - xs[b])
                if s_prev <= s_new:
                    hull.pop()
                else:
                    break
            hull.append(j)
        hx = xs[hull]
        hy = ys[hull]
        heights = np.diff(hy) / np.diff(hx)
    idx = np.searchsorted(hx[1:], p, side="left")
    return tuple(hx), tuple(heights), float(np.mean(np.log(heights[idx])))


def _same_fit(fit, breakpoints, heights, loglik):
    assert fit.breakpoints == breakpoints
    assert fit.heights == heights
    assert fit.loglik == loglik


@settings(max_examples=300, deadline=None)
@given(pvalue_lists)
# a spacing of 2e-316 overflows the slope 1/3 / 2e-316, and the majorant, to inf
@example([1.0, 1.0000000000000002e-300, 1e-300])
def test_grenander_equals_the_full_stack_scan_bitwise(values):
    _same_fit(lk.grenander_fit(_pstats(values)), *reference_grenander(values))


def test_grenander_equals_the_full_stack_scan_on_large_inputs():
    # near-collinear vertices are common at this size: uniform nulls plus
    # Beta alternatives, continuous and rounded to three decimals
    rng = np.random.default_rng(20261018)
    for _ in range(4):
        p = 1.0 - rng.random(5_000)
        p[:500] = np.maximum(rng.beta(0.1, 1.0, 500), 1e-300)
        for values in (p, np.maximum(np.round(p, 3), 1e-3)):
            _same_fit(lk.grenander_fit(_pstats(values)), *reference_grenander(values))


@st.composite
def _permuted(draw):
    values = np.array(draw(pvalue_lists))
    perm = np.array(draw(st.permutations(range(values.size))), dtype=int)
    alpha = draw(st.floats(0.01, 1.0))
    return values, perm, alpha


def _check_lower_set(res, res_perm, values, perm):
    # hypothesis i of the permuted vector is hypothesis perm[i] of the original
    assert res_perm.n_rejections == res.n_rejections
    assert np.array_equal(np.sort(perm[res_perm.rejected]), res.rejected)
    assert res_perm.boundary_stat == res.boundary_stat


@settings(max_examples=200, deadline=None)
@given(_permuted())
def test_sorting_code_is_permutation_equivariant(case):
    values, perm, alpha = case
    stats, permuted = _pstats(values), _pstats(values[perm])

    assert lk.grenander_fit(permuted) == lk.grenander_fit(stats)
    for m0_hat in (None, 0.7 * values.size):
        q = lk.q_values(stats, m0_hat=m0_hat)
        assert np.array_equal(lk.q_values(permuted, m0_hat=m0_hat), q[perm])
        _check_lower_set(lk.bh_threshold(stats, alpha, m0_hat=m0_hat),
                         lk.bh_threshold(permuted, alpha, m0_hat=m0_hat), values, perm)
    _check_lower_set(lk.support_line(stats, alpha), lk.support_line(permuted, alpha),
                     values, perm)
