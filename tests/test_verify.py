import pytest
from scipy import stats as sps

from lfdrkit import verify as vf
from lfdrkit.core import AssumptionError
from lfdrkit.simulate import (
    Bfdr,
    GaussianMeans,
    PfdrInterval,
    ProcedureConfig,
    mc_error_rates,
)


# ---------------------------------------------------------------------------
# criterion 8: interval limit
# ---------------------------------------------------------------------------

def test_mfdr_limit_matches_quadrature_and_pfdr_converges():
    # the design of criterion 8: pi0 = 0.95, N(0, 1) nulls, N(2, 1) alternatives
    pi0 = 0.95
    target = pi0 * sps.norm.pdf(0.0) / (pi0 * sps.norm.pdf(0.0)
                                        + (1 - pi0) * sps.norm.pdf(-2.0))
    mfdr = {}
    for eps in (0.5, 0.1, 0.02):
        mass0 = pi0 * (sps.norm.cdf(eps) - sps.norm.cdf(-eps))
        mass1 = (1 - pi0) * (sps.norm.cdf(eps - 2.0) - sps.norm.cdf(-eps - 2.0))
        mfdr[eps] = mass0 / (mass0 + mass1)
    devs = [abs(mfdr[eps] - target) for eps in (0.5, 0.1, 0.02)]
    assert devs[0] > devs[1] > devs[2]
    assert devs[2] < 0.01
    decreasing, final = vf.check_mfdr_pfdr_limit()
    assert final.observed == pytest.approx(devs[2], rel=1e-6)
    assert decreasing.detail == "deviations " + ", ".join(f"{d:.2e}" for d in devs)
    # the conditional rate over the same interval, from the harness
    report = mc_error_rates(GaussianMeans(m=400, m1=20, mu=2.0),
                            ProcedureConfig("support-line", 0.1), 400,
                            [PfdrInterval(-0.5, 0.5)], seed=9)
    pfdr = report.estimates["pFDR[-0.5,0.5]"]["mean"]
    assert pfdr == pytest.approx(mfdr[0.5], abs=0.05)


# ---------------------------------------------------------------------------
# criterion 9: grid designs
# ---------------------------------------------------------------------------

def test_grid_design_maximizer_and_uniqueness():
    L = 10
    f_uniform = [1.0 / L] * L
    _, l_star, limit = vf._grid_design(L, 0.5, f_uniform, 0.8, 100)
    assert (l_star, limit) == (0, 0.0)   # alpha * f = 0.05 < 1/L everywhere

    f_spiky = [0.28] + [0.08] * 9
    _, l_star, _ = vf._grid_design(L, 0.5, f_spiky, 0.8, 100)
    assert l_star == 1

    with pytest.raises(AssumptionError):
        # alpha = 1, uniform pmf: objective is identically zero
        vf._grid_design(L, 1.0, f_uniform, 0.8, 100)


def test_grid_design_parks_the_alternatives_on_the_cells_above_the_null_level():
    L, pi0 = 10, 0.9
    f_top = [pi0 / L] * (L - 1) + [pi0 / L + (1 - pi0)]
    spec, _, _ = vf._grid_design(L, 0.5, f_top, pi0, 5000)
    assert spec.alt_positions == (L,) * 500
    # 0.051 is a rounding error below 0.51 / 10, so the other cells' pmf is -1e-17
    spec, _, _ = vf._grid_design(L, 0.5, [0.051] * 9 + [0.541], 0.51, 1000)
    assert spec.alt_positions == (L,) * 490


def test_grid_design_nonzero_branch():
    L, pi0 = 10, 0.8
    f = [0.28] + [0.08] * 9
    spec, l_star, limit = vf._grid_design(L, 0.5, f, pi0, 4000)
    assert spec.m == 4000 and len(spec.alt_positions) == 800
    assert l_star == 1
    assert limit == pytest.approx(0.8 / (10 * 0.28))
    est = mc_error_rates(spec, ProcedureConfig("support-line", 0.5), 4000, [Bfdr()],
                         seed=13).estimates["bFDR"]
    assert est["mean"] == pytest.approx(limit, abs=3.5 * est["std_error"] + 0.01)


# ---------------------------------------------------------------------------
# criterion 10: null p-value density bound
# ---------------------------------------------------------------------------

def test_null_density_identity_at_theta0():
    res = vf.check_pvalue_density_bound()[0]
    assert res.name == "null-pvalue-density-bound-theta-0.0"
    assert res.observed == pytest.approx(1.0)
    assert res.detail == "alpha* = 0.5"


def test_null_density_peak_matches_the_normal_density_ratio():
    # the density of p = 1 - Phi(Z), Z ~ N(theta, 1), increases on [0, 1/2]
    # to phi(q - theta) / phi(q) = exp(-theta^2 / 2) at t = 1/2, where q = 0
    q = sps.norm.isf(0.5)
    for theta, res in zip((0.0, -0.5, -2.0), vf.check_pvalue_density_bound()):
        assert res.name == f"null-pvalue-density-bound-theta-{theta}"
        want = sps.norm.pdf(q - theta) / sps.norm.pdf(q)
        assert res.observed == pytest.approx(want, rel=1e-9)
        assert res.passed

