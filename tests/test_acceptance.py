"""Acceptance gate: one test per criterion, each printing PASS/FAIL lines.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the same checks back the ``lfdrkit verify`` CLI suites.
"""

import pytest

from lfdrkit import verify as vf

SEED = vf.DEFAULT_SEED

# the repr of every CheckResult of the checks whose values a refactor must keep,
# recorded at SEED (numpy scalars show where a value comes from numpy)
PINNED = {
    1: [
        "CheckResult(name='exact-bfdr-alpha-0.1', passed=True, observed=0.08001, expected=0.08000000000000002, tolerance=0.002573873003709078, detail='N=100000')",
        "CheckResult(name='exact-bfdr-alpha-0.3', passed=True, observed=0.23965, expected=0.24, tolerance=0.004049663315972049, detail='N=100000')",
    ],
    2: [
        "CheckResult(name='superuniform-exact', passed=True, observed=0.375, expected=0.375, tolerance=1e-10, detail='')",
        "CheckResult(name='superuniform-montecarlo', passed=True, observed=0.37652, expected=0.375, tolerance=0.004596515347905785, detail='N=100000')",
        "CheckResult(name='superuniform-exceeds-uniform-null-level', passed=True, observed=0.37652, expected=0.25, tolerance=0.0, detail='must strictly exceed pi0*alpha = 1/4')",
    ],
    3: [
        "CheckResult(name='discrete-exact', passed=True, observed=0.2037037037037037, expected=0.2037037037037037, tolerance=1e-10, detail='must exceed 2*alpha/m = 1/6')",
        "CheckResult(name='discrete-montecarlo', passed=True, observed=0.20364, expected=0.2037037037037037, tolerance=0.003820407503282197, detail='N=100000')",
    ],
    4: [
        "CheckResult(name='calibration-oracle-diagonal', passed=True, observed=0.03870663650075412, expected=0.0, tolerance=0.05, detail='40 bins with >= 500 pooled scores')",
        "CheckResult(name='calibration-qvalue-anticonservative', passed=True, observed=0.024851443123938877, expected=0.0, tolerance=0.0, detail='null fraction must exceed the q-value bin in every bin <= 0.3')",
    ],
    5: [
        "CheckResult(name='grenander-vs-hull-oracle', passed=True, observed=8.881784197001252e-16, expected=0.0, tolerance=1e-10, detail='1000 instances, n <= 50')",
        "CheckResult(name='grenander-unit-mass', passed=True, observed=2.220446049250313e-16, expected=0.0, tolerance=1e-10, detail='')",
        "CheckResult(name='grenander-nonincreasing', passed=True, observed=1.0, expected=1.0, tolerance=0.0, detail='')",
    ],
    6: [
        "CheckResult(name='clfdr-sum-equals-m0', passed=True, observed=5.062616992290714e-14, expected=0.0, tolerance=1e-08, detail='500 instances, m <= 15')",
        "CheckResult(name='clfdr-vs-factorial', passed=True, observed=3.5638159090467525e-14, expected=0.0, tolerance=1e-10, detail='211 instances, m <= 7')",
        "CheckResult(name='clfdr-fast-vs-generic', passed=True, observed=1.554312234475219e-14, expected=0.0, tolerance=1e-10, detail='500 instances, m <= 15')",
    ],
    7: [
        "CheckResult(name='qvalue-bh-duality', passed=True, observed=0.0, expected=0.0, tolerance=0.0, detail='99478 hypothesis checks across 1000 instances')",
    ],
    8: [
        "CheckResult(name='mfdr-limit-strictly-decreasing', passed=True, observed=1.8727162461873448e-06, expected=0.0, tolerance=0.0, detail='deviations 1.19e-03, 4.68e-05, 1.87e-06')",
        "CheckResult(name='mfdr-limit-final-deviation', passed=True, observed=1.8727162461873448e-06, expected=0.0, tolerance=0.01, detail='eps = 0.02')",
    ],
    9: [
        "CheckResult(name='discrete-asymptotics-zero-limit', passed=True, observed=0.0, expected=0.0, tolerance=1e-12, detail='alpha=0.5, l*=0, m=5000, N=100000')",
        "CheckResult(name='discrete-asymptotics-perturbed', passed=True, observed=0.45118, expected=0.45, tolerance=0.00472077509961822, detail='perturbed grid p-values, m=5000, N=100000')",
        "CheckResult(name='discrete-asymptotics-nonzero-limit', passed=np.True_, observed=0.47316, expected=np.float64(0.4736842105263159), tolerance=0.004736601065098949, detail='alpha=0.6, l*=1, limit=0.473684')",
    ],
    10: [
        "CheckResult(name='null-pvalue-density-bound-theta-0.0', passed=True, observed=1.0, expected=1.0, tolerance=1e-09, detail='alpha* = 0.5')",
        "CheckResult(name='null-pvalue-density-bound-theta--0.5', passed=True, observed=0.8824969025845953, expected=1.0, tolerance=1e-09, detail='alpha* = 0.5')",
        "CheckResult(name='null-pvalue-density-bound-theta--2.0', passed=True, observed=0.1353352832366127, expected=1.0, tolerance=1e-09, detail='alpha* = 0.5')",
    ],
    11: [
        "CheckResult(name='determinism-identical-reruns', passed=True, observed=1.0, expected=1.0, tolerance=0.0, detail='')",
        "CheckResult(name='merge-law-exact', passed=True, observed=1.0, expected=1.0, tolerance=0.0, detail='150 + 250 replicates merge to the 400-replicate run')",
    ],
}


def _report(criterion: str, results, pinned=None):
    for res in results:
        print(f"[{criterion}] {res.line()}")
    failed = [r for r in results if not r.passed]
    assert not failed, f"{criterion}: " + "; ".join(r.line() for r in failed)
    if pinned is not None:
        assert [repr(r) for r in results] == pinned


def test_criterion_01_exact_bfdr_control():
    _report("criterion-1", vf.check_exact_bfdr_control(SEED), PINNED[1])


def test_criterion_02_superuniform_counterexample():
    _report("criterion-2", vf.check_superuniform_counterexample(SEED), PINNED[2])


def test_criterion_03_discrete_counterexample():
    _report("criterion-3", vf.check_discrete_counterexample(SEED), PINNED[3])


def test_criterion_04_calibration():
    _report("criterion-4", vf.check_calibration(SEED), PINNED[4])


def test_criterion_05_grenander_oracle_equivalence():
    _report("criterion-5", vf.check_grenander_oracle(SEED), PINNED[5])


def test_criterion_06_clfdr_identities():
    _report("criterion-6", vf.check_clfdr_identities(SEED), PINNED[6])


def test_criterion_07_qvalue_bh_duality():
    _report("criterion-7", vf.check_qvalue_bh_duality(SEED), PINNED[7])


def test_criterion_08_mfdr_pfdr_limit():
    _report("criterion-8", vf.check_mfdr_pfdr_limit(), PINNED[8])


def test_criterion_09_discrete_grid_asymptotics():
    _report("criterion-9", vf.check_discrete_grid_asymptotics(SEED), PINNED[9])


def test_criterion_10_null_pvalue_density_bound():
    _report("criterion-10", vf.check_pvalue_density_bound(), PINNED[10])


def test_criterion_11_determinism_and_merge():
    _report("criterion-11", vf.check_determinism_and_merge(SEED), PINNED[11])
