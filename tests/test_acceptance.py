"""Acceptance gate: one test per criterion, each printing PASS/FAIL lines.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the same checks back the ``lfdrkit verify`` CLI suites.
"""

import pytest

from lfdrkit import verify as vf

SEED = vf.DEFAULT_SEED


def _report(criterion: str, results):
    for res in results:
        print(f"[{criterion}] {res.line()}")
    failed = [r for r in results if not r.passed]
    assert not failed, f"{criterion}: " + "; ".join(r.line() for r in failed)


def test_criterion_01_exact_bfdr_control():
    _report("criterion-1", vf.check_exact_bfdr_control(SEED))


def test_criterion_02_superuniform_counterexample():
    _report("criterion-2", vf.check_superuniform_counterexample(SEED))


def test_criterion_03_discrete_counterexample():
    _report("criterion-3", vf.check_discrete_counterexample(SEED))


def test_criterion_04_calibration():
    _report("criterion-4", vf.check_calibration(SEED))


def test_criterion_05_grenander_oracle_equivalence():
    _report("criterion-5", vf.check_grenander_oracle(SEED))


def test_criterion_06_clfdr_identities():
    _report("criterion-6", vf.check_clfdr_identities(SEED))


def test_criterion_07_qvalue_bh_duality():
    _report("criterion-7", vf.check_qvalue_bh_duality(SEED))


def test_criterion_08_mfdr_pfdr_limit():
    _report("criterion-8", vf.check_mfdr_pfdr_limit())


def test_criterion_09_discrete_grid_asymptotics():
    _report("criterion-9", vf.check_discrete_grid_asymptotics(SEED))


def test_criterion_10_null_pvalue_density_bound():
    _report("criterion-10", vf.check_pvalue_density_bound())


def test_criterion_11_determinism_and_merge():
    _report("criterion-11", vf.check_determinism_and_merge(SEED))
