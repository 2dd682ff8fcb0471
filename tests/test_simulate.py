import json
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats as sps

import lfdrkit as lk
from lfdrkit import simulate
from lfdrkit.core import AssumptionError
from lfdrkit.simulate import (
    PRESETS,
    Bfdr,
    DiscreteUniformNulls,
    Fdr,
    GaussianMeans,
    MfdrInterval,
    PfdrInterval,
    Power,
    ProcedureConfig,
    SuperUniformCE,
    TwoGroupsBeta,
    calibration_experiment,
    generate,
    mc_error_rates,
    merge_reports,
    oracle_score_fn,
    replicate_rng,
    run_procedure,
)
from lfdrkit.procedures import perturb_grid_pvalues
from lfdrkit.simulate import _replicate_streams


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def test_generate_is_deterministic_given_seed():
    spec = GaussianMeans(m=100, m1=10, mu=2.0)
    a, _ = generate(spec, seed=5)
    b, _ = generate(spec, seed=5)
    assert np.array_equal(a.values, b.values)
    c, _ = generate(spec, seed=6)
    assert not np.array_equal(a.values, c.values)


@pytest.mark.parametrize("kind, params, field", [
    (GaussianMeans, dict(m=30.5, m1=3, mu=2.0), "m"),
    (GaussianMeans, dict(m=30, m1=2.5, mu=2.0), "m1"),
    (TwoGroupsBeta, dict(m=10.5, pi0=0.8, a=0.05, b=1.0), "m"),
    (DiscreteUniformNulls, dict(m=6.5, L=9), "m"),
    (DiscreteUniformNulls, dict(m=6, L=9.5), "L"),
    (DiscreteUniformNulls, dict(m=6, L="9"), "L"),
    (DiscreteUniformNulls, dict(m=6, L=9, alt_positions=(1.5, 2.7)), "alt_positions"),
], ids=["gaussian-m", "gaussian-m1", "beta-m", "grid-m", "grid-L", "grid-L-text", "grid-alt"])
def test_generator_specs_require_integral_counts(kind, params, field):
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        kind(**params)


def test_generator_specs_keep_integral_values():
    assert repr(GaussianMeans(m=30.0, m1=3, mu=2.0)) == repr(GaussianMeans(30, 3, 2.0))
    spec = DiscreteUniformNulls(m=np.int64(6), L=9.0, alt_positions=[1, 2.0])
    assert repr(spec) == "DiscreteUniformNulls(m=6, L=9, alt_positions=(1, 2))"


def test_gaussian_means_design():
    spec = GaussianMeans(m=3000, m1=150, mu=2.0)
    stats, truth = generate(spec, seed=1)
    assert stats.m == 3000 and stats.scale is lk.Scale.Z_VALUE
    assert truth.m0 == 2850
    assert truth.m0 / truth.m == pytest.approx(0.95)
    # the planted block really is shifted
    assert stats.values[:150].mean() > 1.5


def test_two_groups_beta_counts():
    spec = TwoGroupsBeta(m=100, pi0=0.8, a=0.05, b=1.0)
    stats, truth = generate(spec, seed=2)
    assert truth.m0 == 80
    assert stats.scale is lk.Scale.P_VALUE
    assert stats.values.min() >= 0.0 and stats.values.max() <= 1.0


def test_discrete_ce_design():
    spec, _ = PRESETS["counterexample-discrete"]
    stats, truth = generate(spec, seed=3)
    assert np.allclose(stats.values[:5], np.array([1, 1, 2, 3, 4]) / 9.0)
    assert truth.null_flags.tolist() == [False] * 5 + [True]
    assert stats.values[5] in {k / 9 for k in range(1, 10)}


def test_superuniform_ce_design():
    stats, truth = generate(SuperUniformCE(), seed=4)
    assert stats.values[1] == 0.25
    assert truth.null_flags.tolist() == [True, False]
    pooled = np.array([generate(SuperUniformCE(), rng=replicate_rng(4, r))[0].values[0]
                       for r in range(4000)])
    # mass of the three-piece null: 1/8 below 1/4, 3/8 on (1/4, 1/2]
    assert np.mean(pooled <= 0.25) == pytest.approx(0.125, abs=0.02)
    assert np.mean(pooled <= 0.5) == pytest.approx(0.5, abs=0.02)


def test_discrete_uniform_nulls_alt_positions():
    spec = DiscreteUniformNulls(m=20, L=10, alt_positions=(1, 1, 2))
    stats, truth = generate(spec, seed=5)
    assert np.allclose(stats.values[:3], [0.1, 0.1, 0.2])
    assert truth.m0 == 17
    grid = np.rint(stats.values * 10)
    assert np.allclose(stats.values * 10, grid)


def test_generate_rejects_bad_specs():
    with pytest.raises(ValueError):
        GaussianMeans(m=5, m1=9, mu=1.0)
    with pytest.raises(ValueError):
        TwoGroupsBeta(m=10, pi0=1.5, a=1.0, b=1.0)
    with pytest.raises(ValueError):
        DiscreteUniformNulls(m=5, L=10, alt_positions=(11,))


# ---------------------------------------------------------------------------
# harness
# ---------------------------------------------------------------------------

def test_mc_error_rates_argument_validation():
    spec = TwoGroupsBeta(m=10, pi0=0.5, a=0.5, b=1.0)
    proc = ProcedureConfig("support-line", 0.2)
    with pytest.raises(ValueError):
        mc_error_rates(spec, proc, 0, [Bfdr()], seed=1)
    for crit in (MfdrInterval(math.nan, 1.0), PfdrInterval(0.0, math.nan),
                 PfdrInterval(1.0, 0.0)):
        with pytest.raises(ValueError, match="needs bounds s <= t"):
            mc_error_rates(spec, proc, 5, [Fdr(), crit], seed=1)
    rep = mc_error_rates(spec, proc, 5, [MfdrInterval(0.0, math.inf),
                                         PfdrInterval(0.5, 0.5)], seed=1)
    assert "mFDR[0.0,inf]" in rep.estimates
    with pytest.raises(ValueError):
        ProcedureConfig("unknown", 0.2)
    for alpha in (float("nan"), 0.0, -0.1, 1.5, "0.1", True):
        with pytest.raises(ValueError, match="alpha"):
            ProcedureConfig("bh", alpha)


MERGE_SPEC = TwoGroupsBeta(m=40, pi0=0.7, a=0.3, b=1.0)
MERGE_PROC = ProcedureConfig("support-line", 0.25)
MERGE_CRITS = [Fdr(), Bfdr(), Power(), MfdrInterval(0.0, 0.4), PfdrInterval(0.0, 0.4)]


def _run(start, n):
    return mc_error_rates(MERGE_SPEC, MERGE_PROC, n, MERGE_CRITS, seed=3, start=start)


def _bytes(report):
    return json.dumps(report.to_jsonable(), sort_keys=True)


UNSPLIT = _bytes(_run(0, 120))


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 119), st.integers(1, 119))
def test_split_runs_merge_to_the_unsplit_bytes(a, b):
    i, j = sorted((a, b))
    assert _bytes(merge_reports(_run(0, i), _run(i, 120 - i))) == UNSPLIT
    assert _bytes(merge_reports(_run(i, 120 - i), _run(0, i))) == UNSPLIT
    if i < j:
        left, mid, right = _run(0, i), _run(i, j - i), _run(j, 120 - j)
        assert _bytes(merge_reports(merge_reports(left, mid), right)) == UNSPLIT
        assert _bytes(merge_reports(left, merge_reports(mid, right))) == UNSPLIT


def test_merge_rejects_overlapping_or_gapped_ranges():
    run = _run(0, 50)
    with pytest.raises(ValueError, match="overlap"):
        merge_reports(run, run)
    with pytest.raises(ValueError, match="overlap"):
        merge_reports(run, _run(25, 50))
    with pytest.raises(ValueError, match="gap"):
        merge_reports(run, _run(60, 10))
    merged = merge_reports(run, _run(50, 10))
    assert (merged.start, merged.n_replicates) == (0, 60)


@pytest.mark.parametrize("seed, index", [(-1, 0), (1 << 64, 0), (0, -1), (0, 1 << 64)])
def test_keys_outside_64_bits_are_rejected(seed, index):
    with pytest.raises(ValueError, match=r"2\*\*64"):
        replicate_rng(seed, index)
    with pytest.raises(ValueError, match=r"2\*\*64"):
        mc_error_rates(MERGE_SPEC, MERGE_PROC, 1, [Fdr()], seed=seed, start=index)


@pytest.mark.parametrize("seed, index", [(0, 0), ((1 << 64) - 1, (1 << 64) - 1)])
def test_keys_at_the_64_bit_endpoints_are_accepted(seed, index):
    assert replicate_rng(seed, index).random() == next(
        _replicate_streams(seed, range(index, index + 1))).random()
    assert mc_error_rates(MERGE_SPEC, MERGE_PROC, 1, [Fdr()], seed=seed,
                          start=index).n_replicates == 1


def test_rekeyed_streams_match_new_generators():
    # draws of every kind the generators use, including 32-bit buffered ones,
    # must not leak into the next replicate's stream
    def draws(rng):
        return np.concatenate([rng.beta(0.05, 1.0, 7), rng.random(5),
                               rng.integers(1, 11, size=9), [rng.integers(3)],
                               rng.normal(size=4)])

    indices = range(5, 12)
    got = [draws(rng) for rng in _replicate_streams(99, indices)]
    for index, values in zip(indices, got):
        assert np.array_equal(values, draws(replicate_rng(99, index)))


def _loop_reference(spec, proc, n_reps, crits, seed, start):
    """Outcome counts from one generator, StatVector and rule call per replicate."""
    counts = {c.name: Counter() for c in crits}
    for index in range(start, start + n_reps):
        rng = replicate_rng(seed, index)
        data, truth = generate(spec, rng=rng)
        if proc.perturb:
            data = perturb_grid_pvalues(data, spec.L, rng)
        pdata = data if data.scale is lk.Scale.P_VALUE else \
            lk.StatVector(sps.norm.sf(data.values), lk.Scale.P_VALUE)
        flags = truth.null_flags
        res = run_procedure(pdata, proc)
        r = res.n_rejections
        v = int(np.count_nonzero(flags[res.rejected]))
        for crit in crits:
            if isinstance(crit, Fdr):
                counts[crit.name][v, r] += 1
            elif isinstance(crit, Bfdr):
                # the rejected statistics equal to the boundary value; none
                # when boundary_stat is None
                ties = np.flatnonzero(pdata.values == res.boundary_stat)
                pick = ties[rng.integers(ties.size)] if ties.size > 1 else ties[:1]
                counts[crit.name][int(np.any(flags[pick])), 1] += 1
            elif isinstance(crit, Power):
                if truth.m0 < truth.m:
                    counts[crit.name][r - v, truth.m - truth.m0] += 1
            else:
                inside = (data.values >= crit.s) & (data.values <= crit.t)
                vi, ri = int(np.count_nonzero(inside & flags)), int(np.count_nonzero(inside))
                if ri or isinstance(crit, MfdrInterval):
                    counts[crit.name][vi, ri] += 1
    return counts


_SPECS = st.one_of(
    st.builds(TwoGroupsBeta, m=st.integers(1, 30), pi0=st.sampled_from([0.0, 0.5, 0.8, 1.0]),
              a=st.sampled_from([0.05, 0.3, 1.0]), b=st.just(1.0)),
    st.tuples(st.integers(1, 30), st.integers(1, 6)).flatmap(lambda mL: st.builds(
        DiscreteUniformNulls, m=st.just(mL[0]), L=st.just(mL[1]),
        alt_positions=st.lists(st.integers(1, mL[1]), max_size=mL[0]).map(tuple))),
    st.builds(GaussianMeans, m=st.integers(1, 30), m1=st.just(0), mu=st.just(2.0)),
    st.just(SuperUniformCE()),
    st.just(PRESETS["counterexample-discrete"][0]),
)


@settings(max_examples=60, deadline=None)
@given(_SPECS, st.sampled_from(["support-line", "bh", "storey-bh"]),
       st.sampled_from([0.1, 0.5, 1.0]), st.booleans(), st.integers(1, 40),
       st.integers(0, (1 << 64) - 1), st.integers(0, 1000))
def test_block_counts_match_the_per_replicate_loop(spec, kind, alpha, perturb, n_reps,
                                                   seed, start):
    perturb = perturb and isinstance(spec, DiscreteUniformNulls)
    proc = ProcedureConfig(kind, alpha, perturb=perturb)
    crits = [Fdr(), Bfdr(), Power(), MfdrInterval(0.0, 0.3), PfdrInterval(0.0, 0.3)]
    report = mc_error_rates(spec, proc, n_reps, crits, seed, start=start)
    assert report.counts == _loop_reference(spec, proc, n_reps, crits, seed, start)


@settings(max_examples=40, deadline=None)
@given(_SPECS, st.sampled_from(["support-line", "bh", "storey-bh"]),
       st.sampled_from([0.1, 0.5, 1.0]), st.booleans(), st.integers(2, 6),
       st.integers(2, 8), st.integers(2, 5), st.integers(1, 7),
       st.integers(0, (1 << 64) - 1), st.integers(0, 1000))
@example(PRESETS["counterexample-discrete"][0], "support-line", 0.5, False, 3, 4, 4, 2,
         7, 0)
@example(DiscreteUniformNulls(m=7, L=3, alt_positions=(1, 2, 2)), "support-line", 0.5,
         True, 4, 5, 3, 3, 11, 5)
def test_block_counts_match_the_per_replicate_loop_across_blocks(
        spec, kind, alpha, perturb, block_rows, rows_by_values, n_blocks, last, seed, start):
    # shrink the block so a run spans n_blocks blocks and the last is short
    m = spec.null_flags.size
    rows = min(block_rows, rows_by_values)
    n_reps = rows * (n_blocks - 1) + min(last, rows - 1)
    perturb = perturb and isinstance(spec, DiscreteUniformNulls)
    proc = ProcedureConfig(kind, alpha, perturb=perturb)
    crits = [Fdr(), Bfdr(), Power(), MfdrInterval(0.0, 0.3), PfdrInterval(0.0, 0.3)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulate, "_BLOCK_ROWS", block_rows)
        mp.setattr(simulate, "_BLOCK_VALUES", rows_by_values * m + m - 1)
        report = mc_error_rates(spec, proc, n_reps, crits, seed, start=start)
    assert report.counts == _loop_reference(spec, proc, n_reps, crits, seed, start)


@dataclass(frozen=True)
class QuarterRounded:
    """Beta(0.3, 1) alternatives then uniform nulls, each rounded up to a
    quarter: a spec the harness does not know as a grid, so it replays the
    draws of a row that ties, and one whose rows tie at most boundaries."""

    m: int
    m1: int
    scale = lk.Scale.P_VALUE

    @property
    def null_flags(self):
        return ~(np.arange(self.m) < self.m1)

    def draw(self, rng, row):
        row[:self.m1] = rng.beta(0.3, 1.0, self.m1)
        rng.random(out=row[self.m1:])
        np.ceil(row * 4.0, out=row)
        row /= 4.0


def _count_replays(mp):
    """Calls to the harness's replay helper, counted in a list."""
    calls = []

    def counted(*args):
        calls.append(args)
        return replay(*args)

    replay = simulate._replayed_stream
    mp.setattr(simulate, "_replayed_stream", counted)
    return calls


def _state_bytes(rng):
    return json.dumps(rng.bit_generator.state, default=np.ndarray.tolist)


@pytest.mark.parametrize("spec, perturb", [
    *((spec, False) for spec, _ in PRESETS.values()),
    (DiscreteUniformNulls(m=7, L=3, alt_positions=(1, 2, 2)), True),
    (QuarterRounded(m=9, m1=3), False),
], ids=[*PRESETS, "grid-perturbed", "quarter-rounded"])
def test_replayed_stream_reaches_the_state_the_row_draws_left(spec, perturb):
    proc = ProcedureConfig("support-line", 0.5, perturb=perturb)
    for index in (0, 7, (1 << 64) - 1):
        rng = replicate_rng(5, index)
        generate(spec, rng=rng)
        if perturb:
            rng.random(spec.m)
        assert _state_bytes(simulate._replayed_stream(spec, proc, 5, index)) == \
            _state_bytes(rng)


@pytest.mark.parametrize("kind", ["support-line", "bh", "storey-bh"])
@pytest.mark.parametrize("block_rows", [None, 3], ids=["one-block", "blocks-of-3"])
def test_replayed_tie_picks_match_the_per_replicate_loop(kind, block_rows):
    spec, proc = QuarterRounded(m=9, m1=3), ProcedureConfig(kind, 0.5)
    crits = [Fdr(), Bfdr(), Power()]
    with pytest.MonkeyPatch.context() as mp:
        if block_rows:
            mp.setattr(simulate, "_BLOCK_ROWS", block_rows)
        replays = _count_replays(mp)
        report = mc_error_rates(spec, proc, 40, crits, seed=17, start=3)
    assert report.counts == _loop_reference(spec, proc, 40, crits, 17, 3)
    assert replays  # the rows did tie, and took the replay path


def test_continuous_and_grid_runs_make_no_replays():
    bfdr = [Fdr(), Bfdr(), Power()]
    with pytest.MonkeyPatch.context() as mp:
        replays = _count_replays(mp)
        spec, alpha = PRESETS["theorem-5.1"]
        mc_error_rates(spec, ProcedureConfig("support-line", alpha), 2000, bfdr, seed=1)
        assert replays == []
        # a grid design ties at most boundaries, so it saves its states instead
        spec, alpha = PRESETS["counterexample-discrete"]
        mc_error_rates(spec, ProcedureConfig("support-line", alpha), 2000, bfdr, seed=1)
        assert replays == []


def test_merge_requires_matching_config():
    spec = TwoGroupsBeta(m=10, pi0=0.5, a=0.5, b=1.0)
    proc = ProcedureConfig("support-line", 0.2)
    a = mc_error_rates(spec, proc, 10, [Bfdr()], seed=1)
    b = mc_error_rates(spec, proc, 10, [Bfdr()], seed=2)
    with pytest.raises(ValueError):
        merge_reports(a, b)


def test_full_interval_mfdr_is_exactly_pi0():
    spec = TwoGroupsBeta(m=50, pi0=0.8, a=0.3, b=1.0)
    proc = ProcedureConfig("support-line", 0.2)
    rep = mc_error_rates(spec, proc, 200, [MfdrInterval(0.0, 1.0)], seed=11)
    assert rep.estimates["mFDR[0.0,1.0]"]["mean"] == pytest.approx(0.8, abs=1e-12)


def test_pfdr_absent_when_never_rejecting():
    # interval that never contains any p-value cannot condition on R > 0
    spec = DiscreteUniformNulls(m=4, L=2, alt_positions=())
    proc = ProcedureConfig("support-line", 0.2)
    rep = mc_error_rates(spec, proc, 50, [PfdrInterval(0.1, 0.2)], seed=1)
    assert "pFDR[0.1,0.2]" not in rep.estimates


def test_storey_bh_procedure_runs():
    spec = TwoGroupsBeta(m=60, pi0=0.6, a=0.1, b=1.0)
    rep = mc_error_rates(spec, ProcedureConfig("storey-bh", 0.1), 200,
                         [Fdr(), Power()], seed=21)
    assert 0.0 <= rep.estimates["FDR"]["mean"] <= 0.2
    assert rep.estimates["power"]["mean"] > 0.3


def test_bh_controls_fdr_at_level():
    spec = TwoGroupsBeta(m=80, pi0=0.75, a=0.1, b=1.0)
    rep = mc_error_rates(spec, ProcedureConfig("bh", 0.1), 4000, [Fdr()], seed=22)
    est = rep.estimates["FDR"]
    assert est["mean"] <= 0.1 * 0.75 + 3 * est["std_error"]


# ---------------------------------------------------------------------------
# calibration pooling
# ---------------------------------------------------------------------------

def test_calibration_all_null_oracle_is_single_top_bin():
    spec = GaussianMeans(m=50, m1=0, mu=2.0)
    curve = calibration_experiment(spec, "oracle-lfdr", 20, 0.025, seed=1)
    assert curve.bin_counts[-1] == 50 * 20
    assert curve.bin_counts[:-1].sum() == 0
    assert curve.bin_null_fraction[-1] == pytest.approx(1.0)


def test_calibration_pvalue_scorer_anticalibrated_direction():
    spec = GaussianMeans(m=3000, m1=150, mu=2.0)
    curve = calibration_experiment(spec, "p-value", 50, 0.025, seed=2)
    mids = 0.5 * (curve.bin_edges[:-1] + curve.bin_edges[1:])
    low = (mids <= 0.1) & (curve.bin_counts >= 200)
    assert np.all(curve.bin_null_fraction[low] > mids[low] + 0.2)


def test_calibration_estimated_lfdr_close_to_diagonal():
    spec = GaussianMeans(m=3000, m1=150, mu=2.0)
    curve = calibration_experiment(spec, "estimated-lfdr", 120, 0.05, seed=3)
    mids = 0.5 * (curve.bin_edges[:-1] + curve.bin_edges[1:])
    use = (curve.bin_counts >= 500) & (mids >= 0.1) & (mids <= 0.9)
    assert use.any()
    assert np.abs(curve.bin_null_fraction[use] - mids[use]).max() < 0.12


def test_gaussian_oracle_equals_the_closed_form_bitwise():
    spec, _ = PRESETS["fig2-gaussian"]
    pi0 = (spec.m - spec.m1) / spec.m
    z = np.concatenate([generate(spec, seed=5)[0].values, [-8.0, -0.0, 0.0, 1.0, 12.0]])
    want = pi0 * sps.norm.pdf(z) / (
        pi0 * sps.norm.pdf(z) + (1 - pi0) * sps.norm.pdf(z - spec.mu))
    got = oracle_score_fn(spec)(z)
    assert np.array_equal(got, want)
    assert oracle_score_fn(spec)(float(z[0])) == want[0]

    # the beta design: a uniform null, so the score is pi0 / fbar
    spec, _ = PRESETS["theorem-5.1"]
    pi0 = spec.m0 / spec.m
    p = np.concatenate([generate(spec, seed=5)[0].values, [1e-300, 0.5, 1.0]])
    want = np.minimum(
        pi0 / (pi0 + (1 - pi0) * np.exp(sps.beta.logpdf(p, spec.a, spec.b))), 1.0)
    got = oracle_score_fn(spec)(p)
    assert np.array_equal(got, want)
    assert oracle_score_fn(spec)(float(p[0])) == want[0]


@pytest.mark.parametrize("spec, scorers", [
    (GaussianMeans(m=40, m1=6, mu=2.0), simulate.SCORERS),
    (PRESETS["theorem-5.1"][0], simulate.SCORERS),
    (PRESETS["counterexample-superuniform"][0], ("p-value",)),
], ids=["gaussian", "theorem-5.1", "superuniform"])
def test_calibration_does_not_depend_on_the_block_size(spec, scorers):
    # 11 replicates in blocks of 4 rows: three blocks, the last one short;
    # one-row blocks are the per-replicate loop
    m = spec.null_flags.size
    for scorer in scorers:
        curves = []
        for rows in (1, 4):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(simulate, "_BLOCK_ROWS", rows)
                mp.setattr(simulate, "_BLOCK_VALUES", rows * m + m - 1)
                curves.append(calibration_experiment(spec, scorer, 11, 0.05, seed=3))
        one, blocked = curves
        assert np.array_equal(blocked.bin_counts, one.bin_counts)
        assert blocked.bin_null_fraction.tobytes() == one.bin_null_fraction.tobytes()
    if "oracle-lfdr" in scorers:
        oracle = oracle_score_fn(spec)
        block = np.stack([generate(spec, seed=s)[0].values for s in range(5)])
        assert oracle(block).tobytes() == np.stack([oracle(row) for row in block]).tobytes()


def test_calibration_argument_validation():
    spec = GaussianMeans(m=10, m1=1, mu=1.0)
    with pytest.raises(ValueError):
        calibration_experiment(spec, "oracle-lfdr", 0, 0.1, seed=1)
    with pytest.raises(ValueError):
        calibration_experiment(spec, "oracle-lfdr", 5, 0.3, seed=1)
    with pytest.raises(ValueError):
        calibration_experiment(spec, "nope", 5, 0.1, seed=1)
    with pytest.raises(AssumptionError):
        oracle_score_fn(SuperUniformCE())


# ---------------------------------------------------------------------------
# discrete grid checks
# ---------------------------------------------------------------------------

def test_discrete_exceedance_at_matched_growth():
    # grid length tied to m: the boundary rate overshoots pi0 * alpha
    m = 50
    spec = DiscreteUniformNulls(m=m, L=90, alt_positions=tuple(range(1, 6)))
    rep = mc_error_rates(spec, ProcedureConfig("support-line", 0.5), 10_000,
                         [Bfdr()], seed=14)
    est = rep.estimates["bFDR"]
    assert est["mean"] - 3 * est["std_error"] > 0.9 * 0.5


def test_discrete_long_grid_restores_control():
    # L >> m^2: boundary rate returns below pi0 * alpha + O(m^2 / L)
    m, L = 6, 10_000
    spec = DiscreteUniformNulls(m=m, L=L,
                                alt_positions=tuple(int(L * k / 9) for k in (1, 1, 2, 3, 4)))
    rep = mc_error_rates(spec, ProcedureConfig("support-line", 0.5), 30_000,
                         [Bfdr()], seed=15)
    est = rep.estimates["bFDR"]
    pi0_alpha = (1 / 6) * 0.5
    assert est["mean"] <= pi0_alpha + 3 * est["std_error"] + 36.0 / L


def test_perturbation_restores_exact_boundary_rate():
    spec = DiscreteUniformNulls(m=60, L=9, alt_positions=(1, 1, 2, 3, 4, 1))
    proc = ProcedureConfig("support-line", 0.4, perturb=True)
    rep = mc_error_rates(spec, proc, 30_000, [Bfdr()], seed=16)
    est = rep.estimates["bFDR"]
    want = (54 / 60) * 0.4
    assert est["mean"] == pytest.approx(want, abs=3 * est["std_error"])


def test_perturbation_refuses_a_grid_that_is_not_the_designs():
    # a design without a grid has none to perturb on
    proc = ProcedureConfig("support-line", 0.5, perturb=True)
    with pytest.raises(ValueError, match="needs a grid generator, not TwoGroupsBeta"):
        mc_error_rates(TwoGroupsBeta(m=10, pi0=0.5, a=0.5, b=1.0), proc, 10, [Bfdr()], seed=3)


# ---------------------------------------------------------------------------
# conditional-probability and calibration limits
# ---------------------------------------------------------------------------

def test_window_occupancy_null_fraction_matches_score():
    # among windows holding exactly one statistic, the null share matches
    # the pointwise score at the window center
    reps, m, m1 = 50_000, 40, 2
    t, eps = 2.0, 0.02
    rng = np.random.default_rng(77)
    z = rng.normal(size=(reps, m))
    z[:, :m1] += 2.0
    inside = np.abs(z - t) <= eps
    single = inside.sum(axis=1) == 1
    hit_col = inside[single].argmax(axis=1)
    nulls = (hit_col >= m1).mean()
    pi0 = (m - m1) / m
    want = pi0 * sps.norm.pdf(t) / (pi0 * sps.norm.pdf(t)
                                    + (1 - pi0) * sps.norm.pdf(t - 2.0))
    se = math.sqrt(want * (1 - want) / single.sum())
    assert abs(nulls - want) <= 3 * se + 0.01


def test_fdp_over_score_windows_single_large_replicate():
    m, m1 = 100_000, 5000
    rng = replicate_rng(3, 0)
    z = rng.normal(0.0, 1.0, m)
    z[:m1] += 2.0
    isnull = np.arange(m) >= m1
    pi0 = (m - m1) / m
    scores = pi0 * sps.norm.pdf(z) / (
        pi0 * sps.norm.pdf(z) + (1 - pi0) * sps.norm.pdf(z - 2.0))
    eps = m ** -0.25
    for a in (0.2, 0.5, 0.8):
        sel = (scores >= a) & (scores <= a + eps)
        assert sel.any()
        assert abs(isnull[sel].mean() - a) <= 0.05


def test_boundary_score_concentrates_with_m():
    pi0, a, alpha = 0.8, 0.3, 0.3
    spec_curve = oracle_score_fn(TwoGroupsBeta(m=10, pi0=pi0, a=a, b=1.0))
    medians = []
    for m in (1000, 10_000, 100_000):
        m0 = int(round(pi0 * m))
        devs = []
        for r in range(100):
            rng = replicate_rng(99, r)
            p = np.concatenate([rng.beta(a, 1.0, m - m0), rng.random(m0)])
            res = lk.support_line(lk.StatVector(p, lk.Scale.P_VALUE), alpha)
            if res.n_rejections:
                devs.append(abs(float(spec_curve(res.boundary_stat)) - pi0 * alpha))
        medians.append(float(np.median(devs)))
    assert medians[0] > medians[1] > medians[2]
