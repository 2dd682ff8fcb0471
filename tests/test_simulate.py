import json
import math
import os
import signal
import threading
from collections import Counter
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats as sps

import lfdrkit as lk
from lfdrkit import core, simulate
from lfdrkit.core import AssumptionError, FitError
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
    (GaussianMeans, dict(m=True, m1=0, mu=2.0), "m"),
], ids=["gaussian-m", "gaussian-m1", "beta-m", "grid-m", "grid-L", "grid-L-text", "grid-alt",
        "gaussian-m-bool"])
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
    # a run without criteria would draw every row and report nothing
    with pytest.raises(ValueError, match="at least one criterion"):
        mc_error_rates(spec, proc, 5, [], seed=1)
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


@pytest.mark.parametrize("seed, index, field", [
    (7.5, 0, "seed"), (7.9, 0, "seed"), (True, 0, "seed"), ("7", 0, "seed"),
    (7, 2.5, "replicate index"), (7, math.nan, "replicate index"),
], ids=["seed-7.5", "seed-7.9", "seed-bool", "seed-text", "index-2.5", "index-nan"])
def test_keys_must_be_integers(seed, index, field):
    # a fractional key would be truncated to another replicate's stream
    with pytest.raises(ValueError, match=f"^{field} must be an integer, got"):
        replicate_rng(seed, index)
    with pytest.raises(ValueError, match=f"^{field} must be an integer, got"):
        mc_error_rates(MERGE_SPEC, MERGE_PROC, 3, [Fdr()], seed=seed, start=index)
    if index == 0:
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got"):
            calibration_experiment(GaussianMeans(m=10, m1=1, mu=1.0), "p-value", 3, 0.1, seed)


def test_integral_float_keys_and_counts_are_the_integers():
    assert replicate_rng(7.0, 3.0).random() == replicate_rng(7, 3).random()
    assert _bytes(mc_error_rates(MERGE_SPEC, MERGE_PROC, 20.0, MERGE_CRITS, seed=3.0)) == \
        _bytes(_run(0, 20))


def test_an_integral_float_start_is_the_integer():
    report = mc_error_rates(MERGE_SPEC, MERGE_PROC, 3, [Fdr()], seed=1, start=3.0)
    expected = mc_error_rates(MERGE_SPEC, MERGE_PROC, 3, [Fdr()], seed=1, start=3)
    assert type(report.start) is int and report.start == 3
    assert report.counts == expected.counts
    with pytest.raises(ValueError, match="^replicate index must be an integer, got 2.5"):
        mc_error_rates(MERGE_SPEC, MERGE_PROC, 3, [Fdr()], seed=1, start=2.5)


@pytest.mark.parametrize("n", [2.5, True, "3", 0, -1])
def test_replicate_counts_must_be_positive_integers(n):
    with pytest.raises(ValueError, match="^the replicate count must be"):
        mc_error_rates(MERGE_SPEC, MERGE_PROC, n, [Fdr()], seed=1)
    with pytest.raises(ValueError, match="^the replicate count must be"):
        calibration_experiment(GaussianMeans(m=10, m1=1, mu=1.0), "p-value", n, 0.1, seed=1)


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


def _loop_reference(spec, proc, n_reps, crits, seed, start, picks=None):
    """Outcome counts from one generator, StatVector and rule call per replicate;
    each replicate's bFDR outcome is appended to ``picks`` if it is a list."""
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
                null = int(np.any(flags[pick]))
                counts[crit.name][null, 1] += 1
                if picks is not None:
                    picks.append(null)
            elif isinstance(crit, Power):
                if truth.m0 < truth.m:
                    counts[crit.name][r - v, truth.m - truth.m0] += 1
            else:
                inside = (data.values >= crit.s) & (data.values <= crit.t)
                vi, ri = int(np.count_nonzero(inside & flags)), int(np.count_nonzero(inside))
                if ri or isinstance(crit, MfdrInterval):
                    counts[crit.name][vi, ri] += 1
    return counts


def _grid_specs(max_L):
    return st.tuples(st.integers(1, 30), st.integers(1, max_L)).flatmap(lambda mL: st.builds(
        DiscreteUniformNulls, m=st.just(mL[0]), L=st.just(mL[1]),
        alt_positions=st.lists(st.integers(1, mL[1]), max_size=mL[0]).map(tuple)))


_SPECS = st.one_of(
    st.builds(TwoGroupsBeta, m=st.integers(1, 30), pi0=st.sampled_from([0.0, 0.5, 0.8, 1.0]),
              a=st.sampled_from([0.05, 0.3, 1.0]), b=st.just(1.0)),
    _grid_specs(6),
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
# every row ties, as in criterion 9's nonzero-limit design: the alternatives
# share cell 1, where the support line stops in nearly every row, so most rows
# of each of the 4 blocks replay their draws
@example(DiscreteUniformNulls(m=40, L=10, alt_positions=(1,) * 10), "support-line", 0.6,
         False, 4, 4, 4, 3, 20240915, 0)
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
    quarter: a spec that is not a grid design but whose rows tie at most
    boundaries, where the tie-pick replays the row's draws."""

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


@dataclass(frozen=True)
class AboveOne:
    """Uniform draws shifted above 1: p-values that no harness path may keep."""

    m: int
    scale = lk.Scale.P_VALUE

    @property
    def null_flags(self):
        return np.ones(self.m, dtype=bool)

    def draw(self, rng, row):
        row[:] = rng.random(self.m) + 1.0


@pytest.mark.parametrize("run", [
    lambda spec: generate(spec, seed=1),
    lambda spec: mc_error_rates(spec, ProcedureConfig("bh", 0.1), 5, [Fdr(), Bfdr()], seed=1),
    lambda spec: calibration_experiment(spec, "p-value", 5, 0.1, seed=1),
], ids=["generate", "mc-error-rates", "calibration"])
def test_drawn_values_off_the_scale_are_refused(run):
    with pytest.raises(ValueError, match=r"p-values must lie in \[0, 1\]"):
        run(AboveOne(m=3))


def _count_replays(mp):
    """The replicate indices the harness replays, in a list.  The run stays in
    this process, since a forked child's replays would not reach the list."""
    mp.setattr(core, "_cores", lambda: 1)
    replayed = []

    def counted(spec, procedure, seed, indices):
        replayed.extend(indices)
        return replay(spec, procedure, seed, indices)

    replay = simulate._replayed_streams
    mp.setattr(simulate, "_replayed_streams", counted)
    return replayed


def _record_picks(mp):
    """Each replicate's bFDR outcome (1 for a null at the boundary), in a list,
    in replicate order when the run stays in this process."""
    picks = []

    def recorded(*args):
        out = pick(*args)
        picks.extend(out.tolist())
        return out

    pick = simulate._boundary_nulls
    mp.setattr(simulate, "_boundary_nulls", recorded)
    return picks


def _state_bytes(rng):
    return json.dumps(rng.bit_generator.state, default=np.ndarray.tolist)


@pytest.mark.parametrize("spec, perturb", [
    *((spec, False) for spec, _ in PRESETS.values()),
    (DiscreteUniformNulls(m=7, L=3, alt_positions=(1, 2, 2)), True),
    (QuarterRounded(m=9, m1=3), False),
], ids=[*PRESETS, "grid-perturbed", "quarter-rounded"])
def test_replayed_stream_reaches_the_state_the_row_draws_left(spec, perturb):
    proc = ProcedureConfig("support-line", 0.5, perturb=perturb)
    indices = (0, 7, (1 << 64) - 1)
    left = []
    for index in indices:
        rng = replicate_rng(5, index)
        generate(spec, rng=rng)
        if perturb:
            rng.random(spec.m)
        left.append(_state_bytes(rng))
        assert [_state_bytes(replayed) for replayed in
                simulate._replayed_streams(spec, proc, 5, [index])] == left[-1:]
    # one pass over them all pairs each index with its own re-keyed stream
    assert [_state_bytes(replayed) for replayed in
            simulate._replayed_streams(spec, proc, 5, indices)] == left


@pytest.mark.parametrize("kind", ["support-line", "bh", "storey-bh"])
@pytest.mark.parametrize("block_rows", [None, 3], ids=["one-block", "blocks-of-3"])
def test_replayed_tie_picks_match_the_per_replicate_loop(kind, block_rows):
    spec, proc = QuarterRounded(m=9, m1=3), ProcedureConfig(kind, 0.5)
    crits = [Fdr(), Bfdr(), Power()]
    with pytest.MonkeyPatch.context() as mp:
        if block_rows:
            mp.setattr(simulate, "_BLOCK_ROWS", block_rows)
        replays = _count_replays(mp)
        picks = _record_picks(mp)
        report = mc_error_rates(spec, proc, 120, crits, seed=17, start=3)
    want = []
    assert report.counts == _loop_reference(spec, proc, 120, crits, 17, 3, picks=want)
    # replicate by replicate, so a tied row paired with another row's replayed
    # stream fails even where the totals happen to agree
    assert picks == want
    assert replays  # the rows did tie, and took the replay path


def test_continuous_and_grid_runs_make_no_replays():
    bfdr = [Fdr(), Bfdr(), Power()]
    with pytest.MonkeyPatch.context() as mp:
        replays = _count_replays(mp)
        spec, alpha = PRESETS["theorem-5.1"]
        mc_error_rates(spec, ProcedureConfig("support-line", alpha), 2000, bfdr, seed=1)
        assert replays == []
        # a perturbed grid design draws continuous p-values, so it never ties
        spec, alpha = PRESETS["counterexample-discrete"]
        mc_error_rates(spec, ProcedureConfig("support-line", alpha, perturb=True), 2000, bfdr,
                       seed=1)
        assert replays == []


# ---------------------------------------------------------------------------
# runs split over processes
# ---------------------------------------------------------------------------

def _with_cores(cores, run, block_rows=3):
    """``run()`` with the harness on ``cores`` processes and blocks of
    ``block_rows`` rows, so small runs span several blocks."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_cores", lambda: cores)
        mp.setattr(simulate, "_BLOCK_ROWS", block_rows)
        return run()


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("cores", [1, 2, 3, 7])
def test_split_blocks_cuts_whole_blocks_one_range_per_core(cores, monkeypatch):
    monkeypatch.setattr(core, "_cores", lambda: cores)
    # 14 replicates from 5 in blocks of 3: 5 blocks, the last of 2 rows
    parts = core._split_blocks(5, 14, 3)
    assert len(parts) == min(cores, 5)
    assert [i for part in parts for i in part] == list(range(5, 19))
    assert all(part.start % 3 == 5 % 3 for part in parts)
    assert core._split_blocks(5, 0, 3) == [range(5, 5)]


def test_a_run_with_another_thread_running_stays_in_one_process():
    assert core._cores() == len(os.sched_getaffinity(0))
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert core._cores() == 1
    finally:
        release.set()
        thread.join(timeout=60)
    assert not thread.is_alive()


_ALL_CRITERIA = [Fdr(), Bfdr(), Power(), MfdrInterval(0.0, 0.3), PfdrInterval(0.0, 0.3)]


@pytest.mark.parametrize("spec, kind, alpha, perturb", [
    *((spec, "support-line", alpha, False) for spec, alpha in PRESETS.values()),
    (DiscreteUniformNulls(m=7, L=3, alt_positions=(1, 2, 2)), "support-line", 0.5, True),
    # unperturbed grid with bFDR: rows tie at most boundaries, and replay
    (DiscreteUniformNulls(m=20, L=4, alt_positions=(1, 1, 2)), "bh", 0.5, False),
    # ties on a spec that is not a grid design, which replay the same way
    (QuarterRounded(m=9, m1=3), "storey-bh", 0.5, False),
], ids=[*PRESETS, "grid-perturbed", "grid-saved-states", "quarter-rounded"])
def test_report_bytes_do_not_depend_on_the_process_count(spec, kind, alpha, perturb):
    proc = ProcedureConfig(kind, alpha, perturb=perturb)
    # 14 replicates from 5 in blocks of 3: the last block is short
    reports = [_with_cores(cores, lambda: mc_error_rates(spec, proc, 14, _ALL_CRITERIA,
                                                         seed=29, start=5))
               for cores in (1, 2, 3)]
    one = reports[0]
    for report in reports[1:]:
        assert json.dumps(report.to_jsonable()) == json.dumps(one.to_jsonable())
        assert report.counts == one.counts
    _assert_no_child_left()


@pytest.mark.parametrize("scorer", simulate.SCORERS)
def test_calibration_bins_do_not_depend_on_the_process_count(scorer):
    spec = GaussianMeans(m=40, m1=6, mu=2.0)
    curves = [_with_cores(cores, lambda: calibration_experiment(spec, scorer, 11, 0.05, seed=3),
                          block_rows=2)
              for cores in (1, 2, 3)]
    for curve in curves[1:]:
        assert np.array_equal(curve.bin_counts, curves[0].bin_counts)
        assert curve.bin_null_fraction.tobytes() == curves[0].bin_null_fraction.tobytes()
    _assert_no_child_left()


class _TwoArgumentError(Exception):
    """An error that pickles but does not unpickle: its constructor takes two."""

    def __init__(self, what, index):
        super().__init__(f"{what} at replicate {index}")


def _failing_draw(monkeypatch, fail):
    """Make TwoGroupsBeta's draw call ``fail(index)`` before replicate
    ``index``'s draw; the index is the second word of the Philox key."""
    draw = TwoGroupsBeta.draw

    def patched(self, rng, row):
        fail(int(rng.bit_generator.state["state"]["key"][1]))
        draw(self, rng, row)

    monkeypatch.setattr(TwoGroupsBeta, "draw", patched)


def _raise_at(indices, error=FitError):
    def fail(index):
        if index in indices:
            raise error(f"no draw for replicate {index}")
    return fail


def _beta_run():
    # 14 replicates in blocks of 3; on 3 processes the ranges are [0, 3),
    # [3, 9) in the first child and [9, 14) in the second
    spec, alpha = PRESETS["theorem-5.1"]
    return mc_error_rates(spec, ProcedureConfig("support-line", alpha), 14, [Fdr()], seed=4)


@pytest.mark.parametrize("bad", [{10}, {4, 10}, {1, 4, 10}],
                         ids=["last-child", "both-children", "this-process-and-children"])
def test_a_failing_range_raises_the_error_of_the_one_process_run(bad, monkeypatch):
    _failing_draw(monkeypatch, _raise_at(bad))
    errors = []
    for cores in (1, 3):
        with pytest.raises(FitError) as info:
            _with_cores(cores, _beta_run)
        errors.append((type(info.value), str(info.value)))
        _assert_no_child_left()
    assert errors[0] == errors[1] == (FitError, f"no draw for replicate {min(bad)}")


def test_a_child_error_that_does_not_unpickle_arrives_as_its_text(monkeypatch):
    def fail(index):
        if index == 10:
            raise _TwoArgumentError("no draw", index)

    _failing_draw(monkeypatch, fail)
    with pytest.raises(RuntimeError, match=r"^_TwoArgumentError: no draw at replicate 10$"):
        _with_cores(3, _beta_run)
    _assert_no_child_left()


def test_a_killed_child_names_its_range_and_signal(monkeypatch):
    parent = os.getpid()

    def fail(index):
        if index == 4 and os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)

    _failing_draw(monkeypatch, fail)
    with pytest.raises(ChildProcessError,
                       match=r"^the process running replicates \[3, 9\) ended by signal 9 "):
        _with_cores(3, _beta_run)
    _assert_no_child_left()


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


@pytest.mark.parametrize("L", [10**8, 10**9])
def test_perturbation_restores_exact_boundary_rate_on_fine_grids(L):
    # the design's draws lie on its grid however fine it is, so none is refused
    spec = DiscreteUniformNulls(m=50, L=L, alt_positions=(1, 2, 3))
    proc = ProcedureConfig("support-line", 0.5, perturb=True)
    est = mc_error_rates(spec, proc, 4000, [Bfdr()], seed=18).estimates["bFDR"]
    assert est["mean"] == pytest.approx((47 / 50) * 0.5, abs=3 * est["std_error"])


@settings(max_examples=60, deadline=None)
@given(_grid_specs(1000), st.integers(0, (1 << 64) - 1), st.integers(0, (1 << 64) - 1))
def test_perturbed_draw_is_perturb_grid_pvalues_of_the_draw(spec, seed, index):
    rng = replicate_rng(seed, index)
    data, _ = generate(spec, rng=rng)
    expected = perturb_grid_pvalues(data, spec.L, rng).values
    drawn = replicate_rng(seed, index)
    row = np.empty(spec.m)
    spec.perturbed_draw(drawn, row)
    assert row.tobytes() == expected.tobytes()
    # and the tie-pick's replay rebuilds the state the perturbed draw left
    proc = ProcedureConfig("support-line", 0.5, perturb=True)
    assert _state_bytes(drawn) == _state_bytes(rng)
    assert [_state_bytes(replayed) for replayed in
            simulate._replayed_streams(spec, proc, seed, [index])] == [_state_bytes(rng)]


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
