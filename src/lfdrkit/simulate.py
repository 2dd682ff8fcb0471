"""Data generators and the seeded Monte Carlo harness.

Replicate r of a run with master seed s draws from a Philox stream keyed by
(s, r), so results are independent of execution order.  The harness fills a
block of rows, one replicate each, re-keying one generator per row and
drawing in a fixed order: data, grid perturbation, then the boundary
tie-pick.  Rejection rules run along the rows with the per-instance rules'
arithmetic.  Each criterion counts replicates per distinct outcome, such as
(V, R), so runs over adjacent replicate ranges merge exactly by adding counts.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Dict, Iterator, Optional, Sequence, Tuple, Union

import numpy as np
from scipy import stats as spstats

from .core import (
    AssumptionError,
    BetaDensity,
    GaussianLocation,
    GroundTruth,
    PiecewiseConstant,
    Scale,
    StatVector,
    TwoGroupsSpec,
    Uniform01,
    check_values,
    to_pvalues,
)
from .density import grenander_fit
from .lfdr import LfdrCurve, score_hypotheses, storey_pi0, storey_pi0_raw
# perturb_grid_pvalues is not called here but stays importable from this
# module, where the benchmark's tracer (bench/spans.py) looks it up
from .procedures import (
    Procedure,
    RejectionResult,
    bh_threshold,
    grid_perturbation,
    perturb_grid_pvalues,
    q_values,
    step_up_thresholds,
    support_line,
    support_line_counts,
)

_KEY_LIMIT = 1 << 64


def _check_key(seed: int, index: int) -> None:
    if not (0 <= seed < _KEY_LIMIT and 0 <= index < _KEY_LIMIT):
        raise ValueError(f"seed {seed} and replicate index {index} must lie in [0, 2**64)")


def replicate_rng(master_seed: int, index: int) -> np.random.Generator:
    """Counter-based stream for one replicate, keyed by (seed, index)."""
    _check_key(master_seed, index)
    key = np.array([master_seed, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _replicate_streams(seed: int, indices: range) -> Iterator[np.random.Generator]:
    """The streams of ``replicate_rng(seed, i)`` for each i in turn: one generator,
    re-keyed in place before each (which resets Philox's counter and buffers)."""
    if indices:
        _check_key(seed, indices[0])
        _check_key(seed, indices[-1])
    bitgen = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
    rng = np.random.Generator(bitgen)
    fresh = bitgen.state
    for index in indices:
        fresh["state"]["key"][1] = index
        bitgen.state = fresh
        yield rng


# ---------------------------------------------------------------------------
# Generator specs
# ---------------------------------------------------------------------------

# Each spec has a fixed truth (``null_flags``), a ``scale`` and a ``draw``
# that fills one replicate's row of statistics from its stream.

def _integer(field: str, value) -> int:
    """``value`` as an int; ValueError naming the field unless it is integral."""
    if isinstance(value, (int, np.integer)) or \
            (isinstance(value, float) and value.is_integer()):
        return int(value)
    raise ValueError(f"{field} must be an integer, got {value!r}")


def _alternatives_first(m: int, m1: int) -> np.ndarray:
    flags = np.ones(m, dtype=bool)
    flags[:m1] = False
    return flags


@dataclass(frozen=True)
class GaussianMeans:
    """z_i ~ N(mu, 1) for i < m1 and N(0, 1) otherwise; z-scale output."""

    m: int
    m1: int
    mu: float
    scale = Scale.Z_VALUE

    def __post_init__(self):
        object.__setattr__(self, "m", _integer("m", self.m))
        object.__setattr__(self, "m1", _integer("m1", self.m1))
        if self.m < 1 or not 0 <= self.m1 <= self.m:
            raise ValueError("need m >= 1 and 0 <= m1 <= m")

    @property
    def null_flags(self) -> np.ndarray:
        return _alternatives_first(self.m, self.m1)

    def draw(self, rng: np.random.Generator, row: np.ndarray) -> None:
        row[:] = rng.normal(0.0, 1.0, self.m)
        row[:self.m1] += self.mu


@dataclass(frozen=True)
class TwoGroupsBeta:
    """round(pi0*m) uniform null p-values, the rest i.i.d. Beta(a, b)."""

    m: int
    pi0: float
    a: float
    b: float
    scale = Scale.P_VALUE

    def __post_init__(self):
        object.__setattr__(self, "m", _integer("m", self.m))
        if self.m < 1 or not 0.0 <= self.pi0 <= 1.0 or self.a <= 0 or self.b <= 0:
            raise ValueError("invalid two-groups beta parameters")

    @property
    def m0(self) -> int:
        return int(round(self.pi0 * self.m))

    @property
    def null_flags(self) -> np.ndarray:
        return _alternatives_first(self.m, self.m - self.m0)

    def draw(self, rng: np.random.Generator, row: np.ndarray) -> None:
        m1 = self.m - self.m0
        row[:m1] = rng.beta(self.a, self.b, m1)
        rng.random(out=row[m1:])


@dataclass(frozen=True)
class DiscreteUniformNulls:
    """Nulls uniform on {1/L..L/L}; alternatives fixed at alt_positions/L."""

    m: int
    L: int
    alt_positions: Tuple[int, ...] = ()
    scale = Scale.P_VALUE

    def __post_init__(self):
        object.__setattr__(self, "m", _integer("m", self.m))
        object.__setattr__(self, "L", _integer("L", self.L))
        if self.m < 1 or self.L < 1 or len(self.alt_positions) > self.m:
            raise ValueError("invalid discrete grid parameters")
        pos = tuple(_integer("alt_positions", k) for k in self.alt_positions)
        if pos and (min(pos) < 1 or max(pos) > self.L):
            raise ValueError("alt_positions must lie in 1..L")
        object.__setattr__(self, "alt_positions", pos)

    @property
    def null_flags(self) -> np.ndarray:
        return _alternatives_first(self.m, len(self.alt_positions))

    @cached_property
    def _alt_values(self) -> np.ndarray:
        return np.asarray(self.alt_positions, dtype=float) / self.L

    def draw(self, rng: np.random.Generator, row: np.ndarray) -> None:
        m1 = len(self.alt_positions)
        row[:m1] = self._alt_values
        row[m1:] = rng.integers(1, self.L + 1, size=self.m - m1) / self.L


@dataclass(frozen=True)
class SuperUniformCE:
    """Two hypotheses: a super-uniform (not uniform) null and a point-mass
    alternative at 1/4.  The null density is 1/2 on [0,1/4], 3/2 on (1/4,1/2],
    and 1 above."""

    scale = Scale.P_VALUE

    @property
    def null_flags(self) -> np.ndarray:
        return np.array([True, False])

    def draw(self, rng: np.random.Generator, row: np.ndarray) -> None:
        row[0] = _SUPERUNIFORM_NULL.sample(rng, 1)[0]
        row[1] = 0.25


GeneratorSpec = Union[GaussianMeans, TwoGroupsBeta, DiscreteUniformNulls, SuperUniformCE]

_SUPERUNIFORM_NULL = PiecewiseConstant((0.0, 0.25, 0.5, 1.0), (0.5, 1.5, 1.0))

# the named designs of ``lfdrkit simulate --preset`` and of criteria 1-4,
# each with the alpha it runs at by default
PRESETS: Dict[str, Tuple[GeneratorSpec, float]] = {
    "theorem-5.1": (TwoGroupsBeta(m=100, pi0=0.8, a=0.05, b=1.0), 0.1),
    "counterexample-superuniform": (SuperUniformCE(), 0.5),
    "counterexample-discrete": (
        DiscreteUniformNulls(m=6, L=9, alt_positions=(1, 1, 2, 3, 4)), 0.5),
    "fig2-gaussian": (GaussianMeans(m=3000, m1=150, mu=2.0), 0.1),
}


def generate(spec: GeneratorSpec, seed: Optional[int] = None,
             rng: Optional[np.random.Generator] = None) -> Tuple[StatVector, GroundTruth]:
    """Draw one replicate; deterministic given the seed (or supplied rng)."""
    if rng is None:
        rng = replicate_rng(0 if seed is None else seed, 0)
    flags = spec.null_flags
    row = np.empty(flags.size)
    spec.draw(rng, row)
    return StatVector(row, spec.scale), GroundTruth(flags)


def oracle_score_fn(spec: GeneratorSpec):
    """Closed-form pointwise score function for designs that admit one."""
    if isinstance(spec, GaussianMeans):
        model = TwoGroupsSpec((spec.m - spec.m1) / spec.m, GaussianLocation(0.0),
                              GaussianLocation(spec.mu))
    elif isinstance(spec, TwoGroupsBeta):
        model = TwoGroupsSpec(spec.m0 / spec.m, Uniform01(), BetaDensity(spec.a, spec.b))
    else:
        raise AssumptionError(f"no closed-form pointwise score for {type(spec).__name__}")
    return LfdrCurve(model.pi0, model.f0, model.mixture()).evaluate


# ---------------------------------------------------------------------------
# Procedures and error criteria
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProcedureConfig:
    """Which procedure the harness runs, and the optional grid perturbation."""

    kind: str  # a Procedure value: "support-line" | "bh" | "storey-bh"
    alpha: float
    storey_lambda: float = 0.5
    perturb: bool = False
    grid_L: Optional[int] = None

    def __post_init__(self):
        Procedure(self.kind)  # ValueError on an unknown name
        if self.perturb and self.grid_L is None:
            raise ValueError("perturbation requires grid_L")


def run_procedure(data: StatVector, cfg: ProcedureConfig) -> RejectionResult:
    """The configured rule on one p-scale replicate (the harness runs it along rows)."""
    if cfg.kind == "support-line":
        return support_line(data, cfg.alpha)
    if cfg.kind == "bh":
        return bh_threshold(data, cfg.alpha)
    pi0 = storey_pi0(data, cfg.storey_lambda)
    return bh_threshold(data, cfg.alpha, m0_hat=pi0.value * data.m)


@dataclass(frozen=True)
class Fdr:
    name: str = "FDR"


@dataclass(frozen=True)
class Bfdr:
    name: str = "bFDR"


@dataclass(frozen=True)
class Power:
    name: str = "power"


@dataclass(frozen=True)
class MfdrInterval:
    s: float
    t: float

    @property
    def name(self) -> str:
        return f"mFDR[{self.s},{self.t}]"


@dataclass(frozen=True)
class PfdrInterval:
    s: float
    t: float

    @property
    def name(self) -> str:
        return f"pFDR[{self.s},{self.t}]"


Criterion = Union[Fdr, Bfdr, Power, MfdrInterval, PfdrInterval]


def _tally(num: np.ndarray, den: np.ndarray) -> Dict[Tuple[int, int], int]:
    """Replicates per distinct (num[i], den[i]) pair: a criterion counts its
    per-replicate outcomes; a replicate it is undefined on adds none."""
    base = int(den.max()) + 1 if den.size else 1
    keys, n = np.unique(num.astype(np.int64) * base + den, return_counts=True)
    return dict(zip(zip((keys // base).tolist(), (keys % base).tolist()), n.tolist()))


def _mean_estimate(counts: Counter) -> Optional[Dict[str, float]]:
    """Mean and standard error of the per-replicate ratios num / max(1, den)."""
    n = sum(counts.values())
    if n == 0:
        return None
    total = sum(c * Fraction(v, max(1, r)) for (v, r), c in counts.items())
    sumsq = sum(c * Fraction(v, max(1, r)) ** 2 for (v, r), c in counts.items())
    mean = total / n
    out = {"mean": float(mean), "n": n}
    if n > 1:
        var = (sumsq - total * mean) / (n - 1)
        out["std_error"] = math.sqrt(max(0.0, float(var)) / n)
    else:
        out["std_error"] = math.nan
    return out


def _ratio_estimate(counts: Counter) -> Optional[Dict[str, float]]:
    """Ratio of mean numerator to mean denominator, with a delta-method error."""
    n = sum(counts.values())
    sv = sum(c * v for (v, _), c in counts.items())
    sr = sum(c * r for (_, r), c in counts.items())
    if n == 0 or sr == 0:
        return None
    theta = Fraction(sv, sr)
    out = {"mean": float(theta), "n": n}
    if n > 1:
        svv = Fraction(sum(c * v * v for (v, _), c in counts.items())) - Fraction(sv * sv, n)
        srr = Fraction(sum(c * r * r for (_, r), c in counts.items())) - Fraction(sr * sr, n)
        svr = Fraction(sum(c * v * r for (v, r), c in counts.items())) - Fraction(sv * sr, n)
        quad = (svv - 2 * theta * svr + theta * theta * srr) / (n - 1)
        rbar = Fraction(sr, n)
        var = float(quad) / (n * float(rbar) ** 2)
        out["std_error"] = math.sqrt(max(0.0, var))
    else:
        out["std_error"] = math.nan
    return out


@dataclass
class MonteCarloReport:
    """Criterion estimates over replicates ``start .. start + n_replicates - 1``,
    with the exact outcome counts they are computed from."""

    start: int
    n_replicates: int
    estimates: Dict[str, Dict[str, float]]
    config: Dict[str, str]
    criteria: Tuple[Criterion, ...]
    counts: Dict[str, Counter]

    def to_jsonable(self) -> Dict:
        return {
            "config": self.config,
            "estimates": self.estimates,
            "replicates": self.n_replicates,
        }


def _report(start, n_reps, config, criteria, counts) -> MonteCarloReport:
    estimates = {}
    for crit in criteria:
        estimate = _ratio_estimate if isinstance(crit, MfdrInterval) else _mean_estimate
        est = estimate(counts[crit.name])
        if est is not None:
            estimates[crit.name] = est
    return MonteCarloReport(start, n_reps, estimates, config, criteria, counts)


# values and rows per block: bound the harness's memory whatever m is; the
# row cap bounds the per-row stream-state snapshots (about 1 KB each)
_BLOCK_VALUES = 1 << 16
_BLOCK_ROWS = 1 << 10


@dataclass(frozen=True)
class _Workspace:
    """Buffers for one block of rows, allocated once per run.  Each block
    writes into their leading rows, so it allocates no block-sized array
    for its draws, perturbed values, sort or support-line objective."""

    x: np.ndarray                    # the drawn rows, perturbed in place
    u: Optional[np.ndarray]          # perturbation uniforms
    sorted: np.ndarray               # each row's p-values, sorted
    objective: Optional[np.ndarray]  # support-line objective, m + 1 per row

    @classmethod
    def for_block(cls, rows: int, m: int, procedure: ProcedureConfig) -> "_Workspace":
        support_line = procedure.kind == "support-line"
        return cls(np.empty((rows, m)), np.empty((rows, m)) if procedure.perturb else None,
                   np.empty((rows, m)), np.empty((rows, m + 1)) if support_line else None)


def _row_thresholds(ps: np.ndarray, cfg: ProcedureConfig,
                    objective: Optional[np.ndarray]) -> np.ndarray:
    """Per row of sorted p-values, the threshold at or below which the
    procedure rejects every p-value; -1 when the support line rejects none.
    ``objective`` is the support line's buffer."""
    if cfg.kind == "support-line":
        r = support_line_counts(ps, cfg.alpha, objective)
        return np.where(r > 0, ps[np.arange(len(ps)), r - 1], -1.0)
    m = ps.shape[1]
    if cfg.kind == "bh":
        return step_up_thresholds(ps, cfg.alpha, float(m))
    pi0 = np.minimum(storey_pi0_raw(ps, cfg.storey_lambda), 1.0)
    return step_up_thresholds(ps, cfg.alpha, (pi0 * m)[:, None])


def _boundary_nulls(p, cut, nulls, states, rng) -> np.ndarray:
    """1 where the last rejection is a true null, per row.  A boundary tie of
    nulls with non-nulls resolves uniformly at random from the row's stream,
    restored to the state its other draws left; other ties need no draw."""
    at = p == cut[:, None]
    ties = np.count_nonzero(at, axis=1)
    hits = np.count_nonzero(at & nulls, axis=1)
    out = (hits > 0).astype(np.int64)
    for i in np.flatnonzero((hits > 0) & (hits < ties)):
        rng.bit_generator.state = states[i]
        tied = np.flatnonzero(at[i])
        out[i] = nulls[tied[rng.integers(tied.size)]]
    return out


def _tally_block(spec: GeneratorSpec, nulls: np.ndarray, procedure: ProcedureConfig,
                 criteria, streams, work: _Workspace, rows: int,
                 counts: Dict[str, Counter]) -> None:
    """Draw the next ``rows`` replicates from ``streams`` into ``work`` and
    count their outcomes."""
    keep_states = any(isinstance(c, Bfdr) for c in criteria)
    values = work.x[:rows]
    u = None if work.u is None else work.u[:rows]
    states = []
    # range first: zip stops before taking a stream beyond this block
    for i, rng in zip(range(rows), streams):
        spec.draw(rng, values[i])
        if u is not None:
            rng.random(out=u[i])
        if keep_states:
            states.append(rng.bit_generator.state)
    check_values(values, spec.scale)
    if u is not None:
        grid_perturbation(values, procedure.grid_L, u, out=values)
    p = to_pvalues(values, spec.scale)
    ps = work.sorted[:rows]
    np.copyto(ps, p)
    ps.sort(axis=1)
    objective = None if work.objective is None else work.objective[:rows]
    cut = _row_thresholds(ps, procedure, objective)
    rejected = p <= cut[:, None]
    r = np.count_nonzero(rejected, axis=1)
    v = np.count_nonzero(rejected & nulls, axis=1)
    for crit in criteria:
        if isinstance(crit, Fdr):
            num, den = v, r
        elif isinstance(crit, Bfdr):
            num, den = _boundary_nulls(p, cut, nulls, states, rng), np.ones(rows, np.int64)
        elif isinstance(crit, Power):
            m1 = nulls.size - np.count_nonzero(nulls)
            if m1 == 0:
                continue
            num, den = r - v, np.full(rows, m1)
        else:
            inside = (values >= crit.s) & (values <= crit.t)
            num = np.count_nonzero(inside & nulls, axis=1)
            den = np.count_nonzero(inside, axis=1)
            if isinstance(crit, PfdrInterval):
                num, den = num[den > 0], den[den > 0]
        counts[crit.name].update(_tally(num, den))


def mc_error_rates(spec: GeneratorSpec, procedure: ProcedureConfig, n_reps: int,
                   criteria: Sequence[Criterion], seed: int,
                   start: int = 0) -> MonteCarloReport:
    """Estimate the requested criteria over n_reps seeded replicates.

    ``start`` offsets the replicate indices so a run can be split into
    sub-runs over adjacent ranges whose merge (:func:`merge_reports`)
    reproduces the unsplit run exactly.  The boundary criterion breaks ties
    at the threshold uniformly at random from the replicate's own stream.
    """
    if n_reps < 1:
        raise ValueError("n_reps must be >= 1")
    criteria = tuple(criteria)
    if len({c.name for c in criteria}) != len(criteria):
        raise ValueError("criteria names must be unique")
    nulls = spec.null_flags
    streams = _replicate_streams(seed, range(start, start + n_reps))
    rows = max(1, min(_BLOCK_ROWS, _BLOCK_VALUES // nulls.size, n_reps))
    work = _Workspace.for_block(rows, nulls.size, procedure)
    counts = {c.name: Counter() for c in criteria}
    for done in range(0, n_reps, rows):
        _tally_block(spec, nulls, procedure, criteria, streams, work,
                     min(rows, n_reps - done), counts)
    config = {"generator": repr(spec), "procedure": repr(procedure),
              "criteria": [c.name for c in criteria], "seed": int(seed)}
    return _report(start, n_reps, config, criteria, counts)


def merge_reports(a: MonteCarloReport, b: MonteCarloReport) -> MonteCarloReport:
    """Exact merge of two runs over adjacent replicate ranges: counts add."""
    if a.config != b.config:
        raise ValueError("cannot merge reports with different configurations")
    first, second = sorted((a, b), key=lambda rep: rep.start)
    end = first.start + first.n_replicates
    if end != second.start:
        raise ValueError(f"replicate ranges [{first.start}, {end}) and [{second.start}, "
                         f"{second.start + second.n_replicates}) overlap or leave a gap")
    counts = {name: first.counts[name] + second.counts[name] for name in first.counts}
    return _report(first.start, a.n_replicates + b.n_replicates, dict(a.config),
                   a.criteria, counts)


# ---------------------------------------------------------------------------
# Calibration pooling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CalibrationCurve:
    """Per-bin null fraction of pooled (score, is-null) pairs."""

    bin_edges: np.ndarray
    bin_null_fraction: np.ndarray
    bin_counts: np.ndarray

    def __post_init__(self):
        for name in ("bin_edges", "bin_null_fraction", "bin_counts"):
            arr = np.array(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


SCORERS = ("p-value", "q-value", "oracle-lfdr", "estimated-lfdr")


def _score_replicate(scorer: str, data: StatVector, oracle) -> np.ndarray:
    if scorer == "oracle-lfdr":
        return np.asarray(oracle(data.values), dtype=float)
    p = to_pvalues(data.values, data.scale)
    if scorer == "p-value":
        return p
    pv = StatVector(np.clip(p, 1e-300, 1.0), Scale.P_VALUE)
    if scorer == "q-value":
        pi0 = storey_pi0(pv, 0.5)
        return q_values(pv, m0_hat=pi0.value * pv.m).qvalues
    if scorer == "estimated-lfdr":
        pi0 = storey_pi0(pv, 0.5)
        fit = grenander_fit(pv)
        return score_hypotheses(LfdrCurve(pi0.value, Uniform01(), fit), pv)
    raise ValueError(f"unknown scorer {scorer!r}; choose from {SCORERS}")


def calibration_experiment(spec: GeneratorSpec, scorer: str, reps: int,
                           bin_width: float, seed: int) -> CalibrationCurve:
    """Pool scores across replicates and report the null fraction per bin."""
    if not 0.0 < bin_width < 1.0:
        raise ValueError("bin_width must lie in (0, 1)")
    if reps < 1:
        raise ValueError("reps must be >= 1")
    nbins = int(round(1.0 / bin_width))
    if abs(nbins * bin_width - 1.0) > 1e-9:
        raise ValueError("bin_width must divide [0, 1] evenly")
    oracle = oracle_score_fn(spec) if scorer == "oracle-lfdr" else None

    counts = np.zeros(nbins, dtype=np.int64)
    null_counts = np.zeros(nbins, dtype=np.int64)
    for rng in _replicate_streams(seed, range(reps)):
        data, truth = generate(spec, rng=rng)
        scores = _score_replicate(scorer, data, oracle)
        idx = np.clip((scores / bin_width).astype(int), 0, nbins - 1)
        counts += np.bincount(idx, minlength=nbins)
        null_counts += np.bincount(idx[truth.null_flags], minlength=nbins)

    with np.errstate(invalid="ignore"):
        frac = np.where(counts > 0, null_counts / np.maximum(counts, 1), np.nan)
    edges = np.linspace(0.0, 1.0, nbins + 1)
    return CalibrationCurve(edges, frac, counts)


# ---------------------------------------------------------------------------
# Limit checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LimitRecord:
    eps: float
    mfdr: float
    mfdr_deviation: float


def mfdr_pfdr_limit_check(spec: TwoGroupsSpec, t: float,
                          eps_sequence: Sequence[float]) -> Tuple[LimitRecord, ...]:
    """Interval error rates on [t-eps, t+eps] against the pointwise score.

    The interval ratio-of-expectations is computed analytically from the
    component CDFs.  The conditional form (pFDR) is a harness criterion,
    :class:`PfdrInterval`, estimated by :func:`mc_error_rates`.
    """
    target = LfdrCurve(spec.pi0, spec.f0, spec.mixture(), clip=False).evaluate(t)
    records = []
    for eps in eps_sequence:
        if eps <= 0:
            raise ValueError("eps values must be positive")
        lo, hi = t - eps, t + eps
        mass0 = spec.pi0 * (spec.f0.cdf(hi) - spec.f0.cdf(lo))
        mass1 = (1.0 - spec.pi0) * (spec.f1.cdf(hi) - spec.f1.cdf(lo))
        mfdr = float(mass0 / (mass0 + mass1))
        records.append(LimitRecord(eps=eps, mfdr=mfdr, mfdr_deviation=abs(mfdr - target)))
    return tuple(records)


@dataclass(frozen=True)
class DiscreteLimitRecord:
    m: int
    bfdr: float
    std_error: float
    limit: float
    l_star: int


def discrete_population_maximizer(L: int, alpha: float,
                                  f_star: Sequence[float]) -> Tuple[int, float]:
    """Maximizer of ``alpha * sum_{k<=l} f*(k/L) - l/L`` and the induced limit.

    Raises :class:`AssumptionError` unless the maximizer is unique with a
    strict gap; the limit carries the indicator that the maximizer is
    positive.
    """
    f = np.asarray(f_star, dtype=float)
    if f.size != L or f.min() < 0 or abs(f.sum() - 1.0) > 1e-8:
        raise ValueError("f_star must be a pmf over the L grid points")
    objective = alpha * np.concatenate([[0.0], np.cumsum(f)]) - np.arange(L + 1) / L
    order = np.argsort(objective)
    if objective[order[-1]] - objective[order[-2]] < 1e-9:
        raise AssumptionError("population objective has no unique maximizer")
    l_star = int(order[-1])
    return l_star, objective[l_star]


def discrete_limit_check(L: int, alpha: float, f_star: Sequence[float],
                         pi0_star: float, m: int, n_reps: int, seed: int,
                         perturb: bool = False, start: int = 0) -> DiscreteLimitRecord:
    """Boundary-FDR of the support line on grid p-values versus its m->inf limit.

    ``f_star`` is the limiting average pmf; the alternatives of the finite-m
    design are placed to match ``(f_star - pi0_star/L) / (1 - pi0_star)`` by
    largest-remainder rounding.
    """
    if not 0.0 < pi0_star < 1.0:
        raise ValueError("pi0_star must lie in (0, 1)")
    f = np.asarray(f_star, dtype=float)
    l_star, _ = discrete_population_maximizer(L, alpha, f)
    limit = pi0_star / (L * f[l_star - 1]) if l_star > 0 else 0.0

    alt_pmf = (f - pi0_star / L) / (1.0 - pi0_star)
    if alt_pmf.min() < -1e-9:
        raise ValueError("f_star is incompatible with uniform nulls at pi0_star")
    alt_pmf = np.maximum(alt_pmf, 0.0)

    m0 = int(round(pi0_star * m))
    m1 = m - m0
    ideal = alt_pmf * m1
    base = np.floor(ideal).astype(int)
    short = m1 - base.sum()
    order = np.argsort(-(ideal - base))
    base[order[:short]] += 1
    positions = tuple(int(k + 1) for k in range(L) for _ in range(base[k]))
    spec = DiscreteUniformNulls(m=m, L=L, alt_positions=positions)
    proc = ProcedureConfig("support-line", alpha, perturb=perturb,
                           grid_L=L if perturb else None)
    report = mc_error_rates(spec, proc, n_reps, [Bfdr()], seed, start=start)
    est = report.estimates["bFDR"]
    return DiscreteLimitRecord(m=m, bfdr=est["mean"], std_error=est["std_error"],
                               limit=limit, l_star=l_star)


@dataclass(frozen=True)
class NullDensityBoundCheck:
    max_density_on_window: float
    alpha_star: float


def exp_family_null_density_check(theta: float, theta0: float,
                                  grid: Sequence[float]) -> NullDensityBoundCheck:
    """Density of the one-sided Gaussian p-value under a shifted null.

    For p = 1 - Phi(z - theta0) with Z ~ N(theta, 1), theta <= theta0, the
    density at t is exp(delta * q(t) - delta^2 / 2) with q(t) the upper
    t-quantile and delta = theta - theta0.  It is bounded by 1 on
    [0, alpha*] with alpha* = 0.5.
    """
    if theta > theta0:
        raise ValueError("need theta <= theta0 for a null configuration")
    delta = theta - theta0
    alpha_star = float(1.0 - spstats.norm.cdf(0.0))
    pts = np.asarray(grid, dtype=float)
    pts = pts[(pts >= 0.0) & (pts <= alpha_star)]
    if pts.size == 0:
        raise ValueError("grid contains no points inside [0, alpha*]")
    q = spstats.norm.isf(np.clip(pts, 0.0, 1.0))
    if delta == 0.0:
        dens = np.ones_like(pts)
    else:
        with np.errstate(invalid="ignore"):
            dens = np.exp(delta * q - 0.5 * delta * delta)
        dens = np.where(np.isposinf(q), 0.0, dens)
    return NullDensityBoundCheck(float(dens.max()), alpha_star)
