"""Data generators and the seeded Monte Carlo harness.

Replicate r of a run with master seed s draws from a Philox stream keyed by
(s, r), so results are independent of execution order.  The harness fills a
block of rows, one replicate each, re-keying one generator per row and
drawing in a fixed order: data, grid perturbation, then the boundary
tie-pick.  The tie-pick draws from the state the row's other draws left:
saved after each row on unperturbed grid designs, whose rows tie at most
boundaries, and otherwise rebuilt when needed by re-keying the row's stream
and repeating its draws.  One function draws every row, so the replay, the
calibration pool and ``generate`` keep that order.  Rejection rules run
along the rows with the per-instance rules' arithmetic.  Each criterion
counts replicates per distinct outcome, such as (V, R), so runs over
adjacent replicate ranges merge exactly by adding counts.
"""

from __future__ import annotations

import math
import numbers
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import ClassVar, Dict, Iterator, Optional, Sequence, Tuple, Union

import numpy as np

from .core import (
    AssumptionError,
    BetaDensity,
    GaussianLocation,
    GroundTruth,
    MixtureDensity,
    PiecewiseConstant,
    Scale,
    StatVector,
    Uniform01,
    _frozen_array,
    check_finite,
    check_values,
    to_pvalues,
)
from .density import grenander_fit
from .lfdr import LfdrCurve, score_hypotheses, storey_pi0, storey_pi0_raw
# perturb_grid_pvalues is not called here but stays importable from this
# module, where the benchmark's tracer (bench/spans.py) looks it up
from .procedures import (
    PROCEDURES,
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
    # as Python ints, which the state setter reads faster than numpy arrays
    fresh["state"] = {name: part.tolist() for name, part in fresh["state"].items()}
    fresh["buffer"] = fresh["buffer"].tolist()
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
        check_finite("mu", self.mu)

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
        if self.m < 1 or not 0.0 <= self.pi0 <= 1.0:
            raise ValueError("invalid two-groups beta parameters")
        check_finite("a", self.a, positive=True)
        check_finite("b", self.b, positive=True)

    @cached_property
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
        # a piece by its mass (accumulated: 1/8, 1/2, 1), then a uniform point in it
        piece = int(np.searchsorted((0.125, 0.5, 1.0), rng.random(), side="right"))
        lo, hi = _SUPERUNIFORM_NULL.breakpoints[piece:piece + 2]
        row[0] = lo + (hi - lo) * rng.random()
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


def _draw_rows(spec: GeneratorSpec, streams, values: np.ndarray, u: Optional[np.ndarray] = None,
               states: Optional[list] = None) -> np.random.Generator:
    """The one draw order: row i of ``values`` from the i-th stream, then the
    row's perturbation uniforms into ``u[i]``, then that stream's state onto
    ``states``.  Checks the drawn values and returns the last stream."""
    for i, rng in enumerate(streams):
        spec.draw(rng, values[i])
        if u is not None:
            rng.random(out=u[i])
        if states is not None:
            states.append(rng.bit_generator.state)
    check_values(values, spec.scale)
    return rng


def generate(spec: GeneratorSpec, seed: Optional[int] = None,
             rng: Optional[np.random.Generator] = None) -> Tuple[StatVector, GroundTruth]:
    """Draw one replicate; deterministic given the seed (or supplied rng)."""
    if rng is None:
        rng = replicate_rng(0 if seed is None else seed, 0)
    flags = spec.null_flags
    row = np.empty((1, flags.size))
    _draw_rows(spec, [rng], row)
    return StatVector(row[0], spec.scale), GroundTruth(flags)


def oracle_score_fn(spec: GeneratorSpec):
    """Closed-form pointwise score function for designs that admit one."""
    if isinstance(spec, GaussianMeans):
        pi0, f0, f1 = ((spec.m - spec.m1) / spec.m, GaussianLocation(0.0),
                       GaussianLocation(spec.mu))
    elif isinstance(spec, TwoGroupsBeta):
        pi0, f0, f1 = spec.m0 / spec.m, Uniform01(), BetaDensity(spec.a, spec.b)
    else:
        raise AssumptionError(f"no closed-form pointwise score for {type(spec).__name__}")
    return LfdrCurve(pi0, f0, MixtureDensity((f0, f1), (pi0, 1.0 - pi0))).evaluate


# ---------------------------------------------------------------------------
# Procedures and error criteria
# ---------------------------------------------------------------------------

# the Storey lambda of the storey-bh procedure and of the estimated scorers
STOREY_LAMBDA = 0.5


@dataclass(frozen=True)
class ProcedureConfig:
    """Which procedure the harness runs, and whether it perturbs the design's grid."""

    kind: str  # one of PROCEDURES
    alpha: float
    perturb: bool = False

    def __post_init__(self):
        if self.kind not in PROCEDURES:
            raise ValueError(f"unknown procedure {self.kind!r}; choose from {PROCEDURES}")
        # the harness calls the row kernels directly, which check neither
        if isinstance(self.alpha, bool) or not (isinstance(self.alpha, numbers.Real)
                                                and 0.0 < self.alpha <= 1.0):
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha!r}")


def run_procedure(data: StatVector, cfg: ProcedureConfig) -> RejectionResult:
    """The configured rule on one p-scale replicate (the harness runs it along rows)."""
    if cfg.kind == "support-line":
        return support_line(data, cfg.alpha)
    if cfg.kind == "bh":
        return bh_threshold(data, cfg.alpha)
    pi0 = storey_pi0(data, STOREY_LAMBDA)
    return bh_threshold(data, cfg.alpha, m0_hat=pi0.value * data.m)


@dataclass(frozen=True)
class Fdr:
    name: ClassVar[str] = "FDR"


@dataclass(frozen=True)
class Bfdr:
    name: ClassVar[str] = "bFDR"


@dataclass(frozen=True)
class Power:
    name: ClassVar[str] = "power"


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
# row cap also bounds the saved stream states of a grid design (about 1 KB each)
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
    pi0 = np.minimum(storey_pi0_raw(ps, STOREY_LAMBDA), 1.0)
    return step_up_thresholds(ps, cfg.alpha, (pi0 * m)[:, None])


def _saves_states(spec: GeneratorSpec, procedure: ProcedureConfig, criteria) -> bool:
    """Whether a run saves each row's stream state after its draws for the
    bFDR tie-pick, instead of replaying the draws of a row that ties.

    Only an unperturbed grid design puts nulls and alternatives on shared
    values, so its rows tie at most boundaries; on every other design a tie
    has probability zero.  Saving builds a nested dict of numpy arrays per
    row, which was a quarter of a theorem-5.1 replicate (m = 100: 20 against
    15 us on a 2-core host).  A replay draws the row again: on criterion 9's
    unperturbed design (alternatives in cell 1, alpha = 0.6), where every
    row ties, that is 4,500 grid cells a row, and replaying there made a
    replicate 1.55x as slow as saving (171 against 110 us).
    """
    return (any(isinstance(c, Bfdr) for c in criteria)
            and isinstance(spec, DiscreteUniformNulls) and not procedure.perturb)


def _replayed_stream(spec: GeneratorSpec, procedure: ProcedureConfig, seed: int,
                     index: int) -> np.random.Generator:
    """Replicate ``index``'s stream at the state its data and perturbation
    draws left: Philox is counter-based, so re-keying to (seed, index) and
    repeating the draws into a scratch row rebuilds that state bit for bit."""
    scratch = np.empty((1, spec.null_flags.size))
    return _draw_rows(spec, _replicate_streams(seed, range(index, index + 1)), scratch,
                      scratch if procedure.perturb else None)


def _boundary_nulls(p, cut, nulls, after_draws) -> np.ndarray:
    """1 where the last rejection is a true null, per row.  A boundary tie of
    nulls with non-nulls resolves uniformly at random from row i's stream,
    ``after_draws(i)``, at the state its other draws left; other ties need
    no draw."""
    at = p == cut[:, None]
    ties = np.count_nonzero(at, axis=1)
    hits = np.count_nonzero(at & nulls, axis=1)
    out = (hits > 0).astype(np.int64)
    for i in np.flatnonzero((hits > 0) & (hits < ties)):
        rng = after_draws(i)
        tied = np.flatnonzero(at[i])
        out[i] = nulls[tied[rng.integers(tied.size)]]
    return out


def _tally_block(spec: GeneratorSpec, nulls: np.ndarray, procedure: ProcedureConfig,
                 criteria, seed: int, indices: range, work: _Workspace,
                 counts: Dict[str, Counter]) -> None:
    """Draw replicates ``indices`` of ``seed`` into ``work`` and count their
    outcomes."""
    rows = len(indices)
    values = work.x[:rows]
    u = None if work.u is None else work.u[:rows]
    states = [] if _saves_states(spec, procedure, criteria) else None
    rng = _draw_rows(spec, _replicate_streams(seed, indices), values, u, states)

    def after_draws(i: int) -> np.random.Generator:
        if states is None:
            return _replayed_stream(spec, procedure, seed, indices[i])
        rng.bit_generator.state = states[i]
        return rng

    if u is not None:
        grid_perturbation(values, spec.L, u, out=values)
    p = to_pvalues(values, spec.scale)
    ps = work.sorted[:rows]
    np.copyto(ps, p)
    ps.sort(axis=1)
    objective = None if work.objective is None else work.objective[:rows]
    cut = _row_thresholds(ps, procedure, objective)
    if any(isinstance(c, (Fdr, Power)) for c in criteria):
        rejected = p <= cut[:, None]
        r = np.count_nonzero(rejected, axis=1)
        v = np.count_nonzero(rejected & nulls, axis=1)
    for crit in criteria:
        if isinstance(crit, Fdr):
            num, den = v, r
        elif isinstance(crit, Bfdr):
            num, den = _boundary_nulls(p, cut, nulls, after_draws), np.ones(rows, np.int64)
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
    for c in criteria:
        # also refuses a NaN bound, which would select no value
        if isinstance(c, (MfdrInterval, PfdrInterval)) and not c.s <= c.t:
            raise ValueError(f"interval criterion {c.name} needs bounds s <= t")
    if procedure.perturb and not isinstance(spec, DiscreteUniformNulls):
        raise ValueError(f"perturbation needs a grid generator, not {type(spec).__name__}")
    nulls = spec.null_flags
    rows = max(1, min(_BLOCK_ROWS, _BLOCK_VALUES // nulls.size, n_reps))
    work = _Workspace.for_block(rows, nulls.size, procedure)
    counts = {c.name: Counter() for c in criteria}
    for first in range(start, start + n_reps, rows):
        _tally_block(spec, nulls, procedure, criteria, seed,
                     range(first, min(first + rows, start + n_reps)), work, counts)
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
            object.__setattr__(self, name, _frozen_array(getattr(self, name)))


SCORERS = ("p-value", "q-value", "oracle-lfdr", "estimated-lfdr")


def _score_block(scorer: str, values: np.ndarray, scale: Scale, oracle) -> np.ndarray:
    """Scores of a block of rows; the estimated scorers fit each row on its own."""
    if scorer == "oracle-lfdr":
        return oracle(values)
    p = to_pvalues(values, scale)
    if scorer == "p-value":
        return p
    scores = np.empty_like(p)
    for row, out in zip(p, scores):
        pv = StatVector(np.clip(row, 1e-300, 1.0), Scale.P_VALUE)
        pi0 = storey_pi0(pv, STOREY_LAMBDA).value
        out[:] = q_values(pv, m0_hat=pi0 * pv.m) if scorer == "q-value" else \
            score_hypotheses(LfdrCurve(pi0, Uniform01(), grenander_fit(pv)), pv)
    return scores


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
    if scorer not in SCORERS:
        raise ValueError(f"unknown scorer {scorer!r}; choose from {SCORERS}")
    oracle = oracle_score_fn(spec) if scorer == "oracle-lfdr" else None

    nulls = spec.null_flags
    rows = max(1, min(_BLOCK_ROWS, _BLOCK_VALUES // nulls.size, reps))
    values = np.empty((rows, nulls.size))
    # bin counts of the alternatives, then of the nulls
    tally = np.zeros(2 * nbins, dtype=np.int64)
    for first in range(0, reps, rows):
        block = values[:min(rows, reps - first)]
        _draw_rows(spec, _replicate_streams(seed, range(first, first + len(block))), block)
        scores = _score_block(scorer, block, spec.scale, oracle)
        idx = np.clip((scores / bin_width).astype(int), 0, nbins - 1)
        tally += np.bincount((idx + nbins * nulls).ravel(), minlength=2 * nbins)

    null_counts = tally[nbins:]
    counts = tally[:nbins] + null_counts
    with np.errstate(invalid="ignore"):
        frac = np.where(counts > 0, null_counts / np.maximum(counts, 1), np.nan)
    edges = np.linspace(0.0, 1.0, nbins + 1)
    return CalibrationCurve(edges, frac, counts)
