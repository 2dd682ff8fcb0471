"""Data generators and the seeded Monte Carlo harness.

Replicate r of a run with integer master seed s draws from a Philox stream
keyed by (s, r), so results are independent of execution order.  Error rates
and calibration share one block loop: it fills a block of rows, one replicate
each, re-keying one generator per row and drawing in a fixed order (data,
then the boundary tie-pick), and hands the block to a stage that scores and
tallies it.  A perturbed grid design draws its cells, then the row's
uniforms, and perturbs from the cells in its draw; ``perturb_grid_pvalues``
is the path for grid p-values from outside.  A run picks its draw once, and
a tied row's replay re-keys and repeats that draw to rebuild its state.
Rejection rules run along the rows with the per-instance rules'
arithmetic.  Each criterion counts replicates per distinct outcome, such as
(V, R), so runs over adjacent replicate ranges merge exactly by adding
counts.  The loop runs one range of whole blocks per usable core, each after
the first in a forked child, and adds the tallies in range order, so no
result depends on how many processes ran it.
"""

from __future__ import annotations

import math
import numbers
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial, reduce
from typing import Callable, ClassVar, Dict, Iterator, Optional, Sequence, Tuple, Union

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
    _in_processes,
    _split_blocks,
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
    perturb_grid_pvalues,
    q_values,
    step_up_thresholds,
    support_line,
    support_line_counts,
)

_KEY_LIMIT = 1 << 64


def _integer(field: str, value) -> int:
    """``value`` as an int; ValueError naming the field unless it is integral, not bool."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool) or \
            (isinstance(value, float) and value.is_integer()):
        return int(value)
    raise ValueError(f"{field} must be an integer, got {value!r}")


def _check_key(seed: int, index: int) -> None:
    if not (0 <= _integer("seed", seed) < _KEY_LIMIT
            and 0 <= _integer("replicate index", index) < _KEY_LIMIT):
        raise ValueError(f"seed {seed} and replicate index {index} must lie in [0, 2**64)")


def replicate_rng(master_seed: int, index: int) -> np.random.Generator:
    """Counter-based stream for one replicate, keyed by (seed, index)."""
    _check_key(master_seed, index)
    key = np.array([master_seed, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _replicate_streams(seed: int, indices: Sequence[int]) -> Iterator[np.random.Generator]:
    """The streams of ``replicate_rng(seed, i)`` for each i of the ascending
    ``indices`` in turn: one generator, re-keyed in place before each (which
    resets Philox's counter and buffers)."""
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
# that fills one replicate's row of statistics from its stream; a grid design
# also has the ``perturbed_draw`` of a perturbed run.

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
    def _alt_cells(self) -> np.ndarray:
        return np.asarray(self.alt_positions, dtype=np.int64)

    def _cells(self, rng: np.random.Generator) -> np.ndarray:
        """The row's grid cells l in 1..L: the alternatives', then the nulls' draws."""
        return np.concatenate((self._alt_cells,
                               rng.integers(1, self.L + 1, size=self.m - self._alt_cells.size)))

    def draw(self, rng: np.random.Generator, row: np.ndarray) -> None:
        np.divide(self._cells(rng), self.L, out=row)

    def perturbed_draw(self, rng: np.random.Generator, row: np.ndarray) -> None:
        """The cells l of :meth:`draw`, then the row's uniforms u, each value
        ``(l - 1 + u) / L``: uniform on its cell ((l-1)/L, l/L], so the nulls
        are exactly Uniform(0, 1) (the randomized p-value)."""
        cells = self._cells(rng)
        cells -= 1
        rng.random(out=row)
        row += cells
        row /= self.L


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
    """Mean and standard error of the per-replicate ratios num / max(1, den);
    the error is None below 2 replicates."""
    n = sum(counts.values())
    if n == 0:
        return None
    total = sum(c * Fraction(v, max(1, r)) for (v, r), c in counts.items())
    sumsq = sum(c * Fraction(v, max(1, r)) ** 2 for (v, r), c in counts.items())
    mean = total / n
    out = {"mean": float(mean), "n": n, "std_error": None}
    if n > 1:
        var = (sumsq - total * mean) / (n - 1)
        out["std_error"] = math.sqrt(max(0.0, float(var)) / n)
    return out


def _ratio_estimate(counts: Counter) -> Optional[Dict[str, float]]:
    """Ratio of mean numerator to mean denominator, with a delta-method error
    (None below 2 replicates)."""
    n = sum(counts.values())
    sv = sum(c * v for (v, _), c in counts.items())
    sr = sum(c * r for (_, r), c in counts.items())
    if n == 0 or sr == 0:
        return None
    theta = Fraction(sv, sr)
    out = {"mean": float(theta), "n": n, "std_error": None}
    if n > 1:
        svv = Fraction(sum(c * v * v for (v, _), c in counts.items())) - Fraction(sv * sv, n)
        srr = Fraction(sum(c * r * r for (_, r), c in counts.items())) - Fraction(sr * sr, n)
        svr = Fraction(sum(c * v * r for (v, r), c in counts.items())) - Fraction(sv * sr, n)
        quad = (svv - 2 * theta * svr + theta * theta * srr) / (n - 1)
        rbar = Fraction(sr, n)
        var = float(quad) / (n * float(rbar) ** 2)
        out["std_error"] = math.sqrt(max(0.0, var))
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


# values and rows per block: bound the harness's memory per process whatever
# m is.  A run splits between processes only at block boundaries, so a run of
# one block stays in one process; the row cap keeps a long run of small rows
# splittable (5,000 replicates of m = 6 make 5 blocks, not 1).
_BLOCK_VALUES = 1 << 16
_BLOCK_ROWS = 1 << 10


def _run_blocks(spec: GeneratorSpec, seed: int, start: int, n: int, draw: Callable,
                make_stage: Callable[[int], Callable], add: Callable):
    """The one seeded block loop: replicates ``start .. start + n - 1`` of
    ``seed``, each row filled by ``draw`` (``spec.draw`` or a grid design's
    ``perturbed_draw``) from its own stream into a buffer allocated once per
    run, a block of rows at a time, checked, and handed to ``stage(indices,
    values)``, where ``stage = make_stage(rows)`` is made once for blocks of
    at most ``rows`` rows.  The blocks run in one range per usable core, each
    after the first in a forked child, and their tallies are folded with
    ``add`` in replicate order."""
    n = _integer("the replicate count", n)
    if n < 1:
        raise ValueError(f"the replicate count must be >= 1, got {n}")
    start = _integer("replicate index", start)
    _check_key(seed, start)  # before any child is forked; each block checks its own keys
    m = spec.null_flags.size
    rows = max(1, min(_BLOCK_ROWS, _BLOCK_VALUES // m, n))
    x = np.empty((rows, m))
    stage = make_stage(rows)

    def run(part: range) -> list:
        def block(first: int):
            indices = range(first, min(first + rows, part.stop))
            values = x[:len(indices)]
            for row, rng in zip(values, _replicate_streams(seed, indices)):
                draw(rng, row)
            check_values(values, spec.scale)
            return stage(indices, values)
        return [reduce(add, map(block, range(part.start, part.stop, rows)))]

    return reduce(add, _in_processes(run, _split_blocks(start, n, rows), "replicates"))


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


def _replayed_streams(draw: Callable, m: int, seed: int,
                      indices: Sequence[int]) -> Iterator[np.random.Generator]:
    """The streams of the ascending replicate ``indices`` in turn, each at the
    state its row's ``draw`` of m values left: Philox is counter-based, so
    re-keying to (seed, index) and repeating the run's own draw into a
    scratch row rebuilds that state bit for bit.  The block's draw checked
    those values."""
    scratch = np.empty(m)
    for rng in _replicate_streams(seed, indices):
        draw(rng, scratch)
        yield rng


def _boundary_nulls(p, cut, nulls, after_draws) -> np.ndarray:
    """1 where the last rejection is a true null, per row.  A boundary tie of
    nulls with non-nulls resolves uniformly at random from the row's stream
    at the state its other draws left: ``after_draws(tied_rows)`` yields
    those streams of the ascending ``tied_rows``.  Other ties need no draw."""
    at = p == cut[:, None]
    ties = np.count_nonzero(at, axis=1)
    hits = np.count_nonzero(at & nulls, axis=1)
    out = (hits > 0).astype(np.int64)
    tied_rows = np.flatnonzero((hits > 0) & (hits < ties))
    for i, rng in zip(tied_rows, after_draws(tied_rows)):
        tied = np.flatnonzero(at[i])
        out[i] = nulls[tied[rng.integers(tied.size)]]
    return out


def _outcome_stage(spec: GeneratorSpec, procedure: ProcedureConfig, criteria,
                   replay: Callable, rows: int) -> Callable:
    """The block stage of :func:`mc_error_rates`: sort, threshold and count
    each criterion's outcomes; ``replay(indices)`` yields the streams of
    tied rows at the state their draws left.  Its sort and support-line
    objective buffers hold ``rows`` rows and are allocated once, here."""
    nulls = spec.null_flags
    m1 = nulls.size - np.count_nonzero(nulls)
    sort_buffer = np.empty((rows, nulls.size))
    objective = np.empty((rows, nulls.size + 1)) if procedure.kind == "support-line" else None

    def stage(indices: range, values: np.ndarray) -> Dict[str, Counter]:
        def after_draws(tied_rows: np.ndarray) -> Iterator[np.random.Generator]:
            return replay([indices[i] for i in tied_rows])

        n = len(indices)
        p = to_pvalues(values, spec.scale)
        ps = sort_buffer[:n]
        np.copyto(ps, p)
        ps.sort(axis=1)
        cut = _row_thresholds(ps, procedure, None if objective is None else objective[:n])
        if any(isinstance(c, (Fdr, Power)) for c in criteria):
            rejected = p <= cut[:, None]
            r = np.count_nonzero(rejected, axis=1)
            v = np.count_nonzero(rejected & nulls, axis=1)
        counts = {c.name: Counter() for c in criteria}
        for crit in criteria:
            if isinstance(crit, Fdr):
                num, den = v, r
            elif isinstance(crit, Bfdr):
                num, den = _boundary_nulls(p, cut, nulls, after_draws), np.ones(n, np.int64)
            elif isinstance(crit, Power):
                if m1 == 0:
                    continue
                num, den = r - v, np.full(n, m1)
            else:
                inside = (values >= crit.s) & (values <= crit.t)
                num = np.count_nonzero(inside & nulls, axis=1)
                den = np.count_nonzero(inside, axis=1)
                if isinstance(crit, PfdrInterval):
                    num, den = num[den > 0], den[den > 0]
            counts[crit.name].update(_tally(num, den))
        return counts

    return stage


def _add_counts(a: Dict[str, Counter], b: Dict[str, Counter]) -> Dict[str, Counter]:
    """``a`` with ``b``'s counts added in place, so a fold costs what each block adds."""
    for name, counts in b.items():
        a[name].update(counts)
    return a


def mc_error_rates(spec: GeneratorSpec, procedure: ProcedureConfig, n_reps: int,
                   criteria: Sequence[Criterion], seed: int,
                   start: int = 0) -> MonteCarloReport:
    """Estimate the requested criteria over n_reps seeded replicates.

    ``start`` offsets the replicate indices so a run can be split into
    sub-runs over adjacent ranges whose merge (:func:`merge_reports`)
    reproduces the unsplit run exactly.  Each run does so itself: the block
    loop runs one range of whole blocks per usable core and adds their counts
    in range order, so the report does not depend on the number of
    processes.  The boundary criterion breaks ties at the threshold uniformly
    at random from the replicate's own stream.
    """
    criteria = tuple(criteria)
    if not criteria:
        raise ValueError("criteria must name at least one criterion")
    if len({c.name for c in criteria}) != len(criteria):
        raise ValueError("criteria names must be unique")
    for c in criteria:
        # also refuses a NaN bound, which would select no value
        if isinstance(c, (MfdrInterval, PfdrInterval)) and not c.s <= c.t:
            raise ValueError(f"interval criterion {c.name} needs bounds s <= t")
    if procedure.perturb and not isinstance(spec, DiscreteUniformNulls):
        raise ValueError(f"perturbation needs a grid generator, not {type(spec).__name__}")
    draw = spec.perturbed_draw if procedure.perturb else spec.draw
    replay = partial(_replayed_streams, draw, spec.null_flags.size, seed)
    counts = _run_blocks(spec, seed, start, n_reps, draw,
                         partial(_outcome_stage, spec, procedure, criteria, replay), _add_counts)
    config = {"generator": repr(spec), "procedure": repr(procedure),
              "criteria": [c.name for c in criteria], "seed": int(seed)}
    return _report(int(start), int(n_reps), config, criteria, counts)


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
    """Pool scores across replicates and report the null fraction per bin.
    The block loop of :func:`mc_error_rates` draws the rows and adds the
    blocks' bin counts, which do not depend on the number of processes."""
    if not 0.0 < bin_width < 1.0:
        raise ValueError("bin_width must lie in (0, 1)")
    nbins = int(round(1.0 / bin_width))
    if abs(nbins * bin_width - 1.0) > 1e-9:
        raise ValueError("bin_width must divide [0, 1] evenly")
    if scorer not in SCORERS:
        raise ValueError(f"unknown scorer {scorer!r}; choose from {SCORERS}")
    oracle = oracle_score_fn(spec) if scorer == "oracle-lfdr" else None
    nulls = spec.null_flags

    def bin_counts(indices: range, values: np.ndarray) -> np.ndarray:
        # bin counts of the alternatives, then of the nulls
        scores = _score_block(scorer, values, spec.scale, oracle)
        idx = np.clip((scores / bin_width).astype(int), 0, nbins - 1)
        return np.bincount((idx + nbins * nulls).ravel(), minlength=2 * nbins)

    tally = _run_blocks(spec, seed, 0, reps, spec.draw, lambda rows: bin_counts, np.add)
    null_counts = tally[nbins:]
    counts = tally[:nbins] + null_counts
    with np.errstate(invalid="ignore"):
        frac = np.where(counts > 0, null_counts / np.maximum(counts, 1), np.nan)
    edges = np.linspace(0.0, 1.0, nbins + 1)
    return CalibrationCurve(edges, frac, counts)
