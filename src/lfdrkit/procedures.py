"""Multiple-testing procedures and error criteria.

Covers the estimated-FDP threshold rule (step-up), its q-values, the
support-line rule (which maximizes ``alpha*k/m - p_(k)`` over the number of
rejections k), score-threshold decision rules, weighted classification loss,
and interval FDP estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .core import GroundTruth, LossSpec, Scale, StatVector


class Procedure(Enum):
    BH = "bh"
    STOREY_BH = "storey-bh"
    SUPPORT_LINE = "support-line"


@dataclass(frozen=True)
class RejectionResult:
    """Output of a threshold procedure: a lower set of the p-values.

    ``boundary_stat`` is the largest rejected p-value (None when nothing is
    rejected) and ``boundary_index`` the original index of that order
    statistic; with tied boundary values the index of the earliest tied
    statistic in stable sort order is reported.
    """

    rejected: np.ndarray
    n_rejections: int
    boundary_stat: Optional[float]
    boundary_index: Optional[int]
    alpha: float
    procedure: Procedure

    def __post_init__(self):
        idx = np.array(self.rejected, dtype=int)
        idx.setflags(write=False)
        object.__setattr__(self, "rejected", idx)
        if self.n_rejections != idx.size:
            raise ValueError("n_rejections must equal len(rejected)")
        if (self.n_rejections > 0) != (self.boundary_stat is not None):
            raise ValueError("boundary_stat must be present iff rejections exist")


def _require_pvalues(stats: StatVector) -> np.ndarray:
    if stats.scale is not Scale.P_VALUE:
        raise ValueError("procedure expects p-scale statistics")
    return stats.values


def _lower_set(ps: np.ndarray, order: np.ndarray, k: int, alpha: float,
               procedure: Procedure) -> RejectionResult:
    """Reject the k smallest p-values, ``order[:k]`` of the sorted ``ps``.

    k must end a tie run; the boundary index is the earliest tied statistic
    at ``ps[k - 1]`` in stable sort order.
    """
    rejected = np.sort(order[:k])
    if k == 0:
        return RejectionResult(rejected, 0, None, None, alpha, procedure)
    b_pos = int(np.searchsorted(ps, ps[k - 1], side="left"))
    return RejectionResult(rejected, k, float(ps[k - 1]), int(order[b_pos]), alpha, procedure)


def _fdp_hat_core(m0: float, t, n_at_or_below):
    """Shared arithmetic for the FDP estimate so callers agree bitwise."""
    t = np.asarray(t, dtype=float)
    n = np.asarray(n_at_or_below, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = m0 * t / n
    out = np.where(t == 0.0, 0.0, out)
    out = np.where((n == 0.0) & (t > 0.0), math.inf, out)
    return out


def _fdp_hat_sorted(m0, ps: np.ndarray) -> np.ndarray:
    """Estimated FDP at each sorted p-value, with count k at the k-th: the
    last of a tie run has the true count and the smallest estimate, so
    step-up thresholds and q-values equal those from true counts."""
    return _fdp_hat_core(m0, ps, np.arange(1, ps.shape[-1] + 1))


def step_up_thresholds(ps: np.ndarray, alpha: float, m0) -> np.ndarray:
    """Step-up threshold of each row of sorted p-values.

    The largest ``p_(k)`` whose estimated FDP is at most alpha, or 0 when
    none is; ``m0`` broadcasts against the rows.
    """
    return np.where(_fdp_hat_sorted(m0, ps) <= alpha, ps, 0.0).max(axis=-1)


def _support_line_objective(ps: np.ndarray, alpha: float,
                            out: Optional[np.ndarray] = None) -> np.ndarray:
    """``alpha*k/m - p_(k)`` for k = 0..m along each row of sorted p-values.

    ``out`` (shape ``ps.shape[:-1] + (m + 1,)``, allocated when None) holds
    it with k descending, and the result is the reversed view of ``out``, so
    the search for the largest maximizing k reads ``out`` itself.
    """
    m = ps.shape[-1]
    if out is None:
        out = np.empty(ps.shape[:-1] + (m + 1,))
    out[..., :m] = ps[..., ::-1]
    out[..., m] = 0.0
    np.subtract(alpha * np.arange(m, -1, -1) / m, out, out=out)
    return out[..., ::-1]


def support_line_counts(ps: np.ndarray, alpha: float,
                        out: Optional[np.ndarray] = None) -> np.ndarray:
    """Support-line rejection count of each row of sorted p-values: the
    largest maximizing k.  It ends a tie run, so the rule rejects exactly the
    p-values at or below ``p_(k)``.  ``out`` is the objective's buffer."""
    objective = _support_line_objective(ps, alpha, out)
    return ps.shape[-1] - np.argmax(objective[..., ::-1], axis=-1)


def fdp_hat(stats: StatVector, t: float, m0_hat: Optional[float] = None) -> float:
    """Estimated FDP of the rejection region [0, t]: ``m0_hat * t / #{p <= t}``.

    ``m0_hat`` defaults to m.  Returns 0 at t = 0 and +inf when the region
    is empty with t > 0.
    """
    p = _require_pvalues(stats)
    if not 0.0 <= t <= 1.0:
        raise ValueError("t must lie in [0, 1]")
    m0 = float(m0_hat) if m0_hat is not None else float(stats.m)
    n = int(np.count_nonzero(p <= t))
    return float(_fdp_hat_core(m0, t, n))


def bh_threshold(stats: StatVector, alpha: float,
                 m0_hat: Optional[float] = None) -> RejectionResult:
    """Reject below the largest candidate threshold whose estimated FDP is <= alpha.

    Candidate thresholds are 0 and the observed p-values; the optional
    ``m0_hat`` gives the null-adjusted (Storey-style) variant.
    """
    p = _require_pvalues(stats)
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    m0 = float(m0_hat) if m0_hat is not None else float(stats.m)
    ps = p[stats.order]
    proc = Procedure.BH if m0_hat is None else Procedure.STOREY_BH
    # threshold 0 still rejects any exact-zero p-values
    that = float(step_up_thresholds(ps, alpha, m0))
    k = int(np.searchsorted(ps, that, side="right"))
    return _lower_set(ps, stats.order, k, alpha, proc)


@dataclass(frozen=True)
class QValueVector:
    """Per-hypothesis q-values aligned to the input order."""

    qvalues: np.ndarray

    def __post_init__(self):
        arr = np.array(self.qvalues, dtype=float)
        arr.setflags(write=False)
        object.__setattr__(self, "qvalues", arr)


def q_values(stats: StatVector, m0_hat: Optional[float] = None) -> QValueVector:
    """Smallest level at which the step-up rule rejects each hypothesis.

    Backward recursion on the sorted sample:
    ``q_(m) = fdp_hat(p_(m))`` and ``q_(i) = min(fdp_hat(p_(i)), q_(i+1))``.
    """
    p = _require_pvalues(stats)
    m0 = float(m0_hat) if m0_hat is not None else float(stats.m)
    fdp = _fdp_hat_sorted(m0, p[stats.order])
    q_sorted = np.minimum.accumulate(fdp[::-1])[::-1]
    q = np.empty_like(q_sorted)
    q[stats.order] = q_sorted
    return QValueVector(np.minimum(q, 1.0))


def support_line(stats: StatVector, alpha: float) -> RejectionResult:
    """Reject the R smallest p-values, R = argmax_k {alpha*k/m - p_(k)}.

    ``p_(0) = 0``; ties in the argmax resolve to the largest maximizing k.
    """
    p = _require_pvalues(stats)
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    ps = p[stats.order]
    r = int(support_line_counts(ps, alpha))
    return _lower_set(ps, stats.order, r, alpha, Procedure.SUPPORT_LINE)


def support_line_objective(stats: StatVector, alpha: float) -> np.ndarray:
    """The m+1 values ``alpha*k/m - p_(k)`` for k = 0..m (diagnostics)."""
    return _support_line_objective(_require_pvalues(stats)[stats.order], alpha)


def lfdr_threshold_rule(scores: Sequence[float], loss: LossSpec) -> np.ndarray:
    """Reject hypothesis i iff its score is at most 1/(1 + lambda)."""
    arr = np.asarray(scores, dtype=float)
    if arr.size and (arr.min() < 0.0 or arr.max() > 1.0):
        raise ValueError("scores must lie in [0, 1]")
    return arr <= loss.threshold


@dataclass(frozen=True)
class WeightedLoss:
    """Both forms of the classification loss for one decision vector."""

    canonical: float   # lambda * false positives + false negatives
    net: float         # lambda * V - (R - V)


def weighted_loss(truth: GroundTruth, decisions: Sequence[bool],
                  loss: LossSpec) -> WeightedLoss:
    dec = np.asarray(decisions, dtype=bool)
    if dec.size != truth.m:
        raise ValueError("decisions must match the number of hypotheses")
    nulls = truth.null_flags
    fp = int(np.count_nonzero(dec & nulls))
    fn = int(np.count_nonzero(~dec & ~nulls))
    r = int(np.count_nonzero(dec))
    return WeightedLoss(
        canonical=loss.lambda_ * fp + fn,
        net=loss.lambda_ * fp - (r - fp),
    )


def interval_fdp_estimate(stats: StatVector, m0_hat: float, s: float, t: float) -> float:
    """Estimated FDP of the hypothetical rejection region [s, t].

    ``m0_hat * (t - s) / #{p_i in [s, t]}``; +inf when the interval holds no
    p-values.
    """
    p = _require_pvalues(stats)
    if not (0.0 <= s < t <= 1.0):
        raise ValueError("need 0 <= s < t <= 1")
    n = int(np.count_nonzero((p >= s) & (p <= t)))
    if n == 0:
        return math.inf
    return float(m0_hat) * (t - s) / n


@dataclass(frozen=True)
class ErrorRates:
    """Realized error quantities of one rejection result against the truth."""

    fdp: float
    boundary_is_null: bool
    V: int


def empirical_error_rates(result: RejectionResult, truth: GroundTruth) -> ErrorRates:
    """FDP = V / max(1, R); the boundary event is False when R = 0."""
    rej = result.rejected
    if rej.size and (rej.min() < 0 or rej.max() >= truth.m):
        raise ValueError("rejected indices out of range for the truth vector")
    v = int(np.count_nonzero(truth.null_flags[rej])) if rej.size else 0
    fdp = v / max(1, result.n_rejections)
    boundary_null = bool(
        result.n_rejections > 0 and truth.null_flags[result.boundary_index])
    return ErrorRates(fdp=fdp, boundary_is_null=boundary_null, V=v)


def boundary_tie_indices(stats: StatVector, result: RejectionResult) -> np.ndarray:
    """Indices of every statistic equal to the boundary value (all rejected)."""
    if result.n_rejections == 0:
        return np.empty(0, dtype=int)
    return np.flatnonzero(stats.values == result.boundary_stat)


def perturb_grid_pvalues(stats: StatVector, L: int,
                         rng: np.random.Generator) -> StatVector:
    """Smooth grid p-values: given p = l/L, draw uniformly on ((l-1)/L, l/L].

    Null p-values uniform on the grid become exactly Uniform(0, 1), which
    restores the boundary-FDR guarantee of the support-line rule.
    """
    p = _require_pvalues(stats)
    return StatVector(grid_perturbation(p, L, rng.random(p.size)), Scale.P_VALUE,
                      ids=stats.ids)


def grid_perturbation(p: np.ndarray, L: int, u: np.ndarray,
                      out: Optional[np.ndarray] = None) -> np.ndarray:
    """``(l - 1 + u) / L`` for grid p-values ``p = l/L`` and uniforms u, elementwise.

    The result goes to ``out`` when given, which may be p itself; after a
    ValueError its contents are unspecified.
    """
    pl = p * L
    ell = np.rint(pl, out=out)
    np.abs(np.subtract(pl, ell, out=pl), out=pl)
    if np.any(pl > 1e-9) or np.any(ell < 1):
        raise ValueError(f"statistics are not supported on the 1/{L} grid")
    ell -= 1.0
    ell += u
    ell /= L
    return ell
