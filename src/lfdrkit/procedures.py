"""Multiple-testing procedures and score-threshold decisions.

Covers the estimated-FDP threshold rule (step-up, with or without a null
count estimate), its q-values, the support-line rule (which maximizes
``alpha*k/m - p_(k)`` over the number of rejections k), thresholding scores
at 1/(1 + lambda), and the perturbation that smooths grid p-values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .core import LossSpec, Scale, StatVector


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


def _lower_set(ps: np.ndarray, order: np.ndarray, k: int) -> RejectionResult:
    """Reject the k smallest p-values, ``order[:k]`` of the sorted ``ps``.

    k must end a tie run; the boundary index is the earliest tied statistic
    at ``ps[k - 1]`` in stable sort order.
    """
    rejected = np.sort(order[:k])
    if k == 0:
        return RejectionResult(rejected, 0, None, None)
    b_pos = int(np.searchsorted(ps, ps[k - 1], side="left"))
    return RejectionResult(rejected, k, float(ps[k - 1]), int(order[b_pos]))


def _null_count(stats: StatVector, m0_hat: Optional[float]) -> float:
    """The null count of the FDP estimate: ``m0_hat``, or m when it is None."""
    if m0_hat is None:
        return float(stats.m)
    m0 = float(m0_hat)
    if not (math.isfinite(m0) and m0 >= 0.0):
        raise ValueError(f"m0_hat must be finite and >= 0, got {m0_hat!r}")
    return m0


def _fdp_hat_sorted(m0, ps: np.ndarray) -> np.ndarray:
    """Estimated FDP ``m0 * p_(k) / k`` at each sorted p-value: the last of a
    tie run has the true count and the smallest estimate, so step-up
    thresholds and q-values equal those from true counts.  Every ``m0`` is
    finite and non-negative and k >= 1, so every estimate is finite."""
    return m0 * ps / np.arange(1, ps.shape[-1] + 1)


def step_up_thresholds(ps: np.ndarray, alpha: float, m0) -> np.ndarray:
    """Step-up threshold of each row of sorted p-values.

    The largest ``p_(k)`` whose estimated FDP is at most alpha, or 0 when
    none is; ``m0`` broadcasts against the rows.
    """
    return np.where(_fdp_hat_sorted(m0, ps) <= alpha, ps, 0.0).max(axis=-1)


def support_line_counts(ps: np.ndarray, alpha: float,
                        out: Optional[np.ndarray] = None) -> np.ndarray:
    """Support-line rejection count of each row of sorted p-values: the
    largest k maximizing ``alpha*k/m - p_(k)``, with ``p_(0) = 0``.  It ends a
    tie run, so the rule rejects exactly the p-values at or below ``p_(k)``.

    ``out`` (shape ``ps.shape[:-1] + (m + 1,)``, allocated when None) holds
    the objective with k descending, so the first maximum is the largest k.
    """
    m = ps.shape[-1]
    if out is None:
        out = np.empty(ps.shape[:-1] + (m + 1,))
    out[..., :m] = ps[..., ::-1]
    out[..., m] = 0.0
    np.subtract(alpha * np.arange(m, -1, -1) / m, out, out=out)
    return m - np.argmax(out, axis=-1)


def bh_threshold(stats: StatVector, alpha: float,
                 m0_hat: Optional[float] = None) -> RejectionResult:
    """Reject below the largest candidate threshold whose estimated FDP is <= alpha.

    Candidate thresholds are 0 and the observed p-values; the optional
    ``m0_hat`` gives the null-adjusted (Storey-style) variant.
    """
    p = _require_pvalues(stats)
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    m0 = _null_count(stats, m0_hat)
    ps = p[stats.order]
    # threshold 0 still rejects any exact-zero p-values
    that = float(step_up_thresholds(ps, alpha, m0))
    k = int(np.searchsorted(ps, that, side="right"))
    return _lower_set(ps, stats.order, k)


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
    ``q_(m) = fdp_hat(p_(m))`` and ``q_(i) = min(fdp_hat(p_(i)), q_(i+1))``,
    where ``fdp_hat(p_(i)) = m0_hat * p_(i) / i``.
    """
    p = _require_pvalues(stats)
    fdp = _fdp_hat_sorted(_null_count(stats, m0_hat), p[stats.order])
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
    return _lower_set(ps, stats.order, r)


def lfdr_threshold_rule(scores: Sequence[float], loss: LossSpec) -> np.ndarray:
    """Reject hypothesis i iff its score is at most 1/(1 + lambda)."""
    arr = np.asarray(scores, dtype=float)
    # min and max propagate NaN, which fails both comparisons
    if arr.size and not (arr.min() >= 0.0 and arr.max() <= 1.0):
        raise ValueError("scores must lie in [0, 1]")
    return arr <= loss.threshold


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
