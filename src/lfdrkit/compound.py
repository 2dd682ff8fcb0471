"""Exact compound scores: posterior null probabilities under random relabeling.

For hypotheses with per-hypothesis densities f_1..f_m and a statistic vector
t, the compound score of position i is the ratio of permutation sums

    sum_{pi : H_{pi(i)} null} prod_j f_{pi(j)}(t_j)
    ------------------------------------------------
    sum_{pi}                  prod_j f_{pi(j)}(t_j)

Two exact evaluation paths are provided: a generic subset DP over hypothesis
assignments (cost ~ 2^m, capped at m = 20) and an O(m * m1) prefix/suffix
elementary-symmetric table for the common case of exactly one null and one
alternative density, with m1 alternatives.  Scores always sum to the number
of true nulls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .core import (
    CapacityError,
    DegeneracyError,
    Density,
    GroundTruth,
    StatVector,
    _frozen_array,
)
from .lfdr import LfdrCurve

_GENERIC_MAX_M = 20


@dataclass(frozen=True)
class ClfdrResult:
    """Per-hypothesis compound scores."""

    scores: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "scores", _frozen_array(self.scores, float))


def _log_esym_prefixes(log_r: np.ndarray, degree: int) -> np.ndarray:
    """``e[i, k] = log e_k(exp(log_r[:i]))`` for i = 0..m, k = 0..degree.

    The elementary symmetric polynomials of the first i ratios, built one
    variable at a time in the log domain, so zero ratios (-inf) are exact.
    """
    m = log_r.size
    e = np.full((m + 1, degree + 1), -math.inf)
    e[:, 0] = 0.0
    for i in range(m):
        e[i + 1, 1:] = np.logaddexp(e[i, 1:], log_r[i] + e[i, :-1])
    return e


def _two_groups_scores(log_r: np.ndarray, m1: int) -> Tuple[np.ndarray, float]:
    """Scores from the log likelihood ratios log(f1(t_j)/f0(t_j)) of one row.

    With one shared null and one shared alternative density the permutation
    sums collapse to elementary symmetric polynomials in r: the score of
    position i is e_{m1}(r without r_i) / e_{m1}(r).  The numerator joins the
    prefix table of r_0..r_{i-1} to the suffix table of r_{i+1}..r_{m-1}, so
    the cost is O(m * m1) in time and memory.  Returns the scores and
    log e_{m1}(r).
    """
    prefix = _log_esym_prefixes(log_r, m1)
    suffix = _log_esym_prefixes(log_r[::-1], m1)[::-1]
    # terms[i, k] = log e_k(r_0..r_{i-1}) + log e_{m1-k}(r_{i+1}..r_{m-1})
    terms = prefix[:-1] + suffix[1:, ::-1]
    top = terms.max(axis=1)
    top[~np.isfinite(top)] = 0.0
    terms -= top[:, None]
    np.exp(terms, out=terms)
    log_e = prefix[-1, m1]
    with np.errstate(divide="ignore", invalid="ignore"):
        scores = np.exp(top + np.log(terms.sum(axis=1)) - log_e)
    return scores, log_e


def _subsets_by_size(m: int):
    masks = np.arange(1 << m, dtype=np.int64)
    pop = np.zeros(1 << m, dtype=np.int64)
    for b in range(m):
        pop += (masks >> b) & 1
    return [masks[pop == k] for k in range(m + 1)]


def _clfdr_generic(dens: np.ndarray, null_flags: np.ndarray) -> np.ndarray:
    """Subset DP over hypothesis-to-position assignments.

    ``dens[h, j]`` is the density of hypothesis h at statistic j.  Columns
    are rescaled by their maximum (scores are invariant to per-column
    scaling); ``f[S]`` accumulates assignments of hypothesis set S to the
    first |S| positions and ``g[S]`` to the last |S| positions.
    """
    m = dens.shape[0]
    col_max = dens.max(axis=0)
    if np.any(col_max <= 0.0):
        j = int(np.argmax(col_max <= 0.0))
        raise DegeneracyError(f"statistic {j} has zero density under every model")
    M = dens / col_max

    full = (1 << m) - 1
    by_size = _subsets_by_size(m)
    f = np.zeros(1 << m)
    g = np.zeros(1 << m)
    f[0] = g[0] = 1.0
    for k in range(1, m + 1):
        for S, table, col in ((by_size[k], f, k - 1), (by_size[k], g, m - k)):
            acc = np.zeros(S.size)
            for h in range(m):
                bit = 1 << h
                has = (S & bit) != 0
                acc[has] += table[S[has] ^ bit] * M[h, col]
            table[S] = acc

    total = f[full]
    if total <= 0.0:
        raise DegeneracyError("every relabeling has zero likelihood")

    nulls = np.flatnonzero(null_flags)
    scores = np.empty(m)
    for i in range(m):
        S = by_size[i]
        num = 0.0
        for h in nulls:
            bit = 1 << h
            ok = (S & bit) == 0
            if np.any(ok):
                comp = full ^ S[ok] ^ bit
                num += M[h, i] * float(f[S[ok]] @ g[comp])
        scores[i] = num / total
    return scores


def clfdr_exact(stats: StatVector, truth: GroundTruth,
                models: Sequence[Density]) -> ClfdrResult:
    """Exact compound scores for every hypothesis.

    When the null rows share one density and the alternatives another, the
    O(m * m1) symmetric-function path runs (any m); otherwise the generic
    subset DP runs and m is capped at 20.
    """
    m = stats.m
    if truth.m != m or len(models) != m:
        raise ValueError("stats, truth, and models must agree in length")
    null_flags = truth.null_flags

    null_models = {models[i] for i in range(m) if null_flags[i]}
    alt_models = {models[i] for i in range(m) if not null_flags[i]}
    two_groups = len(null_models) <= 1 and len(alt_models) <= 1

    if two_groups and truth.m0 in (0, m):
        # single shared density: every relabeling is identical
        only = (null_models or alt_models).pop()
        dens = np.asarray(only.pdf(stats.values), dtype=float)
        if np.any(dens <= 0.0):
            raise DegeneracyError("a statistic has zero density under every model")
        return ClfdrResult(np.full(m, truth.m0 / m))

    if two_groups:
        f0 = null_models.pop()
        f1 = alt_models.pop()
        d0 = np.asarray(f0.pdf(stats.values), dtype=float)
        d1 = np.asarray(f1.pdf(stats.values), dtype=float)
        if np.all(np.isfinite(d0)) and np.all(np.isfinite(d1)) and np.all(d0 > 0.0):
            if np.any(d0 + d1 <= 0.0):
                raise DegeneracyError("a statistic has zero density under every model")
            with np.errstate(divide="ignore"):
                log_r = np.log(d1) - np.log(d0)
            scores, log_e = _two_groups_scores(log_r, m - truth.m0)
            if not np.isfinite(log_e):
                raise DegeneracyError("every relabeling has zero likelihood")
            return ClfdrResult(scores)
        # fall through to the generic path for zero/inf null densities

    if m > _GENERIC_MAX_M:
        raise CapacityError(f"generic exact path is limited to m <= {_GENERIC_MAX_M}")
    dens = np.stack([np.asarray(mod.pdf(stats.values), dtype=float) for mod in models])
    if not np.all(np.isfinite(dens)):
        raise DegeneracyError("non-finite density evaluation in the generic path")
    return ClfdrResult(_clfdr_generic(dens, null_flags))


@dataclass(frozen=True)
class ClfdrGap:
    """Worst relative disagreement between compound and pointwise scores."""

    max_ratio_dev: float


def clfdr_vs_lfdr_gap(stats: StatVector, truth: GroundTruth,
                      models: Sequence[Density], curve: LfdrCurve) -> ClfdrGap:
    """max_i |clfdr_i / lfdr(t_i) - 1| over the observed statistics; where both
    scores are 0 (the null density vanishes) they agree, and x/0 is inf."""
    res = clfdr_exact(stats, truth, models)
    pointwise = np.asarray(curve.evaluate(stats.values), dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        dev = np.where(res.scores == pointwise, 0.0, np.abs(res.scores / pointwise - 1.0))
    return ClfdrGap(float(dev.max()))
