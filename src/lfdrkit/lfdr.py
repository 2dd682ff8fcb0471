"""Local false discovery rate curves, null-proportion estimates, and scoring.

The central object is the intensity ratio ``pi0 * f0(t) / fbar(t)`` where
``f0`` is the null density and ``fbar`` the average density of all m
statistics.  Evaluated at a point it gives the relative frequency of null
statistics there; clipped at 1 it is a per-hypothesis score in [0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    Density,
    DomainError,
    EstimationError,
    GroundTruth,
    Scale,
    StatVector,
)


def lfdr_ratio(pi0, f0_vals, fbar_vals, clip: bool = True):
    """Core ratio pi0*f0/fbar with the zero-density contract.

    Raises :class:`DomainError` wherever ``fbar`` vanishes (including 0/0)
    or both densities are infinite, never silently returning NaN; the ratio
    is 0 where only ``fbar`` is infinite.  Works elementwise on arrays.
    """
    f0_vals = np.asarray(f0_vals, dtype=float)
    fbar_vals = np.asarray(fbar_vals, dtype=float)
    if np.any(fbar_vals <= 0.0):
        raise DomainError("average density vanishes at an evaluation point")
    with np.errstate(invalid="ignore"):
        out = pi0 * f0_vals / fbar_vals
    # inf null density over finite average: relative frequency saturates at 1
    out = np.where(np.isposinf(f0_vals) & np.isfinite(fbar_vals), np.inf, out)
    if np.any(np.isnan(out)):
        raise DomainError("indeterminate density ratio at an evaluation point")
    return np.minimum(out, 1.0) if clip else out


@dataclass(frozen=True)
class LfdrCurve:
    """Scoring function t -> pi0 * f0(t) / fbar(t), clipped at 1 by default."""

    pi0: float
    null_density: Density
    avg_density: Density
    clip: bool = True

    def __post_init__(self):
        if not 0.0 <= self.pi0 <= 1.0:
            raise ValueError("pi0 must lie in [0, 1]")

    def evaluate(self, t):
        vals = lfdr_ratio(
            self.pi0,
            self.null_density.pdf(t),
            self.avg_density.pdf(t),
            clip=self.clip,
        )
        return float(vals) if np.ndim(t) == 0 else vals


def oracle_lfdr(truth: GroundTruth, models: Sequence[Density], t) -> float:
    """Relative frequency of null statistics at t.

    ``sum_{i null} f_i(t) / sum_i f_i(t)`` over the per-hypothesis densities,
    with the zero-density contract of :func:`lfdr_ratio`.
    """
    if len(models) != truth.m:
        raise ValueError("need one density per hypothesis")
    arr = np.asarray(t, dtype=float)
    dens = np.stack([np.asarray(mod.pdf(arr), dtype=float) for mod in models])
    num = dens[truth.null_flags].sum(axis=0)
    out = lfdr_ratio(1.0, num, dens.sum(axis=0), clip=False)
    return float(out) if np.ndim(t) == 0 else out


@dataclass(frozen=True)
class Pi0Estimate:
    """Estimated fraction of true nulls; ``value`` is ``raw`` clipped at 1."""

    value: float
    raw: float


def storey_pi0(stats: StatVector, lambda_: float = 0.5) -> Pi0Estimate:
    """Null-proportion estimate #{p_i > lambda} / (m * (1 - lambda))."""
    if stats.scale is not Scale.P_VALUE:
        raise ValueError("storey_pi0 expects p-scale statistics")
    raw = float(storey_pi0_raw(stats.values, lambda_))
    return Pi0Estimate(value=min(raw, 1.0), raw=raw)


def storey_pi0_raw(p: np.ndarray, lambda_: float):
    """The unclipped Storey estimate along the last axis of an array of p-values."""
    if not 0.0 < lambda_ < 1.0:
        raise ValueError("lambda_ must lie in (0, 1)")
    return np.count_nonzero(p > lambda_, axis=-1) / (p.shape[-1] * (1.0 - lambda_))


def selection_window_pi0(stats: StatVector, c: float, lambda_: float = 0.5) -> Pi0Estimate:
    """Null proportion among p-values selected into the window [0, c].

    The retained p-values are divided by c (making uniform nulls uniform
    again) and the standard estimator is applied to the rescaled sample.
    """
    if not 0.0 < c <= 1.0:
        raise ValueError("window must be [0, c] with c in (0, 1]")
    kept = stats.values[stats.values <= c]
    if kept.size == 0:
        raise EstimationError("no p-values inside the selection window")
    return storey_pi0(StatVector(kept / c, Scale.P_VALUE), lambda_)


def score_hypotheses(curve: LfdrCurve, stats: StatVector) -> np.ndarray:
    """Elementwise curve evaluation, order preserved.

    A DomainError is re-raised naming the first offending index.
    """
    try:
        return np.asarray(curve.evaluate(stats.values), dtype=float)
    except DomainError:
        for i, v in enumerate(stats.values):
            try:
                curve.evaluate(float(v))
            except DomainError as exc:
                label = stats.ids[i] if stats.ids is not None else str(i)
                raise DomainError(f"statistic {label} (index {i}): {exc}") from exc
        raise
