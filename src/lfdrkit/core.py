"""Shared data model: statistic vectors, ground truth, and density families.

Every other module consumes these types.  All of them are immutable after
construction, so instances can be shared freely across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Optional, Sequence, Tuple

import numpy as np
from scipy import integrate, stats


# ---------------------------------------------------------------------------
# Error taxonomy
# ---------------------------------------------------------------------------

class DomainError(ValueError):
    """Evaluation requested outside a density's support, or at a 0/0 point."""


class CapacityError(ValueError):
    """Problem size exceeds what an exact algorithm will attempt."""


class DegeneracyError(ValueError):
    """Inputs make the requested quantity ill-defined."""


class EstimationError(ValueError):
    """An estimator was given no usable data."""


class FitError(RuntimeError):
    """A fitting routine could not produce a usable fit."""


class AssumptionError(ValueError):
    """A standing assumption of a check is violated by the inputs."""


# ---------------------------------------------------------------------------
# Statistics and ground truth
# ---------------------------------------------------------------------------

class Scale(Enum):
    P_VALUE = "p"
    Z_VALUE = "z"


def to_pvalues(values: np.ndarray, scale: Scale) -> np.ndarray:
    """One-sided p-values: ``norm.sf(z)`` of z-scale statistics; p-values pass through."""
    return values if scale is Scale.P_VALUE else stats.norm.sf(values)


def check_values(values: np.ndarray, scale: Scale) -> None:
    """Raise ValueError unless every value is finite and, on the p-value scale,
    in [0, 1].  Reads ``values`` in place, whatever its shape: min and max
    propagate NaN, so two reductions check everything."""
    lo, hi = float(values.min()), float(values.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("values must be finite")
    if scale is Scale.P_VALUE and (lo < 0.0 or hi > 1.0):
        raise ValueError("p-values must lie in [0, 1]")


def _frozen_array(values, dtype) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class StatVector:
    """Observed test statistics, on either the p-value or z-value scale.

    Parameters
    ----------
    values : array-like of shape (m,)
        Observed statistics, m >= 1.  On the p-value scale every entry must
        lie in [0, 1]; exact 0 and 1 are allowed.
    scale : Scale
        Which sample space the values live on.
    ids : tuple of str, optional
        Opaque labels, unique, one per statistic.
    """

    values: np.ndarray
    scale: Scale
    ids: Optional[Tuple[str, ...]] = None

    def __post_init__(self):
        arr = _frozen_array(self.values, float)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("values must be a 1-d sequence of length >= 1")
        check_values(arr, self.scale)
        object.__setattr__(self, "values", arr)
        if self.ids is not None:
            ids = tuple(str(s) for s in self.ids)
            if len(ids) != arr.size:
                raise ValueError("ids must match values in length")
            if len(set(ids)) != len(ids):
                raise ValueError("ids must be unique")
            object.__setattr__(self, "ids", ids)

    @property
    def m(self) -> int:
        return int(self.values.size)

    @cached_property
    def order(self) -> np.ndarray:
        """Read-only stable ascending ``argsort`` of ``values``.

        Computed once and shared by every fit and procedure that sorts;
        ``values`` is frozen, so the cached order cannot go stale.
        """
        order = np.argsort(self.values, kind="stable")
        order.setflags(write=False)
        return order


@dataclass(frozen=True)
class GroundTruth:
    """Truth status of each hypothesis: True marks a true null."""

    null_flags: np.ndarray

    def __post_init__(self):
        flags = _frozen_array(self.null_flags, bool)
        if flags.ndim != 1 or flags.size < 1:
            raise ValueError("null_flags must be a 1-d sequence of length >= 1")
        object.__setattr__(self, "null_flags", flags)

    @property
    def m(self) -> int:
        return int(self.null_flags.size)

    @property
    def m0(self) -> int:
        return int(self.null_flags.sum())

    @property
    def pi0_bar(self) -> float:
        return self.m0 / self.m


# ---------------------------------------------------------------------------
# Density families
# ---------------------------------------------------------------------------

def _as_float_array(t):
    arr = np.asarray(t, dtype=float)
    return arr, (arr.ndim == 0)


class Density:
    """A density (or pmf, for discrete kinds) evaluable on its support.

    Subclasses implement ``pdf``/``cdf``/``sample`` and expose ``support``
    as a closed interval (endpoints may be infinite).  ``pdf`` raises
    :class:`DomainError` outside the support; values at support endpoints
    are the one-sided limits of the representation.
    """

    support: Tuple[float, float] = (-math.inf, math.inf)

    def _check_support(self, arr: np.ndarray) -> None:
        lo, hi = self.support
        if arr.size and (arr.min() < lo or arr.max() > hi):
            bad = arr[(arr < lo) | (arr > hi)].flat[0]
            raise DomainError(f"{bad!r} outside support [{lo}, {hi}]")

    def pdf(self, t):
        raise NotImplementedError

    def cdf(self, t):
        raise NotImplementedError

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        raise NotImplementedError(f"{type(self).__name__} does not support sampling")

    def total_mass(self) -> float:
        """Integral (or sum) of the density over its support."""
        lo, hi = self.support
        val, _ = integrate.quad(lambda x: self.pdf(x), lo, hi, limit=200)
        return val


def _scalar_like(result: np.ndarray, scalar: bool):
    return float(result) if scalar else result


@dataclass(frozen=True)
class Uniform01(Density):
    support = (0.0, 1.0)

    def pdf(self, t):
        arr, scalar = _as_float_array(t)
        self._check_support(arr)
        return _scalar_like(np.ones_like(arr), scalar)

    def cdf(self, t):
        arr, scalar = _as_float_array(t)
        return _scalar_like(np.clip(arr, 0.0, 1.0), scalar)

    def sample(self, rng, size):
        return rng.random(size)

    def total_mass(self):
        return 1.0


@dataclass(frozen=True)
class GaussianLocation(Density):
    """Normal with the given mean and unit variance."""

    mean: float = 0.0

    def pdf(self, t):
        arr, scalar = _as_float_array(t)
        return _scalar_like(stats.norm.pdf(arr, loc=self.mean), scalar)

    def cdf(self, t):
        arr, scalar = _as_float_array(t)
        return _scalar_like(stats.norm.cdf(arr, loc=self.mean), scalar)

    def sample(self, rng, size):
        return rng.normal(self.mean, 1.0, size)

    def total_mass(self):
        return 1.0


@dataclass(frozen=True)
class StudentT(Density):
    dof: float

    def __post_init__(self):
        if self.dof <= 0:
            raise ValueError("dof must be positive")

    def pdf(self, t):
        arr, scalar = _as_float_array(t)
        return _scalar_like(stats.t.pdf(arr, df=self.dof), scalar)

    def cdf(self, t):
        arr, scalar = _as_float_array(t)
        return _scalar_like(stats.t.cdf(arr, df=self.dof), scalar)

    def sample(self, rng, size):
        return rng.standard_t(self.dof, size)

    def total_mass(self):
        return 1.0


@dataclass(frozen=True)
class BetaDensity(Density):
    a: float
    b: float
    support = (0.0, 1.0)

    def __post_init__(self):
        if self.a <= 0 or self.b <= 0:
            raise ValueError("beta parameters must be positive")

    def pdf(self, t):
        arr, scalar = _as_float_array(t)
        self._check_support(arr)
        # via logpdf: beta.pdf itself overflows on denormal inputs, and the
        # one-sided limit at the endpoints (possibly inf) is wanted here
        with np.errstate(over="ignore"):
            out = np.exp(stats.beta.logpdf(arr, self.a, self.b))
        return _scalar_like(out, scalar)

    def cdf(self, t):
        arr, scalar = _as_float_array(t)
        return _scalar_like(stats.beta.cdf(arr, self.a, self.b), scalar)

    def sample(self, rng, size):
        return rng.beta(self.a, self.b, size)

    def total_mass(self):
        return 1.0


class _StepMass:
    """``cdf`` and ``total_mass`` of a density that is ``heights[j]`` between
    ``breakpoints[j]`` and ``breakpoints[j+1]``; the value at a breakpoint
    itself carries no mass, so either continuity convention shares them."""

    def cdf(self, t):
        arr, scalar = _as_float_array(t)
        edges = np.asarray(self.breakpoints)
        hts = np.asarray(self.heights)
        cum = np.concatenate([[0.0], np.cumsum(hts * np.diff(edges))])
        clipped = np.clip(arr, edges[0], edges[-1])
        idx = np.clip(np.searchsorted(edges, clipped, side="right") - 1, 0, len(hts) - 1)
        out = cum[idx] + hts[idx] * (clipped - edges[idx])
        return _scalar_like(np.clip(out, 0.0, cum[-1]), scalar)

    def total_mass(self):
        return float(np.sum(np.asarray(self.heights) * np.diff(self.breakpoints)))


@dataclass(frozen=True)
class PiecewiseConstant(_StepMass, Density):
    """Step density: ``heights[j]`` on ``[breakpoints[j], breakpoints[j+1])``.

    Right-continuous, with a defined value at the left endpoint of each
    piece; the final piece is closed at the right support endpoint.
    """

    breakpoints: Tuple[float, ...]
    heights: Tuple[float, ...]

    def __post_init__(self):
        edges = tuple(float(x) for x in self.breakpoints)
        hts = tuple(float(h) for h in self.heights)
        if len(edges) != len(hts) + 1 or len(hts) < 1:
            raise ValueError("need len(breakpoints) == len(heights) + 1 >= 2")
        if np.any(np.diff(edges) <= 0):
            raise ValueError("breakpoints must be strictly increasing")
        if min(hts) < 0:
            raise ValueError("heights must be nonnegative")
        object.__setattr__(self, "breakpoints", edges)
        object.__setattr__(self, "heights", hts)
        object.__setattr__(self, "support", (edges[0], edges[-1]))

    def pdf(self, t):
        arr, scalar = _as_float_array(t)
        self._check_support(arr)
        edges = np.asarray(self.breakpoints)
        idx = np.clip(np.searchsorted(edges, arr, side="right") - 1, 0, len(self.heights) - 1)
        return _scalar_like(np.asarray(self.heights)[idx], scalar)

    @cached_property
    def _piece_cdf(self) -> np.ndarray:
        """Normalized CDF over the pieces, as ``Generator.choice`` forms it."""
        masses = np.asarray(self.heights) * np.diff(self.breakpoints)
        if not masses.sum() > 0.0:
            raise ValueError("cannot sample a density with zero mass")
        cdf = (masses / masses.sum()).cumsum()
        return cdf / cdf[-1]

    def sample(self, rng, size):
        # the draws of rng.choice(pieces, size, p=masses / masses.sum())
        piece = self._piece_cdf.searchsorted(rng.random(size), side="right")
        edges = np.asarray(self.breakpoints)
        return edges[piece] + np.diff(edges)[piece] * rng.random(size)


@dataclass(frozen=True)
class PiecewiseLinear(Density):
    """Density linearly interpolated between (xs[j], ys[j]) nodes."""

    xs: Tuple[float, ...]
    ys: Tuple[float, ...]

    def __post_init__(self):
        xs = tuple(float(x) for x in self.xs)
        ys = tuple(float(y) for y in self.ys)
        if len(xs) != len(ys) or len(xs) < 2:
            raise ValueError("need matching xs/ys with at least two nodes")
        if np.any(np.diff(xs) <= 0):
            raise ValueError("xs must be strictly increasing")
        if min(ys) < 0:
            raise ValueError("ys must be nonnegative")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)
        object.__setattr__(self, "support", (xs[0], xs[-1]))

    def pdf(self, t):
        arr, scalar = _as_float_array(t)
        self._check_support(arr)
        return _scalar_like(np.interp(arr, self.xs, self.ys), scalar)

    def cdf(self, t):
        arr, scalar = _as_float_array(t)
        xs = np.asarray(self.xs)
        ys = np.asarray(self.ys)
        seg = 0.5 * (ys[1:] + ys[:-1]) * np.diff(xs)
        cum = np.concatenate([[0.0], np.cumsum(seg)])
        clipped = np.clip(arr, xs[0], xs[-1])
        idx = np.clip(np.searchsorted(xs, clipped, side="right") - 1, 0, len(seg) - 1)
        x0 = xs[idx]
        y0 = ys[idx]
        slope = (ys[idx + 1] - ys[idx]) / (xs[idx + 1] - xs[idx])
        d = clipped - x0
        out = cum[idx] + y0 * d + 0.5 * slope * d * d
        return _scalar_like(out, scalar)

    def sample(self, rng, size):
        # numeric inverse cdf on a fine grid; adequate for simulation use
        grid = np.linspace(self.xs[0], self.xs[-1], 4097)
        cg = self.cdf(grid)
        cg = cg / cg[-1]
        u = rng.random(size)
        return np.interp(u, cg, grid)

    def total_mass(self):
        xs = np.asarray(self.xs)
        ys = np.asarray(self.ys)
        return float(np.sum(0.5 * (ys[1:] + ys[:-1]) * np.diff(xs)))


@dataclass(frozen=True)
class ExpFamilyPoly(Density):
    """Density exp(sum_j coefficients[j] * z**j) on [lo, hi]."""

    coefficients: Tuple[float, ...]
    lo: float
    hi: float

    def __post_init__(self):
        if self.hi <= self.lo:
            raise ValueError("need lo < hi")
        object.__setattr__(self, "coefficients", tuple(float(c) for c in self.coefficients))
        object.__setattr__(self, "support", (float(self.lo), float(self.hi)))

    def _log_pdf(self, arr):
        return np.polynomial.polynomial.polyval(arr, np.asarray(self.coefficients))

    def pdf(self, t):
        arr, scalar = _as_float_array(t)
        self._check_support(arr)
        return _scalar_like(np.exp(self._log_pdf(arr)), scalar)

    def cdf(self, t):
        arr, scalar = _as_float_array(t)
        flat = np.atleast_1d(np.clip(arr, self.lo, self.hi))
        out = np.array([integrate.quad(lambda x: self.pdf(x), self.lo, x, limit=200)[0]
                        for x in flat])
        return _scalar_like(out.reshape(np.shape(arr)), scalar)


@dataclass(frozen=True)
class LocationMixture(Density):
    """Gaussian location mixture: sum_g weights[g] * phi(z - atoms[g])."""

    atoms: Tuple[float, ...]
    weights: Tuple[float, ...]

    def __post_init__(self):
        atoms = tuple(float(a) for a in self.atoms)
        w = np.asarray(self.weights, dtype=float)
        if len(atoms) != w.size or w.size < 1:
            raise ValueError("atoms and weights must have equal positive length")
        if w.min() < 0:
            raise ValueError("weights must be nonnegative")
        if abs(w.sum() - 1.0) > 1e-8:
            raise ValueError("weights must sum to 1")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", tuple(float(x) for x in w))

    def pdf(self, t):
        arr, scalar = _as_float_array(t)
        a = np.asarray(self.atoms)
        w = np.asarray(self.weights)
        out = stats.norm.pdf(arr[..., None] - a) @ w
        return _scalar_like(out, scalar)

    def cdf(self, t):
        arr, scalar = _as_float_array(t)
        a = np.asarray(self.atoms)
        w = np.asarray(self.weights)
        out = stats.norm.cdf(arr[..., None] - a) @ w
        return _scalar_like(out, scalar)

    def sample(self, rng, size):
        comp = rng.choice(len(self.atoms), size=size, p=np.asarray(self.weights))
        return np.asarray(self.atoms)[comp] + rng.normal(size=size)

    def total_mass(self):
        return float(np.sum(self.weights))


@dataclass(frozen=True)
class DiscreteUniformGrid(Density):
    """Uniform pmf on the grid {1/L, 2/L, ..., L/L}."""

    L: int
    support = (0.0, 1.0)

    def __post_init__(self):
        if int(self.L) < 1:
            raise ValueError("L must be >= 1")
        object.__setattr__(self, "L", int(self.L))

    def pdf(self, t):
        arr, scalar = _as_float_array(t)
        self._check_support(arr)
        k = np.rint(arr * self.L)
        on_grid = (np.abs(arr * self.L - k) < 1e-9) & (k >= 1) & (k <= self.L)
        return _scalar_like(np.where(on_grid, 1.0 / self.L, 0.0), scalar)

    def cdf(self, t):
        arr, scalar = _as_float_array(t)
        k = np.clip(np.floor(arr * self.L + 1e-9), 0, self.L)
        return _scalar_like(k / self.L, scalar)

    def sample(self, rng, size):
        return rng.integers(1, self.L + 1, size=size) / self.L

    def total_mass(self):
        return 1.0


@dataclass(frozen=True)
class MixtureDensity(Density):
    """Finite mixture of densities with nonnegative weights summing to 1."""

    components: Tuple[Density, ...]
    weights: Tuple[float, ...]

    def __post_init__(self):
        comps = tuple(self.components)
        w = np.asarray(self.weights, dtype=float)
        if len(comps) != w.size or w.size < 1:
            raise ValueError("components and weights must have equal positive length")
        if w.min() < 0 or abs(w.sum() - 1.0) > 1e-8:
            raise ValueError("weights must be nonnegative and sum to 1")
        lo = min(c.support[0] for c in comps)
        hi = max(c.support[1] for c in comps)
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "weights", tuple(float(x) for x in w))
        object.__setattr__(self, "support", (lo, hi))

    def pdf(self, t):
        arr, scalar = _as_float_array(t)
        out = np.zeros_like(arr)
        for w, c in zip(self.weights, self.components):
            # a weightless component adds nothing, even where its density is inf
            if w > 0.0:
                out = out + w * np.asarray(c.pdf(arr))
        return _scalar_like(out, scalar)

    def cdf(self, t):
        arr, scalar = _as_float_array(t)
        out = np.zeros_like(arr)
        for w, c in zip(self.weights, self.components):
            out = out + w * np.asarray(c.cdf(arr))
        return _scalar_like(out, scalar)

    def sample(self, rng, size):
        comp = rng.choice(len(self.components), size=size, p=np.asarray(self.weights))
        out = np.empty(size, dtype=float)
        for j, c in enumerate(self.components):
            mask = comp == j
            if mask.any():
                out[mask] = c.sample(rng, int(mask.sum()))
        return out

    def total_mass(self):
        return float(sum(w * c.total_mass() for w, c in zip(self.weights, self.components)))


# ---------------------------------------------------------------------------
# Two-groups model, loss, shared operations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TwoGroupsSpec:
    """Mixture model: null with probability pi0 from f0, otherwise from f1."""

    pi0: float
    f0: Density
    f1: Density

    def __post_init__(self):
        if not 0.0 <= self.pi0 <= 1.0:
            raise ValueError("pi0 must lie in [0, 1]")

    def mixture(self) -> MixtureDensity:
        return MixtureDensity((self.f0, self.f1), (self.pi0, 1.0 - self.pi0))


@dataclass(frozen=True)
class LossSpec:
    """Weighted classification loss: a false positive costs lambda_ false negatives."""

    lambda_: float

    def __post_init__(self):
        if self.lambda_ <= 0:
            raise ValueError("lambda_ must be positive")

    @property
    def threshold(self) -> float:
        return 1.0 / (1.0 + self.lambda_)


def mixture_density(spec: TwoGroupsSpec, t) -> float:
    """Marginal density pi0*f0(t) + (1-pi0)*f1(t)."""
    return spec.mixture().pdf(t)


def average_density(models: Sequence[Density], t):
    """Pointwise arithmetic mean of the m model densities at t."""
    if len(models) == 0:
        raise ValueError("need at least one density")
    arr, scalar = _as_float_array(t)
    out = np.zeros_like(arr)
    for mod in models:
        out = out + np.asarray(mod.pdf(arr))
    out = out / len(models)
    return _scalar_like(out, scalar)


def normalization_defect(model: Density) -> float:
    """|total mass - 1|; every valid density should be below 1e-8."""
    return abs(model.total_mass() - 1.0)
