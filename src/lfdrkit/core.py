"""Shared data model: statistic vectors, ground truth, and density families,
and the one helper that runs the parts of a job in forked processes.

Every other module consumes these types.  All of them are immutable after
construction, so instances can be shared freely across threads.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
import threading
from collections.abc import Sequence
from dataclasses import InitVar, dataclass
from enum import Enum
from functools import cached_property
from typing import Callable, Iterable, Iterator, List, NoReturn, Optional, Tuple, Union

import numpy as np
import scipy


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
    """One-sided p-values: ``norm.sf(z)`` of z-scale statistics; p-values pass through.

    Computed as ``ndtr(-z)``, which equals ``norm.sf(z)`` bitwise; the
    ``rv_continuous`` wrapper would allocate several block-sized temporaries
    per call, and the Monte Carlo core calls this once per block."""
    return values if scale is Scale.P_VALUE else scipy.special.ndtr(-values)


def normal_pdf(x):
    """The one Gaussian kernel: scipy's own ``_norm_pdf`` formula, bit for bit.
    ``x * x``, not ``x**2``: a numpy scalar's power can differ in the last bit
    from the array square, and a scalar must equal its array element.  A
    huge ``x`` squares to inf, whose density is 0."""
    with np.errstate(over="ignore"):
        return np.exp(-(x * x) / 2.0) / math.sqrt(2.0 * math.pi)


def check_finite(field: str, value, positive: bool = False) -> None:
    """ValueError naming ``field`` unless ``value`` is finite (and > 0 if
    ``positive``); a check written as ``value <= 0`` lets NaN through."""
    if not (math.isfinite(value) and (value > 0 or not positive)):
        kind = "finite and positive" if positive else "finite"
        raise ValueError(f"{field} must be {kind}, got {value!r}")


def check_values(values: np.ndarray, scale: Scale) -> None:
    """Raise ValueError unless every value is finite and, on the p-value scale,
    in [0, 1].  Reads ``values`` in place, whatever its shape: min and max
    propagate NaN, so two reductions check everything."""
    lo, hi = float(values.min()), float(values.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("values must be finite")
    if scale is Scale.P_VALUE and (lo < 0.0 or hi > 1.0):
        raise ValueError("p-values must lie in [0, 1]")


def _frozen_array(values, dtype=None) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _hashes(items) -> np.ndarray:
    """``hash`` of each item, as int64."""
    return np.fromiter(map(hash, items), np.int64, count=len(items))


def _all_distinct(items: Sequence, hashes: Optional[np.ndarray] = None) -> bool:
    """Whether no two items are equal: equal items have equal hashes, so a
    sorted array of hashes leaves an exact ``set`` check only to the items
    whose hashes collide, rather than a ``set`` of them all.  ``hashes`` is
    ``_hashes(items)``, when the caller took it already."""
    if hashes is None:
        hashes = _hashes(items)
    ranked = np.sort(hashes)
    shared = ranked[1:][ranked[1:] == ranked[:-1]]
    if not shared.size:
        return True
    suspects = [items[i] for i in np.flatnonzero(np.isin(hashes, shared)).tolist()]
    return len(set(suspects)) == len(suspects)


class TextColumn(Sequence):
    """A column of text cells held as one UTF-8 buffer: ``data[ends[i]:ends[i + 1]]``
    is cell i.  That costs the text and an offset a cell, where a ``str``
    object costs about 50 bytes over its text.  ``column[i]`` decodes one cell
    and ``column[lo:hi]`` a list of them, so a reader of the column holds one
    slice of ``str`` at a time; iterating decodes a slice at a time too.
    ``data`` is ``bytes`` or a map.  The cells may repeat, as stat texts do;
    ``StatVector`` checks a column of ids unique.
    """

    def __init__(self, data, ends: np.ndarray):
        self._data = data
        self._ends = ends.view()
        self._ends.setflags(write=False)

    def __len__(self) -> int:
        return self._ends.size - 1

    def __iter__(self) -> Iterator[str]:
        for lo in range(0, len(self), 1 << 14):
            yield from self[lo:lo + (1 << 14)]

    def __getitem__(self, key: Union[int, slice]) -> Union[str, List[str]]:
        rows = range(len(self))[key]
        ends = self._ends
        if isinstance(rows, int):
            return self._data[ends[rows]:ends[rows + 1]].decode("utf-8")
        if rows.step != 1:
            return [self[i] for i in rows]
        lo, hi = rows.start, rows.stop
        if hi <= lo:
            return []
        raw = self._data[ends[lo]:ends[hi]]
        if b"," in raw:  # a comma cannot then mark where one cell ends
            return [self._data[a:b].decode("utf-8")
                    for a, b in zip(ends[lo:hi].tolist(), ends[lo + 1:hi + 1].tolist())]
        cuts = ends[lo + 1:hi].astype(np.intp) - int(ends[lo])
        marked = np.insert(np.frombuffer(raw, np.uint8), cuts, ord(","))
        return marked.tobytes().decode("utf-8").split(",")


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
    ids : TextColumn or iterable of str, optional
        Opaque labels, unique, one per statistic, kept as given: no label is
        converted to ``str``.  A ``TextColumn`` is kept as it is; any other
        iterable is made a tuple.  The values are checked before the ids.
    id_hashes : np.ndarray, optional
        The int64 ``hash`` of each id, where the caller took them already: not
        kept, they spare the uniqueness check a pass over the ids.
    """

    values: np.ndarray
    scale: Scale
    ids: Optional[Union[TextColumn, Tuple[str, ...]]] = None
    id_hashes: InitVar[Optional[np.ndarray]] = None

    def __post_init__(self, id_hashes):
        arr = _frozen_array(self.values, float)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("values must be a 1-d sequence of length >= 1")
        check_values(arr, self.scale)
        object.__setattr__(self, "values", arr)
        if self.ids is not None:
            ids = self.ids if isinstance(self.ids, TextColumn) else tuple(self.ids)
            if len(ids) != arr.size:
                raise ValueError("ids must match values in length")
            if not _all_distinct(ids, id_hashes):
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


# ---------------------------------------------------------------------------
# Density families
# ---------------------------------------------------------------------------

def _check_support(arr, amin, amax, support) -> None:
    """DomainError naming the first value of ``arr`` outside ``support``,
    given the least and greatest values ``amin`` and ``amax`` of ``arr``."""
    lo, hi = support
    if amin < lo or amax > hi:
        bad = arr[(arr < lo) | (arr > hi)].flat[0]
        raise DomainError(f"{bad!r} outside support [{lo}, {hi}]")


class Density:
    """A density (or pmf, for discrete kinds) evaluable on its support.

    ``pdf`` and ``cdf`` take a scalar or an array: a scalar gives a Python
    float, an array gives an array of its shape.  Subclasses implement
    ``_pdf``/``_cdf`` on float arrays and expose ``support`` as a closed
    interval (endpoints may be infinite).  ``pdf`` raises
    :class:`DomainError` outside the support; ``cdf`` is defined everywhere.
    Values at support endpoints are the one-sided limits of the
    representation.
    """

    support: Tuple[float, float] = (-math.inf, math.inf)

    def pdf(self, t):
        arr = np.asarray(t, dtype=float)
        if arr.size:
            _check_support(arr, arr.min(), arr.max(), self.support)
        out = self._pdf(arr)
        return float(out) if arr.ndim == 0 else out

    def cdf(self, t):
        arr = np.asarray(t, dtype=float)
        out = self._cdf(arr)
        return float(out) if arr.ndim == 0 else out

    def _pdf(self, arr: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _cdf(self, arr: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def total_mass(self) -> float:
        """Integral (or sum) of the density over its support: the range of the cdf."""
        lo, hi = self.support
        return self.cdf(hi) - self.cdf(lo)


@dataclass(frozen=True)
class Uniform01(Density):
    support = (0.0, 1.0)

    def _pdf(self, arr):
        return np.ones_like(arr)

    def _cdf(self, arr):
        return np.clip(arr, 0.0, 1.0)


@dataclass(frozen=True)
class GaussianLocation(Density):
    """Normal with the given mean and unit variance."""

    mean: float = 0.0

    def __post_init__(self):
        check_finite("mean", self.mean)

    def _pdf(self, arr):
        return normal_pdf(arr - self.mean)

    def _cdf(self, arr):
        return scipy.special.ndtr(arr - self.mean)


@dataclass(frozen=True)
class BetaDensity(Density):
    a: float
    b: float
    support = (0.0, 1.0)

    def __post_init__(self):
        check_finite("a", self.a, positive=True)
        check_finite("b", self.b, positive=True)

    def _pdf(self, arr):
        # via scipy's logpdf: beta.pdf itself overflows on denormal inputs, and
        # the one-sided limit at the endpoints (possibly inf) is wanted here
        with np.errstate(over="ignore"):
            return np.exp(scipy.special.xlog1py(self.b - 1.0, -arr)
                          + scipy.special.xlogy(self.a - 1.0, arr)
                          - scipy.special.betaln(self.a, self.b))

    def _cdf(self, arr):
        return scipy.special.betainc(self.a, self.b, np.clip(arr, 0.0, 1.0))


class _StepMass:
    """``_cdf`` and ``total_mass`` of a density that is ``heights[j]`` between
    ``breakpoints[j]`` and ``breakpoints[j+1]``; the value at a breakpoint
    itself carries no mass, so either continuity convention shares them.
    The mass is the ``np.sum`` of the steps, which can round apart from the
    cdf's cumulative sum, and which the Grenander unit-mass check reads."""

    def _set_steps(self) -> Tuple[np.ndarray, np.ndarray]:
        """Check the steps, store them as float tuples and return them as arrays."""
        edges = np.asarray(self.breakpoints, dtype=float)
        hts = np.asarray(self.heights, dtype=float)
        if len(edges) != len(hts) + 1 or len(hts) < 1:
            raise ValueError("need len(breakpoints) == len(heights) + 1 >= 2")
        if not (np.isfinite(edges).all() and (np.diff(edges) > 0).all()):
            raise ValueError("breakpoints must be finite and strictly increasing")
        if not (np.isfinite(hts).all() and hts.min() >= 0):
            raise ValueError("heights must be finite and nonnegative")
        object.__setattr__(self, "breakpoints", tuple(edges.tolist()))
        object.__setattr__(self, "heights", tuple(hts.tolist()))
        return edges, hts

    def _cdf(self, arr):
        edges = np.asarray(self.breakpoints)
        hts = np.asarray(self.heights)
        cum = np.concatenate([[0.0], np.cumsum(hts * np.diff(edges))])
        clipped = np.clip(arr, edges[0], edges[-1])
        idx = np.clip(np.searchsorted(edges, clipped, side="right") - 1, 0, len(hts) - 1)
        out = cum[idx] + hts[idx] * (clipped - edges[idx])
        return np.clip(out, 0.0, cum[-1])

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
        self._set_steps()
        object.__setattr__(self, "support", (self.breakpoints[0], self.breakpoints[-1]))

    def _pdf(self, arr):
        edges = np.asarray(self.breakpoints)
        idx = np.clip(np.searchsorted(edges, arr, side="right") - 1, 0, len(self.heights) - 1)
        return np.asarray(self.heights)[idx]


@dataclass(frozen=True)
class ExpFamilyPoly(Density):
    """Density exp(sum_j coefficients[j] * z**j) on [lo, hi]."""

    coefficients: Tuple[float, ...]
    lo: float
    hi: float

    def __post_init__(self):
        check_finite("lo", self.lo)
        check_finite("hi", self.hi)
        if not self.lo < self.hi:
            raise ValueError("need lo < hi")
        coefs = tuple(float(c) for c in self.coefficients)
        for c in coefs:
            check_finite("coefficients", c)
        object.__setattr__(self, "coefficients", coefs)
        object.__setattr__(self, "support", (float(self.lo), float(self.hi)))

    def _pdf(self, arr):
        return np.exp(np.polynomial.polynomial.polyval(arr, np.asarray(self.coefficients)))

    def _cdf(self, arr):
        flat = np.clip(arr, self.lo, self.hi).ravel()
        out = np.array([scipy.integrate.quad(lambda x: self.pdf(x), self.lo, x, limit=200)[0]
                        for x in flat])
        return out.reshape(arr.shape)


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
        if not (w.min() >= 0 and abs(w.sum() - 1.0) <= 1e-8):
            raise ValueError("weights must be nonnegative and sum to 1")
        lo = min(c.support[0] for c in comps)
        hi = max(c.support[1] for c in comps)
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "weights", tuple(float(x) for x in w))
        object.__setattr__(self, "support", (lo, hi))

    def _pdf(self, arr):
        # the range of arr, found once, against each component's support: the
        # components' own pdf would convert arr and reduce it again per atom
        amin, amax = (arr.min(), arr.max()) if arr.size else (math.inf, -math.inf)
        out = np.zeros_like(arr)
        for w, c in zip(self.weights, self.components):
            # a weightless component adds nothing, even where its density is inf
            if w > 0.0:
                _check_support(arr, amin, amax, c.support)
                out = out + w * c._pdf(arr)
        return out

    def _cdf(self, arr):
        out = np.zeros_like(arr)
        for w, c in zip(self.weights, self.components):
            out = out + w * c._cdf(arr)
        return out


# ---------------------------------------------------------------------------
# Loss
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LossSpec:
    """Weighted classification loss: a false positive costs lambda_ false negatives."""

    lambda_: float

    def __post_init__(self):
        if not (math.isfinite(self.lambda_) and self.lambda_ > 0.0):
            raise ValueError(f"lambda must be finite and positive, got {self.lambda_!r}")

    @property
    def threshold(self) -> float:
        return 1.0 / (1.0 + self.lambda_)


# ---------------------------------------------------------------------------
# Parts of a job in forked processes
# ---------------------------------------------------------------------------

def _cores() -> int:
    """The processes a job may use: its usable cores, or 1 where this platform
    cannot fork or another thread runs (a forked child keeps only the calling
    thread, so a lock another thread held would stay held)."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")) \
            or threading.active_count() > 1:
        return 1
    return len(os.sched_getaffinity(0))


def _split_blocks(first: int, n: int, rows: int) -> List[range]:
    """``first .. first + n - 1`` in one range of whole ``rows``-blocks per
    process, never more ranges than blocks, and one empty range for n = 0."""
    blocks = -(-n // rows)
    k = max(1, min(_cores(), blocks))
    cuts = [first + min(n, rows * (blocks * i // k)) for i in range(k + 1)]
    return [range(a, b) for a, b in zip(cuts, cuts[1:])]


def _run_child(work: Callable[[range], Iterable], part: range, r: int, w: int) -> NoReturn:
    """In a forked child: pickle ``(True, item)`` for each item of
    ``work(part)``, or ``(False, error)``, to the pipe (r, w), then leave
    without running the parent's exit handlers or flushing the stdout buffers
    it copied.  Every item is made before the first is sent, so the child
    does not wait on a parent that is still busy with its own part."""
    code = 1
    try:
        os.close(r)
        with open(w, "wb") as pipe:
            try:
                frames = [(True, item) for item in work(part)]
            except BaseException as exc:  # handed to the parent, which raises it
                frames = [(False, exc)]
                try:
                    pickle.loads(pickle.dumps(exc))
                except Exception:  # an error that does not survive pickling
                    frames = [(False, RuntimeError(f"{type(exc).__name__}: {exc}"))]
            for frame in frames:
                pickle.dump(frame, pipe)
        code = 0
    finally:
        os._exit(code)


def _received(pipe) -> Iterator:
    """The items a child pickled to ``pipe``, one at a time; an error it sent is raised."""
    while True:
        try:
            ok, item = pickle.load(pipe)
        except (EOFError, pickle.UnpicklingError):  # the end, or a child cut off
            return
        if not ok:
            raise item
        yield item


def _check_exit(status: int, part: range, what: str) -> None:
    """Raise for a child that ended other than by sending all of ``part``."""
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        how = f"signal {-code} ({signal.strsignal(-code)})" if code < 0 else f"exit code {code}"
        raise ChildProcessError(f"the process running {what} [{part.start}, {part.stop}) "
                                f"ended by {how} without a result")


def _in_processes(work: Callable[[range], Iterable], parts: Sequence[range],
                  what: str) -> Iterator:
    """The items of ``work(part)`` for each part in turn: the first part's made
    here as they are taken, every other part's made in a forked child and read
    from it one item at a time, so this process holds one of them at a time.
    A failure raises the error of the earliest part that failed, as the loop
    would; a child that dies is named by its range of ``what``.  No child
    outlives the iteration: once it ends or the iterator is closed, every
    child is reaped, and killed first if need be."""
    children = []  # (pid, read end of its pipe, part), in part order
    try:
        for part in parts[1:]:
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:
                _run_child(work, part, r, w)
            os.close(w)
            children.append((pid, open(r, "rb"), part))
        yield from work(parts[0])
        while children:
            pid, pipe, part = children[0]
            yield from _received(pipe)
            status = os.waitpid(pid, 0)[1]
            children.pop(0)
            pipe.close()
            _check_exit(status, part, what)
    finally:
        for pid, pipe, _ in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
