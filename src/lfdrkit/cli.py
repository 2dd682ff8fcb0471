"""Command-line surface: analyze, simulate, calibrate, verify.

Input statistics arrive as CSV with a mandatory header ``id,stat[,truth]``
(truth 0 marks a true null).  Summaries are written as JSON with sorted
keys, per-hypothesis and per-bin tables as CSV; with a fixed seed every
output file is byte-identical across runs.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import math
import mmap
import sys
from contextlib import closing
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .core import (
    AssumptionError,
    CapacityError,
    DegeneracyError,
    DomainError,
    EstimationError,
    FitError,
    GaussianLocation,
    LossSpec,
    Scale,
    StatVector,
    TextColumn,
    Uniform01,
    _all_distinct,
    _hashes,
    _in_processes,
    _split_blocks,
    check_values,
    to_pvalues,
)
from .density import grenander_fit, lindsey_fit, npmle_mixture_fit
from .lfdr import LfdrCurve, score_hypotheses, selection_window_pi0, storey_pi0
from .procedures import (
    PROCEDURES,
    bh_threshold,
    lfdr_threshold_rule,
    q_values,
    support_line,
)
from .simulate import (
    PRESETS,
    SCORERS,
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
    mc_error_rates,
)
from .verify import DEFAULT_SEED, SUITE_NAMES, run_suite


class CliError(Exception):
    """User-facing error with a machine-parsable reason code."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


# the first matching class names the code, so subclasses come before ValueError
_ERROR_CODES = {
    DomainError: "domain",
    CapacityError: "capacity",
    DegeneracyError: "degenerate",
    EstimationError: "estimate",
    AssumptionError: "assumption",
    FitError: "fit",
    ValueError: "bad-arg",
    OSError: "io",
}


def _reason_code(exc: Exception) -> str:
    for etype, code in _ERROR_CODES.items():
        if isinstance(exc, etype):
            return code
    return "internal"


# ---------------------------------------------------------------------------
# I/O helpers
# ---------------------------------------------------------------------------

# rows formatted and written at a time: a column of m cell strings, or one
# string for the whole table, would raise peak memory.  A table of one chunk
# is formatted in one process.
_WRITE_ROWS = 1 << 14


def _header_width(path: str, header: Sequence[str]) -> int:
    """The column count of an ``id,stat[,truth]`` header."""
    cols = [c.strip().lower() for c in header]
    if cols[:2] != ["id", "stat"] or len(cols) > 3 or \
            (len(cols) == 3 and cols[2] != "truth"):
        raise CliError("bad-header", f"{path}:1: header must be id,stat[,truth]")
    return len(cols)


def _read_rows(path: str, data, scale: Scale) -> Tuple[List[str], List[str], List[float]]:
    """The ids, stat texts and stats of the ``csv.reader`` parse of ``data``,
    the bytes read from ``path``, row by row: the reference for
    ``_read_columns`` and the path for any input that one cannot vouch for.
    The bytes are parsed, not the path opened again, which a pipe would
    answer with nothing."""
    ids: List[str] = []
    texts: List[str] = []
    vals: List[float] = []
    with io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
            ncols = _header_width(path, header)
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != ncols:
                    raise CliError("bad-row", f"{path}:{lineno}: expected {ncols} fields")
                try:
                    stat = float(row[1])
                except ValueError:
                    raise CliError("bad-row", f"{path}:{lineno}: non-numeric stat {row[1]!r}")
                if scale is Scale.P_VALUE and not 0.0 <= stat <= 1.0:
                    raise CliError("bad-pvalue",
                                   f"id {row[0]!r}: p-value {stat} outside [0, 1]")
                if ncols == 3 and row[2] not in ("0", "1"):
                    raise CliError("bad-row", f"{path}:{lineno}: truth must be 0 or 1")
                ids.append(row[0])
                texts.append(row[1])
                vals.append(stat)
        except StopIteration:
            raise CliError("bad-input", f"{path}: empty file")
        except csv.Error as exc:  # such as a field over csv.field_size_limit()
            raise CliError("bad-row", f"{path}:{reader.line_num}: {exc}")
        except UnicodeDecodeError:
            # the text decoder counts its offset from its own chunk, so the
            # whole input is decoded again to find the line of the first bad byte
            try:
                str(data, "utf-8")
            except UnicodeDecodeError as exc:
                line = data[:exc.start].count(b"\n") + 1
                raise CliError("bad-input", f"{path}:{line}: not UTF-8 ({exc.reason}, "
                                            f"byte {data[exc.start]:#04x})") from None
            raise
    if not vals:
        raise CliError("bad-input", f"{path}: no statistics")
    return ids, texts, vals


def _packed(texts: List[str]) -> Tuple[bytes, np.ndarray]:
    """The UTF-8 bytes of ``texts`` end to end, and the byte length of each,
    in the narrowest integer type that holds them all."""
    text = "".join(texts)
    raw = text.encode("utf-8")
    # ASCII text has a byte per character
    lengths = map(len, texts) if len(raw) == len(text) else \
        (len(t.encode("utf-8")) for t in texts)
    return raw, np.fromiter(lengths, np.min_scalar_type(len(raw)), count=len(texts))


class _TextPacker:
    """The two ``TextColumn``s of m rows that a reader fills, the ids and the
    stat texts, each of at most ``max_bytes`` UTF-8 bytes, appended in row
    order a window at a time: each column's bytes, in an anonymous map whose
    pages are touched only as they are written, where each cell ends, in the
    narrowest integer type that holds ``max_bytes``, and the ids' hashes."""

    def __init__(self, m: int, max_bytes: int):
        self.data = [mmap.mmap(-1, max(1, max_bytes)) for _ in range(2)]
        self.ends = np.zeros((2, m + 1), np.min_scalar_type(max_bytes))
        self.hashes = np.empty(m, np.int64)
        self.added = 0

    def add(self, hashes: np.ndarray, *packed: Tuple[bytes, np.ndarray]) -> None:
        """Append the ids' hashes, then the ``_packed`` ids and stat texts."""
        row, self.added = self.added, self.added + hashes.size
        self.hashes[row:self.added] = hashes
        for data, ends, (raw, lengths) in zip(self.data, self.ends, packed):
            ends[row + 1:self.added + 1] = lengths
            data.write(raw)

    def columns(self) -> Tuple[TextColumn, TextColumn]:
        """The ids and the stat texts added, which keep the maps; the ids are
        checked unique from their hashes, by the rule ``StatVector`` applies
        to a tuple."""
        np.cumsum(self.ends, axis=1, out=self.ends)
        ids, texts = map(TextColumn, self.data, self.ends)
        if not _all_distinct(ids, self.hashes):
            raise ValueError("ids must be unique")
        return ids, texts


# bytes of the input scanned at a time; a window holds whole lines, so a line
# longer than this is left to the row loop
_SCAN_BYTES = 1 << 20


def _line_windows(data, lo: int) -> Optional[List[int]]:
    """Where each window of whole lines from byte ``lo`` on starts, then the
    end of ``data``: a window is at most ``_SCAN_BYTES`` long and ends after
    a newline or at the end of ``data``.  None where a line is too long for a
    window."""
    cuts = [lo]
    while lo < len(data):
        if lo + _SCAN_BYTES < len(data):
            last = data.rfind(b"\n", lo, lo + _SCAN_BYTES)
            if last < 0:
                return None
            lo = last + 1
        else:
            lo = len(data)
        cuts.append(lo)
    return cuts


def _read_columns(path: str, data, scale: Scale) -> Optional[Tuple[_TextPacker, np.ndarray]]:
    """The parse of ``_read_rows`` a window of lines at a time, or None where
    only the row loop can tell what ``csv.reader`` makes of the bytes or
    which error comes first: quotes, CR, blank, ragged or over-long lines,
    no data row, bytes that are not UTF-8, or a stat, p-value or truth cell
    that it rejects.  ``data`` is ``bytes`` or a read-only map of the file;
    it is scanned in windows of ``_SCAN_BYTES``, so no copy or mask of its
    whole size is made, and the ids and stat texts are packed a window at a
    time, so no column of m cell strings is built.  The windows are shared
    out in runs between the usable cores, and their values, id hashes and
    packed texts are appended in row order, up to the first window that does
    not parse."""
    head = data.find(b"\n")
    if head < 0 or data.find(b'"') >= 0 or data.find(b"\r") >= 0 or \
            head + 1 > csv.field_size_limit():
        return None
    cuts = _line_windows(data, head + 1)
    if cuts is None:
        return None
    buf = np.frombuffer(data, np.uint8)
    # the first row of each window, then m; a last line without its newline is a row too
    firsts = np.cumsum([0, *(np.count_nonzero(buf[a:b] == ord("\n"))
                             for a, b in zip(cuts, cuts[1:]))])
    firsts[-1] += data[-1:] != b"\n"
    m = int(firsts[-1])
    # a UnicodeDecodeError is a ValueError, and so is a stat that float() refuses;
    # a bad header is left to the row loop, which may meet a bad byte first
    try:
        ncols = _header_width(path, data[:head].decode("utf-8").split(","))
    except (ValueError, CliError):
        return None
    if m < 1:
        return None

    def window(w: int) -> Optional[Tuple[np.ndarray, np.ndarray, Tuple, Tuple]]:
        """The values, id hashes, ``_packed`` ids and ``_packed`` stat texts of
        window w, or None where it does not parse."""
        lo, hi, n = cuts[w], cuts[w + 1], int(firsts[w + 1] - firsts[w])
        ends = np.flatnonzero(buf[lo:hi] == ord("\n"))
        if ends.size < n:
            ends = np.append(ends, hi - lo)
        if np.diff(ends, prepend=-1).max() > csv.field_size_limit():
            return None
        # every line holds exactly ncols - 1 commas
        commas = np.flatnonzero(buf[lo:lo + ends[-1]] == ord(","))
        if np.any(np.diff(np.searchsorted(commas, ends), prepend=0) != ncols - 1):
            return None
        try:
            # the window's lines, without the newline that ends the last of them
            cells = data[lo:lo + ends[-1]].decode("utf-8").replace("\n", ",").split(",")
            values = np.fromiter(map(float, cells[1::ncols]), float, count=n)
        except ValueError:
            return None
        if ncols == 3 and not set(cells[2::3]) <= {"0", "1"}:
            return None
        ids = cells[::ncols]
        return values, _hashes(ids), _packed(ids), _packed(cells[1::ncols])

    # runs of whole windows, named by their rows
    parts = {range(int(firsts[w.start]), int(firsts[w.stop])): w
             for w in _split_blocks(0, len(cuts) - 1, 1)}

    def parse(rows: range) -> Iterator:
        """The windows of ``rows`` in turn, up to the first that does not parse."""
        for parsed in map(window, parts[rows]):
            yield parsed
            if parsed is None:
                return

    vals, packer = np.empty(m), _TextPacker(m, buf.size)
    # closing the windows at a decline reaps every child
    with closing(_in_processes(parse, list(parts), "rows")) as windows:
        for parsed in windows:
            if parsed is None:
                return None
            values, *packed = parsed
            vals[packer.added:packer.added + values.size] = values
            packer.add(*packed)
    if scale is Scale.P_VALUE and not ((vals >= 0.0) & (vals <= 1.0)).all():
        return None
    return packer, vals


def read_stats_csv(path: str, scale: Scale) -> Tuple[StatVector, TextColumn]:
    """The ids and stats of ``id,stat[,truth]`` rows, and the text of each stat
    cell as the ``csv`` module reads it; errors carry the 1-based line number."""
    with open(path, "rb") as fh:
        try:
            data = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        except (OSError, ValueError):  # a pipe, or an empty file
            data = fh.read()
    columns = _read_columns(path, data, scale)
    if columns is None:
        ids, texts, vals = _read_rows(path, data, scale)
        # a cell's text is at most the bytes it was read from
        packer = _TextPacker(len(ids), len(data))
        packer.add(_hashes(ids), _packed(ids), _packed(texts))
    else:
        packer, vals = columns
    # dropping the map unmaps the file
    del data
    try:
        # StatVector checks the values before the ids, and so does this
        vals = np.asarray(vals, dtype=float)
        check_values(vals, scale)
        ids, texts = packer.columns()
        return StatVector(vals, scale, ids=ids), texts
    except ValueError as exc:
        raise CliError("bad-input", f"{path}: {exc}")


def _write_chunks(path: Optional[str], chunks: Iterable[bytes]) -> None:
    """Stream UTF-8 chunks to the file, or as text to stdout when ``path`` is
    None or ``-``: a replaced ``sys.stdout`` may be a text stream alone."""
    if path is None or path == "-":
        sys.stdout.writelines(chunk.decode("utf-8") for chunk in chunks)
    else:
        with open(path, "wb") as fh:
            fh.writelines(chunks)


def write_json(path: Optional[str], payload: Dict) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)  # NaN is not JSON
    _write_chunks(path, [(text + "\n").encode("utf-8")])


class _ChunkCells:
    """A column of ``size`` cells that ``cells(rows)`` formats a slice of rows
    at a time, so that the whole column never exists as strings."""

    def __init__(self, size: int, cells: Callable[[slice], Sequence[str]]):
        self.size = size
        self.cells = cells

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, rows: slice) -> Sequence[str]:
        return self.cells(rows)


def write_csv(path: Optional[str], columns: Dict[str, Sequence[str]]) -> None:
    """Write a table given as header name -> equal-length column of formatted
    cells; a name of several comma-joined columns takes pre-joined cells.  A
    column is a sequence of cells or a ``_ChunkCells``; the rows are formatted
    and joined ``_WRITE_ROWS`` at a time, the chunks shared out in runs
    between the usable cores, and written in row order as they come."""
    sizes = set(map(len, columns.values()))
    if len(sizes) > 1:
        raise ValueError(f"columns of unequal length {sorted(sizes)}")
    m = max(sizes, default=0)

    def chunks(rows: range) -> Iterator[bytes]:
        for lo in range(rows.start, rows.stop, _WRITE_ROWS):
            cells = [column[lo:lo + _WRITE_ROWS] for column in columns.values()]
            yield ("\n".join(map(",".join, zip(*cells, strict=True))) + "\n").encode("utf-8")

    with closing(_in_processes(chunks, _split_blocks(0, m, _WRITE_ROWS), "rows")) as table:
        _write_chunks(path, itertools.chain([(",".join(columns) + "\n").encode("utf-8")], table))


# the longest repr of a double, "-" + 17 digits + "." + "e-308", and a space
# after it, so that cells laid end to end split apart on spaces
_FLOAT_CELL_BYTES = 25


def _float_cells(values: np.ndarray, order: np.ndarray) -> _ChunkCells:
    """``repr`` of each value, for the computed columns ``q_value`` and
    ``lfdr_score``.  Repeats are found as runs of equal bits along ``order``,
    a permutation of the rows, and each run is formatted once; along a sort
    order every repeated value is one run.  Told apart by their bits, -0.0
    and 0.0 never share a cell.  The runs' cells are kept as one array of
    space-padded ASCII, indexed by a run number per row in the narrowest
    integer type, and a chunk of rows gathers its cells and splits them into
    ``str`` at once.  Without repeats each chunk is formatted as it is
    written."""
    values = np.asarray(values, dtype=float)
    bits = values.view(np.int64)
    # a run starts where the bits change along the order, gathered a chunk at a time
    starts = np.ones(values.size, dtype=bool)
    for lo in range(1, values.size, _WRITE_ROWS):
        chunk = bits[order[lo - 1:lo + _WRITE_ROWS]]
        starts[lo:lo + _WRITE_ROWS] = chunk[1:] != chunk[:-1]
    if starts.all():  # no repeats: the gather would only cost
        return _ChunkCells(values.size, lambda rows: list(map(repr, values[rows].tolist())))
    run = np.empty(values.size, dtype=np.min_scalar_type(values.size))
    ranks = np.cumsum(starts, dtype=run.dtype)
    ranks -= 1
    run[order] = ranks
    del ranks
    firsts = order[starts]
    del starts
    cells = np.empty(firsts.size, dtype=f"S{_FLOAT_CELL_BYTES}")

    def formatted(runs: range) -> Iterator[Tuple[int, np.ndarray]]:
        for lo in range(runs.start, runs.stop, _WRITE_ROWS):
            block = np.array(list(map(repr, values[firsts[lo:lo + _WRITE_ROWS]].tolist())),
                             dtype=cells.dtype)
            padding = block.view(np.uint8)
            padding[padding == 0] = ord(" ")
            yield lo, block

    # the runs are formatted in chunks shared out between the usable cores
    for lo, block in _in_processes(formatted, _split_blocks(0, firsts.size, _WRITE_ROWS),
                                   "distinct values"):
        cells[lo:lo + block.size] = block
    return _ChunkCells(values.size,
                       lambda rows: cells[run[rows]].tobytes().decode("ascii").split())


# the cells of four 0/1 flag columns, indexed by a code whose bit k is column k
_FLAG_CELLS = np.array([",".join(str(code >> k & 1) for k in range(4)) for code in range(16)],
                       dtype=object)


def _text_cells(texts: Sequence[str]) -> Sequence[str]:
    """Text cells under the csv module's minimal quoting: a cell holding a
    comma, a quote, CR or LF is quoted, with its quotes doubled."""
    joined = "".join(texts)
    if not any(c in joined for c in ',"\r\n'):
        return texts
    return ['"' + t.replace('"', '""') + '"' if any(c in t for c in ',"\r\n') else t
            for t in texts]


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def _pi0_value(text: str, pstats: StatVector) -> float:
    """The pi0 that ``--pi0`` storey:LAMBDA | fixed:VALUE | window:C:LAMBDA gives."""
    form, *fields = text.split(":")
    unparsed = CliError("bad-arg", f"cannot parse --pi0 {text!r}")
    try:
        values = [float(field) for field in fields]
    except ValueError:
        raise unparsed from None
    if form == "fixed" and len(values) == 1:
        if not 0.0 <= values[0] <= 1.0:
            raise CliError("bad-arg", "fixed pi0 must lie in [0, 1]")
        return values[0]
    if form == "storey" and len(values) == 1:
        return storey_pi0(pstats, values[0]).value
    if form == "window" and len(values) == 2:
        return selection_window_pi0(pstats, *values).value
    raise unparsed


def _fitted_density(text: str, stats: StatVector, pstats: StatVector):
    """The null, the fitted average density and the statistics they score, for
    ``--density`` grenander | lindsey:J:BINS | npmle:GRID:TOL."""
    form, *fields = text.split(":")
    if form == "grenander" and not fields:
        return Uniform01(), grenander_fit(pstats), pstats
    try:
        if form == "lindsey" and len(fields) == 2:
            fit_args = {"degree": int(fields[0]), "bins": int(fields[1])}
        elif form == "npmle" and len(fields) == 2:
            fit_args = {"grid_size": int(fields[0]), "tol": float(fields[1])}
        else:
            raise ValueError(form)
    except ValueError:
        raise CliError("bad-arg", f"cannot parse --density {text!r}") from None
    if stats.scale is not Scale.Z_VALUE:
        raise CliError("bad-arg", f"{form} density requires --scale z")
    fit = (lindsey_fit if form == "lindsey" else npmle_mixture_fit)(stats, **fit_args)
    if not fit.converged:
        # the report is unchanged; only stderr says it rests on such a fit
        print(f"WARNING fit: the {form} fit did not converge in {fit.iterations} "
              "Newton steps; scoring with its last iterate", file=sys.stderr)
    return GaussianLocation(0.0), fit.density(), stats


# the --config keys each command reads, with the JSON type of each value; the
# generator object is checked by _seeded_design
_ANALYZE_KEYS = {"input": "string", "scale": "string", "pi0": "string", "density": "string",
                 "out": "string", "alpha": "number", "lambda": "number"}
_DESIGN_KEYS = {"generator": "object", "alpha": "number"}
# the exact types json.loads gives a string and a number (a bool is an int)
_JSON_TYPES = {"string": (str,), "number": (int, float)}


def _read_config(path: str, keys: Dict[str, str]) -> Dict:
    """The JSON object in a --config file; any other JSON value, a key outside
    ``keys`` or a value of another type is refused."""
    config = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(config, dict):
        raise CliError("bad-arg", f"--config {path} must hold a JSON object")
    for key, value in config.items():
        kind = keys.get(key)
        if kind is None:
            problem = "is not read"
        elif kind in _JSON_TYPES and type(value) not in _JSON_TYPES[kind]:
            problem = f"must be a {kind}, not {json.dumps(value)}"
        else:
            continue
        raise CliError("bad-arg", f"--config key {key!r} {problem}; this command reads "
                                  f"{', '.join(keys)}")
    return config


def _resolve(flag_value, config: Dict, key: str, default):
    return config.get(key, default) if flag_value is None else flag_value


def cmd_analyze(args) -> int:
    config = _read_config(args.config, _ANALYZE_KEYS) if args.config else {}
    input_path = _resolve(args.input, config, "input", None)
    if input_path is None:
        raise CliError("bad-arg", "analyze needs --input (or an input config key)")
    scale_txt = _resolve(args.scale, config, "scale", "p")
    if scale_txt not in ("p", "z"):
        raise CliError("bad-arg", f"unknown scale {scale_txt!r}")
    args.alpha = float(_resolve(args.alpha, config, "alpha", 0.1))
    args.lam = float(_resolve(args.lam, config, "lambda", 4.0))
    loss = LossSpec(args.lam)
    args.pi0 = _resolve(args.pi0, config, "pi0", "storey:0.5")
    args.density = _resolve(args.density, config, "density", "grenander")
    args.out = _resolve(args.out, config, "out", None)

    scale = Scale.P_VALUE if scale_txt == "p" else Scale.Z_VALUE
    stats, stat_texts = read_stats_csv(input_path, scale)
    pstats = stats if scale is Scale.P_VALUE else \
        StatVector(to_pvalues(stats.values, scale), Scale.P_VALUE)

    pi0_value = _pi0_value(args.pi0, pstats)
    null, avg, scored_stats = _fitted_density(args.density, stats, pstats)
    scores = score_hypotheses(LfdrCurve(pi0_value, null, avg), scored_stats)

    alpha = args.alpha
    results = {
        "bh": bh_threshold(pstats, alpha),
        "storey_bh": bh_threshold(pstats, alpha, m0_hat=pi0_value * pstats.m),
        "sl": support_line(pstats, alpha),
    }
    lfdr_decisions = lfdr_threshold_rule(scores, loss)

    flags = np.zeros(stats.m, dtype=np.uint8)
    for k, rejected in enumerate([*(res.rejected for res in results.values()),
                                  lfdr_decisions]):
        flags[rejected] |= 1 << k
    # the scores and q-values are kept only as cells, and each array is let go
    # before the next is made
    score_cells = _float_cells(scores, scored_stats.order)
    del scores
    table = {
        "id": _ChunkCells(stats.m, lambda rows: _text_cells(stats.ids[rows])),
        "stat": _ChunkCells(stats.m, lambda rows: _text_cells(stat_texts[rows])),
        "q_value": _float_cells(q_values(pstats), pstats.order),
        "lfdr_score": score_cells,
        ",".join(f"rejected_{name}" for name in [*results, "lfdr"]):
            _ChunkCells(stats.m, lambda rows: _FLAG_CELLS[flags[rows]].tolist()),
    }
    write_csv(args.out + ".csv" if args.out else None, table)

    summary = {
        "m": stats.m,
        "pi0_hat": pi0_value,
        "alpha": alpha,
        "lambda": args.lam,
        "density": args.density,
        "procedures": {
            name: {
                "rejections": res.n_rejections,
                "threshold": res.boundary_stat,
            } for name, res in results.items()
        },
        "lfdr_threshold": {"cutoff": loss.threshold,
                           "rejections": int(lfdr_decisions.sum())},
    }
    write_json(args.out + ".json" if args.out else None, summary)
    return 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

_GENERATOR_KINDS = {
    "gaussian-means": GaussianMeans,
    "two-groups-beta": TwoGroupsBeta,
    "discrete-uniform-nulls": DiscreteUniformNulls,
    "superuniform-ce": SuperUniformCE,
}


def _generator_from_config(cfg: Dict):
    kind = cfg.get("kind")
    if kind not in _GENERATOR_KINDS:
        raise CliError("bad-arg", f"unknown generator kind {kind!r}")
    params = {k: v for k, v in cfg.items() if k != "kind"}
    try:
        return _GENERATOR_KINDS[kind](**params)
    except (TypeError, ValueError) as exc:
        raise CliError("bad-arg", f"generator kind {kind!r}: {exc}")


def _parse_criteria(text: str):
    crits = []
    for item in text.split(","):
        item = item.strip()
        if item == "fdr":
            crits.append(Fdr())
        elif item == "bfdr":
            crits.append(Bfdr())
        elif item == "power":
            crits.append(Power())
        elif item.startswith(("mfdr:", "pfdr:")):
            kind, *bounds = item.split(":")
            unparsed = CliError("bad-arg", f"criterion {item!r} needs the form {kind}:S:T")
            try:
                s, t = map(float, bounds)
            except ValueError:  # a bound that is not a number, or not two bounds
                raise unparsed from None
            crits.append((MfdrInterval if kind == "mfdr" else PfdrInterval)(s, t))
        else:
            raise CliError("bad-arg", f"unknown criterion {item!r}")
    return crits


def _seeded_design(args, command: str):
    """The generator and default alpha of --preset, else of the --config file;
    a design from both is refused rather than one of them silently dropped."""
    if args.seed is None:
        raise CliError("bad-arg", f"--seed is mandatory for {command}")
    config = _read_config(args.config, _DESIGN_KEYS) if args.config else {}
    if args.preset:
        if args.preset not in PRESETS:
            raise CliError("bad-arg", f"unknown preset {args.preset!r}; "
                                      f"choose from {sorted(PRESETS)}")
        if config:  # it holds only design keys
            raise CliError("bad-arg", f"--preset {args.preset} conflicts with the "
                                      f"--config keys {list(config)}; give one design")
        return PRESETS[args.preset]
    if not isinstance(config.get("generator"), dict):
        raise CliError("bad-arg", f"{command} needs --preset or a config generator object")
    return _generator_from_config(config["generator"]), config.get("alpha", 0.1)


def cmd_simulate(args) -> int:
    if args.reps < 1:
        raise CliError("bad-arg", "--reps must be a positive integer")
    generator, alpha = _seeded_design(args, "simulate")
    if args.alpha is not None:
        alpha = args.alpha
    proc = ProcedureConfig(args.procedure, alpha, perturb=args.perturb_discrete)
    criteria = _parse_criteria(args.criteria)
    report = mc_error_rates(generator, proc, args.reps, criteria, seed=args.seed)
    write_json(args.out, report.to_jsonable())
    # the report is unchanged; only stderr names the criteria it leaves out
    for name in dict.fromkeys(c.name for c in criteria if c.name not in report.estimates):
        print(f"WARNING criterion: {name} is undefined on all {report.n_replicates} replicates "
              "and is left out of estimates", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# calibrate
# ---------------------------------------------------------------------------

def cmd_calibrate(args) -> int:
    generator, _ = _seeded_design(args, "calibrate")
    curve = calibration_experiment(generator, args.scorer, args.reps,
                                   args.bin_width, args.seed)
    edges = list(map(repr, curve.bin_edges.tolist()))
    write_csv(args.out, {
        "bin_lo": edges[:-1],
        "bin_hi": edges[1:],
        "count": list(map(str, curve.bin_counts.tolist())),
        # a bin that no score reached has no null fraction
        "null_fraction": ["" if math.isnan(f) else repr(f)
                          for f in curve.bin_null_fraction.tolist()],
    })
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args) -> int:
    results = run_suite(args.suite, seed=args.seed)
    for res in results:
        print(res.line())
    failures = sum(1 for r in results if not r.passed)
    print(f"{args.suite}: {len(results) - failures}/{len(results)} checks passed")
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lfdrkit",
        description="Local false discovery rate analysis and verification")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="score a CSV of statistics")
    pa.add_argument("--input", default=None)
    pa.add_argument("--config", default=None,
                    help="JSON config; explicit flags override its keys")
    pa.add_argument("--scale", choices=("p", "z"), default=None)
    pa.add_argument("--alpha", type=float, default=None)
    pa.add_argument("--lambda", dest="lam", type=float, default=None)
    pa.add_argument("--pi0", default=None,
                    help="storey:LAMBDA | fixed:VALUE | window:C:LAMBDA")
    pa.add_argument("--density", default=None,
                    help="grenander | lindsey:J:BINS | npmle:GRID:TOL (grid NPMLE "
                         "fitted by an interior point method; TOL bounds the KKT gap)")
    pa.add_argument("--out", default=None,
                    help="output stem; writes STEM.csv and STEM.json")
    pa.set_defaults(func=cmd_analyze)

    ps = sub.add_parser("simulate", help="run the Monte Carlo harness")
    ps.add_argument("--preset", default=None,
                    help=f"one of {sorted(PRESETS)}")
    ps.add_argument("--config", default=None, help="JSON config file")
    ps.add_argument("--procedure", choices=PROCEDURES, default="support-line")
    ps.add_argument("--alpha", type=float, default=None)
    ps.add_argument("--criteria", default="bfdr,fdr")
    ps.add_argument("--reps", type=int, default=100_000)
    ps.add_argument("--seed", type=int, default=None)
    ps.add_argument("--perturb-discrete", action="store_true")
    ps.add_argument("--out", default=None)
    ps.set_defaults(func=cmd_simulate)

    pc = sub.add_parser("calibrate", help="pooled calibration curve")
    pc.add_argument("--preset", default=None)
    pc.add_argument("--config", default=None)
    pc.add_argument("--scorer", default="oracle-lfdr", choices=SCORERS)
    pc.add_argument("--reps", type=int, default=10_000)
    pc.add_argument("--bin-width", type=float, default=0.025)
    pc.add_argument("--seed", type=int, default=None)
    pc.add_argument("--out", default=None)
    pc.set_defaults(func=cmd_calibrate)

    pv = sub.add_parser("verify", help="run a named verification suite")
    pv.add_argument("suite", help=" | ".join(SUITE_NAMES))
    pv.add_argument("--seed", type=int, default=DEFAULT_SEED)
    pv.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"ERROR {exc.code}: {exc}", file=sys.stderr)
        return 2
    except tuple(_ERROR_CODES) as exc:
        print(f"ERROR {_reason_code(exc)}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
