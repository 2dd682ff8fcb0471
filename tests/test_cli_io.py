"""The CSV input and output of ``lfdrkit analyze``.

``read_stats_csv`` maps the file and parses it a column at a time, over
windows of whole lines, and hands anything it cannot vouch for to the
``csv.reader`` row loop, which is also the reference here.  Both keep the ids
and the stat cells' text each in one ``TextColumn``, and the writer writes
that text back as the ``stat`` column, quoted as an id would be.  It formats
each run of equal computed floats once and formats and writes rows in
chunks; a row-at-a-time writer kept in this file is its reference.
"""

import contextlib
import csv
import io
import os
import re
import signal
import subprocess
import sys
import threading
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from lfdrkit import cli, core
from lfdrkit.core import DomainError, FitError, Scale, StatVector
from lfdrkit.lfdr import LfdrCurve

# id text the csv module reads back unchanged without quotes
PLAIN_TEXT = st.text(st.characters(blacklist_characters=',"\r\n',
                                   blacklist_categories=("Cs",)), max_size=4)
FLOAT_TEXT = st.floats(allow_nan=False, allow_infinity=False).map(repr)
# float() syntax the row loop accepts, in and out of [0, 1]
P_TOKENS = st.sampled_from(["-0.0", "0.0", "0", "1", "1.0", "1e-05", "5e-324", " 0.5 ",
                            "0.25\t", "+0.75", "1e-0_3", "0.1234567890123456789"])
Z_TOKENS = st.sampled_from(["1_0", "nan", "-inf", "-2.5", "3e300", "-0.0"]) | FLOAT_TEXT
BAD_TOKENS = st.sampled_from(["oops", "", " ", "1.5", "-1e-300", "0x1p-2", "1..0", "nan"])


@st.composite
def clean_files(draw):
    """A file the column reader takes: header, unique ids, valid cells."""
    scale = draw(st.sampled_from([Scale.P_VALUE, Scale.Z_VALUE]))
    ncols = draw(st.sampled_from([2, 3]))
    tokens = P_TOKENS if scale is Scale.P_VALUE else P_TOKENS | Z_TOKENS
    rows = []
    for i in range(draw(st.integers(1, 9))):
        # the single-digit suffix keeps the ids unique
        cells = [draw(PLAIN_TEXT) + str(i), draw(tokens)]
        if ncols == 3:
            cells.append(draw(st.sampled_from(["0", "1"])))
        rows.append(",".join(cells))
    header = draw(st.sampled_from(["id,stat", "ID, Stat "]))
    lines = [header + (",truth" if ncols == 3 else ""), *rows]
    end = "\n" if draw(st.booleans()) else ""
    return "\n".join(lines) + end, scale


MUTATIONS = ("ragged", "extra", "blank", "stat", "truth", "crlf", "quoted", "duplicate",
             "header", "bytes")


@st.composite
def malformed_files(draw):
    """A clean file with one defect, from the list above."""
    text, scale = draw(clean_files())
    lines = text.split("\n")
    row = draw(st.integers(1, len(lines) - 1))
    cells = lines[row].split(",")
    kind = draw(st.sampled_from(MUTATIONS))
    if kind == "ragged":
        cells.pop()
    elif kind == "extra":
        cells.append(draw(PLAIN_TEXT))
    elif kind == "stat" and len(cells) > 1:
        cells[1] = draw(BAD_TOKENS)
    elif kind == "truth" and len(cells) == 3:
        cells[2] = draw(st.sampled_from(["2", "", " 0", "true", "01"]))
    elif kind == "quoted" and cells:
        cells[0] = '"' + draw(st.sampled_from(["a,1", 'say ""hi""', "x\ny", "c\rr"])) + '"'
    elif kind == "duplicate" and row > 1:
        cells[0] = lines[1].split(",")[0]
    elif kind == "header":
        lines[0] = draw(st.sampled_from(["id,value", "stat,id", "id,stat,truth,x", ""]))
    lines[row] = ",".join(cells)
    if kind == "blank":
        lines.insert(row, "")
    text = "\n".join(lines)
    if kind == "crlf":
        text = text.replace("\n", "\r\n")
    data = text.encode("utf-8")
    if kind == "bytes":
        data = data.replace(b",", b"\xff,", 1)
    return data, scale


def _outcome(path, scale):
    """What ``read_stats_csv`` gives: values bitwise and the id and stat
    cells that the writer is handed, or its error."""
    try:
        stats, texts = cli.read_stats_csv(str(path), scale)
    except (cli.CliError, ValueError) as exc:
        return type(exc), getattr(exc, "code", None), str(exc)
    return stats.values.view(np.int64).tolist(), stats.ids[0:stats.m], texts[0:len(texts)]


def _row_loop_outcome(path, scale):
    with patch.object(cli, "_read_columns", return_value=None):
        return _outcome(path, scale)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=clean_files())
def test_column_reader_takes_clean_files_and_matches_the_row_loop(case, tmp_path):
    text, scale = case
    path = tmp_path / "in.csv"
    path.write_text(text, encoding="utf-8", newline="")
    assert cli._read_columns(str(path), path.read_bytes(), scale) is not None
    assert _outcome(path, scale) == _row_loop_outcome(path, scale)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=clean_files() | malformed_files().map(lambda c: (c[0].decode("utf-8", "replace"),
                                                            c[1])))
def test_column_reader_over_windows_of_a_few_lines_matches_the_row_loop(case, tmp_path):
    text, scale = case
    path = tmp_path / "in.csv"
    path.write_text(text, encoding="utf-8", newline="")
    # most lines are shorter than a window, and a window holds a few of them
    with patch.object(cli, "_SCAN_BYTES", 40):
        assert _outcome(path, scale) == _row_loop_outcome(path, scale)


@settings(max_examples=250, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=malformed_files())
@example(case=(b"id,stat\nh1,0.5\n" + b"x" * (csv.field_size_limit() + 1) + b",0.5\n",
               Scale.P_VALUE))
@example(case=(b"id,stat\n\xef\xbb\xbfh1,0.5\nh2,1.5\n", Scale.P_VALUE))
@example(case=(b"\xef\xbb\xbfid,stat\nh1,0.5\n", Scale.P_VALUE))
# a bad header before a bad byte: the row loop's decoder reads ahead of it
@example(case=(b"id,value\nh1,0.5\nh\xff2,0.5\n", Scale.P_VALUE))
@example(case=(b"", Scale.P_VALUE))
@example(case=(b"id,stat\n", Scale.P_VALUE))
@example(case=(b"id,stat", Scale.P_VALUE))
@example(case=(b"id,stat\n,\n", Scale.Z_VALUE))
def test_column_reader_errors_match_the_row_loop(case, tmp_path):
    data, scale = case
    path = tmp_path / "in.csv"
    path.write_bytes(data)
    assert _outcome(path, scale) == _row_loop_outcome(path, scale)


# more rows than two write chunks, so the last chunk is a third one; the
# reader is given windows of SMALL_WINDOW bytes, about 650 lines
CHUNKED_M = 2 * cli._WRITE_ROWS + 1000
SMALL_WINDOW = 1 << 14


@pytest.fixture
def small_windows(monkeypatch):
    monkeypatch.setattr(cli, "_SCAN_BYTES", SMALL_WINDOW)


def _chunked_lines(id_prefix="h"):
    values = np.random.default_rng(5).random(CHUNKED_M)
    return [f"{id_prefix}{i},{v!r}" for i, v in enumerate(values.tolist())]


def _chunked_file(prefix="h", row=None, line=None, end="\n"):
    """The header and CHUNKED_M lines, with data line ``row`` (0-based)
    replaced by ``line``."""
    lines = _chunked_lines(id_prefix=prefix)
    if row is not None:
        lines[row] = line
    return "id,stat\n" + "\n".join(lines) + end


# name: (file text, whether the column reader vouches for it)
CHUNKED_CASES = {
    "clean": (lambda: _chunked_file(), True),
    "clean-non-ascii-ids": (lambda: _chunked_file(prefix="é"), True),
    "no-final-newline": (lambda: _chunked_file(end=""), True),
    # the ids parse, and StatVector refuses them
    "id-repeated-across-chunks": (lambda: _chunked_file(row=2 * cli._WRITE_ROWS + 5,
                                                        line="h3,0.5"), True),
    "bad-stat-in-last-chunk": (lambda: _chunked_file(row=CHUNKED_M - 3, line="h_bad,oops"),
                               False),
    "bad-pvalue-in-last-chunk": (lambda: _chunked_file(row=CHUNKED_M - 3, line="h_bad,1.5"),
                                 False),
    "ragged-line-in-middle-chunk": (lambda: _chunked_file(row=cli._WRITE_ROWS + 7,
                                                          line="h_ragged"), False),
    # a window holds whole lines, so a longer line is left to the row loop
    "line-longer-than-a-window": (lambda: _chunked_file(
        row=cli._WRITE_ROWS + 9, line="h" * SMALL_WINDOW + ",0.5"), False),
}


@pytest.mark.parametrize("case", sorted(CHUNKED_CASES))
def test_column_reader_over_several_chunks_matches_the_row_loop(case, tmp_path, small_windows):
    text, vouched = CHUNKED_CASES[case]
    path = tmp_path / "in.csv"
    path.write_text(text(), encoding="utf-8", newline="")
    for cores in (1, 2, 3):
        with patch.object(core, "_cores", lambda: cores):
            columns = cli._read_columns(str(path), path.read_bytes(), Scale.P_VALUE)
            assert (columns is not None) == vouched
            outcome = _outcome(path, Scale.P_VALUE)
        assert outcome == _row_loop_outcome(path, Scale.P_VALUE)
        if case == "id-repeated-across-chunks":
            assert outcome[1:] == ("bad-input", f"{path}: ids must be unique")
        elif vouched:
            assert len(outcome[1]) == CHUNKED_M
    _assert_no_child_left()


def test_column_reader_leaves_bytes_that_are_not_utf8_past_the_first_chunk_to_the_row_loop(
        tmp_path, small_windows):
    data = _chunked_file().encode("utf-8")
    # an invalid byte in an id of the second chunk
    cut = data.index(f"\nh{cli._WRITE_ROWS + 2},".encode()) + 1
    data = data[:cut] + b"\xff" + data[cut:]
    path = tmp_path / "in.csv"
    path.write_bytes(data)
    # the header is line 1, so the id h{k} begins line k + 2
    line = cli._WRITE_ROWS + 4
    for cores in (1, 2, 3):
        with patch.object(core, "_cores", lambda: cores):
            assert cli._read_columns(str(path), data, Scale.P_VALUE) is None
            outcome = _outcome(path, Scale.P_VALUE)
        assert outcome == _row_loop_outcome(path, Scale.P_VALUE)
        assert outcome == (cli.CliError, "bad-input",
                           f"{path}:{line}: not UTF-8 (invalid start byte, byte 0xff)")
    _assert_no_child_left()


def _analyze_outcome(path, capsys):
    """The exit code, the table and summary bytes or None, and stderr of
    ``analyze`` on ``path``, with the path itself written as PATH."""
    stem = path.parent / "out"
    for suffix in (".csv", ".json"):
        stem.with_suffix(suffix).unlink(missing_ok=True)
    rc = cli.main(["analyze", "--input", str(path), "--out", str(stem)])
    files = [stem.with_suffix(suffix) for suffix in (".csv", ".json")]
    written = [f.read_bytes() for f in files] if all(f.exists() for f in files) else None
    return rc, written, capsys.readouterr().err.replace(str(path), "PATH")


def test_analyze_of_an_empty_file_names_it(tmp_path, capsys):
    path = tmp_path / "in.csv"
    path.write_bytes(b"")
    assert _analyze_outcome(path, capsys) == (2, None, "ERROR bad-input: PATH: empty file\n")


def _serve_once(path, data):
    """A thread that writes ``data`` to the FIFO at ``path`` for one reader."""
    def serve():
        with open(path, "wb") as fh:
            fh.write(data)
    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return thread


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("data, error", [
    (b"id,stat\nh1,0.25\nh2,0.5\nh3,0.75\n", ""),
    (b"id,stat\nh1,0.25\nh2,0.5\nh1,0.75\n", "ERROR bad-input: PATH: ids must be unique\n"),
], ids=["clean", "repeated-id"])
def test_analyze_reads_a_pipe_as_it_reads_a_file(data, error, tmp_path, capsys):
    # a pipe cannot be mapped, so its bytes are read; both inputs are read once
    fifo = tmp_path / "fifo" / "in.csv"
    fifo.parent.mkdir()
    os.mkfifo(fifo)
    thread = _serve_once(fifo, data)
    from_pipe = _analyze_outcome(fifo, capsys)
    thread.join(timeout=10)
    assert not thread.is_alive()
    path = tmp_path / "in.csv"
    path.write_bytes(data)
    assert from_pipe == _analyze_outcome(path, capsys)
    assert from_pipe[0] == (2 if error else 0) and from_pipe[2] == error


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="names a pipe by /dev/fd")
@pytest.mark.parametrize("data, error", [
    (b"id,stat\nh1,oops\n", "ERROR bad-row: PATH:2: non-numeric stat 'oops'\n"),
    (b"id,stat\nh1,0.5\nh\xff2,0.5\n",
     "ERROR bad-input: PATH:3: not UTF-8 (invalid start byte, byte 0xff)\n"),
], ids=["bad-stat", "bad-byte"])
def test_analyze_reports_malformed_input_from_a_pipe_as_from_a_file(data, error, tmp_path,
                                                                    capsys):
    # the row loop parses the bytes already read: the pipe, drained, would read empty
    r, w = os.pipe()
    os.write(w, data)
    os.close(w)
    try:
        rc = cli.main(["analyze", "--input", f"/dev/fd/{r}", "--out", str(tmp_path / "out")])
    finally:
        os.close(r)
    assert (rc, capsys.readouterr().err) == (2, error.replace("PATH", f"/dev/fd/{r}"))
    path = tmp_path / "in.csv"
    path.write_bytes(data)
    assert _analyze_outcome(path, capsys) == (2, None, error)


def test_analyze_writes_the_table_and_summary_to_a_text_only_stdout(tmp_path):
    # a caller may have replaced sys.stdout with a stream that takes str alone
    path = tmp_path / "in.csv"
    path.write_text("id,stat\nh1,0.25\nh2,0.5\n", encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["analyze", "--input", str(path)]) == 0
    stem = tmp_path / "out"
    assert cli.main(["analyze", "--input", str(path), "--out", str(stem)]) == 0
    assert out.getvalue() == "".join(stem.with_suffix(suffix).read_text(encoding="utf-8")
                                     for suffix in (".csv", ".json"))


def _all_hashes_collide(ids):
    return np.zeros(len(ids), dtype=np.int64)


@pytest.mark.parametrize("reader", ["columns", "rows"])
def test_reader_tells_ids_apart_when_every_hash_collides(reader, tmp_path, capsys):
    # the reader's hashes leave the exact check to every id, as StatVector's do
    path = tmp_path / "in.csv"
    path.write_text("id,stat\n" + "".join(f"h{i},0.5\n" for i in range(50)), encoding="utf-8")
    # the row loop, or the column reader over several windows
    reader_patch = patch.object(cli, "_read_columns", return_value=None) if reader == "rows" \
        else patch.object(cli, "_SCAN_BYTES", 64)
    with patch.object(cli, "_hashes", _all_hashes_collide), reader_patch:
        vouched = cli._read_columns(str(path), path.read_bytes(), Scale.P_VALUE) is not None
        assert vouched == (reader == "columns")
        assert cli.read_stats_csv(str(path), Scale.P_VALUE)[0].ids[0:50] == \
            [f"h{i}" for i in range(50)]
        path.write_text(path.read_text(encoding="utf-8") + "h7,0.5\n", encoding="utf-8")
        assert _analyze_outcome(path, capsys) == \
            (2, None, "ERROR bad-input: PATH: ids must be unique\n")


def test_reader_checks_the_values_before_the_ids(tmp_path):
    path = tmp_path / "in.csv"
    path.write_text("id,stat\nh1,nan\nh1,0.5\n", encoding="utf-8")
    assert _outcome(path, Scale.Z_VALUE) == \
        (cli.CliError, "bad-input", f"{path}: values must be finite")


def test_score_hypotheses_names_a_read_id(tmp_path):
    path = tmp_path / "in.csv"
    path.write_text("id,stat\nok,0.1\ntail,0.95\n", encoding="utf-8")
    stats, _ = cli.read_stats_csv(str(path), Scale.P_VALUE)
    fit = cli.grenander_fit(StatVector([0.2, 0.5], Scale.P_VALUE))
    curve = LfdrCurve(1.0, cli.Uniform01(), fit)
    with pytest.raises(DomainError, match=r"^statistic tail \(index 1\): "):
        cli.score_hypotheses(curve, stats)


SPECIAL_FLOATS = st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                                  1e16, 1e-05, 0.1, float("inf"), float("nan")])


def _sorted_cells(values):
    """All cells of ``_float_cells`` along the values' stable sort order."""
    column = cli._float_cells(values, np.argsort(values, kind="stable"))
    return column[0:len(column)]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats() | SPECIAL_FLOATS, max_size=40))
def test_float_cells_equal_repr(xs):
    values = np.array(xs, dtype=float)
    assert _sorted_cells(values) == list(map(repr, values.tolist()))


def test_float_cells_with_many_repeats_keep_signed_zeros_apart():
    # the last two have reprs of 24 characters, the longest a double has
    base = np.array([-0.0, 0.0, 5e-324, 1e16, 1e-05, 0.1, 1 / 3, -2.2250738585072014e-308,
                     -1.2345678901234567e-100])
    assert max(len(repr(v)) for v in base.tolist()) == cli._FLOAT_CELL_BYTES - 1
    values = np.random.default_rng(3).permutation(np.repeat(base, 500))
    cells = _sorted_cells(values)
    assert cells == list(map(repr, values.tolist()))
    assert cells.count("-0.0") == cells.count("0.0") == 500


def test_float_cells_of_repeats_not_adjacent_in_the_order_equal_repr():
    # equal values apart from each other along the order are several runs
    values = np.tile([0.5, -0.0, 1e-05, 0.0, 0.5, 1 / 3], 200)
    column = cli._float_cells(values, np.arange(values.size))
    assert column[0:values.size] == list(map(repr, values.tolist()))
    assert column[7:20] == list(map(repr, values[7:20].tolist()))


def test_analyze_quotes_ids_that_need_it(tmp_path):
    # the row loop reads these, and the id column holds them as they are,
    # NUL included (the csv module reads and writes it since Python 3.11)
    ids = ["a,1", 'say "hi"', "two\nlines", "cr\rid", "plain", "", "nul\x00id", "é,\n\"\x00"]
    path = tmp_path / "in.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "stat"])
        writer.writerows([i, repr(0.1 * (k + 1))] for k, i in enumerate(ids))
    stem = tmp_path / "out"
    assert cli.main(["analyze", "--input", str(path), "--out", str(stem)]) == 0
    with open(stem.with_suffix(".csv"), encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    assert all(len(row) == 8 for row in rows)
    assert [row[0] for row in rows[1:]] == ids
    assert b"\nnul\x00id," in stem.with_suffix(".csv").read_bytes()


# stat cells that are not the repr of their value; 0.50 and 5E-1 are one value
STAT_TEXTS = ["1e-2", "0.50", " 0.7", "+.9", "5E-1"]


@pytest.mark.parametrize("reader", ["columns", "rows"])
def test_analyze_writes_each_stat_cell_as_the_input_holds_it(reader, tmp_path):
    # a quoted cell holding LF, which float() takes, leaves the file to the row loop
    texts = STAT_TEXTS + (["0.5\n"] if reader == "rows" else [])
    cells = ['"' + t + '"' if "\n" in t else t for t in texts]
    path = tmp_path / "in.csv"
    path.write_text("id,stat,truth\n" + "".join(f"h{k},{cell},{k % 2}\n"
                                                for k, cell in enumerate(cells)),
                    encoding="utf-8", newline="")
    vouched = cli._read_columns(str(path), path.read_bytes(), Scale.P_VALUE) is not None
    assert vouched == (reader == "columns")
    stem = tmp_path / "out"
    assert cli.main(["analyze", "--input", str(path), "--out", str(stem)]) == 0
    # every cell as written, and the one holding LF quoted as an id would be
    table = stem.with_suffix(".csv").read_bytes()
    for k, cell in enumerate(cells):
        assert f"\nh{k},{cell},".encode() in table
    with open(stem.with_suffix(".csv"), encoding="utf-8", newline="") as fh:
        read_back = [row[1] for row in list(csv.reader(fh))[1:]]
    assert read_back == texts
    assert np.array(read_back, dtype=float).view(np.int64).tolist() == \
        np.array(list(map(float, texts))).view(np.int64).tolist()


def _reference_table(ids, stats, qvals, scores, flag_columns) -> str:
    """The table written one row at a time, each float cell its own ``repr``."""
    names = ["id", "stat", "q_value", "lfdr_score", "rejected_bh", "rejected_storey_bh",
             "rejected_sl", "rejected_lfdr"]
    lines = [",".join(names) + "\n"]
    for i, row in enumerate(zip(ids, stats.tolist(), qvals.tolist(), scores.tolist())):
        flags = ["1" if column[i] else "0" for column in flag_columns]
        lines.append(",".join([row[0], *map(repr, row[1:]), *flags]) + "\n")
    return "".join(lines)


def test_analyze_table_over_several_write_chunks(tmp_path, monkeypatch):
    m = 150_000
    assert m > 2 * cli._WRITE_ROWS
    rng = np.random.default_rng(12)
    p = 1.0 - rng.random(m)
    p[: m // 10] = np.maximum(rng.beta(0.1, 1.0, m // 10), np.finfo(float).tiny)
    # repeated values in half the rows, so the cells are shared
    p[m // 2:] = np.maximum(np.round(p[m // 2:], 3), 1e-3)
    ids = [f"h{i}" for i in range(m)]
    path = tmp_path / "in.csv"
    path.write_text("id,stat\n" + "".join(f"{i},{v!r}\n" for i, v in zip(ids, p.tolist())),
                    encoding="utf-8")

    seen = {}
    for name in ("q_values", "score_hypotheses", "bh_threshold", "support_line",
                 "lfdr_threshold_rule"):
        def record(*args, _fn=getattr(cli, name), _name=name, **kwargs):
            result = _fn(*args, **kwargs)
            seen.setdefault(_name, []).append(result)
            return result
        monkeypatch.setattr(cli, name, record)
    stem = tmp_path / "out"
    assert cli.main(["analyze", "--input", str(path), "--out", str(stem)]) == 0

    (bh, storey_bh), (sl,) = seen["bh_threshold"], seen["support_line"]
    flag_columns = []
    for rejected in (bh.rejected, storey_bh.rejected, sl.rejected,
                     seen["lfdr_threshold_rule"][0]):
        column = np.zeros(m, dtype=bool)
        column[rejected] = True
        flag_columns.append(column)
    assert all(column.any() and not column.all() for column in flag_columns)
    want = _reference_table(ids, p, seen["q_values"][0],
                            seen["score_hypotheses"][0], flag_columns)
    assert stem.with_suffix(".csv").read_text(encoding="utf-8") == want


def _list_column(n):
    return ["1"] * n


def _float_column(n):  # no repeats: formatted per chunk
    return cli._float_cells(np.arange(n, dtype=float), np.arange(n))


def _repeats_column(n):  # repeats: gathered per chunk from the distinct cells
    return cli._float_cells(np.zeros(n), np.arange(n))


def _flag_column(n):
    return cli._ChunkCells(n, lambda rows: cli._FLAG_CELLS[np.zeros(n, np.intp)[rows]].tolist())


@pytest.mark.parametrize("lengths", [(3, 2), (2, 3),
                                     (cli._WRITE_ROWS + 1, cli._WRITE_ROWS + 2)])
def test_write_csv_refuses_columns_of_unequal_length(lengths, tmp_path):
    path = tmp_path / "t.csv"
    for kinds in [(_list_column, _list_column), (_list_column, _float_column),
                  (_float_column, _repeats_column), (_repeats_column, _flag_column)]:
        columns = {name: kind(n) for name, kind, n in zip("ab", kinds, lengths)}
        with pytest.raises(ValueError):
            cli.write_csv(str(path), columns)
        assert not path.exists()


def test_write_csv_refuses_a_chunked_column_shorter_than_its_length(tmp_path):
    columns = {"a": _list_column(3), "b": cli._ChunkCells(3, lambda rows: ["1", "2"])}
    with pytest.raises(ValueError):
        cli.write_csv(str(tmp_path / "t.csv"), columns)


# ---------------------------------------------------------------------------
# analyze on several processes
# ---------------------------------------------------------------------------

# rows of the inputs below; with windows of SPLIT_WINDOW bytes and write chunks
# of SPLIT_CHUNK rows, both the read and the write split between 3 processes
SPLIT_M = 300
SPLIT_WINDOW = 256
SPLIT_CHUNK = 16


def _split_file(ids=None, stats=None, truth=False):
    """An input of SPLIT_M rows: ids h0, h1, ... and p-values with 10% Beta
    alternatives, unless given."""
    rng = np.random.default_rng(31)
    if stats is None:
        stats = 1.0 - rng.random(SPLIT_M)
        stats[::10] = np.maximum(rng.beta(0.1, 1.0, SPLIT_M // 10), np.finfo(float).tiny)
    ids = [f"h{i}" for i in range(SPLIT_M)] if ids is None else ids
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["id", "stat"] + (["truth"] if truth else []))
    writer.writerows([i, repr(v)] + ([str(k % 3 // 2)] if truth else [])
                     for k, (i, v) in enumerate(zip(ids, stats.tolist())))
    return out.getvalue()


def _z_stats():
    z = np.random.default_rng(32).normal(0.0, 1.0, SPLIT_M)
    z[:30] += 3.0
    return z


# name: (file text, analyze flags, or None for no --out, whether the column
# reader takes the file)
SPLIT_CASES = {
    "plain": (lambda: _split_file(), [], True),
    "quoted-ids": (lambda: _split_file(ids=[f'q,{i}' if i % 7 else f'say "{i}"'
                                            for i in range(SPLIT_M)]), [], False),
    "non-ascii-ids": (lambda: _split_file(ids=[f"é{i}日" for i in range(SPLIT_M)]), [], True),
    "nul-ids": (lambda: _split_file(ids=[f"n\x00{i}" for i in range(SPLIT_M)]), [], True),
    "repeated-stats": (lambda: _split_file(stats=np.maximum(np.round(
        np.random.default_rng(33).random(SPLIT_M), 2), 0.01)), [], True),
    "truth": (lambda: _split_file(truth=True), [], True),
    "z-npmle": (lambda: _split_file(stats=_z_stats()),
                ["--scale", "z", "--density", "npmle:50:1e-6"], True),
    "z-lindsey": (lambda: _split_file(stats=_z_stats()),
                  ["--scale", "z", "--density", "lindsey:5:60"], True),
    "stdout": (lambda: _split_file(), None, True),
}


def _split_analyze(cores, path, flags, capsys):
    """``analyze`` of ``path`` on ``cores`` processes, with windows and write
    chunks small enough to split, and with ``flags``, or without them or
    --out where None: the exit code, the table and summary bytes, stdout,
    stderr, and the part count of each split."""
    stem = path.parent / "out"
    for suffix in (".csv", ".json"):
        stem.with_suffix(suffix).unlink(missing_ok=True)
    parts = []

    def counted(work, split, what, _run=cli._in_processes):
        parts.append(len(split))
        return _run(work, split, what)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_cores", lambda: cores)
        mp.setattr(cli, "_SCAN_BYTES", SPLIT_WINDOW)
        mp.setattr(cli, "_WRITE_ROWS", SPLIT_CHUNK)
        mp.setattr(cli, "_in_processes", counted)
        rc = cli.main(["analyze", "--input", str(path),
                       *(["--out", str(stem), *flags] if flags is not None else [])])
    out, err = capsys.readouterr()
    written = [stem.with_suffix(suffix).read_bytes() for suffix in (".csv", ".json")
               if stem.with_suffix(suffix).exists()]
    return (rc, written, out, err.replace(str(path), "PATH")), parts


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("case", sorted(SPLIT_CASES))
def test_analyze_bytes_do_not_depend_on_the_process_count(case, tmp_path, capsys):
    text, flags, vouched = SPLIT_CASES[case]
    path = tmp_path / "in.csv"
    path.write_text(text(), encoding="utf-8", newline="")
    outcomes = []
    for cores in (1, 2, 3):
        outcome, parts = _split_analyze(cores, path, flags, capsys)
        outcomes.append(outcome)
        # the read, unless the row loop takes the file, and the write split
        # between all the processes, and the formatting of repeated values
        # between at most all
        assert parts[-1] == max(parts) == cores and (parts[0] == cores or not vouched)
    rc, written, out, _ = outcomes[0]
    # the table's header and rows, then the summary
    assert rc == 0 and (out.split("\n{")[0].count("\n") == SPLIT_M if flags is None
                        else len(written) == 2)
    assert outcomes[1] == outcomes[0] and outcomes[2] == outcomes[0]
    _assert_no_child_left()


def _failing(name, bad, fail):
    """``cli.<name>``, a function of a list of ids, calling ``fail(id)`` first
    for the first id of ``bad`` in the list."""
    original = getattr(cli, name)

    def patched(ids):
        for i in ids:
            if i in bad:
                fail(i)
        return original(ids)

    return patched


# the reader hashes the ids of a window, and the writer quotes those of a chunk
STAGES = {"read": "_hashes", "write": "_text_cells"}


@pytest.mark.parametrize("stage", sorted(STAGES))
def test_analyze_on_several_processes_raises_the_error_of_the_earliest_failing_rows(
        stage, tmp_path, capsys):
    def fail(i):
        raise FitError(f"refused {i}")

    path = tmp_path / "in.csv"
    path.write_text(_split_file(), encoding="utf-8")
    # on 3 processes h130 is in the first child's rows and h250 in the second's
    with patch.object(cli, STAGES[stage], _failing(STAGES[stage], {"h130", "h250"}, fail)):
        outcomes = [_split_analyze(cores, path, [], capsys)[0][::3] for cores in (1, 2, 3)]
    assert outcomes == [(2, "ERROR fit: refused h130\n")] * 3
    _assert_no_child_left()


@pytest.mark.parametrize("stage", sorted(STAGES))
def test_analyze_names_the_rows_of_a_killed_child(stage, tmp_path, capsys):
    parent = os.getpid()

    def kill(i):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)

    path = tmp_path / "in.csv"
    path.write_text(_split_file(), encoding="utf-8")
    with patch.object(cli, STAGES[stage], _failing(STAGES[stage], {"h250"}, kill)):
        (rc, _, _, err), _ = _split_analyze(3, path, [], capsys)
    killed = re.fullmatch(r"ERROR io: the process running rows \[(\d+), 300\) ended by "
                          r"signal 9 \(.*\) without a result\n", err)
    assert rc == 2 and killed, err
    # the write's last run is of whole 16-row chunks from row 192 on
    assert int(killed[1]) == 192 if stage == "write" else int(killed[1]) <= 250
    _assert_no_child_left()


@pytest.mark.parametrize("how", ["raise", "kill"])
def test_analyze_declines_a_bad_stat_in_the_calling_process_rows_before_a_child_fails(
        how, tmp_path, capsys):
    parent = os.getpid()

    def fail(i):
        if how == "raise":
            raise FitError(f"refused {i}")
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)

    # line 12 is in the first window, which the calling process parses; on 2
    # and 3 processes h250 is in the last child's rows
    lines = _split_file().split("\n")
    lines[11] = "h10,oops"
    path = tmp_path / "in.csv"
    path.write_text("\n".join(lines), encoding="utf-8")
    with patch.object(cli, "_hashes", _failing("_hashes", {"h250"}, fail)):
        outcomes = [_split_analyze(cores, path, [], capsys)[0][::3] for cores in (1, 2, 3)]
    # the row loop's error, which it meets before it hashes an id
    assert outcomes == [(2, "ERROR bad-row: PATH:12: non-numeric stat 'oops'\n")] * 3
    _assert_no_child_left()


def test_analyze_of_one_window_and_one_chunk_never_forks(tmp_path, capsys):
    path = tmp_path / "in.csv"
    path.write_text(_split_file(), encoding="utf-8")
    assert path.stat().st_size < cli._SCAN_BYTES and SPLIT_M <= cli._WRITE_ROWS
    with patch.object(core, "_cores", lambda: 3), \
            patch.object(os, "fork", side_effect=AssertionError("forked")):
        assert _analyze_outcome(path, capsys)[::2] == (0, "")
    _assert_no_child_left()


def test_a_fork_that_fails_leaves_no_child(tmp_path, capsys):
    fork, forks = os.fork, []

    def second_fails():
        forks.append(os.getpid())
        if len(forks) == 2:
            raise BlockingIOError(11, "no process for you")
        return fork()

    path = tmp_path / "in.csv"
    path.write_text(_split_file(), encoding="utf-8")
    with patch.object(os, "fork", second_fails):
        (rc, _, _, err), _ = _split_analyze(3, path, [], capsys)
    assert (rc, err) == (2, "ERROR io: [Errno 11] no process for you\n")
    _assert_no_child_left()


# run in a fresh interpreter: the resident set after import, analyze, then the
# high-water mark; VmHWM, not ru_maxrss, because on Linux a child's ru_maxrss
# starts from its parent's peak, and the test runner's can exceed the child's
_PEAK_PROBE = """
import sys
from lfdrkit import cli

def status_mb(key):
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith(key + ":")) / 1024

base = status_mb("VmRSS")
code = cli.main(["analyze", "--input", sys.argv[1], "--out", sys.argv[2]])
print(code, status_mb("VmHWM") - base)
"""
# analyze of GUARD_M p-values may raise the resident set this many MB above
# its size after import: it rose 28.0 MB on Linux with Python 3.11 and
# numpy 2.4 (23.2 MB before the stat texts were packed beside the ids),
# against 58.6 MB when the ids were 2 * 10**5 str objects and the input one
# buffer with masks of its size
GUARD_M = 200_000
GUARD_MB = 35.0


def _guard_input(tmp_path):
    rng = np.random.default_rng(26)
    p = 1.0 - rng.random(GUARD_M)
    alt = rng.permutation(GUARD_M)[:GUARD_M // 10]
    p[alt] = np.maximum(rng.beta(0.05, 1.0, alt.size), np.finfo(float).tiny)
    path = tmp_path / "in.csv"
    path.write_text("id,stat\n" + "".join(f"h{i},{v!r}\n" for i, v in enumerate(p.tolist())),
                    encoding="utf-8")
    return path


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="reads the peak resident set from /proc")
def test_analyze_peak_memory_over_the_import_is_bounded(tmp_path):
    path = _guard_input(tmp_path)
    proc = subprocess.run([sys.executable, "-c", _PEAK_PROBE, str(path), str(tmp_path / "out")],
                          capture_output=True, text=True, env=dict(os.environ), timeout=600)
    assert proc.returncode == 0, proc.stderr
    code, grown = proc.stdout.split()
    assert code == "0"
    assert float(grown) < GUARD_MB


# the same on 2 processes, then the highest peak of the children over the
# resident set after import: a child's ru_maxrss counts the pages it shares
# with this process when it is forked, then its own
_CHILDREN_PEAK_PROBE = _PEAK_PROBE.replace(
    "from lfdrkit import cli\n", "import resource\nfrom lfdrkit import cli, core\n"
    "core._cores = lambda: 2\n").replace(
    'status_mb("VmHWM") - base',
    "resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024 - base")
CHILDREN_GUARD_MB = 25.0


@pytest.mark.skipif(not (os.path.exists("/proc/self/status") and hasattr(os, "fork")),
                    reason="reads the resident set from /proc and forks")
def test_analyze_children_peak_memory_over_the_import_is_bounded(tmp_path):
    path = _guard_input(tmp_path)
    proc = subprocess.run([sys.executable, "-c", _CHILDREN_PEAK_PROBE, str(path),
                           str(tmp_path / "out")],
                          capture_output=True, text=True, env=dict(os.environ), timeout=600)
    assert proc.returncode == 0, proc.stderr
    code, grown = proc.stdout.split()
    assert code == "0"
    # a child whose peak was below the import's resident set would not show
    assert 0.0 < float(grown) < CHILDREN_GUARD_MB
