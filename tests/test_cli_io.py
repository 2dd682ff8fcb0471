"""The CSV input and output of ``lfdrkit analyze``.

``read_stats_csv`` parses a file a column at a time, in chunks of rows, and
hands anything it cannot vouch for to the ``csv.reader`` row loop, which is
also the reference here.  The writer formats each run of equal floats once
and formats and writes rows in chunks; a row-at-a-time writer kept in this
file is its reference.
"""

import csv
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from lfdrkit import cli
from lfdrkit.core import Scale

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
    """What ``read_stats_csv`` gives: values bitwise and ids, or its error."""
    try:
        stats = cli.read_stats_csv(str(path), scale)
    except (cli.CliError, ValueError) as exc:
        return type(exc), getattr(exc, "code", None), str(exc)
    return stats.values.view(np.int64).tolist(), stats.ids


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


# more rows than two read chunks, so the last chunk is a third one
CHUNKED_M = 2 * cli._WRITE_ROWS + 1000


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
}


@pytest.mark.parametrize("case", sorted(CHUNKED_CASES))
def test_column_reader_over_several_chunks_matches_the_row_loop(case, tmp_path):
    text, vouched = CHUNKED_CASES[case]
    path = tmp_path / "in.csv"
    path.write_text(text(), encoding="utf-8", newline="")
    columns = cli._read_columns(str(path), path.read_bytes(), Scale.P_VALUE)
    assert (columns is not None) == vouched
    outcome = _outcome(path, Scale.P_VALUE)
    assert outcome == _row_loop_outcome(path, Scale.P_VALUE)
    if case == "id-repeated-across-chunks":
        assert outcome[1:] == ("bad-input", f"{path}: ids must be unique")
    elif vouched:
        assert len(outcome[1]) == CHUNKED_M


def test_column_reader_leaves_bytes_that_are_not_utf8_past_the_first_chunk_to_the_row_loop(
        tmp_path):
    data = _chunked_file().encode("utf-8")
    # an invalid byte in an id of the second chunk
    cut = data.index(f"\nh{cli._WRITE_ROWS + 2},".encode()) + 1
    data = data[:cut] + b"\xff" + data[cut:]
    path = tmp_path / "in.csv"
    path.write_bytes(data)
    assert cli._read_columns(str(path), data, Scale.P_VALUE) is None
    outcome = _outcome(path, Scale.P_VALUE)
    assert outcome == _row_loop_outcome(path, Scale.P_VALUE)
    # the header is line 1, so the id h{k} begins line k + 2
    line = cli._WRITE_ROWS + 4
    assert outcome == (cli.CliError, "bad-input",
                       f"{path}:{line}: not UTF-8 (invalid start byte, byte 0xff)")


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
    base = np.array([-0.0, 0.0, 5e-324, 1e16, 1e-05, 0.1, 1 / 3])
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
    ids = ["a,1", 'say "hi"', "two\nlines", "cr\rid", "plain", ""]
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
