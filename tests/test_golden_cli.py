"""Golden bytes of ``lfdrkit analyze`` tables and ``lfdrkit calibrate`` curves.

Each case runs the CLI on a small input and compares every byte it writes
with committed files under ``tests/golden``.  The inputs are drawn here
from fixed seeds and written with ``repr``, so the CSV parser reads back
the exact floats.  The files pin the float text of every cell, the 0/1
flags, the empty cell of a bin without data and the JSON summary.
"""

import functools
from pathlib import Path

import numpy as np
import pytest

from lfdrkit import cli
from lfdrkit.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"


def write_pvalues(path: Path) -> None:
    """1,000 p-values: 100 Beta(0.2, 1) alternatives at random rows, uniform nulls."""
    rng = np.random.default_rng(51)
    p = 1.0 - rng.random(1000)
    alt = rng.permutation(1000)[:100]
    p[alt] = np.maximum(rng.beta(0.2, 1.0, 100), np.finfo(float).tiny)
    path.write_text("id,stat\n" + "".join(f"h{i},{v!r}\n" for i, v in enumerate(p.tolist())),
                    encoding="utf-8")


def write_zvalues(path: Path) -> None:
    """400 z-values: N(2.5, 1) in the first 40 rows, N(0, 1) in the rest."""
    rng = np.random.default_rng(52)
    z = rng.normal(0.0, 1.0, 400)
    z[:40] += 2.5
    path.write_text("id,stat\n" + "".join(f"g{i},{v!r}\n" for i, v in enumerate(z.tolist())),
                    encoding="utf-8")


ANALYZE_CASES = {
    "p-grenander": ["--input", "{p}", "--alpha", "0.1"],
    "p-window": ["--input", "{p}", "--pi0", "window:0.5:0.5"],
    "z-lindsey": ["--input", "{z}", "--scale", "z", "--density", "lindsey:5:60"],
    "z-npmle": ["--input", "{z}", "--scale", "z", "--density", "npmle:100:1e-6"],
}

CALIBRATE_SCORERS = ("p-value", "q-value", "oracle-lfdr", "estimated-lfdr")


def analyze_argv(name: str, tmp_path: Path):
    inputs = {"{p}": tmp_path / "p.csv", "{z}": tmp_path / "z.csv"}
    write_pvalues(inputs["{p}"])
    write_zvalues(inputs["{z}"])
    return ["analyze", *(str(inputs.get(a, a)) for a in ANALYZE_CASES[name])]


@pytest.mark.parametrize("name", sorted(ANALYZE_CASES))
def test_analyze_table_and_summary_bytes_are_pinned(name, tmp_path, capsys):
    stem = tmp_path / "out"
    assert main([*analyze_argv(name, tmp_path), "--out", str(stem)]) == 0
    # every golden fit converges, so nothing warns
    assert capsys.readouterr().err == ""
    assert stem.with_suffix(".csv").read_bytes() == \
        (GOLDEN / f"analyze_{name}.csv").read_bytes()
    assert stem.with_suffix(".json").read_bytes() == \
        (GOLDEN / f"analyze_{name}.json").read_bytes()


@pytest.mark.parametrize("kind", ["npmle", "lindsey"])
def test_an_unconverged_fit_warns_once_and_still_reports(kind, tmp_path, capsys,
                                                         monkeypatch):
    z = tmp_path / "z.csv"
    write_zvalues(z)
    if kind == "npmle":
        # no fit certifies a KKT gap of 1e-300, so all 200 Newton steps run
        density, steps = "npmle:100:1e-300", 200
    else:
        density, steps = "lindsey:5:60", 2
        monkeypatch.setattr(cli, "lindsey_fit", functools.partial(cli.lindsey_fit,
                                                                  max_iter=steps))
    stem = tmp_path / "out"
    argv = ["analyze", "--input", str(z), "--scale", "z", "--density", density]
    assert main([*argv, "--out", str(stem)]) == 0
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"WARNING fit: the {kind} fit did not converge in {steps} Newton "
                   "steps; scoring with its last iterate\n")
    # the warning stays off stdout, which carries the same report as --out
    assert main(argv) == 0
    assert capsys.readouterr().out == stem.with_suffix(".csv").read_text() + \
        stem.with_suffix(".json").read_text()


def test_analyze_to_stdout_writes_the_table_then_the_summary(tmp_path, capsysbinary):
    assert main(analyze_argv("p-grenander", tmp_path)) == 0
    out, _ = capsysbinary.readouterr()
    assert out == (GOLDEN / "analyze_p-grenander.csv").read_bytes() + \
        (GOLDEN / "analyze_p-grenander.json").read_bytes()


@pytest.mark.parametrize("scorer", CALIBRATE_SCORERS)
def test_calibrate_curve_bytes_are_pinned(scorer, tmp_path):
    out = tmp_path / "curve.csv"
    assert main(["calibrate", "--preset", "fig2-gaussian", "--scorer", scorer,
                 "--reps", "3", "--seed", "3", "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"calibrate_fig2-gaussian_{scorer}.csv").read_bytes()


def test_calibrate_to_stdout_leaves_empty_bins_blank(capsysbinary):
    assert main(["calibrate", "--preset", "theorem-5.1", "--scorer", "oracle-lfdr",
                 "--bin-width", "0.01", "--reps", "20", "--seed", "5"]) == 0
    out, _ = capsysbinary.readouterr()
    want = (GOLDEN / "calibrate_theorem-5.1_oracle-lfdr.csv").read_bytes()
    assert out == want
    # bins that no score reached have a count of 0 and an empty null fraction
    assert b",0,\n" in want
