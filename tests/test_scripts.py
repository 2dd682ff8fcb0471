"""Smoke tests for the experiment scripts under ``scripts/``.

Each script is loaded by path and its ``main()`` run in-process under a
patched ``sys.argv``, so an API change that breaks a script fails here.
"""

import importlib.util
import sys
from pathlib import Path

from lfdrkit.simulate import PRESETS, SCORERS

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, argv, monkeypatch):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", [f"{name}.py", *argv])
    return module.main()


def test_calibration_curve_writes_one_csv_per_scorer(tmp_path, monkeypatch, capsys):
    code = run_script("run_calibration_curve", ["--reps", "2", "--outdir", str(tmp_path)],
                      monkeypatch)
    assert code == 0
    m = PRESETS["fig2-gaussian"][0].m
    for scorer in SCORERS:
        rows = (tmp_path / f"calibration_{scorer.replace('-', '_')}.csv").read_text().splitlines()
        assert rows[0] == "bin_lo,bin_hi,count,null_fraction"
        assert len(rows) == 41
        assert sum(int(r.split(",")[2]) for r in rows[1:]) == 2 * m
    assert capsys.readouterr().out.count("wrote ") == len(SCORERS)


def test_discrete_grid_trend_prints_one_row_per_m(monkeypatch, capsys):
    run_script("run_discrete_grid_trend", ["--reps", "50", "--m", "10", "20"], monkeypatch)
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "pi0*alpha = 0.45"
    rows = [ln.split() for ln in lines[2:]]
    assert [(r[0], r[1]) for r in rows] == [("10", "18"), ("20", "36")]
    assert all(0.0 <= float(x) <= 1.0 for r in rows for x in (r[2], r[4]))
