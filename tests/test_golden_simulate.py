"""Golden bytes of ``lfdrkit simulate`` reports.

Each case runs the CLI at a small replicate count and compares the JSON
report byte for byte with a committed file under ``tests/golden``.  The
files pin the draw order of every replicate (data, then perturbation, then
the tie-pick at the boundary) and the exact accumulator arithmetic, so any
change to the Monte Carlo core that moves a single draw or a single rounding
shows here.
"""

import json
from pathlib import Path

import pytest

from lfdrkit.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

THEOREM_CRITERIA = "fdr,bfdr,power,mfdr:0:0.1,pfdr:0:0.1"

# the mc_grid benchmark design: m = 5000 on the 1/10 grid, 500 alternatives
# parked at the top cell
GRID_DESIGN = {"generator": {"kind": "discrete-uniform-nulls", "m": 5000, "L": 10,
                             "alt_positions": [10] * 500},
               "alpha": 0.5}
# criterion 9's nonzero-limit design: the alternatives sit in the bottom cell,
# so unperturbed the boundary ties nulls with alternatives in nearly every
# replicate and the tie-pick draw decides the boundary event
GRID_BOTTOM_DESIGN = {"generator": {"kind": "discrete-uniform-nulls", "m": 5000, "L": 10,
                                    "alt_positions": [1] * 500},
                      "alpha": 0.6}

CASES = {
    "theorem-support-line": ["--preset", "theorem-5.1", "--criteria", THEOREM_CRITERIA,
                             "--procedure", "support-line", "--reps", "300", "--seed", "11"],
    "theorem-bh": ["--preset", "theorem-5.1", "--criteria", THEOREM_CRITERIA,
                   "--procedure", "bh", "--reps", "300", "--seed", "12"],
    "theorem-storey-bh": ["--preset", "theorem-5.1", "--criteria", THEOREM_CRITERIA,
                          "--procedure", "storey-bh", "--reps", "300", "--seed", "13"],
    "counterexample-superuniform": ["--preset", "counterexample-superuniform",
                                    "--reps", "300", "--seed", "14"],
    "counterexample-discrete": ["--preset", "counterexample-discrete",
                                "--reps", "300", "--seed", "15"],
    "grid": ["--config", "{grid}", "--criteria", "fdr,bfdr,power",
             "--reps", "100", "--seed", "16"],
    "grid-perturbed": ["--config", "{grid}", "--criteria", "fdr,bfdr,power",
                       "--perturb-discrete", "--reps", "100", "--seed", "17"],
    "grid-bottom": ["--config", "{grid_bottom}", "--criteria", "fdr,bfdr,power",
                    "--reps", "100", "--seed", "18"],
}


def run_case(name: str, tmp_path: Path) -> bytes:
    configs = {}
    for key, design in (("{grid}", GRID_DESIGN), ("{grid_bottom}", GRID_BOTTOM_DESIGN)):
        configs[key] = tmp_path / f"{key.strip('{}')}.json"
        configs[key].write_text(json.dumps(design), encoding="utf-8")
    out = tmp_path / f"{name}.json"
    argv = [str(configs.get(a, a)) for a in CASES[name]]
    assert main(["simulate", *argv, "--out", str(out)]) == 0
    return out.read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_simulate_report_bytes_are_pinned(name, tmp_path):
    want = (GOLDEN / f"simulate_{name}.json").read_bytes()
    assert run_case(name, tmp_path) == want
