import json
import os
import subprocess
import sys

import numpy as np
import pytest

from lfdrkit.cli import main


def run_cli(args, capsys):
    code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture
def pfile(tmp_path):
    path = tmp_path / "pvals.csv"
    path.write_text("id,stat\nh1,0.01\nh2,0.02\nh3,0.03\nh4,0.04\n", encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def test_analyze_four_row_example(pfile, tmp_path, capsys):
    out = str(tmp_path / "res")
    code, _, _ = run_cli(["analyze", "--input", pfile, "--alpha", "0.05",
                          "--out", out], capsys)
    assert code == 0
    rows = (tmp_path / "res.csv").read_text().strip().splitlines()
    header = rows[0].split(",")
    qcol = header.index("q_value")
    qvals = [float(r.split(",")[qcol]) for r in rows[1:]]
    assert qvals == [0.04, 0.04, 0.04, 0.04]
    summary = json.loads((tmp_path / "res.json").read_text())
    assert summary["procedures"]["bh"]["rejections"] == 4
    assert summary["procedures"]["sl"]["rejections"] >= 1


def test_analyze_fixed_pi0(pfile, tmp_path, capsys):
    out = str(tmp_path / "res")
    code, _, _ = run_cli(["analyze", "--input", pfile, "--alpha", "0.05",
                          "--pi0", "fixed:0.5", "--out", out], capsys)
    assert code == 0
    summary = json.loads((tmp_path / "res.json").read_text())
    assert summary["pi0_hat"] == 0.5


@pytest.mark.parametrize("lam", ["nan", "inf", "0", "-2"])
def test_analyze_lambda_must_be_finite_and_positive(lam, pfile, tmp_path, capsys):
    code, out, err = run_cli(["analyze", "--input", pfile, f"--lambda={lam}",
                              "--out", str(tmp_path / "res")], capsys)
    assert code == 2 and out == ""
    assert err.startswith("ERROR bad-arg") and "lambda" in err
    assert list(tmp_path.iterdir()) == [tmp_path / "pvals.csv"]


def test_analyze_all_near_one_rejects_nothing(tmp_path, capsys):
    path = tmp_path / "dull.csv"
    path.write_text("id,stat\n" + "".join(f"h{i},0.9{i}\n" for i in range(1, 8)),
                    encoding="utf-8")
    out = str(tmp_path / "res")
    code, _, _ = run_cli(["analyze", "--input", str(path), "--out", out], capsys)
    assert code == 0
    summary = json.loads((tmp_path / "res.json").read_text())
    assert summary["pi0_hat"] == 1.0
    for proc in summary["procedures"].values():
        assert proc["rejections"] == 0


def test_analyze_roundtrip_preserves_values(pfile, tmp_path, capsys):
    out = str(tmp_path / "res")
    run_cli(["analyze", "--input", pfile, "--out", out], capsys)
    rows = (tmp_path / "res.csv").read_text().strip().splitlines()
    header = rows[0].split(",")
    scol, qcol = header.index("stat"), header.index("q_value")
    reparsed = [(float(r.split(",")[scol]), float(r.split(",")[qcol]))
                for r in rows[1:]]
    # repr round-trip: re-serializing the parsed floats is byte identical
    for line, (s, q) in zip(rows[1:], reparsed):
        parts = line.split(",")
        assert parts[scol] == repr(s) and parts[qcol] == repr(q)


def test_analyze_config_file_with_flag_override(pfile, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"input": pfile, "alpha": 0.5, "pi0": "fixed:0.9"}),
                   encoding="utf-8")
    out = str(tmp_path / "res")
    code, _, err = run_cli(["analyze", "--config", str(cfg), "--alpha", "0.05",
                            "--out", out], capsys)
    assert code == 0, err
    summary = json.loads((tmp_path / "res.json").read_text())
    assert summary["alpha"] == 0.05       # flag wins
    assert summary["pi0_hat"] == 0.9      # config key survives


def test_analyze_bad_row_names_line(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("id,stat\nh1,0.2\nh2,oops\n", encoding="utf-8")
    code, _, err = run_cli(["analyze", "--input", str(path)], capsys)
    assert code == 2
    assert err.startswith("ERROR bad-row")
    assert ":3:" in err  # 1-based line number, header is line 1


def test_analyze_out_of_range_pvalue_names_id(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("id,stat\nfirst,0.2\nnaughty,1.7\n", encoding="utf-8")
    code, _, err = run_cli(["analyze", "--input", str(path)], capsys)
    assert code == 2
    assert err.startswith("ERROR bad-pvalue")
    assert "naughty" in err


def test_analyze_z_scale_with_lindsey(tmp_path, capsys):
    rng = np.random.default_rng(8)
    z = rng.normal(0, 1, 400)
    z[:20] += 2.5
    path = tmp_path / "z.csv"
    path.write_text("id,stat\n" + "".join(f"g{i},{float(z[i])!r}\n" for i in range(400)),
                    encoding="utf-8")
    out = str(tmp_path / "res")
    code, _, err = run_cli(["analyze", "--input", str(path), "--scale", "z",
                            "--density", "lindsey:5:60", "--out", out], capsys)
    assert code == 0, err
    summary = json.loads((tmp_path / "res.json").read_text())
    assert summary["m"] == 400


def test_analyze_lindsey_fit_that_does_not_normalize_is_a_fit_error(tmp_path, capsys):
    z = np.random.default_rng(0).normal(0.0, 0.01, 3000)
    path = tmp_path / "z.csv"
    path.write_text("id,stat\n" + "".join(f"g{i},{v!r}\n" for i, v in enumerate(z.tolist())),
                    encoding="utf-8")
    with np.errstate(over="ignore"):
        code, _, err = run_cli(["analyze", "--input", str(path), "--scale", "z",
                                "--density", "lindsey:7:120"], capsys)
    assert code == 2
    assert err.startswith("ERROR fit")


def test_analyze_grenander_fit_of_infinite_mass_is_a_fit_error(tmp_path, capsys):
    path = tmp_path / "tiny.csv"
    path.write_text("id,stat\na,5e-324\nb,1e-323\nc,0.5\nd,1.0\n", encoding="utf-8")
    code, out, err = run_cli(["analyze", "--input", str(path),
                              "--out", str(tmp_path / "res.csv")], capsys)
    assert code == 2
    assert err.startswith("ERROR fit")
    assert not (tmp_path / "res.csv").exists()


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_requires_seed_and_positive_reps(capsys):
    code, _, err = run_cli(["simulate", "--preset", "theorem-5.1",
                            "--reps", "10"], capsys)
    assert code == 2 and "seed" in err
    code, _, err = run_cli(["simulate", "--preset", "theorem-5.1",
                            "--reps", "0", "--seed", "1"], capsys)
    assert code == 2 and "reps" in err


def test_simulate_preset_superuniform(tmp_path, capsys):
    out = str(tmp_path / "rep.json")
    code, _, _ = run_cli(["simulate", "--preset", "counterexample-superuniform",
                          "--criteria", "bfdr", "--reps", "20000",
                          "--seed", "5", "--out", out], capsys)
    assert code == 0
    rep = json.loads((tmp_path / "rep.json").read_text())
    est = rep["estimates"]["bFDR"]
    assert abs(est["mean"] - 0.375) <= 3 * est["std_error"]


def test_simulate_byte_identical_given_seed(tmp_path, capsys):
    args = ["simulate", "--preset", "theorem-5.1", "--criteria", "bfdr,fdr,power",
            "--reps", "500", "--seed", "42"]
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    run_cli(args + ["--out", a], capsys)
    run_cli(args + ["--out", b], capsys)
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_simulate_config_generator_with_perturbation(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "generator": {"kind": "discrete-uniform-nulls", "m": 30, "L": 9,
                      "alt_positions": [1, 1, 2]},
        "alpha": 0.4,
    }), encoding="utf-8")
    out = str(tmp_path / "rep.json")
    code, _, err = run_cli(["simulate", "--config", str(cfg), "--criteria", "bfdr",
                            "--reps", "4000", "--seed", "9",
                            "--perturb-discrete", "--out", out], capsys)
    assert code == 0, err
    rep = json.loads((tmp_path / "rep.json").read_text())
    est = rep["estimates"]["bFDR"]
    want = (27 / 30) * 0.4
    assert abs(est["mean"] - want) <= 3 * est["std_error"] + 0.01


def test_perturb_discrete_takes_the_grid_of_the_design(tmp_path, capsys):
    code, out, err = run_cli(["simulate", "--preset", "theorem-5.1", "--perturb-discrete",
                              "--reps", "5", "--seed", "1"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("ERROR bad-arg") and "grid generator" in err
    out = str(tmp_path / "rep.json")
    code, _, err = run_cli(["simulate", "--preset", "counterexample-discrete",
                            "--perturb-discrete", "--criteria", "bfdr", "--reps", "5",
                            "--seed", "1", "--out", out], capsys)
    assert code == 0, err
    procedure = json.loads((tmp_path / "rep.json").read_text())["config"]["procedure"]
    assert "perturb=True" in procedure and "grid_L=9" in procedure


def test_simulate_unknown_preset(capsys):
    code, _, err = run_cli(["simulate", "--preset", "nope", "--reps", "5",
                            "--seed", "1"], capsys)
    assert code == 2 and "preset" in err


def test_simulate_gaussian_preset_maps_z_to_pvalues(tmp_path, capsys):
    out = str(tmp_path / "rep.json")
    code, _, err = run_cli(["simulate", "--preset", "fig2-gaussian", "--criteria", "fdr,bfdr",
                            "--reps", "300", "--seed", "8", "--out", out], capsys)
    assert code == 0, err
    est = json.loads((tmp_path / "rep.json").read_text())["estimates"]["FDR"]
    pi0_alpha = (2850 / 3000) * 0.1
    assert est["n"] == 300
    assert est["mean"] <= pi0_alpha + 3 * est["std_error"]


@pytest.mark.parametrize("seed", ["-1", str(1 << 64)])
def test_simulate_rejects_seeds_outside_64_bits(seed, capsys):
    code, _, err = run_cli(["simulate", "--preset", "theorem-5.1", "--reps", "5",
                            "--seed", seed], capsys)
    assert code == 2 and "ERROR bad-arg" in err and "2**64" in err


@pytest.mark.parametrize("command", ["simulate", "calibrate"])
@pytest.mark.parametrize("key", ["generator", "alpha"])
def test_preset_refuses_a_config_design(command, key, tmp_path, capsys):
    design = {"generator": {"kind": "superuniform-ce"}, "alpha": 0.3}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: design[key]}), encoding="utf-8")
    code, out, err = run_cli([command, "--preset", "theorem-5.1", "--config", str(cfg),
                              "--reps", "2", "--seed", "1"], capsys)
    assert code == 2 and out == ""
    assert "ERROR bad-arg" in err and key in err
    # the file is still read first: an unreadable one is an I/O error
    code, _, err = run_cli([command, "--preset", "theorem-5.1",
                            "--config", str(tmp_path / "missing.json"),
                            "--reps", "2", "--seed", "1"], capsys)
    assert code == 2 and "ERROR io" in err


@pytest.mark.parametrize("generator", [
    {"kind": "two-groups-beta", "m": 10},  # missing pi0, a and b
    {"kind": "gaussian-means", "m": 10, "m1": 1, "mu": 2.0, "sigma": 1.0},  # unknown key
    {"kind": "superuniform-ce", "m": 10},  # the design has no parameters at all
    # counts and grid cells must be integers
    {"kind": "discrete-uniform-nulls", "m": 6.5, "L": 9},
    {"kind": "gaussian-means", "m": 30.5, "m1": 3, "mu": 2.0},
    {"kind": "discrete-uniform-nulls", "m": 6, "L": 9.5},
    {"kind": "discrete-uniform-nulls", "m": 6, "L": 9, "alt_positions": [1.5, 2.7]},
])
def test_config_generator_with_wrong_keys_is_a_bad_arg(generator, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"generator": generator}), encoding="utf-8")
    code, out, err = run_cli(["simulate", "--config", str(cfg), "--reps", "5",
                              "--seed", "1"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("ERROR bad-arg") and generator["kind"] in err


# ---------------------------------------------------------------------------
# calibrate
# ---------------------------------------------------------------------------

def test_calibrate_writes_bin_table(tmp_path, capsys):
    out = str(tmp_path / "cal.csv")
    code, _, _ = run_cli(["calibrate", "--preset", "fig2-gaussian",
                          "--scorer", "oracle-lfdr", "--reps", "20",
                          "--bin-width", "0.05", "--seed", "3",
                          "--out", out], capsys)
    assert code == 0
    rows = (tmp_path / "cal.csv").read_text().strip().splitlines()
    assert rows[0] == "bin_lo,bin_hi,count,null_fraction"
    assert len(rows) == 21
    counts = [int(r.split(",")[2]) for r in rows[1:]]
    assert sum(counts) == 20 * 3000


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_unknown_suite(capsys):
    code, _, err = run_cli(["verify", "bogus"], capsys)
    assert code == 2
    assert "suite" in err


def test_verify_counterexamples_via_subprocess():
    env = dict(os.environ)
    proc = subprocess.run(
        [sys.executable, "-m", "lfdrkit.cli", "verify", "counterexamples",
         "--seed", "7"],
        capture_output=True, text=True, env=env, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = [ln for ln in proc.stdout.splitlines() if ln.startswith(("PASS", "FAIL"))]
    assert len(lines) == 5
    assert all(ln.startswith("PASS") for ln in lines)
