import csv
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from lfdrkit.cli import main, write_json


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


@pytest.mark.parametrize("flag, value, message", [
    ("--pi0", "storey", "cannot parse --pi0 'storey'"),
    ("--pi0", "fixed:1.5", "fixed pi0 must lie in [0, 1]"),
    ("--pi0", "window:0.5", "cannot parse --pi0 'window:0.5'"),
    ("--pi0", "bogus:1", "cannot parse --pi0 'bogus:1'"),
    ("--density", "lindsey:7", "cannot parse --density 'lindsey:7'"),
    ("--density", "grenander:1", "cannot parse --density 'grenander:1'"),
    ("--density", "npmle:abc:1e-8", "cannot parse --density 'npmle:abc:1e-8'"),
    # a well-formed fit of z-statistics, given p-values
    ("--density", "lindsey:7:120", "lindsey density requires --scale z"),
    ("--density", "npmle:300:nan", "npmle density requires --scale z"),
])
def test_analyze_pi0_and_density_errors_are_one_bad_arg_line(flag, value, message,
                                                              tmp_path, capsys):
    path = tmp_path / "p.csv"
    path.write_text("id,stat\na,0.01\nb,0.2\nc,0.7\n", encoding="utf-8")
    code, out, err = run_cli(["analyze", "--input", str(path), flag, value,
                              "--out", str(tmp_path / "res")], capsys)
    assert code == 2 and out == ""
    assert err == f"ERROR bad-arg: {message}\n"
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("args, message", [
    (["analyze", "--pi0", "storey:abc"], "cannot parse --pi0 'storey:abc'"),
    (["analyze", "--scale", "z", "--density", "lindsey:x:60"],
     "cannot parse --density 'lindsey:x:60'"),
    (["simulate", "--preset", "theorem-5.1", "--seed", "1", "--criteria", "mfdr:a:0.1"],
     "criterion 'mfdr:a:0.1' needs the form mfdr:S:T"),
], ids=["pi0", "density", "criteria"])
def test_numeric_parse_errors_name_their_flag(args, message, tmp_path, capsys):
    path = tmp_path / "p.csv"
    path.write_text("id,stat\na,0.01\nb,0.2\nc,0.7\n", encoding="utf-8")
    given = ["--input", str(path)] if args[0] == "analyze" else []
    code, out, err = run_cli([*args, *given, "--out", str(tmp_path / "res")], capsys)
    assert code == 2 and out == ""
    assert err == f"ERROR bad-arg: {message}\n"
    assert list(tmp_path.iterdir()) == [path]


def test_analyze_bad_row_names_line(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("id,stat\nh1,0.2\nh2,oops\n", encoding="utf-8")
    code, _, err = run_cli(["analyze", "--input", str(path)], capsys)
    assert code == 2
    assert err.startswith("ERROR bad-row")
    assert ":3:" in err  # 1-based line number, header is line 1


def test_analyze_over_long_field_is_one_bad_row_line(tmp_path, capsys):
    # the csv module refuses a field over its limit with csv.Error
    limit = csv.field_size_limit()
    path = tmp_path / "bad.csv"
    path.write_bytes(b"id,stat\nh1,0.2\n" + b"x" * (limit + 1) + b",0.5\n")
    code, _, err = run_cli(["analyze", "--input", str(path)], capsys)
    assert code == 2
    assert err == f"ERROR bad-row: {path}:3: field larger than field limit ({limit})\n"


def test_analyze_input_that_is_not_utf8_names_the_line_of_its_first_bad_byte(tmp_path,
                                                                            capsys):
    # the bad bytes lie past the text decoder's first chunks of the file
    rows = "".join(f"h{i},0.5\n" for i in range(2, 3000)).encode()
    path = tmp_path / "bad.csv"
    path.write_bytes(b"id,stat\n" + rows + b"h\xe9x,0.5\nh\xff,0.5\n")
    code, _, err = run_cli(["analyze", "--input", str(path)], capsys)
    assert code == 2
    assert err == (f"ERROR bad-input: {path}:3000: not UTF-8 "
                   "(invalid continuation byte, byte 0xe9)\n")


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


def test_analyze_npmle_nan_tol_is_a_bad_arg(tmp_path, capsys):
    path = tmp_path / "z.csv"
    path.write_text("id,stat\na,-1.0\nb,0.5\nc,2.0\n", encoding="utf-8")
    code, _, err = run_cli(["analyze", "--input", str(path), "--scale", "z",
                            "--density", "npmle:100:nan"], capsys)
    assert code == 2
    assert err.startswith("ERROR bad-arg") and "tol" in err


def test_analyze_lindsey_fit_that_does_not_normalize_is_a_fit_error(tmp_path, capsys):
    z = np.random.default_rng(0).normal(0.0, 0.01, 3000)
    path = tmp_path / "z.csv"
    path.write_text("id,stat\n" + "".join(f"g{i},{v!r}\n" for i, v in enumerate(z.tolist())),
                    encoding="utf-8")
    code, _, err = run_cli(["analyze", "--input", str(path), "--scale", "z",
                            "--density", "lindsey:7:120"], capsys)
    assert code == 2
    assert err.startswith("ERROR fit") and err.count("\n") == 1 and err.endswith("\n")


def test_analyze_lindsey_on_data_far_from_0_is_a_fit_error(tmp_path, capsys):
    # at 1e15 the float spacing exceeds the bin width, so bins collapse
    z = np.random.default_rng(1).normal(1e15, 1.0, 500)
    path = tmp_path / "z.csv"
    path.write_text("id,stat\n" + "".join(f"g{i},{v!r}\n" for i, v in enumerate(z.tolist())),
                    encoding="utf-8")
    code, _, err = run_cli(["analyze", "--input", str(path), "--scale", "z",
                            "--density", "lindsey:7:120"], capsys)
    assert code == 2
    assert err.startswith("ERROR fit: 120 bins of width ") and err.endswith(" round to width 0\n")


def test_analyze_huge_z_leaves_stderr_empty(tmp_path):
    # 2e154 squares to inf in the Gaussian kernel, whose density there is 0;
    # numpy's overflow warning must not reach the user
    path = tmp_path / "z.csv"
    path.write_text("id,stat\na,-1.3\nb,0.2\nc,2e154\nd,0.9\ne,-0.4\n", encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "lfdrkit.cli", "analyze", "--input", str(path), "--scale", "z",
         "--density", "npmle:50:1e-6", "--out", str(tmp_path / "res")],
        capture_output=True, text=True, env=dict(os.environ), timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


def test_analyze_npmle_fit_without_kernel_mass_is_a_fit_error(tmp_path, capsys):
    # 300 atoms over [-1e6 - 1, 1e6 + 1]: z = 0 has zero kernel mass at all of them
    path = tmp_path / "z.csv"
    path.write_text("id,stat\na,-1e6\nb,0.0\nc,1e6\n", encoding="utf-8")
    code, _, err = run_cli(["analyze", "--input", str(path), "--scale", "z",
                            "--density", "npmle:300:1e-8",
                            "--out", str(tmp_path / "res")], capsys)
    assert code == 2
    assert err.startswith("ERROR fit")
    assert not (tmp_path / "res.csv").exists()


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


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_simulate_with_one_replicate_writes_strict_json(tmp_path, capsys):
    # one replicate has no standard error: null, not NaN, which JSON lacks
    out = tmp_path / "rep.json"
    code, _, _ = run_cli(["simulate", "--preset", "theorem-5.1", "--criteria",
                          "fdr,bfdr,power,mfdr:0:1", "--reps", "1", "--seed", "7",
                          "--out", str(out)], capsys)
    assert code == 0
    rep = json.loads(out.read_text(), parse_constant=_refuse_constant)
    assert [est["std_error"] for est in rep["estimates"].values()] == [None] * 4
    with pytest.raises(ValueError):
        write_json(str(tmp_path / "nan.json"), {"mean": math.nan})


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
    assert procedure == "ProcedureConfig(kind='support-line', alpha=0.5, perturb=True)"


def test_simulate_refuses_interval_criteria_without_two_ordered_bounds(tmp_path, capsys):
    base = ["simulate", "--preset", "theorem-5.1", "--seed", "1", "--reps", "3"]
    for criteria, message in [("mfdr:nan:1,pfdr:1:0,fdr", "mFDR[nan,1.0] needs bounds s <= t"),
                              ("pfdr:1:0", "pFDR[1.0,0.0] needs bounds s <= t"),
                              ("mfdr:0.5", "'mfdr:0.5' needs the form mfdr:S:T"),
                              ("pfdr:0:1:2", "'pfdr:0:1:2' needs the form pfdr:S:T")]:
        code, out, err = run_cli(base + ["--criteria", criteria], capsys)
        assert code == 2 and out == ""
        assert err.startswith("ERROR bad-arg") and message in err
    out = str(tmp_path / "rep.json")
    code, _, err = run_cli(base + ["--criteria", "mfdr:0:inf,fdr", "--out", out], capsys)
    assert code == 0, err
    estimates = json.loads((tmp_path / "rep.json").read_text())["estimates"]
    assert sorted(estimates) == ["FDR", "mFDR[0.0,inf]"]


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


@pytest.mark.parametrize("alpha", ["nan", "2"])
def test_simulate_rejects_alpha_outside_the_unit_interval(alpha, tmp_path, capsys):
    code, out, err = run_cli(["simulate", "--preset", "theorem-5.1", f"--alpha={alpha}",
                              "--reps", "20", "--seed", "1",
                              "--out", str(tmp_path / "rep.json")], capsys)
    assert code == 2 and out == ""
    assert err.startswith("ERROR bad-arg") and "alpha" in err
    assert not (tmp_path / "rep.json").exists()


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


@pytest.mark.parametrize("command, config, message", [
    ("analyze", [1], "must hold a JSON object"),
    ("simulate", {"generator": [1]}, "simulate needs --preset or a config generator object"),
    ("calibrate", ["generator"], "must hold a JSON object"),
])
def test_config_that_is_not_a_json_object_is_a_bad_arg(command, config, message, pfile,
                                                       tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    tail = ["--input", pfile] if command == "analyze" else ["--reps", "3", "--seed", "1"]
    code, out, err = run_cli([command, "--config", str(cfg), *tail], capsys)
    assert code == 2 and out == ""
    assert err.startswith("ERROR bad-arg") and message in err
    assert err.count("\n") == 1


ANALYZE_READS = "input, scale, pi0, density, out, alpha, lambda"
DESIGN_READS = "generator, alpha"
CE_DESIGN = {"generator": {"kind": "superuniform-ce"}}


@pytest.mark.parametrize("command, config, message", [
    ("analyze", {"alhpa": 0.01}, f"'alhpa' is not read; this command reads {ANALYZE_READS}"),
    ("analyze", {"input": 0}, f"'input' must be a string, not 0; this command reads "
                              f"{ANALYZE_READS}"),
    ("analyze", {"density": 5}, "'density' must be a string, not 5"),
    ("analyze", {"pi0": 5}, "'pi0' must be a string, not 5"),
    ("analyze", {"out": 5}, "'out' must be a string, not 5"),
    ("analyze", {"alpha": [1]}, "'alpha' must be a number, not [1]"),
    ("analyze", {"alpha": True}, "'alpha' must be a number, not true"),
    ("analyze", {"lambda": None}, "'lambda' must be a number, not null"),
    ("analyze", {"generator": {}}, f"'generator' is not read; this command reads "
                                   f"{ANALYZE_READS}"),
    ("simulate", {**CE_DESIGN, "alpah": 0.3},
     f"'alpah' is not read; this command reads {DESIGN_READS}"),
    ("simulate", {**CE_DESIGN, "alpha": True},
     f"'alpha' must be a number, not true; this command reads {DESIGN_READS}"),
    ("simulate", {**CE_DESIGN, "alpha": "0.3"}, "'alpha' must be a number, not \"0.3\""),
    ("calibrate", {**CE_DESIGN, "input": "p.csv"}, "'input' is not read"),
])
def test_config_key_not_read_or_of_another_type_is_a_bad_arg(command, config, message,
                                                              pfile, tmp_path, capsys):
    if command == "analyze":
        config = {"input": pfile, **config}
        tail = []
    else:
        tail = ["--reps", "3", "--seed", "1"]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    code, out, err = run_cli([command, "--config", str(cfg), *tail], capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"ERROR bad-arg: --config key {message}")
    assert err.count("\n") == 1


def test_calibrate_reads_the_alpha_of_a_simulate_design_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"generator": {"kind": "gaussian-means", "m": 20, "m1": 2,
                                             "mu": 2.0}, "alpha": 0.3}), encoding="utf-8")
    code, _, err = run_cli(["calibrate", "--config", str(cfg), "--reps", "3", "--seed", "1",
                            "--out", str(tmp_path / "cal.csv")], capsys)
    assert code == 0, err


def test_simulate_warns_of_each_requested_criterion_left_out_of_estimates(tmp_path, capsys):
    # no alternatives: power is undefined on every replicate
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"generator": {"kind": "discrete-uniform-nulls", "m": 6,
                                             "L": 9, "alt_positions": []},
                               "alpha": 0.5}), encoding="utf-8")
    out = tmp_path / "rep.json"
    code, _, err = run_cli(["simulate", "--config", str(cfg), "--criteria", "power,fdr",
                            "--reps", "20", "--seed", "1", "--out", str(out)], capsys)
    assert code == 0
    assert sorted(json.loads(out.read_text())["estimates"]) == ["FDR"]
    assert err == ("WARNING criterion: power is undefined on all 20 replicates "
                   "and is left out of estimates\n")
    # the support line at alpha 0.1 rejects no p-value above 2
    code, _, err = run_cli(["simulate", "--preset", "theorem-5.1", "--criteria",
                            "pfdr:2:3,mfdr:2:3,fdr", "--reps", "20", "--seed", "1",
                            "--out", str(out)], capsys)
    assert code == 0
    assert sorted(json.loads(out.read_text())["estimates"]) == ["FDR"]
    assert err.splitlines() == [
        f"WARNING criterion: {name} is undefined on all 20 replicates and is left out "
        f"of estimates" for name in ("pFDR[2.0,3.0]", "mFDR[2.0,3.0]")]
    # a criterion that some replicate defines prints nothing
    code, _, err = run_cli(["simulate", "--preset", "theorem-5.1", "--criteria", "bfdr,fdr",
                            "--reps", "20", "--seed", "1", "--out", str(out)], capsys)
    assert code == 0 and err == ""


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


@pytest.mark.parametrize("command", ["simulate", "calibrate"])
@pytest.mark.parametrize("generator, field", [
    ({"kind": "two-groups-beta", "m": 10, "pi0": 0.5, "a": math.nan, "b": 1.0}, "a"),
    ({"kind": "gaussian-means", "m": 10, "m1": 1, "mu": math.inf}, "mu"),
])
def test_config_generator_with_a_nonfinite_parameter_is_a_bad_arg(
        command, generator, field, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"generator": generator}), encoding="utf-8")  # NaN, Infinity
    code, out, err = run_cli([command, "--config", str(cfg), "--reps", "5",
                              "--seed", "1"], capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"ERROR bad-arg: generator kind {generator['kind']!r}: "
                          f"{field} must be finite")


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


# the whole stdout of ``lfdrkit verify counterexamples --seed 7``
COUNTEREXAMPLES_SEED_7 = (
    'PASS superuniform-exact: observed=0.375 expected=0.375 tol=1e-10\n'
    'PASS superuniform-montecarlo: observed=0.37473 expected=0.375 tol=0.00459  (N=100000)\n'
    'PASS superuniform-exceeds-uniform-null-level: observed=0.37473 expected=0.25 tol=0  (must strictly exceed pi0*alpha = 1/4)\n'
    'PASS discrete-exact: observed=0.203704 expected=0.203704 tol=1e-10  (must exceed 2*alpha/m = 1/6)\n'
    'PASS discrete-montecarlo: observed=0.20473 expected=0.203704 tol=0.00383  (N=100000)\n'
    'counterexamples: 5/5 checks passed\n'
)


def test_verify_counterexamples_via_subprocess():
    env = dict(os.environ)
    proc = subprocess.run(
        [sys.executable, "-m", "lfdrkit.cli", "verify", "counterexamples",
         "--seed", "7"],
        capture_output=True, text=True, env=env, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout == COUNTEREXAMPLES_SEED_7
