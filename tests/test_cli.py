import csv
import io
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gmext import assemble_operator, build_grid
from gmext.cli import main
from gmext.grid import far_field

BASE = ["--N", "3", "--p", "5", "--q", "1", "--m", "6", "--s", "1", "--k", "4"]


def run_cli(args):
    """In-process invocation; returns (exit_code, stdout, stderr)."""
    from contextlib import redirect_stderr, redirect_stdout

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(args)
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# classify


def test_classify_existence_exit_zero():
    code, out, _ = run_cli(["classify", *BASE])
    assert code == 0
    assert "EXISTS_MINIMAL_GROWTH" in out and "Thm2.2(i)" in out
    assert "u~r^-1" in out and "v~r^-1" in out


def test_classify_nonexistence_exit_one():
    code, out, _ = run_cli(["classify", "--N", "2", "--p", "5", "--q", "1",
                            "--m", "6", "--s", "1", "--k", "4"])
    assert code == 1
    assert "NONEXISTENCE Thm2.1(i)" in out


def test_classify_small_p_exit_one():
    code, out, _ = run_cli(["classify", "--N", "3", "--p", "0.5", "--q", "1",
                            "--m", "6", "--s", "1", "--k", "4"])
    assert code == 1
    assert "Thm2.1(iii)" in out


def test_classify_inconclusive_exit_two():
    code, out, _ = run_cli(["classify", "--N", "3", "--p", "5", "--q", "1",
                            "--m", "6", "--s", "1", "--k", "3"])
    assert code == 2


def test_classify_missing_params_exit_64():
    code, _, err = run_cli(["classify", "--N", "3"])
    assert code == 64


def test_config_file_with_overrides(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("N = 3\np = 5\nq = 1\nm = 6\ns = 1\nk = 4\n# comment\n")
    code, out, _ = run_cli(["classify", "--config", str(cfg)])
    assert code == 0
    code, out, _ = run_cli(["classify", "--config", str(cfg), "--m", "2"])
    assert code == 1  # override pushes into the nonexistence branch


def test_malformed_config_exit_64(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("this line has no equals sign\n")
    code, _, err = run_cli(["classify", "--config", str(cfg)])
    assert code == 64


@pytest.mark.parametrize("which", ["missing", "directory", "not_utf8"])
def test_unreadable_config_exit_64(tmp_path, which):
    path = tmp_path / "run.cfg"
    if which == "directory":
        path.mkdir()
    elif which == "not_utf8":
        path.write_bytes(b"N = 3\xff\n")
    code, _, err = run_cli(["classify", "--config", str(path)])
    assert code == 64
    assert err.startswith("configuration error:")


def test_unexpected_exception_exit_70(monkeypatch):
    import gmext.cli

    def broken(*args, **kwargs):
        raise RuntimeError("boom\nsecond line")

    monkeypatch.setattr(gmext.cli, "classify", broken)
    code, _, err = run_cli(["classify", *BASE])
    assert code == 70
    assert err == "internal error: RuntimeError: boom second line\n"


def test_solver_error_exit_70(tmp_path):
    # classified as existence, but its box-midpoint start state leaves the
    # admissible range: a tagged solver error, not a traceback
    out = tmp_path / "out"
    code, _, err = run_cli(["solve", "--N", "3", "--p", "6", "--q", "1.5", "--m", "6",
                            "--s", "1", "--k", "4", "--output", str(out)])
    assert code == 70
    assert len(err.splitlines()) == 1
    assert err.startswith("solver error [DIVERGED]")
    assert not out.exists()


# sigma = 0.9985: the threshold lambda* of this existence cell underflows to 0.0
LAMBDA_UNDERFLOW = ["--N", "3", "--p", "7.44", "--q", "6.34", "--m", "4.28", "--s", "3.22",
                    "--k", "2.62", "--n", "1025"]


def test_lambda_underflow_is_a_tagged_solver_error(tmp_path):
    # the user gave no lambda, so an unusable default one is the solver's
    # failure (exit 70), not a configuration error (exit 64)
    out = tmp_path / "out"
    code, _, err = run_cli(["solve", *LAMBDA_UNDERFLOW, "--output", str(out)])
    assert code == 70
    assert len(err.splitlines()) == 1
    assert err.startswith("solver error [LAMBDA_OUT_OF_RANGE]")
    assert not out.exists()


def test_lambda_underflow_sweep_row_carries_its_tag(tmp_path):
    out = tmp_path / "solved.csv"
    code, _, err = run_cli(["sweep", *LAMBDA_UNDERFLOW, "--solve", "--output", str(out)])
    assert code == 0, err
    (row,) = csv.DictReader(out.read_text().splitlines())
    assert row["outcome"].startswith("EXISTS")
    assert (row["fit_u_power"], row["error"]) == ("", "LAMBDA_OUT_OF_RANGE")


# a source amplitude or a lambda whose constant schedule leaves the range of
# doubles, where a Python float power raises OverflowError or
# ZeroDivisionError
MIXED_CELL = ["--kind", "MIXED", "--N", "3", "--p", "1", "--q", "4.5", "--m", "5", "--s", "1",
              "--k", "4"]
SCHEDULE_BLOWUPS = pytest.mark.parametrize("args", [
    [*BASE, "--rho0", "1e-100"],
    [*BASE, "--rho0", "1e100"],
    [*BASE, "--lambda", "1e150"],
    [*MIXED_CELL, "--rho0", "1e-100"],
    [*MIXED_CELL, "--rho0", "1e100"],
    [*MIXED_CELL, "--lambda", "1e200"],
    # F = C3 D^(m/(1+s)) underflows to 0: the box leaves the doubles too
    [*BASE, "--lambda", "1e-300"],
    [*MIXED_CELL, "--lambda", "1e-300"],
], ids=["gm-rho0-tiny", "gm-rho0-huge", "gm-lambda-huge",
        "mixed-rho0-tiny", "mixed-rho0-huge", "mixed-lambda-huge",
        "gm-lambda-tiny", "mixed-lambda-tiny"])


@SCHEDULE_BLOWUPS
def test_schedule_blowup_is_a_tagged_solver_error(tmp_path, args):
    out = tmp_path / "out"
    code, stdout, err = run_cli(["solve", *args, "--n", "1025", "--output", str(out)])
    assert code == 70
    assert stdout == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("solver error [LAMBDA_OUT_OF_RANGE]")
    assert not out.exists()


def test_source_blowup_names_the_amplitude(tmp_path):
    # the threshold is read at lambda = 0, and the message names the source
    # envelope, so a huge amplitude is not blamed on a lambda nobody chose
    code, _, err = run_cli(["solve", *BASE, "--rho0", "1e100", "--n", "1025",
                            "--output", str(tmp_path / "out")])
    assert code == 70
    assert "[1e+100, 1e+100]" in err
    assert "lambda = 1" not in err


@SCHEDULE_BLOWUPS
def test_schedule_blowup_sweep_row_carries_its_tag(tmp_path, args):
    out = tmp_path / "solved.csv"
    code, _, err = run_cli(["sweep", *args, "--n", "1025", "--solve", "--output", str(out)])
    assert code == 0, err
    (row,) = csv.DictReader(out.read_text().splitlines())
    assert row["outcome"].startswith("EXISTS")
    assert (row["fit_u_power"], row["error"]) == ("", "LAMBDA_OUT_OF_RANGE")


# ROADMAP item 17's first cell: Newton stops at its 200-step cap, on the
# 129-node coarse grid; `gmext solve` used to exit 0 there, with fits of
# -0.5117 and -0.1063
STEP_CAP = ["--N", "3", "--p", "6.55", "--q", "2.4", "--m", "4.95", "--s", "4.53",
            "--k", "2.55", "--n", "1025"]


def test_newton_at_its_cap_is_a_tagged_solver_error(tmp_path):
    out = tmp_path / "out"
    code, stdout, err = run_cli(["solve", *STEP_CAP, "--output", str(out)])
    assert code == 70
    assert stdout == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("solver error [NO_CONVERGENCE]")
    assert not out.exists()


def test_newton_at_its_cap_sweep_row_carries_its_tag(tmp_path):
    out = tmp_path / "solved.csv"
    code, _, err = run_cli(["sweep", *STEP_CAP, "--solve", "--output", str(out)])
    assert code == 0, err
    (row,) = csv.DictReader(out.read_text().splitlines())
    assert row["outcome"].startswith("EXISTS")
    assert (row["fit_u_power"], row["error"]) == ("", "NO_CONVERGENCE")


# ---------------------------------------------------------------------------
# solve + manifest reproducibility


@pytest.fixture(scope="module")
def solved_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("solve")
    args = ["solve", *BASE, "--R", "10000", "--n", "2049", "--output", str(out),
            "--name", "run1"]
    code, stdout, err = run_cli(args)
    assert code == 0, err
    return out


def test_solve_outputs(solved_dir):
    csv_path = solved_dir / "run1.csv"
    man_path = solved_dir / "run1.manifest.json"
    assert csv_path.exists() and man_path.exists()
    with csv_path.open() as fh:
        header = fh.readline().strip().split(",")
    assert header == ["r", "u", "v", "residual_u", "residual_v"]
    manifest = json.loads(man_path.read_text())
    assert manifest["verdict"]["matched_condition"] == "Thm2.2(i)"
    assert manifest["fits"]["u"]["matches_prediction"]
    assert manifest["fits"]["v"]["matches_prediction"]
    assert manifest["residuals"]["certificate_u"] < 1e-8
    assert manifest["schedule"]["lambda_star"] > 0


@pytest.mark.parametrize("cell", [BASE, MIXED_CELL], ids=["min-i", "mixed"])
def test_outer_row_residuals_are_the_far_field_rows(tmp_path, cell):
    # the CSV's outer residuals are those of the far-field rows that Newton
    # solves, not u(R) and v(R) from L's Dirichlet row; their relative sizes
    # are the manifest's far_field_u and far_field_v
    code, _, err = run_cli(["solve", *cell, "--n", "1025", "--output", str(tmp_path),
                            "--name", "run"])
    assert code == 0, err
    with (tmp_path / "run.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    manifest = json.loads((tmp_path / "run.manifest.json").read_text())
    cfg = manifest["config"]
    op = assemble_operator(build_grid(cfg["r0"], cfg["R"], cfg["n"]), cfg["N"])
    a_sub, a_diag, _ = far_field(op)
    for c in "uv":
        w = [float(rows[i][c]) for i in (-2, -1)]
        res = float(rows[-1][f"residual_{c}"])
        terms = a_sub * w[0], a_diag * w[1]
        source = terms[0] + terms[1] - res
        relative = abs(res) / (abs(terms[0]) + abs(terms[1]) + abs(source))
        assert abs(res) <= 1e-12 * w[1]
        assert manifest["residuals"][f"far_field_{c}"] == pytest.approx(relative, rel=1e-9)
        assert manifest["residuals"][f"far_field_{c}"] <= 1e-12


def test_manifest_reproduces_csv_bytes(solved_dir, tmp_path):
    man_path = solved_dir / "run1.manifest.json"
    code, _, err = run_cli(["solve", "--from-manifest", str(man_path),
                            "--output", str(tmp_path), "--name", "replay"])
    assert code == 0, err
    original = (solved_dir / "run1.csv").read_bytes()
    replay = (tmp_path / "replay.csv").read_bytes()
    assert original == replay


def _replay(manifest_text, tmp_path):
    path = tmp_path / "edited.manifest.json"
    path.write_text(manifest_text)
    return run_cli(["solve", "--from-manifest", str(path),
                    "--output", str(tmp_path), "--name", "replay"])


@pytest.mark.parametrize("edit", ["drop_r0", "bad_n", "fractional_n", "infinite_R", "no_config",
                                  "not_json", "huge_N", "infinite_N"])
def test_bad_replay_manifest_exit_64(solved_dir, tmp_path, edit):
    manifest = json.loads((solved_dir / "run1.manifest.json").read_text())
    if edit == "drop_r0":
        del manifest["config"]["r0"]
    elif edit == "bad_n":
        manifest["config"]["n"] = "many"
    elif edit == "fractional_n":
        manifest["config"]["n"] = 2049.5
    elif edit == "infinite_R":
        manifest["config"]["R"] = float("inf")  # written as Infinity
    elif edit == "huge_N":
        manifest["config"]["N"] = 10 ** 400  # a whole number past float range
    elif edit == "infinite_N":
        manifest["config"]["N"] = float("inf")
    elif edit == "no_config":
        del manifest["config"]
    text = "{not json" if edit == "not_json" else json.dumps(manifest)
    code, _, err = _replay(text, tmp_path)
    assert code == 64
    assert len(err.splitlines()) == 1 and err.startswith("configuration error:")
    assert not (tmp_path / "replay.csv").exists()


def test_replay_refuses_other_settings(solved_dir, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 513\n")
    out = tmp_path / "out"
    for extra, named in ((["--n", "513", "--p", "7"], "drop n, p"),
                         (["--config", str(cfg)], "drop config")):
        code, _, err = run_cli(["solve", "--from-manifest", str(solved_dir / "run1.manifest.json"),
                                *extra, "--output", str(out)])
        assert code == 64
        assert err.startswith("configuration error:")
        assert named in err
        assert not out.exists()


# settings of older manifests, each once fixed at this value and now read
# by no command
_RETIRED = {"damping": 0.5, "polish": 2, "tol": 1e-11, "max_iter": 200}


def test_replay_of_retired_keys(solved_dir, tmp_path):
    # a manifest naming a retired key is refused like any unknown key, even
    # at the value it was once fixed at
    manifest = json.loads((solved_dir / "run1.manifest.json").read_text())
    for key, value in _RETIRED.items():
        edited = dict(manifest, config=dict(manifest["config"], **{key: value}))
        code, stdout, err = _replay(json.dumps(edited), tmp_path)
        assert code == 64
        assert len(err.splitlines()) == 1 and err.startswith("configuration error:")
        assert f"unknown key(s) {key}" in err
        assert stdout == "" and not (tmp_path / "replay.csv").exists()


def test_removed_solve_flags_rejected(tmp_path):
    out = tmp_path / "out"
    for flag in ("--damping", "--polish", "--tol", "--max-iter"):
        code, _, _ = run_cli(["solve", *BASE, flag, "1", "--output", str(out)])
        assert code == 64
    # a config file naming a retired key is refused, not ignored
    cfg = tmp_path / "run.cfg"
    for key, value in _RETIRED.items():
        cfg.write_text(f"{key} = {value}\n")
        code, _, err = run_cli(["solve", *BASE, "--config", str(cfg), "--output", str(out)])
        assert code == 64
        assert len(err.splitlines()) == 1 and err.startswith("configuration error:")
        assert f"unknown key(s) {key}" in err
        assert not out.exists()


def test_solve_refuses_nonexistence(tmp_path):
    code, _, err = run_cli(["solve", "--N", "2", "--p", "5", "--q", "1", "--m", "6",
                            "--s", "1", "--k", "4", "--output", str(tmp_path)])
    assert code == 1
    assert "probe" in err


@pytest.mark.parametrize("lam", [0.0, 1e-3], ids=["default_lambda", "explicit_lambda"])
def test_run_solve_refuses_nonexistence(lam):
    # cmd_solve refuses first (exit 1); run_solve itself raises ConfigError,
    # which main maps to exit 64
    from gmext.cli import _SOLVE_DEFAULTS, run_solve
    from gmext.errors import ConfigError

    cfg = dict(_SOLVE_DEFAULTS, N=3, p=2, q=1, m=6, s=1, k=4, lam=lam, R=1e3, n=1025)
    with pytest.raises(ConfigError):
        run_solve(cfg)


def _no_calibration(*args, **kwargs):
    raise AssertionError("calibrated before the input was checked")


@pytest.mark.parametrize("source", ["solve_config", "classify_config", "manifest"])
def test_unknown_keys_exit_64(solved_dir, tmp_path, source, monkeypatch):
    import gmext.coupled

    monkeypatch.setattr(gmext.coupled, "calibrate_barrier_constants", _no_calibration)
    out = tmp_path / "out"
    if source == "manifest":
        manifest = json.loads((solved_dir / "run1.manifest.json").read_text())
        manifest["config"]["nodes"] = 8193
        path = tmp_path / "typo.manifest.json"
        path.write_text(json.dumps(manifest))
        argv = ["solve", "--from-manifest", str(path), "--output", str(out)]
        named = ["nodes"]
    else:
        path = tmp_path / "typo.cfg"
        path.write_text("nodes = 8193\nlamda = 1e-5\n")
        if source == "solve_config":
            argv = ["solve", *BASE, "--config", str(path), "--output", str(out)]
        else:
            argv = ["classify", *BASE, "--config", str(path)]
        named = ["lamda", "nodes"]
    code, _, err = run_cli(argv)
    assert code == 64
    assert err.startswith("configuration error:")
    assert all(key in err for key in named)
    assert not out.exists()


@pytest.mark.parametrize("window", [
    ["--R", "100"],
    ["--R", "1e3", "--window-lo", "10", "--window-hi", "50"],
    ["--m", "4", "--window-lo", "1", "--window-hi", "1e3"],
    ["--window-lo", "10", "--window-hi", "inf"],
    ["--window-lo", "nan", "--window-hi", "1e3"],
    ["--window-lo", "nan"],
    ["--window-lo", "-5", "--window-hi", "1e3"],
], ids=["empty_default", "short", "log_fit_at_r0", "infinite", "nan", "nan_lo_only",
        "negative"])
def test_bad_window_exit_64_before_solving(tmp_path, window, monkeypatch):
    # the last case has a log-corrected inhibitor profile, whose fit needs
    # the window to start beyond r0
    import gmext.coupled

    monkeypatch.setattr(gmext.coupled, "calibrate_barrier_constants", _no_calibration)
    out = tmp_path / "out"
    code, _, err = run_cli(["solve", *BASE, *window, "--output", str(out)])
    assert code == 64
    assert err.startswith("configuration error: fitting window:")
    assert not out.exists()


@pytest.mark.parametrize("window, expected", [
    (["--window-lo", "100"], [100.0, 1000.0]),
    (["--window-hi", "300"], [10.0, 300.0]),
    (["--window-lo", "100", "--window-hi", "0"], [100.0, 1000.0]),
], ids=["lo_only", "hi_only", "hi_zero"])
def test_window_bound_of_zero_takes_that_default_bound(tmp_path, window, expected):
    # each bound is resolved on its own: 0 takes that bound of the grid's
    # default window (10..1000 here), a given bound is kept
    code, _, err = run_cli(["solve", *BASE, "--n", "1025", *window,
                            "--output", str(tmp_path)])
    assert code == 0, err
    manifest = json.loads((tmp_path / "solution.manifest.json").read_text())
    assert manifest["fits"]["window"] == expected
    assert [manifest["config"][key] for key in ("window_lo", "window_hi")] == expected


def _write_bad_manifest(tmp_path, which):
    path = tmp_path / "bad.manifest.json"
    if which == "not_json":
        path.write_text("{not json")
    elif which == "list":
        path.write_text("[1, 2]")
    elif which == "no_power":
        path.write_text(json.dumps({"fits": {"u": {}}, "verdict": {"u_profile": {}}}))
    elif which == "null_power":
        path.write_text(json.dumps({
            "fits": {c: {"power": None} for c in "uv"},
            "verdict": {f"{c}_profile": {"power": None, "log_power": 0.0} for c in "uv"},
        }))
    return path


BAD_MANIFESTS = ["missing", "not_json", "list", "no_power", "null_power"]


@pytest.mark.parametrize("which", BAD_MANIFESTS)
def test_bad_reference_exit_64_before_solving(tmp_path, which, monkeypatch):
    import gmext.cli

    def no_solve(cfg):
        raise AssertionError("solved before reading --reference")

    monkeypatch.setattr(gmext.cli, "run_solve", no_solve)
    out = tmp_path / "out"
    code, _, err = run_cli(["solve", *BASE, "--output", str(out),
                            "--reference", str(_write_bad_manifest(tmp_path, which))])
    assert code == 64
    assert err.startswith("configuration error: unreadable manifest")
    assert not out.exists()


@pytest.mark.parametrize("which", BAD_MANIFESTS)
def test_fit_bad_manifest_exit_64(solved_dir, tmp_path, which):
    code, out, err = run_cli(["fit", str(solved_dir / "run1.csv"),
                              "--manifest", str(_write_bad_manifest(tmp_path, which))])
    assert code == 64
    assert err.startswith("configuration error: unreadable manifest")
    assert out == ""


@pytest.mark.parametrize("problem", [
    ["--N", "3", "--kind", "MIXED", "--p", "1", "--q", "4.5", "--m", "5", "--s", "1",
     "--k", "4"],
    [*BASE, "--rho0", "2"],
    [*BASE, "--r0", "2", "--R", "2e4"],
], ids=["mixed", "rho0", "r0"])
def test_reference_of_another_problem_exit_64_before_solving(solved_dir, tmp_path,
                                                             problem, monkeypatch):
    # the reference is MIN-i at r0 = 1 and rho0 = 1; its fits are no
    # truncation check of another problem
    import gmext.cli

    def no_solve(cfg):
        raise AssertionError("solved against a reference of another problem")

    monkeypatch.setattr(gmext.cli, "run_solve", no_solve)
    out = tmp_path / "out"
    code, _, err = run_cli(["solve", *problem, "--output", str(out),
                            "--reference", str(solved_dir / "run1.manifest.json")])
    assert code == 64
    assert err.startswith("configuration error: reference solves a different problem")
    assert len(err.splitlines()) == 1
    assert not out.exists()


def test_truncation_reference_delta(solved_dir, tmp_path):
    code, out, err = run_cli([
        "solve", *BASE, "--R", "20000", "--n", "2177", "--output", str(tmp_path),
        "--name", "run2", "--reference", str(solved_dir / "run1.manifest.json"),
    ])
    assert code == 0, err
    manifest = json.loads((tmp_path / "run2.manifest.json").read_text())
    assert manifest["truncation_check"]["delta_u_power"] < 0.01


# ---------------------------------------------------------------------------
# fit


def test_fit_on_solution(solved_dir):
    code, out, _ = run_cli([
        "fit", str(solved_dir / "run1.csv"),
        "--manifest", str(solved_dir / "run1.manifest.json"),
        "--window", "10", "1000",
    ])
    assert code == 0
    assert out.count("PASS") == 2


def test_fit_failing_prediction_exits_1(solved_dir, tmp_path):
    # MIN-i decays like r^-1 in both components; criterion 5's literal
    # (u ~ r^-1.5, v ~ r^-1) fails on u
    manifest = json.loads((solved_dir / "run1.manifest.json").read_text())
    manifest["verdict"]["u_profile"].update(power=-1.5, log_power=0.0)
    manifest["verdict"]["v_profile"].update(power=-1.0, log_power=0.0)
    path = tmp_path / "literal.manifest.json"
    path.write_text(json.dumps(manifest))
    code, out, err = run_cli(["fit", str(solved_dir / "run1.csv"), "--manifest", str(path),
                              "--window", "10", "1000"])
    assert code == 1 and err == ""
    lines = out.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("u:") and lines[0].endswith("FAIL")
    assert lines[1].startswith("v:") and lines[1].endswith("PASS")


def _log_corrected_run(tmp_path, v_log_power):
    # u = r^-1 and v = r^-1 log^0.5 r on the solve grid, with a manifest that
    # predicts v's log power
    r = np.geomspace(1.0, 1e4, 4097)
    path = tmp_path / "log.csv"
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["r", "u", "v", "residual_u", "residual_v"])
        for x in r:
            writer.writerow(["%.17g" % x, "%.17g" % (1 / x),
                             "%.17g" % (np.sqrt(np.log(x)) / x), "0", "0"])
    manifest = tmp_path / "log.manifest.json"
    manifest.write_text(json.dumps({"verdict": {
        "u_profile": {"power": -1.0, "log_power": 0.0},
        "v_profile": {"power": -1.0, "log_power": v_log_power}}}))
    return run_cli(["fit", str(path), "--manifest", str(manifest)])


def test_fit_log_corrected_prediction_passes(tmp_path):
    code, out, err = _log_corrected_run(tmp_path, 0.5)
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert len(lines) == 2 and all(line.endswith("PASS") for line in lines)
    assert "log_power +0.5000" in lines[1]


def test_fit_log_free_prediction_fails_a_log_profile(tmp_path):
    # the plain fit absorbs the log factor into the power, -0.885 on 10..1000
    code, out, _ = _log_corrected_run(tmp_path, 0.0)
    assert code == 1
    u_line, v_line = out.splitlines()
    assert u_line.endswith("PASS") and v_line.endswith("FAIL")
    assert "power -0.885" in v_line


def test_fit_synthetic_power_law(tmp_path):
    grid_r = np.geomspace(1.0, 1e4, 1025)
    path = tmp_path / "synth.csv"
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["r", "u", "v", "residual_u", "residual_v"])
        for r in grid_r:
            writer.writerow(["%.17g" % r, "%.17g" % (r ** -2.0),
                             "%.17g" % (3 * r ** -2.0), "0", "0"])
    code, out, _ = run_cli(["fit", str(path), "--window", "10", "1000"])
    assert code == 0
    for line in out.splitlines():
        assert "power -2.0000" in line
        assert "rms" in line
        rms = float(line.split("rms")[1].split()[0])
        assert rms < 1e-12


def test_fit_window_warning(solved_dir):
    code, _, err = run_cli([
        "fit", str(solved_dir / "run1.csv"), "--window", "2", "900",
    ])
    assert "boundary layer" in err


def test_fit_refuses_window_before_warning(solved_dir):
    # (10, inf) also reaches into the outer boundary layer; the refusal is
    # the one line printed
    code, out, err = run_cli(["fit", str(solved_dir / "run1.csv"), "--window", "10", "inf"])
    assert code == 64 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("u: window error:")


@pytest.mark.parametrize("bad", ["0", "nan", "inf"])
def test_fit_refuses_nonpositive_or_non_finite_value(tmp_path, bad):
    # one bad u value at r = 100, inside the window; NaN and inf used to
    # print "power +nan ... rms nan" and exit 0
    r = np.geomspace(1.0, 1e4, 1025)
    u = ["%.17g" % x for x in r ** -1.0]
    u[512] = bad
    path = tmp_path / "bad_value.csv"
    path.write_text("r,u,v\n" + "".join("%.17g,%s,%.17g\n" % (x, ux, 1 / x)
                                         for x, ux in zip(r, u)))
    code, out, err = run_cli(["fit", str(path), "--window", "10", "1000"])
    assert code == 64 and out == ""
    assert err.startswith("u: window error:") and "positive finite" in err


def test_fit_malformed_csv_exit_65(tmp_path):
    bad = tmp_path / "bad.csv"
    # u = r^-1 exactly on radii off the log-uniform grid: fitted against the
    # rebuilt grid it would report a wrong power with a tiny rms
    perturbed = np.geomspace(1.0, 1e4, 1025)
    perturbed[512] *= 1.0 + 1e-6
    off_grid = ["r,u,v\n" + "".join("%.17g,%.17g,%.17g\n" % (x, 1 / x, 1 / x) for x in r)
                for r in (np.linspace(1.0, 1e4, 1025), perturbed)]
    # a non-number, rows shorter than the header, a single row, off-grid radii
    # a header with no data rows
    for text in ["r,u\n1.0,nope\n", "r,u,v\n1,2\n3,4\n", "r,u,v\n1,1,1\n", *off_grid,
                 "r,u,v\n"]:
        bad.write_text(text)
        code, out, err = run_cli(["fit", str(bad), "--window", "10", "1000"])
        assert code == 65
        assert err.startswith("malformed CSV:") and out == ""


# ---------------------------------------------------------------------------
# sweep


def test_sweep_classifier_boundary(tmp_path):
    out = tmp_path / "atlas.csv"
    code, _, err = run_cli([
        "sweep", "--N", "3", "--m", "6", "--s", "1", "--k", "4",
        "--vary", "p=3:7:9", "--vary", "q=0.5:3:6",
        "--output", str(out),
    ])
    assert code == 0, err
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert len(rows) == 54
    # the boundary p = q + 3 separates existence from the rest
    for row in rows:
        p, q = float(row["p"]), float(row["q"])
        if row["outcome"] == "EXISTS_MINIMAL_GROWTH":
            assert p > q + 3
    assert any(row["outcome"] == "EXISTS_MINIMAL_GROWTH" for row in rows)
    assert any(row["outcome"] != "EXISTS_MINIMAL_GROWTH" for row in rows)


def test_sweep_profile_switches_across_threshold(tmp_path):
    out = tmp_path / "atlas_m.csv"
    code, _, err = run_cli([
        "sweep", "--N", "3", "--p", "9", "--q", "1", "--s", "1", "--k", "4",
        "--vary", "m=3.5:4.5:3", "--output", str(out),
    ])
    assert code == 0, err
    rows = list(csv.DictReader(out.read_text().splitlines()))
    logs = [float(row["v_log_power"]) for row in rows]
    powers = [float(row["v_power"]) for row in rows]
    assert logs == [0.0, 0.5, 0.0]
    assert powers == [-0.75, -1.0, -1.0]


def test_sweep_empty_range(tmp_path):
    out = tmp_path / "empty.csv"
    code, _, err = run_cli([
        "sweep", "--N", "3", "--q", "1", "--m", "6", "--s", "1", "--k", "4",
        "--vary", "p=3:7:0", "--output", str(out),
    ])
    assert code == 0
    content = out.read_text().strip().splitlines()
    assert len(content) == 1  # header only


@pytest.mark.parametrize("vary, jobs_env", [
    ("p=3:7:2.5", None),
    ("p=3:7:-2", None),
    ("p=abc", None),
    ("p=3:7:3", "abc"),
    ("p=3:7:3", "0"),
], ids=["fractional_count", "negative_count", "not_a_number", "bad_jobs_env",
        "jobs_env_below_one"])
def test_sweep_malformed_input_exit_64(tmp_path, monkeypatch, vary, jobs_env):
    if jobs_env is not None:
        monkeypatch.setenv("GM_EXT_JOBS", jobs_env)
    out = tmp_path / "bad.csv"
    code, _, err = run_cli([
        "sweep", "--N", "3", "--q", "1", "--m", "6", "--s", "1", "--k", "4",
        "--vary", vary, "--output", str(out),
    ])
    assert code == 64
    assert err.startswith("configuration error:")
    assert not out.exists()


SWEEP = ["sweep", "--N", "3", "--q", "1", "--m", "6", "--s", "1", "--k", "4"]
PROBE = ["probe", "--N", "3", "--p", "5", "--q", "1", "--m", "2", "--s", "1", "--k", "4"]


@pytest.mark.parametrize("argv, config", [
    ([*SWEEP[:1], *SWEEP[3:], "--vary", "p=3:7:3"], None),
    ([*SWEEP, "--vary", "p=3:7:3"], "R = abc"),
    (SWEEP, "p = abc"),
    ([*SWEEP, "--vary", "p=3:7:3"], "kind = BAD"),
    ([*PROBE, "--R-list", "1e2,abc"], None),
    ([*PROBE, "--R-list", "1e2,nan"], None),
    ([*PROBE, "--R-list", "1e2,inf"], None),
    ([*PROBE, "--R-list", "1e2,1e2"], None),
    (PROBE, "rho0 = abc"),
    # the same kinds of bad value given as flags
    (["classify", *BASE[:2], "--p", "abc", *BASE[4:]], None),
    ([*PROBE[:1], "--N", "3.5", *PROBE[3:]], None),
    ([*SWEEP, "--vary", "p=3:7:3", "--n", "1025.5"], None),
    ([*SWEEP, "--vary", "p=3:7:3", "--kind", "BAD"], None),
    ([*SWEEP, "--vary", "p=3:7:3", "--jobs", "two"], None),
    ([*PROBE, "--rho0", "inf"], None),
    # the parser's own usage errors; the CSV is never opened
    (["classify", *BASE[:2], "--p", "-1e-3", *BASE[4:]], None),
    (["fit", "missing.csv", "--window", "10", "abc"], None),
    (["classify", *BASE, "--bogus", "1"], None),
    # an axis given twice, a range with a non-finite end, a pool below one
    ([*SWEEP, "--vary", "p=3:7:3", "--vary", "p=4:5:2"], None),
    ([*SWEEP, "--vary", "p=3:inf:3"], None),
    ([*SWEEP, "--vary", "p=nan:7:3"], None),
    ([*SWEEP, "--vary", "p=-inf:7:3"], None),
    ([*SWEEP, "--vary", "p=3:7:3", "--jobs", "-2"], None),
    # a range with no "=", over an integer setting, with two parts
    ([*SWEEP, "--vary", "p"], None),
    ([*SWEEP, "--vary", "N=3:5:3"], None),
    ([*SWEEP, "--vary", "p=1:2"], None),
    # settings the command does not read: classify and the probe take no
    # lam, the probe no rho0 (its amplitude is one), and a sweep varies only
    # the exponents its CSV records
    (["classify", *BASE, "--lambda", "7"], None),
    ([*PROBE, "--lambda", "3"], None),
    ([*PROBE, "--rho0", "1e6"], None),
    ([*SWEEP, "--vary", "lam=1e-9"], None),
], ids=["sweep_no_N", "sweep_R", "sweep_p", "sweep_kind", "probe_R_list", "probe_R_nan",
        "probe_R_inf", "probe_R_repeated", "probe_rho0", "flag_p", "flag_N", "flag_n",
        "flag_kind", "flag_jobs", "probe_rho0_inf", "usage_value_like_a_flag",
        "usage_fit_window", "usage_unknown_flag", "sweep_repeated_axis", "sweep_range_inf",
        "sweep_range_nan", "sweep_range_minus_inf", "flag_jobs_below_one",
        "sweep_range_no_equals", "sweep_range_integer_key", "sweep_range_two_parts",
        "classify_lambda", "probe_lambda", "probe_rho0_flag", "sweep_vary_lam"])
def test_bad_settings_exit_64(tmp_path, argv, config):
    out = tmp_path / "atlas.csv"
    argv = [*argv, "--output", str(out)] if argv[0] == "sweep" else list(argv)
    if config is not None:
        path = tmp_path / "run.cfg"
        path.write_text(config + "\n")
        argv += ["--config", str(path)]
    code, stdout, err = run_cli(argv)
    assert code == 64
    assert len(err.splitlines()) == 1 and err.startswith("configuration error:")
    assert stdout == ""
    assert not out.exists()


@pytest.mark.parametrize("flag, value, reason", [
    ("--k", "inf", "k must be positive and finite"),
    ("--lambda", "inf", "lam must be nonnegative and finite"),
    ("--lambda", "nan", "lam must be nonnegative and finite"),
    ("--rho0", "inf", "need finite C2 >= C1 > 0"),
    ("--R", "inf", "need finite R > r0 > 0"),
], ids=["k_inf", "lambda_inf", "lambda_nan", "rho0_inf", "R_inf"])
def test_non_finite_setting_refused_with_its_reason(tmp_path, flag, value, reason):
    out = tmp_path / "out"
    code, stdout, err = run_cli(["solve", *BASE, flag, value, "--output", str(out)])
    assert code == 64
    assert len(err.splitlines()) == 1 and err.startswith("configuration error:")
    assert reason in err
    assert stdout == "" and not out.exists()


def _solved_sweep_row(tmp_path, *extra) -> dict:
    """The one row of a solving sweep over MIN-i."""
    out = tmp_path / "one.csv"
    code, _, err = run_cli([*SWEEP, "--p", "5", "--R", "1e3", "--n", "1025", "--solve",
                            *extra, "--output", str(out)])
    assert code == 0, err
    with out.open() as fh:
        (only,) = csv.DictReader(fh)
    return only


def test_sweep_solve_honours_lambda(tmp_path):
    # the row does not record lambda, so only the fits tell them apart
    cfg = tmp_path / "lam.cfg"
    cfg.write_text("lam = 1e-9\n")
    flag = _solved_sweep_row(tmp_path, "--lambda", "1e-9")
    assert _solved_sweep_row(tmp_path, "--config", str(cfg)) == flag
    assert _solved_sweep_row(tmp_path)["fit_u_power"] != flag["fit_u_power"]


def test_sweep_bad_lambda_makes_every_row_a_cell_error(tmp_path):
    # classifying does not read lam, but a sweep that would solve at a bad
    # one records it in every row, as it does a bad exponent
    out = tmp_path / "bad_lam.csv"
    code, _, err = run_cli([*SWEEP, "--vary", "p=3:7:3", "--lambda=-1", "--output", str(out)])
    assert code == 0 and err == ""
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert [(row["p"], row["outcome"], row["error"]) for row in rows] == [
        ("3", "", "BAD_CONFIG"), ("5", "", "BAD_CONFIG"), ("7", "", "BAD_CONFIG")]


def test_sweep_solve_honours_window(tmp_path):
    cfg = tmp_path / "window.cfg"
    cfg.write_text("window_lo = 20\nwindow_hi = 200\n")
    flags = _solved_sweep_row(tmp_path, "--window-lo", "20", "--window-hi", "200")
    assert _solved_sweep_row(tmp_path, "--config", str(cfg)) == flags
    assert _solved_sweep_row(tmp_path)["fit_v_power"] != flags["fit_v_power"]


def test_sweep_solve_resolves_each_window_bound(tmp_path):
    # at R = 1e3 the default window is 10..100: --window-lo alone keeps it
    # as the upper bound, and a negative bound is the cell's error
    assert (_solved_sweep_row(tmp_path, "--window-lo", "20")
            == _solved_sweep_row(tmp_path, "--window-lo", "20", "--window-hi", "100"))
    bad = _solved_sweep_row(tmp_path, "--window-lo", "-5")
    assert bad["outcome"].startswith("EXISTS")
    assert (bad["fit_v_power"], bad["error"]) == ("", "BAD_CONFIG")


def test_sweep_records_cell_errors_inline(tmp_path):
    out = tmp_path / "err.csv"
    code, _, err = run_cli([
        "sweep", "--N", "3", "--q", "1", "--m", "6", "--s", "1", "--k", "4",
        "--vary", "p=-1:7:2", "--output", str(out),
    ])
    assert code == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert rows[0]["error"] == "BAD_CONFIG"
    assert rows[1]["error"] == ""


def test_sweep_records_no_inhibitor_cell(tmp_path):
    # an existence verdict whose inhibitor has no decaying solution (a*m
    # within 1e-12 of 2) is a cell error, as classify's error is
    out = tmp_path / "edge.csv"
    code, _, err = run_cli([
        "sweep", "--N", "4", "--q", "0.1", "--m", "1.0011393632041066", "--s", "1",
        "--k", "3.9977238669360475", "--vary", "p=2.5:3.5:3", "--output", str(out),
    ])
    assert code == 0, err
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert [(row["outcome"], row["v_power"], row["error"]) for row in rows] == [
        ("", "", "NO_INHIBITOR_SOLUTION")] * 3


def test_sweep_single_nan_value_is_a_cell_error(tmp_path):
    # a single value is taken as given: NaN makes its cells BAD_CONFIG rows
    out = tmp_path / "nan.csv"
    code, _, err = run_cli(["sweep", "--N", "3", "--m", "6", "--s", "1", "--k", "4",
                            "--vary", "p=3:7:3", "--vary", "q=nan", "--output", str(out)])
    assert code == 0 and err == ""
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert [(row["p"], row["q"], row["outcome"], row["error"]) for row in rows] == [
        ("3", "nan", "", "BAD_CONFIG"), ("5", "nan", "", "BAD_CONFIG"),
        ("7", "nan", "", "BAD_CONFIG")]


def test_sweep_solve_path_records_fits(tmp_path):
    out = tmp_path / "solved.csv"
    code, _, err = run_cli([
        "sweep", "--N", "3", "--q", "1", "--m", "6", "--s", "1", "--k", "4",
        "--vary", "p=5:6:2", "--solve", "--R", "3000", "--n", "1793",
        "--output", str(out),
    ])
    assert code == 0, err
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert len(rows) == 2
    for row in rows:
        assert row["outcome"] == "EXISTS_MINIMAL_GROWTH"
        assert abs(float(row["fit_u_power"]) - float(row["u_power"])) < 0.05


def test_solving_sweep_puts_each_fit_and_error_on_its_own_row(tmp_path):
    from gmext.cli import _solve_config, build_parser, run_solve
    from gmext.errors import GmextError

    # six cells: (p, q) = (6, 1.5) ends DIVERGED, (5, 1.5) and (5.5, 1.5)
    # are INCONCLUSIVE (sigma >= 1), the other three fit
    cell_argv = ["--N", "3", "--m", "6", "--s", "1", "--k", "4", "--n", "257"]
    out = tmp_path / "solved.csv"
    code, _, err = run_cli(["sweep", *cell_argv, "--vary", "p=5:6:3", "--vary", "q=1:1.5:2",
                            "--solve", "--jobs", "1", "--output", str(out)])
    assert code == 0, err
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert len(rows) == 6
    for row in rows:
        expected = ("", "", "")
        if row["outcome"].startswith("EXISTS"):
            cfg = _solve_config(build_parser().parse_args(
                ["solve", *cell_argv, "--p", row["p"], "--q", row["q"]]))
            try:
                fits = run_solve(cfg)[0]["fits"]
                expected = ("%.17g" % fits["u"]["power"], "%.17g" % fits["v"]["power"], "")
            except GmextError as exc:
                expected = ("", "", exc.tag)
        assert (row["fit_u_power"], row["fit_v_power"], row["error"]) == expected, row
    assert [row["error"] for row in rows].count("DIVERGED") == 1
    assert len({row["fit_u_power"] for row in rows} - {""}) == 3


def test_sweep_contains_unexpected_cell_failure(tmp_path, monkeypatch):
    import gmext.cli

    real = gmext.cli.run_solve

    def broken(cfg):
        if cfg["p"] == 5.0:
            raise ValueError("array must not contain infs or NaNs")
        return real(cfg)

    monkeypatch.setattr(gmext.cli, "run_solve", broken)
    out = tmp_path / "contained.csv"
    code, _, err = run_cli([
        "sweep", "--N", "3", "--q", "1", "--m", "6", "--s", "1", "--k", "4",
        "--vary", "p=5:6:2", "--solve", "--R", "1000", "--n", "1025",
        "--jobs", "1", "--output", str(out),
    ])
    assert code == 0, err
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert rows[0]["error"] == "INTERNAL:ValueError" and rows[0]["fit_u_power"] == ""
    assert rows[1]["error"] == "" and rows[1]["fit_u_power"] != ""
    assert "internal error: ValueError" in err


def test_classify_only_sweep_starts_no_pool(tmp_path, monkeypatch):
    import gmext.cli

    def no_pool(*args, **kwargs):
        raise AssertionError("a classify-only sweep built a worker pool")

    monkeypatch.setattr(gmext.cli, "ProcessPoolExecutor", no_pool)
    out = tmp_path / "atlas.csv"
    code, _, err = run_cli(["sweep", "--N", "3", "--m", "6", "--s", "1", "--k", "4",
                            "--vary", "p=3:7:5", "--vary", "q=0.5:2:4", "--jobs", "2",
                            "--output", str(out)])
    assert code == 0, err
    assert len(list(csv.DictReader(out.read_text().splitlines()))) == 20


def test_sweep_solve_parallel_matches_serial(tmp_path):
    # p = 3 is nonexistence (p <= N/(N-2)); the four other cells are
    # existence cells, and (p, q) = (4.5, 1) fails to solve
    argv = ["sweep", "--N", "3", "--m", "6", "--s", "1", "--k", "4", "--vary", "p=3:6:3",
            "--vary", "q=0.5:1:2", "--R", "1e3", "--n", "1025", "--solve"]
    serial, parallel = tmp_path / "serial.csv", tmp_path / "parallel.csv"
    assert run_cli([*argv, "--jobs", "1", "--output", str(serial)])[0] == 0
    assert run_cli([*argv, "--jobs", "2", "--output", str(parallel)])[0] == 0
    rows = list(csv.DictReader(serial.read_text().splitlines()))
    assert {row["outcome"] for row in rows} >= {"NONEXISTENCE", "EXISTS_MINIMAL_GROWTH"}
    assert sum(row["fit_u_power"] != "" for row in rows) == 3
    assert [row["error"] for row in rows].count("DIVERGED") == 1
    assert serial.read_bytes() == parallel.read_bytes()
    _assert_csv_writer_bytes(serial)


def test_sweep_jobs_env_fallback(tmp_path, monkeypatch):
    out = tmp_path / "envjobs.csv"
    monkeypatch.setenv("GM_EXT_JOBS", "2")
    code, _, err = run_cli([
        "sweep", "--N", "3", "--m", "6", "--s", "1", "--k", "4",
        "--vary", "p=3:7:3", "--vary", "q=1:2:2", "--output", str(out),
    ])
    assert code == 0, err
    assert len(list(csv.DictReader(out.read_text().splitlines()))) == 6


def test_sweep_parallel_matches_serial(tmp_path):
    argv_tail = ["--N", "3", "--m", "6", "--s", "1", "--k", "4",
                 "--vary", "p=3:7:5", "--vary", "q=0.5:2:4"]
    serial = tmp_path / "serial.csv"
    parallel = tmp_path / "parallel.csv"
    assert run_cli(["sweep", *argv_tail, "--output", str(serial)])[0] == 0
    assert run_cli(["sweep", *argv_tail, "--output", str(parallel), "--jobs", "4"])[0] == 0
    assert serial.read_bytes() == parallel.read_bytes()


def _assert_csv_writer_bytes(path):
    """The file holds what csv.writer, in its default excel dialect, writes
    for the rows csv.reader reads back from it."""
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    text = io.StringIO(newline="")
    csv.writer(text).writerows(rows)
    assert path.read_bytes() == text.getvalue().encode("utf-8")


@pytest.mark.parametrize("argv, reaches", [
    (["--N", "3", "--s", "1", "--vary", "p=1:7:4", "--vary", "q=0.5:2:2",
      "--vary", "m=1:6:3", "--vary", "k=2.5:4.5:3"],
     {"NONEXISTENCE", "EXISTS_MINIMAL_GROWTH", "EXISTS_FAST_GROWTH", "INCONCLUSIVE"}),
    (["--kind", "MIXED", "--N", "3", "--p", "1", "--m", "5", "--s", "1",
      "--vary", "q=3:6:4", "--vary", "k=3.5:4.5:3"],
     {"EXISTS_MIXED_MINIMAL", "INCONCLUSIVE"}),
    # q <= 0 makes BAD_CONFIG cells, a*m within 1e-12 of 2 NO_INHIBITOR ones
    (["--N", "4", "--m", "1.0011393632041066", "--s", "1", "--k", "3.9977238669360475",
      "--vary", "p=2.5:3.5:3", "--vary", "q=-1:3:5"],
     {"", "INCONCLUSIVE", "BAD_CONFIG", "NO_INHIBITOR_SOLUTION"}),
], ids=["gm", "mixed", "cell_errors"])
def test_sweep_csv_is_csv_writer_text(tmp_path, argv, reaches):
    out = tmp_path / "atlas.csv"
    code, _, err = run_cli(["sweep", *argv, "--output", str(out)])
    assert code == 0, err
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert {row["outcome"] for row in rows} | {row["error"] for row in rows} >= reaches
    _assert_csv_writer_bytes(out)


class _CountingFile:
    """A writable file that records the text of each write."""

    def __init__(self, fh, writes):
        self.fh, self.writes = fh, writes

    def write(self, text):
        self.writes.append(text)
        return self.fh.write(text)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self.fh.__exit__(*exc)


@pytest.mark.parametrize("n_cells", [0, 7, 8, 15])
def test_sweep_writes_header_then_one_write_per_chunk(tmp_path, monkeypatch, n_cells):
    import gmext.cli

    writes = []
    real_open = gmext.cli._open_output
    monkeypatch.setattr(gmext.cli, "_CSV_CHUNK_ROWS", 7)
    monkeypatch.setattr(gmext.cli, "_open_output",
                        lambda path: _CountingFile(real_open(path), writes))
    out = tmp_path / "atlas.csv"
    code, _, err = run_cli([*SWEEP, "--vary", f"p=3:7:{n_cells}", "--output", str(out)])
    assert code == 0, err
    data = out.read_bytes()
    assert data.endswith(b"\r\n") and data.count(b"\r\n") == 1 + n_cells
    assert len(writes) == 1 + math.ceil(n_cells / 7)
    assert [text.count("\r\n") for text in writes[1:]] == [
        min(7, n_cells - lo) for lo in range(0, n_cells, 7)]
    _assert_csv_writer_bytes(out)


def test_solution_csv_is_csv_writer_text(tmp_path, monkeypatch):
    import gmext.cli

    monkeypatch.setattr(gmext.cli, "_CSV_CHUNK_ROWS", 7)
    values = np.array([0.0, -0.0, 1.0, -2.5e-300, 1e300, 1 / 3, np.pi, np.inf, -np.inf,
                       np.nan, 5e-324, 123456789.125, -1e-7, 2.0 ** 60, 0.1])
    rows = list(zip(*(np.roll(values, shift) for shift in range(5))))
    path = tmp_path / "solution.csv"
    gmext.cli.write_solution_csv(path, rows)
    text = io.StringIO(newline="")
    writer = csv.writer(text)
    writer.writerow(["r", "u", "v", "residual_u", "residual_v"])
    writer.writerows([["%.17g" % x for x in row] for row in rows])
    assert path.read_bytes() == text.getvalue().encode("utf-8")


# ---------------------------------------------------------------------------
# output locations


def test_sweep_makes_its_output_directory(tmp_path):
    out = tmp_path / "new_dir" / "deeper" / "atlas.csv"
    code, _, err = run_cli([*SWEEP, "--vary", "p=3:7:3", "--output", str(out)])
    assert code == 0, err
    assert len(list(csv.DictReader(out.read_text().splitlines()))) == 3


@pytest.mark.parametrize("command, target", [
    ("sweep", "directory"), ("sweep", "under_a_file"), ("sweep", "read_only"),
    ("solve", "regular_file"), ("solve", "csv_is_a_directory"),
])
def test_unusable_output_exit_64_before_solving(tmp_path, monkeypatch, command, target):
    import gmext.cli

    def no_solve(cfg):
        raise AssertionError("solved before checking the output")

    monkeypatch.setattr(gmext.cli, "run_solve", no_solve)
    existing = tmp_path / "existing"
    if target in ("directory", "csv_is_a_directory", "read_only"):
        existing.mkdir()
        (existing / "solution.csv").mkdir()
    else:
        existing.write_text("keep me\n")
    if target == "read_only":
        # as os.access answers for a directory the user may not write to
        monkeypatch.setattr(gmext.cli.os, "access", lambda path, mode: False)
    if command == "sweep":
        out = (existing / "atlas.csv" if target in ("under_a_file", "read_only")
               else existing)
        argv = [*SWEEP, "--vary", "p=5:6:2", "--solve", "--jobs", "1", "--output", str(out)]
    else:
        argv = ["solve", *BASE, "--output", str(existing)]
    code, stdout, err = run_cli(argv)
    assert code == 64
    assert len(err.splitlines()) == 1 and err.startswith("configuration error: output")
    assert stdout == ""
    if target == "regular_file":
        assert existing.read_text() == "keep me\n"


def test_output_that_cannot_be_opened_is_a_config_error(tmp_path):
    from gmext.cli import _open_output
    from gmext.errors import ConfigError

    with pytest.raises(ConfigError, match="cannot write output"):
        _open_output(tmp_path)


# ---------------------------------------------------------------------------
# probe


def test_probe_cli():
    code, out, _ = run_cli([
        "probe", "--N", "3", "--p", "5", "--q", "1", "--m", "2", "--s", "1",
        "--k", "4", "--R-list", "1e2,1e3",
    ])
    assert code == 0
    assert "floor/peak" in out and "diagnosis" in out


def test_probe_existence_params_rejected():
    code, _, err = run_cli(["probe", *BASE])
    assert code == 64


# ---------------------------------------------------------------------------
# one parser per process


def test_main_builds_its_parser_once(monkeypatch, tmp_path):
    import gmext.cli

    built = []

    class Spy(gmext.cli._Parser):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            if kwargs.get("prog") == "gmext":
                built.append(self)

    monkeypatch.setattr(gmext.cli, "_Parser", Spy)
    gmext.cli.build_parser.cache_clear()
    try:
        codes = [run_cli(["classify", *BASE])[0],
                 run_cli(["sweep", *BASE, "--vary", "p=3:7:3",
                          "--output", str(tmp_path / "atlas.csv")])[0],
                 run_cli(["classify", "--no-such-flag"])[0],
                 run_cli(["--version"])[0],
                 run_cli(["classify", *BASE])[0]]
    finally:
        # the next call builds the parser again, of the real class
        gmext.cli.build_parser.cache_clear()
    assert codes == [0, 0, 64, 0, 0]
    assert len(built) == 1


SWEEPS = {
    "pq": ["--N", "3", "--m", "6", "--s", "1", "--k", "4",
           "--vary", "p=3:7:4", "--vary", "q=0.5:3:3"],
    "m": ["--N", "3", "--p", "5", "--q", "1", "--s", "1", "--k", "4", "--vary", "m=1:8:5"],
}


def test_in_process_sweeps_write_what_a_fresh_process_writes(tmp_path):
    # --vary appends to a list that each parse starts afresh: the second
    # sweep varies m alone, not p, q and m
    for name, argv in SWEEPS.items():
        code, _, err = run_cli(["sweep", *argv, "--output", str(tmp_path / f"{name}.csv")])
        assert code == 0, err
    for name, argv in SWEEPS.items():
        fresh = tmp_path / f"{name}-fresh.csv"
        subprocess.run([sys.executable, "-m", "gmext.cli", "sweep", *argv,
                        "--output", str(fresh)], capture_output=True, check=True)
        assert (tmp_path / f"{name}.csv").read_bytes() == fresh.read_bytes()
    assert (tmp_path / "m.csv").read_text().count("\n") == 1 + 5


def test_usage_error_leaves_the_next_call_unchanged():
    expected = run_cli(["classify", *BASE])
    assert run_cli(["sweep", "--vary"])[0] == 64
    assert run_cli(["classify", *BASE, "--p"])[0] == 64
    assert run_cli(["classify", *BASE]) == expected


def test_version_twice():
    from gmext import __version__

    for _ in range(2):
        assert run_cli(["--version"]) == (0, f"gmext {__version__}\n", "")


# ---------------------------------------------------------------------------
# console entry point end to end


SCIPY_GUARD = """
import csv, io, json, sys
from contextlib import redirect_stderr, redirect_stdout

sys.path.insert(0, sys.argv[1])
tmp = sys.argv[2]
loaded = {}

def record(step):
    loaded[step] = sorted(m for m in sys.modules if m.startswith("scipy"))

import gmext
from gmext import assemble_operator, build_grid, cli, solve_linear
record("import")
with open(tmp + "/synth.csv", "w", newline="") as fh:
    writer = csv.writer(fh)
    writer.writerow(["r", "u", "v"])
    for i in range(257):
        r = 10.0 ** (4.0 * i / 256)
        writer.writerow(["%.17g" % r, "%.17g" % r ** -2.0, "%.17g" % r ** -1.0])
with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
    codes = [
        cli.main(["classify", *sys.argv[3:]]),
        cli.main(["sweep", "--N", "3", "--m", "6", "--s", "1", "--k", "4",
                  "--vary", "p=3:7:2", "--vary", "q=0.5:3:2", "--jobs", "1",
                  "--output", tmp + "/atlas.csv"]),
        cli.main(["fit", tmp + "/synth.csv", "--window", "10", "1000"]),
    ]
record("classify, sweep, fit")
op = assemble_operator(build_grid(1.0, 10.0, 17), 3)
solve_linear(op, op.grid.r ** -4.0, 0.0)
record("solve_linear")
with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
    codes.append(cli.main(["solve", *sys.argv[3:], "--n", "257", "--output", tmp]))
record("solve")
print(json.dumps({"codes": codes, "loaded": loaded}))
"""


def test_scipy_loads_only_on_first_solve(tmp_path):
    # classify, a classify-only sweep and fit need numpy alone; the first
    # solve binds scipy's compiled LAPACK extension, never the scipy.linalg
    # package, and a whole solve (calibration, banded Newton, apply_H) binds
    # nothing more
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_GUARD, str(src), str(tmp_path), *BASE],
        capture_output=True, text=True, check=True,
    )
    report = json.loads(proc.stdout)
    assert report["codes"] == [0, 0, 0, 0]
    assert report["loaded"]["import"] == []
    assert report["loaded"]["classify, sweep, fit"] == []
    for step in ("solve_linear", "solve"):
        assert "scipy" in report["loaded"][step]
        assert not [m for m in report["loaded"][step] if m.split(".")[:2] == ["scipy", "linalg"]]


def test_console_script_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "gmext.cli", "classify", *BASE],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "EXISTS_MINIMAL_GROWTH" in proc.stdout
