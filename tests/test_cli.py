import csv
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gmext.cli import main

BASE = ["--N", "3", "--p", "5", "--q", "1", "--m", "6", "--s", "1", "--k", "4"]


def run_cli(args):
    """In-process invocation; returns (exit_code, stdout, stderr)."""
    import io
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
                                  "not_json"])
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


def test_replay_of_retired_keys(solved_dir, tmp_path):
    # older manifests record damping, polish, tol and max_iter; only their
    # fixed values replay
    manifest = json.loads((solved_dir / "run1.manifest.json").read_text())
    manifest["config"].update(damping=0.5, polish=2, tol=1e-11, max_iter=200)
    code, _, err = _replay(json.dumps(manifest), tmp_path)
    assert code == 0, err
    replay = tmp_path / "replay.csv"
    assert replay.read_bytes() == (solved_dir / "run1.csv").read_bytes()
    replay.unlink()
    for key, value in (("damping", 0.7), ("polish", 3), ("tol", 1e-9), ("max_iter", 50)):
        edited = dict(manifest, config=dict(manifest["config"], **{key: value}))
        code, _, err = _replay(json.dumps(edited), tmp_path)
        assert code == 64
        assert "configuration error:" in err and key in err
        assert not replay.exists()


def test_removed_solve_flags_rejected(tmp_path):
    out = tmp_path / "out"
    for flag in ("--damping", "--polish", "--tol", "--max-iter"):
        code, _, _ = run_cli(["solve", *BASE, flag, "1", "--output", str(out)])
        assert code == 64
    # a config file naming a retired key at another value is refused, not ignored
    cfg = tmp_path / "run.cfg"
    cfg.write_text("tol = 1e-9\n")
    code, _, err = run_cli(["solve", *BASE, "--config", str(cfg), "--output", str(out)])
    assert code == 64
    assert "configuration error:" in err and "tol" in err
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
], ids=["empty_default", "short", "log_fit_at_r0", "infinite", "nan"])
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


def test_fit_malformed_csv_exit_65(tmp_path):
    bad = tmp_path / "bad.csv"
    # u = r^-1 exactly on radii off the log-uniform grid: fitted against the
    # rebuilt grid it would report a wrong power with a tiny rms
    perturbed = np.geomspace(1.0, 1e4, 1025)
    perturbed[512] *= 1.0 + 1e-6
    off_grid = ["r,u,v\n" + "".join("%.17g,%.17g,%.17g\n" % (x, 1 / x, 1 / x) for x in r)
                for r in (np.linspace(1.0, 1e4, 1025), perturbed)]
    # a non-number, rows shorter than the header, a single row, off-grid radii
    for text in ["r,u\n1.0,nope\n", "r,u,v\n1,2\n3,4\n", "r,u,v\n1,1,1\n", *off_grid]:
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
    ("p=abc", None),
    ("p=3:7:3", "abc"),
], ids=["fractional_count", "not_a_number", "bad_jobs_env"])
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
], ids=["sweep_no_N", "sweep_R", "sweep_p", "sweep_kind", "probe_R_list", "probe_R_nan",
        "probe_R_inf", "probe_R_repeated", "probe_rho0", "flag_p", "flag_N", "flag_n",
        "flag_kind", "flag_jobs", "probe_rho0_inf", "usage_value_like_a_flag",
        "usage_fit_window", "usage_unknown_flag"])
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
    axis = _solved_sweep_row(tmp_path, "--vary", "lam=1e-9")
    assert _solved_sweep_row(tmp_path, "--lambda", "1e-9") == axis
    assert _solved_sweep_row(tmp_path, "--config", str(cfg)) == axis
    assert _solved_sweep_row(tmp_path)["fit_u_power"] != axis["fit_u_power"]


def test_sweep_solve_honours_window(tmp_path):
    cfg = tmp_path / "window.cfg"
    cfg.write_text("window_lo = 20\nwindow_hi = 200\n")
    flags = _solved_sweep_row(tmp_path, "--window-lo", "20", "--window-hi", "200")
    assert _solved_sweep_row(tmp_path, "--config", str(cfg)) == flags
    assert _solved_sweep_row(tmp_path)["fit_v_power"] != flags["fit_v_power"]


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
print(json.dumps({"codes": codes, "loaded": loaded}))
"""


def test_scipy_loads_only_on_first_solve(tmp_path):
    # classify, a classify-only sweep and fit need numpy alone; the
    # tridiagonal kernel binds LAPACK on its first call
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_GUARD, str(src), str(tmp_path), *BASE],
        capture_output=True, text=True, check=True,
    )
    report = json.loads(proc.stdout)
    assert report["codes"] == [0, 0, 0]
    assert report["loaded"]["import"] == []
    assert report["loaded"]["classify, sweep, fit"] == []
    assert "scipy.linalg" in report["loaded"]["solve_linear"]


def test_console_script_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "gmext.cli", "classify", *BASE],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "EXISTS_MINIMAL_GROWTH" in proc.stdout
