"""Command-line front end: classify, solve, sweep, fit, probe.

Exit codes: 0 existence / success, 1 nonexistence, 2 inconclusive,
64 malformed configuration, 65 malformed CSV, 70 solver failure or any other
unexpected error.

Configuration comes from a flat key-value file (``--config``) overridden by
command-line flags; every ``solve`` run writes a JSON manifest recording all
effective settings, so ``solve --from-manifest run.json`` reproduces the
solution CSV byte for byte.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import itertools
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .coupled import solve_system, suggest_lambda, verify_box
from .errors import ConfigError, GmextError, WindowError
from .fitting import compare_profile, fit_design, fit_power, fit_power_log
from .grid import GridFunction, assemble_operator, build_grid
from .params import (
    AsymptoticProfile,
    ExponentSet,
    Outcome,
    ProfileKind,
    SourceEnvelope,
    SystemKind,
    classify,
)
from .probes import degeneration_probe

EXIT_EXISTS = 0
EXIT_NONEXISTENCE = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 64
EXIT_BAD_CSV = 65
EXIT_SOLVER = 70

_FLOAT_FMT = "%.17g"


# ---------------------------------------------------------------------------
# configuration plumbing

_PARAM_KEYS = ("N", "p", "q", "m", "s", "k", "lam", "kind")
_GRID_KEYS = ("r0", "R", "n")


def read_config_file(path: str) -> dict[str, str]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"unreadable config file {path}: {exc}") from exc
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, val = line.split("=", 1)
        out[key.strip()] = val.strip()
    return _check_keys(out, path)


def _collect(args: argparse.Namespace, defaults: dict) -> dict:
    """Merge defaults <- config file <- explicit flags."""
    merged = dict(defaults)
    if getattr(args, "config", None):
        merged.update(read_config_file(args.config))
    for key in set(merged) | set(_PARAM_KEYS) | set(_GRID_KEYS):
        val = getattr(args, key, None)
        if val is not None:
            merged[key] = val
    return merged


def params_from(cfg: dict) -> ExponentSet:
    try:
        kind = SystemKind(str(cfg.get("kind", "GM")))
        return ExponentSet(
            N=int(cfg["N"]), p=float(cfg["p"]), q=float(cfg["q"]),
            m=float(cfg["m"]), s=float(cfg["s"]), k=float(cfg["k"]),
            lam=float(cfg.get("lam", 0.0)), kind=kind,
        )
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"bad parameter configuration: {exc}") from exc


def _verdict_line(verdict) -> str:
    parts = [verdict.outcome.value, verdict.matched_condition]
    if verdict.exists:
        parts.append("u~" + verdict.u_profile.label())
        parts.append("v~" + verdict.v_profile.label())
    return " ".join(parts)


def _exit_for(verdict) -> int:
    if verdict.exists:
        return EXIT_EXISTS
    if verdict.outcome is Outcome.NONEXISTENCE:
        return EXIT_NONEXISTENCE
    return EXIT_INCONCLUSIVE


def _one_line(exc: Exception) -> str:
    return " ".join(f"{type(exc).__name__}: {exc}".split())


def _load_manifest(path: str, extract):
    """``extract`` applied to the JSON manifest at ``path``.  A missing or
    unreadable file, bad JSON or a manifest of the wrong shape is a
    ConfigError, so callers read their manifests before any work."""
    try:
        return extract(json.loads(Path(path).read_text(encoding="utf-8")))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"unreadable manifest {path}: {exc!r}") from exc


# ---------------------------------------------------------------------------
# classify

def cmd_classify(args: argparse.Namespace) -> int:
    cfg = _collect(args, {"lam": 0.0, "kind": "GM"})
    params = params_from(cfg)
    verdict = classify(params)
    print(_verdict_line(verdict))
    return _exit_for(verdict)


# ---------------------------------------------------------------------------
# solve

_SOLVE_DEFAULTS = {
    "lam": 0.0, "kind": "GM", "r0": 1.0, "R": 1e4, "n": 4097,
    "rho0": 1.0, "window_lo": 0.0, "window_hi": 0.0,
}


# settings that older manifests record and that are now fixed; a manifest
# or config file may still name them, but only at these values
_FIXED_KEYS = {"damping": 0.5, "polish": 2, "tol": 1e-11, "max_iter": 200}

_KNOWN_KEYS = {*_PARAM_KEYS, *_GRID_KEYS, *_SOLVE_DEFAULTS, *_FIXED_KEYS}


def _check_keys(cfg: dict, source: str) -> dict:
    """``cfg`` itself, or a ConfigError naming the keys no command reads."""
    unknown = sorted(set(cfg) - _KNOWN_KEYS)
    if unknown:
        raise ConfigError(f"{source}: unknown key(s) {', '.join(unknown)}")
    return cfg


def _solve_config(args: argparse.Namespace) -> dict:
    """Effective solve settings from flags and config file, or from a
    replayed manifest; both go through the same coercion."""
    if getattr(args, "from_manifest", None):
        cfg = _load_manifest(args.from_manifest, lambda m: dict(m["config"]))
        _check_keys(cfg, args.from_manifest)
    else:
        cfg = _collect(args, dict(_SOLVE_DEFAULTS))
    params = params_from(cfg)
    try:
        for key, fixed in _FIXED_KEYS.items():
            if key in cfg and float(cfg[key]) != fixed:
                raise ConfigError(f"{key} = {cfg[key]!r} is no longer supported "
                                  f"(fixed at {fixed})")
        return {
            "N": params.N, "p": params.p, "q": params.q, "m": params.m,
            "s": params.s, "k": params.k, "lam": params.lam, "kind": params.kind.value,
            "r0": float(cfg["r0"]), "R": float(cfg["R"]), "n": int(cfg["n"]),
            "rho0": float(cfg["rho0"]),
            "window_lo": float(cfg["window_lo"]), "window_hi": float(cfg["window_hi"]),
        }
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"bad solve configuration: {exc}") from exc


def run_solve(cfg: dict) -> tuple[dict, list[tuple], int]:
    """Execute one solve; returns (manifest, csv rows, exit code).

    A nonexistence configuration is refused with ConfigError by the
    calibration (default lam) or by ``solve_system`` (explicit lam); a
    window the fits would refuse is a ConfigError before any solving."""
    params = params_from(cfg)
    verdict = classify(params, float(cfg["r0"]))
    grid = build_grid(float(cfg["r0"]), float(cfg["R"]), int(cfg["n"]))
    op = assemble_operator(grid, params.N)
    env = SourceEnvelope.radial(float(cfg["rho0"]), params.k)
    window = (float(cfg["window_lo"]), float(cfg["window_hi"]))
    if window[0] <= 0 or window[1] <= 0:
        window = grid.default_window()
        cfg = dict(cfg, window_lo=window[0], window_hi=window[1])
    # short domains get a short default window; accept down to one decade here
    # (interactive fits keep the stricter default).  The fits need 8 nodes in
    # the window, so they refuse every window the certificates would.
    expect_log_v = verdict.exists and verdict.v_profile.kind is ProfileKind.POWER_LOG
    try:
        fit_design(grid, window, 1.0, grid.r0 if expect_log_v else None)
    except WindowError as exc:
        raise ConfigError(f"fitting window: {exc}") from exc
    schedule = None
    if params.lam <= 0.0:
        lam, schedule = suggest_lambda(params, env, op)
        params = params.with_lam(lam)
        cfg = dict(cfg, lam=lam)

    state = solve_system(params, env, op, window=window, schedule=schedule)

    fit_u = fit_power(state.u, window, min_decades=1.0)
    fit_v = (fit_power_log(state.v, window, grid.r0, min_decades=1.0) if expect_log_v
             else fit_power(state.v, window, min_decades=1.0))
    cmp_u = compare_profile(fit_u, verdict.u_profile)
    cmp_v = compare_profile(fit_v, verdict.v_profile)

    box = verify_box(state, state.schedule, verdict.u_profile, verdict.v_profile, window)

    rows = list(zip(grid.r, state.u.values, state.v.values, *state.node_residuals))

    manifest = {
        "tool": "gmext",
        "version": __version__,
        "config": {k: cfg[k] for k in sorted(cfg)},
        "verdict": {
            "outcome": verdict.outcome.value,
            "matched_condition": verdict.matched_condition,
            "u_profile": {"power": verdict.u_profile.power,
                          "log_power": verdict.u_profile.log_power},
            "v_profile": {"power": verdict.v_profile.power,
                          "log_power": verdict.v_profile.log_power},
        },
        "schedule": dataclasses.asdict(state.schedule),
        "fits": {
            "window": list(window),
            "u": {"power": fit_u.power, "log_power": fit_u.log_power,
                  "amplitude": fit_u.amplitude, "rms": fit_u.rms_residual,
                  "matches_prediction": cmp_u.passed},
            "v": {"power": fit_v.power, "log_power": fit_v.log_power,
                  "amplitude": fit_v.amplitude, "rms": fit_v.rms_residual,
                  "matches_prediction": cmp_v.passed},
        },
        "residuals": {k: state.diagnostics[k] for k in (
            "certificate_u", "certificate_v", "backward_error_u",
            "backward_error_v", "source_residual_u", "source_residual_v")},
        "box": {
            "ok": box.ok, "violations_u": box.violations_u,
            "violations_v": box.violations_v, "margin_u": box.margin_u,
            "margin_v": box.margin_v, "window": list(box.window),
            "n_checked": box.n_checked,
        },
        "newton": {
            "steps": state.diagnostics["newton_steps"],
            "converged": state.diagnostics["newton_converged"],
            "last_step": state.diagnostics["newton_last_step"],
            "fixed_point_gap": state.diagnostics["fixed_point_gap"],
            "inner_monotone_ok": state.diagnostics["inner_monotone_ok"],
        },
    }
    return manifest, rows, EXIT_EXISTS


def write_solution_csv(path: Path, rows: list[tuple]) -> None:
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["r", "u", "v", "residual_u", "residual_v"])
        for row in rows:
            writer.writerow([_FLOAT_FMT % x for x in row])


def _fitted_powers(manifest: dict) -> dict[str, float]:
    return {c: float(manifest["fits"][c]["power"]) for c in "uv"}


def cmd_solve(args: argparse.Namespace) -> int:
    cfg = _solve_config(args)
    ref_powers = _load_manifest(args.reference, _fitted_powers) if args.reference else None
    verdict = classify(params_from(cfg), cfg["r0"])
    if not verdict.exists:
        print(f"{_verdict_line(verdict)}: refusing to solve; "
              "use 'gmext probe' for nonexistence corroboration", file=sys.stderr)
        return _exit_for(verdict)
    manifest, rows, code = run_solve(cfg)

    if ref_powers is not None:
        manifest["truncation_check"] = {
            "reference": str(args.reference),
            "delta_u_power": abs(manifest["fits"]["u"]["power"] - ref_powers["u"]),
            "delta_v_power": abs(manifest["fits"]["v"]["power"] - ref_powers["v"]),
        }

    outdir = Path(args.output or ".")
    outdir.mkdir(parents=True, exist_ok=True)
    stem = args.name or "solution"
    csv_path = outdir / f"{stem}.csv"
    man_path = outdir / f"{stem}.manifest.json"
    write_solution_csv(csv_path, rows)
    man_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
    fits = manifest["fits"]
    print(f"wrote {csv_path} and {man_path}")
    print(f"fitted exponents: u {fits['u']['power']:+.4f} "
          f"v {fits['v']['power']:+.4f} (window {fits['window'][0]:g}..{fits['window'][1]:g})")
    print(f"certificates: u {manifest['residuals']['certificate_u']:.3e} "
          f"v {manifest['residuals']['certificate_v']:.3e}")
    if manifest.get("truncation_check"):
        tc = manifest["truncation_check"]
        print(f"truncation deltas vs reference: u {tc['delta_u_power']:.4f} "
              f"v {tc['delta_v_power']:.4f}")
    return code


# ---------------------------------------------------------------------------
# sweep

def _parse_range(spec: str) -> tuple[str, list[float]]:
    # "p=3:7:5" -> 5 evenly spaced values; "p=4" -> single value
    if "=" not in spec:
        raise ConfigError(f"range spec must look like p=lo:hi:count, got {spec!r}")
    key, body = spec.split("=", 1)
    key = key.strip()
    if key not in ("p", "q", "m", "s", "k", "lam"):
        raise ConfigError(f"cannot sweep over {key!r}")
    parts = body.split(":")
    if len(parts) == 1:
        return key, [float(parts[0])]
    if len(parts) != 3:
        raise ConfigError(f"range spec must be lo:hi:count, got {body!r}")
    lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    if count < 1:
        return key, []
    if count == 1:
        return key, [lo]
    return key, list(np.linspace(lo, hi, count))


_SWEEP_FIELDS = [
    "p", "q", "m", "s", "k", "outcome", "condition",
    "u_power", "u_log_power", "v_power", "v_log_power",
    "fit_u_power", "fit_v_power", "error",
]


def _sweep_cell(task: dict) -> dict:
    exponents = {key: task["cell"][key] for key in ("p", "q", "m", "s", "k")}
    row = dict({key: "" for key in _SWEEP_FIELDS}, **exponents)
    try:
        params = ExponentSet(N=task["N"], **exponents, lam=task["cell"].get("lam", 0.0),
                             kind=SystemKind(task["kind"]))
        verdict = classify(params)
        row["outcome"] = verdict.outcome.value
        row["condition"] = verdict.matched_condition
        if verdict.exists:
            row["u_power"] = verdict.u_profile.power
            row["u_log_power"] = verdict.u_profile.log_power
            row["v_power"] = verdict.v_profile.power
            row["v_log_power"] = verdict.v_profile.log_power
            if task["solve"]:
                cfg = dict(task["solve_cfg"], **exponents, N=params.N, lam=params.lam,
                           kind=params.kind.value)
                manifest, _, _ = run_solve(cfg)
                row["fit_u_power"] = manifest["fits"]["u"]["power"]
                row["fit_v_power"] = manifest["fits"]["v"]["power"]
    except GmextError as exc:
        row["error"] = getattr(exc, "tag", "ERROR")
    except Exception as exc:  # one cell's failure must not abort the sweep
        row["error"] = f"INTERNAL:{type(exc).__name__}"
        print(f"sweep cell {exponents}: internal error: {_one_line(exc)}", file=sys.stderr)
    return row


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _collect(args, {"lam": 0.0, "kind": "GM", "r0": 1.0, "R": 1e4,
                          "n": 2049, "rho0": 1.0})
    base = {"p": None, "q": None, "m": None, "s": None, "k": None}
    axes: dict[str, list[float]] = {}
    for spec in args.vary or []:
        key, values = _parse_range(spec)
        axes[key] = values
    for key in base:
        if key in axes:
            continue
        if cfg.get(key) is None:
            raise ConfigError(f"fixed value for {key} required (flag or config)")
        base[key] = float(cfg[key])

    jobs = args.jobs or int(os.environ.get("GM_EXT_JOBS", "1"))
    axis_keys = sorted(axes)
    grids = [axes[key] for key in axis_keys]
    cells = [dict(base, **dict(zip(axis_keys, combo))) for combo in itertools.product(*grids)]

    solve_cfg = dict(_SOLVE_DEFAULTS)
    solve_cfg.update({"r0": float(cfg["r0"]), "R": float(cfg["R"]),
                      "n": int(cfg["n"]), "rho0": float(cfg["rho0"])})
    tasks = [{"N": int(cfg["N"]), "kind": str(cfg["kind"]), "cell": cell,
              "solve": bool(args.solve), "solve_cfg": solve_cfg} for cell in cells]

    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_sweep_cell, tasks))
    else:
        rows = [_sweep_cell(task) for task in tasks]

    out = Path(args.output or "atlas.csv")
    with out.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=_SWEEP_FIELDS)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: (_FLOAT_FMT % v if isinstance(v, float) else v)
                             for k, v in row.items()})
    print(f"wrote {out} ({len(rows)} cells)")
    return 0


# ---------------------------------------------------------------------------
# fit

def _predicted_powers(manifest: dict) -> dict[str, tuple[float, float]]:
    """(power, log_power) of the predicted u and v profiles."""
    verdict = manifest["verdict"]
    return {c: (float(verdict[f"{c}_profile"]["power"]),
                float(verdict[f"{c}_profile"]["log_power"])) for c in "uv"}


def cmd_fit(args: argparse.Namespace) -> int:
    predicted_powers = _load_manifest(args.manifest, _predicted_powers) if args.manifest else None
    path = Path(args.csv)
    try:
        with path.open(encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            cols = {name: i for i, name in enumerate(header)}
            for need in ("r", "u", "v"):
                if need not in cols:
                    raise ConfigError(f"CSV lacks required column {need!r}")
            data = np.array([[float(x) for x in row] for row in reader])
        if data.size == 0:
            raise ConfigError("CSV has no data rows")
        if data.ndim != 2 or data.shape[1] != len(header):
            raise ConfigError("every row needs one value per header column")
        # the fits run on the log-uniform grid from r[0] to r[-1]; a CSV on
        # other radii would be fitted against the wrong r
        r = data[:, cols["r"]]
        grid = build_grid(r[0], r[-1], r.size)
        deviation = float(np.max(np.abs(r / grid.r - 1.0)))
        if not deviation <= 1e-9:
            raise ConfigError(f"radii are not log-uniform from r[0] to r[-1] "
                              f"(relative deviation {deviation:.2e})")
    except (OSError, ValueError, ConfigError, StopIteration) as exc:
        print(f"malformed CSV: {exc}", file=sys.stderr)
        return EXIT_BAD_CSV

    window = (args.window[0], args.window[1]) if args.window else grid.default_window()
    if window[0] < 10.0 * grid.r0 or window[1] > grid.R / 10.0:
        print("warning: window reaches into a boundary layer "
              "(first or last decade); fits may be contaminated", file=sys.stderr)

    code = 0
    for name in ("u", "v"):
        gf = GridFunction(grid, data[:, cols[name]])
        predicted = None
        expect_log = False
        if predicted_powers is not None:
            power, log_power = predicted_powers[name]
            expect_log = log_power != 0.0
            predicted = AsymptoticProfile(
                ProfileKind.POWER_LOG if expect_log else ProfileKind.PURE_POWER,
                power, log_power, grid.r0,
            )
        try:
            fit = (fit_power_log(gf, window, grid.r0, min_decades=1.0) if expect_log
                   else fit_power(gf, window, min_decades=1.0))
        except WindowError as exc:
            print(f"{name}: window error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        line = (f"{name}: power {fit.power:+.6f} log_power {fit.log_power:+.6f} "
                f"amplitude {fit.amplitude:.6g} rms {fit.rms_residual:.3e}")
        if predicted is not None:
            match = compare_profile(fit, predicted, args.tol_power, args.tol_log)
            line += f"  vs predicted {predicted.label()}: "
            line += "PASS" if match.passed else "FAIL"
            if not match.passed:
                code = 1
        print(line)
    return code


# ---------------------------------------------------------------------------
# probe

def cmd_probe(args: argparse.Namespace) -> int:
    cfg = _collect(args, {"lam": 0.0, "kind": "GM", "rho0": 1.0})
    params = params_from(cfg)
    env = SourceEnvelope.radial(float(cfg["rho0"]), params.k)
    R_seq = tuple(float(x) for x in (args.R_list or "1e2,1e3,1e4").split(","))
    report = degeneration_probe(params, env, R_seq)
    for line in report.lines():
        print(line)
    return 0


# ---------------------------------------------------------------------------
# parser

def _add_param_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--N", type=int)
    sub.add_argument("--p", type=float)
    sub.add_argument("--q", type=float)
    sub.add_argument("--m", type=float)
    sub.add_argument("--s", type=float)
    sub.add_argument("--k", type=float)
    sub.add_argument("--lambda", dest="lam", type=float)
    sub.add_argument("--kind", choices=[k.value for k in SystemKind])
    sub.add_argument("--config", help="flat key-value configuration file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gmext",
        description="Steady states of activator-inhibitor systems on exterior radial domains",
    )
    parser.add_argument("--version", action="version", version=f"gmext {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    sc = subs.add_parser("classify", help="regime verdict for one parameter set")
    _add_param_flags(sc)
    sc.set_defaults(func=cmd_classify)

    ss = subs.add_parser("solve", help="solve the coupled system, write CSV + manifest")
    _add_param_flags(ss)
    ss.add_argument("--r0", type=float)
    ss.add_argument("--R", type=float)
    ss.add_argument("--n", type=int)
    ss.add_argument("--rho0", type=float)
    ss.add_argument("--window-lo", dest="window_lo", type=float)
    ss.add_argument("--window-hi", dest="window_hi", type=float)
    ss.add_argument("--output", help="output directory (default: .)")
    ss.add_argument("--name", help="basename for CSV/manifest (default: solution)")
    ss.add_argument("--from-manifest", dest="from_manifest",
                    help="reproduce a run from its manifest")
    ss.add_argument("--reference", help="prior manifest for truncation-stability deltas")
    ss.set_defaults(func=cmd_solve)

    sw = subs.add_parser("sweep", help="grid-evaluate the classifier (and optionally solve)")
    _add_param_flags(sw)
    sw.add_argument("--vary", action="append",
                    help="axis spec key=lo:hi:count (repeatable)")
    sw.add_argument("--solve", action="store_true", help="also solve each existence cell")
    sw.add_argument("--r0", type=float)
    sw.add_argument("--R", type=float)
    sw.add_argument("--n", type=int)
    sw.add_argument("--rho0", type=float)
    sw.add_argument("--jobs", type=int, help="worker pool size (env GM_EXT_JOBS)")
    sw.add_argument("--output", help="atlas CSV path (default: atlas.csv)")
    sw.set_defaults(func=cmd_sweep)

    sf = subs.add_parser("fit", help="fit decay exponents of a solution CSV")
    sf.add_argument("csv")
    sf.add_argument("--window", nargs=2, type=float, metavar=("LO", "HI"))
    sf.add_argument("--manifest", help="manifest with predicted profiles")
    sf.add_argument("--tol-power", dest="tol_power", type=float, default=0.05)
    sf.add_argument("--tol-log", dest="tol_log", type=float, default=0.1)
    sf.set_defaults(func=cmd_fit)

    sp = subs.add_parser("probe", help="degeneration probe for nonexistence regimes")
    _add_param_flags(sp)
    sp.add_argument("--rho0", type=float)
    sp.add_argument("--R-list", dest="R_list",
                    help="comma-separated truncation radii (default 1e2,1e3,1e4)")
    sp.set_defaults(func=cmd_probe)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; remap to the documented code
        if exc.code not in (0, None):
            return EXIT_USAGE
        return 0
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except GmextError as exc:
        print(f"solver error [{exc.tag}]: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except Exception as exc:  # never a traceback, never the NONEXISTENCE code
        print(f"internal error: {_one_line(exc)}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    raise SystemExit(main())
