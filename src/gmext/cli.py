"""Command-line front end: classify, solve, sweep, fit, probe.

Exit codes: 0 existence / success, 1 nonexistence, 2 inconclusive,
64 malformed configuration, 65 malformed CSV, 70 solver failure or any other
unexpected error.

Each command's settings and their defaults are declared once, in
``_COMMAND_DEFAULTS``; every setting is a flag, which argparse takes as plain
text.  ``_settings`` is the one place that reads and converts them: defaults,
then a flat key-value file (``--config``), then the flags, each value
converted by one key-to-type table.  So a missing, unknown or ill-typed
setting exits 64 with one ``configuration error:`` line before any work,
whether it came from a flag, a config file or a replayed manifest.  The
parser's own usage errors (an unknown flag, a flag without its value) end
the same way.

Every ``solve`` run writes a JSON manifest recording all effective settings,
so ``solve --from-manifest run.json`` (which takes no other setting)
reproduces the solution CSV byte for byte.
``sweep --solve`` solves each existence cell at ``--lambda`` (or the config
file's ``lam``) when given, else at half the cell's lambda threshold.
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
_PARAM_DEFAULTS = {"lam": 0.0, "kind": SystemKind.GM}
_SOLVE_DEFAULTS = {**_PARAM_DEFAULTS, "r0": 1.0, "R": 1e4, "n": 4097, "rho0": 1.0,
                   "window_lo": 0.0, "window_hi": 0.0}
# every command's settings: the parameters (_PARAM_KEYS) and these, with
# their defaults; build_parser makes a flag of each, _settings converts it
_COMMAND_DEFAULTS = {
    "classify": _PARAM_DEFAULTS,
    "solve": _SOLVE_DEFAULTS,
    "sweep": dict(_SOLVE_DEFAULTS, n=2049),
    "probe": dict(_PARAM_DEFAULTS, rho0=1.0, R_list="1e2,1e3,1e4"),
}


def _whole(value) -> int:
    # int() alone would truncate a manifest's 1025.5 to 1025
    number = int(value)
    if number != float(value):
        raise ValueError(f"{value!r} is not a whole number")
    return number


def _radii(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in text.split(","))


# help of the setting flags whose name does not say what they take
_HELP = {"kind": "one of " + ", ".join(kind.value for kind in SystemKind),
         "R_list": "comma-separated truncation radii"}

# the type of every setting; a config file or manifest may set all but the
# flag-only R_list
_TYPES = {"N": _whole, "n": _whole, "kind": SystemKind, "R_list": _radii,
          **dict.fromkeys(("p", "q", "m", "s", "k", "lam", "r0", "R", "rho0",
                           "window_lo", "window_hi"), float)}

# settings that older manifests record and that are now fixed; a manifest
# or config file may still name them, but only at these values
_RETIRED = {"damping": 0.5, "polish": 2, "tol": 1e-11, "max_iter": 200}


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
    return out


def _settings(args: argparse.Namespace, optional=()) -> dict:
    """Typed settings of ``args.command``: its defaults <- config file <-
    flags, or the config of the manifest that ``--from-manifest`` replays,
    which names every setting itself and admits no other.  Unknown keys,
    retired keys off their fixed value, missing settings (but ``optional``
    ones) and values of the wrong type are ConfigErrors, raised before any
    work."""
    defaults = _COMMAND_DEFAULTS[args.command]
    flags = {key: value for key in (*_PARAM_KEYS, *defaults)
             if (value := getattr(args, key)) is not None}
    source = getattr(args, "from_manifest", None)
    if source:
        extra = sorted(flags) + (["config"] if args.config else [])
        if extra:
            raise ConfigError(f"--from-manifest replays the manifest's settings; "
                              f"drop {', '.join(extra)}")
        merged = loaded = _load_manifest(source, lambda m: dict(m["config"]))
    else:
        source = getattr(args, "config", None)
        loaded = read_config_file(source) if source else {}
        merged = {**defaults, **loaded, **flags}
    unknown = sorted(loaded.keys() - (_TYPES.keys() - {"R_list"}) - _RETIRED.keys())
    if unknown:
        raise ConfigError(f"{source}: unknown key(s) {', '.join(unknown)}")
    missing = sorted({*_PARAM_KEYS, *defaults} - merged.keys() - set(optional))
    if missing:
        raise ConfigError(f"missing setting(s) {', '.join(missing)} (flag or config)")
    typed = {}
    try:
        for key, value in merged.items():
            if key not in _RETIRED:
                typed[key] = _TYPES[key](value)
            elif float(value) != _RETIRED[key]:
                raise ConfigError(f"{key} = {value!r} is no longer supported "
                                  f"(fixed at {_RETIRED[key]})")
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad value {value!r} for {key}: {exc}") from exc
    return typed


def params_from(cfg: dict) -> ExponentSet:
    return ExponentSet(**{key: cfg[key] for key in _PARAM_KEYS})


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
    verdict = classify(params_from(_settings(args)))
    print(_verdict_line(verdict))
    return _exit_for(verdict)


# ---------------------------------------------------------------------------
# solve

def _solve_config(args: argparse.Namespace) -> dict:
    """Effective solve settings from flags and config file, or from a
    replayed manifest."""
    return _settings(args)


def _log_r0(grid, predicted: AsymptoticProfile | None) -> float | None:
    """r0 of the log-corrected fit when ``predicted`` has a log power, else
    None: the fit's one decision, shared by the window check."""
    if predicted is not None and predicted.kind is ProfileKind.POWER_LOG:
        return grid.r0
    return None


def _fit_profile(gf: GridFunction, window, predicted: AsymptoticProfile | None):
    """Fit of ``gf`` over ``window`` and its comparison with ``predicted``
    (None without a prediction)."""
    r0 = _log_r0(gf.grid, predicted)
    fit = (fit_power(gf, window, min_decades=1.0) if r0 is None
           else fit_power_log(gf, window, r0, min_decades=1.0))
    return fit, None if predicted is None else compare_profile(fit, predicted)


def run_solve(cfg: dict) -> tuple[dict, list[tuple], int]:
    """Execute one solve of typed settings; returns (manifest, csv rows,
    exit code).

    A nonexistence configuration is refused with ConfigError by the
    calibration (default lam) or by ``solve_system`` (explicit lam); a
    window the fits would refuse is a ConfigError before any solving."""
    params = params_from(cfg)
    verdict = classify(params, cfg["r0"])
    grid = build_grid(cfg["r0"], cfg["R"], cfg["n"])
    op = assemble_operator(grid, params.N)
    env = SourceEnvelope.radial(cfg["rho0"], params.k)
    window = (cfg["window_lo"], cfg["window_hi"])
    if window[0] <= 0 or window[1] <= 0:
        window = grid.default_window()
    # short domains get a short default window, so the command line's fits
    # (here and in ``gmext fit``, both through _fit_profile) accept down to
    # one decade; fit_power's own default stays at MIN_WINDOW_DECADES.  The
    # fits need 8 nodes in the window, so they refuse every window the
    # certificates would.
    try:
        fit_design(grid, window, 1.0, _log_r0(grid, verdict.v_profile))
    except WindowError as exc:
        raise ConfigError(f"fitting window: {exc}") from exc
    schedule = None
    if params.lam <= 0.0:
        lam, schedule = suggest_lambda(params, env, op)
        params = params.with_lam(lam)

    state = solve_system(params, env, op, window=window, schedule=schedule)

    verdict_block = {"outcome": verdict.outcome.value,
                     "matched_condition": verdict.matched_condition}
    fits_block = {"window": list(window)}
    for c in "uv":
        profile = getattr(verdict, f"{c}_profile")
        fit, match = _fit_profile(getattr(state, c), window, profile)
        verdict_block[f"{c}_profile"] = {"power": profile.power,
                                         "log_power": profile.log_power}
        fits_block[c] = {"power": fit.power, "log_power": fit.log_power,
                         "amplitude": fit.amplitude, "rms": fit.rms_residual,
                         "matches_prediction": match.passed}

    box = verify_box(state, window)

    rows = list(zip(grid.r, state.u.values, state.v.values, *state.node_residuals))

    manifest = {
        "tool": "gmext",
        "version": __version__,
        "config": dict(cfg, kind=params.kind.value, lam=params.lam,
                       window_lo=window[0], window_hi=window[1]),
        "verdict": verdict_block,
        "schedule": dataclasses.asdict(state.schedule),
        "fits": fits_block,
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
    if key not in _PARAM_KEYS or _TYPES[key] is not float:
        raise ConfigError(f"cannot sweep over {key!r}")
    parts = body.split(":")
    if len(parts) not in (1, 3):
        raise ConfigError(f"range spec must be lo:hi:count, got {body!r}")
    try:
        if len(parts) == 1:
            return key, [float(parts[0])]
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"bad range spec {spec!r}: {exc}") from exc
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


def _sweep_cell(cfg: dict, solve: bool) -> dict:
    exponents = {key: cfg[key] for key in ("p", "q", "m", "s", "k")}
    row = dict({key: "" for key in _SWEEP_FIELDS}, **exponents)
    try:
        verdict = classify(params_from(cfg))
        row["outcome"] = verdict.outcome.value
        row["condition"] = verdict.matched_condition
        if verdict.exists:
            row["u_power"] = verdict.u_profile.power
            row["u_log_power"] = verdict.u_profile.log_power
            row["v_power"] = verdict.v_profile.power
            row["v_log_power"] = verdict.v_profile.log_power
            if solve:
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
    axes = dict(_parse_range(spec) for spec in args.vary or [])
    # settings are coerced once; each cell overlays only its axis values
    base = _settings(args, optional=axes)
    try:
        jobs = int(args.jobs or os.environ.get("GM_EXT_JOBS", "1"))
    except ValueError as exc:
        raise ConfigError(f"--jobs or GM_EXT_JOBS must be an integer: {exc}") from exc
    axis_keys = sorted(axes)
    combos = list(itertools.product(*(axes[key] for key in axis_keys)))
    cells = (dict(base, **dict(zip(axis_keys, combo))) for combo in combos)
    solve = itertools.repeat(args.solve)

    if jobs > 1 and len(combos) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_sweep_cell, cells, solve))
    else:
        rows = list(map(_sweep_cell, cells, solve))

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
    # both fits run before anything is printed, so a window they refuse
    # ends in its one error line
    results = []
    for name in ("u", "v"):
        predicted = None
        if predicted_powers is not None:
            power, log_power = predicted_powers[name]
            predicted = AsymptoticProfile(
                ProfileKind.POWER_LOG if log_power != 0.0 else ProfileKind.PURE_POWER,
                power, log_power, grid.r0,
            )
        try:
            fit, match = _fit_profile(GridFunction(grid, data[:, cols[name]]), window,
                                      predicted)
        except WindowError as exc:
            print(f"{name}: window error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        results.append((name, predicted, fit, match))
    if window[0] < 10.0 * grid.r0 or window[1] > grid.R / 10.0:
        print("warning: window reaches into a boundary layer "
              "(first or last decade); fits may be contaminated", file=sys.stderr)

    code = 0
    for name, predicted, fit, match in results:
        line = (f"{name}: power {fit.power:+.6f} log_power {fit.log_power:+.6f} "
                f"amplitude {fit.amplitude:.6g} rms {fit.rms_residual:.3e}")
        if match is not None:
            line += f"  vs predicted {predicted.label()}: "
            line += "PASS" if match.passed else "FAIL"
            if not match.passed:
                code = 1
        print(line)
    return code


# ---------------------------------------------------------------------------
# probe

def cmd_probe(args: argparse.Namespace) -> int:
    cfg = _settings(args)
    params = params_from(cfg)
    env = SourceEnvelope.radial(cfg["rho0"], params.k)
    report = degeneration_probe(params, env, cfg["R_list"])
    for line in report.lines():
        print(line)
    return 0


# ---------------------------------------------------------------------------
# parser

class _Parser(argparse.ArgumentParser):
    """An argparse parser whose usage errors (an unknown flag, a flag
    without its value) are ConfigErrors, so they end in one
    ``configuration error:`` line; its subcommand parsers are of this class
    too."""

    def error(self, message: str):
        raise ConfigError(message)


def _command(subs, name: str, func, summary: str) -> argparse.ArgumentParser:
    """Subcommand ``name`` with a flag for each of its settings, taken as
    text for ``_settings`` to convert, and ``--config``."""
    sub = subs.add_parser(name, help=summary)
    for key in dict.fromkeys((*_PARAM_KEYS, *_COMMAND_DEFAULTS[name])):
        sub.add_argument("--" + ("lambda" if key == "lam" else key.replace("_", "-")),
                         dest=key, help=_HELP.get(key))
    sub.add_argument("--config", help="flat key-value configuration file")
    sub.set_defaults(func=func)
    return sub


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gmext",
        description="Steady states of activator-inhibitor systems on exterior radial domains",
    )
    parser.add_argument("--version", action="version", version=f"gmext {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    _command(subs, "classify", cmd_classify, "regime verdict for one parameter set")

    ss = _command(subs, "solve", cmd_solve, "solve the coupled system, write CSV + manifest")
    ss.add_argument("--output", help="output directory (default: .)")
    ss.add_argument("--name", help="basename for CSV/manifest (default: solution)")
    ss.add_argument("--from-manifest", dest="from_manifest",
                    help="reproduce a run from its manifest")
    ss.add_argument("--reference", help="prior manifest for truncation-stability deltas")

    sw = _command(subs, "sweep", cmd_sweep,
                  "grid-evaluate the classifier (and optionally solve)")
    sw.add_argument("--vary", action="append",
                    help="axis spec key=lo:hi:count (repeatable)")
    sw.add_argument("--solve", action="store_true", help="also solve each existence cell")
    sw.add_argument("--jobs", help="worker pool size (env GM_EXT_JOBS)")
    sw.add_argument("--output", help="atlas CSV path (default: atlas.csv)")

    sf = subs.add_parser("fit", help="fit decay exponents of a solution CSV")
    sf.add_argument("csv")
    sf.add_argument("--window", nargs=2, type=float, metavar=("LO", "HI"))
    sf.add_argument("--manifest", help="manifest with predicted profiles")
    sf.set_defaults(func=cmd_fit)

    _command(subs, "probe", cmd_probe, "degeneration probe for nonexistence regimes")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        # only --help and --version exit: usage errors raise ConfigError
        return exc.code or 0
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
