"""The benchmark's workloads: inputs drawn from a seed, one callable per
operation, and the check each operation's output must pass.

Every operation goes through a public entry point of gmext, the way a user
runs it: ``cli.main`` for ``gmext sweep``, ``cli.run_solve`` for ``gmext
solve`` (configured by the same command-line parser), and ``solve_monotone``
or ``degeneration_probe`` for the scalar problem of demo 02.  The entry points
are module-level names here so that the tracer can wrap them from outside.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from gmext import (
    ExponentSet,
    NonlinearitySpec,
    SourceEnvelope,
    SystemKind,
    assemble_operator,
    build_grid,
)
from gmext.cli import _solve_config, build_parser, main, run_solve
from gmext.probes import degeneration_probe
from gmext.scalar import solve_monotone

HERE = Path(__file__).resolve().parent
ATLAS_CELLS = HERE / "atlas_cells.json"

# Acceptance threshold of the coupled residual certificates and of the scalar
# backward error.
CERT_MAX = 1e-8

# λ ≈ ½λ* for the MIN-i baseline, passed explicitly so that `refine` never
# runs suggest_lambda.
REFINE_LAMBDA = 1.98e-5


@dataclass(frozen=True)
class Op:
    """One operation: ``call`` runs it, ``check`` returns the reason its
    output is wrong (None when it is right), and ``power_error`` reads the
    accuracy of a correct output, where there is one.  ``expect_fail`` names
    the error tag of a failure known at the seed commit; any other failure
    is unexpected and makes the run incorrect."""

    label: str
    call: Callable[[], object]
    check: Callable[[object], str | None]
    power_error: Callable[[object], float] | None = None
    expect_fail: str | None = None


# ---------------------------------------------------------------------------
# output checks


def _finite(*values) -> bool:
    return all(np.all(np.isfinite(np.asarray(v, dtype=float))) for v in values)


def check_coupled(out) -> str | None:
    manifest, rows, _code = out
    res = manifest["residuals"]
    if not _finite(rows, list(res.values())):
        return "non-finite output"
    if max(res["certificate_u"], res["certificate_v"]) > CERT_MAX:
        return "certificate above %g" % CERT_MAX
    if manifest["box"] is None or not manifest["box"]["ok"]:
        return "box check failed"
    for c in "uv":
        if not manifest["fits"][c]["matches_prediction"]:
            return f"{c} fit does not match the prediction"
    return None


def coupled_power_error(out) -> float:
    """Largest |fitted - predicted| decay exponent of one coupled solve."""
    manifest = out[0]
    return max(abs(manifest["fits"][c]["power"] - manifest["verdict"][f"{c}_profile"]["power"])
               for c in "uv")


def check_scalar(res) -> str | None:
    if not _finite(res.w.values, res.backward_error):
        return "non-finite output"
    if res.backward_error > CERT_MAX:
        return "backward error above %g" % CERT_MAX
    if not res.monotone_ok:
        return "monotone stages not monotone"
    if not res.sandwiched:
        return "solution leaves its barriers"
    return None


def check_probe(report) -> str | None:
    if any(row.flag for row in report.rows):
        return "probe row flagged: " + ",".join(row.flag for row in report.rows if row.flag)
    if not _finite([(row.floor_abs, row.peak) for row in report.rows]):
        return "non-finite output"
    if not report.floor_abs_increasing:
        return "no degeneration diagnosed"
    return None


def atlas_histogram(csv_path: Path) -> Counter:
    with csv_path.open(newline="", encoding="utf-8") as fh:
        return Counter(f"{row['outcome']} {row['condition']}" for row in csv.DictReader(fh))


def check_atlas(expected: dict, csv_path: Path):
    def check(code) -> str | None:
        if code != 0:
            return f"sweep exited with {code}"
        got = atlas_histogram(csv_path)
        if got != Counter(expected):
            return f"histogram differs from the recorded one: {dict(got)}"
        return None
    return check


# ---------------------------------------------------------------------------
# workloads


def _quiet(fn, *args):
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args)


def atlas(seed: int, workdir: Path, toy: bool = False) -> list[Op]:
    """One op is one classify-only ``gmext sweep`` pass over a (p, q, m)
    lattice at N=3, s=1, k=4.  The seed draws the lattice from the recorded
    catalogue; each entry carries the outcome/condition histogram that
    the seed commit produced on it."""
    catalogue = json.loads(ATLAS_CELLS.read_text(encoding="utf-8"))
    entry = catalogue["toy"] if toy else random.Random(seed).choice(catalogue["lattices"])
    csv_path = workdir / "atlas.csv"
    argv = ["sweep", "--N", "3", "--s", "1", "--k", "4", "--jobs", "1", "--output", str(csv_path)]
    for spec in entry["vary"]:
        argv += ["--vary", spec]
    return [Op(" ".join(entry["vary"]), lambda: _quiet(main, argv),
               check_atlas(entry["histogram"], csv_path))]


def _solve_cfg(argv: list[str]) -> dict:
    """The effective configuration of ``gmext solve <argv>``."""
    return _solve_config(build_parser().parse_args(["solve", *argv]))


def _params_argv(N, p, q, m, s, k, kind="GM") -> list[str]:
    return ["--N", str(N), "--p", repr(p), "--q", repr(q), "--m", repr(m),
            "--s", repr(s), "--k", repr(k), "--kind", kind]


def _grid_argv(r0, R, n, window) -> list[str]:
    return ["--r0", repr(r0), "--R", repr(R), "--n", str(n),
            "--window-lo", repr(window[0]), "--window-hi", repr(window[1])]


# The five coupled instances of the test suite (tests/cases.py), one per
# existence branch plus the k=3.5 truncation case, and a sentinel cell.
# The sentinel fails with DIVERGED in about 0.07 s: the absolute _RANGE floor
# (1e-30) in CoupledState.check_positive rejects its tiny-amplitude state
# (minimum about 1.6e-36).  It stays in the suite so that a fix shows as a
# higher ok_frac.
SUITE = [
    ("MIN_I", (3, 5, 1, 6, 1, 4), "GM", (1.0, 1e4, 4097), (10.0, 1e3)),
    ("MIN_III", (3, 6, 2, 3, 1, 4), "GM", (1.0, 1e4, 4097), (10.0, 1e3)),
    ("FAST_N5", (5, 4, 0.5, 6, 1, 3.5), "GM", (1.0, 1e4, 4097), (10.0, 1e3)),
    ("MIXED", (3, 1, 4.5, 5, 1, 4), "MIXED", (1.0, 1e4, 4097), (10.0, 1e3)),
    ("FROM_K35", (3, 4, 1.5, 3, 1, 3.5), "GM", (1.0, 1e5, 5121), (100.0, 1e4)),
    ("SENTINEL", (3, 6, 1.5, 6, 1, 4), "GM", (1.0, 1e4, 4097), (10.0, 1e3)),
]


def _coupled_op(label: str, argv: list[str], expect_fail=None) -> Op:
    cfg = _solve_cfg(argv)
    return Op(label, lambda: run_solve(cfg), check_coupled, coupled_power_error, expect_fail)


def solve_suite(seed: int, workdir: Path, toy: bool = False) -> list[Op]:
    """One op is one ``gmext solve`` with λ at its default (suggest_lambda)."""
    ops = []
    for label, (N, p, q, m, s, k), kind, (r0, R, n), window in SUITE:
        argv = _params_argv(N, p, q, m, s, k, kind) + _grid_argv(r0, R, 257 if toy else n, window)
        ops.append(_coupled_op(label, argv, "DIVERGED" if label == "SENTINEL" else None))
    return ops


def refine(seed: int, workdir: Path, toy: bool = False) -> list[Op]:
    """The MIN-i baseline on the convergence ladder, λ passed explicitly."""
    sizes = (129, 257) if toy else (2049, 4097, 8193, 16385)
    return [
        _coupled_op(f"MIN_I n={n}", _params_argv(3, 5, 1, 6, 1, 4)
                    + _grid_argv(1.0, 1e4, n, (10.0, 1e3))
                    + ["--lambda", repr(REFINE_LAMBDA)])
        for n in sizes
    ]


# Nonexistence tags the degeneration probe supports, one cell each.
PROBE_CELLS = [
    ("Thm2.1(ii)", ExponentSet(N=3, p=5, q=1, m=2, s=1, k=4)),
    ("Thm7.1(i)", ExponentSet(N=3, p=2, q=1, m=3, s=1, k=4, kind=SystemKind.NEG_ACTIVATOR)),
    ("Thm7.1(ii2)", ExponentSet(N=3, p=1, q=1.5, m=5, s=1, k=4, kind=SystemKind.MIXED)),
]


def scalar_decay(seed: int, workdir: Path, toy: bool = False) -> list[Op]:
    """Demo 02's singular scalar problem -Lap w = r^-α w^-s with the
    extrapolated outer pin, plus degeneration probes on growing truncations."""
    ops = []
    for n in (257,) if toy else (4097, 16385):
        op = assemble_operator(build_grid(1.0, 1e4, n), 3)
        for alpha in (2.5, 3.0, 3.5, 4.0, 6.0):
            for s in (0.5, 1.0, 2.0):
                psi, g = op.grid.r ** -alpha, NonlinearitySpec.power(s)
                ops.append(Op(
                    f"alpha={alpha} s={s} n={n}",
                    lambda op=op, psi=psi, g=g: solve_monotone(op, psi, g, outer="extrapolate"),
                    check_scalar,
                ))
    R_seq, per_decade = ((1e2, 1e3), 64) if toy else ((1e2, 1e3, 1e4, 1e5), 512)
    for tag, params in PROBE_CELLS:
        env = SourceEnvelope.radial(1.0, params.k)
        ops.append(Op(
            f"probe {tag}",
            lambda params=params, env=env: degeneration_probe(
                params, env, R_seq, nodes_per_decade=per_decade),
            check_probe,
        ))
    return ops


WORKLOADS = {
    "atlas": atlas,
    "solve_suite": solve_suite,
    "refine": refine,
    "scalar_decay": scalar_decay,
}
