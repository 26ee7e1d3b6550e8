"""Checkable nonexistence obstructions and their numerical corroboration.

The closed-form criteria test whether the inequality -Lap w >= A(r) g(w) can
have positive decaying solutions when A(t) = t^-alpha and g(t) = t^-s.  The
degeneration probe complements them: in a regime classified as nonexistent it
re-solves the obstructed scalar problem on growing truncations and reports
how the solution's superharmonic profile degenerates.  Corroboration only;
nonexistence on an unbounded domain is not falsifiable on a truncated grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ProbeUnsupportedError, ConfigError
from .grid import assemble_operator, grid_for_decades
from .params import ExponentSet, Outcome, SourceEnvelope, classify
from .scalar import NonlinearitySpec, solve_monotone

# the probe window stays this many decades clear of both truncation ends
_WINDOW_MARGIN_DECADES = 0.5


def integral_criterion(alpha: float) -> bool:
    """True when int_1^inf t * t^-alpha dt diverges, i.e. alpha <= 2.

    Divergence obstructs every positive decaying solution of
    -Lap w >= A(r) g(w) with g bounded away from zero near 0 (N >= 3).
    """
    return alpha <= 2.0


def criterion_2d(alpha: float, s: float) -> bool:
    """Planar obstruction: liminf of e^(2t) A(e^t) g(c(t+1)) positive for all c.

    For A(t) = t^-alpha, g(t) = t^-s the liminf is that of
    e^((2-alpha)t) (t+1)^-s, positive exactly when alpha < 2, or alpha = 2
    with s = 0.
    """
    if s < 0:
        raise ConfigError("s must be nonnegative")
    if alpha < 2.0:
        return True
    return alpha == 2.0 and s == 0.0


@dataclass(frozen=True)
class ProbeRow:
    R: float
    n: int
    window: tuple[float, float]
    floor_abs: float
    peak: float
    floor_rel: float
    flag: str = ""


@dataclass(frozen=True)
class ProbeReport:
    params: ExponentSet
    equation: str
    rows: tuple[ProbeRow, ...]
    diagnosis: str

    @property
    def floor_rel_decreasing(self) -> bool:
        vals = [row.floor_rel for row in self.rows]
        return all(b < a for a, b in zip(vals, vals[1:]))

    @property
    def floor_abs_increasing(self) -> bool:
        vals = [row.floor_abs for row in self.rows]
        return all(b > a for a, b in zip(vals, vals[1:]))

    def lines(self) -> list[str]:
        out = [f"degeneration probe: {self.equation}"]
        for row in self.rows:
            out.append(
                f"  R={row.R:<10g} floor={row.floor_abs:.6e}  peak={row.peak:.6e}  "
                f"floor/peak={row.floor_rel:.6e}{('  ' + row.flag) if row.flag else ''}"
            )
        out.append(f"  diagnosis: {self.diagnosis}")
        return out


def _probe_target(params: ExponentSet) -> tuple[float, float, str]:
    """Pick the obstructed scalar inequality for the classified regime.

    Returns (alpha, s_eff, label) for the model problem
    -Lap w = r^-alpha w^-s_eff.  The source amplitude is normalized to one:
    only the shape of the degeneration matters.
    """
    verdict = classify(params)
    if verdict.outcome is not Outcome.NONEXISTENCE:
        raise ConfigError(
            f"degeneration probe requires a NONEXISTENCE verdict, got "
            f"{verdict.outcome.value} ({verdict.matched_condition})"
        )
    if params.N == 2:
        raise ProbeUnsupportedError(
            "planar regimes are classified analytically only (no radial solver for N = 2)"
        )
    tag = verdict.matched_condition
    Nm2 = params.N - 2.0
    if tag == "Thm2.1(ii)":
        # inhibitor equation under the activator's superharmonic floor
        return params.m * Nm2, params.s, "inhibitor: -Lap w = r^-%g w^-%g" % (params.m * Nm2, params.s)
    if tag == "Thm7.1(i)":
        # activator equation with the inhibitor bounded above
        return 0.0, params.p, "activator: -Lap w = w^-%g" % params.p
    if tag == "Thm7.1(ii2)":
        if params.m * Nm2 <= 2.0:
            return params.m * Nm2, params.s, "inhibitor: -Lap w = r^-%g w^-%g" % (params.m * Nm2, params.s)
        return params.q * Nm2, params.p, "activator: -Lap w = r^-%g w^-%g" % (params.q * Nm2, params.p)
    raise ProbeUnsupportedError(
        f"no scalar probe implemented for regime {tag}; "
        "the obstruction there is not of integral type"
    )


def degeneration_probe(
    params: ExponentSet,
    env: SourceEnvelope,
    R_sequence: tuple[float, ...] = (1e2, 1e3, 1e4),
    r0: float = 1.0,
    nodes_per_decade: int = 512,
) -> ProbeReport:
    """Solve the obstructed scalar problem on each truncation and record the
    superharmonic profile w * r^(N-2) over the fitting window, which keeps
    half a decade clear of r0 and of R.

    For integral-type obstructions the truncated solutions grow without bound
    as R does, so the absolute floor min(w r^(N-2)) rises while the profile
    flattens ever more slowly toward the outer boundary: the normalized floor
    (window minimum over window maximum) decays toward zero.  An existence
    regime would instead hold both quantities steady under R-refinement.
    """
    alpha, s_eff, label = _probe_target(params)
    if len(R_sequence) < 2:
        raise ConfigError("R_sequence needs at least two truncation radii")
    radii = np.asarray(R_sequence, dtype=float)
    if not (np.all(np.isfinite(radii)) and np.all(np.diff(radii, prepend=r0) > 0)):
        raise ConfigError("R_sequence must be finite, above r0 and strictly increasing")
    rows = []
    g = NonlinearitySpec.power(s_eff)
    for R in R_sequence:
        grid = grid_for_decades(r0, R, nodes_per_decade)
        op = assemble_operator(grid, params.N)
        lo = r0 * 10.0 ** _WINDOW_MARGIN_DECADES
        hi = R * 10.0 ** -_WINDOW_MARGIN_DECADES
        flag = ""
        try:
            res = solve_monotone(
                op, grid.r ** -alpha, g, outer="zero", truncate_tail=True,
            )
            prof = res.w.values * grid.r ** (params.N - 2.0)
            mask = grid.window_mask(lo, hi)
            floor = float(np.min(prof[mask]))
            peak = float(np.max(prof[mask]))
        except Exception as exc:  # solver degeneration is itself a finding
            flag = getattr(exc, "tag", type(exc).__name__)
            floor, peak = float("nan"), float("nan")
        rows.append(ProbeRow(
            R=float(R), n=grid.n, window=(lo, hi),
            floor_abs=floor, peak=peak,
            floor_rel=floor / peak if peak and peak > 0 else float("nan"),
            flag=flag,
        ))
    report = ProbeReport(params=params, equation=label, rows=tuple(rows), diagnosis="")
    if any(row.flag for row in rows):
        diag = "solver degenerated on at least one truncation"
    elif report.floor_abs_increasing and report.floor_rel_decreasing:
        diag = ("profile grows with the truncation while flattening: "
                "no decaying limit (floor/peak -> 0)")
    elif report.floor_abs_increasing:
        diag = "profile grows without bound across truncations: decay impossible"
    else:
        diag = "no clear degeneration trend; inspect the rows"
    return ProbeReport(params=params, equation=label, rows=tuple(rows), diagnosis=diag)
