"""Decay-exponent estimation by least squares in log-log coordinates.

A fitted exponent over a window is the numerical stand-in for the two-sided
bound relation "w is trapped between constant multiples of the profile": the
bounds force the log-log slope toward the profile's exponent once the window
sits clear of both boundary layers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CollinearWindowError, WindowError
from .grid import GridFunction, RadialGrid
from .params import AsymptoticProfile

MIN_WINDOW_DECADES = 1.5
# largest errors in the power and in the log power that ``compare_profile``
# passes
TOL_POWER = 0.05
TOL_LOG = 0.1


@dataclass(frozen=True)
class FitResult:
    power: float
    log_power: float
    amplitude: float
    rms_residual: float


def fit_design(grid: RadialGrid, window: tuple[float, float],
               min_decades: float = MIN_WINDOW_DECADES, r0: float | None = None):
    """Node mask and least-squares design matrix of a fit over ``window``:
    columns 1 and ln r, plus ln ln(r/r0) for the log-corrected fit (``r0``
    given).  Raises WindowError for a window that cannot carry the fit:
    empty or reversed, shorter than ``min_decades``, fewer than 8 nodes, or
    (log-corrected) starting at or below r0 or too short to separate ln r
    from ln ln r.  It reads the grid only, so a window can be checked before
    anything is solved."""
    lo, hi = window
    if not 0 < lo < hi < np.inf:
        raise WindowError(f"invalid window ({lo}, {hi})")
    if np.log10(hi / lo) < min_decades - 1e-12:
        raise WindowError(
            f"window ({lo:g}, {hi:g}) spans {np.log10(hi/lo):.2f} decades; "
            f"need at least {min_decades}"
        )
    mask = grid.window_mask(lo, hi)
    if np.count_nonzero(mask) < 8:
        raise WindowError("window contains fewer than 8 grid nodes")
    r = grid.r[mask]
    if r0 is None:
        return mask, np.vstack([np.ones_like(r), np.log(r)]).T
    if lo <= r0:
        raise WindowError("log-corrected fit needs the window to start beyond r0")
    A = np.vstack([np.ones_like(r), np.log(r), np.log(np.log(r / r0))]).T
    # guard against a window too short to separate ln r from ln ln r
    scaled = A / np.linalg.norm(A, axis=0)
    if np.linalg.svd(scaled, compute_uv=False)[-1] < 1e-7:
        raise CollinearWindowError(
            "window too narrow to separate the power from the log correction"
        )
    return mask, A


def _least_squares(w: GridFunction, mask: np.ndarray, A: np.ndarray) -> FitResult:
    vals = w.values[mask]
    # NaN fails both comparisons, so it is refused with inf
    if not np.all((vals > 0) & (vals < np.inf)):
        raise WindowError("fit requires positive finite values on the window")
    y = np.log(vals)
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    return FitResult(
        power=float(coef[1]),
        log_power=float(coef[2]) if coef.size == 3 else 0.0,
        amplitude=float(np.exp(coef[0])),
        rms_residual=float(np.sqrt(np.mean(resid ** 2))),
    )


def fit_power(w: GridFunction, window: tuple[float, float],
              min_decades: float = MIN_WINDOW_DECADES) -> FitResult:
    """Least-squares line in (ln r, ln w); log_power is reported as 0.

    ``min_decades`` guards against windows too short for a stable slope;
    callers fitting clean closed forms may lower it explicitly.
    """
    return _least_squares(w, *fit_design(w.grid, window, min_decades))


def fit_power_log(w: GridFunction, window: tuple[float, float], r0: float,
                  min_decades: float = MIN_WINDOW_DECADES) -> FitResult:
    """Two-regressor fit ln w ~ ln A + e ln r + f ln ln(r/r0)."""
    return _least_squares(w, *fit_design(w.grid, window, min_decades, r0))


def compare_profile(fit: FitResult, predicted: AsymptoticProfile) -> bool:
    """PASS iff the power sits within ``TOL_POWER`` and the log exponent
    within ``TOL_LOG`` of the prediction."""
    return bool(abs(fit.power - predicted.power) <= TOL_POWER
                and abs(fit.log_power - predicted.log_power) <= TOL_LOG)
