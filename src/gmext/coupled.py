"""Coupled solver for the full activator-inhibitor system on a truncated
exterior grid.

One application of the map H sends (u, v) to (Tu, Tv):

    -Lap (Tu) = u^p / v^q + lam rho        (GM; MIXED uses v^q / u^p + lam rho)
    -Lap (Tv) = u^m (Tv)^-s                (monotone scalar solve)

with Neumann inner rows and outer Dirichlet values pinned at the predicted
profiles.  The steady state is a fixed point of H, i.e. a solution of the
discrete system L u = f(u, v) + lam rho, L v = u^m v^-s; Newton on that
system (u and v interleaved, so the Jacobian is a (2,2)-banded matrix)
finds it, and one final application of H certifies it as a fixed point.
The state is certified against the invariant box

    D r^-a <= u <= E r^-a,      F psi <= v <= G psi,

whose constants come from the explicit schedule once the barrier comparison
constants C3 < C4 have been calibrated on the grid itself: C3 and C4 are the
extreme ratios w/psi (and w/r^-a) of the three scalar reference problems that
the box argument compares against, shrunk/inflated by a safety margin.  The
schedule also supplies the source-strength threshold, which is what keeps the
activator-inhibitor feedback contractive.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, DivergedError
from .grid import (
    GridFunction,
    RadialOperator,
    backward_error,
    solve_block,
    solve_linear,
    source_relative_residual,
    weighted_residual,
)
from .params import (
    ConstantSchedule,
    ExponentSet,
    RegimeVerdict,
    SourceEnvelope,
    SystemKind,
    classify,
    constant_schedule,
)
from .scalar import NonlinearitySpec, solve_monotone, _extrapolated_pin

_TINY = 1e-300
_RANGE = (1e-30, 1e30)
# outer re-pinnings after the first Newton phase
_POLISH_ROUNDS = 2
# a Newton phase stops once the largest nodewise relative step is below
# _NEWTON_TOL, or after _NEWTON_CAP steps
_NEWTON_TOL = 1e-11
_NEWTON_CAP = 200
# relative widening of the calibrated ratio range on both sides
_CALIBRATION_MARGIN = 0.05
# step halvings a Newton step may take to keep the state positive
_HALVINGS = 30


@dataclass
class CoupledState:
    """A coupled iterate with the verdict and the constant schedule it was
    built from: the schedule's box midpoints are ``apply_H``'s default pins,
    and the schedule and the verdict's profiles are the box ``verify_box``
    checks."""

    u: GridFunction
    v: GridFunction
    schedule: ConstantSchedule
    verdict: RegimeVerdict
    iteration: int = 0
    # L u - rhs_u and L v - rhs_v at every node, set by solve_system
    node_residuals: tuple[np.ndarray, np.ndarray] | None = None
    diagnostics: dict = field(default_factory=dict)

    def check_positive(self) -> None:
        _check_range(self.u.values, self.v.values)


def _check_range(u: np.ndarray, v: np.ndarray) -> None:
    """DivergedError unless u > 0 and v > 0 off the Dirichlet node and both
    stay inside ``_RANGE``."""
    if np.any(u <= 0) or np.any(v[:-1] <= 0):
        raise DivergedError("state lost positivity")
    hi = max(float(np.max(u)), float(np.max(v)))
    lo = min(float(np.min(u[:-1])), float(np.min(v[:-1])))
    if hi > _RANGE[1] or lo < _RANGE[0]:
        raise DivergedError(f"state left the admissible range: [{lo:.2e}, {hi:.2e}]")


@dataclass(frozen=True)
class BoxReport:
    window: tuple[float, float]
    n_checked: int
    violations_u: int
    violations_v: int
    margin_u: float
    margin_v: float
    violation_radii_u: tuple[float, ...] = ()
    violation_radii_v: tuple[float, ...] = ()

    @property
    def ok(self) -> bool:
        return self.violations_u == 0 and self.violations_v == 0


def activator_decay(verdict: RegimeVerdict) -> float:
    if verdict.u_profile is None:
        raise ConfigError("verdict carries no activator profile")
    return -verdict.u_profile.power


def calibrate_barrier_constants(
    params: ExponentSet,
    op: RadialOperator,
) -> tuple[float, float]:
    """Extreme solution/profile ratios of the three scalar reference problems.

    The exponents are classified at the grid's r0 here; a nonexistence
    verdict is a ConfigError.  The problems are solved on the operator's own
    grid.  The nonlinear w_a problem takes extrapolated outer pins
    (``solve_monotone(outer="extrapolate")``, whose ``scalar._repin`` loop
    ends at its round cap, not at a self-consistent pin).  The two linear
    problems w_k and w_h take ``solve_monotone``'s default barrier pin: for
    g == 1 that is the decaying solution's value Z(R) from ``barrier_Z``
    (exact for a power-law source, as w_k's is), and the solve is one
    tridiagonal solve.  The ratios are taken over [r0, R/10] (the outer
    decade is excluded as pin territory) and widened by 5% on both sides.
    Neither lam nor the source envelope enters.
    """
    grid = op.grid
    verdict = classify(params, grid.r0)
    if not verdict.exists:
        raise ConfigError("calibration needs an existence-classified parameter set")
    a_u = activator_decay(verdict)
    psi = verdict.v_profile.values(grid.r)
    r = grid.r

    alpha = params.m * a_u
    g = NonlinearitySpec.power(params.s)
    w_a = solve_monotone(op, r ** -alpha, g, outer="extrapolate").w.values

    w_k = solve_monotone(op, r ** -params.k, NonlinearitySpec()).w.values
    psi_safe = np.where(psi > 0, psi, np.inf)
    if params.kind is SystemKind.MIXED:
        coupling_env = psi_safe ** params.q * r ** (params.p * a_u)
    else:
        coupling_env = r ** (-params.p * a_u) * psi_safe ** -params.q
    w_h = solve_monotone(op, coupling_env + r ** -params.k, NonlinearitySpec()).w.values

    sel = (r <= grid.R / 10.0) & (psi > 0)
    pu = r ** -a_u
    ra = w_a[sel] / psi[sel]
    rk = w_k[sel] / pu[sel]
    rh = w_h[sel] / pu[sel]
    C3 = float(min(ra.min(), rk.min()) * (1.0 - _CALIBRATION_MARGIN))
    C4 = float(max(ra.max(), rk.max(), rh.max()) * (1.0 + _CALIBRATION_MARGIN))
    if not (0 < C3 < C4):
        raise ConfigError("calibration produced an invalid constant pair")
    return C3, C4


def suggest_lambda(
    params: ExponentSet,
    env: SourceEnvelope,
    op: RadialOperator,
    fraction: float = 0.5,
) -> tuple[float, ConstantSchedule]:
    """Threshold-based default source strength: fraction * lambda threshold."""
    C3, C4 = calibrate_barrier_constants(params, op)
    probe = constant_schedule(params.with_lam(1.0), env, C3, C4)
    lam = fraction * probe.threshold
    return lam, constant_schedule(params.with_lam(lam), env, C3, C4)


def _equations(params: ExponentSet, rho: np.ndarray, u: np.ndarray,
               v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The discrete equations L u = f(u, v) + lam rho, L v = u^m v^-s: the
    activator coupling f and both right-hand sides, as (f, rhs_u, rhs_v)."""
    if params.kind is SystemKind.MIXED:
        f = v ** params.q / u ** params.p
    else:
        f = u ** params.p / v ** params.q
    return f, f + params.lam * rho, u ** params.m * v ** -params.s


def apply_H(
    state: CoupledState,
    params: ExponentSet,
    env: SourceEnvelope,
    op: RadialOperator,
    pins: tuple[float, float] | None = None,
) -> CoupledState:
    """One application of the fixed-point map.

    Outer pins default to the outer node of ``initial_state``'s box
    midpoint (geometric means of the schedule's bounds on the verdict's
    profiles).  The image keeps the state's schedule and verdict; its
    ``diagnostics`` hold only this application's inner-solve flags,
    ``inner_monotone_ok`` and ``inner_sandwiched``.
    """
    state.check_positive()
    grid = op.grid
    u, v = state.u.values, state.v.values
    if pins is None:
        start = initial_state(op, state.verdict, state.schedule)
        pins = (float(start.u.values[-1]), float(start.v.values[-1]))

    _, rhs_u, _ = _equations(params, env.rho(grid.r), u, v)
    Tu = solve_linear(op, rhs_u, pins[0])
    inner = solve_monotone(
        op, u ** params.m, NonlinearitySpec.power(params.s), outer=pins[1],
    )
    new = CoupledState(
        u=Tu, v=inner.w, schedule=state.schedule, verdict=state.verdict,
        iteration=state.iteration + 1,
        diagnostics={"inner_monotone_ok": inner.monotone_ok,
                     "inner_sandwiched": inner.sandwiched},
    )
    new.check_positive()
    return new


def initial_state(
    op: RadialOperator,
    verdict: RegimeVerdict,
    schedule: ConstantSchedule,
) -> CoupledState:
    """The box midpoint on the predicted profiles."""
    grid = op.grid
    psi = np.maximum(verdict.v_profile.values(grid.r), _TINY)
    u0 = np.sqrt(schedule.D * schedule.E) * grid.r ** -activator_decay(verdict)
    v0 = np.sqrt(schedule.F * schedule.G) * psi
    return CoupledState(
        u=GridFunction(grid, u0), v=GridFunction(grid, v0),
        schedule=schedule, verdict=verdict,
    )


def _certify(
    state: CoupledState, params: ExponentSet, env: SourceEnvelope, op: RadialOperator,
    window: tuple[float, float],
) -> None:
    """Store the node residuals of the discrete equations on ``state``, and
    their certificates in ``diagnostics``."""
    u, v = state.u.values, state.v.values
    _, rhs_u, rhs_v = _equations(params, env.rho(op.grid.r), u, v)
    gamma_v = -state.verdict.v_profile.power
    w_u = params.k
    w_v = params.m * activator_decay(state.verdict) - params.s * gamma_v
    state.node_residuals = (op.apply(u) - rhs_u, op.apply(v) - rhs_v)
    state.diagnostics.update({
        "certificate_u": weighted_residual(op, u, rhs_u, w_u, window),
        "certificate_v": weighted_residual(op, v, rhs_v, w_v, window),
        "source_residual_u": source_relative_residual(op, u, rhs_u, w_u, window),
        "source_residual_v": source_relative_residual(op, v, rhs_v, w_v, window),
        "backward_error_u": backward_error(op, u, rhs_u),
        "backward_error_v": backward_error(op, v, rhs_v),
    })


def _relative_change(new: np.ndarray, old: np.ndarray) -> float:
    return float(np.max(np.abs(new - old) / np.maximum(old, _TINY)))


def _newton(
    params: ExponentSet, env: SourceEnvelope, op: RadialOperator,
    u: np.ndarray, v: np.ndarray, pins: tuple[float, float],
) -> tuple[np.ndarray, np.ndarray, int, float]:
    """Newton on L u = f(u, v) + lam rho, L v = u^m v^-s from (u, v) with the
    outer values pinned at ``pins``, until the largest nodewise relative step
    drops below ``_NEWTON_TOL`` or ``_NEWTON_CAP`` steps are spent; returns
    the final (u, v), the number of steps and the last step.  A step is
    halved until u > 0 and v > 0 off the Dirichlet node; a start or iterate
    outside ``_check_range``, a non-finite residual, a singular Jacobian or
    exhausted halving raise DivergedError."""
    _check_range(u, v)
    rho = env.rho(op.grid.r)
    sign = -1.0 if params.kind is SystemKind.MIXED else 1.0
    rhs = np.empty(2 * op.grid.n)
    step = np.inf
    for steps in range(1, _NEWTON_CAP + 1):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            f, rhs_u, g = _equations(params, rho, u, v)
            rhs[0::2] = rhs_u - op.apply(u)
            rhs[1::2] = g - op.apply(v)
            # Jacobian diagonals: -df/du, -df/dv, -dg/du, -dg/dv
            duu = -sign * params.p * f / u
            duv = sign * params.q * f / v
            dvu = -params.m * g / u
            dvv = params.s * g / v
        rhs[-2] = pins[0] - u[-1]
        rhs[-1] = pins[1] - v[-1]
        if not (np.all(np.isfinite(rhs)) and np.all(np.isfinite(duu + duv + dvu + dvv))):
            raise DivergedError("non-finite Newton residual")
        dx = solve_block(op, duu, duv, dvu, dvv, rhs)
        du, dv = dx[0::2], dx[1::2]
        t = 1.0
        for _ in range(_HALVINGS):
            u_new, v_new = u + t * du, v + t * dv
            if np.all(u_new > 0) and np.all(v_new[:-1] > 0):
                break
            t *= 0.5
        else:
            raise DivergedError("step halving could not keep the Newton state positive")
        step = max(_relative_change(u_new, u), _relative_change(v_new, v))
        u, v = u_new, v_new
        _check_range(u, v)
        if step < _NEWTON_TOL:
            break
    return u, v, steps, step


def solve_system(
    params: ExponentSet,
    env: SourceEnvelope,
    op: RadialOperator,
    window: tuple[float, float] | None = None,
    schedule: ConstantSchedule | None = None,
) -> CoupledState:
    """Newton on the discrete fixed-point equations, then a self-pinned
    polish, certified by one application of H.

    ``schedule`` is the constant schedule at ``params.lam`` (as returned by
    ``suggest_lambda``); without one, C3/C4 are calibrated on ``op`` and the
    schedule is built here.  Newton starts from ``initial_state``'s box
    midpoint, pinned at its outer node; the polish then twice re-pins both
    outer values from the solution's own outer power law, removing the O(1)
    amplitude mismatch the fixed pins leave at the truncation radius.  Each
    of the three Newton phases works on the (u, v) arrays and stops when the
    largest relative step drops below 1e-11 or after 200 steps
    (``_NEWTON_TOL``, ``_NEWTON_CAP``).  The stored state is the image of
    the Newton state under H at the final pins, so it satisfies the discrete
    equations to solver accuracy; the relative gap between the two is
    recorded as ``fixed_point_gap``.  The state carries the node residuals
    ``L u - rhs_u``, ``L v - rhs_v`` and, in ``diagnostics``, their
    certificates (``certificate_u``/``certificate_v``), backward errors and
    source-relative residuals.
    """
    grid = op.grid
    verdict = classify(params, grid.r0)
    if not verdict.exists:
        raise ConfigError(
            f"solve_system needs an existence regime, got {verdict.outcome.value} "
            f"({verdict.matched_condition}); use the degeneration probe instead"
        )
    if not params.lam > 0:
        raise ConfigError("solve_system needs lam > 0 (try suggest_lambda)")
    if schedule is None:
        # the box machinery applies verbatim in all three existence regimes:
        # the threshold algebra only needs the calibrated comparison
        # constants taken against the regime's own profiles
        C3, C4 = calibrate_barrier_constants(params, op)
        schedule = constant_schedule(params, env, C3, C4)
    elif schedule.lam != params.lam:
        raise ConfigError(
            f"schedule was built for lam = {schedule.lam!r}, not {params.lam!r}"
        )
    state = initial_state(op, verdict, schedule)
    if window is None:
        window = grid.default_window()

    u, v, steps, converged = state.u.values, state.v.values, 0, True
    pins = (float(u[-1]), float(v[-1]))
    for phase in range(1 + _POLISH_ROUNDS):
        if phase:
            pins = (_extrapolated_pin(grid, u), _extrapolated_pin(grid, v))
        u, v, taken, step = _newton(params, env, op, u, v, pins)
        steps += taken
        converged = converged and step < _NEWTON_TOL
    state = replace(state, u=GridFunction(grid, u), v=GridFunction(grid, v), iteration=steps)
    image = apply_H(state, params, env, op, pins=pins)
    gap = max(_relative_change(image.u.values, state.u.values),
              _relative_change(image.v.values, state.v.values))

    _certify(image, params, env, op, window)
    image.diagnostics["newton_steps"] = state.iteration
    image.diagnostics["newton_converged"] = bool(converged)
    image.diagnostics["newton_last_step"] = float(step)
    image.diagnostics["fixed_point_gap"] = gap
    return image


def verify_box(
    state: CoupledState,
    window: tuple[float, float] | None = None,
) -> BoxReport:
    """Nodewise check of the four box inequalities over the window (by
    default the grid's), with the bounds of the state's schedule on its
    verdict's profiles.

    Margins are the smallest relative slack to each bound (negative when
    violated); report-only, no exception.
    """
    grid = state.u.grid
    if window is None:
        window = grid.default_window()
    mask = grid.window_mask(*window)
    pu = state.verdict.u_profile.values(grid.r)[mask]
    pv = state.verdict.v_profile.values(grid.r)[mask]
    u = state.u.values[mask]
    v = state.v.values[mask]
    lo_u, hi_u = state.schedule.D * pu, state.schedule.E * pu
    lo_v, hi_v = state.schedule.F * pv, state.schedule.G * pv
    r_win = grid.r[mask]
    bad_u = (u < lo_u) | (u > hi_u)
    bad_v = (v < lo_v) | (v > hi_v)
    margin_u = float(min(np.min(u / lo_u - 1.0), np.min(hi_u / u - 1.0)))
    margin_v = float(min(np.min(v / np.maximum(lo_v, _TINY) - 1.0),
                         np.min(hi_v / np.maximum(v, _TINY) - 1.0)))
    return BoxReport(
        window=(float(window[0]), float(window[1])),
        n_checked=int(np.count_nonzero(mask)),
        violations_u=int(np.count_nonzero(bad_u)),
        violations_v=int(np.count_nonzero(bad_v)),
        margin_u=margin_u, margin_v=margin_v,
        violation_radii_u=tuple(float(x) for x in r_win[bad_u][:32]),
        violation_radii_v=tuple(float(x) for x in r_win[bad_v][:32]),
    )
