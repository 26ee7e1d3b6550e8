"""Coupled solver for the full activator-inhibitor system on a truncated
exterior grid.

One application of the map H sends (u, v) to (Tu, Tv):

    -Lap (Tu) = f(u, v) + lam rho          (f the activator coupling)
    -Lap (Tv) = u^m (Tv)^-s                (monotone scalar solve)

with Neumann inner rows and outer Dirichlet values given as pins (by
default the box midpoint's on the predicted profiles).  The steady state is
a fixed point of H, i.e. a solution of the discrete system
L u = f(u, v) + lam rho, L v = u^m v^-s; Newton on that system (u and v
interleaved, so the Jacobian is a (2,2)-banded matrix) finds it, and one
final application of H certifies it as a fixed point.
Newton closes the truncation with the exact far-field row of
``grid.far_field`` in both components, R w'(R) + (N-2) w(R) = int_R^inf t f dt
with the tail of each source continued as the power law of
``grid.tail_power``, so its outer values are unknowns like the others and
no pin is chosen.  The certifying application of H is pinned at the Newton
state's outer nodes, and starts its monotone scalar solve from that state's
v, which already solves the inner problem at the same pin, so the drive
runs only its last stage (the image does not depend on v otherwise).
Newton's step count does not depend on the mesh, so it starts from the
same Newton on a coarse grid, and a step reuses the last LU factors of the
Jacobian while the state has moved little since they were computed.  A
Newton that ends at its step cap, on either grid, has no answer and ends
the solve.
The state is certified against the invariant box

    D r^-a <= u <= E r^-a,      F psi <= v <= G psi,

whose constants come from the explicit schedule once the barrier comparison
constants C3 < C4 have been calibrated on the grid itself: C3 and C4 are the
extreme ratios w/psi (and w/r^-a) of the three scalar reference problems that
the box argument compares against, shrunk/inflated by a safety margin.  The
two linear ones are the barrier potential ``scalar.barrier_Z``, which
continues its source past R by the same ``grid.tail_power`` law.  The
schedule also supplies the source-strength threshold, which is what keeps the
activator-inhibitor feedback contractive.
The coupling is f = u^p v^-q for GM.  MIXED is the same system with the
coupling turned over, f = v^q / u^p = u^-p v^q.  These powers of u and v
(``_coupling_powers``) are the one place the system kind enters: the
equations, Newton's Jacobian and the calibration's w_h all read them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    ConvergenceError,
    DivergedError,
    LambdaRangeError,
    NonintegrableSourceError,
)
from .grid import (
    GridFunction,
    RadialOperator,
    assemble_operator,
    backward_error,
    build_grid,
    factor_block,
    far_field,
    solve_linear,
    source_relative_residual,
    tail_power,
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
from .scalar import NonlinearitySpec, barrier_Z, solve_monotone

_TINY = 1e-300
_RANGE = (1e-30, 1e30)
# Newton stops once the largest nodewise relative step is below
# _NEWTON_TOL; reaching _NEWTON_CAP steps first is a ConvergenceError
_NEWTON_TOL = 1e-11
_NEWTON_CAP = 200
# relative widening of the calibrated ratio range on both sides
_CALIBRATION_MARGIN = 0.05
# step halvings a Newton step may take to keep the state positive
_HALVINGS = 30
# Newton keeps its Jacobian's factors until the relative steps taken with
# them sum past _REFACTOR_DRIFT
_REFACTOR_DRIFT = 1e-4
# Newton starts from its own solution on a grid of (n - 1) // _COARSE_RATIO + 1
# nodes, and at least _COARSE_MIN_NODES
_COARSE_RATIO = 16
_COARSE_MIN_NODES = 129


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
    # L u - rhs_u and L v - rhs_v at every node, the outer node's row being
    # the far-field row Newton solves; set by solve_system
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

    @property
    def ok(self) -> bool:
        return self.violations_u == 0 and self.violations_v == 0


def _check_source(params: ExponentSet, env: SourceEnvelope) -> None:
    """ConfigError unless the source decays at the parameters' rate k, from
    which the verdict, the calibration and the threshold are taken."""
    if env.k != params.k:
        raise ConfigError(f"the source decays like r^-{env.k:g}, "
                          f"but the parameters have k = {params.k:g}")


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
    problems -Lap w = psi, for w_k and w_h, need no solve: their decaying
    Neumann solution is the barrier potential Z of ``barrier_Z``, a
    quadrature of psi continued past R as its ``grid.tail_power`` law
    (exact for w_k's r^-k).  w_h's source is the activator equation's
    right-hand side on the box profiles at unit source strength, the
    coupling f(r^-a, psi) of ``_equations`` plus r^-k.  Both profiles are
    the verdict's ``AsymptoticProfile.values``, positive at every node, so
    the ratios are taken over every node of [r0, R/10]
    (``RadialGrid.window_mask``, so the node at R/10 counts on every grid;
    the outer decade is excluded as pin territory) and widened by 5% on both
    sides.  Neither lam nor the source envelope enters.
    """
    grid = op.grid
    verdict = classify(params, grid.r0)
    if not verdict.exists:
        raise ConfigError("calibration needs an existence-classified parameter set")
    r = grid.r
    pu, psi = verdict.u_profile.values(r), verdict.v_profile.values(r)

    alpha = -params.m * verdict.u_profile.power
    g = NonlinearitySpec.power(params.s)
    w_a = solve_monotone(op, r ** -alpha, g, outer="extrapolate").w.values

    source = r ** -params.k
    w_k = barrier_Z(grid, op.N, source).values
    _, rhs_u, _ = _equations(params.with_lam(1.0), source, pu, psi)
    w_h = barrier_Z(grid, op.N, rhs_u).values

    sel = grid.window_mask(grid.r0, grid.R / 10.0)
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
    """Threshold-based default source strength: fraction * lambda threshold,
    and the constant schedule at it.  The threshold does not depend on
    lambda, so it is read from the schedule at lambda = 0, which builds no
    box.  A threshold that leaves that product outside the positive finite
    doubles, or a schedule outside the doubles, is a LambdaRangeError."""
    C3, C4 = calibrate_barrier_constants(params, op)
    threshold = constant_schedule(params.with_lam(0.0), env, C3, C4).threshold
    lam = fraction * threshold
    if not 0.0 < lam < np.inf:
        raise LambdaRangeError(f"lambda* = {threshold:g} gives no positive finite lambda")
    return lam, constant_schedule(params.with_lam(lam), env, C3, C4)


def _coupling_powers(params: ExponentSet) -> tuple[float, float]:
    """The powers (a, b) of u and v in the activator coupling f = u^a v^b:
    (p, -q) for GM, and (-p, q) for MIXED, whose coupling v^q / u^p is GM's
    turned over."""
    a, b = params.p, -params.q
    return (-a, -b) if params.kind is SystemKind.MIXED else (a, b)


def _equations(params: ExponentSet, rho: np.ndarray, u: np.ndarray,
               v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The discrete equations L u = f(u, v) + lam rho, L v = u^m v^-s: the
    activator coupling f = u^a v^b (``_coupling_powers``) and both
    right-hand sides, as (f, rhs_u, rhs_v).  f is computed as
    u^a / v^-b, which for GM is u^p / v^q to the bit."""
    a, b = _coupling_powers(params)
    f = u ** a / v ** -b
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
    profiles).  The inner solve is warm-started from the state's v
    (``solve_monotone(start=v)``); its problem does not involve v, so the
    image Tv moves only by solver tolerance with the start, and a v that is
    no supersolution of it falls back to the drive from the barrier.  The
    image keeps the state's schedule and verdict; its ``diagnostics`` hold
    only this application's inner-solve flags, ``inner_monotone_ok`` and
    ``inner_sandwiched``.  A source whose decay is not ``params.k`` is a
    ConfigError.
    """
    _check_source(params, env)
    state.check_positive()
    grid = op.grid
    u, v = state.u.values, state.v.values
    if pins is None:
        start = initial_state(op, state.verdict, state.schedule)
        pins = (float(start.u.values[-1]), float(start.v.values[-1]))

    _, rhs_u, _ = _equations(params, env.rho(grid.r), u, v)
    Tu = solve_linear(op, rhs_u, pins[0])
    inner = solve_monotone(
        op, u ** params.m, NonlinearitySpec.power(params.s), outer=pins[1], start=v,
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
    """The box midpoint on the predicted profiles: sqrt(D E) and sqrt(F G)
    times the verdict's profiles (``AsymptoticProfile.values``, positive at
    every node)."""
    grid = op.grid
    u0 = np.sqrt(schedule.D * schedule.E) * verdict.u_profile.values(grid.r)
    v0 = np.sqrt(schedule.F * schedule.G) * verdict.v_profile.values(grid.r)
    return CoupledState(
        u=GridFunction(grid, u0), v=GridFunction(grid, v0),
        schedule=schedule, verdict=verdict,
    )


def _tau(op: RadialOperator, beta: float) -> float:
    """The far-field row's factor on the outer value of a source decaying
    like r^-beta past R, tau = 1 + kappa R^2 / (beta - 2) with kappa from
    ``grid.far_field``: the tail int_R^inf t f dt is f(R) R^2 / (beta - 2).
    A beta <= 2 (a divergent first moment) raises NonintegrableSourceError."""
    if beta <= 2.0:
        raise NonintegrableSourceError(f"source tail ~ r^-{beta:g}: divergent first moment")
    return 1.0 + far_field(op)[2] * op.grid.r[-1] ** 2 / (beta - 2.0)


def _certify(
    state: CoupledState, params: ExponentSet, env: SourceEnvelope, op: RadialOperator,
    window: tuple[float, float],
) -> None:
    """Store the node residuals of the discrete equations on ``state``, and
    their certificates in ``diagnostics``.

    The residuals are ``L w - rhs`` on the inner and interior rows.  On the
    outer node they are those of the far-field rows that ``_newton`` solves,
    ``grid.far_field``'s row minus the source f(R) tau(beta) (``_tau``, beta
    from ``grid.tail_power``; for lam rho, beta = k), and not of L's
    Dirichlet row, which would hold u(R) and v(R) themselves.  Each of
    these two rows' relative residual, its residual over the sum of its
    terms' magnitudes, is ``far_field_u`` and ``far_field_v``."""
    u, v = state.u.values, state.v.values
    r = op.grid.r
    rho = env.rho(r)
    f, rhs_u, rhs_v = _equations(params, rho, u, v)
    gamma_v = -state.verdict.v_profile.power
    w_u = params.k
    w_v = -params.m * state.verdict.u_profile.power - params.s * gamma_v
    state.node_residuals = (op.apply(u) - rhs_u, op.apply(v) - rhs_v)
    a_sub, a_diag, _ = far_field(op)
    # the far-field rows' sources, scaled as _newton scales them
    sources = (f[-1] * _tau(op, tail_power(r, f)) + params.lam * (rho[-1] * _tau(op, params.k)),
               rhs_v[-1] * _tau(op, tail_power(r, rhs_v)))
    for c, w, res, source in zip("uv", (u, v), state.node_residuals, sources):
        terms = np.array([a_sub * w[-2], a_diag * w[-1], -source])
        res[-1] = terms.sum()
        state.diagnostics[f"far_field_{c}"] = float(abs(res[-1]) / np.abs(terms).sum())
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
    u: np.ndarray, v: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, int, float, int]:
    """Newton on L u = f(u, v) + lam rho, L v = u^m v^-s from (u, v), whose
    outer rows are the exact far-field rows of ``grid.far_field``, until the
    largest nodewise relative step drops below ``_NEWTON_TOL``; returns the
    final (u, v), the number of steps, the last step and the number of
    factorizations.  A ``_NEWTON_CAP``-th step that ends at or above
    ``_NEWTON_TOL`` raises ConvergenceError, on whichever grid ``op`` has.

    The far-field tail int_R^inf t f dt of a source decaying like r^-beta
    is f(R) R^2 / (beta - 2), so the outer row scales the source's outer
    value by ``_tau``, 1 + kappa R^2 / (beta - 2).  For lam rho beta is k,
    which is exact; for f and for u^m v^-s it is their local power
    ``grid.tail_power``, taken afresh at every step and held fixed by the
    Jacobian.  A beta <= 2 (a divergent first moment) raises
    NonintegrableSourceError; a NaN beta leaves the residual non-finite,
    which raises DivergedError.  The Jacobian is factored afresh only when
    the relative steps taken since its last factorization sum past
    ``_REFACTOR_DRIFT``; otherwise the step solves with the kept factors (a
    simplified Newton step).  A step is halved until u > 0 and v > 0; a
    start or iterate outside ``_check_range``, a non-finite residual or
    Jacobian, a singular Jacobian or exhausted halving raise DivergedError."""
    _check_range(u, v)
    r = op.grid.r
    a_sub, a_diag, _ = far_field(op)
    # lam rho decays like r^-k exactly
    rho = env.rho(r)
    rho[-1] *= _tau(op, params.k)
    a, b = _coupling_powers(params)
    rhs = np.empty(2 * op.grid.n)
    factors, drift, count, step = None, np.inf, 0, np.inf
    for steps in range(1, _NEWTON_CAP + 1):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            f, rhs_u, g = _equations(params, rho, u, v)
            # the far-field rows' sources f(R) + kappa T; the Jacobian's
            # outer entries scale with them, at the lagged beta
            f[-1] *= _tau(op, tail_power(r, f))
            g[-1] *= _tau(op, tail_power(r, g))
            rhs[0::2] = rhs_u - op.apply(u)
            rhs[1::2] = g - op.apply(v)
            rhs[-2] = f[-1] + params.lam * rho[-1] - a_sub * u[-2] - a_diag * u[-1]
            rhs[-1] = g[-1] - a_sub * v[-2] - a_diag * v[-1]
        if not np.all(np.isfinite(rhs)):
            raise DivergedError("non-finite Newton residual")
        if drift > _REFACTOR_DRIFT:
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                # Jacobian diagonals: -df/du, -df/dv, -dg/du, -dg/dv
                duu = -a * f / u
                duv = -b * f / v
                dvu = -params.m * g / u
                dvv = params.s * g / v
                if not np.all(np.isfinite(duu + duv + dvu + dvv)):
                    raise DivergedError("non-finite Newton Jacobian")
            factors = factor_block(op, duu, duv, dvu, dvv)
            drift, count = 0.0, count + 1
        dx = factors.solve(rhs)
        t = 1.0
        for _ in range(_HALVINGS):
            u_new, v_new = u + t * dx[0::2], v + t * dx[1::2]
            if np.all(u_new > 0) and np.all(v_new > 0):
                break
            t *= 0.5
        else:
            raise DivergedError("step halving could not keep the Newton state positive")
        step = max(_relative_change(u_new, u), _relative_change(v_new, v))
        drift += step
        u, v = u_new, v_new
        _check_range(u, v)
        if step < _NEWTON_TOL:
            return u, v, steps, step, count
    raise ConvergenceError(f"Newton on the {op.grid.n}-node grid stopped at its cap of "
                           f"{_NEWTON_CAP} steps (last relative step {step:.2e})")


def solve_system(
    params: ExponentSet,
    env: SourceEnvelope,
    op: RadialOperator,
    window: tuple[float, float] | None = None,
    schedule: ConstantSchedule | None = None,
) -> CoupledState:
    """Newton on the discrete fixed-point equations closed by the exact
    far-field row, certified by one application of H.

    ``schedule`` is the constant schedule at ``params.lam`` (as returned by
    ``suggest_lambda``); without one, C3/C4 are calibrated on ``op`` and the
    schedule is built here.  Newton (``_newton``) runs on a ladder of grids
    over the same [r0, R]: a coarse grid of ``(n - 1) // _COARSE_RATIO + 1``
    nodes, at least ``_COARSE_MIN_NODES`` (none when that is not fewer than
    ``op``'s or ``assemble_operator`` refuses it), then ``op``'s grid.  The
    first rung starts from ``initial_state``'s box midpoint, each later one
    from the previous rung's solution interpolated linearly in xi in log u
    and log v.  Newton's outer rows are the far-field rows of
    ``grid.far_field``, so the outer values are solved for, not pinned; a
    source tail with a divergent first moment is a
    NonintegrableSourceError.  Newton stops when the largest relative step
    drops below 1e-11 (``_NEWTON_TOL``), and keeps the factors of its
    Jacobian while the relative steps taken with them sum to at most
    ``_REFACTOR_DRIFT``; one that reaches its cap of 200 steps
    (``_NEWTON_CAP``) on any rung raises ConvergenceError.  The stored state
    is the image of the Newton state under H pinned at its outer nodes, so
    it satisfies the discrete equations to solver accuracy.
    ``diagnostics["newton"]`` records the Newton steps on ``op``'s grid
    (``steps``; the state's ``iteration`` is one more, for H), those
    on the coarse grid (``coarse_steps``), the factorizations on ``op``'s
    grid (``factorizations``), its last relative step (``last_step``) and
    the relative gap between the Newton state and its image
    (``fixed_point_gap``).  The state carries the node residuals
    ``L u - rhs_u``, ``L v - rhs_v``, whose outer entries are those of the
    far-field rows (``_certify``), and, in ``diagnostics``, their
    certificates (``certificate_u``/``certificate_v``), backward errors,
    source-relative residuals and the far-field rows' relative residuals
    (``far_field_u``/``far_field_v``).  A source whose decay is not
    ``params.k`` is a ConfigError.
    """
    _check_source(params, env)
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
    if window is None:
        window = grid.default_window()

    # the grids Newton runs on, coarsest first
    ladder = [op]
    n_c = max((grid.n - 1) // _COARSE_RATIO + 1, _COARSE_MIN_NODES)
    if n_c < grid.n:
        try:
            ladder.insert(0, assemble_operator(build_grid(grid.r0, grid.R, n_c), op.N))
        except ConfigError:
            pass
    start = initial_state(ladder[0], verdict, schedule)
    u, v, coarse_steps = start.u.values, start.v.values, 0
    for i, level in enumerate(ladder):
        if i:
            # the previous rung's solution, linear in xi in log u and log v
            xi = ladder[i - 1].grid.xi
            u, v = (np.exp(np.interp(level.grid.xi, xi, np.log(w))) for w in (u, v))
            coarse_steps += steps
        u, v, steps, step, factorizations = _newton(params, env, level, u, v)
    state = CoupledState(u=GridFunction(grid, u), v=GridFunction(grid, v), schedule=schedule,
                         verdict=verdict, iteration=steps)
    image = apply_H(state, params, env, op, pins=(float(u[-1]), float(v[-1])))
    gap = max(_relative_change(image.u.values, u), _relative_change(image.v.values, v))

    _certify(image, params, env, op, window)
    image.diagnostics["newton"] = {
        "steps": steps, "coarse_steps": coarse_steps, "factorizations": factorizations,
        "last_step": float(step), "fixed_point_gap": gap,
    }
    return image


def verify_box(
    state: CoupledState,
    window: tuple[float, float] | None = None,
) -> BoxReport:
    """Nodewise check of the four box inequalities over the window (by
    default the grid's), with the bounds of the state's schedule on its
    verdict's profiles.

    Margins are the smallest relative slack to each bound (negative when
    violated); report-only, no exception for a violated bound.  A window
    holding no node is a ConfigError.
    """
    grid = state.u.grid
    if window is None:
        window = grid.default_window()
    mask = grid.window_mask(*window)
    if not np.any(mask):
        raise ConfigError("box window contains no grid nodes")
    pu = state.verdict.u_profile.values(grid.r)[mask]
    pv = state.verdict.v_profile.values(grid.r)[mask]
    u = state.u.values[mask]
    v = state.v.values[mask]
    lo_u, hi_u = state.schedule.D * pu, state.schedule.E * pu
    lo_v, hi_v = state.schedule.F * pv, state.schedule.G * pv
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
    )
