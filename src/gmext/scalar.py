"""Barrier construction and monotone iteration for the scalar problem

    -Lap w = Psi(r) * g(w),   w > 0,   w'(r0) = 0,   w -> 0 at infinity,

with the singular g(t) = t^-s, s > 0.  The solver mirrors the constructive
existence argument (Sattinger 1972); the linear problems of the calibration
(g == 1) are the potential Z of step 1 itself and do not come here:

1.  An explicit upper barrier.  Z(r) is the exact decaying Neumann solution
    of -Lap Z = A with A the radial envelope of Psi, computed by composite
    quadrature in xi with an analytic tail beyond the truncation, where A
    continues as the power law ``grid.tail_power`` reads near R;
    W then solves the separable ODE int_0^W dt/g(t) = Z, which gives
    W = ((1+s) Z)^(1/(1+s)).  W is a supersolution for every shift
    delta >= 0.

2.  A certified lower barrier.  One application of the solution map at the
    unshifted nonlinearity, V = L^-1(Psi g(W)), is a subsolution lying below
    every solution (the map is order-reversing).

3.  A delta-shifted monotone drive.  Starting from W, lagged sweeps solve
    (L + M) w_new = Psi g(w + delta) + M w with the nodewise shift
    M = Psi |g'(V + delta)|, the classical choice that provably maps
    supersolutions to supersolutions, so each stage's iterate sequence is
    nodewise nonincreasing inside [V, W].  delta runs down a geometric
    schedule to 0; at each decrease the iterate is transported by
    w <- min(w + (delta_old - delta_new), W), which preserves the
    supersolution property exactly, so monotonicity restarts cleanly per
    stage.  (A globally monotone sequence across decreasing shifts cannot
    exist: the shifted solutions increase as delta decreases.)  Monotone
    iteration converges from any supersolution, not only the barrier
    (Sattinger 1972), so a caller holding a solution of the same problem may
    pass it as a warm start: the drive then runs only the unshifted stage
    from it, and falls back to the drive from W when a sweep rises above
    its iterate (the start was no supersolution).

4.  A safeguarded Newton finish drives the componentwise backward error to
    1e-14, guarded by positivity and a gross-divergence cap (the barrier
    bracket itself carries O(h^2) slack, so it is not used as a hard clip
    here).  The operator's conditioning grows with n: at n = 8193 a stop at
    1e-11 can leave the answer 6e-6 off, while 1e-14 keeps it near 1e-11.
    Every Newton run of this module stops at this one target, and every
    drive, warm or cold, ends in this one finish.

With the extrapolated outer pin, the rounds of the pin loop only choose the
pin, so they run the Newton of step 4 alone, to the same target, each from
the previous round's solution (the first from W).  On a concave,
inverse-positive problem like this one Newton converges from there
(Ortega-Rheinboldt), and it lands within 1e-8 relative of the drive's answer
at the same pin.  The reported solve then runs steps 1-4 once, at the chosen
pin, with the last round's solution as the warm start of step 3.

Schedule entries are interpreted relative to max(W) so the drive is invariant
under the amplitude scaling w -> c w, Psi -> c^(1+s) Psi.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    ConfigError,
    ConvergenceError,
    DegenerateSolveError,
    NonintegrableSourceError,
)
from .grid import GridFunction, RadialGrid, RadialOperator, backward_error, tail_power, tail_window

# shift schedule of the monotone drive, relative to max(W); an unshifted
# stage always follows
_DELTA_SCHEDULE: tuple[float, ...] = tuple(10.0 ** -j for j in range(9))
# per-sweep relative-change stop of the final (unshifted) stage; shifted
# stages stop at 1e-4 or after _STAGE_CAP sweeps
_SWEEP_TOL = 1e-10
_MAX_SWEEPS = 500
_STAGE_CAP = 12
# backward-error target of every Newton run, the pin rounds' and the drive's
# finish (module docstring, step 4)
_NEWTON_BE = 1e-14
# the largest backward error a pinned solve may end at
_ACCEPT_BE = 1e-8
# cap on the rounds of an extrapolated-pin solve (``_repin``), the reported
# solve included
_PIN_ROUNDS = 4

_TINY = 1e-300
_COLLAPSE_FLOOR = 1e-250


@dataclass(frozen=True)
class NonlinearitySpec:
    """g(t) = t^-s with s > 0."""

    s: float

    def __post_init__(self) -> None:
        if not 0.0 < self.s < np.inf:
            raise ConfigError("s must be finite and positive (g(t) = t^-s is singular at 0)")

    @classmethod
    def power(cls, s: float) -> "NonlinearitySpec":
        return cls(s)

    def g(self, t: np.ndarray) -> np.ndarray:
        return np.maximum(t, 1e-300) ** -self.s

    def dg_magnitude(self, t: np.ndarray) -> np.ndarray:
        """|g'(t)| = s t^-(s+1)."""
        return self.s * t ** -(self.s + 1.0)

    def invert_integral(self, z: np.ndarray) -> np.ndarray:
        """Solve int_0^W dt/g(t) = z for W."""
        return ((1.0 + self.s) * z) ** (1.0 / (1.0 + self.s))


@dataclass(frozen=True)
class BarrierPair:
    lower: GridFunction
    upper: GridFunction

    def __post_init__(self) -> None:
        if np.any(self.lower.values > self.upper.values * (1 + 1e-12) + 1e-300):
            raise ConfigError("lower barrier must not exceed upper barrier")

    def contains(self, w: np.ndarray) -> bool:
        lo, hi = self.lower.values, self.upper.values
        slack = 1e-9 * np.maximum(hi, 1e-300)
        return bool(np.all(w >= lo - slack) and np.all(w <= hi + slack))


def barrier_Z(
    grid: RadialGrid,
    N: int,
    A: np.ndarray,
    truncate_tail: bool = False,
) -> GridFunction:
    """Decaying Neumann potential Z(r) = int_r^inf t^(1-N) int_{r0}^t tau^(N-1) A dtau dt.

    ``A`` holds the source's nodal values, one per node, finite and
    nonnegative (ConfigError otherwise); ``solve_monotone`` leaves these
    checks of its Psi to this function.  A zero A gives Z == 0.  Both
    integrals use composite trapezoid on the xi-mesh; the part beyond the
    truncation radius is added in closed form, with A continued past R as
    A(R) (r/R)^-alpha and alpha its local power between the first nodes at
    or above R/30 and R/3 (``grid.tail_power``, the tail model of the
    coupled far-field rows).  A tail exponent <= 2 means the first moment
    of A diverges and no decaying solution exists (NONINTEGRABLE_SOURCE);
    an A that is 0 at some node of [R/30, R] (a power of r that has
    underflowed, say), or a grid with fewer than two nodes in [R/30, R/3],
    has no tail exponent (ConfigError; the message counts the zero nodes).
    ``truncate_tail`` asks for the truncated-domain potential with Z(R) = 0
    instead, which needs neither.
    """
    a_vals = np.asarray(A, dtype=float)
    if a_vals.shape != (grid.n,):
        raise ConfigError("the source must provide one value per grid node")
    if not np.all((0.0 <= a_vals) & (a_vals < np.inf)):
        raise ConfigError("the source must be finite and nonnegative")
    if not np.any(a_vals > 0):
        return GridFunction(grid, np.zeros(grid.n))

    r, xi = grid.r, grid.xi
    dxi = np.diff(xi)
    f_inner = r ** N * a_vals
    inner = np.concatenate([[0.0], np.cumsum(0.5 * (f_inner[1:] + f_inner[:-1]) * dxi)])
    f_outer = r ** (2.0 - N) * inner
    core = np.concatenate([
        np.cumsum((0.5 * (f_outer[1:] + f_outer[:-1]) * dxi)[::-1])[::-1],
        [0.0],
    ])

    if truncate_tail:
        return GridFunction(grid, core)

    tail = a_vals[r >= r[-1] / 30.0]
    if not np.all(tail > 0.0):
        raise ConfigError(f"the source is 0 at {np.count_nonzero(tail == 0.0)} of the {tail.size} "
                          "nodes of [R/30, R] (a power that underflows counts), so no tail "
                          "exponent can be read")
    alpha = tail_power(r, a_vals)
    if alpha <= 2.0:
        raise NonintegrableSourceError(
            f"source tail ~ r^-{alpha:g} has a divergent first moment (needs exponent > 2)"
        )
    A_R, R = float(a_vals[-1]), grid.R
    tail = inner[-1] * R ** (2.0 - N) / (N - 2.0)
    if abs(alpha - N) < 1e-9:
        tail += A_R * R ** 2 / (N - 2.0) ** 2
    else:
        tail += A_R * R ** 2 / (N - alpha) * (1.0 / (alpha - 2.0) - 1.0 / (N - 2.0))
    return GridFunction(grid, core + tail)


def barrier_W(Z: GridFunction, g: NonlinearitySpec) -> GridFunction:
    """Upper barrier from the separable ODE int_0^W dt/g(t) = Z."""
    if np.any(Z.values < 0):
        raise ConfigError("Z must be nonnegative")
    return GridFunction(Z.grid, g.invert_integral(Z.values))


@dataclass
class StageRecord:
    delta: float
    sweeps: int
    monotone_ok: bool
    iterates: list[np.ndarray] = field(default_factory=list)


@dataclass
class ScalarSolveResult:
    w: GridFunction
    barriers: BarrierPair
    stages: list[StageRecord]
    backward_error: float
    solves: int
    pin_rounds: int = 1
    # True when the drive kept its warm start, False when it ran from W
    warm_start: bool = False

    @property
    def monotone_ok(self) -> bool:
        return all(st.monotone_ok for st in self.stages)

    @property
    def sandwiched(self) -> bool:
        return self.barriers.contains(self.w.values)


def _resolve_outer(outer) -> float | None:
    """The fixed outer value that ``outer`` names: the number itself for a
    finite nonnegative number, None for "barrier" and "extrapolate" (their
    values come from the upper barrier and from the solution).  Anything
    else is a ConfigError."""
    if outer in ("barrier", "extrapolate"):
        return None
    try:
        val = float(outer)
    except (TypeError, ValueError):
        raise ConfigError(
            f"outer must be 'barrier', 'extrapolate' or a number, not {outer!r}"
        ) from None
    if not (np.isfinite(val) and val >= 0.0):
        raise ConfigError(f"outer value must be finite and nonnegative, not {val!r}")
    return val


def _extrapolated_pin(grid: RadialGrid, w: np.ndarray) -> float:
    """Continue the local power law from [R/30, R/3] (``grid.tail_window``)
    out to R."""
    window = tail_window(grid.r, grid.R)
    vals = np.maximum(w[window], _TINY)
    coef = np.polyfit(np.log(grid.r[window]), np.log(vals), 1)
    return float(np.exp(coef[1] + coef[0] * np.log(grid.R)))


def _repin(grid: RadialGrid, solve_at, rounds: int = _PIN_ROUNDS) -> tuple[float, int]:
    """The extrapolated-pin loop, which only chooses the pin.

    ``solve_at(pin)`` returns the nodal solution at outer value ``pin``.
    Starting from a zero pin, each round re-pins from its solution's own
    outer power law, until the pin moves by at most 1e-9 relative or
    ``rounds - 1`` solves are spent.  Returns ``(pin, pin_rounds)``: the pin
    the caller solves at for its answer, and the number of rounds counting
    that solve.  The stop test is not met in practice, so the loop ends at
    its cap (the pin still moves by a few percent in the last round).  How a
    round solves is up to ``solve_at``; its one caller,
    ``_solve_extrapolated``, runs Newton."""
    pin = 0.0
    for k in range(1, rounds):
        new_pin = _extrapolated_pin(grid, solve_at(pin))
        if abs(new_pin - pin) <= 1e-9 * max(new_pin, _TINY):
            return pin, k
        pin = new_pin
    return pin, max(1, rounds)


def solve_monotone(
    op: RadialOperator,
    Psi: np.ndarray,
    g: NonlinearitySpec,
    outer: float | str = "barrier",
    truncate_tail: bool = False,
    record_history: bool = False,
    pin_rounds: int = _PIN_ROUNDS,
    start: np.ndarray | None = None,
) -> ScalarSolveResult:
    """Solve -Lap w = Psi w^-s (s > 0) with Neumann inner row and Dirichlet
    outer row.

    ``Psi`` holds nodal values, checked once, by ``barrier_Z``.  A zero
    ``Psi`` takes the same path as any other: its upper barrier W is zero,
    so a zero pin is DEGENERATE and a positive one gives w equal to it.
    ``outer`` selects the outer Dirichlet value: "barrier" pins the upper
    barrier value W(R) (the construction's own choice), a number pins that
    value (``0.0`` pins at zero), and "extrapolate" re-pins from the
    solution's own outer power law (the accurate choice for asymptotics
    work, since fixed pins leave an O(1) boundary layer).  The re-pinning is
    ``_repin``: it starts from a zero pin and spends ``pin_rounds - 1``
    Newton solves on choosing the pin; its 1e-9 stop test is not met in
    practice, so with the default four rounds the answer is the solve at the
    third extrapolated pin, not a self-consistent one.  The reported solve
    runs the monotone drive at that pin (``_solve_extrapolated``), from the
    last round's solution, so the stage records, barriers and certificates
    are those of a fixed-pin solve.  ``solves`` and ``pin_rounds`` of the
    result count every round.

    ``start`` warm-starts the drive of a fixed pin ("barrier" or a number)
    from a solution already in hand: the drive runs only its unshifted
    stage from ``start``, and the result's ``warm_start`` is True.  A start
    that turns out to be no supersolution (a sweep rises above its iterate
    by more than 1e-10 relative) falls back to the drive from the upper
    barrier, and ``solves`` counts both attempts.  A start of the wrong
    shape, with a non-finite value or a nonpositive value off the outer node
    is a ConfigError, and so is a start with "extrapolate", whose pin rounds
    supply their own.

    The monotone drive's shift schedule, sweep tolerance and sweep caps are
    module constants.

    Raises DEGENERATE when the data force w == 0, NO_CONVERGENCE when the
    sweep budget ends far from the residual target.  A grid with fewer than
    two nodes in [R/30, R/3], where the tail power and the extrapolated pin
    are read, is a ConfigError (``grid.tail_window``).
    """
    pin = _resolve_outer(outer)
    grid = op.grid
    psi = np.asarray(Psi, dtype=float)
    if start is not None:
        if outer == "extrapolate":
            raise ConfigError("start needs a fixed pin; the pin rounds of 'extrapolate' "
                              "supply their own start")
        start = np.asarray(start, dtype=float)
        if start.shape != (grid.n,):
            raise ConfigError("start must provide one value per grid node")
        if not (np.isfinite(start).all() and np.all(start[:-1] > 0.0)):
            raise ConfigError("start must be finite and positive off the outer node")

    Z = barrier_Z(grid, op.N, psi, truncate_tail=truncate_tail)
    W = barrier_W(Z, g).values
    if outer == "extrapolate":
        return _solve_extrapolated(op, psi, g, W, pin_rounds, record_history)
    if pin is None:
        # "barrier": the upper barrier's outer value, the construction's own pin
        pin = float(W[-1])
    return _solve_pinned(op, psi, g, W, pin, record_history, start)


def _solve_extrapolated(
    op: RadialOperator, psi: np.ndarray, g: NonlinearitySpec, W: np.ndarray,
    rounds: int, record_history: bool,
) -> ScalarSolveResult:
    """The monotone drive ``_solve_pinned`` at the pin ``_repin`` chooses.

    Each round that chooses the pin runs ``_newton`` (the first from ``W``,
    each later one from the previous round's solution); a round whose
    Newton ends above ``_ACCEPT_BE`` runs the drive from ``W`` instead.  The
    reported drive starts from the last round's solution when a round ran,
    and from ``W`` otherwise.  The result is a copy of that drive's whose
    ``solves`` and ``pin_rounds`` count every round; the drive's own result
    keeps its own count.
    """
    solves = 0
    warm = W

    def solve_at(pin: float) -> np.ndarray:
        nonlocal solves, warm
        _, scale, gfloor = _pin_frame(g, W, pin)
        w = warm.copy()
        w[-1] = pin
        warm, be, steps = _newton(op, psi, g, w, pin, gfloor, 2.0 * scale)
        solves += steps
        if be > _ACCEPT_BE:
            drive = _solve_pinned(op, psi, g, W, pin, record_history)
            solves += drive.solves
            warm = drive.w.values
        return warm

    pin, pin_rounds = _repin(op.grid, solve_at, rounds)
    result = _solve_pinned(op, psi, g, W, pin, record_history,
                           None if warm is W else warm)
    return replace(result, pin_rounds=pin_rounds, solves=result.solves + solves)


def _pin_frame(
    g: NonlinearitySpec, W: np.ndarray, outer_value: float,
) -> tuple[np.ndarray, float, float]:
    """The upper barrier lifted to cover ``outer_value``, its maximum, and
    the positivity floor of the g-evaluations."""
    if outer_value > W[-1]:
        # constant lift keeps W a supersolution while covering the pin
        W = W + (outer_value - W[-1])
    scale = float(np.max(W))
    if scale <= _COLLAPSE_FLOOR:
        raise DegenerateSolveError("upper barrier collapsed to zero")
    # only the pinned outer node can sit at zero and its row is overwritten
    # by the Dirichlet value anyway; the floor keeps floor**-(s+1)
    # comfortably inside double range
    return W, scale, scale * 1e-80 ** (1.0 / (1.0 + g.s))


def _newton(
    op: RadialOperator, psi: np.ndarray, g: NonlinearitySpec, w: np.ndarray,
    outer_value: float, gfloor: float, cap_hi: float,
) -> tuple[np.ndarray, float, int]:
    """Safeguarded Newton on the pinned problem from ``w`` until the backward
    error is at most ``_NEWTON_BE`` (the one target of every scalar Newton
    run), for at most 40 steps; after the third step, a step that does not
    lower the backward error ends the loop (and is not taken).  Iterates are
    clipped to [gfloor, cap_hi] only: the barrier bracket carries O(h^2)
    slack of its own, and pinning the iterate to it would freeze the
    residual at that level.  Returns the iterate, its backward error and the
    number of steps, one tridiagonal solve each."""

    def at(wvals: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
        # the floored iterate, the source Psi g there and its backward error
        wf = np.maximum(wvals, gfloor)
        f = psi * g.g(wf)
        return wf, f, backward_error(op, wvals, f)

    wf, f, be = at(w)
    steps = 0
    while be > _NEWTON_BE and steps < 40:
        # |g'(t)| = s g(t) / t, so the Jacobian reuses the iterate's source
        J = g.s * f / wf
        wn = op.solve(f + J * w, outer_value, shift=J)
        steps += 1
        wn = np.clip(wn, gfloor, cap_hi)
        wn[-1] = outer_value
        wfn, fn, ben = at(wn)
        if ben >= be and steps > 3:
            break
        w, wf, f, be = wn, wfn, fn, ben
    return w, be, steps


def _solve_pinned(
    op: RadialOperator, psi: np.ndarray, g: NonlinearitySpec, W: np.ndarray,
    outer_value: float, record_history: bool, start: np.ndarray | None = None,
) -> ScalarSolveResult:
    """The monotone drive and Newton finish with the outer value fixed.

    Without ``start`` the drive runs the delta-continuation from the upper
    barrier ``W``.  With one it first runs only the unshifted stage from S,
    ``start`` lifted by a constant to cover the pin (rows sum to zero and g
    is nonincreasing, so the lift keeps a supersolution), pinned and capped
    by the lifted ``W``.  A warm sweep that rises above its iterate by more
    than 1e-10 relative shows that S is no supersolution: it ends the warm
    attempt, and the result is the drive from ``W``, with ``solves``
    counting both attempts.  ``warm_start`` of the result records which
    drive it holds.  The barrier pair is ``(V, W)`` either way, with V the
    first lower barrier."""
    grid = op.grid
    W, scale, gfloor = _pin_frame(g, W, outer_value)
    solves = 0

    def geval(wvals: np.ndarray) -> np.ndarray:
        return g.g(np.maximum(wvals, gfloor))

    def lower_step(wvals: np.ndarray, delta: float) -> np.ndarray:
        nonlocal solves
        out = op.solve(psi * geval(wvals + delta), outer_value)
        solves += 1
        return np.clip(out, 0.0, None, out=out)

    # the barriers are certified in the continuum; on coarse grids their
    # discrete ordering can be off by the truncation error, so the clamp
    # floor is kept nodewise consistent with the ceiling
    V_initial = np.minimum(lower_step(W, 0.0), W)

    def stage(w: np.ndarray, V: np.ndarray, delta: float,
              warm: bool) -> tuple[np.ndarray, np.ndarray, StageRecord]:
        """Lagged sweeps at shift ``delta`` from the supersolution ``w``
        inside [V, W]; a warm stage stops at its first rising sweep, and
        refreshes V after its first sweep too, which then was monotone."""
        nonlocal solves
        M = psi * g.dg_magnitude(np.maximum(V, gfloor) + delta)
        final = delta == 0.0
        cap = _MAX_SWEEPS if final else _STAGE_CAP
        stage_tol = _SWEEP_TOL if final else 1e-4
        record = StageRecord(delta=delta, sweeps=0, monotone_ok=True)
        if record_history:
            record.iterates.append(w.copy())
        for j in range(cap):
            rhs = psi * geval(w + delta)
            rhs += M * w
            wn = op.solve(rhs, outer_value, shift=M)
            solves += 1
            if float(np.max((wn - w) / np.maximum(w, _TINY))) > 1e-10:
                record.monotone_ok = False
                if warm:
                    break
            np.minimum(wn, w, out=wn)
            np.maximum(wn, V, out=wn)
            # wn >= V >= 0 needs no abs
            change = float(np.max(np.abs(wn - w) / np.maximum(wn, _TINY)))
            w = wn
            record.sweeps += 1
            if record_history:
                record.iterates.append(w.copy())
            if change < stage_tol:
                break
            if (j + 1) % 4 == 0 or (warm and j == 0):
                # tighten the lower barrier from the current supersolution;
                # w + delta dominates the unshifted solution, so this stays
                # a certified subsolution
                Vn = lower_step(w, delta)
                V = np.minimum(np.maximum(V, Vn), W)
                M = psi * g.dg_magnitude(np.maximum(V, gfloor) + delta)
        return w, V, record

    warm = False
    if start is not None:
        S = np.array(start, dtype=float)
        if outer_value > S[-1]:
            S += outer_value - S[-1]
        S[-1] = outer_value
        w, _, record = stage(np.minimum(S, W), V_initial, 0.0, True)
        stages, warm = [record], record.monotone_ok
    if not warm:
        w, V, stages = W.copy(), V_initial, []
        prev_delta: float | None = None
        for rel_delta in _DELTA_SCHEDULE + (0.0,):
            delta = rel_delta * scale
            if prev_delta is not None:
                w = np.minimum(w + (prev_delta - delta), W)
            prev_delta = delta
            w, V, record = stage(w, V, delta, False)
            stages.append(record)

    w, be, newton_steps = _newton(op, psi, g, w, outer_value, gfloor, 2.0 * scale)
    solves += newton_steps
    if float(np.max(w)) <= _COLLAPSE_FLOOR:
        raise DegenerateSolveError("iterates collapsed below the positivity floor")
    if be > _ACCEPT_BE:
        raise ConvergenceError(
            f"monotone iteration stalled: backward error {be:.2e} after "
            f"{sum(st.sweeps for st in stages)} sweeps + {newton_steps} Newton steps"
        )
    # the returned pair is the one constructed up front: every recorded
    # iterate respects it (internal lower-barrier refreshes only tighten
    # the contraction shift)
    pair = BarrierPair(GridFunction(grid, V_initial), GridFunction(grid, W))
    return ScalarSolveResult(GridFunction(grid, w), pair, stages, be, solves, warm_start=warm)
