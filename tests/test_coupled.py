from dataclasses import replace

import numpy as np
import pytest

from gmext import (
    CoupledState,
    ExponentSet,
    GridFunction,
    SourceEnvelope,
    apply_H,
    calibrate_barrier_constants,
    classify,
    constant_schedule,
    coupled,
    solve_system,
    suggest_lambda,
    verify_box,
)
from gmext.errors import ConfigError, ConvergenceError, DivergedError, NonintegrableSourceError
from gmext.fitting import fit_power

from cases import COUPLED_FAST_N5, COUPLED_MIN_I, COUPLED_MIN_III, COUPLED_MIXED
from conftest import cached_operator, solve_case


# ---------------------------------------------------------------------------
# calibration and schedule plumbing


def test_calibration_orders_constants():
    params = ExponentSet(**COUPLED_MIN_I["params"])
    op = cached_operator(1.0, 1e3, 1025, 3)
    env = SourceEnvelope.radial(1.0, params.k)
    C3, C4 = calibrate_barrier_constants(params, op)
    assert 0 < C3 < C4
    # deterministic
    assert (C3, C4) == calibrate_barrier_constants(params, op)


def test_calibration_reference_values():
    # MIN-i at n = 1025 to 1e-12: a change to the extrapolated-pin loop (or
    # anything else the calibration runs) moves these and must update them
    params = ExponentSet(**COUPLED_MIN_I["params"])
    op = cached_operator(1.0, 1e3, 1025, 3)
    C3, C4 = calibrate_barrier_constants(params, op)
    assert C3 == pytest.approx(0.4749981951056938, rel=1e-12, abs=0.0)
    assert C4 == pytest.approx(2.089467608395015, rel=1e-12, abs=0.0)


def test_calibration_linear_reference_is_closed_form():
    # MIN-i (N = 3, k = 4, r0 = 1): the linear references are the decaying
    # Neumann solutions w_k = 1/r - 1/(2 r^2) and w_h = 2 w_k (the coupling
    # source r^-5 psi^-1 is r^-4 too).  w_k's smallest ratio to 1/r is 1/2
    # (at r0), so C3 = 0.95 * 1/2; w_h's largest, 2 - 1/r, is 1.999 at the
    # node R/10 = 1000, so C4 = 1.05 * 1.999, both up to the scheme's error
    params = ExponentSet(**COUPLED_MIN_I["params"])
    C3, C4 = calibrate_barrier_constants(params, cached_operator(1.0, 1e4, 4097, 3))
    assert abs(C3 - 0.475) <= 1e-6
    assert C4 == pytest.approx(1.05 * 1.999, rel=1e-6, abs=0.0)


def test_calibration_solve_count_guard(solve_calls):
    # MIN-i at n = 4097: the w_a reference solve runs the monotone drive once,
    # from its last pin round's solution, and the two linear references are
    # the barrier potential Z, a quadrature with no solve (12 in all; the
    # drive from W took 40, the drive in every pin round 132)
    params = ExponentSet(**COUPLED_MIN_I["params"])
    calibrate_barrier_constants(params, cached_operator(1.0, 1e4, 4097, 3))
    assert len(solve_calls) <= 12


def test_calibration_rejects_nonexistence():
    params = ExponentSet(N=3, p=2, q=1, m=6, s=1, k=4)
    op = cached_operator(1.0, 1e3, 1025, 3)
    with pytest.raises(ConfigError):
        calibrate_barrier_constants(params, op)


def test_solve_refuses_nonexistence():
    params = ExponentSet(N=3, p=2, q=1, m=6, s=1, k=4, lam=1e-3)
    op = cached_operator(1.0, 1e3, 1025, 3)
    with pytest.raises(ConfigError):
        solve_system(params, SourceEnvelope.radial(1.0, 4.0), op)


def test_solve_refuses_zero_lambda():
    # an existence cell, but no source: the schedule needs lam > 0
    params = ExponentSet(**COUPLED_MIN_I["params"])
    assert params.lam == 0.0
    with pytest.raises(ConfigError, match="lam > 0"):
        solve_system(params, SourceEnvelope.radial(1.0, params.k), cached_operator(1.0, 1e3, 1025, 3))


def test_default_lambda_solve_calibrates_once(monkeypatch):
    from gmext import coupled
    from gmext.cli import _SOLVE_DEFAULTS, run_solve

    calls = []
    real = coupled.calibrate_barrier_constants

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(coupled, "calibrate_barrier_constants", counting)
    kw = COUPLED_MIN_I["params"]
    cfg = dict(_SOLVE_DEFAULTS, R=1e3, n=1025, kind=kw["kind"],
               **{key: kw[key] for key in ("N", "p", "q", "m", "s", "k")})
    run_solve(cfg)
    assert len(calls) == 1

    # a passed-in schedule is the one solve_system would build itself
    params = ExponentSet(**kw)
    op = cached_operator(1.0, 1e3, 1025, 3)
    env = SourceEnvelope.radial(1.0, params.k)
    lam, sched = suggest_lambda(params, env, op)
    calls.clear()
    given = solve_system(params.with_lam(lam), env, op, schedule=sched)
    assert calls == []
    built = solve_system(params.with_lam(lam), env, op)
    assert len(calls) == 1
    assert np.array_equal(given.u.values, built.u.values)
    assert np.array_equal(given.v.values, built.v.values)
    assert given.iteration == built.iteration


def test_solve_rejects_schedule_at_other_lambda():
    params = ExponentSet(**COUPLED_MIN_I["params"])
    op = cached_operator(1.0, 1e3, 1025, 3)
    env = SourceEnvelope.radial(1.0, params.k)
    lam, sched = suggest_lambda(params, env, op)
    with pytest.raises(ConfigError):
        solve_system(params.with_lam(2.0 * lam), env, op, schedule=sched)


@pytest.mark.parametrize("k", [3.5, 2.5])
def test_source_decay_must_match_k(k):
    # the verdict, calibration and threshold are taken from params.k, the
    # source term from env.k: unchecked, MIN-i with a source at k = 3.5
    # solves with a passing box and fits u at -0.958, close to the -1 its
    # k = 4 predicts
    params, env, op, state = solve_case(COUPLED_MIN_I)
    other = SourceEnvelope.radial(1.0, k)
    with pytest.raises(ConfigError, match="decays like"):
        solve_system(params, other, op)
    with pytest.raises(ConfigError, match="decays like"):
        apply_H(state, params, other, op)


def test_diverged_guard():
    params = ExponentSet(**COUPLED_MIN_I["params"]).with_lam(1e-5)
    op = cached_operator(1.0, 1e3, 1025, 3)
    huge = GridFunction(op.grid, np.full(op.grid.n, 1e31))
    ok = GridFunction(op.grid, np.full(op.grid.n, 1.0))
    sched = constant_schedule(params, SourceEnvelope.radial(1.0, params.k), 0.5, 2.0)
    state = CoupledState(u=huge, v=ok, schedule=sched, verdict=classify(params))
    with pytest.raises(DivergedError):
        state.check_positive()


def test_positivity_guard():
    params = ExponentSet(**COUPLED_MIN_I["params"]).with_lam(1e-5)
    op = cached_operator(1.0, 1e3, 1025, 3)
    u = np.full(op.grid.n, 1.0)
    u[10] = 0.0
    ok = GridFunction(op.grid, np.full(op.grid.n, 1.0))
    sched = constant_schedule(params, SourceEnvelope.radial(1.0, params.k), 0.5, 2.0)
    state = CoupledState(u=GridFunction(op.grid, u), v=ok, schedule=sched,
                         verdict=classify(params))
    with pytest.raises(DivergedError, match="lost positivity"):
        state.check_positive()


def test_box_window_without_nodes_is_refused():
    params = ExponentSet(**COUPLED_MIN_I["params"]).with_lam(1e-5)
    op = cached_operator(1.0, 1e3, 1025, 3)
    sched = constant_schedule(params, SourceEnvelope.radial(1.0, params.k), 0.5, 2.0)
    from gmext.coupled import initial_state

    state = initial_state(op, classify(params), sched)
    with pytest.raises(ConfigError, match="no grid nodes"):
        verify_box(state, (2e3, 3e3))


def _poison_equations(where: int, value: float = np.nan):
    """``coupled._equations`` with f and rhs_u set to ``value`` at node
    ``where``."""
    from gmext import coupled

    real = coupled._equations

    def poisoned(*args):
        f, rhs_u, rhs_v = real(*args)
        f, rhs_u = f.copy(), rhs_u.copy()
        f[where] = rhs_u[where] = value
        return f, rhs_u, rhs_v

    return poisoned


@pytest.mark.parametrize("patch,match", [
    # NaN at an interior node reaches the residual
    ({"_equations": _poison_equations(1)}, "non-finite Newton residual"),
    # and so does NaN at the outer node, through the far-field row
    ({"_equations": _poison_equations(-1)}, "non-finite Newton residual"),
    # the largest finite f leaves the residual finite, but its derivatives
    # overflow
    ({"_equations": _poison_equations(1, np.finfo(float).max)},
     "non-finite Newton Jacobian"),
    ({"_HALVINGS": 0}, "step halving"),
], ids=["residual", "outer_residual", "jacobian", "halving"])
def test_newton_divergence_exits(monkeypatch, patch, match):
    from gmext import coupled

    for name, value in patch.items():
        monkeypatch.setattr(coupled, name, value)
    params = ExponentSet(**COUPLED_MIN_I["params"]).with_lam(1e-5)
    env = SourceEnvelope.radial(1.0, params.k)
    sched = constant_schedule(params, env, 0.5, 2.0)
    with pytest.raises(DivergedError, match=match):
        solve_system(params, env, cached_operator(1.0, 1e3, 129, 3), schedule=sched)


def test_newton_refuses_a_source_tail_with_divergent_first_moment():
    # u = r^-0.3 and v = 1 give MIN-i's coupling source u^5 / v the tail
    # r^-1.5: its first moment diverges, so the far-field row has no tail
    params = ExponentSet(**COUPLED_MIN_I["params"]).with_lam(1e-5)
    op = cached_operator(1.0, 1e3, 129, 3)
    r = op.grid.r
    with pytest.raises(NonintegrableSourceError, match="r\\^-1.5"):
        coupled._newton(params, SourceEnvelope.radial(1.0, params.k), op,
                        r ** -0.3, np.ones_like(r))


def test_grid_without_a_tail_window_is_config_error():
    # R < 3 r0: [R/30, R/3] holds no node, so the calibration's extrapolated
    # pin and the far-field rows' tail power cannot be read
    params = ExponentSet(**COUPLED_MIN_I["params"])
    env = SourceEnvelope.radial(1.0, params.k)
    bad = cached_operator(1.0, 2.0, 129, 3)
    with pytest.raises(ConfigError, match="tail window"):
        suggest_lambda(params, env, bad)
    lam, sched = suggest_lambda(params, env, cached_operator(1.0, 1e3, 129, 3))
    with pytest.raises(ConfigError, match="tail window"):
        solve_system(params.with_lam(lam), env, bad, schedule=sched)


@pytest.mark.xfail(strict=True, raises=NonintegrableSourceError,
                   reason="ROADMAP item 6: beta is read off a coarse-grid Newton "
                          "iterate, not a converged state or the prediction")
def test_slow_inhibitor_tail_cell_solves():
    # Thm2.3(ii) with v ~ r^-0.07: the inhibitor source's tail power is 2.07
    # asymptotically, but the coarse grid's iterate reads 1.983 and Newton
    # refuses it as a divergent first moment
    from gmext.cli import _SOLVE_DEFAULTS, run_solve

    cfg = dict(_SOLVE_DEFAULTS, N=5, p=3.53, q=3.98, m=1.46, s=7.7, k=3.8, n=1025)
    run_solve(cfg)


# ---------------------------------------------------------------------------
# fixed-point structure


@pytest.mark.parametrize("case", [COUPLED_MIN_I, COUPLED_MIN_III, COUPLED_MIXED,
                                  COUPLED_FAST_N5],
                         ids=["min-i", "min-iii", "mixed", "fast-n5"])
def test_apply_H_fixed_point(case):
    params, env, op, state = solve_case(case)
    pins = (float(state.u.values[-1]), float(state.v.values[-1]))
    mapped = apply_H(state, params, env, op, pins=pins)
    rel_u = np.max(np.abs(mapped.u.values - state.u.values)
                   / np.maximum(state.u.values, 1e-300))
    rel_v = np.max(np.abs(mapped.v.values - state.v.values)
                   / np.maximum(state.v.values, 1e-300))
    assert rel_u < 1e-8 and rel_v < 1e-8
    # the image reports its own inner solve, not the solved state's diagnostics
    assert set(mapped.diagnostics) == {"inner_monotone_ok", "inner_sandwiched"}


def test_apply_H_inhibitor_image_does_not_depend_on_the_start():
    # the inner problem -Lap T = u^m T^-s does not involve v; v only starts
    # its drive, so doubling it moves Tv by solver tolerance (Tu does see v,
    # through u^p / v^q)
    params, env, op, state = solve_case(COUPLED_MIN_I)
    pins = (float(state.u.values[-1]), float(state.v.values[-1]))
    doubled = replace(state, v=GridFunction(op.grid, 2.0 * state.v.values))
    a = apply_H(state, params, env, op, pins=pins)
    b = apply_H(doubled, params, env, op, pins=pins)
    assert np.max(np.abs(b.v.values - a.v.values) / a.v.values) <= 1e-9
    assert a.diagnostics == b.diagnostics == {"inner_monotone_ok": True,
                                              "inner_sandwiched": True}


def test_newton_solve_applies_H_once(monkeypatch):
    # Newton finds the fixed point; H is applied once, as its certificate
    from gmext import coupled

    calls = []
    real = coupled.apply_H

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(coupled, "apply_H", counting)
    params0 = ExponentSet(**COUPLED_MIN_I["params"])
    op = cached_operator(*COUPLED_MIN_I["grid"], params0.N)
    env = SourceEnvelope.radial(1.0, params0.k)
    lam, sched = suggest_lambda(params0, env, op)
    state = solve_system(params0.with_lam(lam), env, op, schedule=sched)
    assert len(calls) == 1
    assert state.iteration <= 25
    assert state.iteration == state.diagnostics["newton"]["steps"] + 1
    assert state.diagnostics["newton"]["last_step"] < coupled._NEWTON_TOL
    assert state.diagnostics["newton"]["fixed_point_gap"] < 1e-8


def test_newton_runs_one_coarse_and_one_solve_grid_phase(monkeypatch):
    # the far-field rows make the outer values unknowns: Newton runs once on
    # the coarse grid and once on the solve grid, each moves the outer nodes
    # it was given, and the stored image is pinned at the solve grid's
    from gmext import coupled

    phases = []
    real = coupled._newton

    def spy(params, env, op, u, v):
        given = np.array([u[-1], v[-1]])
        u_out, v_out, *tail = real(params, env, op, u, v)
        phases.append((op.grid.n, given, np.array([u_out[-1], v_out[-1]])))
        return (u_out, v_out, *tail)

    monkeypatch.setattr(coupled, "_newton", spy)
    params = ExponentSet(**COUPLED_MIN_I["params"])
    op = cached_operator(1.0, 1e3, 2049, params.N)
    env = SourceEnvelope.radial(1.0, params.k)
    lam, sched = suggest_lambda(params, env, op)
    state = solve_system(params.with_lam(lam), env, op, schedule=sched)
    assert [n for n, _, _ in phases] == [129, 2049]
    for _, given, returned in phases:
        assert np.all(np.abs(returned / given - 1.0) > 1e-6)
    # the coarse solve's outer nodes start the solve grid's (interpolation
    # in log u and log v ends on them)
    assert phases[1][1] == pytest.approx(phases[0][2], rel=1e-14)
    assert [state.u.values[-1], state.v.values[-1]] == phases[1][2].tolist()


def test_sentinel_cell_diverges():
    # its box-midpoint start state already leaves the admissible range
    from gmext.cli import _SOLVE_DEFAULTS, run_solve

    cfg = dict(_SOLVE_DEFAULTS, N=3, p=6.0, q=1.5, m=6.0, s=1.0, k=4.0)
    with pytest.raises(DivergedError):
        run_solve(cfg)


def test_coarse_level_divergence_propagates(monkeypatch):
    # the sentinel's start leaves the admissible range on the coarse grid
    # already; that DivergedError ends the solve, with no Newton on the
    # solve grid after it
    from gmext import coupled
    from gmext.cli import _SOLVE_DEFAULTS, run_solve

    sizes = []
    real = coupled._newton

    def recording(params, env, op, *args):
        sizes.append(op.grid.n)
        return real(params, env, op, *args)

    monkeypatch.setattr(coupled, "_newton", recording)
    cfg = dict(_SOLVE_DEFAULTS, N=3, p=6.0, q=1.5, m=6.0, s=1.0, k=4.0)
    with pytest.raises(DivergedError):
        run_solve(cfg)
    assert sizes == [257]


def test_newton_at_its_cap_is_no_convergence(monkeypatch):
    # ROADMAP item 17's first cell: at n = 1025 Newton reaches its 200-step
    # cap already on the coarse grid (item 6's lagged tail power), and that
    # ends the solve, with no Newton on the solve grid after it
    phases = []
    real = coupled._newton

    def recording(params, env, op, *args):
        phases.append(op.grid.n)
        return real(params, env, op, *args)

    monkeypatch.setattr(coupled, "_newton", recording)
    params = ExponentSet(N=3, p=6.55, q=2.4, m=4.95, s=4.53, k=2.55)
    op = cached_operator(1.0, 1e4, 1025, params.N)
    env = SourceEnvelope.radial(1.0, params.k)
    lam, schedule = suggest_lambda(params, env, op)
    with pytest.raises(ConvergenceError, match="129-node grid stopped at its cap of 200 steps"):
        solve_system(params.with_lam(lam), env, op, schedule=schedule)
    assert phases == [129]


def test_newton_count_guard():
    # MIN-i at n = 4097: the coarse start leaves a few solve-grid steps, and
    # the kept factors serve most of them (measured 3 steps, 2 factorizations;
    # 9 and 4 with the re-pinned polish phases the far-field row replaced)
    _, _, _, state = solve_case(COUPLED_MIN_I)
    d = state.diagnostics["newton"]
    assert d["coarse_steps"] > 0
    assert d["steps"] <= 5
    assert d["factorizations"] <= 2
    assert state.iteration == d["steps"] + 1


def test_small_grid_has_no_coarse_level():
    # n <= 129 leaves no coarser grid to start from
    params = ExponentSet(**COUPLED_MIN_I["params"])
    op = cached_operator(1.0, 1e3, 129, params.N)
    env = SourceEnvelope.radial(1.0, params.k)
    lam, sched = suggest_lambda(params, env, op)
    state = solve_system(params.with_lam(lam), env, op, schedule=sched)
    newton = state.diagnostics["newton"]
    assert newton["coarse_steps"] == 0
    assert 0 < newton["factorizations"] <= newton["steps"]
    assert newton["last_step"] < coupled._NEWTON_TOL


def test_coarse_level_skipped_where_its_spacing_is_refused():
    # N = 8, R = 1e28: the 257-node solve grid has h = 0.252 < 2/(N-2), the
    # 129-node coarse grid h = 0.504, which assemble_operator refuses; the
    # solve runs on the solve grid alone
    from gmext import assemble_operator, build_grid

    params = ExponentSet(N=8, p=8.0, q=0.5, m=8.0, s=1.0, k=2.4)
    op = assemble_operator(build_grid(1.0, 1e28, 257), params.N)
    with pytest.raises(ConfigError):
        assemble_operator(build_grid(1.0, 1e28, 129), params.N)
    env = SourceEnvelope.radial(1.0, params.k)
    lam, sched = suggest_lambda(params, env, op)
    state = solve_system(params.with_lam(lam), env, op, schedule=sched)
    assert state.diagnostics["newton"]["coarse_steps"] == 0
    assert state.diagnostics["newton"]["last_step"] < coupled._NEWTON_TOL
    assert max(state.diagnostics["certificate_u"], state.diagnostics["certificate_v"]) < 1e-8


@pytest.mark.xfail(strict=True, raises=DivergedError,
                   reason="the POWER_LOG inhibitor profile vanishes at r0, so the "
                          "box-midpoint start state is floored at 1e-300 there")
def test_log_inhibitor_cell_solves():
    # Thm2.2(i) with v ~ r^-1 log^0.5 (r/r0); every log-inhibitor existence
    # cell fails the same way at its start state
    from gmext.cli import _SOLVE_DEFAULTS, run_solve

    cfg = dict(_SOLVE_DEFAULTS, N=3, p=5.0, q=1.0, m=4.0, s=1.0, k=4.0, R=1e3, n=1025)
    run_solve(cfg)


def test_two_corner_orbits_agree():
    # start the map from opposite box corners; both orbits settle to states
    # within 1e-6 of each other (reported as a probe, asserted loosely)
    params0 = ExponentSet(**COUPLED_MIN_I["params"])
    op = cached_operator(1.0, 1e3, 2049, 3)
    env = SourceEnvelope.radial(1.0, params0.k)
    lam, sched = suggest_lambda(params0, env, op)
    params = params0.with_lam(lam)
    verdict = classify(params)
    r = op.grid.r
    psi = r ** -1.0
    corners = [
        (sched.D * r ** -1.0, sched.G * psi),
        (sched.E * r ** -1.0, sched.F * psi),
    ]
    finals = []
    for u0, v0 in corners:
        state = CoupledState(u=GridFunction(op.grid, u0), v=GridFunction(op.grid, v0),
                             schedule=sched, verdict=verdict)
        for _ in range(80):
            state = apply_H(state, params, env, op)
        finals.append(state)
    du = np.max(np.abs(finals[0].u.values - finals[1].u.values)
                / np.maximum(finals[0].u.values, 1e-300))
    dv = np.max(np.abs(finals[0].v.values - finals[1].v.values)
                / np.maximum(finals[0].v.values, 1e-300))
    print(f"two-corner agreement: du={du:.2e} dv={dv:.2e}")
    assert du < 1e-6 and dv < 1e-6


def test_box_invariance_short_orbit():
    params0 = ExponentSet(**COUPLED_MIN_I["params"])
    op = cached_operator(1.0, 1e3, 2049, 3)
    env = SourceEnvelope.radial(1.0, params0.k)
    lam, sched = suggest_lambda(params0, env, op)
    params = params0.with_lam(lam)
    verdict = classify(params)
    from gmext.coupled import initial_state

    state = initial_state(op, verdict, sched)
    for _ in range(10):
        state = apply_H(state, params, env, op)
        report = verify_box(state)
        assert report.ok, report


# ---------------------------------------------------------------------------
# regime instances reproduce their predicted exponents


@pytest.mark.parametrize("case", [COUPLED_MIN_I, COUPLED_MIN_III, COUPLED_MIXED,
                                  COUPLED_FAST_N5],
                         ids=["min-i", "min-iii", "mixed", "fast-n5"])
def test_coupled_instances(case):
    params, env, op, state = solve_case(case)
    fit_u = fit_power(state.u, case["window"])
    fit_v = fit_power(state.v, case["window"])
    assert fit_u.power == pytest.approx(case["u_power"], abs=0.05)
    assert fit_v.power == pytest.approx(case["v_power"], abs=0.05)
    assert state.diagnostics["certificate_u"] < 1e-8
    assert state.diagnostics["certificate_v"] < 1e-8
    assert state.diagnostics["inner_monotone_ok"]
    assert state.diagnostics["inner_sandwiched"]


def test_superharmonic_floor_positive_and_stable():
    # min over the window of u r^(N-2) and v r^(N-2) stays positive and moves
    # by a few percent at most under grid refinement
    case = COUPLED_MIN_I
    floors = []
    for n in (2049, 4097):
        sub = dict(case, grid=(1.0, 1e4, n))
        params, env, op, state = solve_case(sub)
        mask = op.grid.window_mask(*case["window"])
        r = op.grid.r[mask]
        floors.append((float(np.min(state.u.values[mask] * r)),
                       float(np.min(state.v.values[mask] * r))))
    for a, b in zip(*floors):
        assert a > 0 and b > 0
    assert floors[0][0] == pytest.approx(floors[1][0], rel=0.05)
    assert floors[0][1] == pytest.approx(floors[1][1], rel=0.05)


def test_remark_ordering_activator_dominates_for_small_lam():
    # in the equal-rate regime the activator/inhibitor ratio over the outer
    # window grows as the source strength decreases
    params0 = ExponentSet(**COUPLED_MIN_I["params"])
    op = cached_operator(1.0, 1e3, 2049, 3)
    env = SourceEnvelope.radial(1.0, params0.k)
    lam_star, _ = suggest_lambda(params0, env, op, fraction=1.0)
    ratios = []
    for frac in (2.0, 8.0, 32.0):
        state = solve_system(params0.with_lam(lam_star / frac), env, op)
        mask = op.grid.window_mask(10.0, 100.0)
        ratios.append(float(np.min(state.u.values[mask] / state.v.values[mask])))
    assert ratios[0] < ratios[1] < ratios[2]


def test_truncation_stability():
    # doubling the truncation radius moves fitted exponents by < 0.01; the
    # window keeps more than a decade of clearance from the truncation so
    # only genuine profile changes register
    case_small = dict(COUPLED_MIN_I, grid=(1.0, 2e4, 4353), window=(10.0, 300.0))
    case_big = dict(COUPLED_MIN_I, grid=(1.0, 4e4, 4609), window=(10.0, 300.0))
    fits = []
    for case in (case_small, case_big):
        params, env, op, state = solve_case(case)
        fits.append((fit_power(state.u, case["window"], min_decades=1.0).power,
                     fit_power(state.v, case["window"], min_decades=1.0).power))
    assert abs(fits[0][0] - fits[1][0]) < 0.01
    assert abs(fits[0][1] - fits[1][1]) < 0.01


# ---------------------------------------------------------------------------
# the far-field row: convergence in n and in R


def _min_i_at(R, n, lam=2e-5):
    """MIN-i at an explicit lam on [1, R] with n nodes, with one schedule
    (C3 = 0.5, C4 = 2) for every grid, so only the grid changes."""
    params = ExponentSet(**COUPLED_MIN_I["params"]).with_lam(lam)
    env = SourceEnvelope.radial(1.0, params.k)
    op = cached_operator(1.0, R, n, params.N)
    state = solve_system(params, env, op, schedule=constant_schedule(params, env, 0.5, 2.0))
    return op.grid, state.u.values, state.v.values


def _largest_relative_gap(a, b):
    return max(float(np.max(np.abs(x - y) / y)) for x, y in zip(a, b))


def test_coupled_solution_converges_at_second_order_in_n():
    # the nodes of each grid are every other node of the next: the largest
    # nodal relative difference shrinks by 4 per halving of h (by 2 with the
    # re-pinned Dirichlet rows the far-field row replaced)
    sols = [_min_i_at(1e4, n)[1:] for n in (513, 1025, 2049)]
    gaps = [_largest_relative_gap([w[::2] for w in fine], coarse)
            for coarse, fine in zip(sols, sols[1:])]
    assert gaps[0] / gaps[1] == pytest.approx(4.0, abs=0.2)
    assert gaps[1] < 2e-4


def test_coupled_solution_converges_in_R():
    # R = 1e4 and R = 1e6 at the same 256 nodes per decade share the nodes
    # of [10, 1e3] by index; the solutions agree there (0.69% in u and 19%
    # in v apart with the re-pinned Dirichlet rows)
    (g4, u4, v4), (g6, u6, v6) = _min_i_at(1e4, 1025), _min_i_at(1e6, 1537)
    mask = g4.window_mask(10.0, 1e3)
    assert np.array_equal(mask, g6.window_mask(10.0, 1e3)[:g4.n])
    assert g6.r[:g4.n][mask] == pytest.approx(g4.r[mask], rel=1e-14)
    assert _largest_relative_gap((u6[:g4.n][mask], v6[:g4.n][mask]),
                                 (u4[mask], v4[mask])) < 1e-5
