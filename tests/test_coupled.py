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
    solve_system,
    suggest_lambda,
    verify_box,
)
from gmext.errors import ConfigError, DivergedError
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
    assert C4 == pytest.approx(2.08945815671421, rel=1e-12, abs=0.0)


def test_calibration_linear_reference_is_closed_form():
    # MIN-i (N = 3, k = 4, r0 = 1): the linear reference w_k is the decaying
    # Neumann solution 1/r - 1/(2 r^2), whose smallest ratio to 1/r is 1/2
    # (at r0), so C3 = 0.95 * 1/2 up to the scheme's error
    params = ExponentSet(**COUPLED_MIN_I["params"])
    C3, _ = calibrate_barrier_constants(params, cached_operator(1.0, 1e4, 4097, 3))
    assert abs(C3 - 0.475) <= 1e-6


def test_calibration_solve_count_guard(solve_calls):
    # MIN-i at n = 4097: the w_a reference solve runs the monotone drive once
    # (the drive in every pin round took 132 tridiagonal solves in all), and
    # each linear reference is one solve at its barrier pin (40 in all)
    params = ExponentSet(**COUPLED_MIN_I["params"])
    calibrate_barrier_constants(params, cached_operator(1.0, 1e4, 4097, 3))
    assert len(solve_calls) <= 44


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


def test_diverged_guard():
    params = ExponentSet(**COUPLED_MIN_I["params"]).with_lam(1e-5)
    op = cached_operator(1.0, 1e3, 1025, 3)
    huge = GridFunction(op.grid, np.full(op.grid.n, 1e31))
    ok = GridFunction(op.grid, np.full(op.grid.n, 1.0))
    sched = constant_schedule(params, SourceEnvelope.radial(1.0, params.k), 0.5, 2.0)
    state = CoupledState(u=huge, v=ok, schedule=sched, verdict=classify(params))
    with pytest.raises(DivergedError):
        state.check_positive()


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
    assert state.iteration == state.diagnostics["newton_steps"] + 1
    assert state.diagnostics["newton_converged"]
    assert state.diagnostics["fixed_point_gap"] < 1e-8


def test_sentinel_cell_diverges():
    # its box-midpoint start state already leaves the admissible range
    from gmext.cli import _SOLVE_DEFAULTS, run_solve

    cfg = dict(_SOLVE_DEFAULTS, N=3, p=6.0, q=1.5, m=6.0, s=1.0, k=4.0)
    with pytest.raises(DivergedError):
        run_solve(cfg)


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
