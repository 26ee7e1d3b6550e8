import numpy as np
import pytest

from gmext import (
    NonlinearitySpec,
    assemble_operator,
    barrier_W,
    barrier_Z,
    build_grid,
    solve_monotone,
)
from gmext import scalar
from gmext.fitting import fit_power, fit_power_log
from gmext.grid import GridFunction
from gmext.errors import (
    ConfigError,
    ConvergenceError,
    DegenerateSolveError,
    NonintegrableSourceError,
)


def make_op(r0=1.0, R=1e4, n=2049, N=3):
    return assemble_operator(build_grid(r0, R, n), N)


# ---------------------------------------------------------------------------
# barriers


def test_barrier_Z_closed_form_r4():
    # A = r^-4, N = 3: the potential is exactly r^-1 - r^-2/2
    op = make_op(n=4097)
    r = op.grid.r
    Z = barrier_Z(op.grid, 3, r ** -4.0)
    exact = 1 / r - 0.5 / r ** 2
    assert np.max(np.abs(Z.values - exact) / exact) < 1e-5


def test_barrier_Z_zero_source():
    op = make_op(n=257)
    Z = barrier_Z(op.grid, 3, np.zeros(257))
    assert np.all(Z.values == 0.0)


def test_barrier_Z_nonintegrable_tail():
    op = make_op(n=257)
    with pytest.raises(NonintegrableSourceError):
        barrier_Z(op.grid, 3, op.grid.r ** -2.0)


def test_barrier_Z_needs_a_positive_tail():
    # a source that vanishes at R has no tail power to continue
    op = make_op(n=257)
    r = op.grid.r
    A = r ** -4.0
    A[-1] = 0.0
    with pytest.raises(ConfigError, match="tail exponent"):
        barrier_Z(op.grid, 3, A)
    # the truncated-domain potential reads no tail
    assert barrier_Z(op.grid, 3, A, truncate_tail=True).values[0] > 0.0


def test_barrier_Z_is_discrete_solution():
    # -Lap Z approximates A at second order
    errs = []
    for n in (513, 1025):
        op = make_op(n=n)
        r = op.grid.r
        Z = barrier_Z(op.grid, 3, r ** -4.0)
        res = op.apply(Z.values) - r ** -4.0
        errs.append(np.max(np.abs(res[1:-1]) * r[1:-1] ** 4))
    assert errs[0] / errs[1] > 3.0


def test_barrier_W_pointwise_inversion():
    op = make_op(n=16)
    Z = GridFunction(op.grid, np.full(16, 2.0))
    W = barrier_W(Z, NonlinearitySpec.power(1.0))
    assert np.allclose(W.values, 2.0)  # int_0^W t dt = W^2/2 = 2 -> W = 2


def test_barrier_W_closed_form_chain():
    # s = 1 and Z = r^-1 - r^-2/2 give W = (2 r^-1 - r^-2)^(1/2)
    op = make_op(n=257)
    r = op.grid.r
    Z = GridFunction(op.grid, 1 / r - 0.5 / r ** 2)
    W = barrier_W(Z, NonlinearitySpec.power(1.0))
    assert np.allclose(W.values, np.sqrt(2 / r - 1 / r ** 2), rtol=1e-14)


# ---------------------------------------------------------------------------
# monotone solver: degenerate paths


def test_zero_source_zero_outer_degenerates():
    op = make_op(n=257)
    with pytest.raises(DegenerateSolveError):
        solve_monotone(op, np.zeros(257), NonlinearitySpec.power(1.0), outer=0.0)


def test_zero_source_propagates_outer_value():
    op = make_op(n=257)
    res = solve_monotone(op, np.zeros(257), NonlinearitySpec.power(1.0), outer=0.7)
    assert np.allclose(res.w.values, 0.7)


# ---------------------------------------------------------------------------
# monotone solver: ordering, sandwich, uniqueness


def test_monotone_stage_ordering_and_sandwich():
    op = make_op(n=1025)
    r = op.grid.r
    res = solve_monotone(op, r ** -3.5, NonlinearitySpec.power(1.0),
                         outer="barrier", record_history=True)
    assert res.monotone_ok
    lo = res.barriers.lower.values
    hi = res.barriers.upper.values
    for stage in res.stages:
        seq = stage.iterates
        for a, b in zip(seq, seq[1:]):
            assert np.all(b <= a * (1 + 1e-12) + 1e-300)
        for it in seq:
            assert np.all(it <= hi * (1 + 1e-9) + 1e-300)
            assert np.all(it >= lo - 1e-9 * hi - 1e-300)
    assert res.sandwiched
    assert res.backward_error < 1e-10


def test_two_starts_agree():
    # same pinned problem from the barrier and from 1.5x the barrier
    op = make_op(n=1025)
    r = op.grid.r
    psi = r ** -3.5
    g = NonlinearitySpec.power(1.0)
    W = barrier_W(barrier_Z(op.grid, op.N, psi), g).values
    pin = float((2 / r[-1]) ** 0.5)  # roughly the barrier scale at R
    res1 = scalar._solve_pinned(op, psi, g, W, pin, False)
    res2 = scalar._solve_pinned(op, psi, g, 1.5 * W, pin, False)
    diff = np.max(np.abs(res1.w.values[:-1] - res2.w.values[:-1]) / res1.w.values[:-1])
    assert diff < 1e-8
    assert res2.monotone_ok
    # the self-pinned solve starts every pin round from the scaled barrier
    ext1 = scalar._solve_extrapolated(op, psi, g, W, scalar._PIN_ROUNDS, False)
    ext2 = scalar._solve_extrapolated(op, psi, g, 1.5 * W, scalar._PIN_ROUNDS, False)
    assert np.allclose(ext2.barriers.upper.values, 1.5 * ext1.barriers.upper.values,
                       rtol=1e-14, atol=0.0)
    diff = np.max(np.abs(ext1.w.values - ext2.w.values) / ext1.w.values)
    assert diff < 1e-8
    assert ext2.monotone_ok


def test_extrapolated_solve_counts_every_pin_round(monkeypatch):
    # the reported solve count covers all pin rounds, not only the last
    from gmext.grid import RadialOperator

    op = make_op(n=2049)
    calls = []
    real = RadialOperator.solve

    def counting(self, *args, **kwargs):
        calls.append(1)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(RadialOperator, "solve", counting)
    res = solve_monotone(op, op.grid.r ** -6.0, NonlinearitySpec.power(1.0),
                         outer="extrapolate")
    assert res.pin_rounds > 1
    assert res.solves == len(calls)


def test_repin_spends_one_solve_less_than_its_rounds():
    # each stub solution continues to the outer pin (previous pin + 1), so
    # the R-th pin is about R - 1; the caller makes the R-th solve itself
    op = make_op(n=513)
    R = op.grid.R
    calls = []

    def solve_at(pin):
        calls.append(pin)
        return (pin + 1.0) * R / op.grid.r

    pin, rounds = scalar._repin(op.grid, solve_at, 4)
    assert len(calls) == 3 and rounds == 4
    assert calls == pytest.approx([0.0, 1.0, 2.0], abs=1e-9)
    assert pin == pytest.approx(3.0, rel=1e-9)


def test_repin_stop_test_returns_the_pin_it_stopped_at():
    op = make_op(n=513)
    calls = []

    def solve_at(pin):
        calls.append(pin)
        return 5.0 * op.grid.R / op.grid.r

    pin, rounds = scalar._repin(op.grid, solve_at, 10)
    assert rounds == 2 and len(calls) == 2
    assert pin == calls[-1] == pytest.approx(5.0, rel=1e-9)


@pytest.mark.parametrize("rounds", [0, 1])
def test_repin_single_round_makes_no_call(rounds):
    def solve_at(pin):
        raise AssertionError("no pin round to run")

    assert scalar._repin(make_op(n=513).grid, solve_at, rounds) == (0.0, 1)


def test_one_pin_round_is_the_drive_at_zero(solve_calls):
    op = make_op(n=1025)
    psi = op.grid.r ** -6.0
    g = NonlinearitySpec.power(1.0)
    W = barrier_W(barrier_Z(op.grid, op.N, psi), g).values
    ref = scalar._solve_pinned(op, psi, g, W, 0.0, False)
    solve_calls.clear()
    res = solve_monotone(op, psi, g, outer="extrapolate", pin_rounds=1)
    assert np.array_equal(res.w.values, ref.w.values)
    assert res.outer_value == 0.0 and res.backward_error == ref.backward_error
    assert res.pin_rounds == 1
    assert res.solves == ref.solves == len(solve_calls)


def _drive_every_round(op, psi, g):
    """The extrapolated-pin loop with the full monotone drive in every round;
    returns the per-round results."""
    W = barrier_W(barrier_Z(op.grid, op.N, psi), g).values
    rounds = []

    def solve_at(pin):
        rounds.append(scalar._solve_pinned(op, psi, g, W, pin, False))
        return rounds[-1].w.values

    pin, _ = scalar._repin(op.grid, solve_at)
    solve_at(pin)
    return rounds


@pytest.mark.parametrize("alpha,s", [(2.5, 0.5), (3.0, 1.0), (4.0, 2.0), (6.0, 1.0)])
def test_newton_pin_rounds_match_drive_in_every_round(alpha, s):
    # Newton in the pin-choosing rounds moves the answer by solver tolerance
    # only, and the reported round keeps the drive's certificates
    op = make_op(n=2049)
    psi = op.grid.r ** -alpha
    g = NonlinearitySpec.power(s)
    ref = _drive_every_round(op, psi, g)
    res = solve_monotone(op, psi, g, outer="extrapolate")
    w_ref = ref[-1].w.values
    assert np.max(np.abs(res.w.values - w_ref) / w_ref) <= 1e-7
    assert res.pin_rounds == len(ref)
    assert res.solves < sum(r.solves for r in ref)
    assert res.stages and res.monotone_ok and res.sandwiched


def _rel(a, b):
    return float(np.max(np.abs(a - b) / b))


def test_unconverged_newton_pin_round_runs_the_drive(monkeypatch, solve_calls):
    # a pin-choosing round whose Newton ends above the acceptance level falls
    # back to the drive, so every round then matches the reference loop, and
    # the reported drive starts from the last round's drive solution
    op = make_op(n=2049)
    psi = op.grid.r ** -6.0
    g = NonlinearitySpec.power(1.0)
    W = barrier_W(barrier_Z(op.grid, op.N, psi), g).values
    ref = _drive_every_round(op, psi, g)
    warm_ref = scalar._solve_pinned(op, psi, g, W, ref[-1].outer_value, False,
                                    start=ref[-2].w.values)
    real_newton, real_pinned = scalar._newton, scalar._solve_pinned
    in_drive = []

    def pinned(*args, **kwargs):
        in_drive.append(True)
        try:
            return real_pinned(*args, **kwargs)
        finally:
            in_drive.pop()

    def unconverged(*args):
        w, be, steps = real_newton(*args)
        # only the pin-choosing rounds run Newton outside the drive; the
        # drive's own Newton finish reports what it reached
        return w, (be if in_drive else np.inf), steps

    monkeypatch.setattr(scalar, "_newton", unconverged)
    monkeypatch.setattr(scalar, "_solve_pinned", pinned)
    solve_calls.clear()
    res = solve_monotone(op, psi, g, outer="extrapolate")
    assert res.warm_start and warm_ref.warm_start
    assert np.array_equal(res.w.values, warm_ref.w.values)
    assert res.backward_error == warm_ref.backward_error
    assert res.outer_value == ref[-1].outer_value
    assert _rel(res.w.values, ref[-1].w.values) <= 1e-9
    assert res.pin_rounds == len(ref)
    # the discarded Newton steps are counted too
    assert res.solves == len(solve_calls) > sum(r.solves for r in ref[:-1]) + warm_ref.solves


def test_pin_stop_test_on_newton_round_reports_the_drive(monkeypatch, solve_calls):
    # with a round cap the loop never reaches, its 1e-9 stop test ends it on
    # a Newton round, and the drive then solves that round's pin for the
    # report, from that round's Newton solution
    op = make_op(R=1e3, n=513)
    psi = op.grid.r ** -6.0
    g = NonlinearitySpec.power(1.0)
    W = barrier_W(barrier_Z(op.grid, op.N, psi), g).values
    real = scalar._solve_pinned
    starts = []

    def spy(*args, **kwargs):
        starts.append(kwargs.get("start", args[6] if len(args) > 6 else None))
        return real(*args, **kwargs)

    monkeypatch.setattr(scalar, "_solve_pinned", spy)
    res = solve_monotone(op, psi, g, outer="extrapolate", pin_rounds=200)
    assert 4 < res.pin_rounds < 200
    assert res.solves == len(solve_calls)
    assert len(starts) == 1 and starts[0] is not None
    ref = real(op, psi, g, W, res.outer_value, False, start=starts[0].copy())
    assert np.array_equal(res.w.values, ref.w.values)
    cold = real(op, psi, g, W, res.outer_value, False)
    assert _rel(res.w.values, cold.w.values) <= 1e-9
    assert res.warm_start and not cold.warm_start
    assert res.stages and res.monotone_ok and res.sandwiched


def test_extrapolated_solve_count_guard(solve_calls):
    # three Newton pin rounds and one drive from the last round's solution
    # took 13; the drive from W in the reported round took 39 in all, the
    # drive in every round 124
    op = make_op(n=2049)
    solve_monotone(op, op.grid.r ** -6.0, NonlinearitySpec.power(1.0), outer="extrapolate")
    assert len(solve_calls) <= 15


def test_cold_drive_finishes_at_the_newton_target():
    # at n = 8193 the operator's conditioning turns a backward error of
    # 1e-12 into a forward error near 1e-6: a cold drive whose Newton finish
    # stopped at 2.7e-12 here ended 6.1e-6 away from the warm drive
    op = make_op(n=8193)
    psi = op.grid.r ** -6.0
    g = NonlinearitySpec.power(4.0)
    res = solve_monotone(op, psi, g, outer="extrapolate")
    W = barrier_W(barrier_Z(op.grid, op.N, psi), g).values
    cold = scalar._solve_pinned(op, psi, g, W, res.outer_value, False)
    assert not cold.warm_start
    assert cold.backward_error <= 1e-14
    assert _rel(cold.w.values, res.w.values) <= 1e-9


def test_warm_start_that_is_no_supersolution_falls_back(solve_calls):
    # half the solution is below it, so the first warm sweep rises: the
    # warm attempt is discarded and the answer is the drive from W
    op = make_op(n=1025)
    psi = op.grid.r ** -3.5
    g = NonlinearitySpec.power(1.0)
    pin = 0.01
    cold = solve_monotone(op, psi, g, outer=pin)
    solve_calls.clear()
    res = solve_monotone(op, psi, g, outer=pin, start=0.5 * cold.w.values)
    assert not res.warm_start and not cold.warm_start
    assert np.array_equal(res.w.values, cold.w.values)
    assert res.backward_error == cold.backward_error
    assert [st.sweeps for st in res.stages] == [st.sweeps for st in cold.stages]
    assert res.solves == len(solve_calls) > cold.solves


def test_warm_start_from_the_solution_keeps_the_certificates():
    op = make_op(n=1025)
    psi = op.grid.r ** -3.5
    g = NonlinearitySpec.power(1.0)
    cold = solve_monotone(op, psi, g, outer="barrier")
    res = solve_monotone(op, psi, g, outer="barrier", start=cold.w.values)
    assert res.warm_start and len(res.stages) == 1 and res.stages[0].delta == 0.0
    assert res.solves < cold.solves
    assert _rel(res.w.values, cold.w.values) <= 1e-9
    assert res.monotone_ok and res.sandwiched and res.backward_error < 1e-10
    assert np.array_equal(res.barriers.lower.values, cold.barriers.lower.values)
    assert np.array_equal(res.barriers.upper.values, cold.barriers.upper.values)


@pytest.mark.parametrize("start,outer", [
    ("short", 0.01), ("nan", 0.01), ("inf", 0.01), ("zero", 0.01),
    ("negative", 0.01), ("good", "extrapolate"),
])
def test_bad_start_is_config_error(start, outer):
    op = make_op(n=257)
    vals = op.grid.r ** -1.0
    if start == "short":
        vals = vals[:-1]
    elif start == "nan":
        vals[10] = np.nan
    elif start == "inf":
        vals[10] = np.inf
    elif start == "zero":
        vals[10] = 0.0
    elif start == "negative":
        vals[10] = -1.0
    with pytest.raises(ConfigError):
        solve_monotone(op, op.grid.r ** -4.0, NonlinearitySpec.power(1.0),
                       outer=outer, start=vals)


def test_start_may_be_zero_at_the_outer_node():
    op = make_op(n=257)
    vals = op.grid.r ** -1.0
    vals[-1] = 0.0
    res = solve_monotone(op, op.grid.r ** -4.0, NonlinearitySpec.power(1.0),
                         outer=0.0, start=vals)
    assert res.outer_value == 0.0 and res.w.values[-1] == 0.0


# tuples on which the drive from W reports monotone_ok False at n = 257;
# on the last the reported drive takes 13 solves against 94 for the drive
# from W at the same pin
_HARD = [(5, 3.0, 2.0), (5, 3.5, 2.0), (5, 3.5, 4.0), (5, 4.0, 2.0), (5, 4.0, 4.0),
         (3, 6.0, 4.0), (3, 8.0, 4.0), (3, 10.0, 4.0), (3, 3.5, 8.0)]


@pytest.mark.parametrize("N,alpha,s", _HARD)
def test_warm_reported_drive_matches_the_cold_drive(monkeypatch, N, alpha, s):
    op = make_op(n=257, N=N)
    psi = op.grid.r ** -alpha
    g = NonlinearitySpec.power(s)
    W = barrier_W(barrier_Z(op.grid, N, psi), g).values
    real = scalar._solve_pinned
    reported = []

    def spy(*args, **kwargs):
        reported.append(real(*args, **kwargs))
        return reported[-1]

    monkeypatch.setattr(scalar, "_solve_pinned", spy)
    res = solve_monotone(op, psi, g, outer="extrapolate")
    cold = real(op, psi, g, W, res.outer_value, False)
    assert reported[-1].warm_start
    assert _rel(res.w.values, cold.w.values) <= 1e-8
    assert reported[-1].solves <= cold.solves
    assert res.monotone_ok and res.sandwiched


@pytest.mark.parametrize("N,n,alpha,s", [
    (3, 2049, 6.0, 1.0),
    pytest.param(3, 257, 3.5, 8.0, marks=pytest.mark.xfail(
        strict=True, reason="round 1's Newton from W stops at backward error 1.0, "
        "and the drive it falls back to needs its 500-sweep cap")),
])
def test_no_pin_round_falls_back_to_the_drive(monkeypatch, N, n, alpha, s):
    # the pin rounds' Newton converges, so the reported drive is the only one
    op = make_op(n=n, N=N)
    real = scalar._solve_pinned
    drives = []

    def spy(*args, **kwargs):
        drives.append(real(*args, **kwargs))
        return drives[-1]

    monkeypatch.setattr(scalar, "_solve_pinned", spy)
    solve_monotone(op, op.grid.r ** -alpha, NonlinearitySpec.power(s), outer="extrapolate")
    assert len(drives) == 1 and drives[0].warm_start


@pytest.mark.parametrize("outer", ["extrapolated", "zero", -0.5, float("nan")],
                         ids=["misspelled-mode", "retired-zero", "negative-pin", "nan-pin"])
@pytest.mark.parametrize("source", ["zero", "positive"])
def test_bad_outer_is_config_error(outer, source):
    op = make_op(n=257)
    psi = np.zeros(257) if source == "zero" else op.grid.r ** -4.0
    with pytest.raises(ConfigError):
        solve_monotone(op, psi, NonlinearitySpec.power(1.0), outer=outer)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), -1.0],
                         ids=["nan", "inf", "-inf", "negative"])
@pytest.mark.parametrize("where", ["Psi", "A", "s"])
def test_nonfinite_or_negative_scalar_input_is_config_error(where, bad):
    op = make_op(n=257)
    data = op.grid.r ** -4.0
    data[100] = bad
    with pytest.raises(ConfigError):
        if where == "Psi":
            solve_monotone(op, data, NonlinearitySpec.power(1.0))
        elif where == "A":
            barrier_Z(op.grid, 3, data)
        else:
            NonlinearitySpec(bad)


def test_linear_nonlinearity_is_config_error():
    # g == 1 is no monotone problem: the calibration's linear references are
    # the barrier potential Z itself
    with pytest.raises(ConfigError):
        NonlinearitySpec(0.0)


# ---------------------------------------------------------------------------
# monotone solver: decay laws of the singular scalar problem


@pytest.mark.parametrize("alpha,expected", [(2.5, -0.25), (3.5, -0.75)])
def test_singular_branch_exponents(alpha, expected):
    op = make_op(n=4097)
    r = op.grid.r
    res = solve_monotone(op, r ** -alpha, NonlinearitySpec.power(1.0), outer="extrapolate")
    fit = fit_power(res.w, (10.0, 1e3))
    assert fit.power == pytest.approx(expected, abs=0.05)


def test_saturated_branch_exponent():
    op = make_op(n=4097)
    r = op.grid.r
    res = solve_monotone(op, r ** -6.0, NonlinearitySpec.power(1.0), outer="extrapolate")
    fit = fit_power_log(res.w, (10.0, 1e3), 1.0)
    assert fit.power == pytest.approx(-1.0, abs=0.05)
    assert fit.log_power == pytest.approx(0.0, abs=0.05)


def test_threshold_branch_log_correction():
    op = make_op(n=4097)
    r = op.grid.r
    res = solve_monotone(op, r ** -4.0, NonlinearitySpec.power(1.0), outer="extrapolate")
    fit = fit_power_log(res.w, (10.0, 1e3), 1.0)
    assert fit.power == pytest.approx(-1.0, abs=0.05)
    assert fit.log_power == pytest.approx(0.5, abs=0.1)


def test_amplitude_of_interior_solution():
    # unit-amplitude source r^-3.5, s=1: interior amplitude is 0.1875^(-1/2);
    # the inner layer decays slowly, so measure far out on a wide domain
    op = assemble_operator(build_grid(1.0, 3e7, 7681), 3)
    r = op.grid.r
    res = solve_monotone(op, r ** -3.5, NonlinearitySpec.power(1.0), outer="extrapolate")
    fit = fit_power(res.w, (3e4, 3e6))
    assert fit.amplitude == pytest.approx(0.1875 ** -0.5, rel=0.02)


# ---------------------------------------------------------------------------
# nonlinear comparison principle (sampled; the acceptance suite runs 10^3)


def test_discrete_comparison_nonlinear_sampled():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        n = int(rng.integers(33, 97))
        op = make_op(r0=float(rng.uniform(0.5, 2.0)),
                     R=float(rng.uniform(20, 200)), n=n, N=int(rng.integers(3, 5)))
        r = op.grid.r
        s = float(rng.uniform(0.0, 3.0))
        g = NonlinearitySpec.power(s)
        psi = rng.uniform(0.2, 1.0) * r ** -float(rng.uniform(2.2, 5.0))
        psi *= 1.0 + 0.5 * rng.uniform(0.0, 1.0, n)
        bump = 1.0 + rng.uniform(0.0, 1.0, n)
        b2 = float(rng.uniform(0.01, 0.5))
        b1 = b2 + float(rng.uniform(0.0, 0.5))
        w2 = solve_monotone(op, psi, g, outer=b2, truncate_tail=True).w.values
        w1 = solve_monotone(op, psi * bump, g, outer=b1, truncate_tail=True).w.values
        assert np.all(w1 >= w2 - 1e-8 * np.maximum(w1, 1e-300))


# ---------------------------------------------------------------------------
# refusals of the pinned solve's Newton finish


@pytest.mark.parametrize("finish,error,match", [
    (lambda w: (w, 1e-6, 1), ConvergenceError, "stalled: backward error 1.00e-06"),
    (lambda w: (np.zeros_like(w), 0.0, 1), DegenerateSolveError, "collapsed"),
], ids=["unconverged", "collapsed"])
def test_pinned_solve_refuses_a_failed_finish(monkeypatch, finish, error, match):
    monkeypatch.setattr(scalar, "_newton", lambda op, psi, g, w, *rest: finish(w))
    op = make_op(n=257)
    with pytest.raises(error, match=match):
        solve_monotone(op, op.grid.r ** -6.0, NonlinearitySpec.power(1.0))
