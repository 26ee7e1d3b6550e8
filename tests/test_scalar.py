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
from gmext.fitting import fit_power, fit_power_log
from gmext.grid import GridFunction
from gmext.errors import DegenerateSolveError, NonintegrableSourceError


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


def test_barrier_W_linear_identity():
    op = make_op(n=16)
    Z = GridFunction(op.grid, np.linspace(0.0, 3.0, 16))
    W = barrier_W(Z, NonlinearitySpec.constant())
    assert np.array_equal(W.values, Z.values)


def test_barrier_W_closed_form_chain():
    # s = 1 and Z = r^-1 - r^-2/2 give W = (2 r^-1 - r^-2)^(1/2)
    op = make_op(n=257)
    r = op.grid.r
    Z = GridFunction(op.grid, 1 / r - 0.5 / r ** 2)
    W = barrier_W(Z, NonlinearitySpec.power(1.0))
    assert np.allclose(W.values, np.sqrt(2 / r - 1 / r ** 2), rtol=1e-14)


# ---------------------------------------------------------------------------
# monotone solver: degenerate and linear paths


def test_zero_source_zero_outer_degenerates():
    op = make_op(n=257)
    with pytest.raises(DegenerateSolveError):
        solve_monotone(op, np.zeros(257), NonlinearitySpec.power(1.0), outer="zero")


def test_zero_source_propagates_outer_value():
    op = make_op(n=257)
    res = solve_monotone(op, np.zeros(257), NonlinearitySpec.power(1.0), outer=0.7)
    assert np.allclose(res.w.values, 0.7)


def test_linear_nonlinearity_single_solve():
    op = make_op(n=2049)
    r = op.grid.r
    res = solve_monotone(op, r ** -4.0, NonlinearitySpec.constant(), outer="extrapolate")
    exact = 1 / r - 0.5 / r ** 2
    assert np.max(np.abs(res.w.values[:-1] - exact[:-1]) / exact[:-1]) < 1e-3


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
    g = NonlinearitySpec.power(1.0)
    pin = float((2 / r[-1]) ** 0.5)  # roughly the barrier scale at R
    res1 = solve_monotone(op, r ** -3.5, g, outer=pin, res_tol=1e-12)
    res2 = solve_monotone(op, r ** -3.5, g, outer=pin, res_tol=1e-12, start_factor=1.5)
    diff = np.max(np.abs(res1.w.values[:-1] - res2.w.values[:-1]) / res1.w.values[:-1])
    assert diff < 1e-8
    assert res2.monotone_ok
    # the self-pinned solve starts every pin round from the scaled barrier
    ext1 = solve_monotone(op, r ** -3.5, g, outer="extrapolate", res_tol=1e-12)
    ext2 = solve_monotone(op, r ** -3.5, g, outer="extrapolate", res_tol=1e-12,
                          start_factor=1.5)
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
