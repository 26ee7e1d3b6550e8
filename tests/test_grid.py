import numpy as np
import pytest

from gmext import (
    assemble_operator,
    backward_error,
    build_grid,
    solve_linear,
)
from gmext.errors import ConfigError, DivergedError
from gmext.grid import solve_block


def make_op(r0=1.0, R=1e4, n=4097, N=3):
    return assemble_operator(build_grid(r0, R, n), N)


# ---------------------------------------------------------------------------
# grid construction


def test_grid_nodes():
    grid = build_grid(1.0, 1e4, 4097)
    assert grid.r[0] == 1.0
    assert grid.r[-1] == pytest.approx(1e4, rel=1e-15)
    assert np.all(np.diff(grid.r) > 0)
    assert grid.h == pytest.approx(np.log(1e4) / 4096)


def test_two_point_grid():
    grid = build_grid(1.0, np.e, 2)
    assert grid.r[0] == 1.0
    assert grid.r[-1] == pytest.approx(np.e, rel=1e-15)


def test_invalid_grid_rejected():
    with pytest.raises(ConfigError):
        build_grid(2.0, 1.0, 64)
    with pytest.raises(ConfigError):
        build_grid(0.0, 1.0, 64)
    with pytest.raises(ConfigError):
        build_grid(1.0, 10.0, 1)


# ---------------------------------------------------------------------------
# operator structure


def test_m_matrix_sign_pattern():
    op = make_op(n=257)
    assert np.all(op.diag > 0)
    assert np.all(op.sub[1:-1] <= 0)
    assert np.all(op.sup[:-1] <= 0)
    # weak diagonal dominance row by row; strict on the Dirichlet row
    interior = slice(1, -1)
    assert np.all(op.diag[interior] + op.sub[interior] + op.sup[interior]
                  >= -1e-12 * op.diag[interior])
    assert op.diag[-1] == 1.0 and op.sub[-1] == 0.0


def test_operator_needs_fine_enough_mesh():
    grid = build_grid(1.0, 1e4, 16)  # h = 0.61 > 2/(N-2) for N = 9
    with pytest.raises(ConfigError):
        assemble_operator(grid, 9)
    with pytest.raises(ConfigError):
        assemble_operator(grid, 2)


def test_constants_are_discretely_harmonic():
    op = make_op(n=129)
    res = op.apply(np.ones(129))
    assert np.max(np.abs(res[:-1])) == 0.0


def test_fundamental_solution_residual_second_order():
    # r^(2-N) is harmonic; the interior residual must shrink like h^2
    errs = []
    for n in (129, 257, 513):
        op = make_op(n=n)
        w = op.grid.r ** -1.0
        res = op.apply(w)
        errs.append(np.max(np.abs(res[1:-1])))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.2)


def test_manufactured_rhs_second_order():
    # w = r^-1 - r^-2/2 has -Lap w = r^-4 in three dimensions
    errs = []
    for n in (257, 513, 1025):
        op = make_op(n=n)
        r = op.grid.r
        w = 1 / r - 0.5 / r ** 2
        res = op.apply(w) - r ** -4.0
        errs.append(np.max(np.abs(res[1:-1]) * r[1:-1] ** 4))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.2)


# ---------------------------------------------------------------------------
# linear solves


def test_zero_data_gives_zero():
    op = make_op(n=257)
    w = solve_linear(op, np.zeros(257), 0.0)
    assert np.all(w.values == 0.0)


def test_neumann_oracle_r4():
    op = make_op(n=4097)
    r = op.grid.r
    exact = 1 / r - 0.5 / r ** 2
    w = solve_linear(op, r ** -4.0, float(exact[-1]))
    err = np.max(np.abs(w.values - exact) / exact)
    assert err < 1e-4


def test_interior_power_law_recovery():
    # rhs (beta-2)(N-beta) r^-beta with Dirichlet data from r^(2-beta)
    # reproduces the r^(2-beta) interior profile away from the Neumann layer
    op = make_op(n=4097)
    r = op.grid.r
    beta = 2.5
    rhs = (beta - 2) * (3 - beta) * r ** -beta
    w = solve_linear(op, rhs, float(r[-1] ** (2 - beta)))
    from gmext.fitting import fit_power

    fit = fit_power(w, (1e2, 10 ** 3.5))
    assert fit.power == pytest.approx(-0.5, abs=0.03)


def test_refinement_convergence_linear_oracle():
    errs = []
    for n in (2049, 4097):
        op = make_op(n=n)
        r = op.grid.r
        exact = 1 / r - 0.5 / r ** 2
        w = solve_linear(op, r ** -4.0, float(exact[-1]))
        errs.append(np.max(np.abs(w.values - exact) / exact))
    assert 3.2 <= errs[0] / errs[1] <= 4.8


def test_inverse_positivity_random_instances():
    # ordered nonnegative data give ordered nonnegative solutions
    rng = np.random.default_rng(42)
    for _ in range(200):
        n = int(rng.integers(33, 129))
        op = make_op(r0=float(rng.uniform(0.5, 2.0)),
                     R=float(rng.uniform(0.5, 2.0)) * 10 ** rng.uniform(1.2, 3),
                     n=n, N=int(rng.integers(3, 6)))
        f2 = rng.uniform(0.0, 1.0, n) * op.grid.r ** -rng.uniform(0, 4)
        f1 = f2 + rng.uniform(0.0, 1.0, n)
        b2 = float(rng.uniform(0.0, 1.0))
        b1 = b2 + float(rng.uniform(0.0, 1.0))
        w1 = solve_linear(op, f1, b1).values
        w2 = solve_linear(op, f2, b2).values
        assert np.all(w2 >= 0.0)
        assert np.all(w1 >= w2 - 1e-12 * np.maximum(w1, 1.0))


def test_backward_error_of_direct_solve():
    op = make_op(n=1025)
    r = op.grid.r
    w = solve_linear(op, r ** -4.0, 1e-4)
    assert backward_error(op, w.values, r ** -4.0) < 1e-13


def test_block_solve_matches_dense():
    # interleaved (u0, v0, u1, v1, ...) band solve against the dense block
    # matrix; the four diagonals must leave both Dirichlet rows untouched
    rng = np.random.default_rng(7)
    n = 17
    op = make_op(R=10.0, n=n)
    duu, duv, dvu, dvv = rng.uniform(0.0, 2.0, (4, n))
    rhs = rng.uniform(-1.0, 1.0, 2 * n)
    L = np.diag(op.diag) + np.diag(op.sup[:-1], 1) + np.diag(op.sub[1:], -1)

    def off_dirichlet(d):
        return np.diag(np.append(d[:-1], 0.0))

    A = np.zeros((2 * n, 2 * n))
    A[0::2, 0::2] = L + off_dirichlet(duu)
    A[0::2, 1::2] = off_dirichlet(duv)
    A[1::2, 0::2] = off_dirichlet(dvu)
    A[1::2, 1::2] = L + off_dirichlet(dvv)
    assert A[-2, -2] == 1.0 and np.count_nonzero(A[-2:]) == 2
    expected = np.linalg.solve(A, rhs)
    x = solve_block(op, duu, duv, dvu, dvv, rhs.copy())
    assert np.allclose(x, expected, rtol=1e-12, atol=1e-14)
    assert x[-2] == rhs[-2] and x[-1] == rhs[-1]


def test_block_solve_singular_raises_diverged():
    # duu = -diag and no coupling zero the first column exactly
    op = make_op(R=2.0, n=2)
    zero = np.zeros(2)
    with pytest.raises(DivergedError):
        solve_block(op, -op.diag, zero, zero, zero, np.ones(4))
