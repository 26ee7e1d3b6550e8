import importlib.machinery
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gmext import (
    ExponentSet,
    SourceEnvelope,
    assemble_operator,
    backward_error,
    build_grid,
    grid_for_decades,
    solve_linear,
    solve_system,
    suggest_lambda,
)
from gmext import grid
from gmext.errors import ConfigError, DivergedError
from gmext.grid import (factor_block, far_field, source_relative_residual, tail_power,
                        weighted_residual)


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


def test_window_bounds_on_nodes_select_them_on_every_grid():
    # 10 and 1e3 are nodes of each grid up to rounding, and the rounding
    # depends on R; both edge nodes belong to the window on all six grids
    selected = []
    for R in (1e3, 1e4, 1e5, 1e6, 1e7, 1e8):
        grid = grid_for_decades(1.0, R, 1024)
        mask = grid.window_mask(10.0, 1e3)
        assert np.flatnonzero(mask).tolist() == list(range(1024, 3073))
        selected.append(grid.r[mask])
    for r in selected[1:]:
        assert r == pytest.approx(selected[0], rel=1e-14)


def test_invalid_grid_rejected():
    with pytest.raises(ConfigError):
        build_grid(2.0, 1.0, 64)
    with pytest.raises(ConfigError):
        build_grid(0.0, 1.0, 64)
    with pytest.raises(ConfigError):
        build_grid(1.0, 10.0, 1)
    for r0, R in [(1.0, np.inf), (1.0, np.nan), (np.nan, 10.0), (np.inf, np.inf)]:
        with pytest.raises(ConfigError):
            build_grid(r0, R, 64)


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


@pytest.mark.parametrize("N, R", [(3, np.exp(2.0)), (4, np.e)])
def test_operator_refuses_spacing_at_the_bound(N, R):
    # at h = 2/(N-2) sub vanishes and the symmetrizing weights are undefined
    grid = build_grid(1.0, R, 2)
    assert grid.h == 2.0 / (N - 2)
    with pytest.raises(ConfigError, match="too coarse"):
        assemble_operator(grid, N)
    assemble_operator(build_grid(1.0, R, 3), N)


def test_operator_refuses_weights_past_double_range():
    # the weights grow like (R/r0)^N: (1e10)^40 overflows, (1e10)^3 does not
    grid = build_grid(1.0, 1e10, 1025)
    with pytest.raises(ConfigError, match="double range"):
        assemble_operator(grid, 40)
    op = assemble_operator(grid, 3)
    assert np.all(np.isfinite(op.weight)) and op.weight[-1] > 1e29


def test_symmetric_form():
    # weight * (rows 0..n-2) is symmetric with off-diagonal off and
    # zero row sums, diagonal built as -(off[i-1] + off[i])
    op = make_op(R=10.0, n=17)
    A = np.diag(op.diag) + np.diag(op.sup[:-1], 1) + np.diag(op.sub[1:], -1)
    S = op.weight[:, None] * A[:-1, :]
    assert np.allclose(S[:, :-1], S[:, :-1].T, rtol=1e-14, atol=0.0)
    assert np.array_equal(np.diag(S[:, :-1], 1), op.off[:-1])
    assert S[-1, -1] == pytest.approx(op.off[-1], rel=1e-15)
    assert np.array_equal(op.sym_diag, -(op.off + np.append(0.0, op.off[:-1])))
    assert np.all(op.off < 0) and np.all(op.sym_diag > 0)


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


def _reference_kernels(op, w, rhs):
    """L w, |L| |w| and the backward error by the plain formulas: a second
    difference per coupling and |.| of every coefficient."""
    Lw = np.zeros_like(w)
    Lw[:-1] += op.sup[:-1] * (w[1:] - w[:-1])
    Lw[1:-1] += op.sub[1:-1] * (w[:-2] - w[1:-1])
    Lw[-1] = w[-1]
    aw = np.abs(w)
    absL = np.abs(op.diag) * aw
    absL[:-1] += np.abs(op.sup[:-1]) * aw[1:]
    absL[1:] += np.abs(op.sub[1:]) * aw[:-1]
    den = np.maximum(absL + np.abs(rhs), 1e-300)
    be = float(np.max(np.abs((Lw - rhs)[:-1]) / den[:-1]))
    return Lw, absL, be


@pytest.mark.parametrize("N", [3, 4, 5])
def test_kernels_match_the_plain_formulas_bit_for_bit(N):
    op = make_op(n=513, N=N)
    r = op.grid.r
    rng = np.random.default_rng(N)
    cases = [
        r ** -1.0,
        np.ones(513),
        rng.standard_normal(513) * 10.0 ** rng.uniform(-30, 30, 513),
        solve_linear(op, r ** -4.0, 1e-4).values,
    ]
    for w in cases:
        rhs = np.abs(rng.standard_normal(513)) * r ** -3.0
        Lw, absL, be = _reference_kernels(op, w, rhs)
        assert np.array_equal(op.apply(w), Lw)
        assert np.array_equal(op.abs_row_action(w), absL)
        assert backward_error(op, w, rhs) == be


def test_tridiagonal_solve_matches_dense():
    # LDL^T against the dense L + diag(shift); the Dirichlet row ignores the
    # shift, and the operator's own diagonals survive the factorization
    rng = np.random.default_rng(11)
    n = 17
    op = make_op(R=10.0, n=n)
    before = [a.copy() for a in (op.sub, op.diag, op.sup)]
    shift = rng.uniform(0.0, 2.0, n)
    rhs = rng.uniform(-1.0, 1.0, n)
    outer_value = 0.7
    A = np.diag(op.diag + np.append(shift[:-1], 0.0))
    A += np.diag(op.sup[:-1], 1) + np.diag(op.sub[1:], -1)
    b = rhs.copy()
    b[-1] = outer_value
    expected = np.linalg.solve(A, b)
    x = op.solve(rhs, outer_value, shift)
    assert np.allclose(x, expected, rtol=1e-12, atol=1e-14)
    assert x[-1] == outer_value
    other = shift.copy()
    other[-1] = 1e6
    assert np.array_equal(op.solve(rhs, outer_value, other), x)
    for kept, now in zip(before, (op.sub, op.diag, op.sup)):
        assert np.array_equal(kept, now)


def test_tridiagonal_solve_bad_data_raises_diverged():
    op = make_op(R=2.0, n=2)
    with pytest.raises(DivergedError):
        op.solve(np.array([np.nan, 0.0]), 1.0)
    with pytest.raises(DivergedError):
        op.solve(np.ones(2), float("nan"))
    # shift = -diag zeroes the first column exactly
    with pytest.raises(DivergedError):
        op.solve(np.ones(2), 1.0, -op.diag)


def test_two_point_grid_solves():
    # n = 2 leaves a 1x1 block: row 0 is diag[0] w0 + sup[0] w1 = rhs[0]
    op = make_op(R=2.0, n=2)
    w = op.solve(np.array([3.0, 0.0]), 0.5)
    assert w[1] == 0.5
    assert w[0] == pytest.approx((3.0 - op.sup[0] * 0.5) / op.diag[0], rel=1e-15)
    shifted = op.solve(np.array([3.0, 0.0]), 0.5, np.array([1.0, 7.0]))
    assert shifted[0] == pytest.approx((3.0 - op.sup[0] * 0.5) / (op.diag[0] + 1.0), rel=1e-15)


def test_kept_factors_give_identical_solves():
    rng = np.random.default_rng(5)
    n = 513
    shifts = rng.uniform(0.0, 1.0, (2, n))
    rhs = rng.uniform(0.0, 1.0, n)
    calls = [(None, 0.3), (shifts[0], 0.3), (shifts[0], 0.8), (shifts[1], 0.3),
             (None, 0.8), (shifts[0].copy(), 0.3)]
    warm = make_op(n=n)
    kept = [a.copy() for a in (warm.weight, warm.off, warm.sym_diag)]
    for shift, outer in calls:
        cold = make_op(n=n).solve(rhs, outer, shift)
        assert np.array_equal(warm.solve(rhs, outer, shift), cold)
    # a shift changed in place after its solve is not taken for the old one
    shift = shifts[1].copy()
    warm.solve(rhs, 0.3, shift)
    shift[5] += 1.0
    assert np.array_equal(warm.solve(rhs, 0.3, shift), make_op(n=n).solve(rhs, 0.3, shift))
    for before, now in zip(kept, (warm.weight, warm.off, warm.sym_diag)):
        assert np.array_equal(before, now)


def test_indefinite_shift_raises_diverged():
    # a uniform shift below -lambda_min of L (whose eigenvalues are real and
    # positive, L being similar to a symmetric positive definite matrix)
    # leaves every diagonal entry positive but the matrix indefinite
    op = make_op(R=10.0, n=33)
    A = np.diag(op.diag) + np.diag(op.sup[:-1], 1) + np.diag(op.sub[1:], -1)
    lam_min = float(np.min(np.linalg.eigvals(A[:-1, :-1]).real))
    assert 0.0 < 2.0 * lam_min < np.min(op.diag[:-1])
    rhs = np.ones(33)
    op.solve(rhs, 1.0, np.full(33, -0.5 * lam_min))
    with pytest.raises(DivergedError, match="not positive definite"):
        op.solve(rhs, 1.0, np.full(33, -2.0 * lam_min))
    with pytest.raises(DivergedError):
        op.solve(rhs, 1.0, np.full(33, np.nan))


def _thomas_longdouble(op, rhs, outer_value, shift):
    """Thomas elimination of (L + diag(shift)) w = rhs, w[-1] = outer_value,
    in long double on the operator's own (unscaled) coefficients."""
    ld = np.longdouble
    a, b, c = (x.astype(ld) for x in (op.sub, op.diag, op.sup))
    d = rhs.astype(ld)
    if shift is not None:
        b[:-1] += shift[:-1].astype(ld)
    d[-1] = ld(outer_value)
    n = len(d)
    cp, dp = np.zeros(n, dtype=ld), np.zeros(n, dtype=ld)
    cp[0], dp[0] = c[0] / b[0], d[0] / b[0]
    for i in range(1, n):
        piv = b[i] - a[i] * cp[i - 1]
        cp[i] = c[i] / piv
        dp[i] = (d[i] - a[i] * dp[i - 1]) / piv
    x = dp.copy()
    for i in range(n - 2, -1, -1):
        x[i] -= cp[i] * x[i + 1]
    return x


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="needs an extended-precision long double")
@pytest.mark.parametrize("shifted", [False, True])
def test_forward_error_matches_pivoted_lu(shifted):
    # the symmetric LDL^T solve is as accurate as LAPACK's pivoted gtsv on
    # the unscaled rows, measured against a long-double reference
    from scipy.linalg.lapack import dgtsv

    op = make_op(n=4097)
    r = op.grid.r
    rhs, outer_value, shift = r ** -4.0, 1e-4, None
    if shifted:
        # a Newton step of -Lap w = r^-4 w^-2 at w = 1/r
        w = 1.0 / r
        shift = 2.0 * r ** -4.0 * w ** -3.0
        rhs = r ** -4.0 * w ** -2.0 + shift * w
    exact = _thomas_longdouble(op, rhs, outer_value, shift)

    def rel_err(x):
        return float(np.max(np.abs(x - exact) / np.abs(exact)))

    d = op.diag.copy()
    if shift is not None:
        d[:-1] += shift[:-1]
    b = rhs.copy()
    b[-1] = outer_value
    lu = dgtsv(op.sub[1:].copy(), d, op.sup[:-1].copy(), b)[3]
    assert rel_err(op.solve(rhs, outer_value, shift)) <= 10.0 * rel_err(lu)


def _dense_block(op, duu, duv, dvu, dvv):
    """The interleaved (u0, v0, u1, v1, ...) 2n x 2n block matrix, whose
    outer u and v rows are the far-field rows, with the four diagonals
    added to them as to every other row."""
    n = op.grid.n
    a_sub, a_diag, _ = far_field(op)
    L = np.diag(op.diag) + np.diag(op.sup[:-1], 1) + np.diag(op.sub[1:], -1)
    L[-1, -2:] = a_sub, a_diag
    A = np.zeros((2 * n, 2 * n))
    A[0::2, 0::2] = L + np.diag(duu)
    A[0::2, 1::2] = np.diag(duv)
    A[1::2, 0::2] = np.diag(dvu)
    A[1::2, 1::2] = L + np.diag(dvv)
    return A


def test_block_solve_matches_dense():
    # the kept-factor band solve against a dense solve of the block matrix
    rng = np.random.default_rng(7)
    n = 17
    for N in (3, 4, 5):
        op = make_op(R=10.0, n=n, N=N)
        diagonals = rng.uniform(0.0, 2.0, (4, n))
        rhs = rng.uniform(-1.0, 1.0, 2 * n)
        expected = np.linalg.solve(_dense_block(op, *diagonals), rhs)
        x = factor_block(op, *diagonals).solve(rhs.copy())
        assert np.allclose(x, expected, rtol=1e-12, atol=1e-14)


def test_block_factors_serve_several_right_hand_sides():
    # one factorization, three solves: each matches the dense solve, and
    # neither the factors nor the operator's arrays are written
    rng = np.random.default_rng(11)
    n = 17
    op = make_op(R=10.0, n=n)
    op_arrays = {name: getattr(op, name).copy() for name in ("sub", "diag", "sup")}
    diagonals = rng.uniform(0.0, 2.0, (4, n))
    A = _dense_block(op, *diagonals)
    factors = factor_block(op, *diagonals)
    lu, piv = factors.lu.copy(), factors.piv.copy()
    for rhs in rng.uniform(-1.0, 1.0, (3, 2 * n)):
        x = factors.solve(rhs.copy())
        assert np.allclose(x, np.linalg.solve(A, rhs), rtol=1e-12, atol=1e-14)
        assert np.array_equal(factors.lu, lu) and np.array_equal(factors.piv, piv)
    for name, kept in op_arrays.items():
        assert np.array_equal(getattr(op, name), kept)


def test_block_solve_singular_raises_diverged():
    # on two nodes, uncoupled, the u block is [[d0 + duu0, -d0], [a_sub,
    # a_diag + duu1]]; these duu make its rows (-a_sub, -d0) and (a_sub, d0)
    # exactly (R = 1.2 keeps d0, -a_sub and a_diag within a factor 2 of one
    # another, so each difference and sum is exact by Sterbenz's lemma), and
    # the second pivot is exactly zero; the factorization refuses it
    op = make_op(R=1.2, n=2)
    a_sub, a_diag, _ = far_field(op)
    d0 = op.diag[0]
    assert op.sup[0] == -d0
    zero = np.zeros(2)
    with pytest.raises(DivergedError, match="singular"):
        factor_block(op, np.array([-a_sub - d0, d0 - a_diag]), zero, zero, zero)


def _far_field_case(n):
    """The far-field row on w = 1/r - 1/(2 r^2), the decaying solution of
    -Lap w = r^-4 (N = 3) with tail T = int_R^inf t^-3 dt = R^-2 / 2, on
    [1, 100] with n nodes: the row's residual in units of its tail
    coefficient kappa (the error in T it stands for), and the largest
    nodal relative error of the block solve whose outer u row it is."""
    op = make_op(R=100.0, n=n)
    r = op.grid.r
    w = 1.0 / r - 0.5 / r ** 2
    a_sub, a_diag, kappa = far_field(op)
    T = 0.5 / r[-1] ** 2
    row = (a_sub * w[-2] + a_diag * w[-1] - r[-1] ** -4.0 - kappa * T) / kappa
    rhs = np.zeros(2 * n)
    rhs[0::2] = r ** -4.0
    rhs[-2] += kappa * T
    zero = np.zeros(n)
    u = factor_block(op, zero, zero, zero, zero).solve(rhs)[0::2]
    return abs(row), float(np.max(np.abs(u - w) / w))


def test_far_field_row_is_second_order():
    # both shrink by 4 per halving of h.  The row is the far-field condition
    # times 2 / (h R^2) (its ghost node is removed with it), so its raw
    # residual, an O(h^2) error in that condition, shrinks by 2
    cases = [_far_field_case(n) for n in (129, 257, 513)]
    for coarse, fine in zip(cases, cases[1:]):
        assert coarse[0] / fine[0] == pytest.approx(4.0, abs=0.1)
        assert coarse[1] / fine[1] == pytest.approx(4.0, abs=0.01)
    assert cases[-1][1] < 1e-4


@pytest.mark.parametrize("R,n", [(1e4, 257), (1e5, 5121), (1e6, 1537)])
@pytest.mark.parametrize("beta", [0.5, 2.0, 3.5, 7.0])
def test_tail_power_of_an_exact_power(R, n, beta):
    r = build_grid(1.0, R, n).r
    assert tail_power(r, 3.0 * r ** -beta) == pytest.approx(beta, rel=0.0, abs=1e-12)


def test_tail_power_of_a_nonpositive_tail_is_not_finite():
    r = build_grid(1.0, 1e4, 257).r
    f = r ** -3.0
    f[r >= r[-1] / 30.0] = 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        assert not np.isfinite(tail_power(r, f))


def test_windowed_residual_refuses_an_empty_window():
    op = make_op(n=257)
    w = op.grid.r ** -1.0
    # the first window falls between two nodes, the second holds only the
    # Dirichlet node
    r = op.grid.r
    for window in [(1.01 * r[0], 0.99 * r[1]), (1.01 * r[-2], r[-1])]:
        for certificate in (weighted_residual, source_relative_residual):
            with pytest.raises(ConfigError, match="no grid nodes"):
                certificate(op, w, np.zeros(op.grid.n), 0.0, window)


def test_source_relative_residual_of_a_zero_source_is_unscaled():
    # with nothing to scale by, the source-relative residual is the weighted
    # residual itself
    op = make_op(n=257)
    w = op.grid.r ** -3.0
    window = (10.0, 1e3)
    mask = op.grid.window_mask(*window)
    mask[-1] = False
    expected = np.max(np.abs(op.apply(w))[mask] * op.grid.r[mask] ** 2.0)
    assert source_relative_residual(op, w, np.zeros(op.grid.n), 2.0, window) == expected
    assert expected > 0.0


# ---------------------------------------------------------------------------
# LAPACK binding


def lapack_answers() -> np.ndarray:
    """The nodal values of one linear solve and of MIN-i's coupled solve at
    n = 257, which together call all four LAPACK kernels.  The operators
    are fresh, so no factors kept by an earlier call are reused."""
    op = make_op(n=257)
    w = solve_linear(op, op.grid.r ** -4.0, 0.0)
    params, env, op = ExponentSet(3, 5, 1, 6, 1, 4), SourceEnvelope.radial(1.0, 4), make_op(n=257)
    lam, sched = suggest_lambda(params, env, op)
    state = solve_system(params.with_lam(lam), env, op, schedule=sched)
    return np.concatenate([w.values, state.u.values, state.v.values])


@pytest.fixture
def rebind_lapack():
    # the binding is cached once per process: drop it before the test and
    # after it, so the test sees the file lookup and leaves no binding behind
    grid._lapack.cache_clear()
    yield
    grid._lapack.cache_clear()


def bound_file() -> str:
    # the extension's file when the binding is the compiled extension,
    # lapack.py when it is the scipy.linalg.lapack module
    return Path(grid._lapack().__file__).name


def test_lapack_fallback_gives_the_same_answers(rebind_lapack, monkeypatch):
    bound = lapack_answers()
    assert bound_file().startswith("_flapack.")
    # with no extension suffix the file lookup finds nothing
    monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [])
    grid._lapack.cache_clear()
    fallback = lapack_answers()
    from scipy.linalg import lapack

    assert grid._lapack() is lapack
    assert fallback.tobytes() == bound.tobytes()


LAPACK_BESIDE_SCIPY_LINALG = """
import sys

sys.path[:0] = sys.argv[1:3]
if sys.argv[3] == "before":
    import scipy.linalg
from test_grid import bound_file, lapack_answers

first = lapack_answers()
import scipy.linalg

print(bound_file())
print(first.tobytes().hex())
print(lapack_answers().tobytes().hex())
"""


@pytest.mark.parametrize("when", ["before", "after"])
def test_lapack_beside_scipy_linalg_gives_the_same_answers(rebind_lapack, when):
    # scipy.linalg imported before or after the first solve loads a second
    # copy of the extension in a fresh process; the solves do not change
    tests = Path(__file__).resolve().parent
    proc = subprocess.run(
        [sys.executable, "-c", LAPACK_BESIDE_SCIPY_LINALG, str(tests.parent / "src"), str(tests), when],
        capture_output=True, text=True, check=True,
    )
    binding, first, second = proc.stdout.split()
    assert binding.startswith("_flapack.")
    assert first == second == lapack_answers().tobytes().hex()
