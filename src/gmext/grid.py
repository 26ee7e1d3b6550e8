"""Log-radial meshes and the radial Laplacian on an exterior domain.

The mesh is uniform in xi = ln(r/r0) because every quantity of interest here
is (close to) a power law: equal resolution per decade is what makes decay
exponents fittable over r in [r0, 1e4*r0] and beyond.

In xi-coordinates the radial Laplacian reads

    -Lap w = -r^-2 ( w_xixi + (N-2) w_xi ),

discretized with second-order central differences.  The inner row encodes the
zero Neumann condition through a ghost-node reflection (second order); the
outer row is a Dirichlet row with a caller-supplied value.  The resulting
tridiagonal matrix has positive diagonal, nonpositive off-diagonals and is
weakly diagonally dominant with a strictly dominant Dirichlet row: an
irreducible M-matrix, so the inverse is nonnegative and the scheme obeys a
discrete comparison principle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded
from scipy.linalg.lapack import dgbsv

from .errors import ConfigError, DivergedError

# Soft precondition for meaningful asymptotics work (documented, not
# enforced: tiny grids remain constructible for closed-form checks).
RECOMMENDED_MIN_NODES = 16


@dataclass(frozen=True)
class RadialGrid:
    r0: float
    R: float
    n: int
    xi: np.ndarray
    r: np.ndarray

    @property
    def h(self) -> float:
        return float(self.xi[1] - self.xi[0])

    def window_mask(self, lo: float, hi: float) -> np.ndarray:
        return (self.r >= lo) & (self.r <= hi)

    def default_window(self) -> tuple[float, float]:
        """One decade in from each boundary, clear of both boundary layers."""
        return 10.0 * self.r0, self.R / 10.0


@dataclass(frozen=True)
class GridFunction:
    grid: RadialGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.values.shape != (self.grid.n,):
            raise ConfigError("values must match the grid size")


def build_grid(r0: float, R: float, n: int) -> RadialGrid:
    """Uniform xi-mesh with r = r0 * exp(xi).

    ``r[0]`` is r0 exactly, but ``r[-1]`` is R only up to rounding: for
    r0 = 1, R = 1e4, n = 4097 it is 10000.00000000001, so ``grid.R`` and
    ``grid.r[-1]`` can differ in the last digits.
    """
    if not (r0 > 0 and R > r0):
        raise ConfigError(f"need R > r0 > 0, got r0={r0}, R={R}")
    if n < 2:
        raise ConfigError(f"need at least two nodes, got n={n}")
    xi = np.linspace(0.0, np.log(R / r0), int(n))
    r = r0 * np.exp(xi)
    return RadialGrid(r0=float(r0), R=float(R), n=int(n), xi=xi, r=r)


def grid_for_decades(r0: float, R: float, nodes_per_decade: int = 1024) -> RadialGrid:
    decades = np.log10(R / r0)
    n = int(round(decades * nodes_per_decade)) + 1
    return build_grid(r0, R, max(n, RECOMMENDED_MIN_NODES))


@dataclass(frozen=True)
class RadialOperator:
    """Tridiagonal form of -Lap on a RadialGrid, with boundary rows baked in.

    Row 0 is the Neumann (ghost-reflected) row, rows 1..n-2 the interior
    stencil, row n-1 an identity Dirichlet row.  ``sub[i]``, ``diag[i]``,
    ``sup[i]`` hold the coefficients of row i.
    """

    grid: RadialGrid
    N: int
    sub: np.ndarray
    diag: np.ndarray
    sup: np.ndarray

    def apply(self, w: np.ndarray) -> np.ndarray:
        """L w in difference form: rows 0..n-2 have zero row sum by
        construction, so constants are annihilated exactly."""
        out = np.zeros_like(w)
        out[:-1] += self.sup[:-1] * (w[1:] - w[:-1])
        out[1:-1] += self.sub[1:-1] * (w[:-2] - w[1:-1])
        out[-1] = w[-1]
        return out

    def abs_row_action(self, w: np.ndarray) -> np.ndarray:
        """Row-wise |L| |w|, the natural scale for backward-error tests."""
        aw = np.abs(w)
        out = np.abs(self.diag) * aw
        out[:-1] += np.abs(self.sup[:-1]) * aw[1:]
        out[1:] += np.abs(self.sub[1:]) * aw[:-1]
        return out

    def solve(self, rhs: np.ndarray, outer_value: float, shift: np.ndarray | None = None) -> np.ndarray:
        """Solve (L + diag(shift)) w = rhs with the outer row forced to
        ``outer_value``.  ``shift`` never touches the Dirichlet row."""
        n = self.grid.n
        d = self.diag.copy()
        if shift is not None:
            d[:-1] += shift[:-1]
        ab = np.zeros((3, n))
        ab[0, 1:] = self.sup[:-1]
        ab[1, :] = d
        ab[2, :-1] = self.sub[1:]
        b = np.asarray(rhs, dtype=float).copy()
        b[-1] = outer_value
        return solve_banded((1, 1), ab, b)


def solve_block(
    op: RadialOperator,
    duu: np.ndarray, duv: np.ndarray, dvu: np.ndarray, dvv: np.ndarray,
    rhs: np.ndarray,
) -> np.ndarray:
    """Solve the coupled pair

        (L + diag(duu)) x_u + diag(duv) x_v = rhs_u
        diag(dvu) x_u + (L + diag(dvv)) x_v = rhs_v

    with both Dirichlet rows kept as identity rows (the four diagonals never
    touch them).  Unknowns and ``rhs`` are interleaved, x = (u0, v0, u1, v1,
    ...), which makes the matrix (2,2)-banded.  The band is built afresh on
    every call; ``rhs`` is overwritten and the solution is returned in its
    storage.  A singular matrix raises DivergedError.
    """
    # LAPACK band storage ab[4 + i - j, j] = A[i, j] of the 2n x 2n matrix;
    # rows 0-1 are LU fill-in and need no values, and every entry outside
    # the stencil stays zero
    ab = np.zeros((7, 2 * op.grid.n), order="F")
    ab[2, 2::2] = op.sup[:-1]
    ab[2, 3::2] = op.sup[:-1]
    ab[3, 1::2] = duv
    np.add(op.diag, duu, out=ab[4, 0::2])
    np.add(op.diag, dvv, out=ab[4, 1::2])
    ab[5, 0::2] = dvu
    ab[6, 0:-2:2] = op.sub[1:]
    ab[6, 1:-2:2] = op.sub[1:]
    # Dirichlet rows of u (2n-2) and v (2n-1)
    ab[4, -2:] = 1.0
    ab[3, -1] = 0.0
    ab[5, -2] = 0.0
    _, _, x, info = dgbsv(2, 2, ab, rhs, overwrite_ab=1, overwrite_b=1)
    if info != 0:
        raise DivergedError(f"coupled Jacobian is singular (dgbsv info {info})")
    return x


def assemble_operator(grid: RadialGrid, N: int) -> RadialOperator:
    """Second-order operator; requires h <= 2/(N-2) so the off-diagonals keep
    the sign pattern that the comparison principle rests on."""
    if N < 3:
        raise ConfigError("operator assembly needs N >= 3 (N = 2 is classification-only)")
    h = grid.h
    if h > 2.0 / (N - 2.0):
        raise ConfigError(
            f"xi-spacing h={h:g} too coarse for N={N}; need h <= {2.0/(N-2.0):g} "
            "(refine the grid)"
        )
    n = grid.n
    inv_r2 = grid.r ** -2.0
    sub = np.zeros(n)
    diag = np.zeros(n)
    sup = np.zeros(n)
    sub[1:-1] = inv_r2[1:-1] * (-1.0 / h ** 2 + (N - 2.0) / (2.0 * h))
    sup[1:-1] = inv_r2[1:-1] * (-1.0 / h ** 2 - (N - 2.0) / (2.0 * h))
    # exact negation keeps row sums identically zero: constants are
    # discretely harmonic to the last bit
    diag[1:-1] = -(sub[1:-1] + sup[1:-1])
    # ghost reflection w[-1] = w[1] collapses the inner row to 2(w0 - w1)/h^2
    diag[0] = inv_r2[0] * 2.0 / h ** 2
    sup[0] = -inv_r2[0] * 2.0 / h ** 2
    diag[-1] = 1.0
    return RadialOperator(grid=grid, N=int(N), sub=sub, diag=diag, sup=sup)


def solve_linear(op: RadialOperator, rhs: np.ndarray, outer_value: float) -> GridFunction:
    """Solve -Lap w = rhs (nodal values), Neumann inner row, w(R) = outer_value.

    Nonnegative rhs and boundary value give a nonnegative solution by
    inverse-positivity; tiny negative round-off is clipped to zero.
    """
    if outer_value < 0:
        raise ConfigError("outer_value must be nonnegative")
    vals = np.asarray(rhs, dtype=float)
    if np.any(vals < 0):
        raise ConfigError("rhs must be nonnegative")
    w = op.solve(vals, outer_value)
    np.clip(w, 0.0, None, out=w)
    return GridFunction(op.grid, w)


def backward_error(op: RadialOperator, w: np.ndarray, rhs: np.ndarray) -> float:
    """Componentwise backward error of L w = rhs over the non-Dirichlet rows.

    This is |L w - rhs| scaled by |L||w| + |rhs| per row, the sharpest level a
    computed solution can meaningfully reach in floating point; machine-size
    values certify that w solves a negligibly perturbed discrete system.
    """
    res = op.apply(w) - rhs
    den = op.abs_row_action(w) + np.abs(rhs)
    den = np.maximum(den, 1e-300)
    return float(np.max(np.abs(res[:-1]) / den[:-1]))


def _windowed_residual(op: RadialOperator, w: np.ndarray, rhs: np.ndarray,
                       weight_exponent: float, window: tuple[float, float],
                       scale_rows: np.ndarray) -> float:
    """max_window |L w - rhs| r^wexp over max_window scale_rows r^wexp."""
    mask = op.grid.window_mask(*window)
    mask[-1] = False
    if not np.any(mask):
        raise ConfigError("residual window contains no grid nodes")
    wt = op.grid.r ** weight_exponent
    res = np.abs(op.apply(w) - rhs) * wt
    scale = float(np.max(scale_rows[mask] * wt[mask]))
    if scale == 0.0:
        return float(np.max(res[mask]))
    return float(np.max(res[mask]) / scale)


def weighted_residual(
    op: RadialOperator,
    w: np.ndarray,
    rhs: np.ndarray,
    weight_exponent: float,
    window: tuple[float, float],
) -> float:
    """Weighted residual certificate over the window.

    max_window |L w - rhs| r^wexp, scaled by the largest weighted row
    magnitude max_window (|L||w| + |rhs|) r^wexp.  The weight undoes the
    source decay so every decade of the window counts equally; the row
    magnitude in the scale makes the certificate meaningful down to machine
    precision (a pure source scale would bottom out near 1e-7 in double
    precision because |L||w| exceeds the source by the stiffness factor).
    """
    return _windowed_residual(op, w, rhs, weight_exponent, window,
                              op.abs_row_action(w) + np.abs(rhs))


def source_relative_residual(
    op: RadialOperator,
    w: np.ndarray,
    rhs: np.ndarray,
    weight_exponent: float,
    window: tuple[float, float],
) -> float:
    """Same weighted residual scaled by the source alone (report-only; its
    floating-point floor is eps * stiffness, around 1e-7 on fine grids)."""
    return _windowed_residual(op, w, rhs, weight_exponent, window, np.abs(rhs))
