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

Scaling row i of the n-1 non-Dirichlet rows by a weight w_i, with w_0 = 1
and w_{i+1} = w_i sup_i / sub_{i+1}, makes them symmetric: nodes i and i+1
couple through e_i = w_i sup_i in both rows, and the last e couples to the
Dirichlet node, whose value moves to the right-hand side.  The scaled
diagonal is built as -(e_{i-1} + e_i), so the scaled rows sum to zero as
exactly as the unscaled ones.  For any shift >= 0 the result is a symmetric
positive definite M-matrix, so ``RadialOperator.solve`` factors it as
LDL^T (LAPACK ``pttrf``, no pivoting needed) and solves with the factors
(``pttrs``).  The factors of the unshifted operator are kept once computed,
and so are those of the last shift, so a run of solves with one shift
factors once.  The weights grow like (R/r0)^N; an operator whose weights
leave double range is refused.  ``factor_block`` factors the coupled
Newton Jacobian with LAPACK ``gbtrf``, and ``BlockFactors.solve`` solves
with the factors (``gbtrs``) for as many right-hand sides as the caller
has.  That Jacobian closes the truncation with the exact far-field row of
``far_field`` instead of a Dirichlet row: the ghost node beyond R is
removed with R w'(R) + (N-2) w(R) = int_R^inf t f dt, so the outer value
is an unknown and no pin is needed; the source continues past R as the
power law that ``tail_power`` reads near R.  The four kernels come from
scipy's compiled LAPACK extension, which the first solve loads by file
(about 4 MB and 20 ms) without importing the ``scipy.linalg`` package
(about 25 MB and 0.2 s); when that file is not found the first solve
imports ``scipy.linalg.lapack`` instead.  Building grids and operators, and
everything that only classifies or fits, needs numpy alone.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
from dataclasses import dataclass, field
from functools import cache
from pathlib import Path

import numpy as np

from .errors import ConfigError, DivergedError

# Soft precondition for meaningful asymptotics work (documented, not
# enforced: tiny grids remain constructible for closed-form checks).
RECOMMENDED_MIN_NODES = 16


@cache
def _lapack():
    """scipy's compiled LAPACK wrappers, the module that
    ``scipy.linalg.lapack`` re-exports, loaded once per process from its
    file.  ``import scipy`` comes first because that is where wheels set up
    the path to their bundled OpenBLAS.  The file layout is not public API,
    so when no file is found, or it does not load, the package is imported
    instead."""
    import scipy

    linalg = Path(scipy.__file__).parent / "linalg"
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = linalg / f"_flapack{suffix}"
        if path.is_file():
            # the last part of the name must be _flapack, which names the
            # extension's init function; the module is not put in sys.modules
            spec = importlib.util.spec_from_file_location(f"{__name__}._flapack", path)
            try:
                module = importlib.util.module_from_spec(spec)
                spec.loader.exec_module(module)
            except (ImportError, OSError):
                break
            return module
    from scipy.linalg import lapack

    return lapack


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
        """The nodes in [lo, hi].  A bound that is a node up to rounding
        selects that node on every grid: each bound has a relative slack of
        1e-12, far below any spacing."""
        return (self.r >= lo * (1.0 - 1e-12)) & (self.r <= hi * (1.0 + 1e-12))

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
    if not 0 < r0 < R < np.inf:
        raise ConfigError(f"need finite R > r0 > 0, got r0={r0}, R={R}")
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
    ``sup[i]`` hold the coefficients of row i.  ``weight``, ``off`` and
    ``sym_diag`` (n-1 entries each) are the symmetric form of rows 0..n-2
    described in the module docstring: the row weights w, the couplings e
    (``off[-1]`` to the Dirichlet node) and the diagonal -(e_{i-1} + e_i).
    """

    grid: RadialGrid
    N: int
    sub: np.ndarray
    diag: np.ndarray
    sup: np.ndarray
    weight: np.ndarray
    off: np.ndarray
    sym_diag: np.ndarray
    # LDL^T factors: "unshifted" -> (d, e), "shifted" -> (shift[:-1], d, e)
    _factors: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def apply(self, w: np.ndarray) -> np.ndarray:
        """L w in difference form: rows 0..n-2 have zero row sum by
        construction, so constants are annihilated exactly."""
        # one forward difference serves both couplings: w[i-1] - w[i] is
        # -dp[i-1] exactly, so subtracting sub * dp matches the second
        # difference bit for bit
        dp = w[1:] - w[:-1]
        out = np.empty_like(w)
        np.multiply(self.sup[:-1], dp, out=out[:-1])
        out[1:-1] -= self.sub[1:-1] * dp[:-1]
        out[-1] = w[-1]
        return out

    def abs_row_action(self, w: np.ndarray) -> np.ndarray:
        """Row-wise |L| |w|, the natural scale for backward-error tests.

        ``assemble_operator`` gives diag > 0 and sub, sup <= 0, so |L| is
        diag on the diagonal and -sub, -sup off it, exactly."""
        aw = np.abs(w)
        out = self.diag * aw
        out[:-1] -= self.sup[:-1] * aw[1:]
        out[1:] -= self.sub[1:] * aw[:-1]
        return out

    def solve(self, rhs: np.ndarray, outer_value: float, shift: np.ndarray | None = None) -> np.ndarray:
        """Solve (L + diag(shift)) w = rhs with the outer row forced to
        ``outer_value``.  ``shift`` never touches the Dirichlet row.

        The symmetric form of the non-Dirichlet rows is factored as LDL^T
        and solved with the factors.  The unshifted factors are computed on
        the first unshifted solve and kept; the factors of the last shift
        are kept too, and reused while ``shift[:-1]`` is equal in value, so
        the answer is the same bit for bit whether the factors are fresh or
        kept.  The contract is ``shift >= 0``, which keeps an M-matrix; a
        shift that leaves the matrix indefinite, non-finite data or a
        singular matrix raises DivergedError.  The operator's arrays and
        the caller's are never written.
        """
        d, e = self._factor(shift)
        w = np.empty(self.grid.n)
        b = w[:-1]
        np.multiply(self.weight, np.asarray(rhs, dtype=float)[:-1], out=b)
        b[-1] -= self.off[-1] * outer_value
        if not np.isfinite(b).all():
            raise DivergedError("tridiagonal solve got a non-finite rhs or outer value")
        # b is a contiguous view of w, so pttrs writes the solution into w
        _lapack().dpttrs(d, e, b, overwrite_b=1)
        w[-1] = outer_value
        return w

    def _factor(self, shift: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
        """LDL^T factors (d, e) of the symmetric form of L + diag(shift),
        from the cache when they are there."""
        key = None if shift is None else np.asarray(shift, dtype=float)[:-1]
        slot = "unshifted" if key is None else "shifted"
        kept = self._factors.get(slot)
        if kept is not None and (key is None or np.array_equal(kept[0], key)):
            return kept[1], kept[2]
        d = self.sym_diag if key is None else self.sym_diag + self.weight * key
        if not np.isfinite(d).all():
            raise DivergedError("tridiagonal solve got a non-finite shift")
        # the wrapper wants one entry of e even for a 1x1 block, which
        # LAPACK never reads
        d, e, info = _lapack().dpttrf(d, self.off[:max(d.size - 1, 1)])
        if info != 0:
            raise DivergedError(f"shifted operator is not positive definite (dpttrf info {info})")
        self._factors[slot] = (None if key is None else key.copy(), d, e)
        return d, e


@dataclass(frozen=True)
class BlockFactors:
    """Banded LU factors (LAPACK ``gbtrf``) of the coupled Jacobian built by
    ``factor_block``: ``lu`` in LAPACK band storage and the pivots ``piv``.
    ``solve`` may be called any number of times; it writes neither array."""

    lu: np.ndarray
    piv: np.ndarray

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """The solution of the factored system for ``rhs`` (LAPACK
        ``gbtrs``); ``rhs`` is overwritten and the solution is returned in
        its storage."""
        return _lapack().dgbtrs(self.lu, 2, 2, rhs, self.piv, overwrite_b=1)[0]


def far_field(op: RadialOperator) -> tuple[float, float, float]:
    """The exact far-field row at the outer node, as (a_sub, a_diag, kappa).

    A decaying radial solution of -Lap w = f satisfies
    R w'(R) + (N-2) w(R) = T with T = int_R^inf t f dt (Hagstrom & Keller,
    Math. Comp. 48, 1987).  The central differences of the outer row reach
    a ghost node beyond R, which this condition, w_xi + (N-2) w = T,
    removes; the row left is a_sub w[n-2] + a_diag w[n-1] = f[n-1] + kappa T.
    It is the condition times about 2 / (h R^2), with an O(h^2) error in T,
    and the solution it closes converges at second order.
    """
    h, c, R2 = op.grid.h, op.N - 2.0, op.grid.r[-1] ** 2
    return -2.0 / (h * h * R2), (2.0 / h ** 2 + 2.0 * c / h + c * c) / R2, (2.0 / h + c) / R2


def tail_window(r: np.ndarray, R: float) -> slice:
    """The nodes of ``r`` in [R/30, R/3], where ``tail_power`` and the
    scalar pin extrapolation read a profile's outer power law.  Fewer than
    two nodes there (R < 3 r0, or less than one node per ln 10) leave no
    power to read, which is a ConfigError."""
    i, k = np.searchsorted(r, R / 30.0), np.searchsorted(r, R / 3.0, side="right")
    if k - i < 2:
        raise ConfigError(f"the tail window [R/30, R/3] holds {k - i} grid nodes; it needs 2")
    return slice(i, k)


def tail_power(r: np.ndarray, f: np.ndarray) -> float:
    """The local power beta of f ~ r^-beta near the outer node r[-1]: the
    two-node slope -log(f[j] / f[i]) / log(r[j] / r[i]) between the first
    nodes at or above r[-1]/30 and r[-1]/3.  Past R a source continues as
    this power law, in ``far_field``'s tail integral and in
    ``scalar.barrier_Z``'s.  A grid with fewer than two nodes in
    [r[-1]/30, r[-1]/3] is refused (``tail_window``).  The power is not
    finite when f is not positive at both nodes; the callers refuse that,
    and a beta <= 2, themselves."""
    i, j = tail_window(r, r[-1]).start, np.searchsorted(r, r[-1] / 3.0)
    return float(np.log(f[i] / f[j]) / np.log(r[j] / r[i]))


def factor_block(
    op: RadialOperator,
    duu: np.ndarray, duv: np.ndarray, dvu: np.ndarray, dvv: np.ndarray,
) -> BlockFactors:
    """Factor the matrix of the coupled pair

        (L + diag(duu)) x_u + diag(duv) x_v = rhs_u
        diag(dvu) x_u + (L + diag(dvv)) x_v = rhs_v

    in which the outer rows of both L are the far-field rows of
    ``far_field`` in place of the operator's Dirichlet rows (the four
    diagonals add to them as to every other row).  Unknowns and right-hand
    sides are interleaved, x = (u0, v0, u1, v1, ...), which makes the matrix
    (2,2)-banded.  A singular matrix raises DivergedError.
    """
    a_sub, a_diag, _ = far_field(op)
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
    # far-field rows of u (2n-2) and v (2n-1)
    ab[4, -2:] = a_diag + duu[-1], a_diag + dvv[-1]
    ab[6, -4:-2] = a_sub
    lu, piv, info = _lapack().dgbtrf(ab, 2, 2, overwrite_ab=1)
    if info != 0:
        raise DivergedError(f"coupled Jacobian is singular (dgbtrf info {info})")
    return BlockFactors(lu, piv)


def assemble_operator(grid: RadialGrid, N: int) -> RadialOperator:
    """Second-order operator; requires h < 2/(N-2) so the off-diagonals keep
    the strict sign pattern that the comparison principle and the
    symmetrizing weights rest on (at equality sub = 0 and the weights are
    undefined), and weights inside double range."""
    if N < 3:
        raise ConfigError("operator assembly needs N >= 3 (N = 2 is classification-only)")
    h = grid.h
    if not h < 2.0 / (N - 2.0):
        raise ConfigError(
            f"xi-spacing h={h:g} too coarse for N={N}; need h < {2.0/(N-2.0):g} "
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
    # symmetric form of rows 0..n-2 (module docstring); the weights grow
    # like (R/r0)^N, and a sub rounded to zero makes them infinite
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        weight = np.concatenate([[1.0], np.cumprod(sup[:-2] / sub[1:-1])])
        off = weight * sup[:-1]
        sym_diag = -off
        sym_diag[1:] -= off[:-1]
    if not (np.all((0.0 < weight) & (weight < np.inf)) and np.isfinite(sym_diag).all()):
        raise ConfigError(
            f"the symmetrizing weights of N={N} on r0={grid.r0:g}..R={grid.R:g} "
            "leave double range (they grow like (R/r0)^N); use a smaller R/r0"
        )
    return RadialOperator(grid=grid, N=int(N), sub=sub, diag=diag, sup=sup,
                          weight=weight, off=off, sym_diag=sym_diag)


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
    res = op.apply(w)
    res -= rhs
    np.abs(res, out=res)
    den = op.abs_row_action(w)
    den += np.abs(rhs)
    np.maximum(den, 1e-300, out=den)
    res /= den
    return float(np.max(res[:-1]))


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
