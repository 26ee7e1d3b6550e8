import numpy as np
import pytest

from gmext import (
    AsymptoticProfile,
    build_grid,
    compare_profile,
    fit_power,
    fit_power_log,
)
from gmext.grid import GridFunction
from gmext.errors import CollinearWindowError, WindowError


def sample(f, r0=1.0, R=1e5, n=2049):
    grid = build_grid(r0, R, n)
    return GridFunction(grid, f(grid.r))


def test_exact_power_law():
    w = sample(lambda r: 3.0 * r ** -2.0)
    fit = fit_power(w, (10, 1e4))
    assert fit.power == pytest.approx(-2.0, abs=1e-12)
    assert fit.amplitude == pytest.approx(3.0, rel=1e-12)
    assert fit.rms_residual < 1e-12


def test_one_decade_window_with_override():
    # closed form with a tiny correction: the short window still lands within
    # one percent when explicitly allowed
    w = sample(lambda r: 1 / r - 0.5 / r ** 2)
    fit = fit_power(w, (1e2, 1e3), min_decades=1.0)
    assert fit.power == pytest.approx(-1.0, abs=0.01)


def test_short_window_rejected_by_default():
    w = sample(lambda r: r ** -1.0)
    with pytest.raises(WindowError):
        fit_power(w, (1e2, 1e3))


def test_power_log_synthetic():
    w = sample(lambda r: r ** -1.0 * np.log(r) ** 0.5, R=1e5)
    fit = fit_power_log(w, (1e2, 1e4), 1.0)
    assert fit.power == pytest.approx(-1.0, abs=0.02)
    assert fit.log_power == pytest.approx(0.5, abs=0.05)


def test_power_log_degenerate_log_term():
    w = sample(lambda r: r ** -1.0)
    fit = fit_power_log(w, (10, 1e4), 1.0)
    assert fit.power == pytest.approx(-1.0, abs=0.01)
    assert fit.log_power == pytest.approx(0.0, abs=0.05)


def test_power_log_theta_half_case():
    # synthetic r^(2-N) log^(1-theta) with N = 3, theta = 0.5
    w = sample(lambda r: r ** -1.0 * np.log(r) ** 0.5, R=1e6, n=4097)
    fit = fit_power_log(w, (1e2, 1e5), 1.0)
    assert fit.log_power == pytest.approx(0.5, abs=0.05)


def test_pure_power_fit_biased_by_log_factor():
    # a plain power fit on log-corrected data drifts away from the power
    w = sample(lambda r: r ** -1.0 * np.log(r) ** 0.5, R=1e5)
    fit = fit_power(w, (1e2, 1e4))
    assert abs(fit.power - (-1.0)) > 0.03


def test_collinearity_guard():
    grid = build_grid(1.0, 1e5, 4097)
    w = GridFunction(grid, grid.r ** -1.0)
    # a very tight window (in log-log terms) cannot separate the regressors;
    # force it through the decade guard to hit the rank check
    with pytest.raises((CollinearWindowError, WindowError)):
        fit_power_log(w, (100.0, 101.0), 1.0)


def test_window_validation():
    w = sample(lambda r: r ** -1.0)
    with pytest.raises(WindowError):
        fit_power(w, (0.0, 100.0))
    with pytest.raises(WindowError):
        fit_power(w, (100.0, 10.0))
    for window in [(10.0, np.inf), (np.nan, 1e3), (10.0, np.nan)]:
        with pytest.raises(WindowError):
            fit_power(w, window)
    with pytest.raises(WindowError):
        fit_power_log(w, (0.5, 1e3), 1.0)  # starts below r0


def test_fit_requires_positive_values():
    grid = build_grid(1.0, 1e4, 257)
    vals = grid.r ** -1.0
    vals[100] = 0.0
    with pytest.raises(WindowError):
        fit_power(GridFunction(grid, vals), (10, 1e3))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_fit_refuses_non_finite_values(bad):
    # NaN and inf pass a test for values <= 0; the fit returned NaN for them
    grid = build_grid(1.0, 1e4, 257)
    vals = grid.r ** -1.0
    vals[100] = bad
    with pytest.raises(WindowError, match="positive finite"):
        fit_power(GridFunction(grid, vals), (10, 1e3))
    with pytest.raises(WindowError, match="positive finite"):
        fit_power_log(GridFunction(grid, vals), (10, 1e3), 1.0)


# ---------------------------------------------------------------------------
# profile comparison


def test_compare_pass_cases():
    pure = AsymptoticProfile(-1.0)
    half = AsymptoticProfile(-0.5)
    logp = AsymptoticProfile(-1.0, 0.5)
    from gmext.fitting import FitResult

    def fr(p, lp):
        return FitResult(p, lp, 1.0, 0.0)

    assert compare_profile(fr(-1.01, 0.0), pure) is True
    assert compare_profile(fr(-0.52, 0.0), half) is True
    assert compare_profile(fr(-1.0, 0.48), logp) is True
    assert compare_profile(fr(-1.2, 0.0), pure) is False
    assert compare_profile(fr(-1.0, 0.3), logp) is False


def test_fit_design_refusals():
    from gmext.fitting import fit_design

    # two nodes per decade leave 5 in a two-decade window
    with pytest.raises(WindowError, match="fewer than 8"):
        fit_design(build_grid(1.0, 1e4, 9), (10.0, 1e3))
    # a window of 0.002 decades, with 43 nodes, cannot separate ln r from
    # ln ln r
    with pytest.raises(CollinearWindowError):
        fit_design(build_grid(99.0, 102.0, 257), (100.0, 100.5), 0.0, 1.0)
