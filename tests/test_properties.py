"""Property tests: the classifier's verdict contract and the sign and order
properties of the radial solves, over generated inputs.

The draws are derandomized, so every run checks the same examples.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gmext import (
    ExponentSet,
    NonlinearitySpec,
    Outcome,
    SystemKind,
    barrier_Z,
    classify,
    solve_monotone,
)

from conftest import cached_operator

# on a failing example hypothesis imports libcst to write a patch; with an
# old mypy_extensions installed that import warns, and under the suite's
# warnings-as-errors the warning would abort the test run instead of the
# failure being reported
pytestmark = pytest.mark.filterwarnings(
    "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")

PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=60)

N_NODES = 129
OP = cached_operator(1.0, 1e3, N_NODES, 3)

exponent = st.floats(0.1, 10.0)
exponent_sets = st.builds(
    ExponentSet, N=st.integers(2, 6), p=exponent, q=exponent, m=exponent, s=exponent,
    k=exponent, kind=st.sampled_from(list(SystemKind)),
)
nonnegative = arrays(np.float64, N_NODES,
                     elements=st.floats(0.0, 1e6, allow_subnormal=False))
pins = st.floats(0.0, 1e3, allow_subnormal=False)


@PROPERTY
@given(exponent_sets)
def test_classify_is_deterministic(params):
    assert classify(params) == classify(params)


@PROPERTY
@given(exponent_sets)
def test_only_existence_verdicts_carry_profiles(params):
    verdict = classify(params)
    assert (verdict.u_profile is not None) is verdict.exists
    assert (verdict.v_profile is not None) is verdict.exists


@PROPERTY
@given(N=st.integers(3, 6), p_over=st.floats(0.01, 5.0), m_over=st.floats(0.01, 5.0),
       s=st.floats(0.1, 5.0), sigma=st.floats(0.01, 0.99))
def test_gm_at_k_equal_N_is_inconclusive(N, p_over, m_over, s, sigma):
    # past every nonexistence test (N >= 3, m > 2/(N-2), p > N/(N-2)) with
    # sigma = m q / ((p-1)(1+s)) < 1, k = N is the gap between the two
    # existence theorems
    p = N / (N - 2.0) + p_over
    m = 2.0 / (N - 2.0) + m_over
    q = sigma * (p - 1.0) * (1.0 + s) / m
    verdict = classify(ExponentSet(N=N, p=p, q=q, m=m, s=s, k=N))
    assert (verdict.outcome, verdict.matched_condition) == (Outcome.INCONCLUSIVE, "k=N")


@PROPERTY
@given(nonnegative, pins)
def test_radial_solve_keeps_sign(rhs, pin):
    assert np.all(OP.solve(rhs, pin) >= 0.0)


@PROPERTY
@given(nonnegative, nonnegative, pins, pins)
def test_radial_solve_is_monotone(rhs, extra, pin, extra_pin):
    low = OP.solve(rhs, pin)
    high = OP.solve(rhs + extra, pin + extra_pin)
    assert np.all(high >= low)


@PROPERTY
@given(arrays(np.float64, N_NODES, elements=st.floats(0.0, 1e3, allow_subnormal=False)),
       st.floats(2.5, 8.0))
def test_linear_reference_keeps_sign_at_its_barrier_pin(data, k):
    # the calibration's linear references: g == 1 with a source that decays
    # like r^-k over the outer decade, so that the decaying solution exists
    r = OP.grid.r
    psi = np.where(r >= OP.grid.R / 10.0, 1.0, data) * r ** -k
    result = solve_monotone(OP, psi, NonlinearitySpec())
    assert np.all(result.w.values >= 0.0)
    assert result.solves == 1
    assert result.outer_value == barrier_Z(OP.grid, 3, psi).values[-1]
