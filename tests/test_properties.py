"""Property tests: the classifier's verdict contract, its agreement with a
scalar reference table, the sign and order properties of the radial solves,
and the coupled solve's fixed point against a plain Newton reference, over
generated inputs.

The draws are derandomized, so every run checks the same examples.
"""

import contextlib
import csv
import io
import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, reject, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gmext import (
    AsymptoticProfile,
    ExponentSet,
    Outcome,
    RegimeVerdict,
    SourceEnvelope,
    SystemKind,
    build_grid,
    classify,
    classify_lattice,
    cli,
    coupled,
    solve_system,
    suggest_lambda,
)
from gmext.errors import ConfigError, GmextError, NoInhibitorSolutionError
from gmext.grid import factor_block, far_field
from gmext.params import _eq as _params_eq

from census import LOG_INHIBITOR_CELLS
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


existence_sets = st.builds(
    ExponentSet, N=st.integers(3, 5), p=exponent, q=exponent, m=exponent, s=exponent,
    k=exponent, kind=st.sampled_from((SystemKind.GM, SystemKind.MIXED)),
).filter(lambda params: classify(params).exists)


@PROPERTY
@given(existence_sets, st.floats(0.1, 10.0), st.floats(1.0, 8.0))
@example(LOG_INHIBITOR_CELLS[0], 1.0, 4.0)
@example(LOG_INHIBITOR_CELLS[1], 2.5, 8.0)
def test_box_profiles_are_positive_and_finite_from_r0_on(params, r0, decades):
    # the box's profiles, as the calibration, the start state and the box
    # check sample them, on [r0, R]; a log factor is anchored one e-fold
    # inside r0 and keeps the law r^power log^log_power(r/r0) at infinity
    verdict = classify(params, r0)
    r = build_grid(r0, r0 * 10.0 ** decades, 257).r
    for profile in (verdict.u_profile, verdict.v_profile):
        values = profile.values(r)
        assert np.all(values > 0) and np.all(np.isfinite(values))
        if profile.log_power:
            assert profile.values(r0) == r0 ** profile.power
            log = np.log(r[1:] / r0)
            np.testing.assert_allclose(
                values[1:] / (r[1:] ** profile.power * log ** profile.log_power),
                (1.0 + 1.0 / log) ** profile.log_power, rtol=1e-12)


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


# ---------------------------------------------------------------------------
# the verdict table against a scalar reference
#
# ``reference_classify`` is the one-tuple classifier written with
# math.isclose and if/elif chains, kept here as the oracle of the array
# classifier.  It must not be edited to follow the code under test.

def _eq(a, b):
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-300)


def _gt(a, b):
    return a > b and not _eq(a, b)


def _ge(a, b):
    return a > b or _eq(a, b)


def _reference_v(params, u):
    N, m, s = params.N, params.m, params.s
    am = -u.power * m
    if not _gt(am, 2.0):
        raise NoInhibitorSolutionError(
            f"inhibitor source decay a*m = {am:g} <= 2: no decaying solution")
    threshold = N + s * (N - 2.0)
    if _eq(am, threshold):
        return AsymptoticProfile(2.0 - N, 1.0 / (1.0 + s), u.r0)
    if am > threshold:
        return AsymptoticProfile(2.0 - N, 0.0, u.r0)
    return AsymptoticProfile(-(am - 2.0) / (1.0 + s), 0.0, u.r0)


def _reference_gm(params, r0):
    N, p, q, m, s, k = params.N, params.p, params.q, params.m, params.s, params.k
    if N == 2:
        return RegimeVerdict(Outcome.NONEXISTENCE, "Thm2.1(i)")
    if m <= 2.0 / (N - 2.0) or _eq(m, 2.0 / (N - 2.0)):
        return RegimeVerdict(Outcome.NONEXISTENCE, "Thm2.1(ii)")
    c = N / (N - 2.0)
    if p <= c or _eq(p, c):
        return RegimeVerdict(Outcome.NONEXISTENCE, "Thm2.1(iii)")
    if _ge(m * q / ((p - 1.0) * (1.0 + s)), 1.0):
        return RegimeVerdict(Outcome.INCONCLUSIVE, "sigma>=1")
    u_min = AsymptoticProfile(2.0 - N, 0.0, r0)
    if _gt(k, N):
        matched = None
        if _ge(m, s + c) and _gt(p, q + c):
            matched = "Thm2.2(i)"
        elif _eq(m, s + c) and _eq(p, q + c) and _gt(q, 1.0 + s):
            matched = "Thm2.2(ii)"
        elif _gt(m, 2.0 / (N - 2.0)) and _gt(s + c, m) and _gt(
                p, q / (1.0 + s) * (m - 2.0 / (N - 2.0)) + c):
            matched = "Thm2.2(iii)"
        if matched is None:
            return RegimeVerdict(Outcome.INCONCLUSIVE, "Thm2.2(gap)")
        return RegimeVerdict(Outcome.EXISTS_MINIMAL_GROWTH, matched, u_min,
                             _reference_v(params, u_min))
    if _eq(k, N):
        return RegimeVerdict(Outcome.INCONCLUSIVE, "k=N")
    if _gt(k, 2.0):
        a = k - 2.0
        u_fast = AsymptoticProfile(-a, 0.0, r0)
        thr = (N + s * (N - 2.0)) / a
        matched = None
        if _ge(m, thr) and _ge(p, q * (N - 2.0) / a + 1.0 + 2.0 / a):
            matched = "Thm2.3(i)"
        elif _gt(m, 2.0 / a) and _gt(thr, m) and _ge(
                p, q / (1.0 + s) * (m - 2.0 / a) + 1.0 + 2.0 / a):
            matched = "Thm2.3(ii)"
        if matched is None:
            return RegimeVerdict(Outcome.INCONCLUSIVE, "Thm2.3(gap)")
        return RegimeVerdict(Outcome.EXISTS_FAST_GROWTH, matched, u_fast,
                             _reference_v(params, u_fast))
    return RegimeVerdict(Outcome.INCONCLUSIVE, "k<=2")


def _reference_mixed(params, r0):
    N, p, q, m, s, k = params.N, params.p, params.q, params.m, params.s, params.k
    if N == 2:
        return RegimeVerdict(Outcome.NONEXISTENCE, "Thm7.1(ii1)")
    if min(q, m) <= 2.0 / (N - 2.0) or _eq(min(q, m), 2.0 / (N - 2.0)):
        return RegimeVerdict(Outcome.NONEXISTENCE, "Thm7.1(ii2)")
    c = N / (N - 2.0)
    if _gt(k, N) and _gt(q, p + c) and _gt(m, s + c):
        prof = AsymptoticProfile(2.0 - N, 0.0, r0)
        return RegimeVerdict(Outcome.EXISTS_MIXED_MINIMAL, "Thm7.2", prof, prof)
    on_boundary = _eq(k, N) or _eq(q, p + c) or _eq(m, s + c)
    return RegimeVerdict(Outcome.INCONCLUSIVE,
                         "Thm7.2(boundary)" if on_boundary else "Thm7.2(gap)")


def reference_classify(params, r0=1.0):
    if params.kind in (SystemKind.NEG_ACTIVATOR, SystemKind.NEG_BOTH):
        return RegimeVerdict(Outcome.NONEXISTENCE, "Thm7.1(i)")
    if params.kind is SystemKind.MIXED:
        return _reference_mixed(params, r0)
    return _reference_gm(params, r0)


def _verdict_or_error(classifier, params):
    try:
        return classifier(params)
    except NoInhibitorSolutionError as exc:
        return str(exc)


# where a tuple is placed: the boundaries of the verdict table
BOUNDARIES = ("k=N", "p=q+c", "m=s+c", "sigma=1", "k=2", "m=2/(N-2)", "p=c",
              "m=thr_fast", "p=fast(i)", "am=thr_min")
# exactly on a boundary, at the classifier's tolerance, and just past it
OFFSETS = (0.0, 1e-12, -1e-12, 2e-12, -2e-12, 1e-9, -1e-9)
# mostly moderate exponents, some far out, where derived bounds overflow
field = st.one_of(exponent, exponent, exponent, st.floats(1e-8, 1e300))
dimensions = st.integers(2, 6)
kinds = st.sampled_from(list(SystemKind))
bases = st.tuples(field, field, field, field, field)


def place(N, base, moves):
    """``base`` = (p, q, m, s, k) moved onto each boundary of ``moves`` in
    turn, times 1 + its offset; an out-of-range result becomes 1."""
    p, q, m, s, k = base
    c = N / (N - 2.0) if N > 2 else 2.0
    for where, offset in moves:
        off = 1.0 + offset
        a = k - 2.0 if k > 2.0 else 1.0
        if where == "k=N":
            k = N * off
        elif where == "p=q+c":
            p = (q + c) * off
        elif where == "m=s+c":
            m = (s + c) * off
        elif where == "sigma=1" and p != 1.0:
            q = abs((p - 1.0) * (1.0 + s) / m * off)
        elif where == "k=2":
            k = 2.0 * off
        elif where == "m=2/(N-2)":
            m = (c - 1.0) * off
        elif where == "p=c":
            p = c * off
        elif where == "m=thr_fast":
            m = (N + s * (N - 2.0)) / a * off
        elif where == "p=fast(i)":
            p = (q * (N - 2.0) / a + 1.0 + 2.0 / a) * off
        elif where == "am=thr_min":
            m = (N + s * (N - 2.0)) / max(N - 2.0, 1.0) * off
    return tuple(x if 0 < x < math.inf else 1.0 for x in (p, q, m, s, k))


@settings(PROPERTY, max_examples=300)
@given(dimensions, kinds, bases, st.lists(
    st.tuples(st.sampled_from(BOUNDARIES), st.sampled_from(OFFSETS)), max_size=3))
def test_classify_agrees_with_the_reference_table(N, kind, base, moves):
    params = ExponentSet(N, *place(N, base, moves), kind=kind)
    assert _verdict_or_error(classify, params) == _verdict_or_error(reference_classify, params)


@settings(PROPERTY, max_examples=60)
@given(dimensions, kinds, bases)
def test_classify_lattice_agrees_with_the_reference_table(N, kind, base):
    # one lattice: the base tuple moved onto every boundary at every
    # offset, and onto every ordered pair of boundaries at the tolerance
    near = OFFSETS[:3]
    moves = [[]] + [[(b, o)] for b in BOUNDARIES for o in OFFSETS] + [
        [(b1, o1), (b2, o2)] for b1 in BOUNDARIES for b2 in BOUNDARIES if b1 != b2
        for o1 in near for o2 in near]
    cells = [ExponentSet(N, *place(N, base, m), kind=kind) for m in moves]
    outcome, condition, u_power, u_log, v_power, v_log = classify_lattice(
        N, kind, *(np.array([getattr(x, key) for x in cells]) for key in "pqmsk"))
    for i, params in enumerate(cells):
        expected = _verdict_or_error(reference_classify, params)
        if isinstance(expected, str):  # a*m <= 2: v's powers are NaN
            assert outcome[i].value.startswith("EXISTS") and math.isnan(v_power[i])
            continue
        assert (outcome[i], condition[i]) == (expected.outcome, expected.matched_condition)
        for profile, power, log in ((expected.u_profile, u_power, u_log),
                                    (expected.v_profile, v_power, v_log)):
            if profile is None:
                assert math.isnan(power[i]) and math.isnan(log[i])
            else:
                assert (power[i], log[i]) == (profile.power, profile.log_power)


any_float = st.floats(allow_nan=True, allow_infinity=True)


@settings(PROPERTY, max_examples=300)
@given(any_float, any_float, st.sampled_from((None, *OFFSETS)))
def test_eq_is_isclose_elementwise(a, b, offset):
    if offset is not None:  # b next to a
        b = a * (1.0 + offset)
    expected = math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-300)
    assert _params_eq(a, b) is expected
    with np.errstate(invalid="ignore", over="ignore"):
        assert _params_eq(np.array([a, b]), np.array([b, a])).tolist() == [expected] * 2


# Thm2.3(ii) passes with m just over 2/a by the 1e-12 tolerance, while a*m
# rounds to within it of 2: the inhibitor has no decaying solution
NO_INHIBITOR_EDGE = dict(N=4, p=3.0, q=0.1, m=1.0011393632041066, s=1.0, k=3.9977238669360475)


def test_no_decaying_inhibitor_edge():
    params = ExponentSet(**NO_INHIBITOR_EDGE)
    assert "a*m = 2 <= 2" in _verdict_or_error(reference_classify, params)
    assert _verdict_or_error(classify, params) == _verdict_or_error(reference_classify, params)
    outcome, condition, u_power, _, v_power, v_log = classify_lattice(
        4, SystemKind.GM, *([NO_INHIBITOR_EDGE[key]] for key in "pqmsk"))
    assert (outcome[0], condition[0]) == (Outcome.EXISTS_FAST_GROWTH, "Thm2.3(ii)")
    assert u_power[0] == -(NO_INHIBITOR_EDGE["k"] - 2.0)
    assert math.isnan(v_power[0]) and math.isnan(v_log[0])


# small exponents meet the verdict table's boundaries (k = N, p = q + N/(N-2),
# a*m at the inhibitor threshold, ...); field's far-out ones overflow the power
# tables
axis_values = st.lists(st.one_of(field, st.sampled_from((1.0, 2.0, 3.0, 4.0, 5.0, 6.0))),
                       min_size=1, max_size=4)


@PROPERTY
@given(st.integers(2, 5), kinds, st.lists(st.sampled_from("pqmsk"), max_size=5, unique=True),
       st.data())
def test_classify_lattice_broadcasts(N, kind, varied, data):
    # each varied exponent along its own dimension, in the drawn order, the
    # others scalars; classifying these axes equals classifying their cells
    axes = [np.reshape(data.draw(axis_values), [-1 if j == varied.index(key) else 1
                                                for j in range(len(varied))])
            if key in varied else data.draw(field) for key in "pqmsk"]
    cells = [np.array(x) for x in np.broadcast_arrays(*axes)]
    on_axes = classify_lattice(N, kind, *axes)
    on_cells = classify_lattice(N, kind, *cells)
    assert all(np.shape(x) == cells[0].shape for x in on_axes)
    assert np.array_equal(on_axes[0], on_cells[0]) and np.array_equal(on_axes[1], on_cells[1])
    for got, expected in zip(on_axes[2:], on_cells[2:]):
        assert np.array_equal(got, expected, equal_nan=True)
    # and each cell equals its one-cell verdict
    outcome, condition, *powers = (np.asarray(x) for x in on_axes)
    for i in np.ndindex(cells[0].shape):
        verdict = _verdict_or_error(classify, ExponentSet(N, *(float(x[i]) for x in cells),
                                                          kind=kind))
        if isinstance(verdict, str):  # a*m <= 2: v's powers are NaN
            assert outcome[i].value.startswith("EXISTS") and math.isnan(powers[2][i])
            continue
        assert (outcome[i], condition[i]) == (verdict.outcome, verdict.matched_condition)
        u, v = verdict.u_profile, verdict.v_profile
        expected = [math.nan] * 4 if u is None else [u.power, u.log_power, v.power, v.log_power]
        assert np.array_equal([power[i] for power in powers], expected, equal_nan=True)


# range ends that reach the classifier's boundaries (k = N, p = q + N/(N-2),
# ...) and invalid values (<= 0)
SWEEP_ENDS = (-1.0, 0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0, 8.0)
SWEEP_HEADER = ["p", "q", "m", "s", "k", "outcome", "condition", "u_power", "u_log_power",
                "v_power", "v_log_power", "fit_u_power", "fit_v_power", "error"]


@st.composite
def sweep_lattices(draw):
    """(N, kind, base values, {varied key: --vary body}) of a small lattice;
    one to five keys vary, each over a single NaN or 1 to 9 values (1 to 4
    when more than three keys vary)."""
    base = {key: draw(st.sampled_from(SWEEP_ENDS[2:])) for key in "pqmsk"}
    keys = draw(st.lists(st.sampled_from("pqmsk"), min_size=1, max_size=5, unique=True))
    bodies = {key: draw(st.one_of(
        st.just("nan"),
        st.builds("{}:{}:{}".format, st.sampled_from(SWEEP_ENDS), st.sampled_from(SWEEP_ENDS),
                  st.integers(1, 9 if len(keys) <= 3 else 4)))) for key in keys}
    return draw(st.integers(2, 5)), draw(kinds), base, bodies


def _reference_sweep_bytes(N, kind, base, bodies) -> bytes:
    """The sweep CSV built cell by cell: the cells in itertools.product order
    over the sorted varied keys, each row from the public one-cell
    ``classify_lattice`` view, written by ``csv.writer``."""
    axes = {key: [float(body)] if body == "nan" else np.linspace(*map(float, body.split(":")[:2]),
                                                                  int(body.split(":")[2]))
            for key, body in bodies.items()}
    keys = sorted(axes)
    text = io.StringIO(newline="")
    writer = csv.writer(text)
    writer.writerow(SWEEP_HEADER)
    for combo in itertools.product(*(axes[key] for key in keys)):
        values = {**base, **dict(zip(keys, combo))}
        cell = [float(values[key]) for key in "pqmsk"]
        fields = ["%.17g" % x for x in cell]
        try:
            ExponentSet(N, *cell, kind=kind)
        except ConfigError:
            writer.writerow(fields + [""] * 8 + ["BAD_CONFIG"])
            continue
        outcome, condition, *powers = classify_lattice(N, kind, *cell)
        if not math.isnan(powers[0]) and math.isnan(powers[2]):
            writer.writerow(fields + [""] * 8 + ["NO_INHIBITOR_SOLUTION"])
            continue
        writer.writerow(fields + [outcome.value, condition]
                        + ["" if math.isnan(x) else "%.17g" % x for x in powers] + [""] * 3)
    return text.getvalue().encode("utf-8")


@PROPERTY
@given(sweep_lattices())
# 81 cells: the writer merges the varied p and q columns, 3 texts each
@example((3, SystemKind.GM, dict(p=4.0, q=1.0, m=6.0, s=1.0, k=4.0),
          dict(p="2:5:3", q="0.5:2:3", k="2.5:5:9")))
@example((4, SystemKind.MIXED, dict(p=1.0, q=4.0, m=5.0, s=1.0, k=5.0),
          dict(m="1:6:4", q="-1:6:4", k="3:5:8")))
# BAD_CONFIG cells, and the NO_INHIBITOR_SOLUTION cells of the edge above
@example((4, SystemKind.GM, {key: NO_INHIBITOR_EDGE[key] for key in "pqmsk"},
          dict(p="2.5:3.5:3", q="-1:3:5")))
# all five keys vary: k crosses N = 3 (fast growth below it, minimal above),
# and m - s crosses N/(N-2) = 3, the inhibitor's threshold with minimal growth
@example((3, SystemKind.GM, dict(p=4.0, q=1.0, m=6.0, s=1.0, k=4.0),
          dict(p="4:10:4", q="0.5:2:4", m="3.5:6.5:4", s="0.5:3.5:4", k="2.5:4.5:5")))
# an axis of no values: a header-only CSV
@example((3, SystemKind.GM, dict(p=4.0, q=1.0, m=6.0, s=1.0, k=4.0),
          dict(p="3:7:0", k="2.5:5:3")))
def test_every_sweep_row_belongs_to_its_own_cell(tmp_path_factory, lattice):
    # seven-row chunks cross chunk edges, and lattices of 0 to 1280 cells put
    # the writer's column merging on both sides of its cap
    N, kind, base, bodies = lattice
    out = tmp_path_factory.mktemp("sweep") / "atlas.csv"
    argv = ["sweep", "--N", str(N), "--kind", kind.value,
            *(arg for key in "pqmsk" if key not in bodies for arg in (f"--{key}", repr(base[key]))),
            *(arg for key, body in bodies.items() for arg in ("--vary", f"{key}={body}")),
            "--output", str(out)]
    with mock.patch.object(cli, "_CSV_CHUNK_ROWS", 7), \
            contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    assert out.read_bytes() == _reference_sweep_bytes(N, kind, base, bodies)


@PROPERTY
@given(N=st.integers(3, 6), p_over=st.floats(0.01, 5.0), m_over=st.floats(0.01, 5.0),
       s=st.floats(0.1, 5.0), sigma=st.floats(0.01, 0.99),
       where=st.sampled_from(["sigma=1", "k=2", "p=q+c"]))
def test_gm_open_boundaries_are_inconclusive(N, p_over, m_over, s, sigma, where):
    # past every nonexistence test (m > 2/(N-2), p > N/(N-2)), the boundary
    # equalities that no theorem settles: sigma = 1, k = 2 and, with k > N
    # and m > s + N/(N-2), p = q + N/(N-2)
    c, low = N / (N - 2.0), 2.0 / (N - 2.0)
    p, m, k = c + p_over, low + m_over, N + 1.0
    q = sigma * (p - 1.0) * (1.0 + s) / m
    if where == "sigma=1":
        q = (p - 1.0) * (1.0 + s) / m
    elif where == "k=2":
        k = 2.0
    else:
        # sigma = m q / ((q + low)(1 + s)) < 1 holds for q below
        # low (1+s) / (m - 1 - s)
        m = s + c + m_over
        q = sigma * low * (1.0 + s) / (m - 1.0 - s)
        p = q + c
    verdict = classify(ExponentSet(N=N, p=p, q=q, m=m, s=s, k=k))
    assert (verdict.outcome, verdict.matched_condition) == (Outcome.INCONCLUSIVE, {
        "sigma=1": "sigma>=1", "k=2": "k<=2", "p=q+c": "Thm2.2(gap)"}[where])


@PROPERTY
@given(N=st.integers(3, 6), p=exponent, q_over=st.floats(0.01, 5.0),
       m_over=st.floats(0.01, 5.0), s=exponent,
       where=st.sampled_from(["k=N", "q=p+c", "m=s+c"]))
def test_mixed_boundaries_are_inconclusive(N, p, q_over, m_over, s, where):
    # MIXED with q > p + N/(N-2), m > s + N/(N-2) and k > N exists (Thm 7.2);
    # moving one of them onto its boundary leaves the theorem open
    c = N / (N - 2.0)
    q, m, k = p + c + q_over, s + c + m_over, N + 1.0
    if where == "k=N":
        k = float(N)
    elif where == "q=p+c":
        q = p + c
    else:
        m = s + c
    # q and m stay above N/(N-2) > 2/(N-2): past the nonexistence test
    verdict = classify(ExponentSet(N=N, p=p, q=q, m=m, s=s, k=k, kind=SystemKind.MIXED))
    assert (verdict.outcome, verdict.matched_condition) == (
        Outcome.INCONCLUSIVE, "Thm7.2(boundary)")


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


@st.composite
def far_field_problems(draw):
    """An operator over [1, R] (h <= 0.44, inside every N's spacing bound),
    nonnegative shifts of both diagonals, and two nonnegative interleaved
    right-hand sides, the outer u and v rows of each with a tail term
    kappa T, T >= 0, added."""
    N = draw(st.sampled_from((3, 4, 5)))
    R = draw(st.floats(10.0, 1e6))
    n = draw(st.integers(33, 257))
    op = cached_operator(1.0, R, n, N)
    values = st.floats(0.0, 1e6, allow_subnormal=False)
    duu, dvv = (draw(arrays(np.float64, n, elements=values)) for _ in range(2))
    _, _, kappa = far_field(op)
    rhs = []
    for _ in range(2):
        b = draw(arrays(np.float64, 2 * n, elements=values))
        b[-2:] += kappa * np.array(draw(st.tuples(values, values)))
        rhs.append(b)
    return op, duu, dvv, rhs[0], rhs[0] + rhs[1]


@PROPERTY
@given(far_field_problems())
def test_far_field_closed_operator_obeys_the_comparison_principle(problem):
    # the far-field row keeps the M-matrix sign pattern (a negative
    # off-diagonal and a positive row sum), so with nonnegative shifts and
    # no coupling a nonnegative rhs gives a nonnegative solution, and a
    # larger rhs a larger one.  The two solves round apart where the rhs
    # barely grows: the pivoted LU subtracts, and 3000 random draws found
    # high / low - 1 down to -2.9e-16, so the order is checked to 4 ulps
    op, duu, dvv, rhs, larger = problem
    a_sub, a_diag, _ = far_field(op)
    assert a_sub < 0.0 < a_sub + a_diag
    zero = np.zeros(op.grid.n)
    factors = factor_block(op, duu, zero, zero, dvv)
    low = factors.solve(rhs.copy())
    high = factors.solve(larger.copy())
    assert np.all(low >= 0.0)
    assert np.all(high >= low * (1.0 - 4.0 * np.finfo(float).eps))


# GM cells around Thm 2.2(i) and MIXED cells around Thm 7.2 at N = 3
# (c = N/(N-2) = 3); the draws that leave the existence verdicts are skipped
coupled_cells = st.one_of(
    st.builds(lambda q, p_over, s, m_over, k: ExponentSet(
        N=3, p=q + 3.0 + p_over, q=q, m=s + 3.0 + m_over, s=s, k=k),
        st.floats(0.3, 1.5), st.floats(0.2, 4.0), st.floats(0.5, 2.0),
        st.floats(0.0, 3.0), st.floats(3.5, 6.0)),
    st.builds(lambda p, q_over, s, m_over, k: ExponentSet(
        N=3, p=p, q=p + 3.0 + q_over, m=s + 3.0 + m_over, s=s, k=k, kind=SystemKind.MIXED),
        st.floats(0.5, 2.0), st.floats(0.2, 3.0), st.floats(0.5, 2.0),
        st.floats(0.2, 3.0), st.floats(3.5, 6.0)),
)
COUPLED_OP = cached_operator(1.0, 1e4, 513, 3)


def _solve_outcome(params, env, schedule):
    """The solved state, or the tag of the error the solve ended in."""
    try:
        return solve_system(params, env, COUPLED_OP, schedule=schedule)
    except GmextError as exc:
        return exc.tag


@settings(PROPERTY, max_examples=12)
@given(coupled_cells)
def test_coupled_solve_matches_fresh_newton_from_the_midpoint(params):
    # the reference is the same three Newton phases from the box midpoint on
    # the solve grid, with no coarse start and a fresh factorization every
    # step; both must reach the same fixed point of H, or fail the same way
    assume(classify(params).exists)
    env = SourceEnvelope.radial(1.0, params.k)
    try:
        lam, schedule = suggest_lambda(params, env, COUPLED_OP)
    except GmextError:
        reject()
    params = params.with_lam(lam)
    got = _solve_outcome(params, env, schedule)
    with mock.patch.multiple(coupled, _COARSE_MIN_NODES=COUPLED_OP.grid.n,
                             _REFACTOR_DRIFT=-1.0):
        ref = _solve_outcome(params, env, schedule)
    if isinstance(got, str) or isinstance(ref, str):
        assert got == ref
        return
    assert got.diagnostics["newton"]["coarse_steps"] > 0
    assert ref.diagnostics["newton"]["factorizations"] == ref.diagnostics["newton"]["steps"]
    for state in (got, ref):
        assert state.diagnostics["newton"]["fixed_point_gap"] <= 1e-9
    for c in "uv":
        a, b = getattr(got, c).values, getattr(ref, c).values
        assert np.max(np.abs(a - b) / np.maximum(np.abs(b), 1e-300)) <= 1e-10
