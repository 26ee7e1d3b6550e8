import numpy as np
import pytest

from gmext import (
    ExponentSet,
    SourceEnvelope,
    SystemKind,
    classify,
    criterion_2d,
    degeneration_probe,
    integral_criterion,
)
from gmext.errors import ConfigError, ProbeUnsupportedError
from gmext.probes import ProbeReport, ProbeRow


# ---------------------------------------------------------------------------
# closed-form criteria


@pytest.mark.parametrize("alpha,expected", [
    (2.0, True), (2.01, False), (1.0, True), (3.0, False), (0.0, True),
])
def test_integral_criterion(alpha, expected):
    assert integral_criterion(alpha) is expected


def test_integral_criterion_matches_activator_floor():
    # m(N-2) = 2 at N = 3, m = 2: the inhibitor source inherits a divergent
    # first moment exactly when the classifier reports the nonexistence branch
    assert integral_criterion(2 * (3 - 2)) is True


@pytest.mark.parametrize("alpha,s,expected", [
    (0.0, 1.0, True),
    (2.0, 1.0, False),
    (1.5, 5.0, True),
    (2.0, 0.0, True),
    (2.5, 0.0, False),
])
def test_criterion_2d(alpha, s, expected):
    assert criterion_2d(alpha, s) is expected


def test_criteria_agree_at_s_zero():
    for alpha in np.linspace(0.1, 4.0, 40):
        assert criterion_2d(float(alpha), 0.0) is integral_criterion(float(alpha))


def test_classify_consistency_with_integral_criterion():
    # for the standard kind at N >= 3 the second nonexistence branch fires
    # exactly when the integral criterion flags m(N-2)
    rng = np.random.default_rng(31)
    for _ in range(500):
        N = int(rng.integers(3, 6))
        m = float(rng.uniform(0.05, 4.0))
        p = float(rng.uniform(0.2, 8.0))
        params = ExponentSet(N=N, p=p, q=1.0, m=m, s=1.0, k=4.0)
        verdict = classify(params)
        flag = integral_criterion(m * (N - 2))
        assert (verdict.matched_condition == "Thm2.1(ii)") == flag


# ---------------------------------------------------------------------------
# degeneration probe


def test_probe_requires_nonexistence():
    params = ExponentSet(N=3, p=5, q=1, m=6, s=1, k=4)
    with pytest.raises(ConfigError):
        degeneration_probe(params, SourceEnvelope.radial(1.0, 4.0), (1e2, 1e3))


def test_probe_inhibitor_floor_degenerates():
    params = ExponentSet(N=3, p=5, q=1, m=2, s=1, k=4)
    report = degeneration_probe(params, SourceEnvelope.radial(1.0, 4.0),
                                (1e2, 1e3, 1e4))
    assert report.floor_rel_decreasing
    assert report.floor_abs_increasing
    assert "no decaying limit" in report.diagnosis
    assert len(report.lines()) == len(report.rows) + 2


def test_probe_neg_both_reports_growth():
    params = ExponentSet(N=3, p=2, q=1, m=3, s=1, k=4, kind=SystemKind.NEG_BOTH)
    report = degeneration_probe(params, SourceEnvelope.radial(1.0, 4.0), (1e2, 1e3))
    assert report.floor_abs_increasing


def test_probe_unsupported_regimes():
    planar = ExponentSet(N=2, p=5, q=1, m=6, s=1, k=4)
    with pytest.raises(ProbeUnsupportedError):
        degeneration_probe(planar, SourceEnvelope.radial(1.0, 4.0), (1e2, 1e3))
    # the small-p branch is obstructed through a superlinear mechanism the
    # singular scalar solver cannot shadow
    smallp = ExponentSet(N=3, p=2, q=1, m=6, s=1, k=4)
    assert classify(smallp).matched_condition == "Thm2.1(iii)"
    with pytest.raises(ProbeUnsupportedError):
        degeneration_probe(smallp, SourceEnvelope.radial(1.0, 4.0), (1e2, 1e3))


def test_probe_validates_radius_sequence():
    params = ExponentSet(N=3, p=5, q=1, m=2, s=1, k=4)
    env = SourceEnvelope.radial(1.0, 4.0)
    with pytest.raises(ConfigError):
        degeneration_probe(params, env, (1e3,))
    for radii in ((1e3, 1e2), (1e2, float("nan")), (1e2, float("inf")), (1e2, 1e2),
                  (-1.0, 1e2)):
        with pytest.raises(ConfigError):
            degeneration_probe(params, env, radii)


def test_probe_thm71_ii2_inhibitor_branch():
    # Thm7.1(ii2) with m(N-2) <= 2 probes the inhibitor equation
    params = ExponentSet(N=3, p=1, q=3, m=1.5, s=1, k=4, kind=SystemKind.MIXED)
    assert classify(params).matched_condition == "Thm7.1(ii2)"
    report = degeneration_probe(params, SourceEnvelope.radial(1.0, 4.0), (1e2, 1e3),
                                nodes_per_decade=64)
    assert report.equation == "inhibitor: -Lap w = r^-1.5 w^-1"


def test_probe_thm71_ii2_activator_branch():
    # Thm7.1(ii2) with m(N-2) > 2 probes the activator equation, whose
    # truncated solutions grow without bound
    params = ExponentSet(N=3, p=1, q=1.5, m=5, s=1, k=4, kind=SystemKind.MIXED)
    assert classify(params).matched_condition == "Thm7.1(ii2)"
    report = degeneration_probe(params, SourceEnvelope.radial(1.0, 4.0), (1e2, 1e3),
                                nodes_per_decade=64)
    assert report.equation == "activator: -Lap w = r^-1.5 w^-1"
    # the window (10^0.5, 10^2.5) keeps its lower edge node on both grids
    assert [round(row.floor_abs, 1) for row in report.rows] == [12.8, 25.0]
    assert report.floor_abs_increasing and report.floor_rel_decreasing


@pytest.mark.parametrize("floors, rels, diagnosis", [
    ((1.0, 2.0, 3.0), (0.5, 0.5, 0.6),
     "profile grows without bound across truncations: decay impossible"),
    ((1.0, 1.0, 1.0), (0.5, 0.4, 0.3), "no clear degeneration trend; inspect the rows"),
], ids=["growth_only", "no_trend"])
def test_probe_diagnosis_without_flattening(floors, rels, diagnosis):
    rows = tuple(ProbeRow(R=10.0 ** (j + 2), floor_abs=floor, peak=floor / rel,
                          floor_rel=rel) for j, (floor, rel) in enumerate(zip(floors, rels)))
    report = ProbeReport(equation="test", rows=rows)
    assert report.diagnosis == diagnosis
    assert report.lines()[-1] == "  diagnosis: " + diagnosis


def test_probe_flagged_row_is_diagnosed_as_degenerate(monkeypatch):
    # a solver failure on one truncation is a flagged row, not an exception
    from gmext import probes
    from gmext.errors import DegenerateSolveError

    real = probes.solve_monotone
    calls = []

    def failing_second(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            raise DegenerateSolveError("forced")
        return real(*args, **kwargs)

    monkeypatch.setattr(probes, "solve_monotone", failing_second)
    params = ExponentSet(N=3, p=5, q=1, m=2, s=1, k=4)
    report = degeneration_probe(params, SourceEnvelope.radial(1.0, 4.0), (1e2, 1e3, 1e4),
                                nodes_per_decade=64)
    assert [row.flag for row in report.rows] == ["", DegenerateSolveError.tag, ""]
    assert np.isnan(report.rows[1].floor_abs)
    assert report.diagnosis == "solver degenerated on at least one truncation"
    assert report.lines()[-1] == "  diagnosis: solver degenerated on at least one truncation"


def test_probe_lets_a_fault_propagate(monkeypatch):
    # only a solver error is a finding: a fault inside the solve is not
    # recorded as a row flag, and the command line reports it as an
    # internal error
    from gmext import cli, probes

    def broken(*args, **kwargs):
        raise TypeError("forced")

    monkeypatch.setattr(probes, "solve_monotone", broken)
    params = ExponentSet(N=3, p=5, q=1, m=2, s=1, k=4)
    with pytest.raises(TypeError, match="forced"):
        degeneration_probe(params, SourceEnvelope.radial(1.0, 4.0), (1e2, 1e3),
                           nodes_per_decade=64)
    assert cli.main(["probe", "--N", "3", "--p", "5", "--q", "1", "--m", "2", "--s", "1",
                     "--k", "4", "--R-list", "1e2,1e3"]) == 70


@pytest.mark.parametrize("radii", [(2.0, 5.0, 20.0), (10.0 ** 0.5, 1e2)])
def test_probe_refuses_a_truncation_without_window_nodes(radii, monkeypatch):
    # the window keeps half a decade clear of r0 = 1 and of R, so an R below
    # ten leaves it empty: a ConfigError before any solve
    from gmext import probes

    def no_solve(*args, **kwargs):
        raise AssertionError("solved before refusing")

    monkeypatch.setattr(probes, "solve_monotone", no_solve)
    params = ExponentSet(N=3, p=5, q=1, m=2, s=1, k=4)
    with pytest.raises(ConfigError, match="no node in the probe window"):
        degeneration_probe(params, SourceEnvelope.radial(1.0, 4.0), radii, nodes_per_decade=64)
