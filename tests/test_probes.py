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
