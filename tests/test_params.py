import math

import numpy as np
import pytest

from gmext import (
    AsymptoticProfile,
    ConstantSchedule,
    ExponentSet,
    Outcome,
    SourceEnvelope,
    SystemKind,
    classify,
    constant_schedule,
    predicted_v_profile,
)
from gmext.errors import (
    ConfigError,
    DegenerateExponentError,
    LambdaRangeError,
    NoInhibitorSolutionError,
    SigmaRangeError,
)

from cases import CLASSIFIER_TABLE


def make(kw):
    return ExponentSet(**kw)


# ---------------------------------------------------------------------------
# ExponentSet basics


def test_sigma_definition():
    p = make(dict(N=3, p=5, q=1, m=6, s=1, k=4))
    assert p.sigma == pytest.approx(6 / 8)


def test_sigma_undefined_for_small_p():
    p = make(dict(N=3, p=1.0, q=1, m=6, s=1, k=4))
    assert p.sigma is None


@pytest.mark.parametrize("bad", [
    dict(N=1, p=2, q=1, m=3, s=1, k=4),
    dict(N=3, p=0, q=1, m=3, s=1, k=4),
    dict(N=3, p=2, q=-1, m=3, s=1, k=4),
    dict(N=3, p=2, q=1, m=3, s=1, k=0),
    dict(N=3, p=2, q=1, m=3, s=1, k=4, lam=-1),
    dict(N=float("inf"), p=2, q=1, m=3, s=1, k=4),
    dict(N=float("nan"), p=2, q=1, m=3, s=1, k=4),
    dict(N=3, p=float("inf"), q=1, m=3, s=1, k=4),
    dict(N=3, p=2, q=float("nan"), m=3, s=1, k=4),
    dict(N=3, p=2, q=1, m=3, s=float("inf"), k=4),
    dict(N=3, p=2, q=1, m=3, s=1, k=float("inf")),
    dict(N=3, p=2, q=1, m=3, s=1, k=4, lam=float("inf")),
    dict(N=3, p=2, q=1, m=3, s=1, k=4, lam=float("nan")),
])
def test_invalid_exponents_rejected(bad):
    with pytest.raises(ConfigError):
        make(bad)


def test_envelope_invariants():
    env = SourceEnvelope.radial(2.0, 4.0)
    assert env.C1 == env.C2 == 2.0
    with pytest.raises(ConfigError):
        SourceEnvelope(C1=2.0, C2=1.0, k=4.0, rho_amplitude=1.0)
    for rho0, k in [(float("inf"), 4.0), (float("nan"), 4.0), (1.0, float("inf")),
                    (1.0, float("nan"))]:
        with pytest.raises(ConfigError):
            SourceEnvelope.radial(rho0, k)
    with pytest.raises(ConfigError):
        SourceEnvelope(C1=1.0, C2=float("inf"), k=4.0, rho_amplitude=1.0)
    # a source outside the envelope is bounded by neither the box nor lambda*
    for rho in (0.5, 5.0, float("nan")):
        with pytest.raises(ConfigError, match="rho_amplitude"):
            SourceEnvelope(C1=1.0, C2=2.0, k=4.0, rho_amplitude=rho)
    assert SourceEnvelope(C1=1.0, C2=2.0, k=4.0, rho_amplitude=1.5).rho_amplitude == 1.5


# ---------------------------------------------------------------------------
# classifier table


@pytest.mark.parametrize(
    "label,kw,outcome,tag,u_pow,v_pow,v_log",
    CLASSIFIER_TABLE,
    ids=[row[0] for row in CLASSIFIER_TABLE],
)
def test_classifier_table(label, kw, outcome, tag, u_pow, v_pow, v_log):
    verdict = classify(make(kw))
    assert verdict.outcome is outcome
    assert verdict.matched_condition == tag
    if u_pow is None:
        assert verdict.u_profile is None and verdict.v_profile is None
    else:
        assert verdict.u_profile.power == pytest.approx(u_pow, abs=1e-12)
        assert verdict.v_profile.power == pytest.approx(v_pow, abs=1e-12)
        assert verdict.v_profile.log_power == pytest.approx(v_log, abs=1e-12)


def test_classifier_total_and_exclusive():
    # every random draw classifies without error, and existence verdicts are
    # incompatible with the nonexistence conditions
    rng = np.random.default_rng(7)
    for _ in range(5000):
        N = int(rng.integers(2, 7))
        p = make(dict(
            N=N,
            p=float(10 ** rng.uniform(-1, 1)),
            q=float(10 ** rng.uniform(-1, 1)),
            m=float(10 ** rng.uniform(-1, 1)),
            s=float(10 ** rng.uniform(-1, 0.8)),
            k=float(10 ** rng.uniform(-0.5, 1)),
            kind=rng.choice(list(SystemKind)),
        ))
        verdict = classify(p)
        assert verdict.outcome in Outcome
        if verdict.exists and p.kind is SystemKind.GM:
            assert N >= 3
            assert p.m > 2.0 / (N - 2)
            assert p.p > N / (N - 2)
            assert p.sigma is not None and p.sigma < 1


def test_classifier_deterministic():
    p = make(dict(N=3, p=5, q=1, m=6, s=1, k=4))
    assert classify(p) == classify(p)


# ---------------------------------------------------------------------------
# predicted inhibitor profile


def u_power_profile(a, r0=1.0):
    return AsymptoticProfile(-a, 0.0, r0)


def test_v_profile_above_threshold():
    p = make(dict(N=3, p=5, q=1, m=6, s=1, k=4))
    prof = predicted_v_profile(p, u_power_profile(1.0))
    assert prof.power == -1.0 and prof.log_power == 0.0


def test_v_profile_at_threshold_is_log():
    p = make(dict(N=3, p=5, q=1, m=4, s=1, k=4))
    prof = predicted_v_profile(p, u_power_profile(1.0))
    assert prof.power == -1.0
    assert prof.log_power == pytest.approx(0.5)


def test_v_profile_below_threshold():
    p = make(dict(N=3, p=5, q=1, m=3, s=1, k=4))
    prof = predicted_v_profile(p, u_power_profile(1.0))
    assert prof.power == pytest.approx(-0.5)


def test_v_profile_requires_integrable_source():
    p = make(dict(N=3, p=5, q=1, m=2, s=1, k=4))
    with pytest.raises(NoInhibitorSolutionError):
        predicted_v_profile(p, u_power_profile(1.0))


def test_v_profile_continuous_at_threshold():
    # as m decreases to the threshold, the below-branch exponent tends to 2-N
    N, s, a = 3, 1.0, 1.0
    thr = (N + s * (N - 2)) / a
    for eps in (1e-3, 1e-6, 1e-9):
        p = make(dict(N=N, p=9, q=0.5, m=thr - eps, s=s, k=4))
        prof = predicted_v_profile(p, u_power_profile(a))
        assert abs(prof.power - (2 - N)) < eps


# ---------------------------------------------------------------------------
# constant schedule


def gm_unit_case(lam=0.0):
    return make(dict(N=3, p=5, q=1, m=6, s=1, k=4, lam=lam))


def test_schedule_threshold_worked_example():
    # all envelope/barrier constants equal to one: the threshold collapses to
    # (1/32)^(1/((p-1)(1-sigma))) = 1/32
    env = SourceEnvelope.radial(1.0, 4.0)
    # C4 must exceed C3; take C3 = 1 and C4 = 1 + 1e-15 to stay at the printed values
    sched = constant_schedule(gm_unit_case(), env, 1.0, 1.0 + 1e-15)
    assert sched.C5 == pytest.approx(1.0)
    assert sched.lambda_star == pytest.approx(1.0 / 32.0, rel=1e-12)


def test_schedule_box_values_at_threshold():
    env = SourceEnvelope.radial(1.0, 4.0)
    lam = 1.0 / 32.0
    sched = constant_schedule(gm_unit_case(lam), env, 1.0, 1.0 + 1e-15)
    assert sched.D == pytest.approx(1 / 32)
    assert sched.E == pytest.approx(1 / 16)
    assert sched.F == pytest.approx((1 / 32) ** 3)
    assert sched.G == pytest.approx((1 / 16) ** 3)
    # the box inequality is met with equality exactly at the threshold:
    # C4 (E^p F^-q + lam C2) = 32 lam^2 + lam = 2 lam = E
    lhs = sched.C4 * (sched.E ** 5 / sched.F + lam * env.C2)
    assert lhs == pytest.approx(sched.E, rel=1e-10)


@pytest.mark.parametrize("bounds", [
    dict(D=0.0, E=4e-300, F=1e-3, G=1.0),
    dict(D=1e-300, E=4e-300, F=0.0, G=1e-3),
    dict(D=1e300, E=math.inf, F=1e-3, G=1.0),
    dict(D=1.0, E=2.0, F=1.0, G=math.nan),
], ids=["D-underflowed", "F-underflowed", "E-overflowed", "G-nan"])
def test_schedule_range_rule_refuses_a_box_outside_the_doubles(bounds):
    # at lam > 0, D < E and F < G must be positive finite doubles
    with pytest.raises(LambdaRangeError, match="lambda = 1e-06"):
        ConstantSchedule(C3=1.0, C4=2.0, C5=1.0, C6=8.0, lam=1e-6, **bounds)


def test_threshold_is_read_at_lambda_zero():
    # lam = 0 builds an all-zero box, which the range rule leaves alone, and
    # the same threshold, bit for bit, as any lam
    env = SourceEnvelope.radial(1.0, 4.0)
    at0 = constant_schedule(gm_unit_case(0.0), env, 0.7, 2.1)
    assert (at0.D, at0.E, at0.F, at0.G) == (0.0, 0.0, 0.0, 0.0)
    for lam in (1e-3, 1.0):
        assert constant_schedule(gm_unit_case(lam), env, 0.7, 2.1).threshold == at0.threshold


def test_schedule_requires_sigma_below_one():
    env = SourceEnvelope.radial(1.0, 4.0)
    bad = make(dict(N=3, p=4, q=2, m=6, s=1, k=4))  # sigma = 2
    with pytest.raises(SigmaRangeError):
        constant_schedule(bad, env, 1.0, 2.0)


def test_schedule_mixed_degenerate_exponent():
    env = SourceEnvelope.radial(1.0, 4.0)
    # mq/(1+s) = p+1: m=4, q=1, s=1 -> 2 = p+1 -> p=1... need q>... use m=6,q=1,s=1 -> 3 = p+1 -> p=2
    bad = make(dict(N=3, p=2, q=1, m=6, s=1, k=4, kind=SystemKind.MIXED))
    with pytest.raises(DegenerateExponentError):
        constant_schedule(bad, env, 1.0, 2.0)


def test_schedule_scale_coherence():
    # doubling lam doubles D and E and multiplies F, G by 2^(m/(1+s)) exactly
    env = SourceEnvelope.radial(1.0, 4.0)
    s1 = constant_schedule(gm_unit_case(1e-3), env, 0.7, 2.1)
    s2 = constant_schedule(gm_unit_case(2e-3), env, 0.7, 2.1)
    factor = 2.0 ** (6 / 2)
    assert s2.D == pytest.approx(2 * s1.D, rel=1e-14)
    assert s2.E == pytest.approx(2 * s1.E, rel=1e-14)
    assert s2.F == pytest.approx(factor * s1.F, rel=1e-14)
    assert s2.G == pytest.approx(factor * s1.G, rel=1e-14)


def _random_schedule_samples(n, seed=123):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        p = float(rng.uniform(1.2, 8.0))
        q = float(rng.uniform(0.1, 5.0))
        m = float(rng.uniform(0.1, 8.0))
        s = float(rng.uniform(0.0, 4.0))
        sigma = m * q / ((p - 1) * (1 + s))
        if sigma >= 0.999:
            continue
        C1 = float(10 ** rng.uniform(-1, 1))
        C2 = C1 * float(10 ** rng.uniform(0, 1))
        C3 = float(10 ** rng.uniform(-1, 1))
        C4 = C3 * float(10 ** rng.uniform(1e-6, 1))
        out.append((p, q, m, s, C1, C2, C3, C4))
    return out


def test_lambda_star_characterizes_box_inequality():
    """The schedule inequality C4 (E^p F^-q + lam C2) <= E holds exactly for
    lam <= lambda*; checked against a direct evaluation on random draws.

    Draws whose threshold leaves the comfortably representable float range
    are redrawn: the check is about the algebra, not about overflow.
    """
    samples = _random_schedule_samples(30_000)
    checked = 0
    failures = 0
    for (p, q, m, s, C1, C2, C3, C4) in samples:
        params = make(dict(N=3, p=p, q=q, m=m, s=s, k=4))
        env = SourceEnvelope(C1=C1, C2=C2, k=4.0, rho_amplitude=C1)
        lam_star = constant_schedule(params, env, C3, C4).lambda_star
        if not (1e-25 < lam_star < 1e25):
            continue
        checked += 1
        for factor, expect in ((0.999999, True), (1.000001, False), (0.5, True), (2.0, False)):
            lam = lam_star * factor
            mo = m / (1 + s)
            D = C1 * C3 * lam
            E = 2 * C2 * C4 * lam
            F = C3 * D ** mo
            holds = C4 * (E ** p * F ** -q + lam * C2) <= E
            if holds is not expect:
                failures += 1
        if checked >= 10_000:
            break
    assert checked >= 10_000
    assert failures == 0


def test_mixed_threshold_formula():
    # direct check of the MIXED threshold against its defining inequality
    rng = np.random.default_rng(5)
    failures = 0
    for _ in range(2000):
        q = float(rng.uniform(3.5, 6.0))
        m = float(rng.uniform(4.2, 7.0))
        p = float(rng.uniform(0.2, q - 3.0 - 1e-6))
        s = float(rng.uniform(0.2, m - 3.0 - 1e-6))
        params = make(dict(N=3, p=p, q=q, m=m, s=s, k=4, kind=SystemKind.MIXED))
        C1 = float(10 ** rng.uniform(-0.5, 0.5))
        C2 = C1 * float(10 ** rng.uniform(0, 0.5))
        C3 = float(10 ** rng.uniform(-0.5, 0.5))
        C4 = C3 * float(10 ** rng.uniform(1e-6, 0.5))
        env = SourceEnvelope(C1=C1, C2=C2, k=4.0, rho_amplitude=C1)
        lam2 = constant_schedule(params, env, C3, C4).lambda_star_star
        mo = m / (1 + s)
        for factor, expect in ((0.999999, True), (1.000001, False)):
            lam = lam2 * factor
            D = C1 * C3 * lam
            E = 2 * C2 * C4 * lam
            G = C4 * E ** mo
            holds = C4 * (G ** q * D ** -p + C2 * lam) <= E
            if holds is not expect:
                failures += 1
    assert failures == 0


def test_minimal_growth_log_branch_unreachable():
    """The double-equality branch requires q > 1+s, which forces the coupling
    index above one; the sigma gate therefore always fires first."""
    rng = np.random.default_rng(11)
    for _ in range(2000):
        N = int(rng.integers(3, 7))
        c = N / (N - 2)
        s = float(rng.uniform(0.05, 4.0))
        q = float(rng.uniform(1 + s + 1e-9, 1 + s + 5.0))
        m = s + c
        p = q + c
        sigma = m * q / ((p - 1) * (1 + s))
        assert sigma > 1.0
        verdict = classify(make(dict(N=N, p=p, q=q, m=m, s=s, k=N + 1)))
        assert verdict.outcome is Outcome.INCONCLUSIVE
        assert verdict.matched_condition == "sigma>=1"
