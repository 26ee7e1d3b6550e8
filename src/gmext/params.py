"""Problem parameters, regime classification, and the explicit constant
schedules used by the coupled fixed-point construction.

The steady states studied here solve, on the exterior of a ball of radius
``r0`` in dimension ``N >= 2``,

    -Lap u = u^p / v^q + lam * rho(r),      -Lap v = u^m / v^s,

with zero Neumann data on the inner sphere and decay at infinity, where
``rho(r) ~ r^-k``.  Sign-flipped variants replace ``u^p`` and/or ``u^m`` by
negative powers (``NEG_ACTIVATOR``, ``NEG_BOTH``) or swap the roles in the
activator equation (``MIXED``: ``-Lap u = v^q/u^p + lam*rho``).

``classify`` maps an exponent tuple to a deterministic verdict: nonexistence,
one of the existence classes with predicted decay profiles, or INCONCLUSIVE
where the known conditions have a genuine gap (boundary equalities in the
strict inequalities, ``sigma >= 1``, or ``k`` in an uncovered range).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import (
    ConfigError,
    DegenerateExponentError,
    NoInhibitorSolutionError,
    SigmaRangeError,
    SigmaUndefinedError,
)

# Relative tolerance used to decide boundary equalities in the classifier.
_EQ_RTOL = 1e-12


def _eq(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=_EQ_RTOL, abs_tol=1e-300)


def _gt(a: float, b: float) -> bool:
    """Strictly greater, treating near-equal floats as equal."""
    return a > b and not _eq(a, b)


def _ge(a: float, b: float) -> bool:
    return a > b or _eq(a, b)


class SystemKind(Enum):
    GM = "GM"
    NEG_ACTIVATOR = "NEG_ACTIVATOR"
    NEG_BOTH = "NEG_BOTH"
    MIXED = "MIXED"


class Outcome(Enum):
    NONEXISTENCE = "NONEXISTENCE"
    EXISTS_MINIMAL_GROWTH = "EXISTS_MINIMAL_GROWTH"
    EXISTS_FAST_GROWTH = "EXISTS_FAST_GROWTH"
    EXISTS_MIXED_MINIMAL = "EXISTS_MIXED_MINIMAL"
    INCONCLUSIVE = "INCONCLUSIVE"


class ProfileKind(Enum):
    PURE_POWER = "PURE_POWER"
    POWER_LOG = "POWER_LOG"


@dataclass(frozen=True)
class ExponentSet:
    """The tuple (N, p, q, m, s, k, lam) identifying one problem instance.

    ``lam`` is the source strength (>= 0); ``k`` the source decay rate (> 0).
    ``classify`` never looks at ``lam``: existence verdicts are statements
    about the family ``0 < lam < lam*``.
    """

    N: int
    p: float
    q: float
    m: float
    s: float
    k: float
    lam: float = 0.0
    kind: SystemKind = SystemKind.GM

    def __post_init__(self) -> None:
        # one chained comparison per field also refuses NaN and +-inf
        if not (2 <= self.N < math.inf and int(self.N) == self.N):
            raise ConfigError(f"N must be an integer >= 2, got {self.N}")
        for name in ("p", "q", "m", "s", "k"):
            if not 0 < getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be positive and finite, got {getattr(self, name)}")
        if not 0 <= self.lam < math.inf:
            raise ConfigError(f"lam must be nonnegative and finite, got {self.lam}")
        if not isinstance(self.kind, SystemKind):
            raise ConfigError(f"unknown system kind {self.kind!r}")

    @property
    def sigma(self) -> float | None:
        """Coupling index m*q / ((p-1)(1+s)); None when p <= 1."""
        if self.p <= 1:
            return None
        return self.m * self.q / ((self.p - 1.0) * (1.0 + self.s))

    def require_sigma(self) -> float:
        sig = self.sigma
        if sig is None:
            raise SigmaUndefinedError(f"sigma undefined for p = {self.p} <= 1")
        return sig

    def with_lam(self, lam: float) -> "ExponentSet":
        return ExponentSet(self.N, self.p, self.q, self.m, self.s, self.k, lam, self.kind)


@dataclass(frozen=True)
class SourceEnvelope:
    """Two-sided power envelope C1 r^-k <= rho(r) <= C2 r^-k.

    The concrete radial source used by the solvers is rho(r) = rho0 * r^-k,
    for which C1 = C2 = rho0.
    """

    C1: float
    C2: float
    k: float
    rho_amplitude: float

    def __post_init__(self) -> None:
        if not 0 < self.C1 <= self.C2 < math.inf:
            raise ConfigError(f"need finite C2 >= C1 > 0, got C1={self.C1}, C2={self.C2}")
        if not 0 < self.k < math.inf:
            raise ConfigError(f"k must be positive and finite, got {self.k}")
        if not 0 < self.rho_amplitude < math.inf:
            raise ConfigError(f"rho_amplitude must be positive and finite, "
                              f"got {self.rho_amplitude}")

    @classmethod
    def radial(cls, rho0: float, k: float) -> "SourceEnvelope":
        return cls(C1=rho0, C2=rho0, k=k, rho_amplitude=rho0)

    def rho(self, r):
        return self.rho_amplitude * r ** (-self.k)


@dataclass(frozen=True)
class AsymptoticProfile:
    """Decay profile r^power (PURE_POWER) or r^power * log^log_power(r/r0)
    (POWER_LOG).

    ``power`` is negative for every decaying profile in scope.  POWER_LOG
    carries a nonzero ``log_power``.
    """

    kind: ProfileKind
    power: float
    log_power: float = 0.0
    r0: float = 1.0

    def __post_init__(self) -> None:
        if self.kind is ProfileKind.POWER_LOG and self.log_power == 0.0:
            raise ConfigError("POWER_LOG profile requires a nonzero log_power")

    def values(self, r):
        """Sample the profile; the log factor is clamped at zero below r0."""
        import numpy as np

        r = np.asarray(r, dtype=float)
        out = r ** self.power
        if self.kind is ProfileKind.POWER_LOG:
            out = out * np.maximum(np.log(r / self.r0), 0.0) ** self.log_power
        return out

    def label(self) -> str:
        if self.kind is ProfileKind.POWER_LOG:
            return f"r^{self.power:g}*log^{self.log_power:g}"
        return f"r^{self.power:g}"


@dataclass(frozen=True)
class RegimeVerdict:
    outcome: Outcome
    matched_condition: str
    u_profile: AsymptoticProfile | None = None
    v_profile: AsymptoticProfile | None = None

    def __post_init__(self) -> None:
        if self.exists:
            if self.u_profile is None or self.v_profile is None:
                raise ConfigError("existence verdicts carry both profiles")
        elif self.u_profile is not None or self.v_profile is not None:
            raise ConfigError("non-existence verdicts carry no profiles")

    @property
    def exists(self) -> bool:
        return self.outcome in (
            Outcome.EXISTS_MINIMAL_GROWTH,
            Outcome.EXISTS_FAST_GROWTH,
            Outcome.EXISTS_MIXED_MINIMAL,
        )


@dataclass(frozen=True)
class ConstantSchedule:
    """Barrier constants and derived box bounds for one (params, envelope, lam).

    D, E bound the activator (D*r^-a <= u <= E*r^-a), F, G the inhibitor
    against its profile.  ``lambda_star`` is the source-strength threshold
    below which the fixed-point map provably preserves the box;
    ``lambda_star_star`` is its MIXED-kind analogue (None otherwise).
    """

    C3: float
    C4: float
    C5: float
    C6: float
    D: float
    E: float
    F: float
    G: float
    lam: float
    lambda_star: float | None = None
    lambda_star_star: float | None = None

    def __post_init__(self) -> None:
        if not (0 < self.C3 < self.C4):
            raise ConfigError("need C4 > C3 > 0")
        if self.lam > 0 and not (self.D < self.E and self.F < self.G):
            raise ConfigError("box bounds must be ordered for lam > 0")

    @property
    def threshold(self) -> float:
        thr = self.lambda_star if self.lambda_star is not None else self.lambda_star_star
        assert thr is not None
        return thr


# ---------------------------------------------------------------------------
# classification


def _nc(N: int) -> float:
    """The recurring critical ratio N/(N-2)."""
    return N / (N - 2.0)


def predicted_v_profile(params: ExponentSet, u_profile: AsymptoticProfile) -> AsymptoticProfile:
    """Inhibitor profile forced by an activator decaying like r^-a.

    The inhibitor equation sees a source ~ r^(-a*m); its solution decays like
    r^(-(am-2)/(1+s)) below the threshold a*m = N + s(N-2), picks up the
    log^(1/(1+s)) correction exactly at it, and saturates at the minimal rate
    r^(2-N) above it.  Requires a*m > 2, otherwise no decaying inhibitor
    exists at all.
    """
    if u_profile.kind is not ProfileKind.PURE_POWER:
        raise ConfigError("activator profile must be a pure power law")
    N, m, s = params.N, params.m, params.s
    a = -u_profile.power
    if a <= 0:
        raise ConfigError("activator profile must decay")
    am = a * m
    if not _gt(am, 2.0):
        raise NoInhibitorSolutionError(
            f"inhibitor source decay a*m = {am:g} <= 2: no decaying solution"
        )
    threshold = N + s * (N - 2.0)
    if _eq(am, threshold):
        return AsymptoticProfile(ProfileKind.POWER_LOG, 2.0 - N, 1.0 / (1.0 + s), u_profile.r0)
    if am > threshold:
        return AsymptoticProfile(ProfileKind.PURE_POWER, 2.0 - N, 0.0, u_profile.r0)
    return AsymptoticProfile(ProfileKind.PURE_POWER, -(am - 2.0) / (1.0 + s), 0.0, u_profile.r0)


def _classify_gm(params: ExponentSet, r0: float) -> RegimeVerdict:
    N, p, q, m, s, k = params.N, params.p, params.q, params.m, params.s, params.k
    if N == 2:
        return RegimeVerdict(Outcome.NONEXISTENCE, "Thm2.1(i)")
    if m <= 2.0 / (N - 2.0) or _eq(m, 2.0 / (N - 2.0)):
        return RegimeVerdict(Outcome.NONEXISTENCE, "Thm2.1(ii)")
    if p <= _nc(N) or _eq(p, _nc(N)):
        return RegimeVerdict(Outcome.NONEXISTENCE, "Thm2.1(iii)")

    sigma = params.require_sigma()  # p > N/(N-2) > 1 here
    if _ge(sigma, 1.0):
        return RegimeVerdict(Outcome.INCONCLUSIVE, "sigma>=1")

    c = _nc(N)
    u_min = AsymptoticProfile(ProfileKind.PURE_POWER, 2.0 - N, 0.0, r0)
    if _gt(k, N):
        # minimal-growth trichotomy
        matched = None
        if _ge(m, s + c) and _gt(p, q + c):
            matched = "Thm2.2(i)"
        elif _eq(m, s + c) and _eq(p, q + c) and _gt(q, 1.0 + s):
            matched = "Thm2.2(ii)"  # empty under sigma < 1; kept for fidelity
        elif _gt(m, 2.0 / (N - 2.0)) and _gt(s + c, m) and _gt(
            p, q / (1.0 + s) * (m - 2.0 / (N - 2.0)) + c
        ):
            matched = "Thm2.2(iii)"
        if matched is None:
            return RegimeVerdict(Outcome.INCONCLUSIVE, "Thm2.2(gap)")
        return RegimeVerdict(
            Outcome.EXISTS_MINIMAL_GROWTH,
            matched,
            u_profile=u_min,
            v_profile=predicted_v_profile(params, u_min),
        )
    if _eq(k, N):
        return RegimeVerdict(Outcome.INCONCLUSIVE, "k=N")
    if _gt(k, 2.0):
        # 2 < k < N: faster-than-minimal activator growth, a = k - 2
        a = k - 2.0
        u_fast = AsymptoticProfile(ProfileKind.PURE_POWER, -a, 0.0, r0)
        thr = (N + s * (N - 2.0)) / a
        matched = None
        if _ge(m, thr) and _ge(p, q * (N - 2.0) / a + 1.0 + 2.0 / a):
            matched = "Thm2.3(i)"
        elif _gt(m, 2.0 / a) and _gt(thr, m) and _ge(
            p, q / (1.0 + s) * (m - 2.0 / a) + 1.0 + 2.0 / a
        ):
            matched = "Thm2.3(ii)"
        if matched is None:
            return RegimeVerdict(Outcome.INCONCLUSIVE, "Thm2.3(gap)")
        return RegimeVerdict(
            Outcome.EXISTS_FAST_GROWTH,
            matched,
            u_profile=u_fast,
            v_profile=predicted_v_profile(params, u_fast),
        )
    return RegimeVerdict(Outcome.INCONCLUSIVE, "k<=2")


def _classify_mixed(params: ExponentSet, r0: float) -> RegimeVerdict:
    N, p, q, m, s, k = params.N, params.p, params.q, params.m, params.s, params.k
    if N == 2:
        return RegimeVerdict(Outcome.NONEXISTENCE, "Thm7.1(ii1)")
    if min(q, m) <= 2.0 / (N - 2.0) or _eq(min(q, m), 2.0 / (N - 2.0)):
        return RegimeVerdict(Outcome.NONEXISTENCE, "Thm7.1(ii2)")
    c = _nc(N)
    conds = (_gt(k, N), _gt(q, p + c), _gt(m, s + c))
    if all(conds):
        prof = AsymptoticProfile(ProfileKind.PURE_POWER, 2.0 - N, 0.0, r0)
        return RegimeVerdict(Outcome.EXISTS_MIXED_MINIMAL, "Thm7.2", prof, prof)
    on_boundary = _eq(k, N) or _eq(q, p + c) or _eq(m, s + c)
    tag = "Thm7.2(boundary)" if on_boundary else "Thm7.2(gap)"
    return RegimeVerdict(Outcome.INCONCLUSIVE, tag)


def classify(params: ExponentSet, r0: float = 1.0) -> RegimeVerdict:
    """Deterministic regime verdict for one exponent tuple.

    Nonexistence conditions are tested first, then the minimal-growth
    conditions (which need k > N and sigma < 1), then the faster-growth
    conditions (2 < k < N, sigma < 1).  Boundary equalities in strict
    inequalities, k = N, k <= 2, and sigma >= 1 return INCONCLUSIVE: the
    verdict reports only what the known conditions settle.
    """
    if params.kind in (SystemKind.NEG_ACTIVATOR, SystemKind.NEG_BOTH):
        return RegimeVerdict(Outcome.NONEXISTENCE, "Thm7.1(i)")
    if params.kind is SystemKind.MIXED:
        return _classify_mixed(params, r0)
    return _classify_gm(params, r0)


# ---------------------------------------------------------------------------
# constant schedule


def constant_schedule(
    params: ExponentSet,
    env: SourceEnvelope,
    C3: float,
    C4: float,
) -> ConstantSchedule:
    """Box bounds D, E, F, G and the source-strength threshold.

    For the GM kind (minimal growth):

        C5 = C1^(m/(1+s)) * C3^(1 + m/(1+s))
        lambda* = ( C5^q / ((2 C4)^p C2^(p-1)) )^( 1 / ((p-1)(1-sigma)) )
        D = C1 C3 lam,  E = 2 C2 C4 lam,  F = C3 D^(m/(1+s)),  G = C4 E^(m/(1+s))

    and the defining property (verified by the test suite over random draws)
    is C4 (E^p F^-q + lam C2) <= E exactly when lam <= lambda*.

    For the MIXED kind the same D..G formulas apply with the MIXED barrier
    constants in the C3/C4 slots, and the threshold becomes

        lambda** = [ C2 (C1 C3)^p / ((2 C2 C4)^(mq/(1+s)) C4^q) ]^( 1/(mq/(1+s)-(p+1)) ).
    """
    if not (0 < C3 < C4):
        raise ConfigError("need C4 > C3 > 0")
    p, q, m, s = params.p, params.q, params.m, params.s
    C1, C2 = env.C1, env.C2
    mo = m / (1.0 + s)
    C5 = C1 ** mo * C3 ** (1.0 + mo)
    C6 = C2 ** mo * C4 ** (1.0 + mo)
    lam = params.lam
    D = C1 * C3 * lam
    E = 2.0 * C2 * C4 * lam
    F = C3 * D ** mo
    G = C4 * E ** mo

    lam_star = None
    lam_star_star = None
    if params.kind is SystemKind.MIXED:
        expo = m * q / (1.0 + s) - (p + 1.0)
        if _eq(expo, 0.0):
            raise DegenerateExponentError("mq/(1+s) = p+1: threshold formula degenerates")
        base = C2 * (C1 * C3) ** p / ((2.0 * C2 * C4) ** (m * q / (1.0 + s)) * C4 ** q)
        lam_star_star = base ** (1.0 / expo)
    else:
        sigma = params.require_sigma()
        if _ge(sigma, 1.0):
            raise SigmaRangeError(f"sigma = {sigma:g} >= 1: no threshold exists")
        lam_star = (C5 ** q / ((2.0 * C4) ** p * C2 ** (p - 1.0))) ** (
            1.0 / ((p - 1.0) * (1.0 - sigma))
        )
    return ConstantSchedule(
        C3=C3, C4=C4, C5=C5, C6=C6, D=D, E=E, F=F, G=G, lam=lam,
        lambda_star=lam_star, lambda_star_star=lam_star_star,
    )
