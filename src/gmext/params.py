"""Problem parameters, regime classification, and the explicit constant
schedules used by the coupled fixed-point construction.

The steady states studied here solve, on the exterior of a ball of radius
``r0`` in dimension ``N >= 2``,

    -Lap u = u^p / v^q + lam * rho(r),      -Lap v = u^m / v^s,

with zero Neumann data on the inner sphere and decay at infinity, where
``rho(r) ~ r^-k``.  Sign-flipped variants replace ``u^p`` and/or ``u^m`` by
negative powers (``NEG_ACTIVATOR``, ``NEG_BOTH``) or swap the roles in the
activator equation (``MIXED``: ``-Lap u = v^q/u^p + lam*rho``).

``classify_lattice`` maps a lattice of exponent tuples to deterministic
verdicts: nonexistence, one of the existence classes with predicted decay
powers, or INCONCLUSIVE where the known conditions have a genuine gap
(boundary equalities in the strict inequalities, ``sigma >= 1``, or ``k`` in
an uncovered range).  ``_classify_rules`` holds the one copy of the verdict
table.  It evaluates each condition on the exponents it reads, so a lattice
given by its axes is classified axis by axis, and gives each cell the index
of its rule and its growth class (none, minimal, fast).  The power tables
(``_power_tables``) hold each class's predicted powers over k, m and s.
``_v_powers`` is the one copy of the GM inhibitor rule; the MIXED inhibitor
decays as the activator.  ``classify_lattice`` is the object view, which
gathers each cell's outcome, condition and powers, ``classify`` the
one-cell view, with the profiles as objects, and ``predicted_v_profile``
the one-cell view of the inhibitor rule, from which ``classify`` takes its
GM inhibitor profile.

``constant_schedule`` builds the box bounds D, E, F, G at one lam and the
threshold lambda*, which does not depend on lam (at lam = 0 the box is all
zeros).  ``ConstantSchedule`` holds the range rule: at lam > 0 the bounds
must be positive finite doubles.  A schedule outside the doubles, whether a
power overflows or a bound underflows to 0, is a LambdaRangeError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    ConfigError,
    DegenerateExponentError,
    LambdaRangeError,
    NoInhibitorSolutionError,
    SigmaRangeError,
    SigmaUndefinedError,
)

# Relative tolerance used to decide boundary equalities in the classifier.
_EQ_RTOL = 1e-12


def _eq(a, b):
    """``math.isclose(a, b, rel_tol=_EQ_RTOL, abs_tol=1e-300)``, elementwise:
    isclose's own formula, so a boundary verdict does not depend on whether
    one cell or a lattice is classified.  ``diff < inf`` is isclose's
    refusal of an infinite argument."""
    diff = abs(a - b)
    return (a == b) | ((diff < math.inf) & ((diff <= abs(_EQ_RTOL * b))
                                            | (diff <= abs(_EQ_RTOL * a))
                                            | (diff <= 1e-300)))


def _gt(a, b):
    """Strictly greater, treating near-equal floats as equal.  Takes numpy
    values: ``~`` negates numpy booleans only."""
    return (a > b) & ~_eq(a, b)


def _ge(a, b):
    return (a > b) | _eq(a, b)


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


def field_error(name: str, value) -> str | None:
    """Why ``value`` is not admissible as the ExponentSet field ``name``, or
    None when it is.  One chained comparison per field also refuses NaN and
    +-inf."""
    if name == "N":
        if not (2 <= value < math.inf and int(value) == value):
            return f"N must be an integer >= 2, got {value}"
    elif name == "lam":
        if not 0 <= value < math.inf:
            return f"lam must be nonnegative and finite, got {value}"
    elif name == "kind":
        if not isinstance(value, SystemKind):
            return f"unknown system kind {value!r}"
    elif not 0 < value < math.inf:
        return f"{name} must be positive and finite, got {value}"
    return None


def _sigma(p, q, m, s):
    """Coupling index m*q / ((p-1)(1+s)), elementwise."""
    return m * q / ((p - 1.0) * (1.0 + s))


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
        for name in ("N", "p", "q", "m", "s", "k", "lam", "kind"):
            error = field_error(name, getattr(self, name))
            if error is not None:
                raise ConfigError(error)

    @property
    def sigma(self) -> float | None:
        """Coupling index m*q / ((p-1)(1+s)); None when p <= 1."""
        if self.p <= 1:
            return None
        return _sigma(self.p, self.q, self.m, self.s)

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
        # the schedule's box and lambda* are built from C1 and C2, so they
        # bound only a source inside the envelope
        if not self.C1 <= self.rho_amplitude <= self.C2:
            raise ConfigError(f"rho_amplitude must lie in [C1, C2] = [{self.C1}, {self.C2}], "
                              f"got {self.rho_amplitude}")

    @classmethod
    def radial(cls, rho0: float, k: float) -> "SourceEnvelope":
        return cls(C1=rho0, C2=rho0, k=k, rho_amplitude=rho0)

    def rho(self, r):
        return self.rho_amplitude * r ** (-self.k)


@dataclass(frozen=True)
class AsymptoticProfile:
    """Decay profile r^power, times log^log_power(r/r0) when ``log_power``
    is nonzero (a pure power law when it is zero).

    ``power`` is negative for every decaying profile in scope.  ``values``
    is the one evaluator of the profile: it anchors the log factor one
    e-fold inside r0, r^power (1 + log(r/r0))^log_power, so the profile is
    positive and finite from r0 on, r0^power at r0.  Its law at infinity is
    unchanged: the ratio to r^power log^log_power(r/r0) is
    (1 + 1/log(r/r0))^log_power, which tends to 1.
    """

    power: float
    log_power: float = 0.0
    r0: float = 1.0

    def values(self, r):
        """Sample the profile at radii r >= r0."""
        r = np.asarray(r, dtype=float)
        out = r ** self.power
        if self.log_power:
            out = out * (1.0 + np.log(r / self.r0)) ** self.log_power
        return out

    def label(self) -> str:
        if self.log_power:
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
    ``lambda_star_star`` is its MIXED-kind analogue (None otherwise).  The
    threshold does not depend on ``lam``.  The range rule: at lam > 0,
    D < E and F < G must be positive finite doubles, else LambdaRangeError
    (a bound that underflowed to 0 or overflowed to inf has no box).
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
        if self.lam > 0 and not (0 < self.D < self.E < math.inf
                                 and 0 < self.F < self.G < math.inf):
            raise LambdaRangeError(f"the box at lambda = {self.lam:g} leaves the positive "
                                   f"finite doubles: D, E, F, G = {self.D:g}, {self.E:g}, "
                                   f"{self.F:g}, {self.G:g}")

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


def _v_powers(N: int, a, m, s):
    """(power, log_power) of the inhibitor profile forced by an activator
    decaying like r^-a, elementwise; both NaN where a*m <= 2.

    The inhibitor equation sees a source ~ r^(-a*m); its solution decays like
    r^(-(am-2)/(1+s)) below the threshold a*m = N + s(N-2), picks up the
    log^(1/(1+s)) correction exactly at it, and saturates at the minimal rate
    r^(2-N) above it.  At a*m <= 2 no decaying inhibitor exists at all.
    """
    # a power table also holds entries that no cell takes, so, as in the
    # rules, overflow and division by zero pass silently
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        am = a * m
        threshold = N + s * (N - 2.0)
        power = np.where(_ge(am, threshold), 2.0 - N, -(am - 2.0) / (1.0 + s))
        log_power = np.where(_eq(am, threshold), 1.0 / (1.0 + s), 0.0)
        decays = _gt(am, 2.0)
    return np.where(decays, power, math.nan), np.where(decays, log_power, math.nan)


def predicted_v_profile(params: ExponentSet, u_profile: AsymptoticProfile) -> AsymptoticProfile:
    """Inhibitor profile forced by an activator decaying like r^-a (the rule
    is ``_v_powers``), anchored at the activator's r0: the GM inhibitor
    profile of every ``classify`` verdict.  Requires a*m > 2, otherwise no
    decaying inhibitor exists at all (NoInhibitorSolutionError)."""
    if u_profile.log_power:
        raise ConfigError("activator profile must be a pure power law")
    a = -u_profile.power
    if a <= 0:
        raise ConfigError("activator profile must decay")
    power, log_power = _v_powers(params.N, np.float64(a), params.m, params.s)
    if math.isnan(power):
        raise NoInhibitorSolutionError(f"inhibitor source decay a*m = {a * params.m:g} <= 2: "
                                       "no decaying solution")
    return AsymptoticProfile(float(power), float(log_power), u_profile.r0)


def _power_tables(N: int, kind: SystemKind, cls, u_power, m, s):
    """``(entry, tables)`` of a lattice: the power tables ``(u_power,
    u_log_power, v_power, v_log_power)`` of the predicted profiles over
    ``_classify_rules``' ``u_power`` (all NaN where the class has no
    profile), and each cell's flat index into them, the row of its growth
    class ``cls`` at the cell's k, m and s.  The inhibitor follows
    ``_v_powers`` for GM and the activator for MIXED, as in ``classify``."""
    entry = cls * u_power[0].size + np.arange(u_power[0].size).reshape(u_power.shape[1:])
    # u's log power is 0 where the activator decays, NaN where it has no profile
    u = u_power, np.where(np.isnan(u_power), u_power, 0.0)
    return entry, (*u, *(_v_powers(N, -u_power, m, s) if kind is SystemKind.GM else u))


def _classify_rules(N: int, kind: SystemKind, p, q, m, s, k):
    """Each cell's rule in the verdict table and its growth class.

    Takes ``classify_lattice``'s arguments.  Each condition is computed on
    the broadcast shape of the arguments it reads, so on a lattice given by
    its axes (each varied exponent along its own dimension, 1 elsewhere) only
    the first match runs on every cell.  Returns ``(outcomes, conditions,
    rule, cls, u_power)``: the outcome and condition of each rule of the
    table (object arrays), the index of each cell's rule and its growth class
    (0 no profile, 1 minimal growth, 2 fast growth; int arrays of the
    broadcast shape), and the activator's power in each class along a
    leading axis, over the broadcast shape of ``k, m, s``.  A cell's powers
    are its class's entries of the power tables (``_power_tables``).
    """
    p, q, m, s, k = (np.asarray(x, dtype=float)[()] for x in (p, q, m, s, k))
    NONEX, INCONCLUSIVE = Outcome.NONEXISTENCE, Outcome.INCONCLUSIVE
    minimal, fast = Outcome.EXISTS_MINIMAL_GROWTH, Outcome.EXISTS_FAST_GROWTH
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # (mask, outcome, condition); the last rule takes the rest
        if kind in (SystemKind.NEG_ACTIVATOR, SystemKind.NEG_BOTH):
            rules = [(None, NONEX, "Thm7.1(i)")]
        elif N == 2:
            rules = [(None, NONEX, "Thm7.1(ii1)" if kind is SystemKind.MIXED
                      else "Thm2.1(i)")]
        elif kind is SystemKind.MIXED:
            c, low = _nc(N), 2.0 / (N - 2.0)
            rules = [
                (_ge(low, np.minimum(q, m)), NONEX, "Thm7.1(ii2)"),
                (_gt(k, N) & _gt(q, p + c) & _gt(m, s + c),
                 Outcome.EXISTS_MIXED_MINIMAL, "Thm7.2"),
                (_eq(k, N) | _eq(q, p + c) | _eq(m, s + c),
                 INCONCLUSIVE, "Thm7.2(boundary)"),
                (None, INCONCLUSIVE, "Thm7.2(gap)"),
            ]
        else:
            c, low = _nc(N), 2.0 / (N - 2.0)
            # 2 < k < N: faster-than-minimal activator growth, r^-a with a = k - 2
            a = k - 2.0
            thr = (N + s * (N - 2.0)) / a
            above_N, above_2 = _gt(k, N), _gt(k, 2.0)
            rules = [
                (_ge(low, m), NONEX, "Thm2.1(ii)"),
                (_ge(c, p), NONEX, "Thm2.1(iii)"),
                (_ge(_sigma(p, q, m, s), 1.0), INCONCLUSIVE, "sigma>=1"),
                # the minimal-growth trichotomy
                (above_N & _ge(m, s + c) & _gt(p, q + c), minimal, "Thm2.2(i)"),
                # empty under sigma < 1; kept for fidelity
                (above_N & _eq(m, s + c) & _eq(p, q + c) & _gt(q, 1.0 + s),
                 minimal, "Thm2.2(ii)"),
                (above_N & _gt(m, low) & _gt(s + c, m)
                 & _gt(p, q / (1.0 + s) * (m - low) + c), minimal, "Thm2.2(iii)"),
                (above_N, INCONCLUSIVE, "Thm2.2(gap)"),
                (_eq(k, N), INCONCLUSIVE, "k=N"),
                (above_2 & _ge(m, thr) & _ge(p, q * (N - 2.0) / a + 1.0 + 2.0 / a),
                 fast, "Thm2.3(i)"),
                (above_2 & _gt(m, 2.0 / a) & _gt(thr, m)
                 & _ge(p, q / (1.0 + s) * (m - 2.0 / a) + 1.0 + 2.0 / a),
                 fast, "Thm2.3(ii)"),
                (above_2, INCONCLUSIVE, "Thm2.3(gap)"),
                (None, INCONCLUSIVE, "k<=2"),
            ]
        # each cell's first matching rule: one past every rule it and all
        # rules before it fail
        rule = np.zeros(np.broadcast(p, q, m, s, k).shape, dtype=int)
        unmatched = True
        for mask, _, _ in rules[:-1]:
            unmatched = unmatched & ~mask
            rule = rule + unmatched
    classes = {minimal: 1, Outcome.EXISTS_MIXED_MINIMAL: 1, fast: 2}
    outcomes = np.array([verdict for _, verdict, _ in rules], dtype=object)
    conditions = np.array([tag for *_, tag in rules], dtype=object)
    growth = np.array([classes.get(verdict, 0) for _, verdict, _ in rules])
    # the activator decays like r^(2-N) with minimal growth and like r^-(k-2)
    # with fast growth
    u_power = np.empty((3, *np.broadcast(k, m, s).shape))
    u_power[0], u_power[1], u_power[2] = math.nan, 2.0 - N, -(k - 2.0)
    return outcomes, conditions, rule, growth[rule], u_power


def classify_lattice(N: int, kind: SystemKind, p, q, m, s, k):
    """Regime verdicts of a lattice of exponent tuples: the object view of
    ``_classify_rules``, with each cell's powers taken from its growth
    class's entries of the power tables.

    ``N`` and ``kind`` are scalars; ``p, q, m, s, k`` are broadcastable
    arrays (or floats) of valid ``ExponentSet`` fields; axes (each along its
    own dimension) classify fastest.  Returns
    ``(outcome, condition, u_power, u_log_power, v_power, v_log_power)``:
    ``Outcome`` members and matched-condition tags (object arrays), and the
    powers of the predicted profiles (float arrays), NaN where the verdict
    carries no profile.  v's powers are also NaN where a GM existence cell's
    activator leaves the inhibitor no decaying solution (a*m <= 2), which
    ``classify`` raises as NoInhibitorSolutionError.

    Each cell takes the first rule it meets.  Nonexistence conditions come
    first, then the minimal-growth conditions (k > N, sigma < 1), then the
    faster-growth conditions (2 < k < N, sigma < 1).  Boundary equalities in
    strict inequalities, k = N, k <= 2 and sigma >= 1 are INCONCLUSIVE: the
    verdict reports only what the known conditions settle.  Rules that a
    cell never reaches may divide by zero on it, silently.
    """
    outcomes, conditions, rule, cls, u_power = _classify_rules(N, kind, p, q, m, s, k)
    entry, tables = _power_tables(N, kind, cls, u_power, *(np.asarray(x, float) for x in (m, s)))
    # [...] keeps one cell's power a 0-d array, as for any other shape
    return outcomes[rule], conditions[rule], *(np.take(table, entry)[...] for table in tables)


def classify(params: ExponentSet, r0: float = 1.0) -> RegimeVerdict:
    """Deterministic regime verdict for one exponent tuple: the one-cell view
    of ``_classify_rules``, which reads only its class's activator power,
    with profiles anchored at ``r0``.  The GM inhibitor profile is
    ``predicted_v_profile`` of the activator's (NoInhibitorSolutionError
    where a*m <= 2); the MIXED one is the activator's own."""
    outcomes, conditions, rule, cls, u_power = _classify_rules(
        params.N, params.kind, params.p, params.q, params.m, params.s, params.k)
    u_power = u_power[cls]
    if math.isnan(u_power):
        return RegimeVerdict(outcomes[rule], conditions[rule])
    u = AsymptoticProfile(float(u_power), 0.0, r0)
    v = u if params.kind is SystemKind.MIXED else predicted_v_profile(params, u)
    return RegimeVerdict(outcomes[rule], conditions[rule], u, v)


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

    A power that overflows the doubles, or that raises an underflowed 0 to a
    negative power (a tiny or huge source amplitude, or a huge lam), is a
    LambdaRangeError naming the envelope [C1, C2] and lam; so is a box
    outside ``ConstantSchedule``'s range rule (a tiny or huge lam).  At
    lam = 0 the box is all zeros and only the threshold is read.
    """
    if not (0 < C3 < C4):
        raise ConfigError("need C4 > C3 > 0")
    p, q, m, s = params.p, params.q, params.m, params.s
    C1, C2 = env.C1, env.C2
    mo = m / (1.0 + s)
    lam = params.lam
    lam_star = None
    lam_star_star = None
    # a Python float power raises where numpy would give inf or 0
    try:
        C5 = C1 ** mo * C3 ** (1.0 + mo)
        C6 = C2 ** mo * C4 ** (1.0 + mo)
        D = C1 * C3 * lam
        E = 2.0 * C2 * C4 * lam
        F = C3 * D ** mo
        G = C4 * E ** mo
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
    except (OverflowError, ZeroDivisionError) as err:
        raise LambdaRangeError(f"the constant schedule of the source envelope [C1, C2] = "
                               f"[{C1:g}, {C2:g}] at lambda = {lam:g} leaves the range "
                               f"of doubles ({type(err).__name__})") from err
    return ConstantSchedule(
        C3=C3, C4=C4, C5=C5, C6=C6, D=D, E=E, F=F, G=G, lam=lam,
        lambda_star=lam_star, lambda_star_star=lam_star_star,
    )
