"""Exception hierarchy. Every solver-facing error carries a stable ``tag``
string that the CLI prints and maps to its exit code."""


class GmextError(Exception):
    """Base class for all package errors."""

    tag = "ERROR"


class ConfigError(GmextError):
    tag = "BAD_CONFIG"


class SigmaRangeError(GmextError):
    """Coupling index outside the range required by the fixed-point argument."""

    tag = "SIGMA_OUT_OF_RANGE"


class LambdaRangeError(GmextError):
    """The source-strength threshold lambda* is not a positive finite double
    (it underflows to 0 as sigma -> 1), so there is no default lambda, or the
    constant schedule leaves the range of doubles: a power overflows, or a
    box bound at lambda > 0 is not a positive finite double."""

    tag = "LAMBDA_OUT_OF_RANGE"


class SigmaUndefinedError(GmextError):
    """Coupling index requested with p <= 1."""

    tag = "SIGMA_UNDEFINED"


class DegenerateExponentError(GmextError):
    """Threshold formula degenerates (exponent denominator vanishes)."""

    tag = "DEGENERATE_EXPONENT"


class NoInhibitorSolutionError(GmextError):
    """Inhibitor equation has no decaying solution for this source decay."""

    tag = "NO_INHIBITOR_SOLUTION"


class NonintegrableSourceError(GmextError):
    """Source envelope fails the first-moment integrability test."""

    tag = "NONINTEGRABLE_SOURCE"


class ConvergenceError(GmextError):
    tag = "NO_CONVERGENCE"


class DegenerateSolveError(GmextError):
    """Iterates collapsed to (numerical) zero; no positive solution at this
    truncation."""

    tag = "DEGENERATE"


class DivergedError(GmextError):
    tag = "DIVERGED"


class WindowError(GmextError):
    tag = "BAD_WINDOW"


class CollinearWindowError(WindowError):
    tag = "COLLINEAR_WINDOW"


class ProbeUnsupportedError(GmextError):
    tag = "PROBE_UNSUPPORTED"
