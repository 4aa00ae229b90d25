"""Exception types shared across the package."""


class SkewthermError(Exception):
    """Base class for all package errors."""


class CapacityExhaustedError(SkewthermError):
    """A base point ran out of consumable digits for the requested orbit length."""


class HypothesisViolatedError(SkewthermError):
    """A standing inequality of the expansion/potential regime failed.

    Carries the name of the first failed inequality in ``args[0]``.
    """


class NoConvergenceError(SkewthermError):
    """An iterative procedure hit its iteration cap before meeting tolerance."""


class DegenerateFitError(SkewthermError):
    """A regression had no usable points (e.g. all increments underflowed)."""


class ConeViolationError(SkewthermError):
    """A function handed to a projective-metric routine is not in the cone."""


class NonpositiveDenominatorError(SkewthermError):
    """A Hilbert-metric denominator was <= 0 (reference function on cone boundary)."""


class ConeEscapeError(SkewthermError):
    """An operator image left the contracted cone by more than the allowed margin."""


class NonpositiveFunctionError(SkewthermError, ValueError):
    """A grid function required to be positive had a nonpositive value, e.g.
    after e^phi underflowed to zero."""


class EmptyGoodSetError(SkewthermError):
    """Word classification produced no good words (parameters outside regime)."""


class ConfigError(SkewthermError):
    """Experiment configuration could not be parsed or validated, or a path
    given on the command line could not be used."""
