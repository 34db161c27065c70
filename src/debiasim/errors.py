"""Exception types shared across the package."""


class DebiasimError(Exception):
    """Base class for all package-specific errors."""


class DomainError(DebiasimError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class NoSolutionError(DebiasimError):
    """A root find could not bracket or converge to a solution."""


class DegenerateWindowError(DebiasimError):
    """A truncation window carries (numerically) no probability mass."""


class InsufficientDataError(DebiasimError):
    """Too few observations to fit anything meaningful."""


class OptimizationError(DebiasimError):
    """Threshold optimization failed (non-finite objective everywhere)."""


class UnsupportedFamilyError(DebiasimError):
    """Operation is only defined for a different distribution family."""


class ConfigError(DebiasimError, ValueError):
    """Run configuration failed validation. Message names the field path."""


class MalformedRowError(DebiasimError, ValueError):
    """A CSV row could not be parsed. Message carries the row index."""
