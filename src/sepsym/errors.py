"""Exception types shared across the package."""


class SepsymError(Exception):
    """Base class for all package-specific errors."""


class DomainError(SepsymError):
    """An operator was evaluated outside its admissible domain."""


class ZeroBase(DomainError):
    """Mixed power of a numerically zero base."""


class ZeroAmplitude(DomainError):
    """A logarithmic operator met an amplitude below the admissible floor."""


class SpaceMismatch(SepsymError, ValueError):
    """Operands live on different configuration spaces or particle counts,
    or a space lacks the grid, spin factors or sites an operation needs."""


class BadTuple(SepsymError):
    """Malformed lifting tuple (not strictly increasing / out of bounds)."""


class BadRange(SepsymError):
    """Particle-number argument outside the supported range."""


class SizeCapExceeded(SepsymError, ValueError):
    """A state array would exceed the flat-size cap."""


class NotDerivation(SepsymError):
    """A hierarchy failed the tensor-derivation residual check."""


class StepMismatch(SepsymError):
    """Integration horizon is not an integer multiple of the step size."""


class IndexMismatch(SepsymError):
    """Estimated homogeneity indices disagree with the declared ones."""


class ScenarioError(SepsymError):
    """A scenario file failed to parse or validate."""
