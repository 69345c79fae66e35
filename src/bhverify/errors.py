"""Exception hierarchy shared across the engine."""


class EngineError(Exception):
    """Base class for all engine-specific failures."""


class MalformedCoefficientError(EngineError):
    """Raised when a coefficient's denominator is zero or does not split in Q[n]."""


class MalformedMonomialError(EngineError):
    """Raised when a tensor monomial has an invalid slot structure."""


class ValenceError(EngineError):
    """Raised when expressions of incompatible valence are combined."""


class OrderOverflowError(EngineError):
    """Raised when a derivative would exceed the supported jet order."""


class UnsupportedCurvatureError(EngineError):
    """Raised when an operation would require curvature data beyond Ricci."""


class CompositeDerivativeError(EngineError):
    """Raised when differentiating a composite symbol that must be expanded first."""


class PoleError(EngineError):
    """Raised when numeric parameters hit a coefficient denominator root."""


class DegenerateCertificateError(EngineError):
    """Raised when a sign certificate is requested for an identically-zero
    polynomial or on an empty interval."""


class NoCombinationError(EngineError):
    """Raised when no linear combination of basis identities matches the target."""


class SingularSystemError(EngineError):
    """Raised when the combination system is singular (e.g. duplicated basis rows)."""


class EngineInconsistencyError(EngineError):
    """Raised when a numeric check contradicts an exact certificate.  Always fatal."""
