"""Exception types shared across the package."""


class BerglabError(Exception):
    """Base class for all berglab-specific errors."""


class DimensionMismatchError(BerglabError):
    """Two objects live in different ambient dimensions."""


class ZeroFunctionalError(BerglabError):
    """An operation that needs a nonzero functional got the zero one."""


class SupportBoundError(BerglabError):
    """A functional's support reaches past a jet's degree bound."""


class ImproperIdealError(BerglabError):
    """The jet-ideal span fills the whole jet space (the ideal is not proper)."""


class UnboundedFunctionalError(BerglabError):
    """A functional touches an index whose weighted monomial norm is infinite."""


class SingularMatrixError(BerglabError):
    """A matrix that must be invertible (or positive definite) is not."""


class QuadratureError(BerglabError):
    """Numerical integration failed to reach the requested tolerance."""

    def __init__(self, message, achieved=None):
        super().__init__(message)
        self.achieved = achieved


class DivergentIntegralError(BerglabError):
    """A weighted integral that a bound needs is infinite."""


class NotNestedError(BerglabError, ValueError):
    """An exhaustion sequence whose domains are not nested (a spec error)."""
