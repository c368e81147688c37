"""Exception types shared across the package.

The type of an error says whose fault it is, and :func:`berglab.cli.main`
maps it to an exit code.  A spec error is any ``ValueError``: input the
maths rejects.  The berglab spec errors subclass it: objects of different
dimensions, an improper ideal, domains that are not nested, a density F
outside the complement, an unsupported domain, a functional whose kernel is
0 and a jet space past the size cap.  :class:`CrossCheckError` is a
disagreement between two sides of the identity, :class:`QuadratureError`
and :class:`SingularMatrixError` are numerical failures, and any other
:class:`BerglabError` is an error of the computation.
"""


class BerglabError(Exception):
    """Base class for all berglab-specific errors."""


class CrossCheckError(BerglabError):
    """Two values that the theory says are equal are not, such as the
    minimal L2 integral C and the kernel ratio B of one problem."""


class DimensionMismatchError(BerglabError, ValueError):
    """Two objects live in different ambient dimensions (a spec error)."""


class ZeroFunctionalError(BerglabError):
    """An operation that needs a nonzero functional got the zero one."""


class SupportBoundError(BerglabError):
    """A functional's support reaches past a jet's degree bound."""


class ImproperIdealError(BerglabError, ValueError):
    """The jet-ideal span fills the whole jet space (the ideal is not
    proper; a spec error)."""


class SingularMatrixError(BerglabError):
    """A matrix that must be invertible (or positive definite) is not."""


class QuadratureError(BerglabError):
    """Numerical integration failed to reach the requested tolerance, or the
    float of a positive value left the float range
    (:func:`berglab.exactnum.in_float_range`)."""


class DivergentIntegralError(BerglabError):
    """A weighted integral that a bound needs is infinite."""


class NotNestedError(BerglabError, ValueError):
    """An exhaustion sequence whose domains are not nested (a spec error)."""


class NotInComplementError(BerglabError, ValueError):
    """A density target F that is not in the orthogonal complement of the
    ideal: of infinite norm, not orthogonal to the ideal's span, or inside
    the ideal at a requested level (a spec error)."""


class UnsupportedDomainError(BerglabError, ValueError):
    """A domain that the requested construction does not support, such as a
    toric weight on a ball of dimension >= 2, a second cut, or a problem
    past a moment matrix's degree (a spec error)."""


class ZeroKernelError(BerglabError, ValueError):
    """A functional with no square-integrable slot, whose kernel is 0 (a spec error)."""


class JetSpaceTooLargeError(BerglabError, ValueError):
    """A jet space with more indices than ``indices.MAX_JET_INDICES`` (a spec
    error)."""
