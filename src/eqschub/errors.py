"""Exception types shared across the package."""


class EqschubError(Exception):
    """Base class for all errors raised by this package.

    ``exit_code`` is the command line's exit status for the error: 2 for
    bad input, 3 for a resource or closure cap, 4 for an internal
    inconsistency.
    """

    exit_code = 2


class InvalidCartan(EqschubError):
    """Matrix violates the (generalized) Cartan matrix invariants."""


class RankMismatch(EqschubError):
    """Operands built over root systems of different rank."""


class ClosureOverflow(EqschubError):
    """Reflection closure exceeded its cap: the matrix is not finite type."""

    exit_code = 3


class SingularCartan(EqschubError):
    """Finite-type construction requires an invertible Cartan matrix."""


class NotDivisible(EqschubError):
    """Exact polynomial division has no quotient."""

    exit_code = 4


class NotGroupElement(EqschubError):
    """Matrix does not arise from a Weyl group element."""


class ResourceCap(EqschubError):
    """A loop exceeded its configured cap: enumeration its element cap, or
    ``weyl.canonicalize`` its descent steps."""

    exit_code = 3


class NotFiniteType(EqschubError):
    """Operation is only defined for finite-type root systems."""


class InsufficientBound(EqschubError):
    """Restriction table bound too small for the requested computation."""


class DomainViolation(EqschubError):
    """Evaluation point lies outside the positive cone."""


class InternalInconsistency(EqschubError):
    """A computed quantity contradicts a structural invariant.

    Raised by the Chevalley recurrence (an inexact division, a value of
    the wrong degree, a negative Chevalley coefficient) and by table
    construction when a verified invariant fails.  Always a bug, never a
    user error.
    """

    exit_code = 4
