"""Exception hierarchy.

Two broad categories matter to callers (and to the CLI exit codes):
``ValidationError`` for ill-formed input and ``UnsupportedError`` for
well-formed requests the calculator deliberately refuses because no rule
exists for them.
"""


class Hilb2Error(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(Hilb2Error):
    """Input violates an invariant (bad index range, grading, ambient...)."""


class UnsupportedError(Hilb2Error):
    """Operation is well-posed but intentionally not provided: a non-MS second pairing
    factor or column basis, and a pure power of C_{n-1,n-1}.  No family is refused."""


class InvalidIndex(ValidationError):
    """Index pair (i, j) out of range for the requested class family."""


class InvalidGrading(ValidationError):
    """Dimension or codimension outside [0, 2n]."""


class MixedAmbient(ValidationError):
    """Operands live on Hilbert schemes of different projective spaces."""


class NotComplementary(ValidationError):
    """Codimensions of the two classes do not sum to 2n."""


class NotHomogeneous(ValidationError):
    """Class mixes terms of different dimensions."""


class WrongBasis(ValidationError):
    """Class contains terms outside the basis required by the operation."""


class InvalidInput(ValidationError):
    """Catch-all for parameter preconditions (n >= 1, d >= 1, ...)."""


class ParseError(ValidationError):
    """Malformed class or symbol document."""


class UnsupportedFamilyPair(UnsupportedError):
    """No intersection number is defined for this pair of families (a second
    factor, or a matrix column basis, that is not MS)."""


class UnsupportedMonomial(UnsupportedError):
    """The monomial is not evaluated (pure powers of C_{n-1,n-1})."""
