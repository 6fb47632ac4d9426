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
    """Operation is well-posed but intentionally not provided: a non-MS matrix column
    basis, and the command line's recorded refusals.  No family is refused."""


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
    """Class has terms outside the basis required: ``hilb2 cone``'s recorded answer alone."""


class InvalidInput(ValidationError):
    """Catch-all for parameter preconditions (n >= 1, d >= 1, ...)."""


class ParseError(ValidationError):
    """Malformed class or symbol document."""


class UnsupportedFamilyPair(UnsupportedError):
    """No intersection number is given for these families: ``intersection_matrix``'s
    non-MS column basis, and ``hilb2 pair``'s recorded answer for an A' or B ``--y``."""


class UnsupportedMonomial(UnsupportedError):
    """The monomial is not evaluated: ``hilb2 power --k 0``'s recorded answer alone."""
