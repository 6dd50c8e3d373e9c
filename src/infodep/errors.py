"""Exception hierarchy for infodep.

``ValidationError`` covers everything wrong with user-supplied data (bad
probabilities, mismatched labels, shapes an operation does not support,
out-of-range parameters). ``NumericalError`` signals that an internal
computation failed a consistency check or did not converge.

The exit codes of the ``infodep`` command live here, as each class's
``exit_code``: 2 for invalid input, 3 for a shape the operation does not
support (a single-symbol, non-binary or oversized alphabet), 4 for a
numerical failure.  A subclass inherits its base's code.
"""

__all__ = [
    "InfodepError",
    "ValidationError",
    "ParseError",
    "NegativeEntry",
    "SumNotOne",
    "ZeroMarginal",
    "LabelMismatch",
    "SupportViolation",
    "DegenerateAlphabet",
    "NotBinary",
    "ZeroFunction",
    "LambdaOutOfRange",
    "BoundaryPoint",
    "NotBinaryInput",
    "RTooCloseToP",
    "ZeroIUX",
    "EpsTooLarge",
    "BadOrder",
    "PEqualsOne",
    "AlphabetTooLarge",
    "ProductTooLarge",
    "NumericalError",
]


class InfodepError(Exception):
    """Base class for all infodep exceptions."""

    exit_code = 4


class ValidationError(InfodepError):
    """Invalid input data or parameters."""

    exit_code = 2


class ParseError(ValidationError):
    """Malformed input file (bad JSON, missing keys, unreadable entries)."""


class NegativeEntry(ValidationError):
    """A probability entry is negative."""


class SumNotOne(ValidationError):
    """Probabilities do not sum to 1 within tolerance."""


class ZeroMarginal(ValidationError):
    """A marginal probability is zero (empty row or column)."""


class LabelMismatch(ValidationError):
    """Labels of two objects that must share an alphabet differ."""


class SupportViolation(ValidationError):
    """KL divergence D(r||p) requested where r puts mass outside supp(p)."""


class DegenerateAlphabet(ValidationError):
    """An alphabet has a single symbol, so no correlation witness exists
    (the maximal correlation itself is 0 by convention)."""

    exit_code = 3


class NotBinary(ValidationError):
    """The closed form needs at least one binary alphabet."""

    exit_code = 3


class ZeroFunction(ValidationError):
    """The supplied function is constant, so it cannot be variance-normalized."""


class LambdaOutOfRange(ValidationError):
    """The trade-off weight must lie in [0, 1]."""


class BoundaryPoint(ValidationError):
    """The Hessian is undefined at inputs with zero entries."""


class NotBinaryInput(ValidationError):
    """This operation supports binary input alphabets only."""

    exit_code = 3


class RTooCloseToP(ValidationError):
    """The reference divergence D(r||p) is below threshold, the ratio is undefined."""


class ZeroIUX(ValidationError):
    """I(U;X) vanishes, so the information ratio is undefined."""


class EpsTooLarge(ValidationError):
    """The perturbation weight pushes the complementary conditional off the simplex."""


class BadOrder(ValidationError):
    """Norm exponents must satisfy 1 <= q <= p."""


class PEqualsOne(ValidationError):
    """The Hoelder conjugate of 1 is undefined."""


class AlphabetTooLarge(ValidationError):
    """An alphabet exceeds the supported size."""

    exit_code = 3


class ProductTooLarge(AlphabetTooLarge):
    """A product alphabet exceeds the supported size."""


class NumericalError(InfodepError):
    """A numerical routine failed to converge or an internal cross-check failed."""
