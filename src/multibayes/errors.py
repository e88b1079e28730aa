"""Exception hierarchy shared by all multibayes modules."""

from __future__ import annotations


class MultibayesError(Exception):
    """Base class for every error raised by this package."""


class UnknownElementError(MultibayesError):
    """An element does not belong to the sample space at hand."""


class SpaceMismatchError(MultibayesError):
    """Two objects that must share a sample space do not."""


class NonConvexWeightsError(MultibayesError):
    """Mixture weights are negative or do not sum to one."""


class EmptyMultisetError(MultibayesError):
    """An operation needs a nonempty multiset (e.g. normalisation)."""


class EmptyEvidenceError(MultibayesError):
    """An operation needs at least one evidence factor."""


class NotAPredicateError(MultibayesError):
    """A factor with values above one was used where a predicate is required."""


class NonPositiveLogError(MultibayesError):
    """Logarithm requested for a value that is zero or negative."""


class LogBaseError(MultibayesError):
    """A logarithm base that is not a finite positive number other than one."""


class FloatRangeError(MultibayesError):
    """A float-mode result overflowed, or is otherwise not a finite
    non-negative value (or, for a distribution, no longer sums to one)."""


class ZeroValidityError(MultibayesError):
    """Conditioning on a factor whose expected value is zero."""


class SupportMismatchError(MultibayesError):
    """A divergence was requested where the support inclusion fails."""


class SizeLimitError(MultibayesError):
    """A product or enumeration would exceed the configured size guard."""


class UnknownSuiteError(MultibayesError):
    """The requested property suite does not exist."""


class ModelError(MultibayesError):
    """A model file is structurally invalid or a reference does not resolve."""


class ExprParseError(MultibayesError):
    """An eval expression or model file could not be parsed.

    Carries 1-based ``line`` and ``column`` of the offending position.
    """

    def __init__(self, message: str, line: int = 1, column: int = 1):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column
