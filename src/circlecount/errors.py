"""Exception hierarchy shared by all circlecount modules.

Three families matter to callers (and to the CLI exit codes):

* ``ValidationError``: malformed input; the computation never started.
* ``BudgetExceededError``: the request was well-formed but the configured
  operation/memory budget refuses it deterministically.
* ``HypothesisError``: a mathematical hypothesis needed by the requested
  operation does not hold for the given data (e.g. a singular Jacobian).
"""


class CircleCountError(Exception):
    """Base class for all library errors."""


class ValidationError(CircleCountError, ValueError):
    """Malformed or inconsistent input."""


class ZeroCoefficientError(ValidationError):
    """A system coefficient is zero."""


class NonzeroSumError(ValidationError):
    """System coefficients do not sum to zero."""


class BadDegreeError(ValidationError):
    """Degree outside the accepted range."""


class ArityMismatchError(ValidationError):
    """Tuple length differs from the system arity."""


class NotASolutionError(ValidationError):
    """The tuple was required to solve the system but does not."""


class BadIndicesError(ValidationError):
    """Index subset is not a valid k-subset of the variable indices."""


class NotCoprimeError(ValidationError):
    """Arguments required to be coprime are not."""


class BadParamsError(ValidationError):
    """Generator or operation parameters are invalid."""


class ParseError(ValidationError):
    """A system or set file could not be parsed."""


class NoRealSolutionError(ValidationError):
    """No non-singular real solution in the open unit cube was found."""


class BudgetExceededError(CircleCountError):
    """Deterministic refusal: the operation would exceed the configured budget."""


class HypothesisError(CircleCountError):
    """A mathematical hypothesis of the operation fails on this input."""


class SingularJacobianError(HypothesisError):
    """The Jacobian determinant vanishes (no unit after normalization)."""


class HypothesisViolatedError(HypothesisError):
    """The lifting hypothesis (congruence depth vs. Jacobian valuation) fails."""


class NoConvergenceError(HypothesisError):
    """Newton iteration failed to reach the target precision."""


class ToleranceNotMetError(CircleCountError):
    """Adaptive quadrature failed to converge to the requested tolerance."""
