"""Exception types, and the default work budget, shared across the package."""

DEFAULT_BUDGET = 10**8


class NLFlowError(Exception):
    """Base class for all package-specific errors."""


class BudgetExceededError(NLFlowError):
    """An exhaustive enumeration would exceed the configured budget."""


class LatticeSizeError(NLFlowError):
    """A union-closed lattice grew past the configured element cap."""


class NonIntegerPolynomialError(NLFlowError):
    """Exact interpolation produced a non-integral coefficient."""


class WitnessMismatchError(NLFlowError):
    """A held-out interpolation witness disagreed with the fitted polynomial."""
