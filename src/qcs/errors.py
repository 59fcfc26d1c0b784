"""Shared exception types for the qcs package."""


class QcsError(Exception):
    """Base class for all qcs-specific errors."""


class DimensionMismatch(QcsError):
    """Operands have incompatible shapes or lengths."""


class IndexOutOfRange(QcsError):
    """A support index falls outside the valid column range."""


class NotHermitian(QcsError):
    """A matrix required to be Hermitian deviates beyond tolerance."""


class BadLength(QcsError):
    """A flat real vector has a length incompatible with the requested layout."""


class ZeroDivisor(QcsError):
    """Inverse of a quaternion whose norm is below the machine threshold."""


class InvalidVariance(QcsError):
    """A sampler was given a non-positive variance."""


class SparsityOutOfRange(QcsError):
    """Requested sparsity s is outside [0, n]."""


class NonFiniteInput(QcsError):
    """A recovery problem's matrix or data holds NaN or Inf entries."""


class BudgetExceeded(QcsError):
    """Exact support enumeration would exceed the configured budget."""

    def __init__(self, required: int, budget: int):
        self.required = required
        self.budget = budget
        super().__init__(
            f"enumeration needs {required} supports, budget is {budget}"
        )


class ConditionViolated(QcsError):
    """delta_2s >= sqrt(2) - 1, so the recovery-guarantee constants are undefined."""


class DegenerateDelta(UserWarning):
    """delta is numerically zero; inner-product ratios are reported as 0."""


class IoFailure(QcsError):
    """A plot or record file could not be produced."""
