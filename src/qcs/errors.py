"""Shared exception types for the qcs package, and check_number, the one
test every number a caller passes in goes through."""

import math
import numbers


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


def check_number(value, name: str, kind: type = float, low=-math.inf, high=math.inf,
                 low_open: bool = False, error: type[Exception] = ValueError):
    """value as a plain int (kind int) or float (kind float), so that numpy
    numbers serialize. Raises error unless value is a number of that kind,
    not a bool, finite, and in [low, high], or (low, high] when low_open."""
    what = "an integer" if kind is int else "a number"
    if (isinstance(value, bool)
            or not isinstance(value, numbers.Integral if kind is int else numbers.Real)):
        raise error(f"{name} must be {what}, got {value!r}")
    try:
        plain = kind(value)
    except OverflowError:  # an integer past the float range
        plain = math.inf
    if not ((kind is int or math.isfinite(plain)) and plain <= high
            and (low < plain if low_open else low <= plain)):
        raise error(f"{name} must be {what} in {'(' if low_open else '['}{low}, {high}], "
                    f"got {value!r}")
    return plain
