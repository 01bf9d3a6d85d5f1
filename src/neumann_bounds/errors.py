"""Shared exception types and the JSON boundary checks that raise them.

Everything numerical-precondition-ish derives from ValueError so callers can
catch broadly; genuine runtime arithmetic failures derive from ArithmeticError.
"""

from numbers import Integral


class DimensionError(ValueError):
    """Array shape is incompatible with the operation (non-square, mismatch)."""


class SymmetryError(ValueError):
    """Matrix tagged or required symmetric/Hermitian fails the numerical check."""


class SingularityError(ValueError):
    """Matrix is singular (or numerically so) where invertibility is required."""


class DomainError(ValueError):
    """Scalar argument outside the documented domain."""


class PreconditionError(ValueError):
    """Structured input violates a documented precondition."""


class DivergenceError(ArithmeticError):
    """Iteration cannot converge (spectral radius >= 1)."""


class NumericalError(ArithmeticError):
    """Computation produced non-finite values or failed a runtime audit."""


def check_keys(data: dict, allowed, required, what: str) -> None:
    """Reject unknown or missing keys of a JSON object with DomainError."""
    for label, keys in (("unknown", set(data) - set(allowed)),
                        ("missing", set(required) - set(data))):
        if keys:
            raise DomainError(f"{label} {what} keys {sorted(keys)}")


def as_int(value, key: str) -> int:
    """A JSON size or seed as an int; DomainError naming ``key`` unless integral.

    Integral floats (``10.0``) pass; ``10.7``, booleans and strings do not.
    """
    if isinstance(value, bool) or not (isinstance(value, Integral) or (
            isinstance(value, float) and value.is_integer())):
        raise DomainError(f"{key} must be an integer, got {value!r}")
    return int(value)
