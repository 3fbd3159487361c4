"""Input validation helpers used across the package."""

import math
import reprlib

import numpy as np

from .errors import DomainError

__all__ = [
    "check_positive",
    "check_positive_array",
    "check_whole",
    "check_count",
    "check_nonnegative",
    "check_unit_open",
    "check_finite_scalar",
    "check_observations",
    "float_array",
    "all_hold",
]


def all_hold(flags):
    """Whether every flag holds; ``flags`` is a bool or an array of them.

    An array comes from a stacked batch.  A plain bool skips the numpy call,
    which would cost more than the scalar check it guards.
    """
    return bool(flags.all()) if isinstance(flags, np.ndarray) else bool(flags)


def check_finite_scalar(value, name="value"):
    try:
        value = float(value)
    except (TypeError, ValueError):  # None, a string that is no number, an array
        raise DomainError(f"{name} must be a number, got {value!r}") from None
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value}")
    return value


def check_positive(value, name="value"):
    value = check_finite_scalar(value, name)
    if value <= 0:
        raise DomainError(f"{name} must be > 0, got {value}")
    return value


def check_positive_array(value, name="value"):
    """``check_positive`` for a scalar; an array must be finite and > 0 throughout."""
    if not isinstance(value, np.ndarray):
        return check_positive(value, name)
    if not np.all(np.isfinite(value) & (value > 0)):
        raise DomainError(f"{name} must be finite and > 0 throughout, got {value}")
    return value


def check_whole(value, name="value"):
    """``value`` as an int; a fractional, non-finite or non-number raises DomainError."""
    if isinstance(value, (int, np.integer)):
        return int(value)
    try:
        whole = float(value).is_integer()
    except (TypeError, ValueError):  # None, or a string that is no number
        whole = False
    if not whole:
        raise DomainError(f"{name} must be a whole number, got {value!r}")
    return int(float(value))


def check_count(value, name="n"):
    """``value`` as an int >= 1; a fractional, non-finite or non-number raises DomainError."""
    value = check_whole(value, name)
    if value < 1:
        raise DomainError(f"{name} must be >= 1, got {value}")
    return value


def check_nonnegative(value, name="value"):
    value = check_finite_scalar(value, name)
    if value < 0:
        raise DomainError(f"{name} must be >= 0, got {value}")
    return value


def check_unit_open(value, name="level"):
    value = check_finite_scalar(value, name)
    if not 0.0 < value < 1.0:
        raise DomainError(f"{name} must lie in (0, 1), got {value}")
    return value


def float_array(value, name="value"):
    """``value`` as a float array; anything that is not numbers raises DomainError."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError):  # None in a list, a string, ragged rows
        raise DomainError(f"{name} must be numbers, got {reprlib.repr(value)}") from None


def check_observations(X, d=1):
    """Coerce raw observations to a float array of shape (m,) or (m, d).

    Accepts any sequence of scalars (d == 1) or of length-d vectors; the
    values are checked by ``Family._check_sample``.
    """
    X = float_array(X, "observations")
    if X.ndim == 0:
        X = X.reshape(1)
    if d == 1:
        if X.ndim == 2 and X.shape[1] == 1:
            X = X[:, 0]
        if X.ndim != 1:
            raise DomainError(f"expected 1-d observations, got shape {X.shape}")
    else:
        if X.ndim == 1:
            X = X.reshape(1, -1)
        if X.ndim != 2 or X.shape[1] != d:
            raise DomainError(
                f"expected observations of dimension {d}, got shape {X.shape}"
            )
    if X.shape[0] == 0:
        raise DomainError("at least one observation is required")
    return X
