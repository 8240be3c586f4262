"""Shared error types and input-validation helpers.

Every public entry point validates its inputs through the small helpers
below so that bad arguments surface as :class:`InputError` (CLI exit
code 2) rather than as numpy warnings or silent nonsense.  Model-level
failures get their own classes so callers can tell "you passed garbage"
apart from "the model you posed is degenerate" and from "an internal
cross-check failed".
"""

from __future__ import annotations

import math
import operator
from enum import Enum

__all__ = [
    "ModelError",
    "InputError",
    "DegenerateModelError",
    "InfeasibleError",
    "InternalCheckError",
]


class ModelError(Exception):
    """Base class for every error raised by this package."""


class InputError(ModelError, ValueError):
    """An argument is outside the documented domain (CLI exit code 2)."""


class DegenerateModelError(ModelError):
    """The posed model is degenerate or infeasible (CLI exit code 3).

    Examples: an empty moment-budget set in the multi-product model, or a
    misspecification index of exactly zero, for which every decision is
    worthless and no finite report exists.
    """


class InfeasibleError(DegenerateModelError):
    """No feasible point exists for the posed constraints (CLI exit code 3)."""


class InternalCheckError(ModelError):
    """An internal cross-check failed; indicates a bug (CLI exit code 4)."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise InputError(message)


def _member(kind: type[Enum], value):
    """``kind(value)``, or InputError naming the values ``kind`` allows."""
    try:
        return kind(value)
    except ValueError:
        allowed = ", ".join(m.value for m in kind)
        raise InputError(f"{kind.__name__} must be one of {allowed}, got {value!r}") from None


def require_finite(name: str, value: float) -> float:
    try:
        value = float(value)
    except OverflowError:  # a Python int beyond the float range
        raise InputError(f"{name} must be finite, got an int beyond the float range") from None
    except (TypeError, ValueError) as exc:  # not a number: None, a string, a list
        raise InputError(f"{name} must be a finite number: {exc}") from None
    if not math.isfinite(value):
        raise InputError(f"{name} must be finite, got {value!r}")
    return value


def _whole_number(name: str, value, low: int) -> int:
    """``value`` as the int it names, a whole number >= ``low``: an int (or
    an integer numpy scalar) is taken exactly, anything else through
    ``float()``, which must leave no fraction."""
    try:
        n = operator.index(value)
    except TypeError:  # not an int: a float, a numeric string, None
        f = require_finite(name, value)
        require(f == int(f), f"{name} must be a whole number, got {value!r}")
        n = int(f)
    require(n >= low, f"{name} must be >= {low}, got {value!r}")
    return n


def require_positive(name: str, value: float) -> float:
    value = require_finite(name, value)
    if value <= 0.0:
        raise InputError(f"{name} must be > 0, got {value!r}")
    return value


def require_nonnegative(name: str, value: float, *, allow_inf: bool = False) -> float:
    try:
        value = float(value)
    except (OverflowError, TypeError, ValueError):
        return require_finite(name, value)  # raises InputError
    if allow_inf and math.isinf(value) and value > 0:
        return value
    value = require_finite(name, value)
    if value < 0.0:
        raise InputError(f"{name} must be >= 0, got {value!r}")
    return value


# The relative bracket width at which the solvers' bisections stop, and the
# halvings that reach it: a bracket of finite floats spans less than 2^1024, a
# root that a relative width can resolve is a normal float, at least 2^-1022,
# and 1e-10 of it takes 34 more halvings: 1024 + 1022 + 34 = 2080.
_BISECT_REL_TOL = 1e-10
_MAX_BISECT_ITER = 2080


def _fsum_or_inf(xs) -> float:
    """math.fsum of xs, or inf when its partial sums leave the float range."""
    try:
        return math.fsum(xs)
    except OverflowError:
        return math.inf


def positive_part(x: float) -> float:
    """max(x, 0) — used for thresholds written with a positive-part."""
    return x if x > 0.0 else 0.0
