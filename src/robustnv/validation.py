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


def require(condition: bool, message: str, exc: type = InputError) -> None:
    if not condition:
        raise exc(message)


def require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise InputError(f"{name} must be finite, got {value!r}")
    return value


def require_positive(name: str, value: float) -> float:
    value = require_finite(name, value)
    if value <= 0.0:
        raise InputError(f"{name} must be > 0, got {value!r}")
    return value


def require_nonnegative(name: str, value: float, *, allow_inf: bool = False) -> float:
    value = float(value)
    if allow_inf and math.isinf(value) and value > 0:
        return value
    value = require_finite(name, value)
    if value < 0.0:
        raise InputError(f"{name} must be >= 0, got {value!r}")
    return value


def positive_part(x: float) -> float:
    """max(x, 0) — used for thresholds written with a positive-part."""
    return x if x > 0.0 else 0.0
