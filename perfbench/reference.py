"""Closed-form reference values the benchmark checks robustnv's answers against.

Written from the model's formulas, not from the library's code, and in
numerically stable forms: every difference of nearly equal terms is
rationalized, so the references stay accurate for indices from 1e-3 to 1e15
and demand scales from 1e-2 to 1e4.  Plain floats only (``math.inf`` is the
ambiguity-only index); nothing here imports robustnv.
"""

from __future__ import annotations

import math

import numpy as np


def _sqrt_odds(kappa: float) -> float:
    return math.sqrt(kappa / (1.0 - kappa))


def _minus_hypot(d: float, sigma: float) -> float:
    """d - sqrt(d^2 + sigma^2) without cancellation for d > 0."""
    h = math.hypot(d, sigma)
    return -sigma * sigma / (d + h) if d > 0.0 else d - h


def scarf(mu: float, sigma: float, price: float, cost: float) -> tuple[float, float]:
    """Ambiguity-only (quantity, value); (0, 0) below the degeneracy gate."""
    kappa = (price - cost) / price
    if kappa < sigma * sigma / (mu * mu + sigma * sigma):
        return 0.0, 0.0
    odds = _sqrt_odds(kappa)
    q = mu + 0.5 * sigma * (odds - 1.0 / odds)
    return q, mu * (price - cost) - sigma * math.sqrt(cost * (price - cost))


def value_function(alpha: float, q: float, mu: float, sigma: float,
                   price: float, cost: float) -> float:
    """L_alpha(q): worst-case expected transformed profit over the moment set."""
    if q == 0.0:
        return 0.0
    b = mu * mu + sigma * sigma
    if math.isinf(alpha):
        if 2.0 * mu * q >= b:
            return 0.5 * price * _minus_hypot(mu - q, sigma) + (price - cost) * q
        return price * q * mu * mu / b - cost * q
    shift = price / (4.0 * alpha)
    in_q = q >= shift and (2.0 * mu - price / alpha) * q >= b - price * mu / (2.0 * alpha)
    if in_q:
        u = q + shift
        return 0.5 * price * _minus_hypot(mu - u, sigma) + (price - cost) * q
    w = price * q / alpha + b
    root = math.sqrt(max(w * w - 4.0 * mu * mu * price * q / alpha, 0.0))
    return 2.0 * mu * mu * price * q / (w + root) - cost * q


def misspec_quantity(alpha: float, mu: float, sigma: float,
                     price: float, cost: float) -> float:
    """Optimal order under the quadratic misspecification penalty."""
    if math.isinf(alpha):
        return scarf(mu, sigma, price, cost)[0]
    if alpha == 0.0:
        return 0.0
    kappa = (price - cost) / price
    if kappa < sigma * sigma / (mu * mu + sigma * sigma):
        return 0.0
    odds = _sqrt_odds(kappa)
    margin = mu - sigma / odds
    if margin > 0.0 and alpha >= price / (2.0 * margin):
        q = mu + 0.5 * sigma * (odds - 1.0 / odds) - price / (4.0 * alpha)
    else:
        q = (mu * mu - sigma * sigma + mu * sigma * (odds - 1.0 / odds)) * alpha / price
    return max(q, 0.0)


def misspec_report(alpha: float, mu: float, sigma: float,
                   price: float, cost: float) -> tuple[float, float]:
    """(quantity, value) of the misspecification-averse model."""
    if math.isinf(alpha):
        return scarf(mu, sigma, price, cost)
    q = misspec_quantity(alpha, mu, sigma, price, cost)
    return q, value_function(alpha, q, mu, sigma, price, cost)


def tv_quantity(alpha: float, mu: float, sigma: float, price: float, cost: float) -> float:
    """Total-variation model: the ambiguity-only order capped at 2 alpha / p."""
    q = scarf(mu, sigma, price, cost)[0]
    return q if math.isinf(alpha) else min(2.0 * alpha / price, q)


def fractile(values: np.ndarray, kappa: float) -> float:
    """Left-continuous kappa-quantile of the empirical law of ``values``."""
    v = np.sort(np.asarray(values, dtype=float))
    k = math.ceil(v.size * (kappa - 1e-12))
    return float(v[min(max(k, 1), v.size) - 1])


def population_moments(values) -> tuple[float, float]:
    v = [float(x) for x in values]
    mean = math.fsum(v) / len(v)
    var = math.fsum(x * x for x in v) / len(v) - mean * mean
    return mean, math.sqrt(max(var, 0.0))


def w2_squared(a, b) -> float:
    """Quadratic transport cost between two equal-weight empirical laws,
    from their quantile functions on the merged probability breakpoints."""
    xa = np.sort(np.asarray(a, dtype=float))
    xb = np.sort(np.asarray(b, dtype=float))
    cuts = np.union1d(np.arange(1, xa.size + 1) / xa.size, np.arange(1, xb.size + 1) / xb.size)
    lo = np.concatenate(([0.0], cuts[:-1]))
    mid = 0.5 * (lo + cuts)
    ia = np.minimum((mid * xa.size).astype(int), xa.size - 1)
    ib = np.minimum((mid * xb.size).astype(int), xb.size - 1)
    return float(np.sum((cuts - lo) * (xa[ia] - xb[ib]) ** 2))


def alpha_for_budget(eps: float, mu: float, sigma: float, price: float, cost: float) -> float:
    """Index whose penalized value matches the total misspecification budget."""
    if eps == 0.0:
        return math.inf
    kappa = (price - cost) / price
    if kappa < sigma * sigma / (mu * mu + sigma * sigma):
        return 0.0
    v_hat = mu - sigma / _sqrt_odds(kappa)
    if eps < kappa * v_hat * v_hat:
        return 0.5 * math.sqrt(price * (price - cost) / eps)
    return 0.0


def tail_turn(quantities, tol: float) -> int | None:
    """First index from which the series never rises by more than ``tol``
    (relative) to the end; None when only the last point qualifies."""
    q = list(quantities)
    j = len(q) - 1
    while j > 0 and q[j] <= q[j - 1] + tol * max(1.0, abs(q[j - 1])):
        j -= 1
    return j if j <= len(q) - 2 else None
