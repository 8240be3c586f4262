"""Distance-based model variants.

Three siblings of the moment-set model live here:

* an optimal-transport ball of radius ``theta`` around an empirical
  reference law, with misspecification aversion on top — solved by
  reducing to a singleton reference with a *stronger* effective index
  ``gamma_star <= alpha``;
* the ball-only benchmark (the infinite-index limit of the above);
* a total-variation penalty, whose optimum caps the ambiguity-only
  quantity at ``2 alpha / p``.

For an atomic reference the ball reduction is finite (Mohajerin Esfahani
& Kuhn 2018): the effective index is the root of a continuous balance
residual that is smooth between the atom breakpoints ``p/(2 v)``.

The module also houses the bridge between a misspecification *radius*
and the penalty *index*: :func:`alpha_for_radius`.
"""

from __future__ import annotations

import bisect
import math
import warnings
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate
from operator import truediv

from .single_product import (
    AlphaLike,
    CostStructure,
    DiscreteDistribution,
    MisspecIndex,
    MomentSpec,
    _ATOM_TOL,
    _MIN_NORMAL,
    _quantile_atom,
    _solve,
    as_misspec_index,
)
from .validation import (
    DegenerateModelError,
    InternalCheckError,
    require_nonnegative,
    _BISECT_REL_TOL,
    _MAX_BISECT_ITER,
)

__all__ = [
    "ReferenceDistribution",
    "RadiusSpec",
    "WassersteinCase",
    "WassersteinSolution",
    "reference_beta",
    "wasserstein_misspec_solve",
    "wasserstein_ambiguity_quantity",
    "tv_misspec_quantity",
    "alpha_for_radius",
]


# ---------------------------------------------------------------------------
# reference summaries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReferenceDistribution:
    """An empirical reference law with its fractile summary.

    ``q_star`` is the critical-fractile quantity under the reference law
    (left-continuous inverse); ``beta`` is the second moment of demand
    truncated at ``q_star``, closed at the boundary atom.  The model is
    only posed for ``q_star > 0``.

    ``beta_effective`` is the transport budget the solver actually works
    with: the cost of moving exactly a ``kappa``-fraction of the smallest
    demand mass to zero, ``beta + q_star^2 (kappa - H(q_star))``.  When
    an atom straddles the fractile only its kappa-slice can be moved, so
    this interpolated value (convention-independent: open- and
    closed-interval truncations give the same number) is what the
    worst-case adversary pays; it equals ``beta`` whenever the CDF hits
    ``kappa`` exactly at ``q_star``.  Always strictly positive given
    ``q_star > 0``.
    """

    distribution: DiscreteDistribution
    q_star: float
    beta: float
    beta_effective: float

    @classmethod
    def summarize(
        cls, demand: DiscreteDistribution, cost: CostStructure
    ) -> "ReferenceDistribution":
        q_star, beta_eff, head, _ = _reference_sums(demand, cost)
        return cls(demand, q_star, head[-1], beta_eff)


def _reference_sums(
    demand: DiscreteDistribution, cost: CostStructure
) -> tuple[float, float, list[float], list[float]]:
    """The reference summary as plain numbers: ``q*``, the effective budget,
    the second-moment prefix sums of the atoms to the closed fractile atom
    (the last is ``beta``) and the mass prefix sums of all of them that ``q*``
    is read from, each from 0 and summed in atom order: each moment term is
    the product ``(w * v) * v``, formed in atom order into a list that
    ``accumulate`` sums, so every prefix is the float that a loop over the
    atoms would give."""
    sup, wts = demand.support, demand.weights
    mass = list(accumulate(wts, initial=0.0))
    q_star = sup[_quantile_atom(mass, cost.kappa)]
    if q_star <= 0.0:
        raise DegenerateModelError(
            "the reference law's critical fractile is 0; the ball model "
            "requires a strictly positive fractile quantity"
        )
    low = sup[: bisect.bisect_right(sup, q_star + _ATOM_TOL)]
    head = list(accumulate([w * v * v for v, w in zip(low, wts)], initial=0.0))
    return q_star, head[-1] + q_star * q_star * (cost.kappa - mass[len(low)]), head, mass


def reference_beta(
    demand: DiscreteDistribution, cost: CostStructure
) -> tuple[float, float]:
    """Fractile quantity and truncated second moment of the reference law."""
    ref = ReferenceDistribution.summarize(demand, cost)
    return ref.q_star, ref.beta


@dataclass(frozen=True)
class RadiusSpec:
    """Ball radius (squared demand units) and misspecification index."""

    theta: float
    alpha: MisspecIndex

    def __init__(self, theta: float, alpha: AlphaLike) -> None:
        object.__setattr__(self, "theta", require_nonnegative("theta", theta))
        object.__setattr__(self, "alpha", as_misspec_index(alpha))


class WassersteinCase(str, Enum):
    """Which branch produced the effective index."""

    POINT_BALL = "POINT_BALL"  # theta = 0: the ball is the reference law
    DEGENERATE_RADIUS = "DEGENERATE_RADIUS"  # theta >= beta: order nothing
    CLOSED_FORM = "CLOSED_FORM"  # explicit formula below the fractile cutoff
    IMPLICIT_ROOT = "IMPLICIT_ROOT"  # root of the balance equation


@dataclass(frozen=True)
class WassersteinSolution:
    """Effective index, order quantity and the branch that produced them; an
    IMPLICIT_ROOT index is the unique zero of a continuous, strictly
    decreasing balance residual (exact at ``alpha = inf``, else to 1e-10)."""

    gamma_star: float
    psi_star: float
    case: WassersteinCase


# ---------------------------------------------------------------------------
# ball + misspecification solve
# ---------------------------------------------------------------------------


def _psi_from_gamma(gamma: float, q_star: float, price: float) -> float:
    """Order quantity for a singleton reference at ``q_star``, effective index gamma."""
    if gamma < price / (2.0 * q_star):
        return q_star * (gamma * q_star / price)
    return q_star - price / (4.0 * gamma)  # q_star at gamma = inf


def _implicit_gamma(
    sup: tuple[float, ...],
    q_star: float,
    theta: float,
    alpha: MisspecIndex,
    cost: CostStructure,
    head: list[float],
    mass: list[float],
) -> float:
    """Root in ``x`` of the balance residual on ``[p/(2 q*), alpha)``, for the
    reference law on support ``sup`` with fractile quantity ``q_star``.

    With the ``k`` smallest atoms inside the cutoff ``p/(2x)`` the residual
    is ``H_k + p^2 (kappa - F_k)/(4 x^2) - theta/(1 - x inv)^2`` (prefix
    moment ``H_k``, mass ``F_k``).  Atom ``v`` leaves at ``x = p/(2v)``: the
    moment loses ``w v^2`` and the tail gains as much, so the residual is
    continuous and strictly decreasing.  A bisection over these breakpoints
    finds the root's segment; the root is closed-form there at ``inv = 0``,
    else bisected until the bracket is within 1e-10 of its lower end, which a
    normal lower end reaches in ``_MAX_BISECT_ITER`` halvings whatever
    ``alpha``; a bisection that does not converge raises InternalCheckError.
    ``residual`` takes a segment's ``H_k`` and ``kappa - F_k``, which the
    halving loop reads once before it: hoisting changes no float operation,
    so the midpoints are the same.

    ``head`` and ``mass`` are the prefix sums of :func:`_reference_sums`, to
    the closed fractile atom and over all atoms.  Only ``H_0..H_n`` and
    ``F_0..F_n`` are read, with ``n`` the atoms strictly below ``q*`` (at most the
    closed count), and ``accumulate`` sums in atom order, so these are the
    floats that sums over the first ``n`` atoms alone would give.
    """
    p, kappa, inv = cost.price, cost.kappa, alpha.inv
    n = bisect.bisect_left(sup, q_star)
    p2 = p**2

    def residual(x: float, h: float, rest: float) -> float:
        return h + (p2 / (4.0 * x * x)) * rest - theta / (1.0 - x * inv) ** 2

    lo, hi = p / (2.0 * q_star), alpha.alpha * (1.0 - 1e-12)
    if hi <= lo or residual(lo, head[n], kappa - mass[n]) < 0.0:
        return lo  # rounding at the CLOSED_FORM boundary already crossed zero

    # segment k ends where atom k - 1 leaves; an atom at 0 (q* > 0) never does
    k, k_hi = int(sup[0] == 0.0), n  # the root's segment, in [k, k_hi]
    while k < k_hi:
        j = (k + k_hi + 1) // 2
        x = p / (2.0 * sup[j - 1])
        if x < hi and residual(x, head[j], kappa - mass[j]) >= 0.0:
            k_hi, lo = j - 1, x
        else:
            k, hi = j, min(hi, x)
    h_k, rest = head[k], kappa - mass[k]
    if inv == 0.0:
        return 0.5 * p * math.sqrt(rest / (theta - h_k))
    for _ in range(_MAX_BISECT_ITER):  # lo >= p/(2 q*) > 0: a relative width
        if hi - lo <= _BISECT_REL_TOL * lo:
            return min((lo, hi), key=lambda x: abs(residual(x, h_k, rest)))
        mid = 0.5 * (lo + hi)
        if residual(mid, h_k, rest) >= 0.0:
            lo = mid
        else:
            hi = mid
    raise InternalCheckError(f"effective-index bisection did not converge: [{lo!r}, {hi!r}]")


def wasserstein_misspec_solve(
    demand: DiscreteDistribution, spec: RadiusSpec, cost: CostStructure
) -> WassersteinSolution:
    """Reduce the ball-with-misspecification model to a singleton reference.

    Returns the effective index ``gamma_star`` (never above the posed
    index), the order quantity ``psi_star`` and the branch taken; a root
    bisection that does not converge raises :class:`InternalCheckError`.

    All radius comparisons use ``beta_effective``: checked against the
    grid dual-objective oracle, the closed form built on the raw
    truncated moment overstates the adversary's budget whenever an atom
    straddles the fractile and then disagrees with the oracle's argmax
    (and with the primal optimum) by a finite margin.  The two budgets
    coincide for references whose CDF hits the fractile exactly.
    """
    q_star, beta_eff, head, mass = _reference_sums(demand, cost)
    a, theta = spec.alpha, spec.theta
    if theta >= beta_eff:
        return WassersteinSolution(0.0, 0.0, WassersteinCase.DEGENERATE_RADIUS)

    # at inv = 0 gamma2 is inf (NaN if the root factor is 0) and falls through
    gamma2 = a.alpha * (1.0 - math.sqrt(theta / beta_eff))
    if theta == 0.0:
        gamma, case = a.alpha, WassersteinCase.POINT_BALL
    elif gamma2 < cost.price / (2.0 * q_star):
        gamma, case = gamma2, WassersteinCase.CLOSED_FORM
    else:
        gamma = _implicit_gamma(demand.support, q_star, theta, a, cost, head, mass)
        case = WassersteinCase.IMPLICIT_ROOT
    return WassersteinSolution(gamma, _psi_from_gamma(gamma, q_star, cost.price), case)


def wasserstein_ambiguity_quantity(
    demand: DiscreteDistribution, theta: float, cost: CostStructure
) -> float:
    """Ball-only benchmark: the infinite-index limit of the ball model."""
    sol = wasserstein_misspec_solve(
        demand, RadiusSpec(theta, MisspecIndex.INFINITY), cost
    )
    return sol.psi_star


# ---------------------------------------------------------------------------
# total-variation penalty
# ---------------------------------------------------------------------------


def tv_misspec_quantity(
    alpha: AlphaLike, m: MomentSpec, cost: CostStructure
) -> float:
    """Optimal quantity under a total-variation misspecification penalty.

    The penalized problem is the ambiguity-only problem with the extra
    feasibility cap ``q <= 2 alpha / p``, so the optimum is the capped
    ambiguity-only quantity.  Piecewise linear then constant in the
    index, with the kink at ``alpha = p q / 2`` evaluated at the
    ambiguity-only quantity.
    """
    a = as_misspec_index(alpha)
    return min(2.0 * a.alpha / cost.price, _solve(MisspecIndex.INFINITY, m, cost)[0])


# ---------------------------------------------------------------------------
# radius -> index bridge
# ---------------------------------------------------------------------------


def _half_root(cost: CostStructure, op, x: float) -> float:
    """``0.5 sqrt(op(p (p - c), x))`` for ``op`` ``mul`` or ``truediv``, from the
    three roots apart wherever ``p (p - c)`` or the radicand is not a normal
    float (p beyond about 1.5e-154..1.3e154, or an extreme ``x``)."""
    p, c = cost.price, cost.cost
    product = p * (p - c)
    radicand = op(product, x)
    if _MIN_NORMAL <= product < math.inf and _MIN_NORMAL <= radicand < math.inf:
        return 0.5 * math.sqrt(radicand)
    return op(0.5 * math.sqrt(p) * math.sqrt(p - c), math.sqrt(x))


def alpha_for_radius(
    epsilon_total: float, m_hat: MomentSpec, cost: CostStructure
) -> MisspecIndex:
    """Index whose penalized value matches a misspecification radius.

    Solves ``max over alpha >= 0 of (optimal penalized value - epsilon *
    alpha)``: with no budget the ambiguity-only model is best (INFINITY);
    with a budget below ``kappa * v_hat^2`` the interior stationary point
    ``sqrt(p (p - c) / epsilon) / 2`` wins; past that, robustness is not
    worth buying and the index collapses to zero.  Where ``p (p - c)`` or
    its quotient by epsilon is not a normal float, the stationary point is
    formed from the three roots apart (:func:`_half_root`).
    """
    eps = require_nonnegative("epsilon_total", epsilon_total)
    if eps == 0.0:
        return MisspecIndex.INFINITY
    kappa = cost.kappa
    if kappa < m_hat.std**2 / m_hat.second_moment:
        warnings.warn(
            "estimated moments make every order quantity worthless "
            "(fractile below the degeneracy threshold); returning a zero "
            "index",
            RuntimeWarning,
            stacklevel=2,
        )
        return MisspecIndex(0.0)
    v_hat = m_hat.mean - m_hat.std * math.sqrt((1.0 - kappa) / kappa)
    if eps < kappa * v_hat * v_hat:
        return MisspecIndex(_half_root(cost, truediv, eps))
    return MisspecIndex(0.0)
