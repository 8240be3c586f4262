"""Distance-based model variants.

Three siblings of the moment-set model live here:

* an optimal-transport ball of radius ``theta`` around an empirical
  reference law, with misspecification aversion on top — solved by
  reducing to a singleton reference with a *stronger* effective index
  ``gamma_star <= alpha``;
* the ball-only benchmark (the infinite-index limit of the above);
* a total-variation penalty, whose optimum caps the ambiguity-only
  quantity at ``2 alpha / p``.

The module also houses the bridge between a misspecification *radius*
and the penalty *index*: :func:`alpha_for_radius`.
"""

from __future__ import annotations

import bisect
import math
import warnings
from dataclasses import dataclass, field
from enum import Enum

from .single_product import (
    AlphaLike,
    CostStructure,
    DiscreteDistribution,
    MisspecIndex,
    MomentSpec,
    _solve,
    as_misspec_index,
    nominal_quantity,
)
from .validation import (
    DegenerateModelError,
    InternalCheckError,
    require_nonnegative,
)

_BISECT_REL_TOL = 1e-10
_MAX_BISECT_ITER = 200
_ATOM_TOL = 1e-12  # closed-interval tolerance, matches DiscreteDistribution.cdf


# ---------------------------------------------------------------------------
# reference summaries
# ---------------------------------------------------------------------------


def _below(dist: DiscreteDistribution, cut: float) -> tuple[float, float]:
    """Second moment and mass of ``dist`` at or below ``cut``, closed at the
    boundary atom: ``(fsum of w*v*v over atoms <= cut + _ATOM_TOL, cdf(cut))``."""
    k = bisect.bisect_right(dist.support, cut + _ATOM_TOL)
    return math.fsum(w * v * v for v, w in zip(dist.support[:k], dist.weights[:k])), dist.cdf(cut)


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
        q_star = nominal_quantity(demand, cost)
        if q_star <= 0.0:
            raise DegenerateModelError(
                "the reference law's critical fractile is 0; the ball model "
                "requires a strictly positive fractile quantity"
            )
        beta, below = _below(demand, q_star)
        beta_eff = beta + q_star * q_star * (cost.kappa - below)
        return cls(demand, q_star, beta, beta_eff)


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

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "theta", require_nonnegative("theta", self.theta)
        )
        object.__setattr__(self, "alpha", as_misspec_index(self.alpha))


class WassersteinCase(str, Enum):
    """Which branch produced the effective index."""

    POINT_BALL = "POINT_BALL"  # theta = 0: the ball is the reference law
    DEGENERATE_RADIUS = "DEGENERATE_RADIUS"  # theta >= beta: order nothing
    CLOSED_FORM = "CLOSED_FORM"  # explicit formula below the fractile cutoff
    IMPLICIT_ROOT = "IMPLICIT_ROOT"  # bisection on the balance equation


@dataclass(frozen=True)
class WassersteinSolution:
    gamma_star: float
    psi_star: float
    case: WassersteinCase
    step_crossing: bool = field(default=False)


# ---------------------------------------------------------------------------
# ball + misspecification solve
# ---------------------------------------------------------------------------


def _psi_from_gamma(gamma: float, ref: ReferenceDistribution, price: float) -> float:
    """Order quantity for a singleton reference at effective index gamma."""
    if gamma < price / (2.0 * ref.q_star):
        return ref.q_star * (gamma * ref.q_star / price)
    return ref.q_star - price / (4.0 * gamma)  # q_star at gamma = inf


def _balance_residual(
    x: float,
    ref: ReferenceDistribution,
    theta: float,
    alpha: MisspecIndex,
    cost: CostStructure,
) -> float:
    """Left side of the implicit equation for the effective index.

    Decreasing in ``x`` on the bracket: the truncated-moment terms shrink
    as the cutoff ``p/(2x)`` falls, while the penalty term
    ``theta/(1 - x/alpha)^2`` grows toward the pole at ``alpha`` (or stays
    flat at ``theta`` for the infinite index, ``1/alpha = 0``).
    """
    cut = cost.price / (2.0 * x)
    head, below = _below(ref.distribution, cut)
    tail = (cost.price**2 / (4.0 * x * x)) * (cost.kappa - below)
    return head + tail - theta / (1.0 - x * alpha.inv) ** 2


def _implicit_gamma(
    ref: ReferenceDistribution,
    theta: float,
    alpha: MisspecIndex,
    cost: CostStructure,
) -> tuple[float, bool]:
    lo = cost.price / (2.0 * ref.q_star)
    g_lo = _balance_residual(lo, ref, theta, alpha, cost)
    resid_scale = 1.0 + abs(g_lo)
    if g_lo < 0.0:
        # the equation already crossed zero at the left endpoint: with an
        # atomic reference the left side is a step function and the exact
        # root may not exist
        return lo, True

    if alpha.is_infinite:
        hi = 2.0 * lo
        while _balance_residual(hi, ref, theta, alpha, cost) >= 0.0:
            hi *= 2.0
            if hi > 1e18:
                raise InternalCheckError(
                    "no sign change found for the effective-index equation"
                )
    else:
        hi = alpha.alpha * (1.0 - 1e-12)
        if hi <= lo:
            return lo, False

    for _ in range(_MAX_BISECT_ITER):  # lo >= p/(2 q*) > 0: a relative width
        if hi - lo <= _BISECT_REL_TOL * lo:
            break
        mid = 0.5 * (lo + hi)
        if _balance_residual(mid, ref, theta, alpha, cost) >= 0.0:
            lo = mid
        else:
            hi = mid

    r_lo = abs(_balance_residual(lo, ref, theta, alpha, cost))
    r_hi = abs(_balance_residual(hi, ref, theta, alpha, cost))
    gamma = lo if r_lo <= r_hi else hi
    # a residual that refuses to vanish marks a jump of the step function
    # across zero rather than a smooth root
    step = min(r_lo, r_hi) > 1e-6 * resid_scale
    return gamma, step


def wasserstein_misspec_solve(
    demand: DiscreteDistribution, spec: RadiusSpec, cost: CostStructure
) -> WassersteinSolution:
    """Reduce the ball-with-misspecification model to a singleton reference.

    Returns the effective index ``gamma_star`` (never above the posed
    index), the order quantity ``psi_star``, the branch taken, and a flag
    marking implicit roots that land on a step of the empirical balance
    equation instead of a smooth zero.

    All radius comparisons use ``beta_effective``: checked against the
    grid dual-objective oracle, the closed form built on the raw
    truncated moment overstates the adversary's budget whenever an atom
    straddles the fractile and then disagrees with the oracle's argmax
    (and with the primal optimum) by a finite margin.  The two budgets
    coincide for references whose CDF hits the fractile exactly.
    """
    ref = ReferenceDistribution.summarize(demand, cost)
    a = spec.alpha
    theta = spec.theta

    if theta == 0.0:
        return WassersteinSolution(
            a.alpha, _psi_from_gamma(a.alpha, ref, cost.price), WassersteinCase.POINT_BALL
        )
    if theta >= ref.beta_effective:
        return WassersteinSolution(0.0, 0.0, WassersteinCase.DEGENERATE_RADIUS)

    cutoff = cost.price / (2.0 * ref.q_star)
    # at inv = 0 gamma2 is inf (NaN if the root factor is 0) and falls through
    gamma2 = a.alpha * (1.0 - math.sqrt(theta / ref.beta_effective))
    if gamma2 < cutoff:
        return WassersteinSolution(
            gamma2,
            _psi_from_gamma(gamma2, ref, cost.price),
            WassersteinCase.CLOSED_FORM,
        )
    gamma, step = _implicit_gamma(ref, theta, a, cost)
    return WassersteinSolution(
        gamma,
        _psi_from_gamma(gamma, ref, cost.price),
        WassersteinCase.IMPLICIT_ROOT,
        step,
    )


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


def alpha_for_radius(
    epsilon_total: float, m_hat: MomentSpec, cost: CostStructure
) -> MisspecIndex:
    """Index whose penalized value matches a misspecification radius.

    Solves ``max over alpha >= 0 of (optimal penalized value - epsilon *
    alpha)``: with no budget the ambiguity-only model is best (INFINITY);
    with a budget below ``kappa * v_hat^2`` the interior stationary point
    ``sqrt(p (p - c) / epsilon) / 2`` wins; past that, robustness is not
    worth buying and the index collapses to zero.
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
        return MisspecIndex(
            0.5 * math.sqrt(cost.price * (cost.price - cost.cost) / eps)
        )
    return MisspecIndex(0.0)
