"""Single-product newsvendor ordering under moment ambiguity and misspecification.

The selling profit for an order of ``q`` units under materialized demand ``v``
is ``pi(q, v) = p*min(q, v) - c*q`` with unit price ``p`` and unit cost ``c``;
the critical fractile is ``kappa = (p - c)/p``.

Three layers of decision models live here:

* the *nominal* model — order the ``kappa``-quantile of a known demand law;
* the *ambiguity-averse* model — maximize the worst-case expected profit over
  all laws sharing a given mean ``mu`` and standard deviation ``sigma``
  (the classical minimax order quantity);
* the *misspecification-averse* model — additionally pay for the possibility
  that the true law sits outside the moment set, penalizing candidate laws by
  ``alpha`` times their quadratic optimal-transport distance to it.  The
  penalized inner problem collapses to the pointwise envelope
  ``ell(alpha, q, v) = min_u { pi(q, u) + alpha*(u - v)^2 }``, and the whole
  model admits closed-form order quantities indexed by ``alpha``: small
  ``alpha`` means strong aversion (``alpha -> 0`` orders nothing), while
  ``alpha -> INFINITY`` recovers the ambiguity-only model.

The envelope, transform, value function, dual certificate and worst-case law
are each written once in ``inv = 1/alpha``; the ambiguity-only model is the
case ``inv = 0`` of the same formulas, not a separate branch, and Scarf's
minimax quantity :func:`scarf_quantity` is :func:`misspec_quantity` at
``inv = 0``.

Every solve returns a :class:`SolveReport` carrying the quantity, the model
value, the attaining worst-case law and its transformed image, and (where
available) the dual certificate ``(s_alpha, r_alpha, t_alpha)`` for the mean,
second-moment and normalization constraints.  Every solve is evaluated and
checked once, for every index including INFINITY, on the worst-case atoms
before any law object exists: the law's mass and moments, its attainment of
the value, and the identity ``s*mu - r*(mu^2 + sigma^2) - t == value``.
Callers that read only the quantity and the value (the scans, the
calibrators, the sweeps) run the same checks through ``_solve`` and never
build the laws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, ClassVar, Iterable, Sequence, Union

import numpy as np

from .validation import (
    DegenerateModelError,
    InputError,
    InternalCheckError,
    require,
    require_finite,
    require_nonnegative,
    require_positive,
)

__all__ = [
    "CostStructure",
    "MomentSpec",
    "MisspecIndex",
    "as_misspec_index",
    "DiscreteDistribution",
    "TransformRegime",
    "TransformSpec",
    "Regime",
    "SolveReport",
    "profit",
    "ell",
    "fractile_factor",
    "nominal_quantity",
    "transform",
    "push_forward",
    "ambiguity_worst_case",
    "worst_case_transformed_expectation",
    "scarf_quantity",
    "misspec_quantity",
    "misspec_worst_case",
    "price_threshold_scan",
    "variance_threshold_scan",
]

#: absolute tolerance for internal moment / value cross-checks
_CHECK_TOL = 1e-9
#: rounding bound of the dual identity, per unit of its summed term sizes
_ROUNDING = 16.0 * 2.0**-52


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CostStructure:
    """Unit price and unit cost; requires ``0 < cost < price``."""

    price: float
    cost: float

    def __post_init__(self) -> None:
        require_positive("price", self.price)
        require_finite("cost", self.cost)
        require(
            0.0 < self.cost < self.price,
            f"cost must satisfy 0 < cost < price, got cost={self.cost!r}, "
            f"price={self.price!r}",
        )

    @property
    def kappa(self) -> float:
        """Critical fractile (p - c)/p, always in (0, 1)."""
        return (self.price - self.cost) / self.price


@dataclass(frozen=True)
class MomentSpec:
    """Demand mean ``mu > 0`` and std ``sigma >= 0``, with ``mu^2 + sigma^2`` finite."""

    mean: float
    std: float

    def __post_init__(self) -> None:
        require_positive("mean", self.mean)
        require_nonnegative("std", self.std)
        second = self.second_moment
        require(math.isfinite(second), f"mean^2 + std^2 must be finite, got {second!r}")

    @property
    def second_moment(self) -> float:
        return self.mean * self.mean + self.std * self.std


@dataclass(frozen=True)
class MisspecIndex:
    """Index of misspecification aversion.

    ``alpha`` is a finite penalty weight >= 0 (money per squared demand unit);
    the distinguished value :data:`MisspecIndex.INFINITY` selects the
    ambiguity-only model.  The model formulas read the index through
    :attr:`inv` ``= 1/alpha``, which is 0 for INFINITY: the ambiguity-only
    limit is ``inv = 0`` of the finite formulas, so no formula branches on
    the infinite index.
    """

    alpha: float

    INFINITY: ClassVar["MisspecIndex"]

    def __post_init__(self) -> None:
        a = float(self.alpha)
        if not (math.isinf(a) and a > 0):
            require_nonnegative("alpha", a)
        object.__setattr__(self, "alpha", a)

    @property
    def is_infinite(self) -> bool:
        return math.isinf(self.alpha)

    @property
    def inv(self) -> float:
        """Reciprocal index 1/alpha: 0 for INFINITY, ``math.inf`` for alpha = 0."""
        return math.inf if self.alpha == 0.0 else 1.0 / self.alpha

    def __repr__(self) -> str:  # keep reports readable
        return "MisspecIndex.INFINITY" if self.is_infinite else f"MisspecIndex({self.alpha!r})"


MisspecIndex.INFINITY = MisspecIndex(math.inf)

AlphaLike = Union[MisspecIndex, float, int]
_Demand = Union[float, np.ndarray]


def as_misspec_index(alpha: AlphaLike) -> MisspecIndex:
    """Coerce a float (``math.inf`` allowed) or MisspecIndex to MisspecIndex."""
    if isinstance(alpha, MisspecIndex):
        return alpha
    return MisspecIndex(float(alpha))


def _merge_sorted(values, weights, rel_tol=1e-12):
    """Merge coincident support points of a value-sorted atom list."""
    out_v: list[float] = []
    out_w: list[float] = []
    for v, w in zip(values, weights):
        if out_v and abs(v - out_v[-1]) <= rel_tol * max(1.0, abs(out_v[-1])):
            out_w[-1] += w
        else:
            out_v.append(v)
            out_w.append(w)
    return out_v, out_w


@dataclass(frozen=True)
class DiscreteDistribution:
    """Finitely supported demand law with nonnegative, strictly sorted support.

    Invariants enforced on construction: support strictly increasing and
    >= 0, weights >= 0, weights summing to 1 within 1e-12.
    """

    support: tuple[float, ...]
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        require(len(self.support) > 0, "support must be non-empty")
        require(
            len(self.support) == len(self.weights),
            "support and weights must have equal length",
        )
        sup = tuple(float(v) for v in self.support)
        wts = tuple(float(w) for w in self.weights)
        for v in sup:
            require_finite("support point", v)
            require(v >= 0.0, f"support must be >= 0, got {v!r}")
        for w in wts:
            require_finite("weight", w)
            require(w >= 0.0, f"weights must be >= 0, got {w!r}")
        for a, b in zip(sup, sup[1:]):
            require(a < b, "support must be strictly increasing")
        total = math.fsum(wts)
        require(
            abs(total - 1.0) <= 1e-12,
            f"weights must sum to 1 within 1e-12, got {total!r}",
        )
        object.__setattr__(self, "support", sup)
        object.__setattr__(self, "weights", wts)

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_pairs(
        cls, values: Iterable[float], weights: Iterable[float]
    ) -> "DiscreteDistribution":
        """Build from unsorted atoms: sorts, merges coincident points (rel tol
        1e-12), clamps floating-point dust (weights above -1e-12, support above
        -1e-9), drops zero-weight atoms, and renormalizes exactly.
        """
        v = np.asarray(list(values), dtype=float)
        w = np.asarray(list(weights), dtype=float)
        require(v.size > 0, "need at least one atom")
        require(v.size == w.size, "values and weights must have equal length")
        require(bool(np.all(np.isfinite(v))), "support must be finite")
        require(bool(np.all(np.isfinite(w))), "weights must be finite")
        require(bool(np.all(w >= -1e-12)), f"weights must be >= 0, got min {w.min()!r}")
        require(bool(np.all(v >= -1e-9)), f"support must be >= 0, got min {v.min()!r}")
        w = np.maximum(w, 0.0)
        v = np.maximum(v, 0.0)
        order = np.argsort(v, kind="stable")
        mv, mw = _merge_sorted(v[order], w[order])
        total = math.fsum(mw)
        require(abs(total - 1.0) <= 1e-9, f"weights must sum to ~1, got {total!r}")
        keep = [(x, p / total) for x, p in zip(mv, mw) if p > 0.0]
        if not keep:  # all mass merged into dust — cannot happen for valid input
            raise InputError("no atom carries positive weight")
        return cls(tuple(x for x, _ in keep), tuple(p for _, p in keep))

    @classmethod
    def from_samples(cls, values: Iterable[float]) -> "DiscreteDistribution":
        """Empirical law: equal weight 1/N per observation, duplicates merged."""
        v = list(values)
        require(len(v) > 0, "need at least one sample")
        return cls.from_pairs(v, [1.0 / len(v)] * len(v))

    @classmethod
    def point_mass(cls, value: float) -> "DiscreteDistribution":
        return cls((float(value),), (1.0,))

    # -- queries ------------------------------------------------------------

    def support_array(self) -> np.ndarray:
        return np.asarray(self.support, dtype=float)

    def weights_array(self) -> np.ndarray:
        return np.asarray(self.weights, dtype=float)

    def mean(self) -> float:
        return float(np.dot(self.support_array(), self.weights_array()))

    def second_moment(self) -> float:
        s = self.support_array()
        return float(np.dot(s * s, self.weights_array()))

    def variance(self) -> float:
        m = self.mean()
        return max(self.second_moment() - m * m, 0.0)

    def std(self) -> float:
        return math.sqrt(self.variance())

    def cdf(self, x: float) -> float:
        """P(V <= x), closed at atoms (tolerance 1e-12 on the comparison)."""
        s = self.support_array()
        return float(self.weights_array()[s <= x + 1e-12].sum())

    def quantile(self, kappa: float) -> float:
        """Left-continuous generalized inverse inf{x : CDF(x) >= kappa}."""
        require(0.0 < kappa <= 1.0, f"kappa must lie in (0, 1], got {kappa!r}")
        cum = np.cumsum(self.weights_array())
        idx = int(np.searchsorted(cum, kappa - 1e-12, side="left"))
        return self.support[min(idx, len(self.support) - 1)]

    def expectation(self, fn: Callable[[float], float]) -> float:
        return math.fsum(w * fn(v) for v, w in zip(self.support, self.weights))


class TransformRegime(str, Enum):
    QUADRATIC = "QUADRATIC"
    MIXED = "MIXED"


@dataclass(frozen=True)
class TransformSpec:
    """Increasing continuous demand transform encoding misspecification.

    QUADRATIC regime (``alpha < p/(4q)``): ``apply(v) = (alpha/p) v^2``.
    MIXED regime (``alpha >= p/(4q)``): quadratic below ``p/(2 alpha)``, the
    shift ``v - p/(4 alpha)`` above; the two pieces agree at the junction.
    ``apply(0) = 0`` in both regimes.  The infinite-index transform is the
    identity: MIXED with ``p/alpha = 0``, so the shift vanishes.
    """

    alpha: float
    price: float
    order_quantity: float
    regime: TransformRegime

    def apply(self, v: float) -> float:
        v = float(v)
        require(v >= -0.0 and math.isfinite(v), f"v must be >= 0, got {v!r}")
        if self.regime is TransformRegime.MIXED:
            pinv = self.price / self.alpha  # p * inv: 0 at the infinite index
            if 2.0 * v >= pinv:
                return v - 0.25 * pinv
        return (self.alpha / self.price) * v * v


def transform(alpha: AlphaLike, price: float, q: float) -> TransformSpec:
    """Build the transform attached to order quantity ``q``."""
    a = as_misspec_index(alpha)
    require_positive("price", price)
    require_nonnegative("q", q)
    if a.alpha == 0.0:
        raise DegenerateModelError("alpha = 0 admits no transform; the model orders zero")
    if 4.0 * q < price * a.inv:
        regime = TransformRegime.QUADRATIC
    else:
        regime = TransformRegime.MIXED
    return TransformSpec(a.alpha, float(price), float(q), regime)


def push_forward(dist: DiscreteDistribution, t: TransformSpec) -> DiscreteDistribution:
    """Image law of ``dist`` under ``t.apply``; coincident images merge.  An
    image equal to the support (the infinite-index identity) returns ``dist``.
    """
    image = tuple(t.apply(v) for v in dist.support)
    if image == dist.support:
        return dist
    return DiscreteDistribution.from_pairs(image, dist.weights)


class Regime(str, Enum):
    DEGENERATE = "DEGENERATE"
    LOW_ALPHA = "LOW_ALPHA"
    HIGH_ALPHA = "HIGH_ALPHA"
    AMBIGUITY_ONLY = "AMBIGUITY_ONLY"


@dataclass(frozen=True)
class SolveReport:
    """Outcome of a single-product solve.

    ``duals`` lists ``(name, value)`` pairs for the dual certificate
    (``s_alpha`` for the mean, ``r_alpha`` for the second moment, ``t_alpha``
    for normalization) where available; empty when the certificate degenerates.
    """

    quantity: float
    value: float
    regime: Regime
    alpha: MisspecIndex
    worst_case: DiscreteDistribution
    transformed_worst_case: DiscreteDistribution
    duals: tuple[tuple[str, float], ...] = field(default=())

    def dual(self, name: str) -> float:
        return dict(self.duals)[name]


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------


def _require_demands(v: np.ndarray) -> np.ndarray:
    """An array of demands as floats, checked once: every entry finite and >= 0."""
    v = np.asarray(v, dtype=float)
    require(bool(np.all(np.isfinite(v) & (v >= 0.0))), "v entries must be finite and >= 0")
    return v


def _profit(q: float, v: _Demand, cost: CostStructure) -> _Demand:
    """``p*min(q, v) - c*q`` on a checked float or array ``v``; on a float the
    conditional is ``min(q, v)`` bit for bit, without the builtin's call."""
    sold = (v if v < q else q) if isinstance(v, float) else np.minimum(q, v)
    return cost.price * sold - cost.cost * q


def profit(q: float, v: _Demand, cost: CostStructure) -> _Demand:
    """Selling profit p*min(q, v) - c*q, for a float ``v`` or an array of demands."""
    q = require_nonnegative("q", q)
    v = _require_demands(v) if isinstance(v, np.ndarray) else require_nonnegative("v", v)
    return _profit(q, v, cost)


def _expected_profit(dist: DiscreteDistribution, q: float, cost: CostStructure) -> float:
    """``dist.expectation(lambda v: profit(q, v, cost))``, bit for bit: the
    same terms, evaluated in numpy, summed by ``math.fsum``."""
    terms = dist.weights_array() * profit(q, dist.support_array(), cost)
    return math.fsum(terms.tolist())


def ell(alpha: AlphaLike, q: float, v: _Demand, cost: CostStructure) -> _Demand:
    """Pointwise envelope min_u { pi(q, u) + alpha*(u - v)^2 }.

    Closed form: for ``q <= p/(4 alpha)`` it equals
    ``min(alpha v^2, p q) - c q``; otherwise ``alpha v^2 - c q`` when
    ``v <= p/(2 alpha)`` and ``pi(q, v - p/(4 alpha))`` above.  At
    ``inv = 1/alpha = 0`` only the last piece is reached and ``ell`` is
    ``pi`` itself.  ``v`` may be a float or an array: per point, bit for bit.
    """
    a = as_misspec_index(alpha)
    if a.alpha == 0.0:
        raise DegenerateModelError(
            "alpha = 0 (strongest misspecification aversion): the envelope "
            "degenerates; use the robust limit q = 0"
        )
    q = require_nonnegative("q", q)
    p, c = cost.price, cost.cost
    pinv = p * a.inv
    if not isinstance(v, np.ndarray):
        v = require_nonnegative("v", v)
        if 4.0 * q <= pinv:  # only q = 0 when inv = 0
            return (a.alpha * v * v if v * v < q * pinv else p * q) - c * q
        if 2.0 * v < pinv:
            return a.alpha * v * v - c * q
        return _profit(q, v - 0.25 * pinv, cost)
    v = _require_demands(v)
    # np.where forms both sides: the unused alpha*v^2 may be inf*0 or overflow
    with np.errstate(invalid="ignore", over="ignore"):
        quad = a.alpha * v * v
        if 4.0 * q <= pinv:
            return np.where(v * v < q * pinv, quad, p * q) - c * q
        return np.where(2.0 * v < pinv, quad - c * q, _profit(q, v - 0.25 * pinv, cost))


def fractile_factor(x: float) -> float:
    """The map f(x) = (1 - 2x) / (2 sqrt(x (1 - x))) on (0, 1)."""
    require(0.0 < x < 1.0, f"fractile_factor needs x in (0, 1), got {x!r}")
    return (1.0 - 2.0 * x) / (2.0 * math.sqrt(x * (1.0 - x)))


def nominal_quantity(demand: DiscreteDistribution, cost: CostStructure) -> float:
    """Critical-fractile order quantity: the left-continuous kappa-quantile."""
    return demand.quantile(cost.kappa)


# ---------------------------------------------------------------------------
# worst cases and value functions
# ---------------------------------------------------------------------------


def ambiguity_worst_case(q: float, m: MomentSpec) -> DiscreteDistribution:
    """Two-point law attaining the worst-case expected profit at quantity q
    among all laws with mean mu and second moment mu^2 + sigma^2.

    For ``q < (mu^2 + sigma^2)/(2 mu)`` the law puts mass at 0 and at
    ``(mu^2 + sigma^2)/mu``; otherwise at ``q -+ w`` with
    ``w = sqrt((q - mu)^2 + sigma^2)``.  The two constructions coincide at the
    boundary quantity.  This is the law of :func:`misspec_worst_case` at
    ``inv = 0``, where the price drops out.
    """
    q = require_nonnegative("q", q)
    return DiscreteDistribution.from_pairs(*_worst_case_law(0.0, q, m, 1.0))


def _region(
    inv: float, q: float, m: MomentSpec, p: float
) -> tuple[bool, bool, float, float, float, float]:
    """Branch of the value function at ``(inv = 1/alpha, q)`` and the terms
    that the value, the worst-case law and the certificate read, as
    ``(in_q, point_mass, x, h, z, pqi)``.  In region Q (see
    :func:`worst_case_transformed_expectation`): ``z = u = q + p/(4 alpha)``,
    ``x = u - mu``, ``h = hypot(x, sigma)``.  Off Q: ``z = w = pqi + mu^2 +
    sigma^2`` with ``pqi = p q/alpha``, and ``h = rad = sqrt(w^2 - 4 mu^2
    pqi)`` taken as ``hypot(x, 2 mu sigma)``, ``x = pqi + sigma^2 - mu^2``, so
    that no nearly equal terms are subtracted.  ``point_mass`` (``h <= 1e-12
    z``): the worst case is one atom and the certificate is empty.
    """
    mu, sig = m.mean, m.std
    pinv = p * inv
    pqi = p * (q * inv)
    if q >= 0.25 * pinv and (2.0 * mu - pinv) * q >= m.second_moment - 0.5 * pinv * mu:
        u = q + 0.25 * pinv
        x = u - mu
        h = math.hypot(x, sig)
        return True, h <= 1e-12 * u, x, h, u, pqi
    x = pqi + sig * sig - mu * mu
    h = math.hypot(x, 2.0 * mu * sig)
    w = pqi + m.second_moment
    return False, h <= 1e-12 * w, x, h, w, pqi


_Atoms = tuple[tuple[float, ...], tuple[float, ...]]


def _two_point(lo: float, hi: float, x: float, y: float, h: float) -> _Atoms:
    """Atoms ``lo < hi`` with weights ``((h + x)/(2h), (h - x)/(2h))`` where
    ``h = hypot(x, y)``; the smaller weight is ``y^2/(2h(h + |x|))``, free of
    cancellation.  ``lo`` is clamped at 0 against rounding."""
    big = (h + abs(x)) / (2.0 * h)
    small = y * y / (2.0 * h * (h + abs(x)))
    return (max(lo, 0.0), hi), ((big, small) if x >= 0.0 else (small, big))


def _worst_case_law(inv: float, q: float, m: MomentSpec, p: float) -> _Atoms:
    """Atoms and weights of the worst-case law at ``(inv = 1/alpha, q)``; see
    :func:`misspec_worst_case`."""
    mu, sig = m.mean, m.std
    in_q, point_mass, x, h, z, pqi = _region(inv, q, m, p)
    if point_mass:
        return (mu if in_q else 0.5 * z / mu,), (1.0,)
    if in_q:
        lo = mu - sig * sig / (h + x) if x > 0.0 else z - h
        return _two_point(lo, z + h, x, sig, h)
    return _two_point(2.0 * mu * pqi / (z + h), (z + h) / (2.0 * mu), x, 2.0 * mu * sig, h)


def worst_case_transformed_expectation(
    alpha: AlphaLike, q: float, m: MomentSpec, cost: CostStructure
) -> float:
    """Value function L_alpha(q): the worst-case expected transformed profit
    (equivalently, the worst-case expectation of ``ell(alpha, q, .)``) over the
    mean--std moment set.

    Two branches: on the region Q = {q >= p/(4 alpha)} intersected with
    {(2 mu - p/alpha) q >= mu^2 + sigma^2 - p mu/(2 alpha)} a square-root
    formula; elsewhere ``2 mu^2 p q/(w + rad) - c q`` with ``w = p q/alpha +
    mu^2 + sigma^2`` and ``rad = sqrt(w^2 - 4 mu^2 p q/alpha)``.  At
    ``inv = 1/alpha = 0`` Q becomes {q >= (mu^2+sigma^2)/(2 mu)} and the other
    branch the linear ``p q mu^2/(mu^2 + sigma^2) - c q``.
    """
    a = as_misspec_index(alpha)
    q = require_nonnegative("q", q)
    if q == 0.0:
        return 0.0
    if a.alpha == 0.0:
        raise DegenerateModelError(
            "alpha = 0: every order loses its full cost in the worst case; "
            "the model orders zero"
        )
    mu = m.mean
    p, c = cost.price, cost.cost
    in_q, _, _, h, z, _ = _region(a.inv, q, m, p)
    if in_q:
        return 0.5 * p * (mu - z - h) + (p - c) * q
    return 2.0 * mu * mu * p * q / (z + h) - c * q


def _dual_certificate(
    a: MisspecIndex, q: float, m: MomentSpec, cost: CostStructure
) -> tuple[tuple[str, float], ...]:
    """Dual variables (s, r, t) certifying L_alpha(q); empty when degenerate."""
    mu = m.mean
    p, c = cost.price, cost.cost
    in_q, point_mass, _, h, z, pqi = _region(a.inv, q, m, p)
    if point_mass:
        return ()
    if in_q:  # z = u, h = hypot(u - mu, sigma)
        r = p / (4.0 * h)
        s = 0.5 * p + 2.0 * r * z
        t = p * p / (16.0 * r) + r * z * z + 0.5 * p * z - (p - c) * q
    else:  # z = w, h = rad
        s = 2.0 * mu * p * q / h
        r = 2.0 * mu * mu * p * q / ((z + h) * h)
        t = r * pqi + c * q
    return (("s_alpha", s), ("r_alpha", r), ("t_alpha", t))


def misspec_worst_case(
    alpha: AlphaLike, q: float, m: MomentSpec, cost: CostStructure
) -> tuple[DiscreteDistribution, DiscreteDistribution]:
    """Worst-case law G* in the moment set at (alpha, q), and its image under
    the attached transform.

    G* has at most two atoms.  Inside the region Q the atoms sit at
    ``u -+ s`` with ``u = q + p/(4 alpha)`` and ``s = sqrt((u-mu)^2+sigma^2)``;
    outside they are ``(w -+ rad)/(2 mu)``, the roots of the quadratic built
    from the discriminant of the moment constraints.  At ``inv = 1/alpha = 0``
    G* is :func:`ambiguity_worst_case` and the transform is the identity.  The
    expected profit of the transformed image at ``q`` reproduces
    ``worst_case_transformed_expectation`` within 1e-9 (checked, with the
    law's moments and the dual certificate; violation raises
    :class:`InternalCheckError`).
    """
    a = as_misspec_index(alpha)
    q = require_nonnegative("q", q)
    if a.alpha == 0.0:
        raise DegenerateModelError("alpha = 0 has no attaining law; the model orders zero")
    _, atoms, _ = _evaluate(a, q, m, cost)
    return _laws(a, q, atoms, cost.price)


def _evaluate(
    a: MisspecIndex, q: float, m: MomentSpec, cost: CostStructure
) -> tuple[float, _Atoms, tuple[tuple[str, float], ...]]:
    """The checked evaluation at ``(a, q)``, ``a`` nonzero: the value
    L_alpha(q), the worst-case atoms and weights, and the dual certificate,
    each computed once.  It checks the law's mass and moments, the transformed
    atoms' attainment of the value and the dual identity, and builds no
    :class:`DiscreteDistribution`."""
    p = cost.price
    value = worst_case_transformed_expectation(a, q, m, cost)
    atoms = _worst_case_law(a.inv, q, m, p)
    t = transform(a, p, q)
    images = tuple(t.apply(v) for v in atoms[0])
    _check_moments(atoms, m)
    _check_attainment(images, atoms[1], a, q, value, cost)
    duals = _dual_certificate(a, q, m, cost)
    _check_certificate(duals, value, m)
    return value, atoms, duals


def _laws(
    a: MisspecIndex, q: float, atoms: _Atoms, p: float
) -> tuple[DiscreteDistribution, DiscreteDistribution]:
    """The worst-case law built from checked atoms, and its transformed image."""
    g_star = DiscreteDistribution.from_pairs(*atoms)
    return g_star, push_forward(g_star, transform(a, p, q))


def _check_moments(atoms: _Atoms, m: MomentSpec) -> None:
    """The law's mass is 1 and its mean and second moment match ``m``, within
    1e-9 (relative to the second moment above 1)."""
    support, weights = atoms
    mass = math.fsum(weights)
    mean = math.fsum(v * w for v, w in zip(support, weights))
    second = math.fsum(v * v * w for v, w in zip(support, weights))
    tol = _CHECK_TOL * max(1.0, m.second_moment)
    if not (
        abs(mass - 1.0) <= _CHECK_TOL
        and abs(mean - m.mean) <= tol
        and abs(second - m.second_moment) <= tol
    ):
        raise InternalCheckError(
            f"constructed law violates its moment constraints: mass {mass!r}, mean "
            f"{mean!r} vs {m.mean!r}, second moment {second!r} vs {m.second_moment!r}"
        )


def _check_attainment(
    images: Sequence[float],
    weights: Sequence[float],
    a: MisspecIndex,
    q: float,
    value: float,
    cost: CostStructure,
) -> None:
    """The expected profit of the transformed atoms at ``q`` equals the value,
    within 1e-9 (relative above 1)."""
    attained = math.fsum(w * _profit(q, v, cost) for v, w in zip(images, weights))
    if not abs(attained - value) <= _CHECK_TOL * max(1.0, abs(value)):
        raise InternalCheckError(
            f"worst-case law fails to attain the value function: "
            f"{attained!r} vs {value!r} at alpha={a!r}, q={q!r}"
        )


def _check_certificate(
    duals: tuple[tuple[str, float], ...], value: float, m: MomentSpec
) -> None:
    """The dual identity ``s*mu - r*(mu^2 + sigma^2) - t == value``, within
    1e-9 (relative above 1) plus the rounding bound of evaluating the three
    terms: near sigma = 0 they grow like mu/sigma and cancel to the value."""
    if duals:
        d = dict(duals)
        s = d["s_alpha"] * m.mean
        r = d["r_alpha"] * m.second_moment
        t = d["t_alpha"]
        dual_value = s - r - t
        size = abs(s) + abs(r) + abs(t)
        tol = _CHECK_TOL * max(1.0, abs(value)) + _ROUNDING * size
        if not abs(dual_value - value) <= tol:
            raise InternalCheckError(f"dual certificate mismatch: {dual_value!r} vs {value!r}")


# ---------------------------------------------------------------------------
# solvers
# ---------------------------------------------------------------------------


def scarf_quantity(m: MomentSpec, cost: CostStructure) -> SolveReport:
    """Ambiguity-only minimax order quantity: :func:`misspec_quantity` at
    ``inv = 1/alpha = 0``.

    Non-degenerate branch (``kappa >= sigma^2/(mu^2+sigma^2)``): quantity
    ``mu + sigma*f(1-kappa)``.  Otherwise ordering anything is worthless:
    quantity 0, value 0 (regime DEGENERATE).
    """
    return misspec_quantity(MisspecIndex.INFINITY, m, cost)


def _quantity(a: MisspecIndex, m: MomentSpec, cost: CostStructure) -> tuple[float, Regime]:
    """The closed-form quantity and its regime at a nonzero index; see
    :func:`misspec_quantity`."""
    kappa = cost.kappa
    mu, sig = m.mean, m.std
    p = cost.price
    if kappa < sig * sig / m.second_moment:
        return 0.0, Regime.DEGENERATE
    margin = mu - sig * math.sqrt((1.0 - kappa) / kappa)
    threshold = p / (2.0 * margin) if margin > 0.0 else math.inf
    f = fractile_factor(1.0 - kappa)
    if a.alpha >= threshold:
        q = mu + sig * f - p / (4.0 * a.alpha)
        regime = Regime.AMBIGUITY_ONLY if a.is_infinite else Regime.HIGH_ALPHA
    else:
        q = (mu * mu - sig * sig + 2.0 * mu * sig * f) * a.alpha / p
        regime = Regime.LOW_ALPHA
    return max(q, 0.0), regime


def misspec_quantity(alpha: AlphaLike, m: MomentSpec, cost: CostStructure) -> SolveReport:
    """Optimal order quantity under the misspecification-penalized model.

    Branches on the index: DEGENERATE (order 0) when
    ``kappa < sigma^2/(mu^2+sigma^2)``; otherwise HIGH_ALPHA
    ``mu + sigma f(1-kappa) - p/(4 alpha)`` once
    ``alpha >= p / (2 (mu - sigma sqrt((1-kappa)/kappa)))`` (infinite
    threshold when the parenthesis is nonpositive), and LOW_ALPHA
    ``(mu^2 - sigma^2 + 2 mu sigma f(1-kappa)) * alpha/p`` below it.  The
    quantity is continuous and non-decreasing in alpha and capped by the
    ambiguity-only quantity, which is the HIGH_ALPHA branch at the infinite
    index (labelled AMBIGUITY_ONLY there).
    """
    a = as_misspec_index(alpha)
    if a.alpha == 0.0:
        # strongest aversion: max-min over all laws — order nothing
        g_star = ambiguity_worst_case(0.0, m)
        return SolveReport(0.0, 0.0, Regime.DEGENERATE, a, g_star, g_star)
    q, regime = _quantity(a, m, cost)
    value, atoms, duals = _evaluate(a, q, m, cost)
    return SolveReport(q, value, regime, a, *_laws(a, q, atoms, cost.price), duals)


def _solve(alpha: AlphaLike, m: MomentSpec, cost: CostStructure) -> tuple[float, float]:
    """``(quantity, value)`` of :func:`misspec_quantity`, bit for bit, from the
    same checked evaluation, for callers that read nothing else: no law object
    is built."""
    a = as_misspec_index(alpha)
    if a.alpha == 0.0:
        return 0.0, 0.0
    q, _ = _quantity(a, m, cost)
    return q, _evaluate(a, q, m, cost)[0]


# ---------------------------------------------------------------------------
# threshold scans
# ---------------------------------------------------------------------------


def _tail_turn(
    grid: Sequence[float], quantities: Sequence[float], tol: float = 1e-12
) -> float | None:
    """Grid point at the smallest index j such that the quantities are
    non-increasing from j to the end, requiring at least one comparison
    (j <= len-2); None when only the vacuous single-point suffix qualifies.
    """
    n = len(quantities)
    j = n - 1
    while j > 0 and quantities[j] <= quantities[j - 1] + tol:
        j -= 1
    return grid[j] if j <= n - 2 else None


def price_threshold_scan(
    alpha: AlphaLike,
    m: MomentSpec,
    c: float,
    p_grid: Sequence[float],
) -> float | None:
    """Scan unit prices for the point past which the optimal quantity stops
    increasing: returns the smallest grid price after which q*(p) is
    non-increasing for the rest of the grid, or None if the series keeps
    rising (the ambiguity-only quantity always does).  Single-point grids
    return None by convention (no comparison is possible).
    """
    require_positive("c", c)
    grid = [require_finite("p_grid point", p) for p in p_grid]
    require(len(grid) > 0, "p_grid must be non-empty")
    for a_, b_ in zip(grid, grid[1:]):
        require(a_ < b_, "p_grid must be strictly increasing")
    require(grid[0] > c, f"all grid prices must exceed c={c!r}")
    a = as_misspec_index(alpha)
    quantities = [_solve(a, m, CostStructure(price=p, cost=c))[0] for p in grid]
    return _tail_turn(grid, quantities)


def variance_threshold_scan(
    alpha: AlphaLike,
    cost: CostStructure,
    mu: float,
    sigma_grid: Sequence[float],
) -> float | None:
    """Scan demand-std values for the point past which the optimal quantity
    stops increasing.  Scope: kappa >= 1/2 and the grid inside
    ``[0, mu*sqrt(kappa/(1-kappa))]`` (beyond it the model is degenerate).
    Same tail convention as :func:`price_threshold_scan`; single-point grids
    return None (documented choice between the two conventions offered).
    """
    kappa = cost.kappa
    require(kappa >= 0.5, f"scan requires kappa >= 1/2, got {kappa!r}")
    require_positive("mu", mu)
    grid = [require_nonnegative("sigma_grid point", s) for s in sigma_grid]
    require(len(grid) > 0, "sigma_grid must be non-empty")
    for a_, b_ in zip(grid, grid[1:]):
        require(a_ < b_, "sigma_grid must be strictly increasing")
    hi = mu * math.sqrt(kappa / (1.0 - kappa))
    require(
        grid[-1] <= hi + 1e-9,
        f"sigma_grid must stay within [0, {hi!r}] (non-degenerate region)",
    )
    a = as_misspec_index(alpha)
    quantities = [_solve(a, MomentSpec(mean=mu, std=s), cost)[0] for s in grid]
    return _tail_turn(grid, quantities)
