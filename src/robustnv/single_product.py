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
  ``ell(alpha, q, v) = min_u { pi(q, u) + alpha*(u - v)^2 }`` (the profit
  ``pi(q, T(v))`` under the transform ``T`` of :func:`transform`), and the whole
  model admits closed-form order quantities indexed by ``alpha``: small
  ``alpha`` means strong aversion (``alpha -> 0`` orders nothing), while
  ``alpha -> INFINITY`` recovers the ambiguity-only model.

The transform, value function, dual certificate and worst-case law are each
written once in ``inv = 1/alpha`` (the envelope is the transform's profit);
the ambiguity-only model is the case ``inv = 0`` of the same formulas, not a
separate branch, and Scarf's minimax quantity :func:`scarf_quantity` is
:func:`misspec_quantity` at ``inv = 0``.

Every solve returns a :class:`SolveReport` carrying the quantity, the model
value, the attaining worst-case law and its transformed image, and (where
available) the dual certificate ``(s_alpha, r_alpha, t_alpha)`` for the mean,
second-moment and normalization constraints.  Every solve is evaluated and
checked once, for every index including INFINITY, by ``_checked_evaluation``:
one ``_region`` fixes the branch and the terms that the value, the worst-case
atoms and the certificate all read; the atoms' images come from ``_image``,
the transform of :meth:`TransformSpec.apply`; and three checks run on the
atoms before any law object exists: the law's mass and moments, its attainment
of the value, and the identity ``s*mu - r*(mu^2 + sigma^2) - t == value``.  A
report then builds each law once: G* from the checked atoms, and its image
from the same images, with no TransformSpec.  Callers that read only the
quantity and the value never build the laws: a point runs ``_solve``, and a
batch (the sweeps, the cross-validation scores, the experiment's closed-form
cells) runs ``_solves``, whose array arm ``_checked_values`` is the same
evaluation, bit for bit, and hands ``_solve`` each point it does not pass.
The threshold scans validate their grid, then solve it as one such batch.
A failed check whose terms leave the float range is bad input, at any quantity.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from enum import Enum
from itertools import accumulate, repeat
from operator import le, lt, mul, sub, truediv
from typing import Callable, ClassVar, Iterable, Iterator, Sequence, Union

import numpy as np

from .validation import (
    DegenerateModelError,
    InputError,
    InternalCheckError,
    require,
    require_finite,
    require_nonnegative,
    require_positive,
    _fsum_or_inf,
    _until_error,
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
#: closure of an atom: ``DiscreteDistribution.cdf`` counts the atoms up to x + _ATOM_TOL
_ATOM_TOL = 1e-12
_SUPPORT_DUST = 1e-9  # ``from_pairs`` clamps support points down to -_SUPPORT_DUST to 0,
_WEIGHT_DUST = 1e-12  # and weights down to -_WEIGHT_DUST
#: the smallest normal float, ``sys.float_info.min``
_MIN_NORMAL = 2.0**-1022


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CostStructure:
    """Unit price and unit cost; requires ``0 < cost < price``.

    Like every model spec, its one hand-written ``__init__`` stores each number
    as the ``float()`` of what it is given (``True`` is 1.0), formed and checked
    once, so the closed forms see only doubles; what ``float()`` rejects is an
    :class:`InputError` naming the field."""

    price: float
    cost: float

    def __init__(self, price: float, cost: float) -> None:
        p = require_positive("price", price)
        c = require_finite("cost", cost)
        if not 0.0 < c < p:
            raise InputError(f"cost must satisfy 0 < cost < price, got cost={c!r}, price={p!r}")
        object.__setattr__(self, "price", p)
        object.__setattr__(self, "cost", c)

    @property
    def kappa(self) -> float:
        """Critical fractile (p - c)/p, always in (0, 1)."""
        return (self.price - self.cost) / self.price


@dataclass(frozen=True)
class MomentSpec:
    """Demand mean ``mu > 0`` and std ``sigma >= 0``, with ``mu^2 + sigma^2``
    finite and at least the smallest normal float (below it the closed forms
    divide by a second moment that has lost its precision or is 0)."""

    mean: float
    std: float
    #: ``mu^2 + sigma^2``, formed once here
    second_moment: float = field(init=False, repr=False, compare=False)

    def __init__(self, mean: float, std: float) -> None:
        mean = require_positive("mean", mean)
        std = require_nonnegative("std", std)  # as floats: an int's square may not fit one
        second = mean * mean + std * std
        if not _MIN_NORMAL <= second < math.inf:
            raise InputError(
                f"mean^2 + std^2 must be finite and at least {_MIN_NORMAL!r}, got {second!r}"
            )
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "std", std)
        object.__setattr__(self, "second_moment", second)


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

    def __init__(self, alpha: float) -> None:
        # by hand: every float alpha is coerced here, and the generated
        # __init__ plus a __post_init__ cost twice as much
        try:
            a = float(alpha)
        except (OverflowError, TypeError, ValueError):  # no index: a huge int, None, "ten"
            a = require_finite("alpha", alpha)  # raises InputError
        if not a >= 0.0:  # negative, NaN or -inf; +inf is the INFINITY index
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
    return MisspecIndex(alpha)


def _nonzero_index(alpha: AlphaLike) -> MisspecIndex:
    """``alpha`` as an index other than 0, at which the transform, the
    envelope, the value function, the worst-case law and the portfolio dual
    all degenerate."""
    a = as_misspec_index(alpha)
    if a.alpha == 0.0:
        raise DegenerateModelError(
            "alpha = 0 (strongest misspecification aversion): the model "
            "degenerates; use the robust limit q = 0"
        )
    return a


def _float_vector(xs) -> bool:
    """Whether ``xs`` is a 1-D float64, float32 or float16 array, whose
    ``tolist`` gives its elements as the floats ``float()`` would."""
    return type(xs) is np.ndarray and xs.ndim == 1 and xs.dtype.kind == "f" and xs.itemsize <= 8


def _floats(xs, name: str) -> list[float]:
    """``xs`` as a list of floats: one ``tolist`` call for a
    :func:`_float_vector`, ``float()`` per element for every other input.
    What ``float()`` rejects, a 2-D list or a non-iterable included, is an
    input error naming ``name``."""
    try:
        return xs.tolist() if _float_vector(xs) else list(map(float, xs))
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"{name} must be a 1-D sequence of finite numbers: {exc}") from None


def _grid(name: str, points) -> list[float]:
    """The oracle or scan grid ``name`` as floats (:func:`_floats`):
    non-empty, finite, >= 0 and strictly increasing.  A one-pass test (a NaN
    fails its ``<`` chain) decides whether the loop runs that names the first
    bad point."""
    grid = _floats(points, name)
    if not (grid and grid[0] >= 0.0 and grid[-1] < math.inf and all(map(lt, grid, grid[1:]))):
        require(len(grid) > 0, f"{name} must be non-empty")
        for x in grid:
            require_nonnegative(f"every {name} point", x)
        raise InputError(f"{name} must be strictly increasing")
    return grid


def _check_atoms(vs: list[float], ws: list[float], v_slack=0.0, w_slack=0.0) -> None:
    """Raise InputError on the first bad atom: the atoms must be non-empty, of
    equal length, finite, every point >= ``-v_slack`` and every weight >=
    ``-w_slack`` (all points are checked before any weight)."""
    require(len(vs) > 0, "support must be non-empty")
    require(len(vs) == len(ws), "support and weights must have equal length")
    for name, xs, floor in (("support", vs, -v_slack), ("weights", ws, -w_slack)):
        for x in xs:
            if not floor <= x < math.inf:  # NaN and -inf fail here too
                require_finite(name, x)
                raise InputError(f"{name} must be >= 0, got {x!r}")


@dataclass(frozen=True)
class DiscreteDistribution:
    """Finitely supported demand law with nonnegative, strictly sorted support.

    The constructor checks the invariants exactly: support finite, >= 0 and
    strictly increasing; weights finite and >= 0, summing to 1 within 1e-12.
    :meth:`from_pairs` is the forgiving entry: it clamps dust (support above
    -1e-9, weights above -1e-12) to 0, merges points within 1e-12 relative,
    accepts a mass within 1e-9 of 1, drops zero weights and renormalizes.

    Both check a law in a few passes over its atom lists (``min``, ``sum``,
    ``fsum``, a pairwise ``<``).  That fast test only decides whether the
    per-atom loops of :func:`_check_atoms` run, to name the first bad value
    in atom order; a law that passes them fails on its order or its mass.
    """

    support: tuple[float, ...]
    weights: tuple[float, ...]

    def __init__(self, support: Iterable[float], weights: Iterable[float]) -> None:
        """The only constructor, running every check of the class docstring.
        Written by hand, as :class:`MisspecIndex`'s is, so that each field's
        tuple of floats (:func:`_floats`) is formed, checked and stored once;
        the dataclass still generates ``==``, ``hash`` and ``repr``."""
        sup, wts = tuple(_floats(support, "support")), tuple(_floats(weights, "weights"))
        if not (
            sup
            and len(sup) == len(wts)
            and sup[0] >= 0.0
            and sup[-1] < math.inf
            and all(map(lt, sup, sup[1:]))  # NaN fails here or at the ends
            and min(wts) >= 0.0
            and abs(_fsum_or_inf(wts) - 1.0) <= 1e-12  # NaN and inf fail here
        ):
            _check_atoms(sup, wts)  # the fast test failed: one of these three raises
            require(all(map(lt, sup, sup[1:])), "support must be strictly increasing")
            raise InputError(f"weights must sum to 1 within 1e-12, got {_fsum_or_inf(wts)!r}")
        object.__setattr__(self, "support", sup)
        object.__setattr__(self, "weights", wts)

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_pairs(
        cls, values: Iterable[float], weights: Iterable[float]
    ) -> "DiscreteDistribution":
        """Build from unsorted atoms: clamps dust to 0, sorts stably by value,
        merges coincident points, checks the mass, drops zero-weight atoms and
        renormalizes exactly (tolerances in the class docstring).
        """
        vs, ws = _floats(values, "values"), _floats(weights, "weights")
        n = len(vs)
        # sum() is NaN or infinite when any atom is (min may skip a NaN); the
        # loops raise unless only a finite sum left the float range
        if not (
            n
            and n == len(ws)
            and (low_v := min(vs)) >= -_SUPPORT_DUST
            and (low_w := min(ws)) >= -_WEIGHT_DUST
            and math.isfinite(sum(vs))
            and math.isfinite(sum(ws))
        ):
            _check_atoms(vs, ws, v_slack=_SUPPORT_DUST, w_slack=_WEIGHT_DUST)
        # clamp before sorting, so tied zeros (-0.0, dust) keep input order
        if not low_v > 0.0:
            vs = [v if v > 0.0 else 0.0 for v in vs]
        if not low_w > 0.0:
            ws = [w if w > 0.0 else 0.0 for w in ws]
        if all(map(le, vs, vs[1:])):  # already in order: the stable sort is the identity
            return cls._from_sorted(vs, ws)
        order = sorted(range(n), key=vs.__getitem__)
        return cls._from_sorted(list(map(vs.__getitem__, order)), list(map(ws.__getitem__, order)))

    @classmethod
    def _from_sorted(cls, sup: list[float], mass: list[float]) -> "DiscreteDistribution":
        """The end of :meth:`from_pairs`, for finite atoms >= 0 with finite
        weights >= 0, sorted stably by value: merges coincident points, checks
        the mass, drops zero-weight atoms and renormalizes.  Equal weights
        (an empirical law's) are none of them 0 once the mass checks, and
        each quotient is the same float, so it is formed once; their total is
        ``x * n``, which is their fsum (both round ``n x`` correctly).  A mass
        that sums to 1.0 is its own quotient (``x / 1.0 == x``)."""
        # no pair can merge when every gap exceeds the largest tolerance
        if len(sup) > 1 and not min(map(sub, sup[1:], sup)) > _merge_tol(sup[-1]):
            pairs, sup, mass = zip(sup, mass), [], []
            for v, w in pairs:
                if sup and v - sup[-1] <= _merge_tol(sup[-1]):
                    mass[-1] += w
                else:
                    sup.append(v)
                    mass.append(w)
        equal = mass.count(mass[0]) == len(mass)
        total = mass[0] * len(mass) if equal else _fsum_or_inf(mass)
        if not abs(total - 1.0) <= 1e-9:
            raise InputError(f"weights must sum to 1 within 1e-9, got {total!r}")
        if equal:
            return cls(sup, (mass[0] / total,) * len(mass))
        if not min(mass) > 0.0:
            sup = [v for v, w in zip(sup, mass) if w > 0.0]
            mass = [w for w in mass if w > 0.0]
        if total == 1.0:
            return cls(sup, mass)
        return cls(sup, map(truediv, mass, repeat(total)))

    @classmethod
    def from_samples(cls, values: Iterable[float]) -> "DiscreteDistribution":
        """Empirical law: equal weight 1/N per observation, duplicates merged.

        The samples are read once as floats (a :func:`_float_vector` as it
        stands, any other input by :func:`_floats`) and sorted as float64 by
        numpy.  When the sorted ends are finite and the lowest is >= -1e-9
        (NaN sorts last), dust is clamped to 0 and the sorted samples go on to
        the merge, mass check and normalization of :meth:`from_pairs`.  That
        is the law :meth:`from_pairs` returns, bit for bit: clamping is
        monotone, so the clamped sorted samples are the clamped samples sorted
        (-0.0 and dust become 0.0), and with equal weights a sort of the atoms
        is a sort of the values.  Other samples go to :meth:`from_pairs` as
        read, so its errors name the first bad sample in input order.
        """
        vs = values if _float_vector(values) else _floats(values, "values")
        arr = np.array(vs, dtype=np.float64)
        n = arr.size
        require(n > 0, "need at least one sample")
        arr.sort()
        if -_SUPPORT_DUST <= arr[0] and arr[-1] < math.inf:
            if not arr[0] > 0.0:
                arr[arr <= 0.0] = 0.0
            return cls._from_sorted(arr.tolist(), [1.0 / n] * n)
        return cls.from_pairs(vs, [1.0 / n] * n)

    @classmethod
    def point_mass(cls, value: float) -> "DiscreteDistribution":
        return cls((require_nonnegative("value", value),), (1.0,))

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
        """P(V <= x), closed at atoms (tolerance ``_ATOM_TOL`` on the comparison):
        the same in-order prefix sum of the weights that :meth:`quantile` reads."""
        k = bisect.bisect_right(self.support, require_finite("x", x) + _ATOM_TOL)
        return list(accumulate(self.weights[:k], initial=0.0))[-1]

    def quantile(self, kappa: float) -> float:
        """Left-continuous generalized inverse inf{x : CDF(x) >= kappa}."""
        kappa = require_finite("kappa", kappa)
        return self.support[_quantile_atom(list(accumulate(self.weights, initial=0.0)), kappa)]

    def expectation(self, fn: Callable[[float], float]) -> float:
        return math.fsum(w * fn(v) for v, w in zip(self.support, self.weights))


def _merge_tol(v: float) -> float:
    """How near ``v`` :meth:`DiscreteDistribution.from_pairs` merges the next point."""
    return 1e-12 * max(1.0, v)


def _quantile_atom(mass: list[float], kappa: float) -> int:
    """The atom of :meth:`DiscreteDistribution.quantile`, read from the prefix sums
    ``mass`` of its weights from 0 (``mass[k]`` holds the first ``k`` atoms)."""
    require(0.0 < kappa <= 1.0, f"kappa must lie in (0, 1], got {kappa!r}")
    return min(bisect.bisect_left(mass, kappa - 1e-12, 1), len(mass) - 1) - 1


class TransformRegime(str, Enum):
    QUADRATIC = "QUADRATIC"
    MIXED = "MIXED"


@dataclass(frozen=True)
class TransformSpec:
    """Increasing continuous demand transform encoding misspecification.

    QUADRATIC regime (``alpha < p/(4q)``): ``apply(v) = (alpha/p) v^2``.
    MIXED regime (``alpha >= p/(4q)``): quadratic below ``p/(2 alpha)``, the
    shift ``v - p/(4 alpha)`` above; the two pieces agree at the junction.
    ``apply(0) = 0`` in both regimes (:func:`transform` checks ``alpha/p``).
    The infinite-index transform is the identity: MIXED with ``p/alpha = 0``.
    """

    alpha: float
    price: float
    order_quantity: float
    regime: TransformRegime

    def apply(self, v: float) -> float:
        v = require_finite("v", v)
        return _image(v, self.alpha, self.price, self.regime is TransformRegime.MIXED)


def _image(v: float, alpha: float, price: float, mixed: bool) -> float:
    """The transform of :class:`TransformSpec` at one demand ``v``, checked
    finite and >= 0; ``mixed`` is the MIXED regime."""
    if not 0.0 <= v < math.inf:  # NaN too
        raise InputError(f"v must be >= 0, got {v!r}")
    if mixed:
        pinv = price / alpha  # p * inv: 0 at the infinite index
        if 2.0 * v >= pinv:
            return v - 0.25 * pinv
    return (alpha / price) * v * v


def _quadratic(q: float, pinv: float) -> bool:
    """The regime rule of :func:`transform`, ``4q < p/alpha``; ``pinv`` is ``p * inv``."""
    return 4.0 * q < pinv


def _require_slope(a: MisspecIndex, price: float) -> None:
    """The slope ``alpha/p`` is finite at a finite index, or no transform exists."""
    if a.alpha / price == math.inf and not a.is_infinite:
        raise InputError(f"alpha/p leaves the float range at price={price!r}, alpha={a.alpha!r}")


def transform(alpha: AlphaLike, price: float, q: float) -> TransformSpec:
    """Build the transform attached to order quantity ``q``; a slope
    ``alpha/p`` beyond the float range raises :class:`InputError`."""
    a = as_misspec_index(alpha)
    price = require_positive("price", price)
    q = require_nonnegative("q", q)
    _require_slope(_nonzero_index(a), price)
    regime = TransformRegime.QUADRATIC if _quadratic(q, price * a.inv) else TransformRegime.MIXED
    return TransformSpec(a.alpha, price, q, regime)


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
    """``p*min(q, v) - c*q`` on a checked float or array ``v``: ``min(q, v)`` is
    the conditional, bit for bit, and ``np.minimum(v, q)`` is too (signed zeros)."""
    sold = (v if v < q else q) if isinstance(v, float) else np.minimum(v, q)
    return cost.price * sold - cost.cost * q


def _test_profits(
    qs: Sequence[float], demands: np.ndarray, cost: CostStructure, prices=None
) -> np.ndarray:
    """Mean selling profit of ordering each of ``qs`` against held-out
    ``demands`` (converted and checked once by ``_require_demands``), in one
    numpy pass: row i is ``np.mean(_profit(qs[i], demands, cost))`` bit for
    bit (a contiguous row's mean takes the 1-D pairwise sum).  ``prices``,
    one per quantity, replaces ``cost.price``.  :func:`_checked_test_profits`
    checks the means."""
    q = np.array(qs, dtype=float)[:, None]
    price = cost.price if prices is None else np.array(prices, dtype=float)[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        return (price * np.minimum(q, demands) - cost.cost * q).mean(axis=1)


def _checked_test_profits(qs: Sequence[float], means: np.ndarray) -> Iterator[float]:
    """``means`` as floats, checked row by row as they are read: each row's
    ``q`` must be a finite number >= 0, and a mean beyond the float range is
    bad input, not an infinite answer.  One vector test passes every row at
    once; only when it fails is each row checked in turn."""
    values = means.tolist()
    if min(qs, default=0.0) >= 0.0 and np.isfinite(means).all():
        yield from values
        return
    for q, mean in zip(qs, values):
        q = require_nonnegative("q", q)
        if not math.isfinite(mean):
            raise InputError(f"the out-of-sample profit of q={q!r} leaves the float range")
        yield mean


def _expected_profits(
    dist: DiscreteDistribution, qs: Sequence[float], cost: CostStructure
) -> Iterator[float]:
    """``dist.expectation(lambda v: profit(q, v, cost))`` for each of ``qs``,
    bit for bit: the same terms, formed for every quantity in one numpy pass
    and summed row by row by ``math.fsum`` as the rows are read, so that an
    ``fsum`` error comes in row order.  The law's atoms were checked when it
    was built, so they are not checked again."""
    q = np.array(qs, dtype=float)[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        terms = dist.weights_array() * _profit(q, dist.support_array(), cost)
    return map(math.fsum, terms.tolist())


def profit(q: float, v: _Demand, cost: CostStructure) -> _Demand:
    """Selling profit p*min(q, v) - c*q, for a float ``v`` or an array of demands."""
    q = require_nonnegative("q", q)
    v = _require_demands(v) if isinstance(v, np.ndarray) else require_nonnegative("v", v)
    return _profit(q, v, cost)


def ell(alpha: AlphaLike, q: float, v: _Demand, cost: CostStructure) -> _Demand:
    """Pointwise envelope min_u { pi(q, u) + alpha*(u - v)^2 } over u >= 0: the
    profit of the transformed demand, ``profit(q, transform(alpha, p, q).apply(v),
    cost)``, bit for bit (over u <= q the minimum is ``p T(v) - c q``, over u >= q
    at least ``p q - c q``).  ``v`` may be a float or an array: per point, bit for
    bit.  A slope ``alpha/p`` beyond the float range raises :class:`InputError`."""
    a = _nonzero_index(alpha)
    q = require_nonnegative("q", q)
    if isinstance(v, np.ndarray):
        return _ell_core(a, q, _require_demands(v), cost)[()]
    v = require_nonnegative("v", v)
    p = cost.price
    _require_slope(a, p)
    return _profit(q, _image(v, a.alpha, p, not _quadratic(q, p * a.inv)), cost)


def _ell_core(a: MisspecIndex, q, v: np.ndarray, cost: CostStructure) -> np.ndarray:
    """:func:`ell` on checked inputs (a nonzero index, quantities and demands >= 0,
    broadcast: a column of quantities gives a row each), by :func:`_image`'s tests."""
    _require_slope(a, cost.price)
    return _envelope(a.alpha, a.inv, q, v, cost.price, cost.cost)


def _envelope(alpha, inv, q, v, p, c):
    """:func:`_ell_core` with the index (``inv = 1/alpha``), price and cost
    broadcast too, unchecked; the profit is :func:`_profit`'s array arm."""
    shift = (4.0 * q >= p * inv) & (2.0 * v >= p / alpha)
    with np.errstate(invalid="ignore", over="ignore"):  # inf * 0 at alpha = inf, v = 0
        image = np.where(shift, v - 0.25 * (p / alpha), (alpha / p) * v * v)
    return p * np.minimum(image, q) - c * q


def fractile_factor(x: float) -> float:
    """The map f(x) = (1 - 2x) / (2 sqrt(x (1 - x))) on (0, 1)."""
    x = require_finite("x", x)
    if not 0.0 < x < 1.0:
        raise InputError(f"fractile_factor needs x in (0, 1), got {x!r}")
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
    return DiscreteDistribution.from_pairs(*_worst_case_law(_region(0.0, q, m, 1.0), m))


#: ``(in_q, point_mass, x, y, h, z, pqi)``; see :func:`_region`
_Region = tuple[bool, bool, float, float, float, float, float]


def _region(inv: float, q: float, m: MomentSpec, p: float) -> _Region:
    """Branch of the value function at ``(inv = 1/alpha, q)`` and the terms
    that the value, the worst-case law and the certificate read, as
    ``(in_q, point_mass, x, y, h, z, pqi)`` with ``h = hypot(x, y)``: in
    region Q (see :func:`worst_case_transformed_expectation`) ``z = u = q +
    p/(4 alpha)``, ``x = u - mu``, ``y = sigma``; off Q ``z = w = pqi + mu^2 +
    sigma^2`` with ``pqi = p q/alpha``, and ``h = rad = sqrt(w^2 - 4 mu^2
    pqi)`` taken with ``x = pqi + sigma^2 - mu^2``, ``y = 2 mu sigma``, so
    that no nearly equal terms are subtracted.  ``point_mass`` (``h <= 1e-12
    z``): the worst case is one atom and the certificate is empty.
    """
    mu, sig, second = m.mean, m.std, m.second_moment
    pinv = p * inv
    pqi = p * (q * inv)
    in_q = _in_q(q, pinv, mu, second)
    x, y, z = _branch_terms(in_q, q, pinv, pqi, mu, sig, second)
    h = math.hypot(x, y)
    return in_q, h <= 1e-12 * z, x, y, h, z, pqi


def _in_q(q, pinv, mu, second):
    """Whether ``q`` lies in region Q, at ``pinv = p/alpha``; on floats or arrays."""
    return (q >= 0.25 * pinv) & ((2.0 * mu - pinv) * q >= second - 0.5 * pinv * mu)


def _branch_terms(in_q, q, pinv, pqi, mu, sig, second):
    """``(x, y, z)`` of :func:`_region` in region Q (``in_q``) or off it: like
    :func:`_value` and :func:`_dual_certificate`, it serves both arms."""
    if in_q:
        u = q + 0.25 * pinv
        return u - mu, sig, u
    return pqi + sig * sig - mu * mu, 2.0 * mu * sig, pqi + second


_Atoms = tuple[tuple[float, ...], tuple[float, ...]]
_Duals = tuple[tuple[str, float], ...]


def _weights(x, y, h):
    """The weights ``(h +- |x|)/(2h)`` of a two-point law, ``h = hypot(x, y)``,
    the smaller as ``y^2/(2h(h + |x|))``, free of cancellation."""
    return (h + abs(x)) / (2.0 * h), y * y / (2.0 * h * (h + abs(x)))


def _worst_case_law(region: _Region, m: MomentSpec) -> _Atoms:
    """Atoms and weights of the worst-case law in ``region`` (of
    :func:`_region`); see :func:`misspec_worst_case`.  Of two atoms ``lo < hi``
    (:func:`_weights`, the larger on ``lo`` at ``x >= 0``), ``lo`` is clamped at 0."""
    in_q, point_mass, x, y, h, z, pqi = region
    mu = m.mean
    if point_mass:
        return (mu if in_q else 0.5 * z / mu,), (1.0,)
    if in_q:
        lo, hi = (mu - y * y / (h + x) if x > 0.0 else z - h), z + h
    else:
        lo, hi = 2.0 * mu * pqi / (z + h), (z + h) / (2.0 * mu)
    big, small = _weights(x, y, h)
    return (max(lo, 0.0), hi), ((big, small) if x >= 0.0 else (small, big))


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
    branch the linear ``p q mu^2/(mu^2 + sigma^2) - c q``.  An index whose
    1/alpha overflows (below about 5.6e-309) raises :class:`InputError`
    rather than read inv = inf as alpha = 0.
    """
    a = as_misspec_index(alpha)
    q = require_nonnegative("q", q)
    if q == 0.0:
        return 0.0
    inv = _nonzero_index(a).inv
    if inv == math.inf:
        raise InputError(f"1/alpha leaves the float range at alpha={a.alpha!r}")
    in_q, _, _, _, h, z, _ = _region(inv, q, m, cost.price)
    return _value(in_q, q, m.mean, cost.price, cost.cost, z, h)


def _value(in_q, q, mu, p, c, z, h):
    """L_alpha(q) at ``q > 0`` in region Q (``in_q``) or off it, from the terms
    of :func:`_region`: see :func:`worst_case_transformed_expectation`."""
    if in_q:
        return 0.5 * p * (mu - z - h) + (p - c) * q
    return 2.0 * mu * mu * p * q / (z + h) - c * q


def _dual_certificate(in_q, q, mu, p, c, z, h, pqi) -> _Duals:
    """Dual variables (s, r, t) certifying L_alpha(q) in region Q (``in_q``)
    or off it, from the terms of a :func:`_region` that is no point mass."""
    if in_q:  # z = u, h = hypot(u - mu, sigma)
        r = p / (4.0 * h)
        s = 0.5 * p + 2.0 * r * z
        # p^2/(16 r) with the power of two folded into the square: the same
        # bits while p^2/16 is a normal float, finite up to 4*sqrt(DBL_MAX)
        t = (0.25 * p) * (0.25 * p) / r + r * z * z + 0.5 * p * z - (p - c) * q
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
    :class:`InternalCheckError`; :class:`InputError` beyond the float range).
    """
    a = as_misspec_index(alpha)
    q = require_nonnegative("q", q)
    _, atoms, images, _ = _checked_evaluation(_nonzero_index(a), q, m, cost)
    return _laws(atoms, images, cost, m)


def _checked_evaluation(
    a: MisspecIndex, q: float, m: MomentSpec, cost: CostStructure
) -> tuple[float, _Atoms, list[float], _Duals]:
    """The checked evaluation at ``(a, q)``, ``a`` nonzero: the value
    L_alpha(q), the worst-case atoms and weights, their images under the
    transform attached to ``(a, q)``, the images' profits and the dual
    certificate, all formed once from one :func:`_region`, then the checks of
    the law's mass and moments, its attainment of the value and the dual
    identity.  A check that fails on terms beyond the float range (see
    :func:`_in_float_range`), or a divisor that underflows to 0, means that the
    price, the demand scale or ``q`` are beyond what floats can evaluate: bad
    input, an :class:`InputError`.  So is a worst-case atom that overflowed to
    inf (or NaN); where 1/alpha itself overflowed, the error names the index."""
    p, inv = cost.price, a.inv
    try:
        region = _region(inv, q, m, p)
        in_q, point_mass, _, _, h, z, pqi = region
        # 0 at q = 0, where a product with 0 could be inf * 0
        value = 0.0 if q == 0.0 else _value(in_q, q, m.mean, p, cost.cost, z, h)
        atoms = _worst_case_law(region, m)
        finite = all(map(math.isfinite, atoms[0]))  # else an atom overflowed
        if finite:
            mixed = not _quadratic(q, p * inv)
            images = [_image(v, a.alpha, p, mixed) for v in atoms[0]]
            profits = [_profit(q, x, cost) for x in images]
            duals = () if point_mass else _dual_certificate(in_q, q, m.mean, p, cost.cost, z, h, pqi)
    except ZeroDivisionError:  # a divisor underflowed to 0
        finite = False
    if finite:
        try:
            _check_moments(atoms, m)
            _check_attainment(profits, atoms[1], a, q, value)
            _check_certificate(duals, value, m)
            return value, atoms, images, duals
        except (InternalCheckError, OverflowError):  # OverflowError: an fsum overflowed
            if _in_float_range(value, atoms, profits, duals, m):
                raise
    if inv == math.inf:  # an index below 1/max-float, not the price or demand
        raise InputError(f"1/alpha leaves the float range at alpha={a.alpha!r}")
    raise _float_range_error("the worst-case value or a term of its checks", cost, m)


def _float_range_error(what: str, cost: CostStructure, m: MomentSpec) -> InputError:
    """The error for ``what`` leaving the float range: the price or the demand
    scale are beyond what floats can evaluate."""
    return InputError(
        f"{what} leaves the float range at "
        f"price={cost.price!r}, demand mean={m.mean!r}, std={m.std!r}"
    )


def _in_float_range(
    value: float, atoms: _Atoms, profits: list[float], duals: _Duals, m: MomentSpec
) -> bool:
    """Whether ``value``, each term that the checks of
    :func:`_checked_evaluation` sum and the sum of their sizes lie in the
    float range."""
    support, weights = atoms
    terms = [value, *(v * v * w for v, w in zip(support, weights))]  # and v*w <= v
    terms += map(mul, weights, profits)
    terms += [x * y for (_, x), y in zip(duals, (m.mean, m.second_moment, 1.0))]
    return math.isfinite(_fsum_or_inf(map(abs, terms)))


def _laws(
    atoms: _Atoms, images: list[float], cost: CostStructure, m: MomentSpec
) -> tuple[DiscreteDistribution, DiscreteDistribution]:
    """The worst-case law G* built from checked atoms, and its image law, from
    ``images``, the atoms' images under the attached transform as
    :func:`_checked_evaluation` formed them.

    These are the laws ``from_pairs(*atoms)`` and ``push_forward(G*,
    transform(a, p, q))`` return, bit for bit, wherever ``transform`` accepts
    ``alpha/p``.  The atoms (at most two) come finite and in order, with
    weights >= 0, so from_pairs' stable sort is the identity, and its clamp
    and :meth:`DiscreteDistribution._from_sorted` are all it does
    (:func:`_sorted_law`).  The transform is monotone, so the same holds for
    the images of an in-order support.  Each point of G* is one of the atoms
    (a merge keeps the lower one, and a zero weight drops its atom), so its
    image is read from ``images``.  A clamped ``-0.0`` atom and ``0.0`` have
    images that differ only in the sign of a zero, and only at ``p/alpha =
    0``, where every image equals its atom and the image law is G* itself.

    An image of a kept atom that is not finite (``alpha / p`` overflowed, so
    ``(alpha / p) v^2`` is inf, or NaN at ``v = 0``) raises the float-range
    :class:`InputError` that names the price and the demand scale of ``cost``
    and ``m``.  The checks passed, since the atom's profit at ``q`` is finite,
    so only the image law finds it; finiteness is tested only when the
    range test of :func:`_sorted_law` fails.
    """
    support = atoms[0]
    g_star = _sorted_law(support, atoms[1])
    if g_star.support != support:  # merged, dropped or reordered
        images = [images[support.index(v)] for v in g_star.support]
    image = tuple(images)
    if image == g_star.support:
        return g_star, g_star
    if not (0.0 <= image[0] <= image[-1] < math.inf) and not all(map(math.isfinite, image)):
        raise _float_range_error("the worst-case law's image under the transform", cost, m)
    return g_star, _sorted_law(image, g_star.weights)


def _sorted_law(support: Sequence[float], weights: Sequence[float]) -> DiscreteDistribution:
    """``DiscreteDistribution.from_pairs(support, weights)``, bit for bit, for
    at most two atoms with finite weights >= 0 (none of them ``-0.0``): when
    the support is finite, >= 0 and in order, that is the clamp of a ``-0.0``
    or ``0.0`` point to ``0.0`` and :meth:`DiscreteDistribution._from_sorted`;
    any other support (out of order, NaN or inf) goes to ``from_pairs``."""
    if not 0.0 <= support[0] <= support[-1] < math.inf:
        return DiscreteDistribution.from_pairs(support, weights)
    if not support[0] > 0.0:
        support = [v if v > 0.0 else 0.0 for v in support]
    return DiscreteDistribution._from_sorted(support, weights)


def _check_moments(atoms: _Atoms, m: MomentSpec) -> None:
    """The law's mass is 1 and its mean and second moment match ``m``, within
    1e-9 (relative to the second moment above 1)."""
    support, weights = atoms
    mass = math.fsum(weights)
    mean = math.fsum(map(mul, support, weights))
    second = math.fsum(map(mul, map(mul, support, support), weights))
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
    profits: list[float], weights: Sequence[float], a: MisspecIndex, q: float, value: float
) -> None:
    """The ``weights``-weighted sum of ``profits``, the transformed atoms'
    profits at ``q``, equals the value, within 1e-9 (relative above 1)."""
    attained = math.fsum(map(mul, weights, profits))
    if not abs(attained - value) <= _CHECK_TOL * max(1.0, abs(value)):
        raise InternalCheckError(
            f"worst-case law fails to attain the value function: "
            f"{attained!r} vs {value!r} at alpha={a!r}, q={q!r}"
        )


def _check_certificate(duals: _Duals, value: float, m: MomentSpec) -> None:
    """The dual identity ``s*mu - r*(mu^2 + sigma^2) - t == value``, within
    1e-9 (relative above 1) plus the rounding bound of evaluating the three
    terms: near sigma = 0 they grow like mu/sigma and cancel to the value.
    Terms whose summed size is not finite fail, since that bound would then
    pass any value.  ``duals`` lists s, r and t in that order, as
    :func:`_dual_certificate` gives them."""
    if duals:
        (_, s), (_, r), (_, t) = duals
        s *= m.mean
        r *= m.second_moment
        dual_value = s - r - t
        size = abs(s) + abs(r) + abs(t)
        tol = _CHECK_TOL * max(1.0, abs(value)) + _ROUNDING * size
        if not (abs(dual_value - value) <= tol and size < math.inf):
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


def _fractile_rounds_to_one(cost: CostStructure) -> InputError:
    """The error for a cost so small against the price that the critical
    fractile (p - c)/p rounds to 1, where the closed forms divide by 1 - kappa."""
    return InputError(
        f"the critical fractile (p - c)/p rounds to 1 at price={cost.price!r}, "
        f"cost={cost.cost!r}: the cost must exceed about 1.1e-16 of the price"
    )


def _quantity_terms(alpha, mu, sig, p, kappa, sqrt):
    """``(margin, high, low)`` at a nonzero index: the margin that sets the
    regime threshold ``p / (2 margin)``, and the HIGH_ALPHA and LOW_ALPHA
    quantities before ``max(q, 0)``.  ``sqrt`` is ``math.sqrt`` on floats or
    ``np.sqrt`` on arrays; both round correctly, so both give the same bits."""
    x = 1.0 - kappa
    f = (1.0 - 2.0 * x) / (2.0 * sqrt(x * (1.0 - x)))
    margin = mu - sig * sqrt(x / kappa)
    high = mu + sig * f - p / (4.0 * alpha)
    low = (mu * mu - sig * sig + 2.0 * mu * sig * f) * alpha / p
    return margin, high, low


def _quantity(a: MisspecIndex, m: MomentSpec, cost: CostStructure) -> tuple[float, Regime]:
    """The closed-form quantity and its regime at a nonzero index; see
    :func:`misspec_quantity`."""
    kappa, p = cost.kappa, cost.price
    if kappa < m.std * m.std / m.second_moment:
        return 0.0, Regime.DEGENERATE
    if not kappa < 1.0:
        raise _fractile_rounds_to_one(cost)
    margin, high, low = _quantity_terms(a.alpha, m.mean, m.std, p, kappa, math.sqrt)
    if a.alpha >= (p / (2.0 * margin) if margin > 0.0 else math.inf):
        return max(high, 0.0), Regime.AMBIGUITY_ONLY if a.is_infinite else Regime.HIGH_ALPHA
    return max(low, 0.0), Regime.LOW_ALPHA


def _quantities(alpha: float, mu, sig, second, p, kappa) -> np.ndarray:
    """:func:`_quantity`'s quantities on broadcast float arrays, at a nonzero
    index (``second = mu^2 + sig^2``, and ``kappa < 1`` checked by the
    caller): the same :func:`_quantity_terms`, regime tests and threshold,
    each branch taken by ``np.where``.  ``np.where(0.0 > q, 0.0, q)`` is
    ``max(q, 0.0)``, NaN and -0.0 included."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        margin, high, low = _quantity_terms(alpha, mu, sig, p, kappa, np.sqrt)
        threshold = np.where(margin > 0.0, p / (2.0 * margin), math.inf)
        q = np.where(kappa < sig * sig / second, 0.0, np.where(alpha >= threshold, high, low))
    return np.where(0.0 > q, 0.0, q)


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
    index (labelled AMBIGUITY_ONLY there).  A cost below about 1.1e-16 of
    the price, where (p - c)/p rounds to 1, raises :class:`InputError`.
    """
    a = as_misspec_index(alpha)
    if a.alpha == 0.0:
        # strongest aversion: max-min over all laws — order nothing
        g_star = ambiguity_worst_case(0.0, m)
        return SolveReport(0.0, 0.0, Regime.DEGENERATE, a, g_star, g_star)
    q, regime = _quantity(a, m, cost)
    value, atoms, images, duals = _checked_evaluation(a, q, m, cost)
    return SolveReport(q, value, regime, a, *_laws(atoms, images, cost, m), duals)


def _solve(alpha: AlphaLike, m: MomentSpec, cost: CostStructure) -> tuple[float, float]:
    """``(quantity, value)`` of :func:`misspec_quantity`, bit for bit, from the
    same checked evaluation, for callers that read nothing else: no law object
    is built."""
    a = as_misspec_index(alpha)
    if a.alpha == 0.0:
        return 0.0, 0.0
    q, _ = _quantity(a, m, cost)
    return q, _checked_evaluation(a, q, m, cost)[0]


def _checked_values(alpha, mu, sig, p, c) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`_solve` on broadcast float arrays, as :func:`_quantities` is
    :func:`_quantity`: ``(q, value, ok)``, ``ok`` where they are its bits.
    The terms come from the scalar path's helpers (``h`` by ``math.hypot``:
    ``np.hypot`` can differ in the last bit), each branch by ``np.where``; the
    atoms are :func:`_worst_case_law`'s, copied, and the checks the scalar
    tests, copied into :func:`_checks_pass`, each two-term ``fsum`` taken as
    ``a + b``: both round the exact sum, and where ``+`` overflows, ``fsum``
    raises and the test fails.  ``ok`` fails wherever the scalar path may do
    anything else: a spec its constructor rejects, alpha = 0, a fractile that
    rounds to 1, ``alpha/p`` beyond the float range, a point mass, a value
    that is not finite, or a failed check (as a divisor underflowed to 0 does)."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        second = mu * mu + sig * sig
        kappa = (p - c) / p
        q = _quantities(alpha, mu, sig, second, p, kappa)
        inv = 1.0 / alpha  # 0 at the infinite index
        pinv, pqi = p * inv, p * (q * inv)
        in_q = _in_q(q, pinv, mu, second)
        x, y, z = (np.where(in_q, *pair) for pair in zip(
            _branch_terms(True, q, pinv, pqi, mu, sig, second),
            _branch_terms(False, q, pinv, pqi, mu, sig, second)))
        h = np.array(list(map(math.hypot, x.tolist(), y.tolist())))
        terms = (q, mu, p, c, z, h)
        value = np.where(q == 0.0, 0.0, np.where(in_q, _value(True, *terms), _value(False, *terms)))
        s, r, t = (np.where(in_q, dq, dw) for (_, dq), (_, dw) in zip(
            _dual_certificate(True, *terms, pqi), _dual_certificate(False, *terms, pqi)))
        # _worst_case_law's atoms and weights, one row per atom
        lo = np.where(in_q, np.where(x > 0.0, mu - y * y / (h + x), z - h), 2.0 * mu * pqi / (z + h))
        hi = np.where(in_q, z + h, (z + h) / (2.0 * mu))
        atoms = np.array([np.where(0.0 > lo, 0.0, lo), hi])  # max(lo, 0.0)
        big, small = _weights(x, y, h)
        weights = np.where(x >= 0.0, [big, small], [small, big])
        # each row the two terms of one fsum of the checks, in their order
        mass, mean, square, paid = np.array([
            weights, atoms * weights, atoms * atoms * weights,
            weights * _envelope(alpha, inv, q, atoms, p, c)]).sum(axis=1)
        ok = (
            (0.0 < c) & (c < p) & (p < math.inf) & (mu > 0.0) & (sig >= 0.0)
            & (_MIN_NORMAL <= second) & (second < math.inf) & (alpha > 0.0) & (kappa < 1.0)
            & ((alpha / p < math.inf) | (alpha == math.inf)) & (h > 1e-12 * z)
            & np.isfinite(value) & _checks_pass(mass, mean, square, paid, s, r, t, value, mu, second)
        )
    return q, value, ok


def _checks_pass(mass, mean, square, paid, s, r, t, value, mu, second) -> np.ndarray:
    """The three scalar checks' tests on arrays of their sums (``np.fmax(1.0,
    x)`` is ``max(1.0, x)`` on every float)."""
    tol = _CHECK_TOL * np.fmax(1.0, second)
    unit = _CHECK_TOL * np.fmax(1.0, abs(value))
    s, r = s * mu, r * second
    dual_value = s - r - t
    size = abs(s) + abs(r) + abs(t)
    return ((abs(mass - 1.0) <= _CHECK_TOL) & (abs(mean - mu) <= tol)
            & (abs(square - second) <= tol) & (abs(paid - value) <= unit)
            & (abs(dual_value - value) <= unit + _ROUNDING * size) & (size < math.inf))


def _solves(alpha, mu, sig, p, c) -> tuple[list[tuple[float, float]], Exception | None]:
    """:func:`_until_error` of :func:`_solve` over the points ``(alpha,
    MomentSpec(mu, sig), CostStructure(p, c))``, each argument a float or a
    list of floats: one :func:`_checked_values` pass, and :func:`_solve` on
    specs built for it at each point that the pass does not pass."""
    cols = [np.asarray(x, dtype=float)[()] for x in (alpha, mu, sig, p, c)]
    q, value, ok = _checked_values(*cols)
    solved = list(zip(q.tolist(), value.tolist()))
    if ok.all():
        return solved, None
    points = zip(*(np.broadcast_to(x, ok.shape).tolist() for x in cols), solved, ok.tolist())

    def solve(point):
        a, mean, std, price, cost, done, passed = point
        return done if passed else _solve(a, MomentSpec(mean, std), CostStructure(price, cost))

    return _until_error(solve, points)


# ---------------------------------------------------------------------------
# threshold scans
# ---------------------------------------------------------------------------


def _turn(grid: list[float], point: tuple) -> float | None:
    """Grid point at the smallest index j <= len-2 from which the quantities
    are non-increasing within 1e-12; None if there is none.  ``point`` is
    ``(alpha, mu, sigma, price, cost)`` with the grid in the axis slot, as a
    sweep builds it: the whole grid is solved and checked in one
    :func:`_solves` batch, and its first error is raised.  At alpha = 0 every
    quantity is 0, as in :func:`_solve`, and no point is solved."""
    if point[0] == 0.0:
        return grid[0] if len(grid) > 1 else None
    solved, error = _solves(*point)
    if error is not None:
        raise error
    qs = [q for q, _ in solved]
    j = len(qs) - 1
    while j > 0 and qs[j] <= qs[j - 1] + 1e-12:
        j -= 1
    return grid[j] if j <= len(qs) - 2 else None


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
    return None by convention (no comparison is possible).  ``p_grid`` obeys :func:`_grid`.

    The grid is validated first: its one price-wise error, the fractile
    (p - c)/p rounding to 1, is raised at the first such price.  Then every
    price is solved and checked in one batch, as a price sweep is, and the
    first bad price's error is raised.  At alpha = 0 every quantity is 0, the
    fractile is never read and no price is solved.
    """
    unit_cost = require_positive("c", c)
    grid = _grid("p_grid", p_grid)
    require(grid[0] > unit_cost, f"all grid prices must exceed c={c!r}")
    a = as_misspec_index(alpha)
    if a.alpha != 0.0:
        p = np.array(grid)
        rounded = np.flatnonzero(~((p - unit_cost) / p < 1.0))
        if rounded.size:  # never degenerate: kappa = 1 >= sigma^2/(mu^2 + sigma^2)
            raise _fractile_rounds_to_one(CostStructure(grid[rounded[0]], unit_cost))
    return _turn(grid, (a.alpha, m.mean, m.std, grid, unit_cost))


def variance_threshold_scan(
    alpha: AlphaLike,
    cost: CostStructure,
    mu: float,
    sigma_grid: Sequence[float],
) -> float | None:
    """Scan demand-std values for the point past which the optimal quantity
    stops increasing.  Scope: kappa >= 1/2 and the grid inside
    ``[0, mu*sqrt(kappa/(1-kappa))]`` (beyond it the model is degenerate),
    under :func:`_grid`.  Same tail convention as :func:`price_threshold_scan`;
    single-point grids return None (documented choice between the two
    conventions offered).  As there, the grid is validated first: a std's
    one error, ``mu^2 + s^2`` outside the range of :class:`MomentSpec`, is
    raised at the first such std, at any alpha.  Then every std is solved and
    checked in one batch, as a sigma sweep is, and the first bad std's error
    is raised; none is solved at alpha = 0.
    """
    kappa = cost.kappa
    require(kappa >= 0.5, f"scan requires kappa >= 1/2, got {kappa!r}")
    if not kappa < 1.0:
        raise _fractile_rounds_to_one(cost)
    mu = require_positive("mu", mu)
    grid = _grid("sigma_grid", sigma_grid)
    hi = mu * math.sqrt(kappa / (1.0 - kappa))
    require(
        grid[-1] <= hi + 1e-9,
        f"sigma_grid must stay within [0, {hi!r}] (non-degenerate region)",
    )
    a = as_misspec_index(alpha)
    sig = np.array(grid)
    with np.errstate(over="ignore"):
        second = mu * mu + sig * sig  # MomentSpec's second moment, bit for bit
    out = np.flatnonzero(~((_MIN_NORMAL <= second) & (second < math.inf)))
    if out.size:
        MomentSpec(mu, grid[out[0]])  # raises InputError
    return _turn(grid, (a.alpha, mu, grid, cost.price, cost.cost))
