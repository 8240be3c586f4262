"""Multi-product ordering under marginal means and a shared second-moment budget.

M products share one constraint: the sum of second moments of the marginal
demand laws may not exceed a budget K.  Dualizing that constraint decomposes
the problem into M single-product problems coupled by a single multiplier.
The implied-budget curve is piecewise smooth between per-product breakpoints,
so the optimal multiplier is found by a segment search plus bisection, and the
per-product quantities follow in closed form.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .oracle import (
    Moment,
    MomentConstraint,
    MomentConstraintSet,
    Relation,
    worst_case_expectation_oracle,
)
from .single_product import (
    AlphaLike,
    CostStructure,
    MisspecIndex,
    as_misspec_index,
    ell,
)
from .validation import (
    DegenerateModelError,
    InternalCheckError,
    require,
    require_finite,
    require_nonnegative,
    require_positive,
    _fsum_or_inf,
)

_BISECT_REL_TOL = 1e-10
# Halvings that bring any bracket to the relative width: a bracket spans at
# most 2^1024 (a finite breakpoint; an expanded one stays below 1e18 < 2^60),
# a root that a relative width can resolve is a normal float, at least
# 2^-1022, and 1e-10 of it takes 34 more halvings: 1024 + 1022 + 34 = 2080.
_MAX_BISECT_ITER = 2080
_ENVELOPE_BLOCK = 1 << 20  # intercepts held at once by dual_objective_curve


@dataclass(frozen=True)
class ProductSpec:
    """One product: unit price, unit cost, and marginal mean demand, with ``mean^2`` finite."""

    price: float
    cost: float
    mean: float

    def __post_init__(self):
        CostStructure(self.price, self.cost)  # validates 0 < cost < price
        mean = require_positive("mean", self.mean)
        require(math.isfinite(mean * mean), f"mean^2 must be finite, got {mean * mean!r}")

    @property
    def cost_structure(self) -> CostStructure:
        return CostStructure(self.price, self.cost)


@dataclass(frozen=True)
class PortfolioSpec:
    """A family of products plus the shared second-moment budget K."""

    products: tuple[ProductSpec, ...]
    budget: float
    alpha: MisspecIndex

    def __post_init__(self):
        products = tuple(self.products)
        require(len(products) > 0, "portfolio needs at least one product")
        for prod in products:
            require(
                isinstance(prod, ProductSpec),
                f"products must be ProductSpec, got {type(prod).__name__}",
            )
        object.__setattr__(self, "products", products)
        require_finite("budget", self.budget)
        require_nonnegative("budget", self.budget)
        object.__setattr__(self, "alpha", as_misspec_index(self.alpha))
        require(math.isfinite(self.mean_squares), "the squared means sum beyond the float range")

    @property
    def mean_squares(self) -> float:
        return _fsum_or_inf(p.mean * p.mean for p in self.products)


class ThetaForm(enum.Enum):
    """Which display of the implied-budget curve to evaluate.

    ENVELOPE carries the mean-square of each settled product in the second
    sum and is the form the solver trusts; PRINTED omits those mean-squares.
    Both ship because the validation suite demonstrates PRINTED breaks the
    single-product reduction (see tests).
    """

    PRINTED = "printed"
    ENVELOPE = "envelope"


class DualCase(enum.Enum):
    KINK = "kink"
    INTERIOR_ROOT = "interior_root"
    DEGENERATE_BUDGET = "degenerate_budget"


@dataclass(frozen=True)
class DualSolution:
    """Optimal multiplier, the segment that contains it, and the quantities."""

    lambda_star: float
    segment: int
    case: DualCase
    quantities: tuple[float, ...]
    breakpoints: tuple[float, ...]


def _alpha_for_portfolio(alpha: AlphaLike) -> MisspecIndex:
    a = as_misspec_index(alpha)
    if a.alpha == 0.0:
        raise DegenerateModelError(
            "alpha = 0 admits arbitrary misspecification; the portfolio dual "
            "is defined for alpha > 0 or the infinite index"
        )
    return a


def _breakpoint(prod: ProductSpec, a: MisspecIndex) -> float:
    """Per-product multiplier breakpoint c_i / (2 mu_i - p_i/alpha)^+."""
    denom = 2.0 * prod.mean - prod.price * a.inv
    return prod.cost / denom if denom > 0.0 else math.inf


def _order(
    products: Sequence[ProductSpec], alpha: AlphaLike
) -> tuple[MisspecIndex, list[float], list[ProductSpec]]:
    """The checked index, the ascending breakpoints with the 0 and +inf
    sentinels attached, and the products in that order (stable in product
    order, so equal breakpoints keep their input order)."""
    a = _alpha_for_portfolio(alpha)
    require(len(products) > 0, "need at least one product")
    pairs = sorted(((_breakpoint(prod, a), prod) for prod in products), key=lambda t: t[0])
    return a, [0.0] + [b for b, _ in pairs] + [math.inf], [prod for _, prod in pairs]


def lambda_breakpoints(
    products: Sequence[ProductSpec], alpha: AlphaLike
) -> list[float]:
    """Sorted multiplier breakpoints with the 0 and +inf sentinels attached."""
    return _order(products, alpha)[1]


def _theta(
    ordered: Sequence[ProductSpec], j: int, lam: float, inv: float, form: ThetaForm
) -> float:
    """theta on products already in breakpoint order, with no checks: the
    first j - 1 are settled, the rest active."""
    if j >= 2 and 4.0 * lam * lam == 0.0:
        return math.inf  # the settled term's lam -> 0 limit, also once 4 lam^2 underflows
    total = 0.0
    for prod in ordered[: j - 1]:
        # past the breakpoint; PRINTED drops the mean-square
        tail = (prod.price - prod.cost) * prod.cost / (4.0 * lam * lam)
        total += prod.mean * prod.mean + tail if form is ThetaForm.ENVELOPE else tail
    for prod in ordered[j - 1 :]:
        mu2 = prod.mean * prod.mean
        if math.isinf(lam):
            total += mu2
        else:
            p, c = prod.price, prod.cost
            den = p * lam * inv + c
            total += mu2 * (1.0 + c * (p - c) / (den * den))
    return total


def theta(
    j: int,
    lam: float,
    products: Sequence[ProductSpec],
    alpha: AlphaLike,
    form: ThetaForm = ThetaForm.ENVELOPE,
) -> float:
    """Implied total second moment on segment j of the breakpoint ordering.

    Products at sorted positions >= j contribute their active term, the rest
    the settled term.  Strictly decreasing in lam on each segment, which is
    what makes the bisection in solve_lambda safe.  With a nonempty settled
    sum, lam = 0 returns +inf, the lam -> 0 limit, and so does any lam whose
    4 lam^2 underflows to 0 (lam below about 1e-162).
    """
    a, _, ordered = _order(products, alpha)
    m = len(ordered)
    require(
        isinstance(j, int) and 1 <= j <= m + 1,
        f"segment index must lie in 1..{m + 1}, got {j!r}",
    )
    require_nonnegative("lam", lam, allow_inf=True)
    return _theta(ordered, j, lam, a.inv, form)


def product_quantities(
    lambda_star: float,
    products: Sequence[ProductSpec],
    alpha: AlphaLike,
) -> list[float]:
    """Closed-form per-product order quantities at a given multiplier.

    The infinite-index first branch uses (p - 2c)/(4 lambda): the printed
    ambiguity-only corollary says (p - c), but that contradicts the finite-
    index formula's limit and the single-product reduction, so the limit form
    is used (both branches then meet continuously at lambda = c/(2 mu)).

    No quantity is negative.  On the first finite branch, 2 mu - c/lambda >=
    p/alpha gives q >= mu/2 + (p - c)/(4 lambda) > 0, and every term of q is
    at most mu in size, so rounding cannot cross 0; likewise mu - p/(4 alpha)
    >= mu/2 on the first infinite-multiplier branch.  The other branches are
    quotients of positive terms, or 0 at lambda = 0.
    """
    a = _alpha_for_portfolio(alpha)
    require_nonnegative("lambda_star", lambda_star, allow_inf=True)
    return [_single_quantity(lambda_star, prod, a) for prod in products]


def _single_quantity(lam: float, prod: ProductSpec, a: MisspecIndex) -> float:
    p, c, mu = prod.price, prod.cost, prod.mean
    pinv = p * a.inv
    if lam == 0.0:
        return 0.0
    if math.isinf(lam):
        # all-variance-forbidden limit: order for the point mass at the mean
        if 2.0 * mu >= pinv:
            return mu - 0.25 * pinv
        return mu * mu / pinv
    if 2.0 * mu - c / lam >= pinv:
        return mu + (p - 2.0 * c) / (4.0 * lam) - 0.25 * pinv
    den = p * lam * a.inv + c
    return lam * mu * mu * (1.0 + (p - c) / den) / den


def solve_lambda(
    portfolio: PortfolioSpec, form: ThetaForm = ThetaForm.ENVELOPE
) -> DualSolution:
    """Locate the optimal budget multiplier and the product quantities.

    Finds the first segment whose implied second moment drops below the
    budget; the multiplier is the segment's left kink when the budget is
    already slack there, otherwise the unique root of theta = K on the
    segment (bisection to 1e-10 relative, expanding the bracket geometrically
    when the segment is unbounded).

    A budget at or below the sum of squared means leaves no room for any
    variance: the moment family degenerates (or empties), reported as a
    DEGENERATE_BUDGET solution with the infinite-multiplier limit quantities
    and a diagnostic warning rather than an error.
    """
    a, brk, ordered = _order(portfolio.products, portfolio.alpha)
    inv, k, m = a.inv, portfolio.budget, len(ordered)
    if k <= portfolio.mean_squares:
        warnings.warn(
            f"budget K={k!r} does not exceed the sum of squared means "
            f"{portfolio.mean_squares!r}; only (sub)degenerate moment laws "
            "remain, reporting the infinite-multiplier limit",
            stacklevel=2,
        )
        lam, i_star, case = math.inf, m + 1, DualCase.DEGENERATE_BUDGET
    else:
        i_star = next(
            (j for j in range(1, m + 2) if _theta(ordered, j, brk[j], inv, form) < k),
            None,
        )
        if i_star is None:
            raise InternalCheckError(
                "no segment admits the budget although K exceeds the sum of "
                "squared means; the implied-moment curve is inconsistent"
            )
        lo = brk[i_star - 1]
        if _theta(ordered, i_star, lo, inv, form) <= k:
            lam, case = lo, DualCase.KINK
        else:
            hi = brk[i_star]
            if math.isinf(hi):
                hi = max(1.0, 2.0 * lo)
                while _theta(ordered, i_star, hi, inv, form) >= k:
                    hi *= 2.0
                    if hi > 1e18:
                        raise InternalCheckError(
                            "bracket expansion failed to cross the budget"
                        )
            for _ in range(_MAX_BISECT_ITER):
                mid = 0.5 * (lo + hi)
                if _theta(ordered, i_star, mid, inv, form) >= k:
                    lo = mid
                else:
                    hi = mid
                if hi - lo <= _BISECT_REL_TOL * hi:
                    break
            else:
                raise InternalCheckError(
                    f"multiplier bisection did not converge: bracket [{lo!r}, {hi!r}]"
                )
            lam, case = 0.5 * (lo + hi), DualCase.INTERIOR_ROOT
        if not brk[i_star - 1] <= lam <= brk[i_star]:
            raise InternalCheckError(
                f"multiplier {lam!r} escaped its segment "
                f"[{brk[i_star - 1]!r}, {brk[i_star]!r}]"
            )
    quantities = product_quantities(lam, portfolio.products, a)
    return DualSolution(lam, i_star, case, tuple(quantities), tuple(brk))


# ---------------------------------------------------------------------------
# dual-objective validation oracle
# ---------------------------------------------------------------------------


def _validated_grid(grid) -> np.ndarray:
    v = np.asarray(grid, dtype=float)
    require(v.ndim == 1 and v.size >= 2, "grid must be 1-D with >= 2 points")
    require(bool(np.all(np.isfinite(v))), "grid must be finite")
    require(bool(np.all(np.diff(v) > 0)), "grid must be strictly increasing")
    require(v[0] >= 0.0, "grid must be nonnegative")
    return v


def dual_objective(lam: float, portfolio: PortfolioSpec, grid) -> float:
    """Brute-force value of the dualized problem at one multiplier.

    -lam*K plus, for each product, the best order quantity on the grid
    against the worst mean-constrained law on the grid, with the
    second-moment penalty lam * v^2 added to the transformed profit.  Used
    exclusively to validate solve_lambda; the closed forms never call this.
    """
    require_finite("lam", lam)
    require_nonnegative("lam", lam)
    v = _validated_grid(grid)
    a = portfolio.alpha
    total = -lam * portfolio.budget
    for prod in portfolio.products:
        cs = MomentConstraintSet(
            grid=v,
            constraints=(MomentConstraint(Moment.MEAN, Relation.EQ, prod.mean),),
        )
        cost = prod.cost_structure
        best = -math.inf
        for q in v:
            res = worst_case_expectation_oracle(
                lambda u, q=q: ell(a, float(q), u, cost) + lam * u * u, cs
            )
            if res.value > best:
                best = res.value
        total += best
    return total


def dual_objective_curve(lambdas, portfolio: PortfolioSpec, grid) -> np.ndarray:
    """dual_objective swept over a sorted multiplier grid in one pass.

    The inner minimum over mean-constrained grid laws is attained by a
    singleton or a two-point law bracketing the mean, and the second-moment
    chord of each such law does not depend on the multiplier.  Every
    candidate law therefore traces a straight line in the multiplier, and the
    sweep reduces to lower envelopes of line families - one per (product,
    quantity) - evaluated on the sorted grid.  Agrees with dual_objective
    pointwise; exists because a 10^4-point sweep through the oracle would be
    hopeless.

    All quantity rows of a product share the slopes (the chords), so the
    slope order is found once per product.  Before the hull, a line is
    dropped when a line of smaller or equal slope matches or beats it at the
    smallest multiplier lam0 = lambdas[0]: for every lam >= lam0 the dropped
    line stays at or above that line, so the envelope on the swept range
    cannot change.  Typically a few dozen of several thousand lines survive.
    """
    lams = np.asarray(lambdas, dtype=float)
    require(lams.ndim == 1 and lams.size >= 1, "lambdas must be 1-D, nonempty")
    require(bool(np.all(np.isfinite(lams))), "lambdas must be finite")
    require(bool(np.all(lams >= 0.0)), "lambdas must be nonnegative")
    require(bool(np.all(np.diff(lams) >= 0.0)), "lambdas must be sorted ascending")
    v = _validated_grid(grid)
    a = portfolio.alpha

    out = -lams * portfolio.budget
    for prod in portfolio.products:
        mu = prod.mean
        require(
            v[0] <= mu <= v[-1],
            f"grid does not bracket the mean {mu!r} of a product",
        )
        cost = prod.cost_structure
        ia = np.where(v <= mu)[0]
        ib = np.where(v >= mu)[0]
        va, vb = v[ia], v[ib]
        gap = vb[None, :] - va[:, None]
        with np.errstate(invalid="ignore", divide="ignore"):
            w = (vb[None, :] - mu) / gap
        singleton = gap == 0.0  # only where va == vb == mu
        w = np.where(singleton, 1.0, w)
        # second-moment chords: one slope per candidate law
        slopes = (w * (va * va)[:, None] + (1.0 - w) * (vb * vb)[None, :]).ravel()
        best = np.full(lams.size, -np.inf)
        step = max(1, _ENVELOPE_BLOCK // slopes.size)  # quantity rows per block
        for lo in range(0, v.size, step):
            rows = np.array([ell(a, float(q), v, cost) for q in v[lo : lo + step]])
            intercepts = w * rows[:, ia, None] + (1.0 - w) * rows[:, None, ib]
            env = _envelope_min(slopes, intercepts.reshape(len(rows), -1), lams)
            np.maximum(best, env.max(axis=0), out=best)
        out = out + best
    return out


def _envelope_min(slopes, intercepts, xs) -> np.ndarray:
    """Pointwise minimum of the lines b + m*x on ascending query points xs.

    ``intercepts`` is one line family (1-D, returns one row of values) or
    one family per row (2-D, returns one row per family), all sharing
    ``slopes``.
    """
    bs = np.atleast_2d(intercepts)
    order = np.argsort(-slopes, kind="stable")  # slope descending
    ms = slopes[order]
    starts = np.flatnonzero(np.r_[True, np.diff(ms) < 0.0])
    ms = ms[starts]
    bs = np.minimum.reduceat(bs[:, order], starts, axis=1)  # lowest per slope
    # a line that a later (flatter) line matches or beats at xs[0] stays at
    # or above it on all of xs
    at0 = bs + ms * xs[0]
    rest = np.minimum.accumulate(at0[:, :0:-1], axis=1)[:, ::-1]
    keep = np.ones(bs.shape, dtype=bool)
    keep[:, :-1] = at0[:, :-1] < rest
    env = np.empty((bs.shape[0], xs.size))
    for r in range(bs.shape[0]):
        env[r] = _chain(ms[keep[r]].tolist(), bs[r, keep[r]].tolist(), xs)
    return env if np.ndim(intercepts) == 2 else env[0]


def _chain(ms: list[float], bs: list[float], xs) -> np.ndarray:
    """Lower envelope of lines with strictly descending slopes, at xs."""
    hull_m: list[float] = []
    hull_b: list[float] = []
    cuts: list[float] = []  # x past which the next hull line takes over
    for m, b in zip(ms, bs):
        while hull_m:
            x = (b - hull_b[-1]) / (hull_m[-1] - m)  # hull_m[-1] > m
            if cuts and x <= cuts[-1]:
                hull_m.pop()
                hull_b.pop()
                cuts.pop()
                continue
            cuts.append(x)
            break
        hull_m.append(m)
        hull_b.append(b)
    idx = np.searchsorted(np.asarray(cuts), xs, side="left")
    hm = np.asarray(hull_m)
    hb = np.asarray(hull_b)
    return hb[idx] + hm[idx] * xs
