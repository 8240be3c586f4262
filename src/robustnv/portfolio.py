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
)

_BISECT_REL_TOL = 1e-10
_MAX_BISECT_ITER = 300


@dataclass(frozen=True)
class ProductSpec:
    """One product: unit price, unit cost, and marginal mean demand."""

    price: float
    cost: float
    mean: float

    def __post_init__(self):
        CostStructure(self.price, self.cost)  # validates 0 < cost < price
        require_positive("mean", self.mean)

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

    @property
    def mean_squares(self) -> float:
        return math.fsum(p.mean * p.mean for p in self.products)


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


def _sorted_breakpoints(
    products: Sequence[ProductSpec], a: MisspecIndex
) -> list[tuple[float, int]]:
    """(breakpoint, product index) pairs, ascending, stable in product order."""
    pairs = [(_breakpoint(prod, a), idx) for idx, prod in enumerate(products)]
    pairs.sort(key=lambda t: t[0])  # Python sort is stable
    return pairs


def lambda_breakpoints(
    products: Sequence[ProductSpec], alpha: AlphaLike
) -> list[float]:
    """Sorted multiplier breakpoints with the 0 and +inf sentinels attached."""
    a = _alpha_for_portfolio(alpha)
    require(len(products) > 0, "need at least one product")
    inner = [value for value, _ in _sorted_breakpoints(products, a)]
    return [0.0] + inner + [math.inf]


def _active_term(prod: ProductSpec, a: MisspecIndex, lam: float) -> float:
    # implied second moment of a product whose breakpoint is not yet reached
    mu2 = prod.mean * prod.mean
    if math.isinf(lam):
        return mu2
    p, c = prod.price, prod.cost
    den = p * lam * a.inv + c
    return mu2 * (1.0 + c * (p - c) / (den * den))


def _settled_term(prod: ProductSpec, lam: float, form: ThetaForm) -> float:
    # implied second moment past the breakpoint; PRINTED drops the mean-square
    tail = (prod.price - prod.cost) * prod.cost / (4.0 * lam * lam)
    if form is ThetaForm.ENVELOPE:
        return prod.mean * prod.mean + tail
    return tail


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
    what makes the bisection in solve_lambda safe.  lam = 0 with a nonempty
    settled sum returns +inf.
    """
    a = _alpha_for_portfolio(alpha)
    require(len(products) > 0, "need at least one product")
    m = len(products)
    require(
        isinstance(j, int) and 1 <= j <= m + 1,
        f"segment index must lie in 1..{m + 1}, got {j!r}",
    )
    require_nonnegative("lam", lam, allow_inf=True)
    if lam == 0.0 and j >= 2:
        return math.inf
    pairs = _sorted_breakpoints(products, a)
    total = 0.0
    for position, (_, idx) in enumerate(pairs, start=1):
        prod = products[idx]
        if position >= j:
            total += _active_term(prod, a, lam)
        else:
            total += _settled_term(prod, lam, form)
    return total


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
    """
    a = _alpha_for_portfolio(alpha)
    require_nonnegative("lambda_star", lambda_star, allow_inf=True)
    out: list[float] = []
    for prod in products:
        q = _single_quantity(lambda_star, prod, a)
        if q < 0.0:
            warnings.warn(
                f"clamping negative quantity {q!r} to 0 for product "
                f"(p={prod.price}, c={prod.cost}, mu={prod.mean})",
                stacklevel=2,
            )
            q = 0.0
        out.append(q)
    return out


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
    a = portfolio.alpha
    products = portfolio.products
    k = portfolio.budget
    brk = lambda_breakpoints(products, a)
    if k <= portfolio.mean_squares:
        warnings.warn(
            f"budget K={k!r} does not exceed the sum of squared means "
            f"{portfolio.mean_squares!r}; only (sub)degenerate moment laws "
            "remain, reporting the infinite-multiplier limit",
            stacklevel=2,
        )
        quantities = product_quantities(math.inf, products, a)
        return DualSolution(
            lambda_star=math.inf,
            segment=len(products) + 1,
            case=DualCase.DEGENERATE_BUDGET,
            quantities=tuple(quantities),
            breakpoints=tuple(brk),
        )

    i_star = None
    for j in range(1, len(products) + 2):
        if theta(j, brk[j], products, a, form) < k:
            i_star = j
            break
    if i_star is None:
        raise InternalCheckError(
            "no segment admits the budget although K exceeds the sum of "
            "squared means; the implied-moment curve is inconsistent"
        )

    lo = brk[i_star - 1]
    if theta(i_star, lo, products, a, form) <= k:
        lam = lo
        case = DualCase.KINK
    else:
        hi = brk[i_star]
        if math.isinf(hi):
            hi = max(1.0, 2.0 * lo)
            while theta(i_star, hi, products, a, form) >= k:
                hi *= 2.0
                if hi > 1e18:
                    raise InternalCheckError(
                        "bracket expansion failed to cross the budget"
                    )
        for _ in range(_MAX_BISECT_ITER):
            mid = 0.5 * (lo + hi)
            if theta(i_star, mid, products, a, form) >= k:
                lo = mid
            else:
                hi = mid
            if hi - lo <= _BISECT_REL_TOL * max(1.0, hi):
                break
        lam = 0.5 * (lo + hi)
        case = DualCase.INTERIOR_ROOT

    if not brk[i_star - 1] <= lam <= brk[i_star]:
        raise InternalCheckError(
            f"multiplier {lam!r} escaped its segment "
            f"[{brk[i_star - 1]!r}, {brk[i_star]!r}]"
        )
    quantities = product_quantities(lam, products, a)
    return DualSolution(
        lambda_star=lam,
        segment=i_star,
        case=case,
        quantities=tuple(quantities),
        breakpoints=tuple(brk),
    )


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
        for q in v:
            row = ell(a, float(q), v, cost)
            intercepts = (
                w * row[ia][:, None] + (1.0 - w) * row[ib][None, :]
            ).ravel()
            np.maximum(best, _envelope_min(slopes, intercepts, lams), out=best)
        out = out + best
    return out


def _envelope_min(slopes, intercepts, xs) -> np.ndarray:
    """Pointwise minimum of the lines b + m*x on ascending query points xs."""
    order = np.lexsort((intercepts, -slopes))  # slope desc, intercept asc
    ms = slopes[order]
    bs = intercepts[order]
    keep = np.ones(ms.size, dtype=bool)
    keep[1:] = np.diff(ms) < 0.0  # first (lowest) intercept per slope wins
    ms, bs = ms[keep], bs[keep]
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
