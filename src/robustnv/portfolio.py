"""Multi-product ordering under marginal means and a shared second-moment budget.

M products share one constraint: the sum of second moments of the marginal
demand laws may not exceed a budget K.  Dualizing that constraint decomposes
the problem into M single-product problems coupled by a single multiplier.
The implied-budget curve is piecewise smooth between per-product breakpoints,
so the optimal multiplier is found by a segment search plus bisection, and the
per-product quantities follow in closed form.
"""

from __future__ import annotations

import bisect
import enum
import math
import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .oracle import (
    Moment,
    MomentConstraint,
    MomentConstraintSet,
    MomentLawFamily,
    Relation,
)
from .single_product import (
    AlphaLike,
    CostStructure,
    MisspecIndex,
    _ell_core,
    _floats,
    _grid,
    _nonzero_index,
    as_misspec_index,
)
from .validation import (
    InputError,
    InternalCheckError,
    require,
    require_nonnegative,
    require_positive,
    _BISECT_REL_TOL,
    _MAX_BISECT_ITER,
    _fsum_or_inf,
    _whole_number,
)

__all__ = [
    "ProductSpec",
    "PortfolioSpec",
    "DualCase",
    "DualSolution",
    "lambda_breakpoints",
    "theta",
    "solve_lambda",
    "product_quantities",
    "dual_objective",
    "dual_objective_curve",
]

_ENVELOPE_BLOCK = 1 << 20  # intercepts held at once by dual_objective_curve
_COARSE_STRIDE = 20  # every 20th quantity row gets its envelope before the others
_FLOAT_MAX = float(np.finfo(float).max)


@dataclass(frozen=True)
class ProductSpec:
    """One product: unit price, unit cost and mean demand, with mean^2 and (p - c) * c finite."""

    price: float
    cost: float
    mean: float
    #: the product's one CostStructure, which checks 0 < cost < price
    cost_structure: CostStructure = field(init=False, repr=False, compare=False)

    def __init__(self, price: float, cost: float, mean: float) -> None:
        cs = CostStructure(price, cost)
        mean = require_positive("mean", mean)
        if not math.isfinite(mean * mean):
            raise InputError(f"mean^2 must be finite, got {mean * mean!r}")
        margin = (cs.price - cs.cost) * cs.cost
        if not math.isfinite(margin):
            raise InputError(f"(price - cost) * cost must be finite, got {margin!r}")
        object.__setattr__(self, "price", cs.price)
        object.__setattr__(self, "cost", cs.cost)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cost_structure", cs)


def _products(products: Sequence[ProductSpec]) -> tuple[ProductSpec, ...]:
    """``products`` as a tuple of at least one ProductSpec, each checked."""
    products = tuple(products)
    require(len(products) > 0, "portfolio needs at least one product")
    for prod in products:
        if not isinstance(prod, ProductSpec):
            raise InputError(f"products must be ProductSpec, got {type(prod).__name__}")
    return products


@dataclass(frozen=True)
class PortfolioSpec:
    """A family of products plus the shared second-moment budget K."""

    products: tuple[ProductSpec, ...]
    budget: float
    alpha: MisspecIndex
    #: the fsum of the squared means, formed once here
    mean_squares: float = field(init=False, repr=False, compare=False)

    def __init__(self, products: Sequence[ProductSpec], budget: float, alpha: AlphaLike) -> None:
        object.__setattr__(self, "products", _products(products))
        object.__setattr__(self, "budget", require_nonnegative("budget", budget))
        object.__setattr__(self, "alpha", as_misspec_index(alpha))
        squares = _fsum_or_inf(p.mean * p.mean for p in self.products)
        require(math.isfinite(squares), "the squared means sum beyond the float range")
        object.__setattr__(self, "mean_squares", squares)


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


def _breakpoint(prod: ProductSpec, a: MisspecIndex) -> float:
    """Per-product multiplier breakpoint c_i / (2 mu_i - p_i/alpha)^+."""
    denom = 2.0 * prod.mean - prod.price * a.inv
    return prod.cost / denom if denom > 0.0 else math.inf


_Terms = list[tuple[float, float, float, float]]  # (mu^2, p, c, (p - c) c) per product


def _order(
    products: Sequence[ProductSpec], alpha: AlphaLike
) -> tuple[MisspecIndex, list[float], _Terms]:
    """The checked index, the ascending breakpoints with the 0 and +inf
    sentinels attached, and the products' :func:`_theta` terms in that order
    (stable in product order, so equal breakpoints keep their input order)."""
    a = _nonzero_index(alpha)
    pairs = sorted(((_breakpoint(prod, a), prod) for prod in products), key=lambda t: t[0])
    terms = [
        (prod.mean * prod.mean, prod.price, prod.cost, (prod.price - prod.cost) * prod.cost)
        for _, prod in pairs
    ]
    return a, [0.0] + [b for b, _ in pairs] + [math.inf], terms


def lambda_breakpoints(
    products: Sequence[ProductSpec], alpha: AlphaLike
) -> list[float]:
    """Sorted multiplier breakpoints with the 0 and +inf sentinels attached."""
    a = _nonzero_index(alpha)
    return _order(_products(products), a)[1]


def _theta(terms: _Terms, j: int, lam: float, inv: float) -> float:
    """theta on the terms of :func:`_order`, with no checks: the first j - 1
    products are settled, the rest active."""
    lam4 = 4.0 * lam * lam
    if j >= 2 and lam4 == 0.0:
        return math.inf  # the settled term's lam -> 0 limit, also once 4 lam^2 underflows
    total = 0.0
    for mu2, _, _, margin in terms[: j - 1]:  # past the breakpoint
        total += mu2 + margin / lam4
    if math.isinf(lam):
        for mu2, _, _, _ in terms[j - 1 :]:
            total += mu2
        return total
    for mu2, p, c, margin in terms[j - 1 :]:
        den = p * lam * inv + c
        total += mu2 * (1.0 + margin / (den * den))
    return total


def theta(j: int, lam: float, products: Sequence[ProductSpec], alpha: AlphaLike) -> float:
    """Implied total second moment on segment j of the breakpoint ordering.

    Products at sorted positions >= j contribute their active term, the rest
    the settled term.  Strictly decreasing in lam on each segment, which is
    what makes the bisection in solve_lambda safe.  With a nonempty settled
    sum, lam = 0 returns +inf, the lam -> 0 limit, and so does any lam whose
    4 lam^2 underflows to 0 (lam below about 1e-162).

    A settled product contributes mu^2 + (p - c) c / (4 lam^2).  The paper's
    printed display of the curve omits the settled mean-squares mu^2, and so
    does not reduce to the single-product model: with one product it reaches
    the budget at the kink and parks the multiplier there, while this curve
    does not.  ``test_criterion_05_single_product_reduction`` checks both.
    """
    a = _nonzero_index(alpha)
    _, _, terms = _order(_products(products), a)
    m = len(terms)
    j = _whole_number("segment index", j, 1)
    require(j <= m + 1, f"segment index must lie in 1..{m + 1}, got {j!r}")
    lam = require_nonnegative("lam", lam, allow_inf=True)
    return _theta(terms, j, lam, a.inv)


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

    At lambda = inf, c/lambda and (p - 2c)/(4 lambda) are 0, so the first
    branch gives mu - p/(4 alpha), the order for the point mass at the mean.

    No quantity is negative.  On the first branch, 2 mu - c/lambda >=
    p/alpha gives q >= mu/2 + (p - c)/(4 lambda) > 0, and every term of q is
    at most mu in size, so rounding cannot cross 0.  The other branches are
    quotients of positive terms, or 0 at lambda = 0.
    """
    a = _nonzero_index(alpha)
    lambda_star = require_nonnegative("lambda_star", lambda_star, allow_inf=True)
    return [_single_quantity(lambda_star, prod, a) for prod in _products(products)]


def _single_quantity(lam: float, prod: ProductSpec, a: MisspecIndex) -> float:
    p, c, mu = prod.price, prod.cost, prod.mean
    pinv = p * a.inv
    if lam == 0.0:
        return 0.0
    if 2.0 * mu - c / lam >= pinv:
        return mu + (p - 2.0 * c) / (4.0 * lam) - 0.25 * pinv
    if math.isinf(lam):  # the limit mu^2 / (p/alpha) of the form below, there inf/inf
        return mu * mu / pinv
    den = p * lam * a.inv + c
    return lam * mu * mu * (1.0 + (p - c) / den) / den


def _first_segment(terms: _Terms, brk: list[float], inv: float, k: float) -> int | None:
    """The first j in 1..m+1 with ``theta(j, brk[j]) < k``, or None: what a
    scan over j finds, with O(log m) theta evaluations plus two one-term
    evaluations per j before it.

    From j to j + 1 the multiplier moves up from ``brk[j]`` to ``brk[j + 1]``
    and product j settles.  Each term of theta is non-increasing in the
    multiplier in floats, and so is their sum in a fixed order, so
    theta(j + 1, brk[j + 1]) <= theta(j, brk[j]) unless product j's settled
    term at ``brk[j + 1]`` exceeds its active term at ``brk[j]`` (the two
    agree at its breakpoint only up to rounding: where breakpoints tie or
    nearly tie).  Such a j ends a run on which the values fall.  Bisection
    over all j finds a j below k whose j - 1 is not; the first j below k is
    in an earlier run only if that run's last value is below k, and then
    bisection within the run finds it.
    """
    m = len(terms)

    def below(j: int) -> bool:
        return _theta(terms, j, brk[j], inv) < k

    def first(lo: int, hi: int) -> int:  # the first j in lo..hi below k, on a falling run
        return lo + bisect.bisect_left(range(lo, hi + 1), True, key=below)

    j = first(1, m + 1)
    start = 1
    for i in range(1, j - 1):
        one = terms[i - 1 : i]
        if _theta(one, 2, brk[i + 1], inv) > _theta(one, 1, brk[i], inv):
            if below(i):
                return first(start, i)
            start = i + 1
    return j if j <= m + 1 else None


def solve_lambda(portfolio: PortfolioSpec) -> DualSolution:
    """Locate the optimal budget multiplier and the product quantities.

    Finds the first segment whose implied second moment drops below the
    budget (:func:`_first_segment`); the multiplier is the segment's left
    kink when the budget is already slack there, otherwise the unique root
    of theta = K on the segment (bisection to 1e-10 relative).  On an
    unbounded segment the bracket doubles from max(1, 2 * left end) until
    theta drops below K; it crosses K before the float range ends, where
    theta's variance terms round away to the limit form's sum, so a bracket
    that overflows means the two forms disagree and raises InternalCheckError.

    A budget at or below the sum of squared means leaves no room for any
    variance: the moment family degenerates (or empties), reported as a
    DEGENERATE_BUDGET solution with the infinite-multiplier limit quantities
    and a diagnostic warning rather than an error.  "The sum" is both
    ``PortfolioSpec.mean_squares`` (an fsum) and the sum theta forms: theta
    at the infinite multiplier adds the squared means one by one in
    breakpoint order, which can round above the fsum, so a budget that no
    segment's theta drops below is degenerate too.
    """
    a, brk, terms = _order(portfolio.products, portfolio.alpha)
    inv, k, m = a.inv, portfolio.budget, len(terms)
    i_star = None
    if k > portfolio.mean_squares:
        i_star = _first_segment(terms, brk, inv, k)
    if i_star is None:
        squares = portfolio.mean_squares
        if k > squares:
            # the sum as theta forms it; the bisection read it as not below K
            squares = _theta(terms, m + 1, math.inf, inv)
            if not squares >= k:
                raise InternalCheckError(
                    f"theta at the infinite multiplier is {squares!r}, "
                    f"yet no segment admits the budget K={k!r}"
                )
        warnings.warn(
            f"budget K={k!r} does not exceed the sum of squared means {squares!r}; only "
            "(sub)degenerate moment laws remain, reporting the infinite-multiplier limit",
            stacklevel=2,
        )
        lam, i_star, case = math.inf, m + 1, DualCase.DEGENERATE_BUDGET
    else:
        lo = brk[i_star - 1]
        if _theta(terms, i_star, lo, inv) <= k:
            lam, case = lo, DualCase.KINK
        else:
            hi = brk[i_star]
            if math.isinf(hi):
                hi = max(1.0, 2.0 * lo)
                while math.isfinite(hi) and _theta(terms, i_star, hi, inv) >= k:
                    hi *= 2.0
                if math.isinf(hi):
                    raise InternalCheckError(
                        "bracket expansion overflowed before crossing the budget: "
                        "the finite and the limit forms of theta disagree"
                    )
            for _ in range(_MAX_BISECT_ITER):
                mid = 0.5 * (lo + hi)
                if _theta(terms, i_star, mid, inv) >= k:
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
    quantities = tuple(_single_quantity(lam, prod, a) for prod in portfolio.products)
    return DualSolution(lam, i_star, case, quantities, tuple(brk))


# ---------------------------------------------------------------------------
# dual-objective validation oracle
# ---------------------------------------------------------------------------


def _validated_grid(grid) -> np.ndarray:
    """``grid`` under :func:`_grid`, with >= 2 points."""
    v = _grid("grid", grid)
    require(len(v) >= 2, "grid must have >= 2 points")
    return np.array(v)


def _dual_laws(portfolio: PortfolioSpec, grid) -> tuple[np.ndarray, MisspecIndex, list]:
    """Both duals' front, checked in turn: the grid, the index, one mean law family per product."""
    v, a = _validated_grid(grid), _nonzero_index(portfolio.alpha)
    means = (MomentConstraint(Moment.MEAN, Relation.EQ, prod.mean) for prod in portfolio.products)
    return v, a, [MomentLawFamily(MomentConstraintSet(v, (mean,))) for mean in means]


def dual_objective(lam: float, portfolio: PortfolioSpec, grid) -> float:
    """Brute-force value of the dualized problem at one multiplier.

    -lam*K plus, for each product, the best order quantity on the grid
    against the worst mean-constrained law on the grid, with the
    second-moment penalty lam * v^2 added to the transformed profit.  Used
    exclusively to validate solve_lambda; the closed forms never call this.
    ``grid`` obeys :func:`_grid`, with >= 2 points.

    Each product's mean-constrained grid laws form one :class:`MomentLawFamily`,
    which scores ``ell(q, v) + lam * v^2`` in one matrix, a row per grid
    quantity q; the product's term is the largest row minimum.  The checks
    run in this order, the first failure raising: lam, then :func:`_dual_laws`'
    grid, index (alpha = 0 degenerates), pair cap and means inside the grid
    (:class:`InfeasibleError`), then each ``alpha/p`` and objective finite.
    """
    lam = require_nonnegative("lam", lam)
    v, a, families = _dual_laws(portfolio, grid)
    total = -lam * portfolio.budget
    for prod, family in zip(portfolio.products, families):
        with np.errstate(over="ignore"):  # an overflow is an objective that is not finite
            rows = _ell_core(a, v[:, None], v, prod.cost_structure) + lam * v * v
        total += float(family._min_values(rows).max())
    return total


def dual_objective_curve(lambdas, portfolio: PortfolioSpec, grid) -> np.ndarray:
    """dual_objective swept over a sorted multiplier grid in one pass.

    Its laws are dual_objective's: the singletons and two-point laws of each
    product's mean-constrained :class:`MomentLawFamily` (:func:`_dual_laws`).
    A law's second moment, its chord, does not depend on the multiplier, so
    every law traces a straight line in the multiplier, and the sweep
    reduces to lower envelopes of line families - one row per (product,
    quantity) - evaluated on the sorted grid, and per product to their
    maximum over the quantities.  Agrees with dual_objective pointwise;
    exists because a 10^4-point sweep through the oracle would be hopeless.
    ``lambdas`` must be numbers, finite, >= 0 and ascending; the grid, the
    index and the means are then checked as in :func:`dual_objective`.

    In the row of quantity q, the line of a law with weights (w, 1 - w) on
    (va, vb) has slope m, the law's chord, and intercept
    b = w*ell(q, va) + (1 - w)*ell(q, vb).  Off the family's 1e-8 tolerance
    around grid points these are the laws on va <= mu <= vb bit for bit: its
    w = (mu - vb)/(va - vb) is (vb - mu)/(vb - va), rounding being
    sign-symmetric (a zero's sign aside, which no sum keeps: ell is never
    -0.0), it stores 1 - w, and a singleton is (1, 0) on one point.  All rows
    of a product share the slopes, so the laws are put in slope order once
    (the envelope keeps the lowest line of a slope, whatever the law order)
    and every row's intercepts are built in it.  Before the hull
    :func:`_envelope_min` drops a line when a line of smaller or equal slope
    matches or beats it at lam0 = lambdas[0]; :func:`_chain` then takes the
    hulls of all the rows of a call at once, in rounds.  On certify seed 1's
    curves the filter leaves about 48 of a row's 1,000 to 3,900 lines (about
    132 on the 2,670 of 11,778 rows that get an envelope below), their hulls
    keep about 35, and a call drops lines in about 21 rounds (at most 29).

    Few rows reach the maximum, and a row that provably stays below it gets
    no envelope:

    1. Coarse rows get their envelopes first: every 20th from the 10th
       (sparser where their envelopes would hold more than
       ``_ENVELOPE_BLOCK`` values), since at q = 0 every law scores 0 and
       that row rarely nears the maximum.  Their maximum is the floor.
    2. The probe laws are those lowest on some coarse row at lam0, at the
       middle multiplier or at the largest.  A row's envelope lies on or
       below each of the row's lines, so the minimum U of the row's probe
       lines, formed with the same expressions as the full intercepts,
       bounds the row from above, up to rounding.
    3. A row is skipped when U < floor - margin at every multiplier.  The
       other rows get their envelopes, and all rows with an envelope are
       folded with ``np.maximum`` in row order.

    The margin covers that rounding.  Let u = 2^-53, n the number of lines,
    and V = max|ell(q, .)| + max(m) * lambdas[-1], which bounds the row's
    line values.  The envelope's value at lam is the computed value of one
    of the row's lines; it exceeds the smallest computed line value at lam
    by at most delta:

    * a computed line value b + m*lam lies within 2uV of the exact one;
    * a line that the lam0 filter drops lies at most 4uV below the line
      that drops it, at every lam >= lam0;
    * each cut of :func:`_chain`'s rounds, and of the one-line-at-a-time
      chain it falls back to, is one subtraction and one division of
      differences, so it lands within 3u|x| of the exact crossing x of its
      two lines; near x the lines differ by at most 3u|b1 - b2| <= 6uV, and
      a line dropped on such a cut loses at most that much.  Each of the n
      lines is dropped at most once, in one round.

    So delta <= (6n + 16)uV to first order, and the margin 1e-12 (n + 1) V
    is more than 500 times that.  Forming floor - margin rounds by at most
    u|floor|; that is below the rest of the margin while |floor| <= 2V, and
    beyond it no row's values come near the floor.  Where 4V overflows no
    row is skipped.

    A skipped row therefore lies strictly below the floor at every
    multiplier, and the floor is the maximum of rows that are folded.
    ``np.maximum`` keeps one of two equal values by their position, never a
    strictly smaller value, so folding only the rows with an envelope, in
    row order, picks the same row at every multiplier as folding all of
    them: every output bit, signed zeros included, is what the full fold
    gives.
    """
    lams = np.array(_floats(lambdas, "lambdas"))
    require(lams.size >= 1, "lambdas must be nonempty")
    require(bool(np.all(np.isfinite(lams))), "lambdas must be finite")
    require(bool(np.all(lams >= 0.0)), "lambdas must be nonnegative")
    require(bool(np.all(np.diff(lams) >= 0.0)), "lambdas must be sorted ascending")
    v, a, families = _dual_laws(portfolio, grid)
    out = -lams * portfolio.budget
    for prod, family in zip(portfolio.products, families):
        out = out + _product_curve(a, prod.cost_structure, family, v, lams)
    return out


def _product_curve(a: MisspecIndex, cost: CostStructure, family, v, lams) -> np.ndarray:
    """One product's maximum over the quantity rows of their envelopes, for
    :func:`dual_objective_curve`, which states how rows are skipped; the
    quantities are points of the checked grid ``v``, the laws the pairs of
    the mean-constrained ``family`` (its third atom is a pad of weight 0)."""
    idx, wgt = family.atom_indices[:, :2], family.atom_weights[:, :2]
    # second-moment chords: one slope per law, laws in descending slope
    # order, each with its two weights and its two grid points
    chords = wgt[:, 0] * (v * v)[idx[:, 0]] + wgt[:, 1] * (v * v)[idx[:, 1]]
    order = np.argsort(-chords, kind="stable")
    slopes, law_w, law_i = chords[order], wgt[order], idx[order]
    n_rows, n_lams = v.size, lams.size

    def mix(rows, laws=slice(None)):  # the laws' intercepts, a row per row of ell values
        return law_w[laws, 0] * rows[:, law_i[laws, 0]] + law_w[laws, 1] * rows[:, law_i[laws, 1]]

    def intercepts(qs):  # one row of intercepts per quantity
        return mix(_ell_core(a, v[qs, None], v, cost))

    step = max(1, _ENVELOPE_BLOCK // slopes.size)  # quantity rows per block
    stride = max(_COARSE_STRIDE, -(-n_rows * n_lams // _ENVELOPE_BLOCK))
    coarse = np.arange(min(stride, n_rows) // 2, n_rows, stride)
    env_coarse = np.empty((coarse.size, n_lams))
    lowest = []  # the probe laws
    for lo in range(0, coarse.size, step):
        b = intercepts(coarse[lo : lo + step])
        env_coarse[lo : lo + step] = _envelope_min(slopes, b, lams)
        lowest += [np.argmin(b + slopes * x, axis=1) for x in lams[[0, n_lams // 2, -1]]]
    floor = env_coarse.max(axis=0)

    laws = np.unique(np.concatenate(lowest))
    lines = slopes[laws, None] * lams
    scale = 1e-12 * (slopes.size + 1)  # the margin per unit of V
    top = slopes.max() * lams[-1]
    keep = np.zeros(n_rows, dtype=bool)
    keep[coarse] = True
    block = max(1, _ENVELOPE_BLOCK // lines.size)  # rows per block of probe values
    for lo in range(0, n_rows, block):
        rows = _ell_core(a, v[lo : lo + block, None], v, cost)
        b = mix(rows, laws)
        bound = b[:, 0, None] + lines[0]
        for t in range(1, laws.size):  # a running minimum over the probe laws
            np.minimum(bound, b[:, t, None] + lines[t], out=bound)
        size = np.abs(rows).max(axis=1) + top  # V per row
        below = np.all(bound < floor - (scale * size)[:, None], axis=1)
        keep[lo : lo + block] |= ~(below & (size <= _FLOAT_MAX / 4.0))

    best = np.full(n_lams, -np.inf)
    kept = np.flatnonzero(keep)
    for lo in range(0, kept.size, step):
        chunk = kept[lo : lo + step]
        env = np.empty((chunk.size, n_lams))
        fresh = chunk % stride != coarse[0]
        env[~fresh] = env_coarse[chunk[~fresh] // stride]
        if fresh.any():
            env[fresh] = _envelope_min(slopes, intercepts(chunk[fresh]), lams)
        np.maximum(best, env.max(axis=0), out=best)
    return best


def _envelope_min(slopes, intercepts, xs) -> np.ndarray:
    """Pointwise minimum of the lines b + m*x on ascending query points xs.

    ``intercepts`` is one line family (1-D, returns one row of values) or
    one family per row (2-D, returns one row per family), all sharing
    ``slopes``.
    """
    ms, bs = slopes, np.atleast_2d(intercepts)
    if not np.all(ms[1:] <= ms[:-1]):  # to slope descending
        order = np.argsort(-ms, kind="stable")
        ms, bs = ms[order], bs[:, order]
    if not np.all(ms[1:] < ms[:-1]):
        starts = np.flatnonzero(np.r_[True, np.diff(ms) < 0.0])
        ms = ms[starts]
        bs = np.minimum.reduceat(bs, starts, axis=1)  # lowest per slope
    # a line that a later (flatter) line matches or beats at xs[0] stays at
    # or above it on all of xs
    at0 = bs + ms * xs[0]
    rest = np.minimum.accumulate(at0[:, :0:-1], axis=1)[:, ::-1]
    keep = np.ones(bs.shape, dtype=bool)
    keep[:, :-1] = at0[:, :-1] < rest
    flat = np.flatnonzero(keep)  # the flattest line always survives
    rows, cols = np.divmod(flat, ms.size)
    slots = np.arange(flat.size) + rows  # and a NaN line after each row parts the rows
    m, b = np.full((2, flat.size + len(bs)), np.nan)
    m[slots], b[slots] = ms[cols], bs.ravel()[flat]
    env = _chain(m, b, xs)
    return env if np.ndim(intercepts) == 2 else env[0]


def _chain(ms, bs, xs) -> np.ndarray:
    """Lower envelopes at xs of rows of lines laid end to end, each row's
    slopes finite and strictly descending and each row followed by a line of
    NaN slope.  No two lines of a row may meet at a NaN cut: the filter of
    :func:`_envelope_min` keeps at most one line of a row with intercept
    -inf and one with +inf, and drops a line with a NaN intercept, and every
    steeper one, unless it is the flattest.

    The monotone chain's pop test, run on all rows at once: a line goes when
    the cut past which its flatter neighbour undercuts it is at or before
    the cut past which it undercuts its steeper neighbour.  Rounds drop every
    such line until none is left; a cut next to a NaN line is NaN, so a
    row's first and last lines stay.  Where the one-line-at-a-time chain
    keeps the same lines it forms the same cuts and reads the same line at
    every x, so every output bit matches; the rows that :func:`_unsure_rows`
    cannot vouch for get that chain instead.
    """
    parts = np.isnan(ms)
    rows = np.cumsum(parts) - parts  # each line's row, a NaN line's the row it ends
    lines, at = (ms, bs, rows), np.arange(ms.size)  # at: the survivors' places in lines
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while True:
            cuts = (bs[1:] - bs[:-1]) / (ms[:-1] - ms[1:])  # x past which line i + 1 takes over
            pop = cuts[1:] <= cuts[:-1]
            if not pop.any():
                break
            kept = np.ones(ms.size, dtype=bool)
            kept[1:-1] = ~pop
            ms, bs, at = ms[kept], bs[kept], at[kept]
        unsure = _unsure_rows(lines, at, cuts)
    # The line in use at x in row r sits at the places before row r plus the
    # number of row r's cuts below x.  Counting each cut at the first x past
    # it, a running count over the rows gives both: an earlier row counts a
    # cut per place, the two NaN cuts beside its NaN line falling past every x.
    n_rows, n_xs = int(np.count_nonzero(parts)), xs.size
    passed = rows[at[:-1]] * (n_xs + 1) + np.searchsorted(xs, cuts, side="right")
    idx = np.cumsum(np.bincount(passed, minlength=n_rows * (n_xs + 1)))
    idx = idx.reshape(n_rows, n_xs + 1)[:, :-1]
    env = bs[idx] + ms[idx] * xs
    for r in unsure:
        row = rows == r  # the row's lines, then its NaN line
        env[r] = _sequential_chain(lines[0][row][:-1].tolist(), lines[1][row][:-1].tolist(), xs)
    return env


def _unsure_rows(lines, at, cuts) -> np.ndarray:
    """The rows of :func:`_chain`, ascending, in which a line that the rounds
    dropped takes over from the kept line before it short of the cut between
    the two kept lines around it, or gives way to the kept line after it
    past that cut; ``at`` holds the kept lines' places in ``lines`` and
    ``cuts`` the cuts between them.

    In the other rows the one-line-at-a-time chain keeps just the rounds'
    lines, since its cuts are the same floats.  Say it holds the kept lines
    up to h, whose cut is c, and the next kept line h' takes over from h at
    c' > c.  A line between them takes over from h at or past c', too late
    to pop h (that takes a cut at or before c), so the ones the chain keeps
    sit on cuts at or past c'.  h' takes over from each of them at or before
    c', so it pops them all, and from h at c' > c, so it stays on h.
    """
    ms, bs, rows = lines
    gone = np.ones(ms.size, dtype=bool)
    gone[at] = False
    j = np.flatnonzero(gone)
    k = np.searchsorted(at, j)  # the kept line after each dropped one
    before, after = at[k - 1], at[k]
    left = (bs[j] - bs[before]) / (ms[before] - ms[j])
    right = (bs[after] - bs[j]) / (ms[j] - ms[after])
    return np.unique(rows[j[~((left >= cuts[k - 1]) & (cuts[k - 1] >= right))]])


def _sequential_chain(ms: list[float], bs: list[float], xs) -> np.ndarray:
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
