"""Multi-product dual solver: breakpoints, theta curve, multiplier, quantities."""

import collections
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from robustnv import (
    DegenerateModelError,
    DualCase,
    InputError,
    InternalCheckError,
    MisspecIndex,
    MomentSpec,
    CostStructure,
    PortfolioSpec,
    ProductSpec,
    dual_objective,
    dual_objective_curve,
    ell,
    lambda_breakpoints,
    misspec_quantity,
    product_quantities,
    scarf_quantity,
    solve_lambda,
    theta,
)
from robustnv import portfolio
from robustnv.oracle import (
    Moment,
    MomentConstraint,
    MomentConstraintSet,
    Relation,
    worst_case_expectation_oracle,
)
from robustnv.portfolio import _envelope_min
from robustnv.validation import require_nonnegative

INF = MisspecIndex.INFINITY
P1 = ProductSpec(price=10.0, cost=3.0, mean=4.0)
LAMBDA_STAR = math.sqrt(21.0) / 4.0  # 1.1456439237389602


def random_product(rng):
    p = float(rng.uniform(2, 30))
    c = p * float(rng.uniform(0.1, 0.9))
    mu = float(rng.uniform(0.5, 10))
    return ProductSpec(price=p, cost=c, mean=mu)


def test_product_spec_validation():
    with pytest.raises(InputError):
        ProductSpec(price=3, cost=3, mean=1)
    with pytest.raises(InputError):
        ProductSpec(price=3, cost=1, mean=0)
    with pytest.raises(InputError):
        PortfolioSpec(products=(), budget=1.0, alpha=1.0)
    with pytest.raises(InputError):
        PortfolioSpec(products=(P1,), budget=-1.0, alpha=1.0)
    with pytest.raises(InputError, match="mean\\^2 must be finite"):
        ProductSpec(price=10, cost=3, mean=1e200)
    big = ProductSpec(price=10, cost=3, mean=1.3e154)  # its square is finite
    with pytest.raises(InputError, match="\\(price - cost\\) \\* cost must be finite"):
        ProductSpec(price=1e308, cost=5e307, mean=1.0)  # theta would read inf/inf
    with pytest.raises(InputError, match="squared means sum beyond"):
        PortfolioSpec(products=(big, big), budget=1.0, alpha=1.0)


def test_portfolio_spec_rejects_an_element_that_is_not_a_product():
    with pytest.raises(InputError, match="products must be ProductSpec, got tuple"):
        PortfolioSpec(products=(P1, (10.0, 3.0, 4.0)), budget=20.0, alpha=1.0)


# every public function that takes a product list, as call(products, alpha)
_PRODUCT_LIST_CALLS = [
    pytest.param(lambda products, alpha: theta(1, 0.5, products, alpha), id="theta"),
    pytest.param(lambda_breakpoints, id="lambda_breakpoints"),
    pytest.param(lambda products, alpha: product_quantities(0.5, products, alpha), id="product_quantities"),
]


@pytest.mark.parametrize("products", [[P1, None], []], ids=["not-a-product", "empty"])
@pytest.mark.parametrize("call", _PRODUCT_LIST_CALLS)
def test_every_product_list_is_checked_by_the_portfolio_rule(call, products):
    with pytest.raises(InputError) as want:
        PortfolioSpec(products, 20.0, 2.0)
    with pytest.raises(InputError) as got:
        call(products, 2.0)
    assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))
    with pytest.raises(DegenerateModelError):  # the index is checked first
        call(products, 0.0)


def test_breakpoints_examples():
    assert lambda_breakpoints([P1], 4.0) == pytest.approx([0.0, 6 / 11, math.inf])
    assert lambda_breakpoints([P1], INF) == pytest.approx([0.0, 0.375, math.inf])
    # nonpositive denominator falls to the 1/0 = inf convention
    tight = ProductSpec(price=10.0, cost=3.0, mean=1.0)  # 2mu - p/alpha = -0.5
    assert lambda_breakpoints([tight], 4.0)[1] == math.inf


def test_breakpoints_sorted_with_sentinels():
    rng = np.random.default_rng(11)
    for _ in range(20):
        products = [random_product(rng) for _ in range(int(rng.integers(1, 6)))]
        alpha = float(rng.uniform(0.2, 20))
        brk = lambda_breakpoints(products, alpha)
        assert brk[0] == 0.0 and brk[-1] == math.inf
        assert len(brk) == len(products) + 2
        assert all(b >= a for a, b in zip(brk, brk[1:]))


def test_breakpoints_reject_zero_alpha():
    with pytest.raises(DegenerateModelError):
        lambda_breakpoints([P1], 0.0)


def test_theta_frozen_examples():
    assert theta(2, LAMBDA_STAR, [P1], 4.0) == pytest.approx(20.0, abs=1e-12)
    assert theta(1, 1e-6, [P1], 4.0) == pytest.approx(10 * 16 / 3, abs=1e-3)
    assert theta(2, 0.0, [P1], 4.0) == math.inf


def test_theta_continuous_across_segment_boundary():
    # the active term equals the settled term at the breakpoint
    rng = np.random.default_rng(37)
    for _ in range(40):
        prod = random_product(rng)
        alpha = float(rng.uniform(0.2, 15))
        brk = lambda_breakpoints([prod], alpha)[1]
        if not math.isfinite(brk):
            continue
        lo = theta(1, brk, [prod], alpha)
        hi = theta(2, brk, [prod], alpha)
        assert lo == pytest.approx(hi, rel=1e-10)


def test_theta_strictly_decreasing():
    rng = np.random.default_rng(41)
    for _ in range(20):
        products = [random_product(rng) for _ in range(int(rng.integers(1, 4)))]
        alpha = float(rng.uniform(0.3, 12))
        j = int(rng.integers(1, len(products) + 2))
        lams = np.linspace(0.05, 6.0, 25)
        vals = [theta(j, float(l), products, alpha) for l in lams]
        assert all(b < a for a, b in zip(vals, vals[1:]))


def test_theta_limits():
    assert theta(2, math.inf, [P1], 4.0) == pytest.approx(16.0)
    assert theta(1, math.inf, [P1], 4.0) == pytest.approx(16.0)
    # infinite index: the active term is flat in the multiplier
    assert theta(1, 0.2, [P1], INF) == theta(1, 5.0, [P1], INF) == pytest.approx(
        10 * 16 / 3
    )


def test_settled_term_is_infinite_once_four_lambda_squared_underflows():
    # 4 lam^2 is 0 in floating point below lam ~ 1e-162: the lam -> 0 limit
    assert theta(2, 1e-170, [P1], 4.0) == math.inf
    assert theta(2, 1e-150, [P1], 4.0) == pytest.approx(16.0 + 21.0 / 4e-300)
    # the kink test at the breakpoint 5e-163 used to divide by zero
    big = ProductSpec(2e-12, 1e-12, 1e150)
    sol = solve_lambda(PortfolioSpec((big,), 1.5e300, INF))
    assert (sol.segment, sol.case) == (2, DualCase.INTERIOR_ROOT)
    assert sol.breakpoints[1] == 5e-163 < sol.lambda_star
    assert sol.quantities == (1e150,)


def test_solve_lambda_converges_on_a_root_far_below_the_bracket():
    # the unbounded segment's bracket starts at 1; the root, where 4 lam^2
    # stops underflowing (4 lam^2 > 2^-1075), lies near 2^-538.5 = 7.86e-163
    big = ProductSpec(2e-12, 1e-12, 1e150)
    pf = PortfolioSpec((big,), 1.5e300, INF)
    sol = solve_lambda(pf)
    root = 2.0 ** -538.5
    assert sol.case is DualCase.INTERIOR_ROOT
    assert abs(sol.lambda_star - root) <= 1e-10 * root
    lam, j = sol.lambda_star, sol.segment
    assert theta(j, lam * (1 - 1e-10), pf.products, INF) >= pf.budget
    assert theta(j, lam * (1 + 1e-10), pf.products, INF) <= pf.budget


def test_solve_lambda_raises_when_the_bisection_runs_out(monkeypatch):
    monkeypatch.setattr(portfolio, "_MAX_BISECT_ITER", 5)
    with pytest.raises(InternalCheckError, match="did not converge"):
        solve_lambda(PortfolioSpec(products=(P1,), budget=20.0, alpha=4.0))


def test_solve_lambda_canonical_instance():
    pf = PortfolioSpec(products=(P1,), budget=20.0, alpha=4.0)
    sol = solve_lambda(pf)
    assert sol.case is DualCase.INTERIOR_ROOT
    assert sol.segment == 2
    assert sol.lambda_star == pytest.approx(LAMBDA_STAR, abs=1e-8)
    assert sol.lambda_star == pytest.approx(1.145644, abs=5e-6)
    assert sol.quantities[0] == pytest.approx(4.247872, abs=5e-6)
    assert sol.breakpoints[0] == 0.0 and sol.breakpoints[-1] == math.inf
    assert sol.breakpoints[1] <= sol.lambda_star <= sol.breakpoints[2]


def test_solve_lambda_infinite_index_recovers_ambiguity_quantity():
    pf = PortfolioSpec(products=(P1,), budget=20.0, alpha=INF)
    sol = solve_lambda(pf)
    # sqrt(c(p-c))/(2 sigma) with sigma = 2
    assert sol.lambda_star == pytest.approx(LAMBDA_STAR, abs=1e-8)
    scarf = scarf_quantity(MomentSpec(4, 2), CostStructure(10, 3))
    assert sol.quantities[0] == pytest.approx(scarf.quantity, abs=1e-8)


def test_solve_lambda_monotone_in_budget():
    rng = np.random.default_rng(53)
    for _ in range(15):
        products = tuple(random_product(rng) for _ in range(int(rng.integers(1, 5))))
        alpha = float(rng.uniform(0.3, 12))
        base = sum(p.mean**2 for p in products)
        budgets = base * np.array([1.05, 1.2, 1.7, 3.0, 8.0])
        lams = [
            solve_lambda(PortfolioSpec(products, float(k), alpha)).lambda_star
            for k in budgets
        ]
        assert all(b <= a + 1e-9 for a, b in zip(lams, lams[1:]))


def test_solve_lambda_degenerate_budget():
    for budget in (16.0, 10.0, 0.0):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            sol = solve_lambda(PortfolioSpec((P1,), budget, 4.0))
        assert sol.case is DualCase.DEGENERATE_BUDGET
        assert sol.lambda_star == math.inf
        assert sol.quantities[0] == pytest.approx(4 - 10 / 16)  # mu - p/(4 alpha)
        assert len(caught) == 1
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sol_inf = solve_lambda(PortfolioSpec((P1,), 16.0, INF))
        assert sol_inf.quantities[0] == pytest.approx(4.0)
        # low alpha falls on the other limit branch: alpha mu^2 / p
        low = solve_lambda(PortfolioSpec((P1,), 16.0, 1.0))
        assert low.quantities[0] == pytest.approx(1.0 * 16.0 / 10.0)


def test_budget_within_rounding_above_the_squared_means_is_degenerate():
    # theta at lam = inf sums the squared means one by one in breakpoint
    # order, one ulp above their fsum: no segment's theta drops below K
    tiny = math.sqrt(0.6 * math.ulp(1.0))
    products = (ProductSpec(10, 3, 1.0), ProductSpec(10, 3, tiny), ProductSpec(10, 3, tiny))
    budget = math.nextafter(PortfolioSpec(products, 1.0, 4.0).mean_squares, math.inf)
    for alpha in (4.0, INF):
        pf = PortfolioSpec(products, budget, alpha)
        assert budget > pf.mean_squares
        assert theta(4, math.inf, products, alpha) == budget
        # the warning names the sum theta forms, which K does not exceed
        with pytest.warns(UserWarning, match=f"does not exceed the sum of squared means {budget!r};"):
            sol = solve_lambda(pf)
        assert (sol.lambda_star, sol.segment, sol.case) == (math.inf, 4, DualCase.DEGENERATE_BUDGET)
        assert sol.quantities == tuple(product_quantities(math.inf, products, alpha))


def test_unbounded_bracket_expands_past_1e18():
    prod = ProductSpec(10, 3, 1e-10)  # 2 mu < p/alpha: the breakpoint is +inf
    pf = PortfolioSpec((prod,), math.nextafter(1e-10 * 1e-10, math.inf), 2.5e10)
    sol = solve_lambda(pf)
    assert (sol.segment, sol.case) == (1, DualCase.INTERIOR_ROOT)
    lam = sol.lambda_star
    assert lam == pytest.approx(1.087e18, rel=1e-3)
    assert theta(1, lam * (1 - 1e-10), pf.products, pf.alpha) >= pf.budget
    assert theta(1, lam * (1 + 1e-10), pf.products, pf.alpha) < pf.budget


def test_bracket_that_leaves_the_float_range_is_an_internal_error(monkeypatch):
    # a curve that stays above K at every finite multiplier but not at +inf:
    # the finite and the limit forms of theta disagree
    monkeypatch.setattr(
        portfolio, "_theta", lambda terms, j, lam, inv: 0.0 if math.isinf(lam) else math.inf
    )
    pf = PortfolioSpec((ProductSpec(10, 3, 1.0),), 2.0, 1.0)  # breakpoint +inf
    with pytest.raises(InternalCheckError, match="bracket expansion overflowed"):
        solve_lambda(pf)


def test_nan_theta_at_the_infinite_multiplier_is_not_a_degenerate_budget(monkeypatch):
    monkeypatch.setattr(portfolio, "_theta", lambda terms, j, lam, inv: math.nan)
    pf = PortfolioSpec((ProductSpec(10, 3, 1.0),), 10.0, INF)
    with pytest.raises(InternalCheckError, match="theta at the infinite multiplier is nan"):
        solve_lambda(pf)


def _frozen_solve_lambda(pf):
    """``solve_lambda`` as it stood with the fsum-only degeneracy test and the
    1e18 bracket cap: (lambda*, segment, case, quantities), or the message of
    the InternalCheckError it raised."""
    a, brk, terms = portfolio._order(pf.products, pf.alpha)
    inv, k, m = a.inv, pf.budget, len(terms)
    if k <= pf.mean_squares:
        return math.inf, m + 1, DualCase.DEGENERATE_BUDGET, product_quantities(math.inf, pf.products, a)
    curve = portfolio._theta
    i_star = next((j for j in range(1, m + 2) if curve(terms, j, brk[j], inv) < k), None)
    if i_star is None:
        return "no segment admits the budget"
    lo = brk[i_star - 1]
    if curve(terms, i_star, lo, inv) <= k:
        lam, case = lo, DualCase.KINK
    else:
        hi = brk[i_star]
        if math.isinf(hi):
            hi = max(1.0, 2.0 * lo)
            while curve(terms, i_star, hi, inv) >= k:
                hi *= 2.0
                if hi > 1e18:
                    return "bracket expansion failed"
        for _ in range(2080):
            mid = 0.5 * (lo + hi)
            if curve(terms, i_star, mid, inv) >= k:
                lo = mid
            else:
                hi = mid
            if hi - lo <= 1e-10 * hi:
                break
        lam, case = 0.5 * (lo + hi), DualCase.INTERIOR_ROOT
    return lam, i_star, case, product_quantities(lam, pf.products, a)


def _adversarial_plans(seed, count):
    """1..300 products (log-uniform count) with means down to 1e-12, budgets
    at the fsum of squared means, one ulp or 1e-15 relative above it, or
    further."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        products = []
        for _ in range(max(1, round(300.0 ** rng.uniform()))):
            price = float(rng.uniform(2.0, 30.0))
            products.append(ProductSpec(price, price * float(rng.uniform(0.1, 0.9)), 10.0 ** float(rng.uniform(-12, 1))))
        alpha = INF if rng.uniform() < 0.3 else 10.0 ** float(rng.uniform(-1, 11))
        squares = math.fsum(p.mean * p.mean for p in products)
        r = rng.uniform()
        if r < 0.05:
            budget = squares
        elif r < 0.35:
            budget = math.nextafter(squares, math.inf)
        elif r < 0.6:
            budget = squares * (1.0 + 1e-15)
        else:
            budget = squares * (1.0 + 10.0 ** float(rng.uniform(-15, 1)))
        yield PortfolioSpec(tuple(products), budget, alpha)


def test_solve_lambda_matches_the_frozen_solver_and_never_raises_on_adversarial_plans():
    outcomes = collections.Counter()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for pf in _adversarial_plans(19_019, 1500):
            sol = solve_lambda(pf)  # raises nothing
            want = _frozen_solve_lambda(pf)
            if isinstance(want, str):
                outcomes[want, sol.case] += 1
                if sol.case is DualCase.INTERIOR_ROOT:
                    lam, j = sol.lambda_star, sol.segment
                    assert theta(j, lam * (1 - 1e-10), pf.products, pf.alpha) >= pf.budget
                    assert theta(j, lam * (1 + 1e-10), pf.products, pf.alpha) < pf.budget
                continue
            lam, seg, case, quantities = want
            assert (sol.segment, sol.case) == (seg, case)
            assert sol.lambda_star.hex() == lam.hex()
            assert [q.hex() for q in sol.quantities] == [q.hex() for q in quantities]
            outcomes["same", sol.case] += 1
    # each kind of plan this test is for occurs
    assert outcomes["no segment admits the budget", DualCase.DEGENERATE_BUDGET] > 20
    assert outcomes["bracket expansion failed", DualCase.INTERIOR_ROOT] > 2
    assert set(outcomes) <= {
        ("no segment admits the budget", DualCase.DEGENERATE_BUDGET),
        ("bracket expansion failed", DualCase.INTERIOR_ROOT),
        *(("same", case) for case in DualCase),
    }
    assert all(outcomes["same", case] > 20 for case in DualCase), outcomes


def _linear_scan(terms, brk, inv, k):
    """The segment search as it stood: a scan over j = 1, 2, ... for the
    first theta(j, brk[j]) below K."""
    return next((j for j in range(1, len(brk)) if portfolio._theta(terms, j, brk[j], inv) < k), None)


def _tied_breakpoint_plans(seed, count):
    """Plans whose breakpoints tie or nearly tie: 1..12 product specs, each
    repeated 1..5 times, every repeat equal to the last or with its cost one
    ulp away (breakpoints one ulp or so apart), a third of the specs with
    2 mu <= p/alpha (an infinite breakpoint).  The budget sits at one of the
    plan's breakpoint values theta(j, brk[j]), one ulp either side of it, or
    up to 1.5 times it.  Yields the plan and whether a breakpoint tie, a near
    tie and a rise of the breakpoint values occur in it."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        alpha = INF if rng.uniform() < 0.2 else 10.0 ** float(rng.uniform(-1, 3))
        products = []
        for _ in range(int(rng.integers(1, 13))):
            price = float(rng.uniform(2.0, 30.0))
            if rng.uniform() < 0.3 and alpha is not INF:
                mean = 0.5 * price / alpha * float(rng.uniform(0.1, 1.0))
            else:
                mean = 10.0 ** float(rng.uniform(-2, 2))
            cost = price * float(rng.uniform(0.1, 0.9))
            for _ in range(int(rng.integers(1, 6))):
                products.append(ProductSpec(price, cost, mean))
                if rng.uniform() < 0.5:
                    cost = math.nextafter(cost, math.inf if rng.uniform() < 0.5 else 0.0)
        a, brk, terms = portfolio._order(products, alpha)
        values = [portfolio._theta(terms, j, brk[j], a.inv) for j in range(1, len(brk))]
        finite = [v for v in values if math.isfinite(v)] or [1.0]
        budget = finite[int(rng.integers(len(finite)))]
        r = rng.uniform()
        if r < 0.3:
            budget = math.nextafter(budget, math.inf)
        elif r < 0.6:
            budget = math.nextafter(budget, 0.0)
        elif r < 0.8:
            budget *= float(rng.uniform(1.0, 1.5))
        gaps = list(zip(brk[1:-1], brk[2:]))
        kinds = {
            "tie": any(x == y for x, y in gaps),
            "near tie": any(x < y <= x * (1.0 + 1e-15) for x, y in gaps),
            "rise": any(x < y for x, y in zip(values, values[1:])),
        }
        yield PortfolioSpec(tuple(products), budget, alpha), kinds


def test_solve_lambda_bisection_finds_the_linear_scan_segment(monkeypatch):
    seen = collections.Counter()
    plans = []
    for pf, kinds in _tied_breakpoint_plans(26_026, 1500):
        plans.append(pf)
        seen.update(kind for kind, occurs in kinds.items() if occurs)
    plans += _adversarial_plans(19_019, 1500)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with monkeypatch.context() as patched:
            patched.setattr(portfolio, "_first_segment", _linear_scan)
            wants = [solve_lambda(pf) for pf in plans]
        for pf, want in zip(plans, wants):
            got = solve_lambda(pf)
            assert got == want and got.lambda_star.hex() == want.lambda_star.hex(), pf
            seen[got.case] += 1
    assert seen["tie"] > 500 and seen["near tie"] > 300 and seen["rise"] > 50, seen
    assert all(seen[case] > 100 for case in DualCase), seen


def test_single_product_reduction_random_sweep():
    # M = 1 with budget mu^2 + sigma^2 must reproduce the closed-form solver
    rng = np.random.default_rng(20240816)
    checked = 0
    while checked < 60:
        p = float(rng.uniform(2, 30))
        c = p * float(rng.uniform(0.1, 0.9))
        mu = float(rng.uniform(0.5, 10))
        sigma = float(rng.uniform(0.05, 0.95)) * mu
        cost = CostStructure(p, c)
        m = MomentSpec(mu, sigma)
        if cost.kappa < sigma**2 / m.second_moment:
            continue
        alpha = INF if checked % 5 == 0 else float(rng.uniform(0.05, 25))
        pf = PortfolioSpec(
            products=(ProductSpec(p, c, mu),),
            budget=m.second_moment,
            alpha=alpha,
        )
        sol = solve_lambda(pf)
        want = misspec_quantity(alpha, m, cost).quantity
        assert sol.quantities[0] == pytest.approx(want, abs=1e-6 * max(1.0, want))
        checked += 1


@pytest.mark.parametrize("s", [1e-2, 1e2, 1e3])
def test_solve_lambda_invariant_under_a_change_of_demand_units(s):
    # demand x s, price and cost x 1/s, alpha x 1/s^2 and budget x s^2 scale
    # the multiplier by 1/s^2 and the quantities by s; the bisection's
    # relative stopping width must not depend on the units
    rng = np.random.default_rng(59)
    for i in range(20):
        products = [random_product(rng) for _ in range(int(rng.integers(1, 5)))]
        alpha = math.inf if i % 4 == 0 else float(rng.uniform(0.3, 12))
        budget = sum(p.mean**2 for p in products) * float(rng.uniform(1.05, 3.0))
        base = solve_lambda(PortfolioSpec(tuple(products), budget, alpha))
        scaled = solve_lambda(
            PortfolioSpec(
                tuple(ProductSpec(p.price / s, p.cost / s, p.mean * s) for p in products),
                budget * s * s,
                alpha / (s * s),
            )
        )
        assert (scaled.segment, scaled.case) == (base.segment, base.case)
        assert scaled.lambda_star * s * s == pytest.approx(base.lambda_star, rel=1e-9)
        for q, q0 in zip(scaled.quantities, base.quantities):
            assert q / s == pytest.approx(q0, rel=1e-9)


@pytest.mark.parametrize("alpha", [1e-7, 1e-6, INF])
def test_single_product_reduction_at_a_small_price_and_a_large_mean(alpha):
    # the multiplier is about 1e-6 here, far below 1
    p, c, mu, sigma = 0.01, 0.003, 1e4, 3e3
    m = MomentSpec(mu, sigma)
    sol = solve_lambda(PortfolioSpec((ProductSpec(p, c, mu),), m.second_moment, alpha))
    want = misspec_quantity(alpha, m, CostStructure(p, c)).quantity
    assert sol.quantities[0] == pytest.approx(want, rel=1e-10)


def _per_call_solve_lambda(pf):
    """solve_lambda through public one-product theta calls at every step, over
    a breakpoint order this test sorts itself (stable: ties in input order).

    A one-product theta is exactly its settled (j = 2) or active (j = 1) term,
    so summing them in position order repeats the solver's sum bit for bit."""
    a, k, m = pf.alpha, pf.budget, len(pf.products)
    ranked = sorted(
        ((lambda_breakpoints([prod], a)[1], prod) for prod in pf.products),
        key=lambda t: t[0],
    )
    brk = [0.0] + [b for b, _ in ranked] + [math.inf]

    def implied(j, lam):
        total = 0.0
        for position, (_, prod) in enumerate(ranked, start=1):
            total += theta(2 if position < j else 1, lam, [prod], a)
        return total

    seg = next(j for j in range(1, m + 2) if implied(j, brk[j]) < k)
    lo, hi = brk[seg - 1], brk[seg]
    if implied(seg, lo) <= k:
        lam, case = lo, DualCase.KINK
    else:
        if math.isinf(hi):
            hi = max(1.0, 2.0 * lo)
            while implied(seg, hi) >= k:
                hi *= 2.0
        for _ in range(300):
            mid = 0.5 * (lo + hi)
            if implied(seg, mid) >= k:
                lo = mid
            else:
                hi = mid
            if hi - lo <= 1e-10 * hi:
                break
        lam, case = 0.5 * (lo + hi), DualCase.INTERIOR_ROOT
    return lam, seg, case, product_quantities(lam, pf.products, a), brk


def _tie_prone_portfolio(rng):
    """Products that often share a breakpoint: at alpha = inf it is c/(2 mu),
    so equal c/mu ties whatever the price, and at finite alpha 2 mu <= p/alpha
    makes the breakpoint +inf.  Tied products differ in mu and in price."""
    alpha = INF if rng.uniform() < 0.5 else float(rng.choice([0.3, 1.0, 4.0]))
    products = []
    for _ in range(int(rng.integers(2, 7))):
        mu = float(rng.choice([0.5, 1.0, 3.0]))
        c = mu * float(rng.choice([1.0, 2.0]))
        products.append(ProductSpec(c * float(rng.choice([1.5, 2.5, 4.0, 9.0])), c, mu))
    budget = sum(p.mean**2 for p in products) * (1.0 + 10.0 ** float(rng.uniform(-3, 1)))
    rng.uniform()  # unused; keeps the seeded plan stream
    return PortfolioSpec(tuple(products), budget, alpha)


def test_solve_lambda_is_bit_equal_to_the_public_per_call_path():
    rng = np.random.default_rng(2026)
    ties = infinite = 0
    for _ in range(300):
        pf = _tie_prone_portfolio(rng)
        sol = solve_lambda(pf)
        lam, seg, case, quantities, brk = _per_call_solve_lambda(pf)
        assert (sol.segment, sol.case) == (seg, case)
        assert sol.lambda_star.hex() == lam.hex()
        assert [q.hex() for q in sol.quantities] == [q.hex() for q in quantities]
        assert list(sol.breakpoints) == brk == lambda_breakpoints(pf.products, pf.alpha)
        ties += len(set(brk[1:-1])) < len(brk) - 2
        infinite += brk[-2] == math.inf
    assert ties > 100 and infinite > 20  # the cases this test is for occur


def _frozen_order(products, alpha):
    """``portfolio._order`` as it stood before the per-product terms: the
    products themselves, in breakpoint order."""
    a = portfolio._nonzero_index(alpha)
    pairs = sorted(((portfolio._breakpoint(prod, a), prod) for prod in products), key=lambda t: t[0])
    return a, [0.0] + [b for b, _ in pairs] + [math.inf], [prod for _, prod in pairs]


def _frozen_theta(ordered, j, lam, inv):
    """``portfolio._theta`` as it stood before the per-product terms: it reads
    each product's price, cost and mean and forms (p - c) c on every call."""
    if j >= 2 and 4.0 * lam * lam == 0.0:
        return math.inf
    total = 0.0
    for prod in ordered[: j - 1]:
        tail = (prod.price - prod.cost) * prod.cost / (4.0 * lam * lam)
        total += prod.mean * prod.mean + tail
    for prod in ordered[j - 1 :]:
        mu2 = prod.mean * prod.mean
        if math.isinf(lam):
            total += mu2
        else:
            p, c = prod.price, prod.cost
            den = p * lam * inv + c
            total += mu2 * (1.0 + c * (p - c) / (den * den))
    return total


@pytest.mark.parametrize("m", [1, 2, 3, 7, 40, 300])
def test_theta_terms_are_bit_equal_to_the_per_product_reads(m):
    rng = np.random.default_rng(90_000 + m)
    for trial in range(max(1, 120 // m)):
        products = [random_product(rng) for _ in range(m)]
        alpha = INF if trial % 3 == 0 else float(10 ** rng.uniform(-1, 2))
        a, brk, terms = portfolio._order(products, alpha)
        assert _frozen_order(products, alpha)[1] == brk
        ordered = _frozen_order(products, alpha)[2]
        for j in range(1, m + 2):
            lo, hi = brk[j - 1], brk[j]
            inside = 0.5 * (lo + hi) if math.isfinite(hi) else 2.0 * lo + 1.0
            lams = [lo, hi, inside, brk[int(rng.integers(m + 2))], math.inf, 1e-163, 1e-162, 0.0]
            for lam in lams:
                got = portfolio._theta(terms, j, lam, a.inv)
                assert got.hex() == _frozen_theta(ordered, j, lam, a.inv).hex(), (j, lam)


def _seeded_300_product_plan():
    """300 products and K = 1.5 sum mu^2 at alpha 4, drawn on seed 17 after the
    gamma draws of ``test_from_samples_merges_100_000_rounded_draws``."""
    rng = np.random.default_rng(17)
    rng.gamma(3.0, 2.0, 100_000)
    price = rng.uniform(2.0, 30.0, 300).tolist()
    margin = rng.uniform(0.1, 0.9, 300).tolist()
    mean = rng.uniform(0.5, 10.0, 300).tolist()
    products = tuple(ProductSpec(p, p * f, mu) for p, f, mu in zip(price, margin, mean))
    return PortfolioSpec(products, 1.5 * sum(p.mean**2 for p in products), 4.0)


def test_solve_lambda_is_bit_equal_with_the_per_product_reads(monkeypatch):
    rng = np.random.default_rng(90_001)
    plans = [_tie_prone_portfolio(rng) for _ in range(40)]
    for m in [1, 2, 5, 30, 300]:
        for _ in range(4):
            products = tuple(random_product(rng) for _ in range(m))
            budget = sum(p.mean**2 for p in products) * (1.0 + 10.0 ** float(rng.uniform(-3, 1)))
            alpha = INF if rng.uniform() < 0.3 else float(10 ** rng.uniform(-1, 2))
            rng.uniform()  # unused; keeps the seeded plan stream
            plans.append(PortfolioSpec(products, budget, alpha))
    plans.append(_seeded_300_product_plan())
    solutions = [solve_lambda(pf) for pf in plans]
    monkeypatch.setattr(portfolio, "_order", _frozen_order)
    monkeypatch.setattr(portfolio, "_theta", _frozen_theta)
    for pf, sol in zip(plans, solutions):
        want = solve_lambda(pf)
        assert sol == want and sol.lambda_star.hex() == want.lambda_star.hex()
    assert {sol.case for sol in solutions} == {DualCase.KINK, DualCase.INTERIOR_ROOT}


def test_product_quantities_branches():
    # infinite index, multiplier above c/(2 mu): mu + (p - 2c)/(4 lambda)
    assert product_quantities(1.0, [P1], INF)[0] == pytest.approx(4 + 4 / 4)
    # below c/(2 mu): p mu^2 lambda / c^2
    assert product_quantities(0.2, [P1], INF)[0] == pytest.approx(
        10 * 16 * 0.2 / 9
    )
    # the two branches meet continuously at lambda = c/(2 mu) = 0.375
    lo = product_quantities(0.375 - 1e-11, [P1], INF)[0]
    hi = product_quantities(0.375 + 1e-11, [P1], INF)[0]
    assert lo == pytest.approx(hi, abs=1e-8)
    assert lo == pytest.approx(10 * 4 / 6)  # p mu / (2c)
    # zero multiplier orders nothing
    assert product_quantities(0.0, [P1], 4.0) == [0.0]
    assert product_quantities(0.0, [P1], INF) == [0.0]


def test_product_quantities_finite_alpha_branch_continuity():
    rng = np.random.default_rng(67)
    for _ in range(40):
        prod = random_product(rng)
        lam = float(rng.uniform(0.05, 5))
        margin = prod.mean - prod.cost / (2 * lam)
        if margin <= 1e-6:
            continue
        alpha = prod.price / (2 * margin)
        lo = product_quantities(lam, [prod], alpha * (1 - 1e-12))[0]
        hi = product_quantities(lam, [prod], alpha * (1 + 1e-12))[0]
        assert lo == pytest.approx(hi, rel=1e-6)
        assert lo >= 0.0


def test_envelope_min_matches_brute_force():
    rng = np.random.default_rng(71)
    for _ in range(25):
        n = int(rng.integers(2, 120))
        slopes = rng.uniform(0, 30, size=n)
        intercepts = rng.uniform(-20, 20, size=n)
        xs = np.sort(rng.uniform(0, 8, size=50))
        got = _envelope_min(slopes, intercepts, xs)
        want = np.min(intercepts[None, :] + xs[:, None] * slopes[None, :], axis=1)
        assert np.allclose(got, want, atol=1e-9)


def _per_row_envelope_min(slopes, intercepts, xs):
    """The envelope as first written: one sort and one full chain per family."""
    order = np.lexsort((intercepts, -slopes))  # slope desc, intercept asc
    ms = slopes[order]
    bs = intercepts[order]
    keep = np.ones(ms.size, dtype=bool)
    keep[1:] = np.diff(ms) < 0.0  # first (lowest) intercept per slope wins
    ms, bs = ms[keep], bs[keep]
    hull_m, hull_b, cuts = [], [], []
    for m, b in zip(ms, bs):
        while hull_m:
            x = (b - hull_b[-1]) / (hull_m[-1] - m)
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
    return np.asarray(hull_b)[idx] + np.asarray(hull_m)[idx] * xs


def _per_row_curve(lams, pf, v):
    """dual_objective_curve with one full per-row chain per quantity."""
    out = -lams * pf.budget
    for prod in pf.products:
        mu = prod.mean
        ia = np.where(v <= mu)[0]
        ib = np.where(v >= mu)[0]
        va, vb = v[ia], v[ib]
        gap = vb[None, :] - va[:, None]
        with np.errstate(invalid="ignore", divide="ignore"):
            w = np.where(gap == 0.0, 1.0, (vb[None, :] - mu) / gap)
        slopes = (w * (va * va)[:, None] + (1.0 - w) * (vb * vb)[None, :]).ravel()
        best = np.full(lams.size, -np.inf)
        for q in v:
            row = ell(pf.alpha, float(q), v, prod.cost_structure)
            intercepts = (w * row[ia][:, None] + (1.0 - w) * row[ib][None, :]).ravel()
            best = np.maximum(best, _per_row_envelope_min(slopes, intercepts, lams))
        out = out + best
    return out


def test_envelope_min_merges_duplicate_slopes():
    rng = np.random.default_rng(72)
    for first in (0.0, 0.5):
        slopes = rng.integers(0, 6, size=40).astype(float)  # every slope repeats
        intercepts = rng.uniform(-20, 20, size=40)
        intercepts[:3] = intercepts[3]  # and some (slope, intercept) pairs too
        slopes[:3] = slopes[3]
        xs = np.sort(np.append(rng.uniform(first, 8, size=30), first))
        got = _envelope_min(slopes, intercepts, xs)
        want = np.min(intercepts[None, :] + xs[:, None] * slopes[None, :], axis=1)
        assert np.allclose(got, want, atol=1e-9)
        assert got.tobytes() == _per_row_envelope_min(slopes, intercepts, xs).tobytes()


def test_envelope_min_rows_with_tied_slopes_match_the_per_row_chain():
    # tied slopes take the per-slope minimum; rows whose intercepts rise with
    # the slope keep only the flattest line, the others keep several
    rng = np.random.default_rng(76)
    for first in (0.0, 0.5):
        for slopes in (
            rng.integers(0, 8, size=60).astype(float),
            rng.permutation(np.arange(60.0)),
        ):
            intercepts = rng.uniform(-20, 20, size=(9, 60))
            intercepts[:4] = 3.0 * slopes + rng.uniform(0, 1, size=(4, 60))
            intercepts[4, :] = 1.5  # every line through one intercept
            xs = np.sort(np.append(rng.uniform(first, 8, size=40), first))
            got = _envelope_min(slopes, intercepts, xs)
            for r in range(intercepts.shape[0]):
                want = _per_row_envelope_min(slopes, intercepts[r], xs)
                assert got[r].tobytes() == want.tobytes()


def test_envelope_min_of_the_collinear_zero_quantity_family():
    # at q = 0 every law scores 0: all intercepts vanish, so every line passes
    # through the origin and the flattest slope is the envelope
    v = np.linspace(0.0, 40.0, 151)
    mu = 4.3
    va, vb = v[v <= mu], v[v >= mu]
    w = (vb[None, :] - mu) / (vb[None, :] - va[:, None])
    slopes = (w * (va * va)[:, None] + (1.0 - w) * (vb * vb)[None, :]).ravel()
    intercepts = np.zeros(slopes.size)
    for xs in (np.linspace(0.0, 3.0, 501), np.linspace(0.1, 3.0, 501)):
        got = _envelope_min(slopes, intercepts, xs)
        assert got.tobytes() == (slopes.min() * xs).tobytes()
        assert got.tobytes() == _per_row_envelope_min(slopes, intercepts, xs).tobytes()


@pytest.mark.parametrize("first", [0.0, 0.7])
def test_envelope_min_from_a_first_query_at_or_above_zero(first):
    rng = np.random.default_rng(73)
    for _ in range(25):
        n = int(rng.integers(2, 400))
        slopes = rng.uniform(0, 30, size=n)
        intercepts = rng.uniform(-20, 20, size=n)
        xs = np.sort(np.append(rng.uniform(first, 8, size=50), first))
        got = _envelope_min(slopes, intercepts, xs)
        want = np.min(intercepts[None, :] + xs[:, None] * slopes[None, :], axis=1)
        assert np.allclose(got, want, atol=1e-9)
        assert got.tobytes() == _per_row_envelope_min(slopes, intercepts, xs).tobytes()


def test_envelope_min_takes_one_family_per_row():
    rng = np.random.default_rng(74)
    slopes = rng.uniform(0, 30, size=300)
    intercepts = rng.uniform(-20, 20, size=(7, 300))
    xs = np.sort(rng.uniform(0, 8, size=60))
    got = _envelope_min(slopes, intercepts, xs)
    assert got.shape == (7, 60)
    for r in range(7):
        assert got[r].tobytes() == _envelope_min(slopes, intercepts[r], xs).tobytes()
        want = _per_row_envelope_min(slopes, intercepts[r], xs)
        assert got[r].tobytes() == want.tobytes()


def _ulps(values, steps):
    """``values`` each moved by its count of ulps in ``steps``."""
    out = np.array(values, dtype=float)
    for _ in range(int(np.abs(steps).max())):
        out = np.where(steps != 0, np.nextafter(out, np.where(steps > 0, np.inf, -np.inf)), out)
        steps = steps - np.sign(steps)
    return out


def _knife_edge_families(rng, count):
    """``count`` (slopes, intercepts, xs) calls, one line family per row, the
    rows built where the rounds and the one-line-at-a-time chain could part:
    rows that the filter leaves one or two lines beside long rows, lines
    that meet within a few ulps or exactly at some x past xs[0], and tied
    slopes with tied intercepts; half start at xs[0] = 0, the rest past it."""
    for k in range(count):
        first = 0.0 if k % 2 == 0 else float(rng.uniform(0.1, 2.0))
        n = int(rng.integers(20, 90))
        # whole slopes, many of them tied, or quarters, so that a slope
        # times a whole x is exact; or slopes of up to 3 decimals
        if k % 3 == 2:
            slopes = np.round(rng.uniform(0.0, 30.0, size=n), int(rng.integers(0, 4)))
        else:
            slopes = rng.integers(0, 25, size=n) / (1.0 if k % 3 == 0 else 4.0)
        meets = first + rng.uniform(0.05, 6.0, size=3)
        whole = float(np.ceil(first)) + float(rng.integers(1, 5))
        rows = []
        for kind in rng.integers(0, 6, size=int(rng.integers(36, 56))):
            if kind == 0:  # every line beaten at xs[0] by a flatter one
                b = (3.0 + first) * slopes + rng.uniform(0.0, 1.0, size=n)
            elif kind == 1:  # and the steepest line too
                b = (3.0 + first) * slopes + 40.0
                b[slopes == slopes.max()] = -100.0
            elif kind == 2:  # lines through one point, to a few ulps, some lifted
                x, y = float(rng.choice(meets)), float(rng.uniform(-20, 20))
                b = _ulps(y - slopes * x, rng.integers(-3, 4, size=n) * rng.integers(0, 2))
                lifted = rng.random(n) < rng.choice([0.0, 0.3])
                b[lifted] += rng.uniform(0.1, 5.0, size=lifted.sum())
            elif kind == 3:  # lines through one point exactly, some lifted
                b = float(rng.integers(-20, 20)) - slopes * whole
                b += np.where(rng.random(n) < 0.3, rng.integers(1, 4, size=n), 0)
            elif kind == 4:  # equal slopes, equal intercepts
                b = rng.uniform(-20, 20, size=n)[np.unique(slopes, return_inverse=True)[1]]
            else:
                b = rng.uniform(-20, 20, size=n)
            rows.append(b)
        xs = np.concatenate(
            [[first], rng.uniform(first, first + 8.0, size=int(rng.integers(5, 40))), [whole]]
            + [_ulps(np.full(5, x), np.arange(-2, 3)) for x in meets]
        )
        xs = np.sort(np.append(xs, rng.choice(xs, size=5)))  # with repeated points
        yield slopes, np.array(rows), xs


def test_envelope_min_on_knife_edge_rows_matches_the_per_row_chain(monkeypatch):
    unsure = []
    vouch = portfolio._unsure_rows

    def counting(lines, at, cuts):
        unsure.append(vouch(lines, at, cuts))
        return unsure[-1]

    monkeypatch.setattr(portfolio, "_unsure_rows", counting)
    n_rows = 0
    for slopes, intercepts, xs in _knife_edge_families(np.random.default_rng(77), 48):
        got = _envelope_min(slopes, intercepts, xs)
        for r in range(len(intercepts)):
            assert got[r].tobytes() == _per_row_envelope_min(slopes, intercepts[r], xs).tobytes()
        n_rows += len(intercepts)
    assert n_rows >= 2000
    # the one-line-at-a-time chain reruns a few rows, where a dropped line
    # crosses a kept one on the wrong side of a cut
    assert 0 < sum(map(len, unsure)) < 0.1 * n_rows


def test_envelope_min_reruns_a_row_whose_rounds_keep_too_few_lines():
    # four lines through x = 4.432 to within an ulp: the rounds drop both
    # middle lines at once and keep the outer two, whose cut is 4.432; the
    # chain, testing 1.4 against the steepest line alone, keeps it, with
    # cuts 4.4319999999999995 and 4.432.  The dropped 1.4 takes over from
    # the steepest line short of 4.432, so the row is rerun.
    slopes = np.array([3.2, 2.4, 1.4, 0.5])
    intercepts = np.array(
        [-10.572400000000002, -7.026800000000001, -2.5948000000000007, 1.3939999999999997]
    )
    xs = np.append(0.0, _ulps(np.full(7, 4.432), np.arange(-3, 4)))
    assert _envelope_min(slopes, intercepts, xs).tobytes() == (
        _per_row_envelope_min(slopes, intercepts, xs).tobytes()
    )
    # and as the second row of a call, after a row the rounds settle alone
    rows = np.stack([slopes, intercepts])
    got = _envelope_min(slopes, rows, xs)
    for r in range(2):
        assert got[r].tobytes() == _per_row_envelope_min(slopes, rows[r], xs).tobytes()


def test_dual_objective_curve_is_bit_equal_to_the_per_row_chain():
    # certify-shaped: 151-point support on [0, 40], 1-3 products, 501
    # multipliers from p_max / 60 through 4 lambda*, lambda* included
    rng = np.random.default_rng(75)
    grid = np.linspace(0.0, 40.0, 151)
    for n_products in (1, 2, 3):
        products = tuple(
            ProductSpec(
                price=float(rng.uniform(4, 16)),
                cost=float(rng.uniform(1, 3)),
                mean=float(rng.uniform(2, 7)),
            )
            for _ in range(n_products)
        )
        base = sum(p.mean**2 for p in products)
        pf = PortfolioSpec(
            products, base * float(rng.uniform(1.05, 1.4)), float(rng.uniform(0.5, 8))
        )
        lam_star = solve_lambda(pf).lambda_star
        lam_lo = max(p.price for p in products) / 60.0
        lams = np.linspace(lam_lo, 4.0 * max(lam_star, lam_lo), 500)
        lams = np.sort(np.append(lams, lam_star))
        got = dual_objective_curve(lams, pf, grid)
        assert got.tobytes() == _per_row_curve(lams, pf, grid).tobytes()


def _seeded_curves(count):
    """(portfolio, multipliers, grid) for ``count`` small curves, and the
    coarse-row stride to run each at: the default and some finer ones, so
    that coarse rows also land near the maximum on these short grids."""
    rng = np.random.default_rng(101)
    for k in range(count):
        top = float(rng.choice([10.0, 20.0, 40.0]))
        grid = np.linspace(0.0, top, int(rng.integers(13, 36)))
        if k % 4 == 1:  # a rounded grid
            grid = np.unique(np.round(grid, 0 if top > 10.0 else 1))
        products = [
            ProductSpec(
                price=float(rng.uniform(4, 16)),
                cost=float(rng.uniform(1, 3)),
                mean=float(rng.uniform(0.08, 0.35)) * top,
            )
            for _ in range(1 + k % 3)
        ]
        if k % 5 == 2:  # a mean on a grid point: a singleton law
            on_grid = float(grid[int(rng.integers(1, grid.size // 2))])
            products[0] = ProductSpec(products[0].price, products[0].cost, on_grid)
        if k % 6 == 3:  # identical products
            products = [products[0]] * len(products)
        alpha = INF if k % 7 == 4 else float(rng.uniform(0.5, 8))
        pf = PortfolioSpec(tuple(products), 1.3 * sum(p.mean**2 for p in products), alpha)
        lo = 0.0 if k % 3 == 0 else max(p.price for p in products) / (1.5 * top)
        hi = float(rng.uniform(1.0, 4.0)) * max(solve_lambda(pf).lambda_star, lo, 0.05)
        lams = np.linspace(lo, hi, int(rng.integers(1, 40)))
        if k % 4 == 0:  # repeated multipliers
            lams = np.sort(np.append(lams, lams[: 1 + lams.size // 3]))
        yield pf, lams, grid, (20, 2, 3, 5, 8)[k % 5]


def test_skipping_rows_below_the_maximum_keeps_every_bit(monkeypatch):
    rows = {"enveloped": 0, "all": 0}

    def counting_envelope_min(slopes, intercepts, xs):
        rows["enveloped"] += len(intercepts)
        return _envelope_min(slopes, intercepts, xs)

    monkeypatch.setattr(portfolio, "_envelope_min", counting_envelope_min)
    for pf, lams, grid, stride in _seeded_curves(400):
        monkeypatch.setattr(portfolio, "_COARSE_STRIDE", stride)
        got = dual_objective_curve(lams, pf, grid)
        assert got.tobytes() == _per_row_curve(lams, pf, grid).tobytes()
        rows["all"] += grid.size * len(pf.products)
    assert rows["enveloped"] < 0.6 * rows["all"]  # the skip is taken, not only allowed


def test_row_skip_margin_covers_the_envelope_rounding(monkeypatch):
    # Every envelope comes out d above its lowest line, d the most that
    # dual_objective_curve's docstring allows, and a non-coarse row r repeats
    # the coarse row c lifted by eps = d/2 (every other row sits 1 lower):
    # r's probe bound then lies below the floor, but by less than the margin.
    # r holds the maximum, so a rule that skipped it (a zero margin does)
    # would lose it.  Three multipliers: each is a probe multiplier.
    grid, lams, mu = np.linspace(0.0, 10.0, 41), np.array([0.0, 50.0, 100.0]), 4.0
    pf = PortfolioSpec((ProductSpec(10.0, 3.0, mu),), 20.0, 4.0)
    c, r = 10, 17  # coarse rows are 10 and 30
    ia, ib = np.flatnonzero(grid <= mu), np.flatnonzero(grid >= mu)
    n, u = ia.size * ib.size, 2.0**-53
    top_slope = mu * (grid[0] + grid[-1]) - grid[0] * grid[-1]  # the widest law's chord
    eps = (3 * n + 8) * u * top_slope * lams[-1]  # half of d's lower bound
    core, envelope_min = portfolio._ell_core, portfolio._envelope_min

    def planted(a, q, v, cost):
        rows = core(a, np.full_like(q, v[c]), v, cost)
        return rows + np.where(q == v[r], eps, np.where(q == v[c], 0.0, -1.0))

    def lifted(slopes, intercepts, xs):
        size = np.abs(intercepts).max(axis=1) + slopes.max() * xs[-1]  # V, per row
        return envelope_min(slopes, intercepts, xs) + ((6 * slopes.size + 16) * u * size)[:, None]

    monkeypatch.setattr(portfolio, "_ell_core", planted)
    monkeypatch.setattr(portfolio, "_envelope_min", lifted)
    gap = grid[ib][None, :] - grid[ia][:, None]
    with np.errstate(invalid="ignore", divide="ignore"):
        w = np.where(gap == 0.0, 1.0, (grid[ib][None, :] - mu) / gap)
    slopes = (w * (grid[ia] ** 2)[:, None] + (1.0 - w) * (grid[ib] ** 2)[None, :]).ravel()
    best = np.full(lams.size, -np.inf)
    for i in range(grid.size):  # the full row-order fold
        rows = planted(pf.alpha, grid[i : i + 1, None], grid, pf.products[0].cost_structure)
        b = (w * rows[:, ia, None] + (1.0 - w) * rows[:, None, ib]).reshape(1, -1)
        best = np.maximum(best, lifted(slopes, b, lams).max(axis=0))
    got = dual_objective_curve(lams, pf, grid)
    assert got.tobytes() == (-lams * pf.budget + best).tobytes()


def test_dual_objective_curve_memory_stays_within_its_blocks():
    # 10^4 multipliers, 3 products on a 301-point grid: the peak is 43.5 MB,
    # 69.0 MB before rows were skipped; a bound formed on every row, probe
    # law and multiplier at once would take more than 500 MB
    products = (ProductSpec(10.0, 3.0, 5.0), ProductSpec(8.0, 2.0, 4.0), ProductSpec(14.0, 2.5, 6.5))
    pf = PortfolioSpec(products, 1.3 * sum(p.mean**2 for p in products), 4.0)
    lams = np.linspace(0.25, 3.0, 10**4)
    tracemalloc.start()
    try:
        dual_objective_curve(lams, pf, np.linspace(0.0, 40.0, 301))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 69e6


def test_dual_objective_canonical_value():
    pf = PortfolioSpec(products=(P1,), budget=20.0, alpha=4.0)
    grid = np.linspace(0.0, 12.0, 241)
    val = dual_objective(LAMBDA_STAR, pf, grid)
    assert val == pytest.approx(14.460, abs=2e-3)
    # budget term vanishes at lambda = 0
    assert dual_objective(0.0, pf, grid) == pytest.approx(
        dual_objective_curve(np.array([0.0]), pf, grid)[0], abs=1e-9
    )


def test_dual_objective_curve_matches_pointwise():
    rng = np.random.default_rng(83)
    grid = np.linspace(0.0, 14.0, 71)
    for _ in range(4):
        products = tuple(
            ProductSpec(
                price=float(rng.uniform(4, 15)),
                cost=float(rng.uniform(1, 3)),
                mean=float(rng.uniform(2, 7)),
            )
            for _ in range(int(rng.integers(1, 4)))
        )
        base = sum(p.mean**2 for p in products)
        pf = PortfolioSpec(products, base * 1.5, float(rng.uniform(0.5, 8)))
        lams = np.sort(rng.uniform(0.0, 4.0, size=5))
        curve = dual_objective_curve(lams, pf, grid)
        for j, lam in enumerate(lams):
            assert curve[j] == pytest.approx(
                dual_objective(float(lam), pf, grid), rel=1e-9, abs=1e-9
            )


def test_dual_objective_concave_in_multiplier():
    rng = np.random.default_rng(97)
    grid = np.linspace(0.0, 14.0, 57)
    for _ in range(5):
        products = tuple(
            ProductSpec(
                price=float(rng.uniform(4, 15)),
                cost=float(rng.uniform(1, 3)),
                mean=float(rng.uniform(2, 7)),
            )
            for _ in range(int(rng.integers(1, 4)))
        )
        base = sum(p.mean**2 for p in products)
        pf = PortfolioSpec(products, base * 1.4, float(rng.uniform(0.5, 8)))
        a, b = sorted(rng.uniform(0.01, 4.0, size=2))
        lams = np.array([a, 0.5 * (a + b), b])
        va, vm, vb = dual_objective_curve(lams, pf, grid)
        assert vm >= 0.5 * (va + vb) - 1e-9


def test_dual_multiplier_maximizes_the_curve():
    pf = PortfolioSpec(products=(P1,), budget=20.0, alpha=4.0)
    grid = np.linspace(0.0, 12.0, 241)
    sol = solve_lambda(pf)
    lams = np.linspace(0.0, 5.0, 2001)
    curve = dual_objective_curve(lams, pf, grid)
    at_star = dual_objective_curve(
        np.array([sol.lambda_star]), pf, grid
    )[0]
    # grid-restricted inner minima shift the sweep by at most the oracle's
    # discretization error; 1e-3 is far below the coarsest relevant scale
    assert at_star >= curve.max() - 1e-3


# ---------------------------------------------------------------------------
# one path per job: frozen copies of the replaced paths as references
# ---------------------------------------------------------------------------


def _streamed_dual_objective(lam, pf, grid):
    """``dual_objective`` as first written: one streaming oracle call per
    (product, grid quantity), scalar ``ell`` at every grid point."""
    lam = require_nonnegative("lam", lam)
    v = portfolio._validated_grid(grid)
    total = -lam * pf.budget
    for prod in pf.products:
        cs = MomentConstraintSet(
            grid=v, constraints=(MomentConstraint(Moment.MEAN, Relation.EQ, prod.mean),)
        )
        best = -math.inf
        for q in v:
            res = worst_case_expectation_oracle(
                lambda u, q=q: ell(pf.alpha, float(q), u, prod.cost_structure) + lam * u * u, cs
            )
            if res.value > best:
                best = res.value
        total += best
    return total


def _outcome(fn, *args):
    """``fn(*args)`` as ``("value", float.hex)`` or ``(error class, message)``."""
    try:
        return "value", float.hex(fn(*args))
    except Exception as exc:  # the error is the outcome compared
        return type(exc).__name__, str(exc)


def _dual_plans(rng, count):
    """(lam, plan, grid) triples: 1-3 products, finite and infinite alpha,
    lam = 0 and 2-point grids among them, some means on a grid point."""
    for k in range(count):
        n = 2 if k % 10 == 0 else int(rng.integers(3, 41))
        hi = float(rng.uniform(8.0, 30.0))
        grid = np.linspace(0.0, hi, n) if k % 3 else np.sort(rng.uniform(0.0, hi, n))
        grid = np.unique(grid)
        products = []
        for _ in range(int(rng.integers(1, 4))):
            p = float(rng.uniform(2.0, 30.0))
            mean = float(rng.uniform(grid[0], grid[-1]))
            if k % 4 == 0:
                mean = float(grid[int(rng.integers(0, grid.size))]) or float(grid[-1])
            products.append(ProductSpec(p, p * float(rng.uniform(0.05, 0.95)), mean))
        alpha = math.inf if k % 5 == 0 else float(10 ** rng.uniform(-2.0, 2.0))
        lam = 0.0 if k % 7 == 0 else float(10 ** rng.uniform(-3.0, 1.0))
        base = sum(p.mean**2 for p in products)
        yield lam, PortfolioSpec(products, base * float(rng.uniform(0.5, 2.0)), alpha), grid


def test_dual_objective_matches_the_streamed_reference_bit_for_bit():
    rng = np.random.default_rng(34_001)
    seen = collections.Counter()
    for lam, pf, grid in _dual_plans(rng, 300):
        want = _outcome(_streamed_dual_objective, lam, pf, grid)
        assert _outcome(dual_objective, lam, pf, grid) == want, (lam, pf, grid.tolist())
        seen["value"] += want[0] == "value"
        seen["alpha inf"] += pf.alpha.is_infinite
        seen["lam 0"] += lam == 0.0
        seen["2 points"] += grid.size == 2
        seen["mean on grid"] += any(p.mean in grid for p in pf.products)
    assert seen["value"] == 300 and min(seen.values()) >= 20, seen


_ONE = (ProductSpec(10.0, 3.0, 4.0),)
# (case, lam, plan, grid, the error class raised); each is also the reference's
_DUAL_BAD_INPUTS = [
    ("unsorted-grid", 0.5, PortfolioSpec(_ONE, 40.0, 2.0), [2.0, 1.0, 3.0], "InputError"),
    ("one-point-grid", 0.5, PortfolioSpec(_ONE, 40.0, 2.0), [4.0], "InputError"),
    ("alpha-0", 0.5, PortfolioSpec(_ONE, 40.0, 0.0), [0.0, 4.0, 8.0], "DegenerateModelError"),
    ("objective-overflows", 1e300, PortfolioSpec(_ONE, 40.0, 2.0), [0.0, 4.0, 1e10], "InputError"),
    ("mean-outside-grid", 0.5, PortfolioSpec(_ONE, 40.0, 2.0), [5.0, 6.0, 8.0], "InfeasibleError"),
]


@pytest.mark.parametrize(
    "lam, pf, grid, error", [pytest.param(*c[1:], id=c[0]) for c in _DUAL_BAD_INPUTS]
)
def test_dual_objective_keeps_each_single_error_of_the_streamed_reference(lam, pf, grid, error):
    want = _outcome(_streamed_dual_objective, lam, pf, grid)
    assert want[0] == error
    assert _outcome(dual_objective, lam, pf, grid) == want


def test_dual_objective_checks_two_bad_inputs_in_its_stated_order():
    outside = [5.0, 6.0, 8.0]
    # the index before the mean: the reference's order too
    got = _outcome(dual_objective, 0.5, PortfolioSpec(_ONE, 40.0, 0.0), outside)
    assert got == _outcome(_streamed_dual_objective, 0.5, PortfolioSpec(_ONE, 40.0, 0.0), outside)
    assert got[0] == "DegenerateModelError"
    # the mean before the objective: the reference read the objective first
    plan = PortfolioSpec(_ONE, 40.0, 2.0)
    assert _outcome(dual_objective, 1e300, plan, [5.0, 6.0, 1e10])[0] == "InfeasibleError"
    # across products too: the second product's mean before the first's objective
    two = PortfolioSpec((ProductSpec(10.0, 3.0, 5.5), ProductSpec(10.0, 3.0, 4.0)), 80.0, 2.0)
    assert _outcome(dual_objective, 1e300, two, [5.0, 6.0, 1e10])[0] == "InfeasibleError"
    # the pair cap after the index and before the mean, with no 20,001^2 matrix formed
    wide = np.arange(20_001.0) + 5.0
    assert _outcome(dual_objective, 0.5, PortfolioSpec(_ONE, 40.0, 0.0), wide)[0] == (
        "DegenerateModelError")
    assert _outcome(dual_objective, 0.5, plan, wide) == (
        "InputError", "grid of 20001 points exceeds the pair cap 20000")
    # the grid before the index
    assert _outcome(dual_objective, 0.5, PortfolioSpec(_ONE, 40.0, 0.0), [4.0])[0] == "InputError"


def test_both_dual_oracles_raise_one_error_for_a_mean_the_grid_cannot_hold():
    plan = PortfolioSpec(_ONE, 40.0, 2.0)
    wide = np.arange(20_001.0) + 5.0  # the pair cap, before the mean
    for grid in ([0.0, 1.0, 2.0], [5.0, 6.0, 8.0], wide):
        want = _outcome(dual_objective, 0.5, plan, grid)
        assert want[0] in ("InfeasibleError", "InputError")
        assert _outcome(dual_objective_curve, [0.5], plan, grid) == want


def test_both_dual_oracles_check_the_index_before_the_mean():
    plan = PortfolioSpec(_ONE, 40.0, 0.0)
    for oracle, lam in ((dual_objective, 0.5), (dual_objective_curve, [0.5])):
        assert _outcome(oracle, lam, plan, [0.0, 1.0, 2.0])[0] == "DegenerateModelError"


def test_both_dual_oracles_score_a_mean_within_the_family_tolerance_of_the_grid():
    plan = PortfolioSpec(_ONE, 40.0, 2.0)
    grid = [0.0, 1.0, 2.0, 4.0 - 5e-9]  # the mean 4 lies 5e-9 past the last point
    lams = np.array([0.0, 0.5, 2.0])
    curve = dual_objective_curve(lams, plan, grid)
    for j, lam in enumerate(lams):
        assert curve[j] == pytest.approx(dual_objective(float(lam), plan, grid), rel=1e-9, abs=1e-9)


def test_the_curve_builds_one_law_family_per_product(monkeypatch):
    means = []

    class CountingFamily(portfolio.MomentLawFamily):
        def __init__(self, cs):
            means.append(cs.constraints[0].bound)
            super().__init__(cs)

    monkeypatch.setattr(portfolio, "MomentLawFamily", CountingFamily)
    products = (ProductSpec(10.0, 3.0, 4.0), ProductSpec(8.0, 2.0, 5.5), ProductSpec(10.0, 3.0, 4.0))
    pf = PortfolioSpec(products, 1.3 * sum(p.mean**2 for p in products), 2.0)
    dual_objective_curve(np.linspace(0.1, 2.0, 7), pf, np.linspace(0.0, 12.0, 25))
    assert means == [4.0, 5.5, 4.0]


def _quantity_as_first_written(lam, prod, a):
    """``_single_quantity`` with its own infinite-multiplier branch."""
    p, c, mu = prod.price, prod.cost, prod.mean
    pinv = p * a.inv
    if lam == 0.0:
        return 0.0
    if math.isinf(lam):
        if 2.0 * mu >= pinv:
            return mu - 0.25 * pinv
        return mu * mu / pinv
    if 2.0 * mu - c / lam >= pinv:
        return mu + (p - 2.0 * c) / (4.0 * lam) - 0.25 * pinv
    den = p * lam * a.inv + c
    return lam * mu * mu * (1.0 + (p - c) / den) / den


def test_infinite_multiplier_quantities_match_their_own_branch_bit_for_bit():
    rng = np.random.default_rng(34_002)
    seen = collections.Counter()
    for _ in range(2_000):
        p = float(10 ** rng.uniform(-2.0, 4.0))
        c = p * float(rng.uniform(0.01, 0.99))
        alpha = math.inf if rng.random() < 0.1 else float(10 ** rng.uniform(-3.0, 3.0))
        kink = p / alpha / 2.0  # 2 mu = p/alpha
        mu = kink if kink > 0.0 and rng.random() < 0.3 else float(10 ** rng.uniform(-2.0, 4.0))
        if kink > 0.0 and rng.random() < 0.3:
            mu = float(np.nextafter(kink, (0.0, math.inf)[int(rng.integers(0, 2))]))
        a = MisspecIndex(alpha)
        prods = [ProductSpec(p, c, mu)]
        want = [_quantity_as_first_written(math.inf, prods[0], a)]
        assert [x.hex() for x in product_quantities(math.inf, prods, a)] == [x.hex() for x in want]
        seen["below kink"] += 2.0 * mu < p * a.inv
        seen["at kink"] += 2.0 * mu == p * a.inv
        seen["above kink"] += 2.0 * mu > p * a.inv
        seen["alpha inf"] += a.is_infinite
    assert min(seen.values()) >= 20, seen
