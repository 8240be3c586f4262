"""Multi-product dual solver: breakpoints, theta curve, multiplier, quantities."""

import math
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
    ThetaForm,
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
from robustnv.portfolio import _envelope_min

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
    with pytest.raises(InputError, match="squared means sum beyond"):
        PortfolioSpec(products=(big, big), budget=1.0, alpha=1.0)


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
    assert theta(2, 1.0, [P1], 4.0, ThetaForm.PRINTED) == pytest.approx(
        theta(2, 1.0, [P1], 4.0) - 16.0, abs=1e-12
    )
    assert theta(2, 0.0, [P1], 4.0) == math.inf


def test_theta_forms_differ_by_settled_mean_squares():
    rng = np.random.default_rng(23)
    for _ in range(30):
        products = [random_product(rng) for _ in range(int(rng.integers(1, 5)))]
        alpha = float(rng.uniform(0.2, 15))
        j = int(rng.integers(1, len(products) + 2))
        lam = float(rng.uniform(0.05, 5))
        diff = theta(j, lam, products, alpha) - theta(
            j, lam, products, alpha, ThetaForm.PRINTED
        )
        per = [lambda_breakpoints([prod], alpha)[1] for prod in products]
        order = np.argsort(per, kind="stable")
        settled = [products[i] for i in order[: j - 1]]
        assert diff == pytest.approx(
            sum(p.mean**2 for p in settled), rel=1e-12, abs=1e-12
        )


def test_theta_continuous_across_segment_boundary():
    # the active term equals the settled envelope term at the breakpoint
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


def test_solve_lambda_printed_form_breaks_the_reduction():
    # the PRINTED theta hits the budget on the settled side too early, parks
    # the multiplier at the kink, and overshoots the single-product answer
    pf = PortfolioSpec(products=(P1,), budget=20.0, alpha=4.0)
    sol = solve_lambda(pf, ThetaForm.PRINTED)
    assert sol.case is DualCase.KINK
    assert sol.lambda_star == pytest.approx(6 / 11, abs=1e-12)
    assert sol.quantities[0] == pytest.approx(5.208333, abs=5e-6)
    want = misspec_quantity(4.0, MomentSpec(4, 2), CostStructure(10, 3)).quantity
    assert abs(sol.quantities[0] - want) > 0.9  # documented failure, not noise


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


def _per_call_solve_lambda(pf, form):
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
            total += theta(2 if position < j else 1, lam, [prod], a, form)
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
    makes the breakpoint +inf.  Tied products differ in mu, which PRINTED
    reads at a tie, and in price."""
    alpha = INF if rng.uniform() < 0.5 else float(rng.choice([0.3, 1.0, 4.0]))
    products = []
    for _ in range(int(rng.integers(2, 7))):
        mu = float(rng.choice([0.5, 1.0, 3.0]))
        c = mu * float(rng.choice([1.0, 2.0]))
        products.append(ProductSpec(c * float(rng.choice([1.5, 2.5, 4.0, 9.0])), c, mu))
    budget = sum(p.mean**2 for p in products) * (1.0 + 10.0 ** float(rng.uniform(-3, 1)))
    form = ThetaForm.PRINTED if rng.uniform() < 0.4 else ThetaForm.ENVELOPE
    return PortfolioSpec(tuple(products), budget, alpha), form


def test_solve_lambda_is_bit_equal_to_the_public_per_call_path():
    rng = np.random.default_rng(2026)
    ties = infinite = 0
    for _ in range(300):
        pf, form = _tie_prone_portfolio(rng)
        sol = solve_lambda(pf, form)
        lam, seg, case, quantities, brk = _per_call_solve_lambda(pf, form)
        assert (sol.segment, sol.case) == (seg, case)
        assert sol.lambda_star.hex() == lam.hex()
        assert [q.hex() for q in sol.quantities] == [q.hex() for q in quantities]
        assert list(sol.breakpoints) == brk == lambda_breakpoints(pf.products, pf.alpha)
        ties += len(set(brk[1:-1])) < len(brk) - 2
        infinite += brk[-2] == math.inf
    assert ties > 100 and infinite > 20  # the cases this test is for occur


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
