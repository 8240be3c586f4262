"""Transport-ball and total-variation variants, and the radius->index bridge."""

import bisect
import itertools
import math
import warnings
from collections import Counter

import numpy as np
import pytest

from robustnv import (
    CostStructure,
    DegenerateModelError,
    DiscreteDistribution,
    InputError,
    InternalCheckError,
    MisspecIndex,
    MomentSpec,
    RadiusSpec,
    WassersteinCase,
    WassersteinSolution,
    alpha_for_radius,
    misspec_quantity,
    reference_beta,
    scarf_quantity,
    tv_misspec_quantity,
    wasserstein_ambiguity_quantity,
    wasserstein_misspec_solve,
)
from robustnv import distances
from robustnv.distances import ReferenceDistribution
from robustnv.oracle import (
    Moment,
    MomentConstraint,
    MomentConstraintSet,
    Relation,
    wasserstein_dual_oracle,
    worst_case_expectation_oracle,
)

UNIFORM = DiscreteDistribution.from_samples([1, 2, 3, 4, 5])
K07 = CostStructure(10, 3)  # kappa = 0.7: the CDF jumps past the fractile at 4
K08 = CostStructure(10, 2)  # kappa = 0.8: the CDF hits the fractile exactly

# faithful values for the kappa=0.7 instance (theta=1.5, alpha=0.1); the
# raw truncated moment would give (0.05, 0.08) instead, which the dual
# oracle rejects -- see notes on the straddling-atom budget correction
GAMMA_07 = 0.1 * (1 - math.sqrt(1.5 / 4.4))  # 0.04161257918788578
PSI_07 = 1.6 * GAMMA_07  # 0.06658012670061725


def random_reference(rng, n_lo=2, n_hi=9):
    n = int(rng.integers(n_lo, n_hi))
    vals = np.round(rng.uniform(0.5, 12.0, size=n), 2)
    return DiscreteDistribution.from_samples(vals.tolist())


# ---------------------------------------------------------------------------
# reference summaries
# ---------------------------------------------------------------------------


def test_reference_beta_uniform():
    q, b = reference_beta(UNIFORM, K07)
    assert q == 4.0
    assert b == pytest.approx(6.0, abs=1e-12)


def test_reference_beta_point_mass():
    q, b = reference_beta(DiscreteDistribution.point_mass(3.0), K07)
    assert (q, b) == (3.0, 9.0)


def test_reference_beta_nondecreasing_in_fractile():
    costs = [CostStructure(10, c) for c in (8.0, 6.0, 4.0, 2.0, 0.5)]
    betas = [reference_beta(UNIFORM, c)[1] for c in costs]
    assert all(b2 >= b1 - 1e-12 for b1, b2 in zip(betas, betas[1:]))


def test_reference_beta_degenerate_fractile():
    heavy_zero = DiscreteDistribution.from_pairs([0.0, 9.0], [0.8, 0.2])
    with pytest.raises(DegenerateModelError):
        reference_beta(heavy_zero, K07)


def test_effective_budget():
    r7 = ReferenceDistribution.summarize(UNIFORM, K07)
    assert r7.beta_effective == pytest.approx(4.4, abs=1e-12)
    r8 = ReferenceDistribution.summarize(UNIFORM, K08)
    assert r8.beta_effective == pytest.approx(r8.beta, abs=1e-12)
    rng = np.random.default_rng(3)
    for _ in range(40):
        ref = random_reference(rng)
        cost = CostStructure(10.0, float(rng.uniform(0.5, 9.0)))
        r = ReferenceDistribution.summarize(ref, cost)
        assert 0.0 < r.beta_effective <= r.beta + 1e-12


def test_radius_spec_validation():
    with pytest.raises(InputError):
        RadiusSpec(-0.1, 1.0)
    spec = RadiusSpec(1.5, 0.1)
    assert spec.alpha == MisspecIndex(0.1)


# ---------------------------------------------------------------------------
# ball + misspecification solve
# ---------------------------------------------------------------------------


def test_solve_exact_fractile_instance():
    # cumulative probability hits the fractile exactly at the reference
    # quantity, so the plain closed form is exactly optimal
    sol = wasserstein_misspec_solve(UNIFORM, RadiusSpec(1.5, 0.1), K08)
    assert sol.case is WassersteinCase.CLOSED_FORM
    assert sol.gamma_star == pytest.approx(0.05, abs=1e-12)
    assert sol.psi_star == pytest.approx(0.08, abs=1e-12)


def test_solve_straddling_atom_instance():
    sol = wasserstein_misspec_solve(UNIFORM, RadiusSpec(1.5, 0.1), K07)
    assert sol.case is WassersteinCase.CLOSED_FORM
    assert sol.gamma_star == pytest.approx(GAMMA_07, abs=1e-9)
    assert sol.psi_star == pytest.approx(PSI_07, abs=1e-9)


def test_solve_matches_dual_oracle():
    # dual objective evaluated on gamma grids peaks at the closed form
    psis = np.linspace(0.0, 0.3, 601)
    us = np.linspace(0.0, 6.0, 1201)
    for cost, g_closed in ((K07, GAMMA_07), (K08, 0.05)):
        gammas = np.linspace(0.0, 0.0999, 400)
        vals, _ = wasserstein_dual_oracle(UNIFORM, 1.5, 0.1, cost, gammas, psis, us)
        k = int(np.argmax(vals))
        step = gammas[1] - gammas[0]
        assert abs(gammas[k] - g_closed) <= 2 * step
        at_closed, _ = wasserstein_dual_oracle(
            UNIFORM, 1.5, 0.1, cost, [g_closed], psis, us
        )
        # the grid's apparent max can only beat the true optimum by
        # discretization error of the inner evaluation
        assert at_closed[0] >= vals[k] - 2e-4


def test_solve_zero_radius():
    s_inf = wasserstein_misspec_solve(
        UNIFORM, RadiusSpec(0.0, MisspecIndex.INFINITY), K07
    )
    assert s_inf.case is WassersteinCase.POINT_BALL
    assert math.isinf(s_inf.gamma_star)
    assert s_inf.psi_star == 4.0
    s_fin = wasserstein_misspec_solve(UNIFORM, RadiusSpec(0.0, 0.1), K07)
    assert s_fin.gamma_star == 0.1
    assert s_fin.psi_star == pytest.approx(0.16, abs=1e-12)


def test_solve_large_radius_orders_nothing():
    for theta in (4.4, 5.0, 6.0, 50.0):
        sol = wasserstein_misspec_solve(UNIFORM, RadiusSpec(theta, 0.1), K07)
        assert sol.case is WassersteinCase.DEGENERATE_RADIUS
        assert (sol.gamma_star, sol.psi_star) == (0.0, 0.0)


def test_solve_implicit_root_instance():
    # alpha large enough that the explicit gamma lands above the fractile
    # cutoff p/(2 q*) = 1.25
    sol = wasserstein_misspec_solve(UNIFORM, RadiusSpec(1.5, 5.0), K07)
    assert sol.case is WassersteinCase.IMPLICIT_ROOT
    assert sol.gamma_star == pytest.approx(1.729788, abs=5e-6)
    assert sol.psi_star == pytest.approx(
        4.0 - 10.0 / (4.0 * sol.gamma_star), abs=1e-12
    )
    # independent check: the dual objective peaks there too (the curve is
    # flat near the top, so the inner grids need to be fine)
    gammas = np.linspace(1.61, 1.85, 25)
    psis = np.linspace(2.3, 2.8, 251)
    us = np.linspace(0.0, 6.5, 2601)
    vals, _ = wasserstein_dual_oracle(UNIFORM, 1.5, 5.0, K07, gammas, psis, us)
    k = int(np.argmax(vals))
    assert abs(gammas[k] - sol.gamma_star) <= 2 * (gammas[1] - gammas[0])
    at_closed, _ = wasserstein_dual_oracle(
        UNIFORM, 1.5, 5.0, K07, [sol.gamma_star], psis, us
    )
    assert at_closed[0] >= vals[k] - 5e-4


def test_solve_case_boundary_continuous():
    # at the radius where the explicit gamma hits the fractile cutoff, the
    # explicit and implicit branches agree
    alpha = 5.0
    beff = ReferenceDistribution.summarize(UNIFORM, K07).beta_effective
    cutoff = 10.0 / (2.0 * 4.0)
    theta_b = beff * (1.0 - cutoff / alpha) ** 2
    above = wasserstein_misspec_solve(UNIFORM, RadiusSpec(theta_b * (1 + 1e-10), alpha), K07)
    below = wasserstein_misspec_solve(UNIFORM, RadiusSpec(theta_b * (1 - 1e-10), alpha), K07)
    assert above.case is WassersteinCase.CLOSED_FORM
    assert below.case is WassersteinCase.IMPLICIT_ROOT
    assert abs(above.gamma_star - below.gamma_star) <= 1e-9
    assert abs(above.psi_star - below.psi_star) <= 1e-9


def test_implicit_root_at_its_lower_end():
    # alpha within 1e-12 of the cutoff p/(2 q*) = 2, so the bracket is empty,
    # yet the explicit index alpha (1 - sqrt(theta/beta_eff)) is above it
    demand, cost = DiscreteDistribution.from_samples([1.0, 2.0, 3.0, 4.0]), CostStructure(8.0, 4.0)
    ref = ReferenceDistribution.summarize(demand, cost)
    assert (ref.q_star, ref.beta_effective) == (2.0, 1.25)
    sol = wasserstein_misspec_solve(demand, RadiusSpec(1e-30 * 1.25, 2.0 * (1.0 + 1e-13)), cost)
    assert sol == WassersteinSolution(2.0, 1.0, WassersteinCase.IMPLICIT_ROOT)


def test_solve_vanishing_budget_boundary():
    beff = ReferenceDistribution.summarize(UNIFORM, K07).beta_effective
    sol = wasserstein_misspec_solve(UNIFORM, RadiusSpec(beff * (1 - 1e-12), 0.1), K07)
    assert abs(sol.gamma_star) <= 1e-9
    assert abs(sol.psi_star) <= 1e-9


def test_solve_monotone_in_radius_and_index():
    rng = np.random.default_rng(20240816)
    for _ in range(25):
        ref = random_reference(rng)
        cost = CostStructure(10.0, float(rng.uniform(0.5, 8.5)))
        try:
            summary = ReferenceDistribution.summarize(ref, cost)
        except DegenerateModelError:
            continue
        alpha = float(rng.uniform(0.05, 20.0))
        thetas = np.linspace(0.0, summary.beta_effective * 1.1, 13)
        psis = [
            wasserstein_misspec_solve(ref, RadiusSpec(float(t), alpha), cost).psi_star
            for t in thetas
        ]
        assert all(b <= a + 1e-9 for a, b in zip(psis, psis[1:]))
        theta = float(rng.uniform(0.1, 0.9)) * summary.beta_effective
        alphas = np.geomspace(0.02, 50.0, 12)
        psis_a = [
            wasserstein_misspec_solve(ref, RadiusSpec(theta, float(a)), cost).psi_star
            for a in alphas
        ]
        assert all(b >= a - 1e-9 for a, b in zip(psis_a, psis_a[1:]))
        for p in psis + psis_a:
            assert -1e-12 <= p <= summary.q_star + 1e-12


def test_solve_gamma_never_exceeds_index():
    rng = np.random.default_rng(99)
    for _ in range(40):
        ref = random_reference(rng)
        cost = CostStructure(10.0, float(rng.uniform(0.5, 8.5)))
        try:
            summary = ReferenceDistribution.summarize(ref, cost)
        except DegenerateModelError:
            continue
        alpha = float(rng.uniform(0.05, 30.0))
        theta = float(rng.uniform(0.0, 1.2)) * summary.beta_effective
        sol = wasserstein_misspec_solve(ref, RadiusSpec(theta, alpha), cost)
        assert 0.0 <= sol.gamma_star <= alpha + 1e-12


def _implicit_root_instances():
    yield UNIFORM, K07, 1.5, 5.0
    yield UNIFORM, K07, 1.5, math.inf
    rng = np.random.default_rng(61)
    found = 0
    while found < 12:
        ref = random_reference(rng, 3)
        cost = CostStructure(10.0, float(rng.uniform(0.5, 8.5)))
        try:
            summary = ReferenceDistribution.summarize(ref, cost)
        except DegenerateModelError:
            continue
        alpha = math.inf if found % 3 == 0 else float(rng.uniform(0.05, 30.0))
        theta = float(rng.uniform(0.05, 0.95)) * summary.beta_effective
        sol = wasserstein_misspec_solve(ref, RadiusSpec(theta, alpha), cost)
        if sol.case is WassersteinCase.IMPLICIT_ROOT:
            found += 1
            yield ref, cost, theta, alpha


@pytest.mark.parametrize("s", [1e-2, 1e2, 1e3])
def test_solve_invariant_under_a_change_of_demand_units(s):
    # support x s, price and cost x 1/s, radius x s^2 and index x 1/s^2 scale
    # gamma* by 1/s^2 and psi* by s; the bisection's relative stopping width
    # must not depend on the units
    for ref, cost, theta, alpha in _implicit_root_instances():
        base = wasserstein_misspec_solve(ref, RadiusSpec(theta, alpha), cost)
        scaled = wasserstein_misspec_solve(
            DiscreteDistribution(tuple(v * s for v in ref.support), ref.weights),
            RadiusSpec(theta * s * s, alpha / (s * s)),
            CostStructure(cost.price / s, cost.cost / s),
        )
        assert scaled.case is WassersteinCase.IMPLICIT_ROOT
        assert scaled.gamma_star * s * s == pytest.approx(base.gamma_star, rel=1e-9)
        assert scaled.psi_star / s == pytest.approx(base.psi_star, rel=1e-9)


def _full_residual(x, ref, theta, inv, cost):
    """The balance residual with the atoms inside the cutoff p/(2x) summed
    afresh, closed at the boundary atom."""
    cut = cost.price / (2.0 * x)
    inside = [(v, w) for v, w in zip(ref.support, ref.weights) if v <= cut + 1e-12]
    head = math.fsum(w * v * v for v, w in inside)
    mass = math.fsum(w for _, w in inside)
    return head + cost.price**2 / (4.0 * x * x) * (cost.kappa - mass) - theta / (1.0 - x * inv) ** 2


def _reference_gamma(ref, theta, inv, cost):
    """Root of the full residual by plain bisection on [p/(2 q*), alpha),
    the bracket doubled until it crosses zero when inv = 0."""
    lo = cost.price / (2.0 * ref.quantile(cost.kappa))
    hi = (1.0 - 1e-12) / inv if inv else 2.0 * lo
    while _full_residual(hi, ref, theta, inv, cost) >= 0.0:
        hi *= 2.0
    while hi - lo > 1e-13 * lo:
        mid = 0.5 * (lo + hi)
        if _full_residual(mid, ref, theta, inv, cost) >= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _catalog_histories(rng, count):
    """Gamma-distributed demand histories of 30-120 observations, every third
    rounded to integers (ties, sometimes zeros), every fifth at alpha = inf."""
    for i in range(count):
        mu = float(rng.uniform(1.0, 60.0))
        sigma = mu * float(rng.uniform(0.1, 1.5))
        hist = rng.gamma((mu / sigma) ** 2, sigma**2 / mu, int(rng.integers(30, 121)))
        if i % 3 == 0:
            hist = np.round(hist)
        price = float(rng.uniform(2.0, 30.0))
        cost = CostStructure(price, price * float(rng.uniform(0.05, 0.9)))
        alpha = math.inf if i % 5 == 0 else price / mu * 10.0 ** float(rng.uniform(-0.5, 2.0))
        try:
            ref = ReferenceDistribution.summarize(
                DiscreteDistribution.from_samples(hist.tolist()), cost
            )
        except DegenerateModelError:
            continue
        yield ref, cost, alpha


def test_solve_matches_the_full_residual_bisection_on_catalog_histories():
    rng = np.random.default_rng(1018)
    implicit = 0
    for ref, cost, alpha in _catalog_histories(rng, 300):
        dist, inv = ref.distribution, RadiusSpec(0.0, alpha).alpha.inv
        theta = float(rng.uniform(0.05, 0.95)) * ref.beta_effective
        sol = wasserstein_misspec_solve(dist, RadiusSpec(theta, alpha), cost)
        if sol.case is WassersteinCase.IMPLICIT_ROOT:
            implicit += 1
            want = _reference_gamma(dist, theta, inv, cost)
            assert sol.gamma_star == pytest.approx(want, rel=1e-9)
    assert implicit >= 150


HUGE_ALPHAS = (1e30, 1e60, 1e100, 1e200, 1e300)
SEVEN = DiscreteDistribution.from_samples([1, 2, 3, 5, 8, 9, 12])


@pytest.mark.parametrize("alpha", HUGE_ALPHAS)
def test_solve_at_a_huge_finite_index_agrees_with_the_infinite_index(alpha):
    limit = wasserstein_misspec_solve(SEVEN, RadiusSpec(0.5, math.inf), K07)
    sol = wasserstein_misspec_solve(SEVEN, RadiusSpec(0.5, alpha), K07)
    assert sol.case is limit.case is WassersteinCase.IMPLICIT_ROOT
    assert sol.gamma_star == pytest.approx(limit.gamma_star, rel=1e-9)
    assert sol.psi_star == pytest.approx(limit.psi_star, rel=1e-9)


def test_huge_finite_indices_agree_with_the_infinite_index_on_catalog_histories():
    # a bracket [p/(2 q*), alpha) this wide needs hundreds of halvings
    rng = np.random.default_rng(18_018)
    implicit = 0
    for ref, cost, _ in _catalog_histories(rng, 200):
        dist = ref.distribution
        theta = float(rng.uniform(0.05, 0.95)) * ref.beta_effective
        limit = wasserstein_misspec_solve(dist, RadiusSpec(theta, math.inf), cost)
        for alpha in HUGE_ALPHAS:
            sol = wasserstein_misspec_solve(dist, RadiusSpec(theta, alpha), cost)
            assert sol.case is limit.case, (alpha, theta, cost)
            assert sol.gamma_star == pytest.approx(limit.gamma_star, rel=1e-9), (alpha, theta)
            assert sol.psi_star == pytest.approx(limit.psi_star, rel=1e-9), (alpha, theta)
            implicit += sol.case is WassersteinCase.IMPLICIT_ROOT
    assert implicit >= 900, implicit


def _frozen_prefix_sums(dist, k):
    sup, wts = dist.support[:k], dist.weights[:k]
    head = itertools.accumulate((w * v * v for v, w in zip(sup, wts)), initial=0.0)
    return list(head), list(itertools.accumulate(wts, initial=0.0))


def _frozen_ball_solve(demand, spec, cost):
    """``wasserstein_misspec_solve`` as it stood with a second prefix-sum pass
    for the root and the residual called in every halving."""
    p, kappa, alpha, theta = cost.price, cost.kappa, spec.alpha, spec.theta
    q_star = demand.quantile(kappa)
    if q_star <= 0.0:
        raise DegenerateModelError(
            "the reference law's critical fractile is 0; the ball model "
            "requires a strictly positive fractile quantity"
        )
    head, mass = _frozen_prefix_sums(demand, bisect.bisect_right(demand.support, q_star + 1e-12))
    beta_eff = head[-1] + q_star * q_star * (kappa - mass[-1])
    if theta >= beta_eff:
        return WassersteinSolution(0.0, 0.0, WassersteinCase.DEGENERATE_RADIUS)
    gamma2 = alpha.alpha * (1.0 - math.sqrt(theta / beta_eff))
    if theta == 0.0:
        gamma, case = alpha.alpha, WassersteinCase.POINT_BALL
    elif gamma2 < p / (2.0 * q_star):
        gamma, case = gamma2, WassersteinCase.CLOSED_FORM
    else:
        gamma = _frozen_root(demand, q_star, theta, alpha, cost)
        case = WassersteinCase.IMPLICIT_ROOT
    if gamma < p / (2.0 * q_star):
        return WassersteinSolution(gamma, q_star * (gamma * q_star / p), case)
    return WassersteinSolution(gamma, q_star - p / (4.0 * gamma), case)


def _frozen_root(demand, q_star, theta, alpha, cost):
    sup, p, kappa, inv = demand.support, cost.price, cost.kappa, alpha.inv
    n = bisect.bisect_left(sup, q_star)
    head, mass = _frozen_prefix_sums(demand, n)

    def residual(x, k):
        tail = (p**2 / (4.0 * x * x)) * (kappa - mass[k])
        return head[k] + tail - theta / (1.0 - x * inv) ** 2

    lo, hi = p / (2.0 * q_star), alpha.alpha * (1.0 - 1e-12)
    if hi <= lo or residual(lo, n) < 0.0:
        return lo
    k, k_hi = int(sup[0] == 0.0), n
    while k < k_hi:
        j = (k + k_hi + 1) // 2
        x = p / (2.0 * sup[j - 1])
        if x < hi and residual(x, j) >= 0.0:
            k_hi, lo = j - 1, x
        else:
            k, hi = j, min(hi, x)
    if inv == 0.0:
        return 0.5 * p * math.sqrt((kappa - mass[k]) / (theta - head[k]))
    for _ in range(2080):
        if hi - lo <= 1e-10 * lo:
            return min((lo, hi), key=lambda x: abs(residual(x, k)))
        mid = 0.5 * (lo + hi)
        if residual(mid, k) >= 0.0:
            lo = mid
        else:
            hi = mid
    raise InternalCheckError(f"effective-index bisection did not converge: [{lo!r}, {hi!r}]")


def _hex_outcome(solve, *args):
    """``(gamma*.hex(), psi*.hex(), case)`` of a ball solve, or the class and
    message of what it raised."""
    try:
        out = solve(*args)
    except Exception as exc:  # the exception is the outcome to compare
        return type(exc), str(exc)
    return out.gamma_star.hex(), out.psi_star.hex(), out.case


def test_ball_solve_is_bit_equal_to_the_two_pass_reference():
    # catalog-style histories (an eighth with zeros) at theta = 0, past
    # beta_eff and inside the ball, at finite, infinite and huge finite
    # indices: the same bits, branch and error as a solve that sums the
    # prefixes twice and calls the residual in every halving
    rng = np.random.default_rng(24_024)
    seen = Counter()
    for i in range(2_400):
        mu = float(rng.uniform(1.0, 60.0))
        sigma = mu * float(rng.uniform(0.1, 1.5))
        hist = rng.gamma((mu / sigma) ** 2, sigma**2 / mu, int(rng.integers(30, 121)))
        if i % 3 == 0:
            hist = np.round(hist)
        if i % 8 == 0:  # an atom at 0, at the fractile in some draws (q* = 0)
            hist[rng.uniform(size=hist.size) < rng.uniform(0.2, 0.9)] = 0.0
        price = float(rng.uniform(2.0, 30.0))
        cost = CostStructure(price, price * float(rng.uniform(0.05, 0.9)))
        kind = ("inf", "huge", "finite", "finite", "finite")[i % 5]
        alpha = {
            "inf": math.inf,
            "huge": HUGE_ALPHAS[int(rng.integers(len(HUGE_ALPHAS)))],
            "finite": price / mu * 10.0 ** float(rng.uniform(-1.0, 2.0)),
        }[kind]
        dist = DiscreteDistribution.from_samples(hist)
        try:
            beff = ReferenceDistribution.summarize(dist, cost).beta_effective
        except DegenerateModelError:
            beff = 1.0
        u = float(rng.uniform())
        theta = 0.0 if u < 0.15 else beff * (1.0 + 2.0 * (u - 0.15) if u < 0.3 else u)
        spec = RadiusSpec(theta, alpha)
        want = _hex_outcome(_frozen_ball_solve, dist, spec, cost)
        assert _hex_outcome(wasserstein_misspec_solve, dist, spec, cost) == want, (i, theta, alpha)
        seen[want[2] if len(want) == 3 else want[0]] += 1
        seen[kind, want[2] if len(want) == 3 else want[0]] += 1
    for case in WassersteinCase:
        assert seen[case] >= 50, seen
    for kind in ("inf", "huge", "finite"):
        assert seen[kind, WassersteinCase.IMPLICIT_ROOT] >= 50, seen
    assert seen[DegenerateModelError] >= 20, seen


def test_solve_raises_when_the_root_bisection_runs_out(monkeypatch):
    monkeypatch.setattr(distances, "_MAX_BISECT_ITER", 5)
    with pytest.raises(InternalCheckError, match="did not converge"):
        wasserstein_misspec_solve(SEVEN, RadiusSpec(0.5, 1e6), K07)


def test_solve_is_continuous_across_atom_breakpoints():
    # theta solving the balance equation at x_j = p/(2 v_j) for an atom v_j
    # strictly below q* puts the root on that breakpoint; theta (1 +- 1e-9)
    # moves it by at most (1e-9/2) kappa/(kappa - F_j) relative to either side
    rng = np.random.default_rng(2024)
    placed = 0
    for ref, cost, alpha in _catalog_histories(rng, 300):
        dist, p, kappa = ref.distribution, cost.price, cost.kappa
        below = [v for v in dist.support if 0.0 < v < ref.q_star]
        if not below:
            continue
        v_j = below[int(rng.integers(len(below)))]
        x_j = p / (2.0 * v_j)
        if not math.isinf(alpha):
            alpha = x_j * float(rng.uniform(1.5, 20.0))
        inv = RadiusSpec(0.0, alpha).alpha.inv
        inside = [(v, w) for v, w in zip(dist.support, dist.weights) if v <= v_j]
        head = math.fsum(w * v * v for v, w in inside)
        mass = math.fsum(w for _, w in inside)
        theta_j = (1.0 - x_j * inv) ** 2 * (head + v_j * v_j * (kappa - mass))
        slack = kappa / (kappa - mass)
        at = wasserstein_misspec_solve(dist, RadiusSpec(theta_j, alpha), cost)
        assert at.case is WassersteinCase.IMPLICIT_ROOT
        assert abs(at.gamma_star - x_j) <= (2e-10 + 1e-14 * slack) * x_j
        for sign in (1.0, -1.0):
            theta = theta_j * (1.0 + sign * 1e-9)
            sol = wasserstein_misspec_solve(dist, RadiusSpec(theta, alpha), cost)
            assert sol.case is WassersteinCase.IMPLICIT_ROOT
            assert sign * (x_j - sol.gamma_star) >= -2e-10 * x_j  # a larger radius, a smaller index
            assert abs(sol.gamma_star - x_j) <= (2e-10 + 1e-9 * slack) * x_j
            want = _reference_gamma(dist, theta, inv, cost)
            assert sol.gamma_star == pytest.approx(want, rel=1e-9)
        placed += 1
    assert placed >= 250


# ---------------------------------------------------------------------------
# ball-only benchmark
# ---------------------------------------------------------------------------


def test_ball_only_limits():
    assert wasserstein_ambiguity_quantity(UNIFORM, 0.0, K07) == 4.0
    assert wasserstein_ambiguity_quantity(UNIFORM, 6.0, K07) == 0.0
    assert wasserstein_ambiguity_quantity(UNIFORM, 4.4, K07) == 0.0


def test_ball_only_monotone_nonincreasing():
    thetas = np.linspace(0.01, 5.5, 40)
    vals = [wasserstein_ambiguity_quantity(UNIFORM, float(t), K07) for t in thetas]
    assert all(b <= a + 1e-9 for a, b in zip(vals, vals[1:]))
    assert vals[0] < 4.0  # any positive radius costs something


def test_ball_only_is_the_infinite_index_solve():
    for theta in (0.3, 1.1, 2.7, 4.0):
        sol = wasserstein_misspec_solve(
            UNIFORM, RadiusSpec(theta, MisspecIndex.INFINITY), K07
        )
        assert wasserstein_ambiguity_quantity(UNIFORM, theta, K07) == sol.psi_star


# ---------------------------------------------------------------------------
# total-variation penalty
# ---------------------------------------------------------------------------


def test_tv_examples():
    m = MomentSpec(4, 2)
    assert tv_misspec_quantity(5.0, m, K07) == 1.0  # 2*5/10 caps the order
    assert tv_misspec_quantity(0.0, m, K07) == 0.0
    q_inf = scarf_quantity(m, K07).quantity
    assert tv_misspec_quantity(MisspecIndex.INFINITY, m, K07) == q_inf


def test_tv_kink_exact():
    m = MomentSpec(4, 2)
    q_inf = scarf_quantity(m, K07).quantity
    kink = 10.0 * q_inf / 2.0
    # linear branch: exact equality, no tolerance
    for a in (0.5, 3.0, kink * 0.999):
        assert tv_misspec_quantity(a, m, K07) == 2.0 * a / 10.0
    # constant branch from the kink onward
    for a in (kink, kink * 1.001, 1e6):
        assert tv_misspec_quantity(a, m, K07) == q_inf


def test_tv_against_moment_oracle():
    # grid argmax of the worst-case expectation of the capped objective
    m = MomentSpec(4, 2)
    alpha = 5.0
    grid = np.linspace(0.0, 12.0, 161)
    cs = MomentConstraintSet(
        grid=grid,
        constraints=(
            MomentConstraint(Moment.MEAN, Relation.EQ, m.mean),
            MomentConstraint(Moment.SECOND_MOMENT, Relation.EQ, m.second_moment),
        ),
    )
    best_q, best_v = None, -math.inf
    for q in np.linspace(0.0, 6.0, 61):
        res = worst_case_expectation_oracle(
            lambda v, q=q: min(10.0 * q, 2.0 * alpha, 10.0 * v) - 3.0 * q, cs
        )
        if res.value > best_v:
            best_q, best_v = float(q), res.value
    assert best_q == pytest.approx(tv_misspec_quantity(alpha, m, K07), abs=0.1)


def test_tv_degenerate_moment_set():
    # ambiguity-only quantity is 0, so the cap never binds
    assert tv_misspec_quantity(5.0, MomentSpec(1, 3), CostStructure(10, 9)) == 0.0


# ---------------------------------------------------------------------------
# radius -> index bridge
# ---------------------------------------------------------------------------


def test_alpha_for_radius_examples():
    a = alpha_for_radius(0.4375, MomentSpec(4, 2), K07)
    assert a.alpha == pytest.approx(0.5 * math.sqrt(160.0), abs=1e-12)
    assert alpha_for_radius(0.0, MomentSpec(4, 2), K07) is MisspecIndex.INFINITY


def test_alpha_for_radius_large_budget_collapses():
    m = MomentSpec(4, 2)
    kappa = K07.kappa
    v_hat = 4 - 2 * math.sqrt((1 - kappa) / kappa)
    cut = kappa * v_hat**2  # ~5.068
    assert alpha_for_radius(cut * 1.0001, m, K07).alpha == 0.0
    assert alpha_for_radius(cut * 0.9999, m, K07).alpha > 0.0


def test_alpha_for_radius_degenerate_moments_warn():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        a = alpha_for_radius(1.0, MomentSpec(1, 3), K07)
    assert a.alpha == 0.0
    assert len(caught) == 1


def test_alpha_for_radius_negative_budget_rejected():
    with pytest.raises(InputError):
        alpha_for_radius(-0.5, MomentSpec(4, 2), K07)


def test_alpha_for_radius_past_a_price_of_1e154():
    # p (p - c) overflows here, although the budget is below kappa v_hat^2
    a = alpha_for_radius(1e300, MomentSpec(1e151, 5e150), CostStructure(2.26e154, 3e152))
    assert a.alpha == 11_224.749440410687


def test_alpha_for_radius_in_the_float_range_is_bit_equal_to_the_one_root_form():
    # where 0.5 sqrt(p (p - c) / eps) is finite it is the answer, bit for bit;
    # where it overflows, the roots formed apart give a finite index
    rng = np.random.default_rng(15_415)
    interior = overflowed = 0
    for _ in range(4_000):
        mu = float(10 ** rng.uniform(-2, 100))
        m = MomentSpec(mu, mu * float(rng.uniform(0.05, 0.6)))
        p = float(10 ** rng.uniform(-1, 200))
        cost = CostStructure(p, p * float(rng.uniform(0.05, 0.6)))
        v_hat = m.mean - m.std * math.sqrt((1.0 - cost.kappa) / cost.kappa)
        eps = cost.kappa * v_hat * v_hat * float(10 ** rng.uniform(-30, 0.2))
        got = alpha_for_radius(eps, m, cost).alpha
        if not eps < cost.kappa * v_hat * v_hat:
            assert got == 0.0
            continue
        one_root = 0.5 * math.sqrt(p * (p - cost.cost) / eps)
        if one_root < math.inf:
            interior += 1
            assert got.hex() == one_root.hex(), (eps, m, cost)
        else:
            overflowed += 1
            assert got == 0.5 * math.sqrt(p) * math.sqrt(p - cost.cost) / math.sqrt(eps)
            assert got < math.inf, (eps, m, cost)
    assert interior >= 2_000 and overflowed >= 200, (interior, overflowed)


def test_alpha_for_radius_is_the_envelope_argmax():
    # value(alpha) - eps*alpha over an alpha grid peaks at the closed form
    m = MomentSpec(4, 2)
    for eps in (0.1, 0.4375, 1.0, 3.0):
        a_star = alpha_for_radius(eps, m, K07).alpha
        alphas = np.geomspace(0.2, 60.0, 900)
        vals = [misspec_quantity(float(a), m, K07).value - eps * a for a in alphas]
        k = int(np.argmax(vals))
        at_star = misspec_quantity(a_star, m, K07).value - eps * a_star
        assert at_star >= vals[k] - 1e-6


def _frozen_quantile(dist, kappa):
    """``DiscreteDistribution.quantile`` as a bisection of its own prefix sums."""
    idx = bisect.bisect_left(list(itertools.accumulate(dist.weights)), kappa - 1e-12)
    return dist.support[min(idx, len(dist.support) - 1)]


def test_reference_summary_is_bit_equal_to_the_two_pass_reference():
    # the summary reads q* from one mass prefix over all atoms; the reference
    # sums every weight for the quantile, then the weights up to the fractile
    rng = np.random.default_rng(25_025)
    seen = Counter()
    for i in range(1_500):
        mu = float(rng.uniform(1.0, 60.0))
        sigma = mu * float(rng.uniform(0.1, 1.5))
        hist = rng.gamma((mu / sigma) ** 2, sigma**2 / mu, int(rng.integers(1, 121)))
        if i % 3 == 0:
            hist = np.round(hist)
        if i % 8 == 0:
            hist[rng.uniform(size=hist.size) < rng.uniform(0.2, 0.9)] = 0.0
        dist = DiscreteDistribution.from_samples(hist)
        price = float(rng.uniform(2.0, 30.0))
        cost = CostStructure(price, price * float(rng.uniform(0.05, 0.9)))
        # the fractile at a prefix of the mass exactly and one ulp either side
        prefix = float(np.cumsum(dist.weights)[int(rng.integers(len(dist.weights)))])
        for kappa in (cost.kappa, prefix, np.nextafter(prefix, 0.0), np.nextafter(prefix, 2.0)):
            if 0.0 < kappa <= 1.0:
                assert dist.quantile(kappa).hex() == _frozen_quantile(dist, kappa).hex()
        q_star = _frozen_quantile(dist, cost.kappa)
        if q_star <= 0.0:
            with pytest.raises(DegenerateModelError):
                ReferenceDistribution.summarize(dist, cost)
            seen["degenerate"] += 1
            continue
        closed = bisect.bisect_right(dist.support, q_star + 1e-12)
        head, mass = _frozen_prefix_sums(dist, closed)
        beta_eff = head[-1] + q_star * q_star * (cost.kappa - mass[-1])
        got_q, got_beta_eff, got_head, got_mass = distances._reference_sums(dist, cost)
        ref = ReferenceDistribution.summarize(dist, cost)
        assert (got_q, got_head[-1], got_beta_eff) == (ref.q_star, ref.beta, ref.beta_effective)
        assert ref.distribution is dist
        assert [ref.q_star.hex(), ref.beta.hex(), ref.beta_effective.hex()] == [
            q_star.hex(), head[-1].hex(), beta_eff.hex()
        ]
        assert [x.hex() for x in got_head] == [x.hex() for x in head]
        assert [x.hex() for x in got_mass[: closed + 1]] == [x.hex() for x in mass]
        seen[closed == len(dist.support)] += 1
    assert seen["degenerate"] >= 20 and seen[True] >= 20 and seen[False] >= 500, seen
