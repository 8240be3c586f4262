"""Release gate: the numbered end-to-end checks, each at its stated tolerance.

Every check is a separate test so the ``pytest -v`` report carries one
pass/fail line per criterion.  Where a check pins a location or a value,
the expected figure is derived inside the test from the model's own
equations for the instance posed: 03a from the regime-switch equation of
the misspecification quantity, 07a from the effective transport budget
``beta_eff`` of the uniform reference.
"""

import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy import special, stats

from robustnv import (
    CostStructure,
    DiscreteDistribution,
    ExperimentConfig,
    Method,
    MomentSpec,
    PortfolioSpec,
    ProductSpec,
    RadiusSpec,
    SampleSet,
    dual_objective_curve,
    ell,
    epsilon_N,
    gelbrich_sq,
    generate_demand,
    guarantee,
    lambda_breakpoints,
    misspec_quantity,
    moment_set_distance,
    oracle_check,
    ot_quadratic_empirical,
    price_threshold_scan,
    product_quantities,
    profit,
    push_forward,
    run_experiment,
    scarf_quantity,
    solve_lambda,
    stress_distribution,
    theta,
    transform,
    tv_misspec_quantity,
    variance_threshold_scan,
    wasserstein_misspec_solve,
)
from robustnv.cli import main as cli_main
from robustnv.distances import ReferenceDistribution
from robustnv.oracle import wasserstein_dual_oracle

CANON = CostStructure(10, 3)


def random_instance(rng):
    """Non-degenerate (moments, cost): kappa above the zero-order gate."""
    price = float(rng.uniform(4.0, 20.0))
    cs = CostStructure(price, price * float(rng.uniform(0.15, 0.75)))
    mu = float(rng.uniform(2.0, 8.0))
    cap = math.sqrt(cs.kappa / (1.0 - cs.kappa))
    sigma = mu * float(rng.uniform(0.15, 0.85)) * min(1.0, cap)
    return MomentSpec(mu, sigma), cs


# ---------------------------------------------------------------------------
# 1. closed forms vs the exhaustive moment-law oracle
# ---------------------------------------------------------------------------


def test_criterion_01_closed_form_matches_oracle():
    # q_points sized so one quantity step dominates the argmax wander the
    # support grid induces on the flat top of the objective (measured
    # 0.0197 * q_hi at 200 support points; one step here is 0.025 * q_hi)
    t0 = time.perf_counter()
    summary = oracle_check(seed=20260816, instances=100, grid_points=200, q_points=41)
    elapsed = time.perf_counter() - t0
    assert summary["passed"] is True
    assert summary["instances"] == 100
    assert elapsed <= 60.0, f"oracle batch took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 2. infinite-index reduction to the ambiguity-only quantity and value
# ---------------------------------------------------------------------------


def test_criterion_02_ambiguity_only_reduction():
    rng = np.random.default_rng(202)
    for _ in range(300):
        m, cs = random_instance(rng)
        huge = misspec_quantity(1e9, m, cs)
        base = scarf_quantity(m, cs)
        assert huge.quantity == pytest.approx(base.quantity, rel=1e-6)
        formula = m.mean * (cs.price - cs.cost) - m.std * math.sqrt(
            cs.cost * (cs.price - cs.cost)
        )
        assert base.value == pytest.approx(formula, abs=1e-9)
    canonical = scarf_quantity(MomentSpec(4, 2), CANON).value
    assert canonical == pytest.approx(18.834850, abs=2e-6)


# ---------------------------------------------------------------------------
# 3. threshold scans: the quantity's turning points in price and deviation
# ---------------------------------------------------------------------------


def test_criterion_03a_price_turn_location():
    t0 = time.perf_counter()
    grid = np.linspace(3.1, 40.0, 7381)  # 0.005 steps, far under the 0.2 band
    turn = price_threshold_scan(4.0, MomentSpec(4.0, 2.5), 3.0, grid)
    elapsed = time.perf_counter() - t0
    assert elapsed <= 5.0, f"price scan took {elapsed:.1f}s"
    assert turn is not None
    # q*(p) rises on the HIGH_ALPHA branch mu + sigma*f(c/p) - p/(4 alpha)
    # and falls on the LOW_ALPHA branch (mu^2 - sigma^2 + 2 mu sigma f)*alpha/p.
    # With s = sqrt(c/(p - c)) one has 2f + s = 1/s, so the branches meet at
    # the switch alpha = p/(2(mu - sigma*s)): the turn is the fixed point of
    # p = 2 alpha (mu - sigma*sqrt(c/(p - c))), ~24.535 (a contraction here;
    # started from the zero-variance switch 2 alpha mu)
    alpha, mu, sigma, c = 4.0, 4.0, 2.5, 3.0
    p_switch = 2.0 * alpha * mu
    for _ in range(60):
        p_switch = 2.0 * alpha * (mu - sigma * math.sqrt(c / (p_switch - c)))
    assert abs(turn - p_switch) <= 0.2, (
        f"price turn at {turn:.3f}, switch at {p_switch:.3f} +/- 0.2"
    )


def test_criterion_03b_deviation_turn_location():
    t0 = time.perf_counter()
    hi = 4.0 * math.sqrt(0.7 / 0.3)
    grid = np.linspace(1e-3, hi * 0.9999, 6100)
    turn = variance_threshold_scan(1.5, CANON, 4.0, grid)
    elapsed = time.perf_counter() - t0
    assert elapsed <= 5.0, f"deviation scan took {elapsed:.1f}s"
    assert turn is not None
    target = 8.0 / math.sqrt(21.0)
    assert abs(turn - target) <= 0.02, f"deviation turn at {turn:.4f}, target {target:.4f}"


# ---------------------------------------------------------------------------
# 4. transform identity: expected profit of the image law equals the
#    expected envelope under the original law
# ---------------------------------------------------------------------------


def test_criterion_04_transform_identity():
    rng = np.random.default_rng(404)
    for k in range(1000):
        m, cs = random_instance(rng)
        if k % 2 == 0:
            # two-point law matched exactly to (mu, sigma)
            probe = misspec_quantity(float(rng.uniform(0.5, 5.0)), m, cs)
            g = probe.worst_case
        else:
            support = np.sort(rng.uniform(0.0, 3.0 * m.mean, int(rng.integers(2, 9))))
            weights = rng.dirichlet(np.ones(support.size))
            g = DiscreteDistribution.from_pairs(
                [float(v) for v in support], [float(w) for w in weights]
            )
        alpha = float(cs.price / 10.0 * 10.0 ** rng.uniform(-1.0, 1.6))
        q = float(rng.uniform(0.05, 1.5 * max(g.support)))
        image = push_forward(g, transform(alpha, cs.price, q))
        lhs = image.expectation(lambda v: profit(q, v, cs))
        rhs = g.expectation(lambda v: ell(alpha, q, v, cs))
        assert abs(lhs - rhs) <= 1e-9, f"case {k}: |{lhs} - {rhs}| > 1e-9"


# ---------------------------------------------------------------------------
# 5. one-product portfolio with the implied second-moment budget reduces
#    to the single-product closed form; the paper's printed curve, which
#    omits the settled mean-squares, does not
# ---------------------------------------------------------------------------


def test_criterion_05_single_product_reduction():
    rng = np.random.default_rng(515)
    for _ in range(60):
        m, cs = random_instance(rng)
        alpha = float(cs.price / 10.0 * 10.0 ** rng.uniform(-1.0, 1.6))
        want = misspec_quantity(alpha, m, cs).quantity
        pf = PortfolioSpec(
            (ProductSpec(cs.price, cs.cost, m.mean),), m.second_moment, alpha
        )
        got = solve_lambda(pf).quantities[0]
        assert got == pytest.approx(want, abs=1e-6 * max(1.0, want))

    # the printed curve is theta less the settled mu^2 = 16: on the canonical
    # instance it admits the budget at the kink and parks the multiplier
    # there, while theta crosses K = 20 further right
    products, alpha = [ProductSpec(10, 3, 4)], 4.0
    pf = PortfolioSpec(tuple(products), 20.0, alpha)
    kink = lambda_breakpoints(products, alpha)[1]
    assert kink == 6 / 11
    assert theta(1, kink, products, alpha) > 20.0  # neither admits K on segment 1
    assert theta(2, kink, products, alpha) - 16.0 <= 20.0 < theta(2, kink, products, alpha)
    broken = product_quantities(kink, products, alpha)[0]
    correct = solve_lambda(pf).quantities[0]
    assert broken == pytest.approx(5.2083333, abs=1e-4)
    assert correct == pytest.approx(4.2478716, abs=1e-4)
    assert abs(broken - correct) > 0.5


# ---------------------------------------------------------------------------
# 6. budget multiplier maximizes the dualized objective
# ---------------------------------------------------------------------------


def test_criterion_06_dual_multiplier_optimality():
    # the oracle's support grid carries the adversary only while the
    # quadratic penalty keeps atoms below the grid ceiling (scale p /
    # (2 lam)), so portfolios are accepted only when lambda* clears
    # p_max / (1.5 H) and the multiplier grid starts there; 0.05 covers
    # the support-snapping budget (worst observed excess: 0.021)
    h = 40.0
    grid = np.linspace(0.0, h, 151)
    rng = np.random.default_rng(606)
    accepted = 0
    tried = 0
    while accepted < 20:
        tried += 1
        assert tried <= 80, "portfolio acceptance stalled"
        products = tuple(
            ProductSpec(
                price=float(rng.uniform(4, 16)),
                cost=float(rng.uniform(1, 3)),
                mean=float(rng.uniform(2, 7)),
            )
            for _ in range(int(rng.integers(1, 5)))
        )
        base = sum(p.mean**2 for p in products)
        pf = PortfolioSpec(
            products, base * float(rng.uniform(1.05, 1.4)), float(rng.uniform(0.5, 8))
        )
        sol = solve_lambda(pf)
        lam_lo = max(p.price for p in products) / (1.5 * h)
        if not (math.isfinite(sol.lambda_star) and sol.lambda_star >= lam_lo):
            continue
        accepted += 1
        lams = np.linspace(lam_lo, 4.0 * sol.lambda_star, 10_000)
        curve = dual_objective_curve(lams, pf, grid)
        at_star = dual_objective_curve(np.array([sol.lambda_star]), pf, grid)[0]
        assert at_star >= curve.max() - 0.05, (
            f"portfolio {tried}: grid multiplier beats lambda* by "
            f"{curve.max() - at_star:.4f}"
        )

    # multiplier non-increasing as the budget loosens
    rng = np.random.default_rng(626)
    for _ in range(10):
        products = tuple(
            ProductSpec(
                price=float(rng.uniform(4, 16)),
                cost=float(rng.uniform(1, 3)),
                mean=float(rng.uniform(2, 7)),
            )
            for _ in range(int(rng.integers(1, 5)))
        )
        base = sum(p.mean**2 for p in products)
        alpha = float(rng.uniform(0.5, 8))
        prev = math.inf
        for mult in np.linspace(1.05, 3.0, 12):
            lam = solve_lambda(PortfolioSpec(products, base * float(mult), alpha)).lambda_star
            assert lam <= prev + 1e-9
            prev = lam


# ---------------------------------------------------------------------------
# 7. transport-ball model: closed form, dual-oracle confirmation, and
#    continuity across case boundaries
# ---------------------------------------------------------------------------

UNIFORM5 = DiscreteDistribution.from_samples([1, 2, 3, 4, 5])


def test_criterion_07a_ball_instance_target_values():
    sol = wasserstein_misspec_solve(UNIFORM5, RadiusSpec(1.5, 0.1), CANON)
    # kappa = 0.7, so the fractile quantity is 4 and the atom at 4 straddles
    # it (H(3) = 0.6 < 0.7 < H(4) = 0.8).  For small psi the dual's inner
    # term sum 0.2*min(gamma w^2, 10 psi) - 3 psi peaks at 10 psi = 16 gamma,
    # where it equals beta_eff*gamma: beta_eff is the cost of moving only a
    # kappa share of mass to zero.  Maximizing beta_eff*gamma
    # - alpha*theta*gamma/(alpha - gamma) gives
    # gamma* = alpha (1 - sqrt(theta/beta_eff)) and psi* = 1.6 gamma*.
    theta, alpha = 1.5, 0.1
    beta_eff = 0.2 * (1 + 4 + 9) + (0.7 - 0.6) * 16  # 4.4
    gamma_star = alpha * (1.0 - math.sqrt(theta / beta_eff))  # 0.0416126
    assert abs(sol.gamma_star - gamma_star) <= 1e-6, f"gamma* = {sol.gamma_star:.6f}"
    assert abs(sol.psi_star - 1.6 * gamma_star) <= 1e-6, f"psi* = {sol.psi_star:.6f}"
    # at unit cost 2 (kappa = 0.8) the CDF hits the fractile exactly at 4,
    # beta_eff is the raw truncated moment 0.2*(1 + 4 + 9 + 16) = 6, and the
    # same formula gives gamma* = 0.05, psi* = 0.08 (the inner term is flat
    # for 16 gamma <= 10 psi <= 25 gamma there; the solver takes the
    # left-continuous fractile 4, the low end)
    sol2 = wasserstein_misspec_solve(UNIFORM5, RadiusSpec(theta, alpha), CostStructure(10, 2))
    assert abs(sol2.gamma_star - 0.05) <= 1e-6, f"gamma* = {sol2.gamma_star:.6f}"
    assert abs(sol2.psi_star - 0.08) <= 1e-6, f"psi* = {sol2.psi_star:.6f}"


def test_criterion_07b_ball_closed_form_matches_dual_oracle():
    psis = np.linspace(0.0, 0.3, 601)
    us = np.linspace(0.0, 6.0, 1201)
    for cost in (CANON, CostStructure(10, 2)):
        sol = wasserstein_misspec_solve(UNIFORM5, RadiusSpec(1.5, 0.1), cost)
        gammas = np.linspace(0.0, 0.0999, 400)
        vals, _ = wasserstein_dual_oracle(UNIFORM5, 1.5, 0.1, cost, gammas, psis, us)
        k = int(np.argmax(vals))
        assert abs(gammas[k] - sol.gamma_star) <= 2 * (gammas[1] - gammas[0])
        at_closed, _ = wasserstein_dual_oracle(
            UNIFORM5, 1.5, 0.1, cost, [sol.gamma_star], psis, us
        )
        # the grid's apparent max can only beat the true optimum by the
        # inner grids' discretization error
        assert at_closed[0] >= vals[k] - 2e-4


def test_criterion_07c_ball_case_boundaries_continuous():
    alpha = 5.0
    beff = ReferenceDistribution.summarize(UNIFORM5, CANON).beta_effective
    theta_b = beff * (1.0 - (10.0 / (2.0 * 4.0)) / alpha) ** 2
    above = wasserstein_misspec_solve(UNIFORM5, RadiusSpec(theta_b * (1 + 1e-10), alpha), CANON)
    below = wasserstein_misspec_solve(UNIFORM5, RadiusSpec(theta_b * (1 - 1e-10), alpha), CANON)
    assert abs(above.gamma_star - below.gamma_star) <= 1e-9
    assert abs(above.psi_star - below.psi_star) <= 1e-9
    # vanishing-budget boundary: the solution shuts off continuously
    edge = wasserstein_misspec_solve(UNIFORM5, RadiusSpec(beff * (1 - 1e-12), 0.1), CANON)
    assert abs(edge.gamma_star) <= 1e-9
    assert abs(edge.psi_star) <= 1e-9


# ---------------------------------------------------------------------------
# 8. bounded-displacement model: exact cap formula and its kink
# ---------------------------------------------------------------------------


def test_criterion_08_tv_cap_exact():
    rng = np.random.default_rng(808)
    for _ in range(200):
        m, cs = random_instance(rng)
        alpha = float(cs.price / 10.0 * 10.0 ** rng.uniform(-1.5, 1.6))
        q_inf = scarf_quantity(m, cs).quantity
        assert tv_misspec_quantity(alpha, m, cs) == min(2.0 * alpha / cs.price, q_inf)

    m = MomentSpec(4, 2)
    q_inf = scarf_quantity(m, CANON).quantity
    kink = CANON.price * q_inf / 2.0
    assert tv_misspec_quantity(kink, m, CANON) == q_inf
    assert tv_misspec_quantity(kink * 1.5, m, CANON) == q_inf
    below = tv_misspec_quantity(kink * (1 - 1e-6), m, CANON)
    assert below < q_inf
    assert below == 2.0 * (kink * (1 - 1e-6)) / CANON.price


# ---------------------------------------------------------------------------
# 9. transport distances: moment lower bound, exact-case attainment,
#    and stressed laws hitting their target distance
# ---------------------------------------------------------------------------


def test_criterion_09_transport_distances():
    rng = np.random.default_rng(909)
    for _ in range(1000):
        a = SampleSet(tuple(float(v) for v in rng.uniform(0.0, 12.0, int(rng.integers(2, 10)))))
        b = SampleSet(tuple(float(v) for v in rng.uniform(0.0, 12.0, int(rng.integers(2, 10)))))
        ot = ot_quadratic_empirical(a.empirical, b.empirical)
        assert ot >= gelbrich_sq(a.moments, b.moments) - 1e-12

    # positive-affine images attain the moment bound, which the distance
    # bracket reports as its exact case
    for _ in range(150):
        vals = rng.uniform(0.0, 10.0, int(rng.integers(3, 12)))
        if np.ptp(vals) < 1e-6:
            continue
        f = SampleSet(tuple(float(v) for v in vals))
        scale, offset = float(rng.uniform(0.3, 2.5)), float(rng.uniform(0.0, 6.0))
        h = SampleSet(tuple(offset + scale * v for v in f.values))
        lower, upper, exact = moment_set_distance(f.moments, h.moments)
        g = gelbrich_sq(f.moments, h.moments)
        ot = ot_quadratic_empirical(f.empirical, h.empirical)
        assert exact is True and lower == upper
        assert lower == pytest.approx(g, rel=1e-12, abs=1e-12)
        assert ot == pytest.approx(g, rel=1e-9, abs=1e-9)

    for _ in range(200):
        train = SampleSet(tuple(float(v) for v in rng.uniform(1.0, 9.0, int(rng.integers(3, 30)))))
        # any target below the sample variance is reachable
        target = float(rng.uniform(0.0, 0.5)) * float(np.var(train.values))
        stressed = stress_distribution(train, target)
        attained = ot_quadratic_empirical(train.empirical, stressed)
        assert abs(attained - target) <= 1e-12


# ---------------------------------------------------------------------------
# 10. finite-sample guarantee coverage and directional comparisons
# ---------------------------------------------------------------------------


def _truncnorm_expected_min(q, mu, sigma):
    """E[min(q, V)] in closed form, for q >= 0 and V normal(mu, sigma^2)
    truncated to [0, inf): with a = -mu/sigma and b = (q - mu)/sigma,
    (mu (Phi(b) - Phi(a)) + sigma (phi(a) - phi(b)) + q Phi(-b)) / Phi(-a)."""
    a, b = -mu / sigma, (q - mu) / sigma
    pdf_a, pdf_b = (math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi) for x in (a, b))
    below = mu * (special.ndtr(b) - special.ndtr(a)) + sigma * (pdf_a - pdf_b)
    return float((below + q * special.ndtr(-b)) / special.ndtr(-a))


def test_truncated_normal_expected_min_matches_quadrature():
    # quadrature split at the kink v = q: over [0, inf) in one piece quad is
    # off by up to 4.5e-6 (at q = 0.5), and its upper piece is NaN once q is
    # about 8 sigma above the mean
    mu0, sig0 = 6.0, 2.0
    law = stats.truncnorm((0.0 - mu0) / sig0, np.inf, loc=mu0, scale=sig0)
    for q in np.linspace(0.1, 16.0, 60).tolist():
        quad = law.expect(lambda v: np.minimum(q, v), ub=q) + law.expect(lambda v: np.minimum(q, v), lb=q)
        assert abs(_truncnorm_expected_min(q, mu0, sig0) - quad) <= 1e-10, q
    assert _truncnorm_expected_min(0.0, mu0, sig0) == 0.0
    assert _truncnorm_expected_min(1e3, mu0, sig0) == pytest.approx(law.mean(), abs=1e-12)


def test_criterion_10a_guarantee_coverage():
    t0 = time.perf_counter()
    mu0, sig0 = 6.0, 2.0
    law = stats.truncnorm((0.0 - mu0) / sig0, np.inf, loc=mu0, scale=sig0)

    def true_profit(q):
        return CANON.price * _truncnorm_expected_min(q, mu0, sig0) - CANON.cost * q

    eps = epsilon_N(200, 0.1, 0.5, 0.35)
    held = 0
    for seed in range(500):
        rng = np.random.default_rng(30_000 + seed)
        samples = SampleSet(tuple(float(v) for v in law.rvs(size=200, random_state=rng)))
        rep = guarantee(samples, 0.0, CANON, eps)
        q = misspec_quantity(rep.alpha_n, samples.moments, CANON).quantity
        if true_profit(q) >= rep.lower_bound - 1e-9:
            held += 1
    elapsed = time.perf_counter() - t0
    assert held >= 450, f"bound held on {held}/500 resamples"
    assert elapsed <= 120.0, f"coverage run took {elapsed:.1f}s"


def _stationary_config(seed):
    train = generate_demand("TRUNC_NORMAL", {"mu": 6.0, "sigma": 2.0}, 60, seed)
    test = generate_demand("TRUNC_NORMAL", {"mu": 6.0, "sigma": 2.0}, 200, seed + 10_000)
    return ExperimentConfig(
        train=train,
        cost=CANON,
        alpha_grid=(0.5, 2.0, 8.0, math.inf),
        methods=tuple(Method),
        seed=seed,
        test=test,
    )


def test_criterion_10b_stationary_nominal_wins():
    wins = 0
    for seed in range(31):
        report = run_experiment(_stationary_config(200 + seed))
        best = {}
        for cell in report.cells:
            cur = best.get(cell.method)
            if cur is None or cell.out_of_sample > cur:
                best[cell.method] = cell.out_of_sample
        nominal = best.pop(Method.NOMINAL)
        rival = max(best.values())
        if nominal >= rival - 0.02 * abs(rival):
            wins += 1
    assert wins > 15, f"sample-quantile rule led on only {wins}/31 seeds"


def test_criterion_10c_downward_shift_misspec_beats_ambiguity():
    hits = 0
    for seed in range(31):
        train = generate_demand("TRUNC_NORMAL", {"mu": 6.0, "sigma": 2.0}, 60, 600 + seed)
        shifted = SampleSet(
            tuple(
                0.65 * v
                for v in generate_demand(
                    "TRUNC_NORMAL", {"mu": 6.0, "sigma": 2.0}, 120, 9_600 + seed
                ).values
            )
        )
        config = ExperimentConfig(
            train=train,
            cost=CANON,
            alpha_grid=tuple(float(a) for a in np.geomspace(0.05, 20.0, 10)),
            methods=(Method.AMBIGUITY, Method.MISSPEC),
            seed=seed,
            test=shifted,
        )
        report = run_experiment(config)
        amb = max(c.out_of_sample for c in report.cells if c.method is Method.AMBIGUITY)
        mis = max(c.out_of_sample for c in report.cells if c.method is Method.MISSPEC)
        if mis >= amb:
            hits += 1
    assert hits > 15, f"finite index matched the ambiguity-only rule on only {hits}/31 seeds"


# ---------------------------------------------------------------------------
# 11. byte-deterministic command-line output
# ---------------------------------------------------------------------------


def test_criterion_11_cli_determinism(tmp_path):
    train = str(tmp_path / "train.csv")
    test = str(tmp_path / "test.csv")
    assert cli_main(
        ["--seed", "3", "--out", train, "generate", "--kind", "trunc-normal",
         "--n", "40", "--mu", "6", "--sigma", "2"]
    ) == 0
    assert cli_main(
        ["--seed", "4", "--out", test, "generate", "--kind", "trunc-normal",
         "--n", "30", "--mu", "5", "--sigma", "2"]
    ) == 0

    batteries = {
        "solve.json": ["solve", "--price", "10", "--cost", "3", "--mu", "4",
                       "--sigma", "2", "--alpha", "4"],
        "solve.csv": ["--format", "csv", "solve", "--price", "10", "--cost", "3",
                      "--mu", "4", "--sigma", "2", "--alpha", "inf"],
        "sweep.csv": ["--format", "csv", "sweep", "--price", "10", "--cost", "3",
                      "--axis", "alpha", "--train", train, "--test", test,
                      "--alpha-grid", "0.5,2,8"],
        "cv.json": ["--seed", "11", "calibrate", "--method", "cv", "--price", "10",
                    "--cost", "3", "--train", train, "--alpha-grid", "0.5,2,8"],
        "formula.json": ["--seed", "11", "calibrate", "--method", "formula",
                         "--price", "10", "--cost", "3", "--train", train,
                         "--test", test],
        "stress.json": ["--seed", "11", "calibrate", "--method", "stress",
                        "--price", "10", "--cost", "3", "--train", train,
                        "--test", test, "--alpha-grid", "0.5,2,8"],
        "evaluate.json": ["evaluate", "--price", "10", "--cost", "3",
                          "--quantity", "4.25", "--test", test],
        "experiment.json": ["--seed", "7", "experiment", "--price", "10",
                            "--cost", "3", "--train", train, "--test", test,
                            "--alpha-grid", "0.5,2,8"],
        "oracle.json": ["--seed", "5", "oracle-check", "--instances", "4",
                        "--grid-points", "81", "--q-points", "41"],
    }
    for name, argv in batteries.items():
        first = str(tmp_path / f"first-{name}")
        second = str(tmp_path / f"second-{name}")
        assert cli_main(["--out", first] + argv[:1] + argv[1:]) == 0
        assert cli_main(["--out", second] + argv) == 0
        a, b = open(first, "rb").read(), open(second, "rb").read()
        assert a == b and len(a) > 0, f"{name} differed across runs"

    # thread-count independence: the same experiment through the real
    # process entry point under different BLAS/OpenMP thread settings
    outputs = []
    for threads in ("1", "4"):
        env = dict(os.environ)
        env["OMP_NUM_THREADS"] = threads
        env["OPENBLAS_NUM_THREADS"] = threads
        proc = subprocess.run(
            [sys.executable, "-m", "robustnv.cli", "--seed", "7",
             "experiment", "--price", "10", "--cost", "3", "--train", train,
             "--test", test, "--alpha-grid", "0.5,2,8"],
            capture_output=True,
            env=env,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
