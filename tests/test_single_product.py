"""Closed-form single-product solvers: frozen values and model invariants."""

import math

import numpy as np
import pytest

import robustnv.single_product as sp
from robustnv import (
    CostStructure,
    DegenerateModelError,
    DiscreteDistribution,
    InputError,
    InternalCheckError,
    MisspecIndex,
    MomentSpec,
    Regime,
    TransformRegime,
    ambiguity_worst_case,
    ell,
    fractile_factor,
    misspec_quantity,
    misspec_worst_case,
    nominal_quantity,
    price_threshold_scan,
    profit,
    push_forward,
    scarf_quantity,
    transform,
    variance_threshold_scan,
    worst_case_transformed_expectation,
)
from robustnv.oracle import inner_min_oracle

COST = CostStructure(price=10.0, cost=3.0)
M42 = MomentSpec(mean=4.0, std=2.0)
INF = MisspecIndex.INFINITY

# printed six-decimal reference values round the last digit inconsistently in a
# few places; exact formulas are asserted at 1e-9 and printed strings at 5e-6


def two_point(mu, sigma, v1):
    """Independent two-point law with prescribed mean and std (v1 < mu)."""
    v2 = mu + sigma * sigma / (mu - v1)
    w1 = (v2 - mu) / (v2 - v1)
    return DiscreteDistribution.from_pairs([v1, v2], [w1, 1.0 - w1])


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------


def test_profit_examples():
    assert profit(2, 3, COST) == pytest.approx(14.0)
    assert profit(0, 5, CostStructure(7, 2)) == 0.0
    assert profit(5, 2, COST) == pytest.approx(5.0)


def test_profit_rejects_negative_arguments():
    with pytest.raises(InputError):
        profit(-1, 3, COST)
    with pytest.raises(InputError):
        profit(1, -3, COST)


def test_cost_structure_validation():
    with pytest.raises(InputError):
        CostStructure(price=3, cost=3)
    with pytest.raises(InputError):
        CostStructure(price=3, cost=0)
    with pytest.raises(InputError):
        CostStructure(price=-1, cost=-2)
    assert CostStructure(10, 3).kappa == pytest.approx(0.7)


def test_nominal_quantity_examples():
    u5 = DiscreteDistribution.from_pairs([1, 2, 3, 4, 5], [0.2] * 5)
    assert nominal_quantity(u5, COST) == 4.0
    assert nominal_quantity(DiscreteDistribution.point_mass(7.0), COST) == 7.0
    u2 = DiscreteDistribution.from_pairs([1, 2], [0.5, 0.5])
    assert nominal_quantity(u2, CostStructure(2, 1)) == 1.0


def test_ell_examples_match_inner_min_oracle():
    cases = [
        (1.0, 2.0, 3.0, 3.0),
        (1.0, 3.0, 2.0, -5.0),
        (1.0, 3.0, 6.0, 21.0),
    ]
    for alpha, q, v, expected in cases:
        closed = ell(alpha, q, v, COST)
        assert closed == pytest.approx(expected, abs=1e-12)
        hi = v + COST.price / (2 * alpha) + 1
        grid_val = inner_min_oracle(alpha, q, v, COST, np.linspace(0, hi, 6001))
        assert abs(closed - grid_val) <= 5e-3


def test_ell_limits():
    with pytest.raises(DegenerateModelError):
        ell(0.0, 1.0, 1.0, COST)
    assert ell(INF, 2, 3, COST) == profit(2, 3, COST)
    # large alpha: the envelope sits p^2/(4 alpha) below the profit on v <= q
    assert ell(1000.0, 3, 2, COST) == pytest.approx(profit(3, 2, COST) - 100 / 4000)


def test_ell_continuity_at_branch_seams():
    rng = np.random.default_rng(20240816)
    for _ in range(100):
        alpha = float(rng.uniform(0.2, 8))
        p = float(rng.uniform(2, 20))
        c = float(rng.uniform(0.2, 0.9)) * p
        cost = CostStructure(p, c)
        q = p / (4 * alpha) * float(rng.uniform(1.01, 3.0))  # upper branch pair
        seam = p / (2 * alpha)
        below = ell(alpha, q, seam - 1e-9, cost)
        above = ell(alpha, q, seam + 1e-9, cost)
        assert abs(below - above) < 1e-6


def test_array_ell_and_profit_are_bit_equal_to_the_scalar_forms():
    # alpha log-uniform in [1e-3, 1e15] plus 10% INFINITY, demand scales 1e-2..1e4;
    # q = 0 and the branch seam q = p*inv/4 are included, and v sits on every
    # breakpoint of ell as well as at random points
    rng = np.random.default_rng(6_000)
    for k in range(20_000):
        alpha = INF if rng.uniform() < 0.1 else float(10 ** rng.uniform(-3, 15))
        inv = sp.as_misspec_index(alpha).inv
        mu = float(10 ** rng.uniform(-2, 4))
        p = float(10 ** rng.uniform(-1, 2))
        cost = CostStructure(p, p * float(rng.uniform(0.01, 0.99)))
        q = (0.0, p * inv / 4, mu * float(rng.uniform(0.0, 3.0)))[k % 3]
        breaks = [0.0, math.sqrt(q * p * inv), p * inv / 2, q + p * inv / 4]
        v = np.concatenate([breaks, mu * rng.uniform(0.0, 3.0, 6)])
        for fn, args in ((ell, (alpha, q)), (profit, (q,))):
            want = np.array([fn(*args, float(x), cost) for x in v])
            assert fn(*args, v, cost).tobytes() == want.tobytes(), (fn, alpha, q, mu, p)


@pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
def test_array_demand_with_a_bad_entry_is_rejected(bad):
    v = np.array([0.0, 2.0, bad, 5.0])
    with pytest.raises(InputError):
        ell(4.0, 2.0, v, COST)
    with pytest.raises(InputError):
        profit(2.0, v, COST)


# ---------------------------------------------------------------------------
# transform machinery
# ---------------------------------------------------------------------------


def test_transform_examples():
    t = transform(1.0, 10.0, 0.1)
    assert t.regime is TransformRegime.QUADRATIC
    assert t.apply(2.0) == pytest.approx(0.4)

    t2 = transform(10.0, 10.0, 1.0)
    assert t2.regime is TransformRegime.MIXED
    assert t2.apply(0.4) == pytest.approx(0.16)
    assert t2.apply(1.0) == pytest.approx(0.75)

    for spec in (t, t2, transform(INF, 10.0, 1.0)):
        assert spec.apply(0.0) == 0.0


def test_transform_regime_boundary_consistency():
    # alpha exactly p/(4q) classifies as MIXED and the two pieces agree
    p, q = 10.0, 2.0
    alpha = p / (4 * q)
    t = transform(alpha, p, q)
    assert t.regime is TransformRegime.MIXED
    seam = p / (2 * alpha)
    assert t.apply(seam - 1e-12) == pytest.approx(t.apply(seam), abs=1e-9)


def test_transform_is_increasing_and_continuous():
    rng = np.random.default_rng(7)
    for _ in range(50):
        alpha = float(rng.uniform(0.1, 20))
        p = float(rng.uniform(1, 30))
        q = float(rng.uniform(0, 10))
        t = transform(alpha, p, q)
        vs = np.sort(rng.uniform(0, 15, size=40))
        images = [t.apply(v) for v in vs]
        assert all(b >= a - 1e-12 for a, b in zip(images, images[1:]))


def test_push_forward_examples():
    # infinite index: identity transform
    d5 = DiscreteDistribution.point_mass(5.0)
    assert push_forward(d5, transform(INF, 10.0, 1.0)).support == (5.0,)

    # the MIXED transform at alpha=1, p=10 needs q >= 2.5
    g = DiscreteDistribution.from_pairs([2, 8], [0.5, 0.5])
    t = transform(1.0, 10.0, 4.0)
    assert t.regime is TransformRegime.MIXED
    image = push_forward(g, t)
    assert image.support == pytest.approx((0.4, 5.5))
    assert image.weights == pytest.approx((0.5, 0.5))
    assert sum(image.weights) == pytest.approx(1.0, abs=1e-12)


def test_push_forward_merges_coincident_images():
    # both atoms of a two-point law map to the junction value p/(4 alpha)
    alpha, p = 1.0, 10.0
    t = transform(alpha, p, 4.0)
    seam = p / (2 * alpha)
    g = DiscreteDistribution.from_pairs([seam, seam + p / (4 * alpha)], [0.4, 0.6])
    image = push_forward(g, t)
    assert image.support[0] == pytest.approx(p / (4 * alpha))


def test_transform_identity_pointwise_and_in_expectation():
    rng = np.random.default_rng(99)
    for _ in range(200):
        alpha = float(rng.uniform(0.05, 15))
        p = float(rng.uniform(2, 25))
        c = p * float(rng.uniform(0.1, 0.9))
        cost = CostStructure(p, c)
        q = float(rng.uniform(0, 8))
        v = float(rng.uniform(0, 12))
        t = transform(alpha, p, q)
        assert profit(q, t.apply(v), cost) == pytest.approx(
            ell(alpha, q, v, cost), abs=1e-9
        )
        mu = float(rng.uniform(1, 8))
        sigma = float(rng.uniform(0.1, 0.9)) * mu
        g = two_point(mu, sigma, float(rng.uniform(0, mu * 0.95)))
        lhs = push_forward(g, t).expectation(lambda u: profit(q, u, cost))
        rhs = g.expectation(lambda u: ell(alpha, q, u, cost))
        assert lhs == pytest.approx(rhs, abs=1e-9)


# ---------------------------------------------------------------------------
# ambiguity-only solver
# ---------------------------------------------------------------------------


def test_scarf_frozen_example():
    r = scarf_quantity(M42, COST)
    assert r.regime is Regime.AMBIGUITY_ONLY
    assert r.quantity == pytest.approx(4.872872, abs=5e-6)
    assert r.quantity == pytest.approx(4 + 2 * fractile_factor(0.3), abs=1e-12)
    assert r.value == pytest.approx(4 * 7 - 2 * math.sqrt(21), abs=1e-9)
    assert r.value == pytest.approx(18.834850, abs=5e-6)


def test_scarf_zero_variance_orders_the_mean():
    r = scarf_quantity(MomentSpec(4, 0), COST)
    assert r.quantity == 4.0
    assert r.value == pytest.approx(28.0)
    assert r.worst_case.support == (4.0,)


def test_scarf_degenerate_branch():
    r = scarf_quantity(MomentSpec(1, 3), CostStructure(10, 9))
    assert r.regime is Regime.DEGENERATE
    assert r.quantity == 0.0
    assert r.value == 0.0
    # worst case at q=0: atoms {0, (mu^2+sigma^2)/mu}
    assert r.worst_case.support == pytest.approx((0.0, 10.0))
    assert r.worst_case.weights == pytest.approx((0.9, 0.1))


def test_scarf_worst_case_attains_the_value():
    rng = np.random.default_rng(31)
    for _ in range(100):
        mu = float(rng.uniform(0.5, 10))
        sigma = float(rng.uniform(0, 0.9)) * mu
        p = float(rng.uniform(2, 30))
        c = p * float(rng.uniform(0.05, 0.95))
        cost = CostStructure(p, c)
        m = MomentSpec(mu, sigma)
        r = scarf_quantity(m, cost)
        attained = r.worst_case.expectation(lambda v: profit(r.quantity, v, cost))
        assert attained == pytest.approx(r.value, abs=1e-8)
        assert r.worst_case.mean() == pytest.approx(mu, abs=1e-9 * max(1, mu))
        assert r.worst_case.second_moment() == pytest.approx(
            m.second_moment, rel=1e-9, abs=1e-9
        )


def test_scarf_is_misspec_quantity_at_the_infinite_index():
    rng = np.random.default_rng(77)
    checked = {"zero_variance": 0, "degenerate": 0, "ambiguity_only": 0}
    for i in range(300):
        mu = float(10 ** rng.uniform(-2, 4))
        sigma = 0.0 if i % 10 == 0 else mu * float(10 ** rng.uniform(-4, 0.7))
        p = float(rng.uniform(1, 40))
        cost = CostStructure(p, p * float(rng.uniform(0.02, 0.98)))
        m = MomentSpec(mu, sigma)
        r = scarf_quantity(m, cost)
        assert r == misspec_quantity(INF, m, cost)
        if sigma == 0.0:
            checked["zero_variance"] += 1
        if r.regime is Regime.DEGENERATE:
            checked["degenerate"] += 1
            assert r.quantity == 0.0 and r.value == 0.0
        else:
            checked["ambiguity_only"] += 1
            assert r.regime is Regime.AMBIGUITY_ONLY
            # Scarf's closed-form value mu(p - c) - sigma sqrt(c(p - c))
            c = cost.cost
            closed = mu * (p - c) - sigma * math.sqrt(c * (p - c))
            assert r.value == pytest.approx(closed, rel=1e-11, abs=1e-11 * mu * p)
    assert min(checked.values()) >= 10, checked


def _count_checked_evaluation(monkeypatch):
    """Count the calls of each stage of the checked evaluation."""
    calls = {}

    def counted(obj, name):
        inner = getattr(obj, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(obj, name, wrapper)

    counted(sp, "worst_case_transformed_expectation")  # the value function
    counted(sp, "_worst_case_law")
    counted(sp, "_check_moments")
    counted(sp, "_check_attainment")
    counted(sp, "_dual_certificate")
    counted(sp, "_check_certificate")
    return calls


@pytest.mark.parametrize("alpha", [0.5, 4.0, 1e6, INF])
def test_one_solve_builds_and_checks_the_report_once(alpha, monkeypatch):
    calls = _count_checked_evaluation(monkeypatch)
    misspec_quantity(alpha, M42, COST)
    assert calls == dict.fromkeys(calls, 1) and len(calls) == 6, calls


@pytest.mark.parametrize("alpha", [0.5, 4.0, 1e6, INF])
def test_quantity_only_solve_checks_once_and_builds_no_law(alpha, monkeypatch):
    report = misspec_quantity(alpha, M42, COST)
    calls = _count_checked_evaluation(monkeypatch)
    laws = []
    post_init = DiscreteDistribution.__post_init__
    monkeypatch.setattr(
        DiscreteDistribution, "__post_init__", lambda d: laws.append(d) or post_init(d)
    )
    assert sp._solve(alpha, M42, COST) == (report.quantity, report.value)
    assert calls == dict.fromkeys(calls, 1) and len(calls) == 6, calls
    assert laws == []


def _random_instance(rng):
    """Seeded instance over the whole range: mu 1e-2..1e4, sigma/mu 1e-6..3
    (10% sigma = 0), p 0.1..100, alpha 1e-3..1e15 * p/10 (10% INFINITY and
    a few alpha = 0)."""
    mu = float(10 ** rng.uniform(-2, 4))
    sigma = 0.0 if rng.uniform() < 0.1 else mu * float(10 ** rng.uniform(-6, math.log10(3)))
    p = float(10 ** rng.uniform(-1, 2))
    cost = CostStructure(p, p * float(rng.uniform(0.01, 0.99)))
    u = rng.uniform()
    if u < 0.1:
        alpha = INF
    elif u < 0.11:
        alpha = 0.0
    else:
        alpha = float(10 ** rng.uniform(-3, 15)) * p / 10
    return alpha, MomentSpec(mu, sigma), cost


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the exception class is the outcome to compare
        return type(exc)


def test_quantity_only_solve_is_bit_equal_to_the_report():
    rng = np.random.default_rng(20_000)
    for _ in range(20_000):
        alpha, m, cost = _random_instance(rng)
        report = _outcome(misspec_quantity, alpha, m, cost)
        want = report if isinstance(report, type) else (report.quantity, report.value)
        assert _outcome(sp._solve, alpha, m, cost) == want, (alpha, m, cost)


def test_expected_profit_is_bit_equal_to_the_expectation():
    rng = np.random.default_rng(3_000)
    for _ in range(3_000):
        scale = float(10 ** rng.uniform(-2, 4))
        n = int(rng.integers(1, 200))
        dist = DiscreteDistribution.from_samples(scale * rng.gamma(2.0, 0.5, size=n))
        p = float(10 ** rng.uniform(-1, 2))
        cost = CostStructure(p, p * float(rng.uniform(0.01, 0.99)))
        q = scale * float(rng.uniform(0.0, 3.0))
        want = dist.expectation(lambda v: profit(q, v, cost))
        assert sp._expected_profit(dist, q, cost) == want


def test_perturbed_atom_weight_fails_the_quantity_only_solve(monkeypatch):
    law = sp._worst_case_law

    def perturbed(*args):
        support, weights = law(*args)
        k = int(np.argmax(weights))
        bumped = weights[k] * (1.0 + 1e-6)
        return support, weights[:k] + (bumped,) + weights[k + 1 :]

    monkeypatch.setattr(sp, "_worst_case_law", perturbed)
    rng = np.random.default_rng(7)
    solved = 0
    while solved < 300:
        alpha, m, cost = _random_instance(rng)
        if alpha == 0.0:
            continue
        with pytest.raises(InternalCheckError):
            sp._solve(alpha, m, cost)
        solved += 1


def test_near_zero_variance_certificate_found_instance_certifies():
    # the identity's terms grow like mu/sigma ~ 6e5 here; the value is 0.8169
    m = MomentSpec(12.611107123231836, 2.1052261483191464e-05)
    cost = CostStructure(17.52857817621089, 16.185991050256128)
    r = misspec_quantity(0.06705963691850146, m, cost)
    assert r.duals and r.value == pytest.approx(0.81688022, abs=1e-8)


def test_near_zero_variance_certificates_pass_their_check():
    rng = np.random.default_rng(606)
    for _ in range(1500):
        mu = float(10 ** rng.uniform(-2, 4))
        sigma = mu * float(10 ** rng.uniform(-10, -2))
        p = float(10 ** rng.uniform(-1, 2))
        cost = CostStructure(p, p * float(rng.uniform(0.01, 0.99)))
        alpha = INF if rng.uniform() < 0.1 else float(10 ** rng.uniform(-3, 12)) * p / 10
        misspec_quantity(alpha, MomentSpec(mu, sigma), cost)  # raises on a failed check


@pytest.mark.parametrize("alpha", [4.0, INF])
def test_perturbed_certificate_is_rejected(alpha):
    r = misspec_quantity(alpha, M42, COST)
    sp._check_certificate(r.duals, r.value, M42)
    bad = tuple((k, v * (1.0 + 1e-6) if k == "r_alpha" else v) for k, v in r.duals)
    with pytest.raises(InternalCheckError, match="dual certificate mismatch"):
        sp._check_certificate(bad, r.value, M42)


def test_nan_fails_each_solve_check():
    nan = math.nan
    with pytest.raises(InternalCheckError):
        sp._check_moments(((nan, 5.0), (0.2, 0.8)), M42)
    with pytest.raises(InternalCheckError):
        sp._check_attainment((0.0, 5.0), (0.2, 0.8), MisspecIndex(4.0), 2.0, nan, COST)
    with pytest.raises(InternalCheckError):
        sp._check_certificate((("s_alpha", nan), ("r_alpha", 1.0), ("t_alpha", 0.0)), 1.0, M42)


def test_footnote_two_point_law_example():
    wc = ambiguity_worst_case(2.0, M42)
    assert wc.support == pytest.approx((0.0, 5.0))
    assert wc.weights == pytest.approx((0.2, 0.8))


# ---------------------------------------------------------------------------
# value function
# ---------------------------------------------------------------------------


def test_value_function_frozen_points():
    assert worst_case_transformed_expectation(4.0, 4.247872, M42, COST) == pytest.approx(
        14.4598, abs=1e-3
    )
    assert worst_case_transformed_expectation(INF, 4.872872, M42, COST) == pytest.approx(
        18.834850, abs=5e-6
    )
    for alpha in (0.3, 1.0, 4.0, INF):
        assert worst_case_transformed_expectation(alpha, 0.0, M42, COST) == 0.0


def test_value_function_infinite_index_branch_continuity():
    b = M42.second_moment / (2 * M42.mean)  # 2.5
    lo = worst_case_transformed_expectation(INF, b - 1e-10, M42, COST)
    hi = worst_case_transformed_expectation(INF, b + 1e-10, M42, COST)
    assert lo == pytest.approx(hi, abs=1e-7)


def test_value_function_monotone_in_moments():
    # non-decreasing in mu, non-increasing in sigma at fixed (alpha, q)
    alphas = [0.5, 2.0, 8.0]
    qs = [0.5, 2.0, 5.0]
    for alpha in alphas:
        for q in qs:
            vals_mu = [
                worst_case_transformed_expectation(alpha, q, MomentSpec(mu, 1.5), COST)
                for mu in np.linspace(2, 9, 15)
            ]
            assert all(b >= a - 1e-9 for a, b in zip(vals_mu, vals_mu[1:]))
            vals_sig = [
                worst_case_transformed_expectation(alpha, q, MomentSpec(6, s), COST)
                for s in np.linspace(0.1, 3.5, 15)
            ]
            assert all(b <= a + 1e-9 for a, b in zip(vals_sig, vals_sig[1:]))


# ---------------------------------------------------------------------------
# misspecification-averse solver
# ---------------------------------------------------------------------------

# regime threshold for (mu=4, sigma=2, p=10, c=3): p / (2 (mu - sigma sqrt(3/7)))
THRESHOLD = 10.0 / (2.0 * (4.0 - 2.0 * math.sqrt(3.0 / 7.0)))


def test_misspec_quantity_frozen_examples():
    r = misspec_quantity(4.0, M42, COST)
    assert r.regime is Regime.HIGH_ALPHA
    assert r.quantity == pytest.approx(4.247872, abs=5e-6)
    assert r.quantity == pytest.approx(
        4 + 2 * fractile_factor(0.3) - 10 / 16, abs=1e-12
    )
    assert THRESHOLD == pytest.approx(1.858256, abs=5e-6)

    r1 = misspec_quantity(1.0, M42, COST)
    assert r1.regime is Regime.LOW_ALPHA
    assert r1.quantity == pytest.approx(1.898298, abs=5e-6)
    assert r1.quantity == pytest.approx(
        (16 - 4 + 16 * fractile_factor(0.3)) * 1.0 / 10.0, abs=1e-12
    )

    big = misspec_quantity(1e9, M42, COST)
    scarf = scarf_quantity(M42, COST)
    assert big.quantity == pytest.approx(scarf.quantity, rel=1e-6)


def test_misspec_regime_boundary():
    assert misspec_quantity(THRESHOLD + 1e-9, M42, COST).regime is Regime.HIGH_ALPHA
    assert misspec_quantity(THRESHOLD - 1e-9, M42, COST).regime is Regime.LOW_ALPHA
    q_hi = misspec_quantity(THRESHOLD, M42, COST).quantity
    # both branch formulas agree at the boundary
    f = fractile_factor(0.3)
    q_low_formula = (16 - 4 + 16 * f) * THRESHOLD / 10.0
    assert q_hi == pytest.approx(q_low_formula, abs=1e-9)


def test_misspec_alpha_zero_orders_nothing():
    r = misspec_quantity(0.0, M42, COST)
    assert r.quantity == 0.0
    assert r.value == 0.0
    assert r.regime is Regime.DEGENERATE


def test_misspec_degenerate_gate_for_every_alpha():
    rng = np.random.default_rng(5150)
    found = 0
    while found < 40:
        mu = float(rng.uniform(0.5, 5))
        sigma = float(rng.uniform(0.5, 4)) * mu
        p = float(rng.uniform(2, 20))
        c = p * float(rng.uniform(0.5, 0.98))
        cost = CostStructure(p, c)
        m = MomentSpec(mu, sigma)
        if cost.kappa >= sigma**2 / m.second_moment:
            continue
        found += 1
        for alpha in (0.4, 3.0, INF):
            r = misspec_quantity(alpha, m, cost)
            assert r.quantity == 0.0
            assert r.value == 0.0
            assert r.regime is Regime.DEGENERATE


def test_misspec_monotone_in_alpha_and_capped_by_ambiguity():
    rng = np.random.default_rng(20240816)
    for _ in range(150):
        mu = float(rng.uniform(1, 10))
        sigma = float(rng.uniform(0.05, 0.9)) * mu
        p = float(rng.uniform(2, 30))
        c = p * float(rng.uniform(0.05, 0.9))
        cost = CostStructure(p, c)
        m = MomentSpec(mu, sigma)
        if cost.kappa < sigma**2 / m.second_moment:
            continue
        a1, a2 = sorted(rng.uniform(0.05, 30, size=2))
        q1 = misspec_quantity(float(a1), m, cost).quantity
        q2 = misspec_quantity(float(a2), m, cost).quantity
        q_inf = scarf_quantity(m, cost).quantity
        assert q1 <= q2 + 1e-9
        assert q2 <= q_inf + 1e-9


def test_misspec_continuity_at_threshold_across_instances():
    rng = np.random.default_rng(8)
    checked = 0
    while checked < 60:
        mu = float(rng.uniform(1, 10))
        sigma = float(rng.uniform(0.05, 0.9)) * mu
        p = float(rng.uniform(2, 30))
        c = p * float(rng.uniform(0.05, 0.9))
        cost = CostStructure(p, c)
        m = MomentSpec(mu, sigma)
        kappa = cost.kappa
        if kappa < sigma**2 / m.second_moment:
            continue
        margin = mu - sigma * math.sqrt((1 - kappa) / kappa)
        if margin <= 1e-6:
            continue
        thr = p / (2 * margin)
        f = fractile_factor(1 - kappa)
        q_high = mu + sigma * f - p / (4 * thr)
        q_low = (mu * mu - sigma * sigma + 2 * mu * sigma * f) * thr / p
        assert q_high == pytest.approx(q_low, abs=1e-9 * max(1.0, abs(q_high)))
        checked += 1


def test_misspec_worst_case_frozen_example():
    g_star, transformed = misspec_worst_case(4.0, 4.247872, M42, COST)
    assert g_star.support == pytest.approx((2.690693, 7.055050), abs=5e-6)
    assert g_star.weights == pytest.approx((0.7, 0.3), abs=1e-6)
    # at the exact optimum the lower weight is exactly the critical fractile
    q_star = misspec_quantity(4.0, M42, COST).quantity
    g_exact, transformed_exact = misspec_worst_case(4.0, q_star, M42, COST)
    assert g_exact.weights == pytest.approx((0.7, 0.3), abs=1e-9)
    # weights carry over to the transformed image
    assert transformed_exact.weights == pytest.approx((0.7, 0.3), abs=1e-9)


def test_misspec_worst_case_moments_random_inputs():
    rng = np.random.default_rng(2718)
    for _ in range(120):
        mu = float(rng.uniform(0.5, 9))
        sigma = float(rng.uniform(0.02, 0.95)) * mu
        p = float(rng.uniform(2, 25))
        c = p * float(rng.uniform(0.05, 0.95))
        cost = CostStructure(p, c)
        m = MomentSpec(mu, sigma)
        alpha = float(rng.uniform(0.05, 20))
        q = float(rng.uniform(0, mu + 3 * sigma))
        g_star, transformed = misspec_worst_case(alpha, q, m, cost)
        assert g_star.mean() == pytest.approx(mu, abs=1e-9 * max(1, m.second_moment))
        assert g_star.second_moment() == pytest.approx(
            m.second_moment, abs=1e-9 * max(1, m.second_moment)
        )
        value = worst_case_transformed_expectation(alpha, q, m, cost)
        attained = transformed.expectation(lambda v: profit(q, v, cost))
        assert attained == pytest.approx(value, abs=1e-8 * max(1, abs(value)))


def test_misspec_optimum_worst_case_weights_are_the_fractile():
    rng = np.random.default_rng(4096)
    checked = 0
    while checked < 50:
        mu = float(rng.uniform(1, 8))
        sigma = float(rng.uniform(0.05, 0.8)) * mu
        p = float(rng.uniform(3, 25))
        c = p * float(rng.uniform(0.1, 0.9))
        cost = CostStructure(p, c)
        m = MomentSpec(mu, sigma)
        if cost.kappa < sigma**2 / m.second_moment:
            continue
        alpha = float(rng.uniform(0.1, 25))
        r = misspec_quantity(alpha, m, cost)
        if r.quantity <= 1e-9 or len(r.worst_case.weights) != 2:
            continue
        checked += 1
        assert r.worst_case.weights[0] == pytest.approx(cost.kappa, abs=1e-7)


def test_solve_report_duals_certify_the_value():
    rng = np.random.default_rng(1234)
    for _ in range(80):
        mu = float(rng.uniform(1, 9))
        sigma = float(rng.uniform(0.05, 0.9)) * mu
        p = float(rng.uniform(2, 30))
        c = p * float(rng.uniform(0.1, 0.9))
        cost = CostStructure(p, c)
        m = MomentSpec(mu, sigma)
        alpha = float(rng.uniform(0.05, 25))
        r = misspec_quantity(alpha, m, cost)
        if not r.duals:
            continue
        s, rr, t = (r.dual(k) for k in ("s_alpha", "r_alpha", "t_alpha"))
        assert s * mu - rr * m.second_moment - t == pytest.approx(
            r.value, abs=1e-8 * max(1, abs(r.value))
        )


# ---------------------------------------------------------------------------
# numerical stability across alpha and demand scale
# ---------------------------------------------------------------------------


def test_large_alpha_worst_case_attains_the_value():
    # off Q the value 0.5*alpha*(w - rad) cancels as alpha grows; the
    # rationalized 2 mu^2 p q/(w + rad) does not
    m, cost = MomentSpec(100, 1), CostStructure(10, 3)
    g_star, transformed = misspec_worst_case(1e6, 0.3, m, cost)
    assert g_star.mean() == pytest.approx(100, abs=1e-9 * m.second_moment)
    attained = transformed.expectation(lambda v: profit(0.3, v, cost))
    assert attained == pytest.approx(
        worst_case_transformed_expectation(1e6, 0.3, m, cost), abs=1e-9
    )
    # at alpha = 1e12 the value is p q mu^2/(mu^2 + sigma^2) - c q to 1e-12
    value = worst_case_transformed_expectation(1e12, 0.3, m, cost)
    assert value == pytest.approx(2.09970003, abs=1e-9)


@pytest.mark.parametrize(
    "alpha, mu, price, cost",
    [
        (0.19320111457048228, 140.61194372178394, 5.627221275874181, 1.0834211511725373),
        (0.04665528588572574, 12.48566025610184, 2.0955789028174587, 1.019428800099878),
    ],
)
def test_zero_variance_solves_certify(alpha, mu, price, cost):
    # at sigma = 0 the off-Q radical is |p q/alpha - mu^2|; an ulp-sized
    # radical must read as degenerate, not feed a division in the certificate
    m, cs = MomentSpec(mu, 0.0), CostStructure(price, cost)
    r = misspec_quantity(alpha, m, cs)
    assert r.worst_case.mean() == pytest.approx(mu, rel=1e-12)
    assert r.value == pytest.approx(
        ell(alpha, r.quantity, mu, cs), abs=1e-9 * max(1.0, abs(r.value))
    )


def test_near_gate_solve_attains_the_value():
    # kappa barely above sigma^2/(mu^2 + sigma^2): a tiny quantity at a
    # demand scale in the thousands
    m = MomentSpec(5307.720206434114, 5515.79842624879)
    cost = CostStructure(7.9813760290752365, 3.83730564345852)
    r = misspec_quantity(19.575646044264236, m, cost)
    assert r.regime is Regime.LOW_ALPHA
    attained = r.transformed_worst_case.expectation(
        lambda v: profit(r.quantity, v, cost)
    )
    assert attained == pytest.approx(r.value, abs=1e-9)


def test_tiny_weight_atom_is_kept():
    # the far atom of this law weighs ~1e-16 but carries ~3e-9 of the second
    # moment; dropping it breaks the moment constraints
    m = MomentSpec(0.011769666397322015, 5.548449750499481e-05)
    cost = CostStructure(9.857047985967593, 2.5666538934148426)
    g_star, _ = misspec_worst_case(1e-3, 0.006321853907569039, m, cost)
    assert len(g_star.support) == 2 and 0.0 < g_star.weights[1] < 1e-15
    assert g_star.second_moment() == pytest.approx(m.second_moment, rel=1e-9)


def test_value_function_stable_and_monotone_over_alpha_and_scale():
    rng = np.random.default_rng(20240511)
    for _ in range(250):
        mu = float(10 ** rng.uniform(-2, 4))
        sigma = 0.0 if rng.uniform() < 0.1 else mu * float(10 ** rng.uniform(-6, 0.5))
        p = float(rng.uniform(1, 20))
        cost = CostStructure(p, p * float(rng.uniform(0.05, 0.95)))
        m = MomentSpec(mu, sigma)
        q = mu * float(10 ** rng.uniform(-3, 0.7))  # reaches both branches
        alphas = sorted(10 ** rng.uniform(-3, 15, size=8)) + [1e15, INF]
        values = []
        for alpha in alphas:
            misspec_worst_case(alpha, q, m, cost)  # raises if the law misses
            values.append(worst_case_transformed_expectation(alpha, q, m, cost))
        tol = 1e-9 * max(1.0, abs(values[-1]))
        assert all(b >= a - tol for a, b in zip(values, values[1:])), (q, m, cost)
        assert values[-2] == pytest.approx(values[-1], abs=tol)


# ---------------------------------------------------------------------------
# threshold scans
# ---------------------------------------------------------------------------


def test_price_scan_finds_the_regime_switch_peak():
    # the q*(p) curve rises through the high-alpha branch and falls on the
    # low-alpha branch, so the turn sits at the branch switch: the fixed point
    # of p = 2*alpha*(mu - sigma*sqrt(c/(p-c))), here ~24.53 (oracle-verified)
    grid = np.round(np.arange(3.1, 60.0001, 0.1), 10)
    turn = price_threshold_scan(4.0, MomentSpec(4, 2.5), 3.0, grid)
    assert turn is not None
    assert abs(turn - 24.5) <= 0.1001
    p_star = 24.5
    for _ in range(60):
        p_star = 2 * 4.0 * (4 - 2.5 * math.sqrt(3 / (p_star - 3)))
    assert abs(turn - p_star) <= 0.1001


def test_price_scan_ambiguity_only_never_turns():
    grid = np.round(np.arange(3.1, 40.0001, 0.1), 10)
    assert price_threshold_scan(INF, MomentSpec(4, 2.5), 3.0, grid) is None


def test_price_scan_low_alpha_instance():
    # single peak of the low-alpha branch near p ~ 7 (see decisions ledger for
    # why the in-source lower bound claiming >= 12 is not attainable)
    grid = np.round(np.arange(3.2, 60.0001, 0.1), 10)
    turn = price_threshold_scan(1.5, M42, 3.0, grid)
    assert turn is not None
    assert abs(turn - 7.0) <= 0.2


def test_price_scan_input_validation():
    with pytest.raises(InputError):
        price_threshold_scan(4.0, M42, 3.0, [])
    with pytest.raises(InputError):
        price_threshold_scan(4.0, M42, 3.0, [5.0, 4.0])
    with pytest.raises(InputError):
        price_threshold_scan(4.0, M42, 3.0, [2.0, 4.0])  # first price below c
    assert price_threshold_scan(4.0, M42, 3.0, [12.0]) is None  # documented


def test_variance_scan_reproduces_the_turn():
    grid = np.round(np.arange(0.0, 6.1001, 0.01), 10)
    turn = variance_threshold_scan(1.5, COST, 4.0, grid)
    assert turn is not None
    assert abs(turn - 8 / math.sqrt(21)) <= 0.02


def test_variance_scan_ambiguity_only_never_turns():
    grid = np.round(np.arange(0.0, 6.1001, 0.01), 10)
    assert variance_threshold_scan(INF, COST, 4.0, grid) is None


def test_variance_scan_scope_and_conventions():
    with pytest.raises(InputError):
        variance_threshold_scan(1.5, CostStructure(10, 6), 4.0, [0.5, 1.0])  # kappa<1/2
    with pytest.raises(InputError):
        variance_threshold_scan(1.5, COST, 4.0, [0.5, 20.0])  # outside scope
    assert variance_threshold_scan(1.5, COST, 4.0, [1.0]) is None  # documented
