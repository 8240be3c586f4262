"""Grid oracle: feasibility, tie-breaking, and agreement with closed forms."""

import numpy as np
import pytest

from robustnv import (
    CostStructure,
    DiscreteDistribution,
    InfeasibleError,
    InputError,
    MomentSpec,
    ell,
    profit,
    scarf_quantity,
    worst_case_transformed_expectation,
)
from robustnv.oracle import (
    Moment,
    MomentConstraint,
    MomentConstraintSet,
    MomentLawFamily,
    Relation,
    grid_argmax,
    inner_min_oracle,
    worst_case_expectation_oracle,
)

COST = CostStructure(price=10.0, cost=3.0)
M42 = MomentSpec(mean=4.0, std=2.0)


def mean_second_set(grid, mu, m2):
    return MomentConstraintSet(
        grid=grid,
        constraints=(
            MomentConstraint(Moment.MEAN, Relation.EQ, mu),
            MomentConstraint(Moment.SECOND_MOMENT, Relation.EQ, m2),
        ),
    )


def test_identity_objective_recovers_the_mean():
    grid = np.linspace(0, 10, 101)
    cs = MomentConstraintSet(
        grid=grid, constraints=(MomentConstraint(Moment.MEAN, Relation.EQ, 4.0),)
    )
    res = worst_case_expectation_oracle(lambda v: v, cs)
    assert res.value == pytest.approx(4.0, abs=1e-12)
    assert res.argmin.mean() == pytest.approx(4.0, abs=1e-12)


def test_profit_objective_on_fine_grid_matches_two_point_law():
    # mu=4, sigma=2, q=2: exact inner value is 10 at atoms {0, 5}
    grid = np.linspace(0.0, 12.0, 1201)
    cs = mean_second_set(grid, 4.0, 20.0)
    res = worst_case_expectation_oracle(lambda v: profit(2.0, v, COST), cs)
    assert res.value == pytest.approx(10.0, abs=res.grid_error_bound)
    assert res.value == pytest.approx(10.0, abs=1e-9)  # atoms land on the grid
    assert res.argmin.support == pytest.approx((0.0, 5.0))
    assert res.argmin.weights == pytest.approx((0.2, 0.8))


def test_transformed_objective_on_fine_grid_matches_closed_form():
    grid = np.linspace(0.0, 12.0, 1201)
    cs = mean_second_set(grid, 4.0, 20.0)
    alpha, q = 4.0, 4.247872
    res = worst_case_expectation_oracle(lambda v: ell(alpha, q, v, COST), cs)
    closed = worst_case_transformed_expectation(alpha, q, M42, COST)
    assert abs(res.value - closed) <= res.grid_error_bound
    assert abs(res.value - closed) <= 1e-4


def test_oracle_argmin_satisfies_constraints():
    rng = np.random.default_rng(60)
    grid = np.linspace(0, 15, 301)
    for _ in range(10):
        mu = float(rng.uniform(2, 8))
        sigma = float(rng.uniform(0.3, 0.6)) * mu
        cs = mean_second_set(grid, mu, mu * mu + sigma * sigma)
        fv = rng.standard_normal(grid.size)
        res = worst_case_expectation_oracle(lambda v, fv=fv: np.interp(v, grid, fv), cs)
        law = res.argmin
        assert len(law.support) <= 3
        assert law.mean() == pytest.approx(mu, abs=1e-7)
        assert law.second_moment() == pytest.approx(
            mu * mu + sigma * sigma, rel=1e-7
        )


def test_oracle_upper_bounded_by_any_feasible_law():
    # the oracle minimizes, so no feasible grid law can do better
    grid = np.linspace(0, 10, 201)
    cs = mean_second_set(grid, 4.0, 20.0)
    res = worst_case_expectation_oracle(lambda v: profit(3.0, v, COST), cs)
    # atoms {0, 5} with weights {0.2, 0.8} are feasible on this grid
    g = DiscreteDistribution.from_pairs([0.0, 5.0], [0.2, 0.8])
    assert res.value <= g.expectation(lambda v: profit(3.0, v, COST)) + 1e-12


def test_oracle_infeasible_targets_raise():
    grid = np.linspace(0, 10, 51)
    with pytest.raises(InfeasibleError):
        worst_case_expectation_oracle(
            lambda v: v,
            MomentConstraintSet(
                grid=grid,
                constraints=(MomentConstraint(Moment.MEAN, Relation.EQ, 12.0),),
            ),
        )
    with pytest.raises(InfeasibleError):
        # second moment too small for the mean (Jensen violation)
        worst_case_expectation_oracle(lambda v: v, mean_second_set(grid, 4.0, 10.0))


def test_oracle_validation():
    with pytest.raises(InputError):
        MomentConstraintSet(grid=[3.0, 2.0], constraints=())
    with pytest.raises(InputError):
        MomentConstraintSet(grid=[], constraints=())
    with pytest.raises(InputError):
        MomentConstraintSet(
            grid=[0.0, 1.0],
            constraints=(
                MomentConstraint(Moment.MEAN, Relation.EQ, 0.5),
                MomentConstraint(Moment.MEAN, Relation.LE, 0.7),
            ),
        )


def test_inner_min_oracle_matches_closed_envelope():
    cases = [(1.0, 2.0, 3.0), (1.0, 3.0, 2.0), (1.0, 3.0, 6.0), (2.5, 1.0, 4.0)]
    for alpha, q, v in cases:
        hi = v + COST.price / (2 * alpha) + 1
        got = inner_min_oracle(alpha, q, v, COST, np.linspace(0, hi, 8001))
        assert got == pytest.approx(ell(alpha, q, v, COST), abs=5e-3)


def test_inner_min_oracle_large_alpha_recovers_profit():
    got = inner_min_oracle(1e6, 3.0, 2.0, COST, np.linspace(0, 10, 20001))
    assert got == pytest.approx(profit(3.0, 2.0, COST), abs=1e-3)


def test_grid_argmax_conventions():
    grid = np.linspace(0, 6, 13)
    q, val = grid_argmax(lambda x: -((x - 3.0) ** 2), grid)
    assert q == 3.0 and val == 0.0
    # ties resolve to the smaller abscissa
    q_tie, _ = grid_argmax(lambda x: 1.0, grid)
    assert q_tie == 0.0


def test_grid_argmax_locates_scarf_optimum():
    grid = np.arange(0.0, 8.0, 0.001)
    q, val = grid_argmax(
        lambda q: worst_case_transformed_expectation(
            1e12, float(q), M42, COST
        ),
        grid,
    )
    r = scarf_quantity(M42, COST)
    assert abs(q - r.quantity) <= 0.001
    assert val == pytest.approx(r.value, abs=1e-4)


def test_family_agrees_with_streaming_oracle():
    grid = np.linspace(0, 12, 121)
    cs = mean_second_set(grid, 4.0, 20.0)
    family = MomentLawFamily(cs)
    assert family.n_laws > 0
    for q in (0.5, 2.0, 4.5):
        fv = np.array([ell(3.0, q, float(v), COST) for v in grid])
        val, row = family.minimize(fv)
        res = worst_case_expectation_oracle(
            lambda v, q=q: ell(3.0, q, v, COST), cs
        )
        assert val == pytest.approx(res.value, abs=1e-10)
        law = family.law(row)
        assert law.mean() == pytest.approx(4.0, abs=1e-7)


def test_family_minimize_many_matches_single_calls():
    grid = np.linspace(0, 12, 97)
    cs = mean_second_set(grid, 4.0, 20.0)
    family = MomentLawFamily(cs)
    rng = np.random.default_rng(17)
    objectives = rng.standard_normal((8, grid.size))
    values, rows = family.minimize_many(objectives)
    for k in range(8):
        v_single, r_single = family.minimize(objectives[k])
        assert values[k] == pytest.approx(v_single, abs=1e-12)
        assert rows[k] == r_single


def test_family_values_only_minimum_is_bit_equal_to_minimize_many():
    grid = np.linspace(0, 16, 161)
    family = MomentLawFamily(mean_second_set(grid, 4.0, 20.0))
    rows = np.array([ell(2.5, float(q), grid, COST) for q in np.linspace(0, 9, 42)])
    noise = np.random.default_rng(18).standard_normal((8, grid.size))
    for objectives in (rows, noise, rows[:0]):
        want = family.minimize_many(objectives)[0]
        assert family._min_values(objectives).tobytes() == want.tobytes()


def test_family_grid_cap():
    grid = np.linspace(0, 10, 401)
    cs = mean_second_set(grid, 4.0, 20.0)
    with pytest.raises(InputError):
        MomentLawFamily(cs)


def test_streaming_oracle_matches_value_function_on_modest_instances():
    rng = np.random.default_rng(314)
    for _ in range(6):
        mu = float(rng.uniform(2, 6))
        sigma = float(rng.uniform(0.2, 0.6)) * mu
        p = float(rng.uniform(5, 15))
        c = p * float(rng.uniform(0.2, 0.6))
        cost = CostStructure(p, c)
        alpha = float(rng.uniform(0.5, 6))
        q = float(rng.uniform(0.2, mu + sigma))
        hull_hi = 2 * mu + 6 * sigma + p * q / alpha / mu
        grid = np.linspace(0, hull_hi, 160)
        cs = mean_second_set(grid, mu, mu * mu + sigma * sigma)
        res = worst_case_expectation_oracle(
            lambda v: ell(alpha, q, v, cost), cs
        )
        closed = worst_case_transformed_expectation(
            alpha, q, MomentSpec(mu, sigma), cost
        )
        assert abs(res.value - closed) <= res.grid_error_bound + 1e-9
