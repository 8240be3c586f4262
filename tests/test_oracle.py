"""Grid oracle: feasibility, tie-breaking, and agreement with closed forms."""

import copy
import re
import tracemalloc

import numpy as np
import pytest

from robustnv import (
    CostStructure,
    DiscreteDistribution,
    InfeasibleError,
    InputError,
    MomentSpec,
    PortfolioSpec,
    ProductSpec,
    dual_objective,
    dual_objective_curve,
    ell,
    price_threshold_scan,
    product_quantities,
    profit,
    scarf_quantity,
    variance_threshold_scan,
    worst_case_transformed_expectation,
)
from robustnv import oracle
from robustnv.oracle import (
    Moment,
    MomentConstraint,
    MomentConstraintSet,
    MomentLawFamily,
    Relation,
    grid_argmax,
    inner_min_oracle,
    wasserstein_dual_oracle,
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
    # a one-point grid has no spacing, so no grid error
    one = MomentConstraintSet(
        grid=(4.0,), constraints=(MomentConstraint(Moment.MEAN, Relation.EQ, 4.0),)
    )
    res = worst_case_expectation_oracle(lambda v: v, one)
    assert (res.value, res.grid_error_bound) == (4.0, 0.0)


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
    with pytest.raises(InfeasibleError):
        # both targets above the grid: no atom can sit on their high side
        worst_case_expectation_oracle(
            lambda v: v, mean_second_set(np.linspace(0, 3, 31), 4.0, 20.0)
        )


def test_constraint_names_given_as_strings_are_the_enum_members():
    grid = np.linspace(0, 10, 41)
    values = []
    for moment, relation in ((Moment.MEAN, Relation.EQ), ("MEAN", "EQ")):
        c = MomentConstraint(moment, relation, 4.0)
        assert c.moment is Moment.MEAN and c.relation is Relation.EQ
        cs = MomentConstraintSet(grid=grid, constraints=(c,))
        values.append(worst_case_expectation_oracle(lambda v: min(v, 5.0), cs).value)
    assert values == [2.0, 2.0]  # left a string, MEAN read as a second-moment bound: 0.0
    with pytest.raises(InputError, match="Moment must be one of MEAN, SECOND_MOMENT, got 'mean'"):
        MomentConstraint("mean", "EQ", 4.0)


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


@pytest.mark.parametrize(
    "values",
    [[-np.inf, -np.inf], [np.nan, np.nan], [1.0, np.nan], [np.inf, 1.0]],
    ids=["all-minus-inf", "all-nan", "one-nan", "one-inf"],
)
def test_grid_argmax_rejects_a_non_finite_value(values):
    with pytest.raises(InputError, match="value must be finite on the grid"):
        grid_argmax(lambda q: values[int(q)], [0.0, 1.0])


@pytest.mark.parametrize(
    "q, v, u_grid, message",
    [
        (3.0, 2.0, [0.0, np.nan, 4.0], "every u_grid point must be finite"),
        (3.0, 2.0, [0.0, np.inf], "every u_grid point must be finite"),
        (3.0, 2.0, [-np.inf, 4.0], "every u_grid point must be finite"),
        (-1.0, 2.0, [0.0, 4.0], "q must be >= 0"),
        (np.nan, 2.0, [0.0, 4.0], "q must be finite"),
        (3.0, -0.5, [0.0, 4.0], "v must be >= 0"),
        (3.0, np.inf, [0.0, 4.0], "v must be finite"),
    ],
    ids=["nan-u", "inf-u", "minus-inf-u", "negative-q", "nan-q", "negative-v", "inf-v"],
)
def test_inner_min_oracle_rejects_points_outside_its_domain(q, v, u_grid, message):
    with pytest.raises(InputError, match=message):
        inner_min_oracle(1.0, q, v, COST, u_grid)


@pytest.mark.parametrize(
    "gammas, psis, us, message",
    [
        ([0.5], [np.nan], [0.0, 4.0], "every psi_grid point must be finite"),
        ([0.5], [1.0, np.inf], [0.0, 4.0], "every psi_grid point must be finite"),
        ([0.5], [1.0], [0.0, np.nan], "every u_grid point must be finite"),
        ([0.0], [1.0], [0.0, np.inf], "every u_grid point must be finite"),
        ([0.0], [1.0], [-np.inf, 4.0], "every u_grid point must be finite"),
    ],
    ids=["nan-psi", "inf-psi", "nan-u", "inf-u-at-gamma-0", "minus-inf-u-at-gamma-0"],
)
def test_wasserstein_dual_oracle_rejects_a_non_finite_grid_point(gammas, psis, us, message):
    demand = DiscreteDistribution.from_samples([1.0, 2.0, 4.0])
    with pytest.raises(InputError, match=message):
        wasserstein_dual_oracle(demand, 0.5, 2.0, COST, gammas, psis, us)


_DEMAND = DiscreteDistribution.from_samples([1.0, 2.0, 4.0])
_PLAN = PortfolioSpec((ProductSpec(10.0, 3.0, 4.0),), 40.0, 2.0)

# every oracle and scan grid, as (entry point, the name its errors give, call)
_GRID_ENTRIES = [
    ("MomentConstraintSet", "grid", lambda g: MomentConstraintSet(grid=g, constraints=())),
    ("inner_min_oracle", "u_grid", lambda g: inner_min_oracle(1.0, 3.0, 2.0, COST, g)),
    ("wasserstein_psi", "psi_grid",
     lambda g: wasserstein_dual_oracle(_DEMAND, 0.5, 2.0, COST, [0.5], g, [0.0, 4.0])),
    ("wasserstein_u", "u_grid",
     lambda g: wasserstein_dual_oracle(_DEMAND, 0.5, 2.0, COST, [0.5], [1.0, 2.0], g)),
    ("grid_argmax", "q_grid", lambda g: grid_argmax(lambda q: 1.0, g)),
    ("dual_objective", "grid", lambda g: dual_objective(0.5, _PLAN, g)),
    ("dual_objective_curve", "grid", lambda g: dual_objective_curve([0.5, 1.0], _PLAN, g)),
    ("price_scan", "p_grid", lambda g: price_threshold_scan(4.0, M42, 3.0, g)),
    ("variance_scan", "sigma_grid", lambda g: variance_threshold_scan(1.5, COST, 4.0, g)),
]
_BAD_GRIDS = [
    ("empty", [], "must be non-empty"),
    ("nan", [1.0, np.nan], "point must be finite, got nan"),
    ("inf", [1.0, np.inf], "point must be finite, got inf"),
    ("minus-inf", [-np.inf, 1.0], "point must be finite, got -inf"),
    ("negative", [-1.0, 2.0], "point must be >= 0, got -1.0"),
    ("unsorted", [2.0, 1.0], "must be strictly increasing"),
    ("duplicate", [1.0, 1.0], "must be strictly increasing"),
    ("2-D", np.array([[0.0, 1.0], [2.0, 3.0]]), "must be a 1-D sequence of finite numbers"),
    ("string", "grid", "must be a 1-D sequence of finite numbers"),
]
_GRID_CASES = [
    pytest.param(call, grid, rf"\b{name} {text}", id=f"{entry}-{bad}")
    for entry, name, call in _GRID_ENTRIES
    for bad, grid, text in _BAD_GRIDS
]
# at gamma = 0 an infinite radius made the penalty 0 * inf = nan
_INFINITE_THETA = pytest.param(
    lambda g: wasserstein_dual_oracle(_DEMAND, np.inf, 2.0, COST, [0.0, 0.5], [1.0, 2.0], g),
    [0.0, 2.0, 4.0],
    "theta must be finite, got inf",
    id="wasserstein-infinite-theta",
)


@pytest.mark.parametrize("call, grid, message", _GRID_CASES + [_INFINITE_THETA])
def test_every_grid_entry_point_rejects_a_bad_grid_by_name(call, grid, message):
    with pytest.raises(InputError, match=message):
        call(grid)


_NOT_A_NUMBER = "float\\(\\) argument must be a string or a real number"
_EQ_MEAN = MomentConstraint(Moment.MEAN, Relation.EQ, 0.5)
# arguments that float() rejects, as (call, the message's start)
_NON_NUMERIC_ARGUMENTS = [
    pytest.param(lambda: dual_objective_curve(["a"], _PLAN, [0.0, 4.0, 8.0]),
                 "lambdas must be a 1-D sequence of finite numbers: could not convert string",
                 id="curve-string-lambda"),
    pytest.param(lambda: dual_objective_curve([10**400], _PLAN, [0.0, 4.0, 8.0]),
                 "lambdas must be a 1-D sequence of finite numbers: int too large",
                 id="curve-huge-int-lambda"),
    pytest.param(lambda: dual_objective_curve(None, _PLAN, [0.0, 4.0, 8.0]),
                 "lambdas must be a 1-D sequence of finite numbers: 'NoneType'",
                 id="curve-none-lambdas"),
    pytest.param(lambda: dual_objective(None, _PLAN, [0.0, 4.0, 8.0]),
                 "lam must be a finite number: " + _NOT_A_NUMBER, id="dual-none-lambda"),
    pytest.param(lambda: dual_objective("x", _PLAN, [0.0, 4.0, 8.0]),
                 "lam must be a finite number: could not convert string", id="dual-string-lambda"),
    pytest.param(lambda: product_quantities("x", _PLAN.products, 2.0),
                 "lambda_star must be a finite number: could not convert string",
                 id="quantities-string-multiplier"),
    pytest.param(lambda: MomentConstraint(Moment.MEAN, Relation.EQ, "abc"),
                 "bound must be a finite number: could not convert string", id="string-bound"),
    pytest.param(lambda: MomentConstraint(Moment.MEAN, Relation.EQ, None),
                 "bound must be a finite number: " + _NOT_A_NUMBER, id="none-bound"),
    pytest.param(lambda: MomentConstraintSet(grid=[0.0, 1.0], constraints=(("MEAN", "EQ", 0.5),)),
                 "constraints must hold MomentConstraint, got tuple", id="constraint-as-tuple"),
    pytest.param(lambda: MomentConstraintSet(grid=[0.0, 1.0], constraints=_EQ_MEAN),
                 "constraints must be an iterable of MomentConstraint, got MomentConstraint",
                 id="bare-constraint"),
    pytest.param(lambda: MomentConstraintSet(grid=[0.0, 1.0], constraints=0.5),
                 "constraints must be an iterable of MomentConstraint, got float",
                 id="number-as-constraints"),
]


@pytest.mark.parametrize("call, message", _NON_NUMERIC_ARGUMENTS)
def test_a_non_numeric_argument_is_an_input_error_naming_it(call, message):
    with pytest.raises(InputError, match="^" + message):
        call()


def test_a_constraint_bound_is_stored_as_a_float():
    c = MomentConstraint(Moment.MEAN, Relation.EQ, 1)
    assert type(c.bound) is float and c.bound == 1.0
    cs = MomentConstraintSet(grid=[0.0, 1.0, 2.0], constraints=[c])
    assert cs.constraints == (c,)


def _dual_at_gammas(gammas):
    return wasserstein_dual_oracle(_DEMAND, 0.5, 2.0, COST, gammas, [1.0, 2.0], [0.0, 2.0, 4.0])


@pytest.mark.parametrize(
    "gammas, message",
    [
        ([[0.1, 0.2]], "not 'list'"),  # a bare broadcast error before
        (np.array([[0.1, 0.2]]), ""),  # float()'s wording varies with numpy
        (["a"], "could not convert string to float: 'a'"),
        (5.0, "'float' object is not iterable"),
        ([10**400], "int too large to convert to float"),
        ([], None),
        ([0.5, np.nan], None),
        ([0.5, 2.0], None),
        ([-0.1], None),
    ],
    ids=["list-row", "2-D-array", "string", "scalar", "huge-int", "empty", "nan", "alpha",
         "negative"],
)
def test_wasserstein_dual_oracle_rejects_a_bad_gamma_grid_by_name(gammas, message):
    if message is None:  # the gamma rules that held before keep their messages
        message = ("gamma_grid must be non-empty" if len(gammas) == 0
                   else r"every gamma must lie in \[0, alpha\)")
    else:
        message = r"^gamma_grid must be a 1-D sequence of finite numbers: .*" + message
    with pytest.raises(InputError, match=message):
        _dual_at_gammas(gammas)


def test_wasserstein_dual_oracle_takes_gammas_in_any_order_as_floats():
    values, psis = _dual_at_gammas([0.5, 0.0, 1.5])
    for k, gamma in enumerate((0.5, 0.0, 1.5)):
        one = _dual_at_gammas([gamma])
        assert (values[k], psis[k]) == (one[0][0], one[1][0])
    # integers, a tuple and a float32 array are the same grid as the floats
    for gammas in ((0, 1), np.array([0.0, 1.0], dtype=np.float32)):
        got = _dual_at_gammas(gammas)
        want = _dual_at_gammas([0.0, 1.0])
        assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes()


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
        values, rows = family.minimize_many(fv[None])
        res = worst_case_expectation_oracle(
            lambda v, q=q: ell(3.0, q, v, COST), cs
        )
        assert values[0] == pytest.approx(res.value, abs=1e-10)
        law = _family_law(family, rows[0])
        assert law.mean() == pytest.approx(4.0, abs=1e-7)


def test_family_minimize_many_matches_the_streaming_oracle():
    grid = np.linspace(0, 12, 97)
    cs = mean_second_set(grid, 4.0, 20.0)
    family = MomentLawFamily(cs)
    rng = np.random.default_rng(17)
    objectives = rng.standard_normal((8, grid.size))
    values, rows = family.minimize_many(objectives)
    for k in range(8):
        res = worst_case_expectation_oracle(dict(zip(cs.grid, objectives[k])).__getitem__, cs)
        assert values[k] == pytest.approx(res.value, abs=1e-12)
        _assert_same_law(_family_law(family, rows[k]), res.argmin)


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


def test_streaming_and_pair_grid_caps():
    # each cap raises before any objective is read or candidate formed
    def unread(v):
        raise AssertionError("the objective was read")

    cubic = mean_second_set(np.linspace(0, 10, 1501), 4.0, 20.0)
    with pytest.raises(InputError, match=re.escape(
        "grid of 1501 points is too large for cubic enumeration (cap 1500; recommended <= 400)"
    )):
        worst_case_expectation_oracle(unread, cubic)
    pairs = MomentConstraintSet(
        grid=np.linspace(0, 10, 20001), constraints=(MomentConstraint(Moment.MEAN, Relation.EQ, 4.0),)
    )
    for build in (lambda cs: worst_case_expectation_oracle(unread, cs), MomentLawFamily):
        with pytest.raises(InputError, match="^grid of 20001 points exceeds the pair cap 20000$"):
            build(pairs)


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


# ---------------------------------------------------------------------------
# blocked enumeration against a per-index reference
# ---------------------------------------------------------------------------


def _reference_pairs(grid, constraints):
    """One numpy pass per low index, the enumeration the blocked one replaced."""
    n = grid.size
    for solve_c in constraints:
        g = oracle._moment_map(grid, solve_c.moment)
        t = solve_c.bound
        for i in range(n - 1):
            j = np.arange(i + 1, n)
            den = g[i] - g[j]
            valid = np.abs(den) > oracle._PIVOT_TOL
            with np.errstate(divide="ignore", invalid="ignore"):
                wi = (t - g[j]) / den
            wj = 1.0 - wi
            feas = valid & (wi >= -oracle._W_TOL) & (wj >= -oracle._W_TOL)
            for c in constraints:
                if c is not solve_c:
                    gc = oracle._moment_map(grid, c.moment)
                    feas &= ~oracle._violates(wi * gc[i] + wj * gc[j], c)
            hits = np.nonzero(feas)[0]
            if hits.size:
                idx = np.column_stack([np.full(hits.size, i, dtype=np.int64), j[hits]])
                yield idx, np.column_stack([wi[hits], wj[hits]])


def _reference_triples(grid, constraints):
    by_id = {c.moment: c for c in constraints}
    if Moment.MEAN not in by_id or Moment.SECOND_MOMENT not in by_id:
        return
    t1, t2 = by_id[Moment.MEAN].bound, by_id[Moment.SECOND_MOMENT].bound
    n, g2, tol = grid.size, grid * grid, oracle._FEAS_TOL
    low_ok = (grid <= t1 + tol) & (g2 <= t2 + tol)
    hi_ok = (grid >= t1 - tol) & (g2 >= t2 - tol)
    for i in np.nonzero(low_ok)[0]:
        m = n - i - 1
        if m < 2:
            break
        jj, kk = np.triu_indices(m, k=1)
        jj, kk = jj + i + 1, kk + i + 1
        keep = hi_ok[kk]
        jj, kk = jj[keep], kk[keep]
        a, b, c_ = grid[i], grid[jj], grid[kk]
        den_a, den_b, den_c = (a - b) * (a - c_), (b - a) * (b - c_), (c_ - a) * (c_ - b)
        valid = (
            (np.abs(den_a) > oracle._PIVOT_TOL)
            & (np.abs(den_b) > oracle._PIVOT_TOL)
            & (np.abs(den_c) > oracle._PIVOT_TOL)
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            wa = (t2 - (b + c_) * t1 + b * c_) / den_a
            wb = (t2 - (a + c_) * t1 + a * c_) / den_b
            wc = (t2 - (a + b) * t1 + a * b) / den_c
        w = -oracle._W_TOL
        hits = np.nonzero(valid & (wa >= w) & (wb >= w) & (wc >= w))[0]
        if hits.size:
            idx = np.column_stack([np.full(hits.size, i, dtype=np.int64), jj[hits], kk[hits]])
            yield idx, np.column_stack([wa[hits], wb[hits], wc[hits]])


def _reference_family(cs):
    """(atom_indices, atom_weights) built from the reference enumeration, or
    None when no law is feasible."""
    grid = np.asarray(cs.grid, dtype=float)
    blocks = list(oracle._iter_singletons(grid, cs.constraints))
    k_max = min(len(cs.constraints) + 1, 3, grid.size)
    if k_max >= 2:
        blocks += _reference_pairs(grid, cs.constraints)
    if k_max >= 3:
        blocks += _reference_triples(grid, cs.constraints)
    idx = [np.hstack([i, np.repeat(i[:, -1:], 3 - i.shape[1], axis=1)]) for i, _ in blocks]
    wgt = [np.hstack([w, np.zeros((w.shape[0], 3 - w.shape[1]))]) for _, w in blocks]
    if not blocks:
        return None
    return np.vstack(idx).astype(np.int32), np.vstack(wgt)


def _assert_family_parity(cs):
    family = MomentLawFamily(cs)
    want_idx, want_wgt = _reference_family(cs)
    assert family.atom_indices.dtype == want_idx.dtype
    assert family.atom_indices.tobytes() == want_idx.tobytes()
    assert family.atom_weights.tobytes() == want_wgt.tobytes()
    return family.n_laws


def _constraint_set(grid, mu, m2, relations, reverse=False):
    cons = (
        MomentConstraint(Moment.MEAN, relations[0], mu),
        MomentConstraint(Moment.SECOND_MOMENT, relations[1], m2),
    )
    return MomentConstraintSet(grid=grid, constraints=cons[::-1] if reverse else cons)


def test_blocked_family_is_byte_identical_to_per_index_enumeration():
    rng = np.random.default_rng(1212)
    rels = (Relation.EQ, Relation.LE)
    checked = 0
    for case in range(24):
        n = int(rng.integers(20, 401))
        top = float(rng.uniform(5, 40))
        grid = np.linspace(0, top, n)
        if case % 3 == 0:
            grid = np.unique(np.round(rng.uniform(0, top, n), 6))
        mu = float(rng.uniform(0.1, 0.6)) * top
        cv = 10.0 ** float(rng.uniform(-3, 0))  # sigma / mu down to 1e-3
        relations = (rels[case % 2], rels[(case // 2) % 2])
        cs = _constraint_set(grid, mu, mu * mu * (1 + cv * cv), relations, case % 5 == 0)
        if case % 7 == 0:  # a single constraint: singletons and pairs only
            cs = MomentConstraintSet(grid=grid, constraints=cs.constraints[:1])
        if _reference_family(cs) is None:  # nothing feasible: both sides agree
            with pytest.raises(InfeasibleError):
                MomentLawFamily(cs)
            continue
        _assert_family_parity(cs)
        checked += 1
    assert checked >= 18


def test_blocked_family_parity_on_exact_zero_numerators_and_tiny_spreads():
    eq = (Relation.EQ, Relation.EQ)
    grid = np.linspace(0, 12, 121)
    # atoms {0, 5} satisfy both moments exactly: wc's numerator is exactly 0
    assert 20.0 - (grid[0] + grid[50]) * 4.0 + grid[0] * grid[50] == 0.0
    assert _assert_family_parity(_constraint_set(grid, 4.0, 20.0, eq)) > 0
    for cv in (1e-3, 3e-3, 1e-2):
        mu = 4.0
        for relations in (eq, (Relation.LE, Relation.EQ), (Relation.EQ, Relation.LE)):
            _assert_family_parity(_constraint_set(grid, mu, mu * mu * (1 + cv * cv), relations))


def _wc_top(t1, t2, a, b, c):
    return (t2 - (a + b) * t1 + a * b) / ((c - a) * (c - b))


def test_blocked_family_parity_when_the_top_point_sits_at_the_pruning_threshold():
    base = np.linspace(0, 12, 121)
    t1 = 4.0
    a, b = base[30], base[60]  # a < t1 < b
    t2 = (a + b) * t1 - a * b - 1e-10  # row (a, b) has a numerator near -1e-10
    num = t2 - (a + b) * t1 + a * b
    assert num < 0.0
    # (c - a)(c - b) = -num / W_TOL puts wc at the top point on -W_TOL
    mid = 0.5 * (a + b)
    c = mid + np.sqrt((0.5 * (b - a)) ** 2 - num / oracle._W_TOL)
    while _wc_top(t1, t2, a, b, c) >= -oracle._W_TOL:
        c = np.nextafter(c, 0.0)
    below = c
    while _wc_top(t1, t2, a, b, c) < -oracle._W_TOL:
        c = np.nextafter(c, np.inf)
    above = c
    assert _wc_top(t1, t2, a, b, below) < -oracle._W_TOL <= _wc_top(t1, t2, a, b, above)
    for top in (below, above, np.nextafter(below, 0.0), np.nextafter(above, np.inf)):
        grid = np.append(base, top)
        for relations in ((Relation.EQ, Relation.EQ), (Relation.LE, Relation.EQ)):
            _assert_family_parity(_constraint_set(grid, t1, t2, relations))


@pytest.mark.parametrize(
    "n, top, mu, sigma",
    [(50, 12.0, 4.0, 2.0), (201, 15.0, 3.0, 1.5), (801, 40.0, 1.5, 1.0)],
)
def test_blocked_streaming_oracle_is_bit_equal_to_per_index_enumeration(
    monkeypatch, n, top, mu, sigma
):
    grid = np.linspace(0, top, n)
    cs = mean_second_set(grid, mu, mu * mu + sigma * sigma)
    objectives = (
        lambda v: ell(3.0, mu, v, COST),
        lambda v: profit(mu + 0.5 * sigma, v, COST),
        lambda v: 0.0,  # every law ties: the tie rule alone picks the support
    )
    got = [worst_case_expectation_oracle(f, cs) for f in objectives]
    monkeypatch.setattr(oracle, "_iter_pairs", _reference_pairs)
    monkeypatch.setattr(oracle, "_iter_triples", _reference_triples)
    for f, res in zip(objectives, got):
        want = worst_case_expectation_oracle(f, cs)
        assert res.value.hex() == want.value.hex()
        assert res.argmin.support == want.argmin.support
        assert res.argmin.weights == want.argmin.weights


def test_streaming_pair_enumeration_stays_within_its_block_memory():
    # 5,000 points hold 12.5 M pairs; the whole triangle would take about 1 GB
    grid = np.linspace(0, 20, 5000)
    cs = MomentConstraintSet(
        grid=grid, constraints=(MomentConstraint(Moment.MEAN, Relation.EQ, 7.3),)
    )
    tracemalloc.start()
    try:
        res = worst_case_expectation_oracle(lambda v: min(v, 5.0), cs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64e6
    assert res.argmin.mean() == pytest.approx(7.3, abs=1e-9)


# ---------------------------------------------------------------------------
# blocked family scoring against the whole-family sparse product
# ---------------------------------------------------------------------------


def _whole_family_blocks(family, obj):
    """The scorer as first written: one CSR over every law, objectives in
    chunks of ``2e7 // n_laws``."""
    from scipy import sparse

    n = family.n_laws
    law_matrix = sparse.csr_matrix(
        (
            family.atom_weights.ravel(),
            family.atom_indices.ravel().astype(np.int64),
            np.arange(0, 3 * n + 1, 3),
        ),
        shape=(n, family.grid.size),
    )
    chunk = max(1, int(2e7 // max(n, 1)))
    for lo in range(0, obj.shape[0], chunk):
        yield slice(lo, lo + chunk), law_matrix @ obj[lo : lo + chunk].T


def _reference_minimize_many(family, obj):
    values = np.empty(obj.shape[0])
    rows = np.empty(obj.shape[0], dtype=np.int64)
    for span, block in _whole_family_blocks(family, obj):
        r = np.argmin(block, axis=0)
        rows[span] = r
        values[span] = block[r, np.arange(block.shape[1])]
    return values, rows


def _reference_min_values(family, obj):
    values = np.empty(obj.shape[0])
    for span, block in _whole_family_blocks(family, obj):
        values[span] = block.min(axis=0)
    return values


def _assert_scoring_parity(family, obj):
    want_values, want_rows = _reference_minimize_many(family, obj)
    values, rows = family.minimize_many(obj)
    assert values.tobytes() == want_values.tobytes()
    assert rows.tobytes() == want_rows.tobytes()
    assert family._min_values(obj).tobytes() == _reference_min_values(family, obj).tobytes()
    return rows


def _with_laws(family, rows):
    """A copy of ``family`` holding only the laws ``rows``, in that order."""
    sub = copy.copy(family)
    sub.atom_indices = family.atom_indices[rows]
    sub.atom_weights = family.atom_weights[rows]
    return sub


def _law_block(family, k):
    """Laws per scored block for ``k`` objectives."""
    return next(family._expectation_blocks(np.zeros((k, family.grid.size))))[1].shape[0]


@pytest.fixture(scope="module")
def family_300():
    # 660,790 laws: more than one block for any objective count
    return MomentLawFamily(mean_second_set(np.linspace(0, 16, 300), 4.0, 20.0))


def _ell_objectives(grid, k):
    return np.array([ell(2.5, float(q), grid, COST) for q in np.linspace(0, 9, k)])


@pytest.mark.parametrize("k", [1, 42, 1000])
def test_blocked_scoring_is_byte_identical_around_block_boundaries(family_300, k):
    size = _law_block(family_300, k)
    assert size < family_300.n_laws
    rng = np.random.default_rng(k)
    noise = rng.standard_normal((k, family_300.grid.size))
    objectives = (_ell_objectives(family_300.grid, k), noise, np.round(noise, 1))
    for n in (size - 1, size, size + 1, min(5 * size + 3, family_300.n_laws)):
        sub = _with_laws(family_300, np.arange(n))
        for obj in objectives:
            _assert_scoring_parity(sub, obj)


def test_blocked_scoring_of_no_objectives_on_a_multi_block_family(family_300):
    obj = np.zeros((0, family_300.grid.size))
    values, rows = family_300.minimize_many(obj)
    assert values.shape == rows.shape == (0,)
    _assert_scoring_parity(family_300, obj)


def test_blocked_scoring_of_a_family_below_one_block(family_300):
    family = MomentLawFamily(mean_second_set(np.linspace(0, 12, 41), 4.0, 20.0))
    assert family.n_laws < _law_block(family_300, 42)
    for k in (1, 42):
        _assert_scoring_parity(family, _ell_objectives(family.grid, k))


def test_blocked_scoring_keeps_the_first_of_a_tie_across_a_block_boundary(family_300):
    k = 42
    size = _law_block(family_300, k)
    obj = np.random.default_rng(19).standard_normal((k, family_300.grid.size))
    exp = np.einsum("ij,ij->i", family_300.atom_weights, obj[0][family_300.atom_indices])
    best = int(np.argmin(exp))
    # the best law of objective 0 sits last in the first block and first in
    # the second; every other law comes from the rest of the family
    others = np.delete(np.arange(family_300.n_laws), best)[: size + 6]
    rows = np.concatenate([others[: size - 1], [best, best], others[size - 1 :]])
    sub = _with_laws(family_300, rows)
    got = _assert_scoring_parity(sub, obj)
    assert got[0] == size - 1


def test_blocked_scoring_memory_is_bounded(family_300):
    obj = _ell_objectives(family_300.grid, 42)
    family_300._min_values(obj)  # scipy's lazy imports stay out of the peak
    tracemalloc.start()
    try:
        family_300._min_values(obj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a whole-family (660,790 x 42) expectation matrix alone takes 222 MB
    assert peak < 8e6


def test_family_rejects_an_objective_that_is_not_finite():
    grid = np.linspace(0, 12, 49)
    cs = MomentConstraintSet(
        grid=grid,
        constraints=(
            MomentConstraint(Moment.MEAN, Relation.EQ, 4.0),
            MomentConstraint(Moment.SECOND_MOMENT, Relation.LE, 20.0),
        ),
    )
    family = MomentLawFamily(cs)
    obj = (grid - 4.0) ** 2
    obj[-1] = np.inf
    message = "objective must be finite on the grid"
    with pytest.raises(InputError, match=message):
        worst_case_expectation_oracle(lambda v: obj[np.searchsorted(grid, v)], cs)
    for bad in (obj, np.where(np.isinf(obj), np.nan, obj)):
        with pytest.raises(InputError, match=message):
            family.minimize_many(bad[None, :])
        with pytest.raises(InputError, match=message):
            family._min_values(bad[None, :])


# ---------------------------------------------------------------------------
# one lexicographic minimum against frozen copies of the two tie rules
# ---------------------------------------------------------------------------


def _frozen_lex_smallest(idx, rows):
    """The row among ``rows`` whose index row sorts first; the first on a tie."""
    if rows.size == 1:
        return int(rows[0])
    sub = idx[rows]
    return int(rows[np.lexsort([sub[:, k] for k in range(sub.shape[1] - 1, -1, -1)])[0]])


def _frozen_minimize(family, fv):
    """The whole-family lexicographic minimum as one gather and einsum."""
    exp = np.einsum("ij,ij->i", family.atom_weights, fv[family.atom_indices])
    row = int(np.argmin(exp))
    ties = np.nonzero(exp == exp[row])[0]
    if ties.size > 1:
        row = _frozen_lex_smallest(family.atom_indices, ties)
    return float(exp[row]), row


def _family_law(family, row):
    return DiscreteDistribution.from_pairs(
        family.grid[family.atom_indices[row]], family.atom_weights[row]
    )


def _frozen_streaming_oracle(fv, cs):
    """The streaming oracle's running minimum, ties compared as value tuples."""
    grid = np.asarray(cs.grid, dtype=float)
    best_val, best_idx, best_wgt = np.inf, None, None
    for idx, wgt in oracle._iter_candidates(cs):
        exp = np.einsum("ij,ij->i", wgt, fv[idx])
        row = int(np.argmin(exp))
        val = float(exp[row])
        if val < best_val:
            best_val, best_idx, best_wgt = val, idx[row], wgt[row]
        elif val == best_val and best_idx is not None:
            r = _frozen_lex_smallest(idx, np.nonzero(exp == val)[0])
            if tuple(grid[idx[r]]) < tuple(grid[best_idx]):
                best_idx, best_wgt = idx[r], wgt[r]
    return best_val, DiscreteDistribution.from_pairs(grid[best_idx], best_wgt)


def _shaped_sets(n, two):
    """Mean-only sets, or mean and second-moment sets (EQ/EQ, and EQ/LE
    given in reverse order), on ``n`` points."""
    grid = np.linspace(0, 16, n)
    if two:
        return (
            mean_second_set(grid, 4.0, 20.0),
            _constraint_set(grid, 4.0, 20.0, (Relation.EQ, Relation.LE), reverse=True),
        )
    return (
        MomentConstraintSet(
            grid=grid, constraints=(MomentConstraint(Moment.MEAN, Relation.EQ, 4.0),)
        ),
    )


def _tie_objectives(grid, seed):
    noise = np.random.default_rng(seed).standard_normal((2, grid.size))
    return (noise[0], np.round(noise[1], 1), np.round(noise[1]), np.zeros(grid.size))


def _assert_same_law(got, want):
    assert got.support == want.support
    assert got.weights == want.weights


def _assert_whole_family_parity(family, cs, fv):
    """The streaming oracle against the whole family's frozen tie rule: the
    value's bits and the argmin law."""
    want_val, want_row = _frozen_minimize(family, fv)
    res = worst_case_expectation_oracle(dict(zip(cs.grid, fv)).__getitem__, cs)
    assert res.value.hex() == want_val.hex()
    _assert_same_law(res.argmin, _family_law(family, want_row))
    return res


@pytest.mark.parametrize("n", [41, 97, 160, 300])
@pytest.mark.parametrize("two", [False, True])
def test_streaming_oracle_is_bit_equal_to_the_whole_family_tie_rule(n, two):
    for k, cs in enumerate(_shaped_sets(n, two)):
        family = MomentLawFamily(cs)
        for fv in _tie_objectives(family.grid, 1000 * n + k):
            _assert_whole_family_parity(family, cs, fv)


def test_streaming_ties_across_blocks_go_to_the_smallest_support(monkeypatch):
    checked = 0
    for block in (5, 97):
        monkeypatch.setattr(oracle, "_BLOCK", block)
        for two in (False, True):
            for k, cs in enumerate(_shaped_sets(60, two)):
                family = MomentLawFamily(cs)
                assert family.n_laws > 2 * block  # the all-zero objective ties across blocks
                for fv in _tie_objectives(family.grid, 100 * block + k):
                    res = _assert_whole_family_parity(family, cs, fv)
                    want_val, want_law = _frozen_streaming_oracle(fv, cs)
                    assert res.value.hex() == want_val.hex()
                    _assert_same_law(res.argmin, want_law)
                    checked += 1
    assert checked == 24


def _five_shapes(grid):
    """Mean-only and second-moment-only sets, and mean and second-moment
    sets as EQ/EQ, LE/LE and EQ/LE given in reverse order."""
    eq, le = Relation.EQ, Relation.LE
    return (
        MomentConstraintSet(grid=grid, constraints=(MomentConstraint(Moment.MEAN, eq, 4.0),)),
        MomentConstraintSet(
            grid=grid, constraints=(MomentConstraint(Moment.SECOND_MOMENT, le, 20.0),)
        ),
        _constraint_set(grid, 4.0, 20.0, (eq, eq)),
        _constraint_set(grid, 4.0, 20.0, (le, le)),
        _constraint_set(grid, 4.0, 20.0, (eq, le), reverse=True),
    )


def test_every_candidate_block_is_strictly_ascending_with_one_row_length(monkeypatch):
    blocks = 0
    for size in (5, 97, 1 << 14):
        monkeypatch.setattr(oracle, "_BLOCK", size)
        for n in (3, 41, 160):
            for cs in _five_shapes(np.linspace(0, 16, n)):
                try:
                    for idx, wgt in oracle._iter_candidates(cs):
                        assert idx.ndim == 2 and wgt.shape == idx.shape
                        step = np.diff(idx, axis=0)
                        moved = step != 0
                        first = step[np.arange(step.shape[0]), moved.argmax(axis=1)]
                        assert moved.any(axis=1).all() and (first > 0).all()
                        blocks += 1
                except InfeasibleError:
                    pass
    assert blocks > 1000


@pytest.mark.parametrize("n", [41, 160, 300])
@pytest.mark.parametrize("two", [False, True])
def test_streaming_oracle_is_bit_equal_to_its_value_tuple_tie_rule(n, two):
    for k, cs in enumerate(_shaped_sets(n, two)):
        for fv in _tie_objectives(np.asarray(cs.grid), 7 * n + k):
            want_val, want_law = _frozen_streaming_oracle(fv, cs)
            res = worst_case_expectation_oracle(dict(zip(cs.grid, fv)).__getitem__, cs)
            assert res.value.hex() == want_val.hex()
            assert res.argmin.support == want_law.support
            assert res.argmin.weights == want_law.weights


def test_streaming_oracle_memory_is_bounded():
    cs = mean_second_set(np.linspace(0, 16, 300), 4.0, 20.0)
    fv = _ell_objectives(np.asarray(cs.grid), 1)[0]
    objective = dict(zip(cs.grid, fv)).__getitem__
    worst_case_expectation_oracle(objective, cs)
    tracemalloc.start()
    try:
        worst_case_expectation_oracle(objective, cs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the whole-family gather of 660,790 index triples alone takes 16 MB
    assert peak < 8e6
