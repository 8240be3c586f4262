"""Grid oracle: feasibility, tie-breaking, and agreement with closed forms."""

import tracemalloc

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
from robustnv import oracle
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
