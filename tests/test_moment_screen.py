"""The certified moment minimum: ``oracle._moment_min_batch`` on one
instance must equal the whole family's ``_min_values`` bit for bit, and its
weight floor and screen must hold on every family triple they speak for."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest

from robustnv import CostStructure, MisspecIndex, MomentSpec, oracle_check
from robustnv import oracle
from robustnv.evaluation import _random_instance
from robustnv.oracle import (
    Moment,
    MomentConstraint,
    MomentConstraintSet,
    MomentLawFamily,
    Relation,
)
from robustnv.single_product import _ell_core, _solve
from robustnv.validation import InfeasibleError

KINDS = ("check", "small_alpha", "rounded", "seeded", "degenerate", "ends")


def moment_set(grid, mu, m2):
    return MomentConstraintSet(
        grid=tuple(grid),
        constraints=(
            MomentConstraint(Moment.MEAN, Relation.EQ, mu),
            MomentConstraint(Moment.SECOND_MOMENT, Relation.EQ, m2),
        ),
    )


def instance(rng, kind, n):
    """``(constraint set, objective rows)`` of one seeded instance.

    ``check`` builds ``oracle_check``'s rows (41 quantities from 0, so a row
    of zeros, and the closed quantity); ``small_alpha`` takes its smallest
    index, whose rows are exact parabolas over most of the grid; ``rounded``
    rounds the rows to one decimal (many ties); ``seeded`` draws the rows;
    ``degenerate`` puts sigma at the model's degeneracy bound; ``ends`` puts
    the mean near either end of the grid."""
    m, cost = _random_instance(rng)
    if kind == "degenerate":
        kappa = cost.kappa
        m = MomentSpec(m.mean, m.mean * min(1.0, math.sqrt(kappa / (1.0 - kappa))))
    top = m.mean + 6.0 * m.std
    if kind == "ends":  # just wide enough for the variance, or 30 sigmas wide
        top = m.mean + 1.2 * m.std**2 / m.mean if rng.random() < 0.5 else m.mean + 30.0 * m.std
    grid = np.linspace(0.0, top, n)
    if kind == "small_alpha":
        a = MisspecIndex(cost.price / 100.0)
    elif rng.random() < 1.0 / 8.0:
        a = MisspecIndex.INFINITY
    else:
        a = MisspecIndex(cost.price / 10.0 * 10.0 ** rng.uniform(-1.0, 1.6))
    q_hi = max(_solve(MisspecIndex.INFINITY, m, cost)[0] * 1.2, 1e-6)
    qs = np.append(np.linspace(0.0, q_hi, 41), _solve(a, m, cost)[0])
    rows = _ell_core(a, qs[:, None], grid, cost)
    if kind == "rounded":
        rows = np.round(rows, 1)
    elif kind == "seeded":
        rows = rng.normal(size=(8, n)).cumsum(axis=1) * rng.uniform(0.1, 10.0)
    return moment_set(grid, m.mean, m.second_moment), rows


def moment_min(cs, rows):
    """``oracle._moment_min_batch`` on one instance: its minima, or its error
    raised."""
    minima, error = oracle._moment_min_batch([(cs, rows)])
    if error is not None:
        raise error
    return minima[0]


def family_min(cs, rows):
    return MomentLawFamily(cs)._min_values(rows)


def assert_hex_equal(got, want):
    assert [float(x).hex() for x in got] == [float(x).hex() for x in want]


@pytest.mark.parametrize("kind", KINDS)
def test_moment_min_values_is_the_family_minimum_bit_for_bit(kind):
    rng = np.random.default_rng(20261020 + KINDS.index(kind))
    for _ in range(50):
        cs, rows = instance(rng, kind, int(rng.integers(20, 161)))
        assert_hex_equal(moment_min(cs, rows), family_min(cs, rows))


class FamilySpy:
    def __init__(self, monkeypatch):
        self.grids = []
        init = MomentLawFamily.__init__

        def spy(family, cs):
            self.grids.append(len(cs.grid))
            init(family, cs)

        monkeypatch.setattr(MomentLawFamily, "__init__", spy)


def test_ordinary_instances_build_no_family_and_parabola_rows_do(monkeypatch):
    rng = np.random.default_rng(7)
    cases = [instance(rng, kind, 150) for kind in ("check", "check", "small_alpha")]
    want = [family_min(cs, rows) for cs, rows in cases]
    spy = FamilySpy(monkeypatch)
    for (cs, rows), expected in zip(cases[:2], want):
        assert_hex_equal(moment_min(cs, rows), expected)
    assert spy.grids == []
    cs, rows = cases[2]
    assert_hex_equal(moment_min(cs, rows), want[2])
    assert len(spy.grids) == 1  # one family, for the parabola rows only

    # oracle_check at a certify-sized grid builds none for ordinary batches
    del spy.grids[:]
    oracle_check(seed=710212705, instances=2, grid_points=150, q_points=41)
    assert spy.grids == []


def test_an_exactly_feasible_pair_builds_the_family(monkeypatch):
    # mean 4, variance 4: the pair {2, 6} meets both moments exactly, so the
    # weight floor is 0 and nothing can be screened
    grid = np.linspace(0.0, 16.0, 33)
    cs = moment_set(grid, 4.0, 20.0)
    assert oracle._weight_floor(grid, 4.0, 20.0)[0] <= oracle._W_TOL
    rows = _ell_core(MisspecIndex(4.0), np.linspace(0.0, 8.0, 9)[:, None], grid, CostStructure(10.0, 3.0))
    want = family_min(cs, rows)
    spy = FamilySpy(monkeypatch)
    assert_hex_equal(moment_min(cs, rows), want)
    assert spy.grids == [33]


def test_a_feasible_pair_that_is_the_minimum_builds_the_family(monkeypatch):
    # the pair {2, 6} misses the variance by 5e-9, inside the feasibility
    # tolerance, and only it scores 0.0 on the row that is 0 there: its
    # numerator is within the pairs' bound, so the floor is 0 and the family
    # is built
    grid = np.linspace(0.0, 16.0, 33)
    t2 = 20.0 + 5e-9
    cs = moment_set(grid, 4.0, t2)
    assert oracle._weight_floor(grid, 4.0, t2)[0] <= oracle._W_TOL
    rows = ((grid - 2.0) * (grid - 6.0)) ** 2 + np.array([[0.0], [1.0], [3.5]]) * grid
    want = family_min(cs, rows)
    assert want[0] == 0.0
    spy = FamilySpy(monkeypatch)
    assert_hex_equal(moment_min(cs, rows), want)
    assert spy.grids == [33]


@pytest.mark.parametrize(
    "t2, atoms", [(500.0 + 2e-7, [10, 30]), (400.0 + 5e-9, [20, 20])], ids=["pair", "singleton"]
)
def test_a_one_or_two_point_law_that_is_the_minimum_builds_the_family(t2, atoms, monkeypatch):
    # mean 20 on a unit grid.  At variance 100 + 2e-7, num(10, 30) = 2e-7:
    # solved on the mean (weights 1/2) the pair misses the second moment by
    # 2e-7 and fails, solved on the second moment it misses the mean by
    # 2e-7/40 = 5e-9 and passes, so its |num| is past _FEAS_TOL but within
    # _FEAS_TOL*(1 + 2X).  At variance 5e-9 the singleton at 20 passes,
    # num(20, 20) = 5e-9.  Each is the one law that scores 0.0 on row 0
    grid = np.linspace(0.0, 40.0, 41)
    cs = moment_set(grid, 20.0, t2)
    family = MomentLawFamily(cs)
    short = family.atom_weights[:, 2] == 0.0
    assert atoms in family.atom_indices[short][:, :2].tolist()
    assert oracle._weight_floor(grid, 20.0, t2)[0] <= oracle._W_TOL
    x, y = grid[atoms]
    rows = ((grid - x) * (grid - y)) ** 2 + np.array([[0.0], [1.0], [3.5]]) * grid
    want = family._min_values(rows)
    assert want[0] == 0.0
    spy = FamilySpy(monkeypatch)
    assert_hex_equal(moment_min(cs, rows), want)
    assert spy.grids == [41]


def pair_bound(grid):
    """The bound B of ``_weight_floor`` on |num| of a family singleton or pair."""
    top = float(grid[-1])
    eps = oracle._EPS
    return oracle._FEAS_TOL * (1.0 + 2.0 * top) * (1.0 + 2.0 * eps) + 32.0 * eps * top * top


def test_every_family_singleton_and_pair_is_within_the_bound():
    # moments at a grid pair or point, moved by up to twice the feasibility
    # tolerance (times x + y for pairs, the mean check's scale on the
    # second-moment pass), so that many laws sit near the edge of the checks
    rng = np.random.default_rng(40)
    seen, worst = 0, 0.0
    for _ in range(120):
        n = int(rng.integers(20, 81))
        grid = np.linspace(0.0, float(rng.uniform(1.0, 60.0)), n)
        i, j = sorted(rng.choice(n, size=2, replace=rng.random() < 0.3))
        x, y = float(grid[i]), float(grid[j])
        w = float(rng.uniform(0.05, 0.95)) if i < j else 1.0
        kick = 2.0 * oracle._FEAS_TOL * rng.uniform(-1.0, 1.0, size=2)
        t1 = w * x + (1.0 - w) * y + kick[0] * (i == j)
        t2 = w * x * x + (1.0 - w) * y * y + kick[1] * (x + y if i < j else 1.0)
        cs = moment_set(grid, t1, t2)
        try:
            family = MomentLawFamily(cs)
        except InfeasibleError:
            continue
        short = family.atom_weights[:, 2] == 0.0
        if not short.any():
            continue
        seen += 1
        bound = Fraction(pair_bound(grid))
        for a, b in family.atom_indices[short][:, :2].tolist():
            u, v = Fraction(float(grid[a])), Fraction(float(grid[b]))
            num = abs(Fraction(t2) - (u + v) * Fraction(t1) + u * v)
            assert num <= bound
            worst = max(worst, float(num / bound))
        assert oracle._weight_floor(grid, t1, t2)[0] <= oracle._W_TOL
    assert seen >= 60 and worst > 0.3


def test_the_numerator_minimum_runs_over_the_diagonal():
    # mean 4.1, variance 0.01 on a unit grid (no law of the family: the
    # least variance of a grid law at that mean is 0.1 * 0.9): the least
    # |num| is the diagonal's, num(4, 4) = 0.01 + 0.1^2, against 0.08 for
    # the pair (4, 5), and the floor is formed from it
    grid = np.linspace(0.0, 10.0, 11)
    omega, _ = oracle._weight_floor(grid, 4.1, 4.1**2 + 0.01)
    assert oracle._W_TOL < omega <= 0.02 / 100.0


def test_the_certified_path_enumerates_no_singleton_or_pair(monkeypatch):
    rng = np.random.default_rng(11)
    cases = [instance(rng, "check", n) for n in (61, 150, 300)]
    want = [family_min(cs, rows) for cs, rows in cases]
    calls = []

    def never(grid, constraints):
        calls.append(grid.size)
        return iter(())

    monkeypatch.setattr(oracle, "_iter_singletons", never)
    monkeypatch.setattr(oracle, "_iter_pairs", never)
    for (cs, rows), expected in zip(cases, want):
        assert_hex_equal(moment_min(cs, rows), expected)
    oracle_check(seed=710212705, instances=2, grid_points=150, q_points=41)
    assert calls == []


def test_no_objective_rows_and_the_family_errors():
    cs = moment_set(np.linspace(0.0, 10.0, 41), 4.0, 20.0)
    got = moment_min(cs, np.zeros((0, 41)))
    assert got.shape == (0,) and got.dtype == float
    # a wrong shape, a NaN, no law on the grid (variance 0.01 between points
    # 0.5 apart), and too many points
    cases = [
        (cs, np.zeros((2, 40))),
        (cs, np.full((2, 41), np.nan)),
        (moment_set(np.linspace(0.0, 10.0, 21), 4.25, 4.25**2 + 0.01), np.zeros((2, 21))),
        (moment_set(np.linspace(0.0, 10.0, 401), 4.0, 20.0), np.zeros((2, 401))),
    ]
    for cs, bad in cases:
        with pytest.raises(Exception) as want:
            family_min(cs, bad)
        with pytest.raises(type(want.value), match=re.escape(str(want.value))):
            moment_min(cs, bad)


# sigma and grid sizes whose least family weight is under 1.5x the floor
TIGHT = ((4.0, 0.6 * 4.0, 45), (4.0, 0.8 * 4.0, 40), (4.0, 0.53 * 4.0, 49))


def tight_case(mu, sd, n):
    grid = np.linspace(0.0, mu + 6.0 * sd, n)
    t2 = mu * mu + sd * sd
    family = MomentLawFamily(moment_set(grid, mu, t2))
    triple = family.atom_weights[:, 2] > 0.0
    return grid, t2, family.atom_indices[triple], family.atom_weights[triple]


@pytest.mark.parametrize("mu, sd, n", TIGHT)
def test_the_weight_floor_is_below_every_family_weight(mu, sd, n):
    grid, t2, _, weights = tight_case(mu, sd, n)
    omega, w_err = oracle._weight_floor(grid, mu, t2)
    assert oracle._W_TOL < omega <= weights.min() < 2.0 * omega
    assert 0.0 < w_err < 1e-9


@pytest.mark.parametrize("mu, sd, n", TIGHT)
def test_the_screen_keeps_every_triple_that_scores_at_most_best(mu, sd, n):
    # parabola P = 0, so the slack is the objective: zero on the two other
    # atoms of the triple with the least weight, 0.6 best / omega on its light
    # atom, 1e3 elsewhere.  That triple scores below best only because its
    # weight is within 1.5x of the floor, so it must be screened: a bound
    # any tighter than best / omega drops it.
    grid, t2, idx, weights = tight_case(mu, sd, n)
    law, atom = np.unravel_index(np.argmin(weights), weights.shape)
    omega, w_err = oracle._weight_floor(grid, mu, t2)
    best = np.array([1.0])
    rows = np.full((1, grid.size), 1e3)
    rows[0, idx[law]] = 0.0
    rows[0, idx[law, atom]] = 0.6 * best[0] / omega
    slack, thr = oracle._screen(grid, rows, mu, t2, np.zeros((1, 3)), best, omega, w_err)
    values = oracle._law_values(rows[0][idx], weights)
    assert values[law] <= best[0]
    below = values <= best[0]
    assert np.all(slack[0][idx[below]] <= thr[0])

    # random parabolas and objectives: the claim for any best
    rng = np.random.default_rng(n)
    for _ in range(20):
        rows = rng.normal(size=(4, grid.size)).cumsum(axis=1)
        coef = rng.normal(size=(4, 3)) * [1.0, 0.3, 0.03]
        values = oracle._law_values(rows[:, idx], weights)
        best = np.quantile(values, rng.uniform(0.0, 0.2), axis=1)
        slack, thr = oracle._screen(grid, rows, mu, t2, coef, best, omega, w_err)
        for r in range(4):
            below = values[r] <= best[r]
            assert np.all(slack[r][idx[below]] <= thr[r])
