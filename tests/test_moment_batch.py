"""The batched moment minimum: ``oracle._moment_min_batch`` must give each
instance of a mixed batch, up to the first that fails, the whole family's
``_min_values`` bit for bit, and that instance's error; and ``oracle_check``,
which scores its instances through it in groups, must keep the sequential
loop's summaries, errors and error order."""

import tracemalloc
from collections import Counter

import numpy as np
import pytest

from robustnv import MisspecIndex, oracle
from robustnv import evaluation as ev
from robustnv.oracle import (
    Moment,
    MomentConstraint,
    MomentConstraintSet,
    MomentLawFamily,
    Relation,
)
from robustnv.validation import DegenerateModelError, InputError, InternalCheckError

KINDS = ("check", "parabola", "walk", "empty", "le", "pair", "no_start")
SHARES = (0.3, 0.15, 0.25, 0.05, 0.1, 0.1, 0.05)


def moment_set(grid, t1, t2, second=Relation.EQ):
    return MomentConstraintSet(
        grid=tuple(grid),
        constraints=(
            MomentConstraint(Moment.MEAN, Relation.EQ, t1),
            MomentConstraint(Moment.SECOND_MOMENT, second, t2),
        ),
    )


def coarse(n):
    """The grid indices that hold the certified path's start search."""
    sub = np.arange(0, n, max(1, n // oracle._COARSE))
    sub[-1] = n - 1
    return sub


def draw(rng, kind, n):
    """``(constraint set, objective rows)`` of one seeded instance on ``n``
    points.

    ``check`` takes ``oracle_check``'s rows on a few quantities from 0 (so a
    row of zeros); ``parabola`` its smallest index, whose rows are exact
    parabolas over much of the grid and screen more than ``_SCREEN_CAP``
    points; ``walk`` draws random-walk rows, one of them zero at times;
    ``empty`` has no rows; ``le`` makes the second moment an upper bound;
    ``pair`` puts the moments on a two-point law of the grid, so the weight
    floor is 0; ``no_start`` puts a small variance between two points of the
    start search's grid, so that grid holds no law."""
    m, cost = ev._random_instance(rng)
    top = m.mean + 6.0 * m.std
    grid = np.linspace(0.0, top, n)
    t1, t2 = m.mean, m.second_moment
    rows = rng.normal(size=(int(rng.integers(1, 7)), n)).cumsum(axis=1) * rng.uniform(0.1, 10.0)
    if kind == "walk" and rng.random() < 0.3:
        rows[int(rng.integers(rows.shape[0]))] = 0.0
    if kind in ("check", "parabola"):
        a = MisspecIndex(cost.price / (100.0 if kind == "parabola" else 10.0))
        q_hi = 1.2 * ev._solve(MisspecIndex.INFINITY, m, cost)[0]
        qs = np.linspace(0.0, q_hi, int(rng.integers(2, 10)))
        rows = ev._ell_core(a, qs[:, None], grid, cost)
    elif kind == "empty":
        rows = np.zeros((0, n))
    elif kind == "pair":
        i, j = int(rng.integers(0, n // 4)), int(rng.integers(3 * n // 4, n))
        w = float(rng.uniform(0.2, 0.8))
        x, y = float(grid[i]), float(grid[j])
        t1, t2 = w * x + (1.0 - w) * y, w * x * x + (1.0 - w) * y * y
    elif kind == "no_start":
        step, sub = top / (n - 1), coarse(n)
        k = int(rng.integers(1, sub.size - 2))
        lo, hi = int(sub[k]), int(sub[k + 1])
        t1 = (lo + (hi - lo) // 2 + 0.5) * step
        least = (t1 - grid[lo]) * (grid[hi] - t1)  # of a law on the start grid
        t2 = t1 * t1 + 0.5 * (least + 0.25 * step * step)
    cs = moment_set(grid, t1, t2, Relation.LE if kind == "le" else Relation.EQ)
    if kind == "no_start":
        assert not list(oracle._iter_triples(grid[coarse(n)], cs.constraints))
    return cs, rows


def hexes(values):
    return [float(x).hex() for x in values]


def test_each_instance_of_a_mixed_batch_is_the_family_minimum_bit_for_bit(monkeypatch):
    floors, families, small = [], Counter(), []
    weight_floor, init = oracle._weight_floor, MomentLawFamily.__init__

    def floor_spy(grid, t1, t2):
        omega, w_err = weight_floor(grid, t1, t2)
        floors.extend(np.atleast_1d(omega) <= oracle._W_TOL)
        if grid.shape[-1] <= oracle._SCREEN_CAP:  # whole grids within the cap
            small.extend(np.atleast_1d(omega) <= oracle._W_TOL)
        return omega, w_err

    def family_spy(family, cs):
        families[len(cs.grid) < n] += 1  # a family on part of the grid
        init(family, cs)

    rng = np.random.default_rng(20261021)
    seen, sizes = Counter(), set()
    for batch in range(262 + 64):
        # most batches on small and certify-sized grids, 25-31 points (where
        # the start grid has more than _COARSE points) often, a few up to 400
        choices = [rng.integers(20, 101), rng.integers(25, 32), rng.integers(101, 162)]
        n = int(rng.choice(choices, p=[0.6, 0.25, 0.15]))
        count = 8
        if batch >= 254:
            n, count = int(rng.integers(161, 401)), 3
        kinds = [str(k) for k in rng.choice(KINDS, size=count, p=SHARES)]
        kinds = [k if k != "no_start" or n >= 2 * oracle._COARSE else "walk" for k in kinds]
        if batch >= 262:
            # pair laws on 20-24 points, where a row's screened set can be the
            # whole grid and still within _SCREEN_CAP: no floor, so the
            # family must score it, pairs and all
            n, kinds = int(rng.integers(20, oracle._SCREEN_CAP + 1)), ["pair"] * 8
        items = [draw(rng, kind, n) for kind in kinds]
        with monkeypatch.context() as patch:
            patch.setattr(oracle, "_weight_floor", floor_spy)
            patch.setattr(MomentLawFamily, "__init__", family_spy)
            got, error = oracle._moment_min_batch(items)
        assert error is None and len(got) == len(items)
        for kind, (cs, rows), values in zip(kinds, items, got):
            want = MomentLawFamily(cs)._min_values(rows)
            assert values.shape == want.shape and values.dtype == want.dtype
            assert hexes(values) == hexes(want), (batch, kind, n)
        seen.update(kinds)
        sizes.add(n)
    assert sum(seen.values()) >= 2500 and set(seen) == set(KINDS) and sum(small) >= 500
    assert set(range(20, 32)) <= sizes and max(sizes) > 300
    assert sum(floors) >= seen["pair"] // 2 and not all(floors)
    assert families[True] > 0 and families[False] > 0


def test_a_batch_raises_the_first_failing_instance_error():
    # the minima of the instances before the first bad one, and its error:
    # the family's, type and message; a later bad instance is never reached
    rng = np.random.default_rng(5)
    goods = [draw(rng, kind, 41) for kind in ("check", "walk", "pair", "no_start", "check")]
    minima = [MomentLawFamily(cs)._min_values(rows) for cs, rows in goods]
    cases = [
        (goods[0][0], np.zeros((2, 40))),
        (goods[0][0], np.full((2, 41), np.nan)),
        (moment_set(np.linspace(0.0, 10.0, 21), 4.25, 4.25**2 + 0.01), np.zeros((2, 21))),
    ]
    for bad in cases:
        with pytest.raises(Exception) as want:
            MomentLawFamily(bad[0])._min_values(bad[1])
        for at in range(len(goods) + 1):
            items = goods[:at] + [bad] + goods[at:] + [cases[0]]
            got, error = oracle._moment_min_batch(items)
            assert [hexes(v) for v in got] == [hexes(v) for v in minima[:at]]
            assert type(error) is type(want.value) and str(error) == str(want.value)


def test_rows_near_the_float_range_keep_the_bits():
    # objectives of random sign near the largest double: the exchange's
    # divided differences overflow, the parabola is not finite and the slack
    # is NaN at some points, which the screen must keep, with and without a
    # weight floor
    rng = np.random.default_rng(0)
    for _ in range(4):
        items = []
        for kind in ("check", "pair") * 4:
            cs, _ = draw(rng, kind, 41)
            signs = np.where(rng.random((4, 41)) < 0.5, -1.0, 1.0)
            items.append((cs, signs * rng.uniform(0.5, 1.0, (4, 41)) * 1.7e308))
        got, error = oracle._moment_min_batch(items)
        assert error is None
        for (cs, rows), values in zip(items, got):
            assert hexes(values) == hexes(MomentLawFamily(cs)._min_values(rows))


def test_small_blocks_and_groups_keep_the_bits(monkeypatch):
    rng = np.random.default_rng(77)
    items = [draw(rng, kind, 150) for kind in ("check", "parabola", "walk", "check")]
    want = [MomentLawFamily(cs)._min_values(rows) for cs, rows in items]
    summary = ev.oracle_check(seed=9, instances=6, grid_points=161, q_points=41)
    # 1,000 triples a pass: every screened set of 20 or more points is
    # scored a row at a time; one instance a group
    monkeypatch.setattr(oracle, "_BLOCK", 1000)
    monkeypatch.setattr(ev, "_LAW_BLOCK", 1)
    minima, error = oracle._moment_min_batch(items)
    assert error is None
    for got, expected in zip(minima, want):
        assert hexes(got) == hexes(expected)
    assert ev.oracle_check(seed=9, instances=6, grid_points=161, q_points=41) == summary


def test_oracle_check_memory_does_not_grow_with_the_instances():
    peaks = []
    for instances in (8, 64):
        tracemalloc.start()
        try:
            ev.oracle_check(seed=0, instances=instances, grid_points=400, q_points=81)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0]


def moment_min(cs, rows):
    """``oracle._moment_min_batch`` on one instance: its minima, or its error
    raised."""
    minima, error = oracle._moment_min_batch([(cs, rows)])
    if error is not None:
        raise error
    return minima[0]


def sequential_oracle_check(seed, instances, grid_points, q_points):
    """``oracle_check``'s loop as it was before its instances were grouped:
    each instance drawn, solved, scored and checked before the next."""
    rng = np.random.default_rng(seed)
    worst_q_gap_steps = 0.0
    worst_value_gap = 0.0
    for k in range(instances):
        m, cs = ev._random_instance(rng)
        a = MisspecIndex.INFINITY if k % 8 == 7 else MisspecIndex(
            cs.price / 10.0 * 10.0 ** rng.uniform(-1.0, 1.6))
        closed_q, closed_value = ev._solve(a, m, cs)
        hi = m.mean + 6.0 * m.std
        grid = np.linspace(0.0, hi, grid_points)
        laws = moment_set(grid, m.mean, m.second_moment)
        q_hi = max(ev._solve(MisspecIndex.INFINITY, m, cs)[0] * 1.2, 1e-6)
        q_grid = np.linspace(0.0, q_hi, q_points)
        q_step = q_grid[1] - q_grid[0]
        rows = ev._ell_core(a, np.append(q_grid, closed_q)[:, None], grid, cs)
        values = moment_min(laws, rows)
        best = int(np.argmax(values[:-1]))
        q_gap = abs(closed_q - q_grid[best])
        value_tol = cs.price * (hi / (grid.size - 1))
        value_gap = abs(closed_value - values[-1])
        worst_q_gap_steps = max(worst_q_gap_steps, q_gap / q_step)
        worst_value_gap = max(worst_value_gap, value_gap / value_tol)
        if q_gap > q_step + 1e-12:
            raise InternalCheckError(
                f"instance {k}: closed quantity {closed_q:.6f} is "
                f"{q_gap / q_step:.2f} steps from the oracle argmax {q_grid[best]:.6f}"
            )
        if value_gap > value_tol:
            raise InternalCheckError(
                f"instance {k}: closed value {closed_value:.6f} differs from the "
                f"oracle by {value_gap:.3e} (budget {value_tol:.3e})"
            )
        if float(np.max(values[:-1])) > closed_value + value_tol:
            raise InternalCheckError(
                f"instance {k}: oracle found a quantity beating the closed value "
                f"by more than the grid budget"
            )
    return {
        "instances": instances,
        "grid_points": grid_points,
        "q_points": q_points,
        "max_quantity_gap_steps": round(float(worst_q_gap_steps), 6),
        "max_value_gap_fraction_of_budget": round(float(worst_value_gap), 6),
        "passed": True,
    }


def outcome(check, **args):
    try:
        return check(**args)
    except Exception as exc:
        return type(exc), str(exc)


def test_oracle_check_keeps_the_sequential_loop_outcomes():
    rng = np.random.default_rng(4242)
    args = [dict(seed=12810827, instances=8, grid_points=71, q_points=41)]
    for _ in range(60):
        args.append(dict(
            seed=int(rng.integers(0, 2**31)), instances=int(rng.integers(1, 25)),
            grid_points=int(rng.integers(61, 162)), q_points=int(rng.choice([10, 41, 81])),
        ))
    failed = 0
    for a in args:
        want = outcome(sequential_oracle_check, **a)
        assert outcome(ev.oracle_check, **a) == want, a
        failed += isinstance(want, tuple)
    assert outcome(ev.oracle_check, **args[0]) == (
        InternalCheckError,
        "instance 1: closed quantity 2.768609 is 2.70 steps from the oracle argmax 2.517210",
    )
    # groups of more than one instance, and batches over more than one group
    assert any(a["instances"] > ev._LAW_BLOCK // ((a["q_points"] + 1) * a["grid_points"]) for a in args)
    assert 0 < failed < len(args)


FAILING = dict(seed=12810827, instances=8, grid_points=71, q_points=41)  # instance 1 fails


def test_a_later_instance_that_raises_does_not_hide_an_earlier_failure(monkeypatch):
    assert FAILING["instances"] <= ev._LAW_BLOCK // ((FAILING["q_points"] + 1) * FAILING["grid_points"])
    want = outcome(ev.oracle_check, **FAILING)
    assert want[0] is InternalCheckError and want[1].startswith("instance 1:")
    solve, ell_core = ev._solve, ev._ell_core
    calls = Counter()

    def solve_fails_at_instance_3(*a):
        calls["solve"] += 1
        if calls["solve"] == 7:  # two solves an instance
            raise DegenerateModelError("instance 3 is degenerate")
        return solve(*a)

    def nan_rows_at_instance_3(*a):
        calls["rows"] += 1
        rows = ell_core(*a)
        return np.full_like(rows, np.nan) if calls["rows"] == 4 else rows

    errors = {
        "_solve": (solve_fails_at_instance_3, DegenerateModelError, "instance 3 is degenerate"),
        "_ell_core": (nan_rows_at_instance_3, InputError, "objective must be finite on the grid"),
    }
    for name, (patched, kind, message) in errors.items():
        with monkeypatch.context() as patch:
            patch.setattr(ev, name, patched)
            calls.clear()
            assert outcome(ev.oracle_check, **FAILING) == want
            # where instances 0-2 pass, both loops meet instance 3's error
            for check in (sequential_oracle_check, ev.oracle_check):
                calls.clear()
                assert outcome(check, **dict(FAILING, seed=710212705)) == (kind, message)
