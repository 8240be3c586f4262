"""The quantity-only batch solve: ``single_product._solves`` and its array arm
``_checked_values`` against the scalar loop they replace, point by point and
through every caller (the sweeps, the calibrators, the experiment cells and
the CLI)."""

import math
import os

import numpy as np
import pytest

import robustnv.single_product as sp
from robustnv import (
    CostStructure,
    ExperimentConfig,
    InputError,
    InternalCheckError,
    Method,
    MisspecIndex,
    MomentSpec,
    SampleSet,
    cv_alpha,
    formula_calibrate,
    run_experiment,
    stress_calibrate,
    sweep,
    write_demand_csv,
)
from robustnv import calibration as cal
from robustnv import evaluation as ev
from robustnv.cli import main


def _scalar_solves(alpha, mu, sig, p, c):
    """The loop that ``_solves`` batches, frozen: ``_solve`` at each point in
    order on specs built for it alone, up to the first point that raises."""
    n = max(len(x) for x in (alpha, mu, sig, p, c) if isinstance(x, list))
    cols = [x if isinstance(x, list) else [x] * n for x in (alpha, mu, sig, p, c)]
    done = []
    for a, mean, std, price, cost in zip(*cols):
        try:
            done.append(sp._solve(a, MomentSpec(mean, std), CostStructure(price, cost)))
        except Exception as exc:  # the error is part of the outcome
            return done, exc
    return done, None


def _hex(outcome):
    done, error = outcome
    pairs = [(q.hex(), v.hex()) for q, v in done]
    return pairs, None if error is None else f"{type(error).__name__}: {error}"


def _instance(rng, far=0.05):
    """Seeded (mu, sigma, p, c, alpha) over the whole range: mu 1e-2..1e4,
    sigma/mu 1e-6..2 (10% sigma = 0), p 0.1..100 (a share ``far`` near
    1e154), alpha 1e-3..1e3 * p/10."""
    mu = float(10 ** rng.uniform(-2, 4))
    sig = 0.0 if rng.uniform() < 0.1 else mu * float(10 ** rng.uniform(-6, math.log10(2)))
    p = float(10 ** rng.uniform(153, 154.5) if rng.uniform() < far else 10 ** rng.uniform(-1, 2))
    c = p * float(rng.uniform(0.01, 0.99))
    return mu, sig, p, c, float(10 ** rng.uniform(-3, 3)) * p / 10.0


def _around(x):
    return [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]


def _edges(shape, mu, sig, p, c):
    """The axis values at the edges of the array arm's vector test."""
    kappa = (p - c) / p
    margin = mu - sig * math.sqrt((1.0 - kappa) / kappa)
    if shape == "alpha":
        # alpha = 0, the infinite index, the regime threshold (the region-Q
        # boundary), an alpha/p beyond the float range
        seam = _around(p / (2.0 * margin)) if margin > 0.0 else []
        return [0.0, math.inf, 1.7e308] + seam
    if shape == "price":
        # the largest fractile, and one that rounds to 1 (prices near 1e154
        # come with the instances)
        return [c * 2.0**53, c * 2.0**60]
    # sigma = 0 and sigma near the point-mass cutoff h <= 1e-12 z, and kappa
    # at the degeneracy threshold sigma^2/(mu^2 + sigma^2)
    return [0.0, 1e-13 * mu, 1e-12 * mu, 3e-12 * mu] + _around(mu * math.sqrt(kappa / (1.0 - kappa)))


#: per axis shape, a bad value that the scalar path rejects: a price below
#: the cost, a negative std, a std whose square overflows, a negative index
_BAD = {"alpha": [-2.0, math.nan], "price": [0.5, math.nan, math.inf], "sigma": [-1.0, 1e200]}


#: the coordinate of a point (alpha, mu, sigma, price, cost) that each axis sets
_SLOT = {"alpha": 0, "price": 3, "sigma": 2}


def _axis(rng, axis, n, mu, p, c):
    """``n`` seeded ordinary values on ``axis`` (a price grid in either order)."""
    if axis == "alpha":
        return [float(a) * p / 10.0 for a in 10 ** rng.uniform(-3, 3, n)]
    if axis == "price":
        return [c + float(d) * p for d in 10 ** rng.uniform(-3, 0.5, n)][:: int(rng.choice([-1, 1]))]
    return [float(s) for s in rng.uniform(0.0, 2.0 * mu, n)]


def _grid(rng, shape):
    """One seeded batch of the shape of a caller: an index grid at fixed
    moments and cost (the alpha sweep, stress, the experiment cells), a price
    or std grid at a fixed index, or the (candidate, fold) pairs of the
    cross-validation, each fold with its own moments.  Edge values and,
    in a few batches, one bad value come first, in the middle or last."""
    mu, sig, p, c, alpha = _instance(rng)
    axis = "alpha" if shape == "folds" else shape
    xs = _axis(rng, axis, int(rng.integers(1, 20)), mu, p, c)
    xs += [e for e in _edges(axis, mu, sig, p, c) if rng.uniform() < 0.25]
    xs = [xs[i] for i in rng.permutation(len(xs))]
    if shape == "folds":
        k = int(rng.integers(2, 6))
        mus = [mu * float(f) for f in rng.uniform(0.8, 1.2, k)]
        sigs = [sig * float(f) for f in rng.uniform(0.8, 1.2, k)]
        return [a for a in xs for _ in range(k)], mus * len(xs), sigs * len(xs), p, c
    if rng.uniform() < 0.2:
        bad = _BAD[axis][int(rng.integers(len(_BAD[axis])))] * (c if axis == "price" else 1.0)
        xs.insert([0, len(xs) // 2, len(xs)][int(rng.integers(3))], bad)
    point = [alpha, mu, sig, p, c]
    point[_SLOT[axis]] = xs
    return point


@pytest.mark.parametrize("shape", ["alpha", "price", "sigma", "folds"])
def test_batch_is_bit_equal_to_the_scalar_loop(shape):
    rng = np.random.default_rng({"alpha": 1, "price": 2, "sigma": 3, "folds": 4}[shape])
    seen = {"fallback": 0, "error": 0, "passed": 0}
    for _ in range(2_000):
        args = _grid(rng, shape)
        got = _hex(sp._solves(*args))
        assert got == _hex(_scalar_solves(*args)), args
        ok = sp._checked_values(*(np.asarray(x, dtype=float)[()] for x in args))[2]
        seen["error" if got[1] else "fallback" if not ok.all() else "passed"] += 1
    assert seen["passed"] >= 500 and seen["fallback"] >= 50, seen
    assert seen["error"] >= 100 or shape == "folds", seen


@pytest.mark.parametrize("shape", ["alpha", "price", "sigma"])
def test_errors_come_at_the_first_bad_point(shape):
    rng = np.random.default_rng(36)
    for where in (0, 5, 11):
        for bad in _BAD[shape]:
            mu, sig, p, c, alpha = _instance(rng, far=0.0)
            point = [alpha, mu, sig, p, c]
            xs = _axis(rng, shape, 11, mu, p, c)
            point[_SLOT[shape]] = xs[:where] + [bad * (c if shape == "price" else 1.0)] + xs[where:]
            done, error = sp._solves(*point)
            assert _hex((done, error)) == _hex(_scalar_solves(*point))
            assert isinstance(error, InputError) and len(done) == where, (point, error)


def test_ordinary_points_never_take_the_scalar_path():
    # the copied atom, weight and image formulas of the array arm pass every
    # point that the scalar checks pass: 300 seeded 200-point sweeps
    rng = np.random.default_rng(7)
    for _ in range(300):
        mu = float(10 ** rng.uniform(-2, 4))
        sig = mu * float(10 ** rng.uniform(-6, math.log10(2)))
        p = float(10 ** rng.uniform(-1, 2))
        c = p * float(rng.uniform(0.01, 0.99))
        alphas = np.append(10 ** rng.uniform(-3, 3, 199) * p / 10.0, math.inf)
        _, _, ok = sp._checked_values(alphas, *map(np.float64, (mu, sig, p, c)))
        assert ok.all(), (mu, sig, p, c, alphas[~ok])


def _scalar_checks_pass(atoms, profits, duals, value, a, q, m):
    try:
        sp._check_moments(atoms, m)
        sp._check_attainment(profits, atoms[1], a, q, value)
        sp._check_certificate(duals, value, m)
    except InternalCheckError:
        return False
    return True


def _both_checks(atoms, profits, sdual, value, m, a=MisspecIndex(4.0), q=1.0):
    """The scalar checks' verdict and :func:`_checks_pass`'s on the same terms."""
    (v0, v1), (w0, w1), (g0, g1), (s, r, t) = atoms[0], atoms[1], profits, sdual
    duals = (("s_alpha", s), ("r_alpha", r), ("t_alpha", t))
    got = sp._checks_pass(*map(np.array, (
        [w0 + w1], [v0 * w0 + v1 * w1], [v0 * v0 * w0 + v1 * v1 * w1], [w0 * g0 + w1 * g1],
        [s], [r], [t], [value], [m.mean], [m.second_moment])))
    return _scalar_checks_pass(atoms, profits, duals, value, a, q, m), got.tolist()[0]


def test_array_checks_are_the_scalar_checks():
    # _checks_pass copies the three scalar tests: seeded evaluations with an
    # atom, a profit, the value or t moved by 0.5 to 1.5 times the tolerance
    # of the check it shifts, each verdict against the scalar one
    rng = np.random.default_rng(3_640)
    verdicts = {True: 0, False: 0}
    while sum(verdicts.values()) < 20_000:
        mu, sig, p, c, alpha = _instance(rng, far=0.0)
        m, cost, a = MomentSpec(mu, sig), CostStructure(p, c), MisspecIndex(alpha)
        q = sp._quantity(a, m, cost)[0]
        value, (vs, ws), images, duals = sp._checked_evaluation(a, q, m, cost)
        if len(vs) != 2:
            continue
        vs, gs, sdual = list(vs), [sp._profit(q, x, cost) for x in images], [d for _, d in duals]
        unit = 1e-9 * max(1.0, abs(value))
        size = abs(sdual[0] * mu) + abs(sdual[1] * m.second_moment) + abs(sdual[2])
        shift = float(rng.choice([-1.0, 1.0])) * float(rng.uniform(0.5, 1.5))
        k, which = int(rng.integers(2)), int(rng.integers(4))
        if which == 0:
            vs[k] += shift * 1e-9 * max(1.0, m.second_moment) / ws[k]
        elif which == 1:
            gs[k] += shift * unit / ws[k]
        elif which == 2:
            value += shift * unit
        else:
            sdual[2] += shift * (unit + sp._ROUNDING * size)
        want, got = _both_checks((tuple(vs), ws), gs, sdual, value, m, a, q)
        assert got == want, (mu, sig, p, c, alpha, which, shift)
        verdicts[want] += 1
    assert min(verdicts.values()) >= 5_000, verdicts
    # each test passes its tolerance exactly on the bound: |mean - mu|,
    # |attained - value| and |second moment - mu^2 - sigma^2| equal to 1e-9
    mu = 3.1622776601683795e-05  # mu * mu == 1e-9
    assert _both_checks(((0.0, 2.0 * mu), (0.5, 0.5)), [0.0, 0.0], [0.0, 0.0, 0.0], 0.0,
                        MomentSpec(mu, 0.0)) == (True, True)
    tiny = MomentSpec(1e-9, 0.0)
    assert _both_checks(((2e-9, 2e-9), (0.5, 0.5)), [0.0, 0.0], [0.0, 0.0, -1e-9], 1e-9, tiny) == (
        True, True)
    assert _both_checks(((1e-9, 1e-9), (0.5, 0.5)), [2e-9, 2e-9], [0.0, 0.0, -2e-9], 1e-9, tiny) == (
        True, True)


def test_point_masses_and_zero_indices_take_the_scalar_path(monkeypatch):
    scalar = []
    solve = sp._solve
    monkeypatch.setattr(sp, "_solve", lambda *args: scalar.append(args[0]) or solve(*args))
    mu, p, c = 50.0, 10.0, 3.0
    for sig in (0.0, 1e-14 * mu, 1e-13 * mu, 2.0):
        alphas = [0.0, 0.04, 0.4, 4.0, 40.0, math.inf]
        del scalar[:]
        sp._solves(alphas, mu, sig, p, c)
        m, cost = MomentSpec(mu, sig), CostStructure(p, c)
        masses = []
        for a in map(MisspecIndex, alphas[1:]):
            q = sp._quantity(a, m, cost)[0]
            masses += [a.alpha] * sp._region(a.inv, q, m, p)[1]
        assert scalar == [0.0] + masses, (sig, scalar, masses)
        assert len(masses) >= 3 or sig == 2.0


# ---------------------------------------------------------------------------
# the callers, against the same code on the scalar loop
# ---------------------------------------------------------------------------


def _outcome(fn, *args, **kwargs):
    try:
        return repr(fn(*args, **kwargs))
    except Exception as exc:  # the error is the outcome to compare
        return f"{type(exc).__name__}: {exc}"


def _both(monkeypatch, fn, *args, **kwargs):
    """``fn``'s outcome with the batch and with the scalar loop in its place."""
    got = _outcome(fn, *args, **kwargs)
    with monkeypatch.context() as patch:
        patch.setattr(ev, "_solves", _scalar_solves)
        patch.setattr(cal, "_solves", _scalar_solves)
        return got, _outcome(fn, *args, **kwargs)


def _samples(rng, scale, n):
    return SampleSet(tuple(float(v) for v in scale * rng.gamma(4.0, 0.5, n)))


def test_sweeps_match_the_scalar_loop_with_bad_points_first_middle_and_last(monkeypatch):
    rng = np.random.default_rng(3_636)
    train, test = _samples(rng, 4.0, 60), _samples(rng, 3.5, 40)
    cost = CostStructure(10.0, 3.0)
    config = ExperimentConfig(train, cost, (0.0, 0.4, 4.0, math.inf), (Method.MISSPEC,), 0, test)
    grids = {
        "alpha": ([0.0, 0.01, 0.4, 4.0, 40.0, math.inf], -2.0),
        "price": ([4.0, 6.0, 9.5, 14.0, 25.0, 40.0][::-1], 1.0),
        "sigma": ([0.0, 1e-13, 0.5, 1.0, 2.0, 5.0], -1.0),
    }
    seen = 0
    for axis, (values, bad) in grids.items():
        for where in (None, 0, 3, 6):
            vals = list(values) if where is None else values[:where] + [bad] + values[where:]
            got, want = _both(monkeypatch, sweep, axis, config, vals, 4.0)
            assert got == want, (axis, where)
            seen += want.startswith("InputError")
    assert seen == 9


def _poisoned(monkeypatch, poison):
    """Make the scalar ``_solve`` raise at the indices in ``poison`` (also
    where a caller solves one point alone), and the array arm hand those
    points to it."""
    solve, checked = sp._solve, sp._checked_values

    def poisoned_solve(alpha, m, cost):
        a = float(getattr(alpha, "alpha", alpha))
        if a in poison:
            raise InputError(f"poisoned alpha={a!r} at mean={m.mean!r}")
        return solve(alpha, m, cost)

    def poisoned_values(alpha, *rest):
        q, value, ok = checked(alpha, *rest)
        return q, value, ok & ~np.isin(alpha, list(poison))

    monkeypatch.setattr(sp, "_solve", poisoned_solve)
    monkeypatch.setattr(ev, "_solve", poisoned_solve)
    monkeypatch.setattr(cal, "_solve", poisoned_solve)
    monkeypatch.setattr(sp, "_checked_values", poisoned_values)


def test_calibrators_match_the_scalar_loop_with_bad_points_first_middle_and_last(monkeypatch):
    rng = np.random.default_rng(3_637)
    train, test = _samples(rng, 4.0, 80), _samples(rng, 3.2, 50)
    cost = CostStructure(10.0, 3.0)
    grid = [0.02, 0.2, 1.0, 4.0, 25.0, math.inf]
    eps = [0.01, 0.1, 0.5, 2.0]
    shift = cal._shift(train, test, 0)[1]
    split = cal._folds(train, 4, cal._shift(train, test, 0)[0])
    # formula's indices differ from fold to fold: poison one pair's index
    radii = [[cal.alpha_for_radius(e + shift, m, cost).alpha for _, m in split] for e in eps]
    errors = 0
    for where in (None, 0, 2, -1):
        with monkeypatch.context() as patch:
            if where is not None:
                _poisoned(patch, {grid[where], radii[where][1]})
            for fn, args, kwargs in (
                (cv_alpha, (train, cost, grid), {"folds": 4}),
                (formula_calibrate, (train, test, cost, eps), {"folds": 4}),
                (stress_calibrate, (train, test, cost, grid), {}),
            ):
                got, want = _both(patch, fn, *args, **kwargs)
                assert got == want, (fn.__name__, where)
                errors += "poisoned" in want
    assert errors == 9


def test_experiment_cells_keep_the_cell_order_rule(monkeypatch):
    rng = np.random.default_rng(3_638)
    train, test = _samples(rng, 4.0, 60), _samples(rng, 3.5, 30)
    cost = CostStructure(10.0, 3.0)
    grid = (0.05, 0.5, 5.0, math.inf)
    first = (Method.MISSPEC, Method.TV, Method.AMBIGUITY)
    later = (Method.TV, Method.AMBIGUITY, Method.NOMINAL, Method.MISSPEC)
    # (methods, poisoned indices, poisoned TV cell, the error the cells meet first)
    cases = [
        (first, set(), None, None),
        (first, {0.05}, None, "poisoned alpha=0.05"),
        (first, {5.0}, 0.5, "poisoned alpha=5.0"),
        (first, {math.inf}, 5.0, "poisoned alpha=inf"),
        (first, set(), 0.05, "poisoned TV cell at alpha=0.05"),
        (later, set(), None, None),
        (later, {0.05}, None, "poisoned alpha=0.05"),
        (later, {5.0}, 0.5, "poisoned TV cell at alpha=0.5"),
        (later, {math.inf}, None, "poisoned alpha=inf"),
        (later, {math.inf}, 5.0, "poisoned TV cell at alpha=5.0"),
    ]
    method_solution = ev._method_solution
    for methods, poison, tv_poison, error in cases:
        with monkeypatch.context() as patch:
            _poisoned(patch, poison)

            def cell(method, a, config, tv_poison=tv_poison):
                if method is Method.TV and a == tv_poison:
                    raise InputError(f"poisoned TV cell at alpha={a!r}")
                return method_solution(method, a, config)

            patch.setattr(ev, "_method_solution", cell)
            for theta in (0.0, 0.3):
                config = ExperimentConfig(train, cost, grid, methods, 2, test, theta)
                got, want = _both(patch, run_experiment, config)
                assert got == want, (methods, poison, tv_poison)
                if error is None:
                    assert want.startswith("ExperimentReport(")
                else:
                    assert want.startswith(f"InputError: {error}"), (want, error)


# ---------------------------------------------------------------------------
# the console script, byte for byte
# ---------------------------------------------------------------------------


def _cli_bytes(argv, path):
    code = main(["--out", path] + argv)
    data = open(path, "rb").read() if os.path.exists(path) else b""
    if os.path.exists(path):
        os.remove(path)
    return code, data


def test_cli_writes_the_same_bytes_on_the_scalar_loop(tmp_path, monkeypatch, capsys):
    rng = np.random.default_rng(3_639)
    train, test = str(tmp_path / "train.csv"), str(tmp_path / "test.csv")
    write_demand_csv(train, [float(v) for v in 4.0 * rng.gamma(4.0, 0.5, 90)])
    write_demand_csv(test, [float(v) for v in 3.4 * rng.gamma(4.0, 0.5, 40)])
    cost = ["--price", "10", "--cost", "3"]
    data = ["--train", train, "--test", test]
    runs = []
    for fmt in ("json", "csv"):
        head = ["--format", fmt]
        runs += [
            head + ["sweep", "--axis", "alpha"] + cost + data,
            head + ["sweep", "--axis", "alpha"] + cost + data + ["--alpha-grid", "0,inf"],
            head + ["sweep", "--axis", "alpha"] + cost + data + ["--min", "0.01", "--max", "1e3"],
            head + ["sweep", "--axis", "price"] + cost + data + ["--alpha", "4"],
            head + ["sweep", "--axis", "price"] + cost + data + [
                "--alpha", "inf", "--min", "40", "--max", "3.5", "--count", "57"],
            head + ["sweep", "--axis", "price"] + cost + data + [
                "--alpha", "4", "--min", "1", "--max", "40", "--count", "30"],
            head + ["sweep", "--axis", "sigma"] + cost + data + [
                "--alpha", "0.4", "--min", "0", "--max", "6", "--count", "41"],
            head + ["sweep", "--axis", "sigma"] + cost + ["--mu", "4", "--sigma", "1"] + [
                "--alpha", "0", "--min", "0", "--max", "6"],
            head + ["sweep", "--axis", "sigma"] + cost + data + [
                "--alpha", "4", "--min", "-1", "--max", "6"],
        ]
    runs += [
        ["calibrate", "--method", "cv"] + cost + ["--train", train],
        ["calibrate", "--method", "cv"] + cost + ["--train", train, "--alpha-grid", "0,0.5,inf"],
        ["calibrate", "--method", "formula"] + cost + data + ["--folds", "3"],
        ["calibrate", "--method", "stress"] + cost + data,
        ["experiment"] + cost + data + ["--folds", "3"],
        ["experiment"] + cost + data + ["--theta", "0.4", "--alpha-grid", "0,0.3,3,inf"],
    ]
    codes = []
    for argv in runs:
        got = _cli_bytes(argv, str(tmp_path / "out.txt"))
        with monkeypatch.context() as patch:
            patch.setattr(ev, "_solves", _scalar_solves)
            patch.setattr(cal, "_solves", _scalar_solves)
            want = _cli_bytes(argv, str(tmp_path / "out.txt"))
        assert got == want, argv
        codes.append(got[0])
    assert codes.count(2) == 4 and codes.count(0) == len(runs) - 4, codes
    capsys.readouterr()
