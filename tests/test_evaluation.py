"""Evaluation harness: out-of-sample scoring, sweeps, experiments, file I/O."""

import json
import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from robustnv import (
    CostStructure,
    DemandKind,
    DiscreteDistribution,
    ExperimentConfig,
    InputError,
    InternalCheckError,
    Method,
    MomentSpec,
    SampleSet,
    SweepSeries,
    cv_alpha,
    draw_demand,
    formula_calibrate,
    generate_demand,
    load_demand_csv,
    misspec_quantity,
    nominal_quantity,
    oracle_check,
    out_of_sample_profit,
    price_threshold_scan,
    profit,
    run_experiment,
    scarf_quantity,
    stress_calibrate,
    sweep,
    variance_threshold_scan,
    write_demand_csv,
)
from robustnv import evaluation as ev
from robustnv.evaluation import (
    ExperimentReport,
    MethodCell,
    config_digest,
    demand_csv_text,
    parse_sweep_csv,
    report_csv_text,
    report_json_text,
    sweep_csv_text,
    sweep_json_text,
)

COST = CostStructure(10, 3)


def stationary_config(seed, n_train=60, n_test=60, grid=(0.5, 2.0, 8.0, math.inf)):
    train = generate_demand("TRUNC_NORMAL", {"mu": 6.0, "sigma": 2.0}, n_train, seed)
    test = generate_demand("TRUNC_NORMAL", {"mu": 6.0, "sigma": 2.0}, n_test, seed + 10_000)
    return ExperimentConfig(
        train=train,
        cost=COST,
        alpha_grid=grid,
        methods=tuple(Method),
        seed=seed,
        test=test,
    )


# ---------------------------------------------------------------------------
# out-of-sample scoring
# ---------------------------------------------------------------------------


def test_out_of_sample_profit_examples():
    assert out_of_sample_profit(2.0, SampleSet((1.0, 3.0)), COST) == pytest.approx(9.0)
    assert out_of_sample_profit(0.0, SampleSet((1.0, 3.0)), COST) == 0.0
    with pytest.raises(InputError):
        out_of_sample_profit(-1.0, SampleSet((1.0, 3.0)), COST)


def test_out_of_sample_profit_linear_in_concatenation():
    rng = np.random.default_rng(2)
    a = tuple(float(v) for v in rng.uniform(1, 9, 8))
    b = tuple(float(v) for v in rng.uniform(1, 9, 12))
    q = 4.2
    combined = out_of_sample_profit(q, SampleSet(a + b), COST)
    parts = (
        len(a) * out_of_sample_profit(q, SampleSet(a), COST)
        + len(b) * out_of_sample_profit(q, SampleSet(b), COST)
    ) / (len(a) + len(b))
    assert combined == pytest.approx(parts, rel=1e-12)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


def test_alpha_sweep_monotone_and_capped():
    train = SampleSet((2.0, 2.0, 6.0, 6.0))  # moments (4, 2)
    config = ExperimentConfig(
        train=train, cost=COST, alpha_grid=(1.0,), methods=(Method.MISSPEC,), seed=0
    )
    values = [float(a) for a in np.geomspace(0.01, 500.0, 60)] + [math.inf]
    series = sweep("alpha", config, values=values)
    cap = 4.872872
    for lo, hi in zip(series.quantities, series.quantities[1:]):
        assert hi >= lo - 1e-12
    assert all(q <= cap + 1e-6 for q in series.quantities)
    assert series.quantities[-1] == pytest.approx(4.872871560943969, abs=1e-9)
    # worst-case values come straight from the closed-form solve
    mid = len(values) // 2
    rep = misspec_quantity(values[mid], train.moments, COST)
    assert series.in_sample[mid] == pytest.approx(rep.value, rel=1e-12)
    assert all(math.isnan(x) for x in series.out_of_sample)  # no test data


def test_price_sweep_turn_matches_threshold_scan():
    train = SampleSet((1.5, 1.5, 6.5, 6.5))  # moments (4, 2.5)
    config = ExperimentConfig(
        train=train, cost=CostStructure(10, 3), alpha_grid=(4.0,), methods=(Method.MISSPEC,), seed=0
    )
    grid = [float(p) for p in np.linspace(4.0, 40.0, 721)]
    series = sweep("price", config, values=grid, alpha=4.0)
    scan = price_threshold_scan(4.0, train.moments, 3.0, grid)
    turn = series.values[int(np.argmax(series.quantities))]
    assert scan is not None
    assert abs(turn - scan) <= (grid[1] - grid[0]) + 1e-12


def test_sigma_sweep_turn_matches_threshold_scan():
    train = SampleSet((2.0, 2.0, 6.0, 6.0))
    config = ExperimentConfig(
        train=train, cost=COST, alpha_grid=(1.5,), methods=(Method.MISSPEC,), seed=0
    )
    hi = 4.0 * math.sqrt(0.7 / 0.3) * 0.999
    grid = [float(s) for s in np.linspace(0.05, hi, 601)]
    series = sweep("sigma", config, values=grid)  # sole grid entry supplies alpha
    scan = variance_threshold_scan(1.5, COST, 4.0, grid)
    turn = series.values[int(np.argmax(series.quantities))]
    assert scan is not None
    assert abs(turn - scan) <= (grid[1] - grid[0]) + 1e-12
    assert scan == pytest.approx(8.0 / math.sqrt(21.0), abs=0.02)


def test_sweep_out_of_sample_uses_point_price():
    config = stationary_config(3, grid=(2.0,))
    series = sweep("price", config, values=[6.0, 9.0, 12.0], alpha=2.0)
    # recompute one point by hand at that point's price
    cc = CostStructure(9.0, 3.0)
    rep = misspec_quantity(2.0, config.train.moments, cc)
    assert series.quantities[1] == pytest.approx(rep.quantity, rel=1e-12)
    assert series.out_of_sample[1] == pytest.approx(
        out_of_sample_profit(rep.quantity, config.test, cc), rel=1e-12
    )


def test_sweep_validation():
    config = stationary_config(1)
    with pytest.raises(InputError):
        sweep("kappa", config)
    with pytest.raises(InputError):
        sweep("price", config)  # four grid entries, no explicit alpha
    with pytest.raises(InputError):
        SweepSeries("alpha", (1.0, 2.0), (1.0,), (1.0, 2.0), (1.0, 2.0))


# ---------------------------------------------------------------------------
# experiment protocol
# ---------------------------------------------------------------------------


# reference: the per-point out-of-sample profit as it stood before the test
# observations were converted and checked once per protocol


def _per_point_profit(q, test, cost):
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(np.mean(profit(q, np.asarray(test.values, dtype=float), cost)))
    if not math.isfinite(mean):
        raise InputError(f"the out-of-sample profit of q={q!r} leaves the float range")
    return mean


def _per_point_sweep(axis, config, values, alpha=None):
    m, base = config.train.moments, config.cost
    rows = []
    for v in values:
        v = float(v)
        if axis == "alpha":
            a, moments, cost = v, m, base
        elif axis == "price":
            a, moments, cost = alpha, m, CostStructure(v, base.cost)
        else:
            a, moments, cost = alpha, MomentSpec(m.mean, v), base
        r = misspec_quantity(a, moments, cost)
        out = math.nan if config.test is None else _per_point_profit(r.quantity, config.test, cost)
        rows.append((v, r.quantity, r.value, out))
    return SweepSeries(axis, *(tuple(col) for col in zip(*rows)))


def _either(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except InputError as exc:
        return f"InputError: {exc}"


def _sample(rng, scale, n):
    return SampleSet(tuple(float(v) for v in scale * rng.gamma(4.0, 0.5, n)))


def test_sweep_bytes_match_the_per_point_reference_on_every_axis():
    rng = np.random.default_rng(1414)
    for k in range(36):
        scale = float(10 ** rng.uniform(-2, 4))
        p = float(10 ** rng.uniform(-1, 2))
        cost = CostStructure(p, p * float(rng.uniform(0.05, 0.6)))
        test = None if k % 6 == 0 else _sample(rng, scale, int(rng.integers(2, 300)))
        config = ExperimentConfig(train=_sample(rng, scale, int(rng.integers(2, 300))),
                                  cost=cost, alpha_grid=(1.0,), methods=(Method.MISSPEC,),
                                  seed=k, test=test)
        alpha = math.inf if k % 4 == 0 else float(10 ** rng.uniform(-3, 6)) * p / 10
        n = int(rng.integers(1, 60))
        grids = {
            "alpha": [float(10 ** e) * p / 10 for e in np.sort(rng.uniform(-3, 15, n))]
            + [math.inf],
            "price": np.linspace(1.05 * cost.cost, 3 * p, n),
            "sigma": np.linspace(1e-3 * scale, 4 * scale, n),  # past the degeneracy gate
        }
        for axis, values in grids.items():
            got = sweep(axis, config, values=values, alpha=alpha)
            want = _per_point_sweep(axis, config, values, alpha)
            assert sweep_csv_text(got) == sweep_csv_text(want), (k, axis)
            assert sweep_json_text(got) == sweep_json_text(want), (k, axis)


def test_overflowing_test_profit_fails_where_the_per_point_reference_fails():
    rng = np.random.default_rng(3)
    train, test = _sample(rng, 1e151, 40), _sample(rng, 1e151, 400)
    config = ExperimentConfig(train=train, cost=CostStructure(1e153, 3e152), alpha_grid=(1.0,),
                              methods=(Method.MISSPEC,), seed=0, test=test)
    values = np.geomspace(4e152, 1e156, 40)
    want = _either(_per_point_sweep, "price", config, values, math.inf)
    assert want.startswith("InputError: the out-of-sample profit of q=")
    # the profit fails at a point inside the grid, not at its first point
    first = _either(_per_point_sweep, "price", config, values[:1], math.inf)
    assert not isinstance(first, str)
    assert _either(sweep, "price", config, values=values, alpha=math.inf) == want
    # an experiment fails at the same cell: the first, whose quantity the message names
    at = float(values[-1])
    rich = ExperimentConfig(train=train, cost=CostStructure(at, 3e152), alpha_grid=(1.0, 2.0),
                            methods=(Method.NOMINAL, Method.MISSPEC), seed=0, test=test)
    q = nominal_quantity(train.empirical, rich.cost)
    want = _either(_per_point_profit, q, test, rich.cost)
    assert want.startswith("InputError: the out-of-sample profit of q=")
    assert _either(run_experiment, rich) == want


def _per_cell_experiment(config):
    emp, cost, test = config.train.empirical, config.cost, config.test
    cells = []
    for method in config.methods:
        for a in config.alpha_grid:
            q, worst = ev._method_solution(method, a, config)
            in_sample = emp.expectation(lambda v: profit(q, v, cost))
            out = None if test is None else _per_point_profit(q, test, cost)
            cells.append(MethodCell(method, a, q, in_sample, out, worst))
    seed, folds = config.seed, config.folds
    picks = (
        ("cv", cv_alpha(config.train, cost, config.alpha_grid, folds=folds, seed=seed).alpha),
        ("formula", None if test is None else formula_calibrate(
            config.train, test, cost, config.eps_grid, seed=seed, folds=folds).alpha),
        ("stress", None if test is None else stress_calibrate(
            config.train, test, cost, config.alpha_grid, seed=seed).alpha),
    )
    return ExperimentReport(seed, config_digest(config), ev.__version__, tuple(cells), picks)


def _report_outcome(fn, config):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # stress fallbacks, degenerate moments
        try:
            return repr(fn(config))
        except Exception as exc:  # the exception is the outcome to compare
            return f"{type(exc).__name__}: {exc}"


def test_run_experiment_matches_the_per_cell_reference():
    rng = np.random.default_rng(2_324)
    outcomes = set()
    for k in range(16):
        # the last configs sit near the float range, where profits and solves fail
        edge = k >= 10
        scale = 5e151 if edge else float(10 ** rng.uniform(-2, 4))
        p = float(rng.uniform(8.3e153, 9.6e153)) if edge else float(10 ** rng.uniform(-1, 2))
        cost = CostStructure(p, p * (0.3 if edge else float(rng.uniform(0.05, 0.9))))
        test = None if k % 5 == 0 else _sample(rng, scale * float(rng.uniform(0.5, 1.2)), 400)
        n = int(rng.integers(1, 6))
        grid = tuple(float(10 ** e) * p / scale for e in rng.uniform(-3, 2, n)) + (math.inf,) * (k % 2)
        methods = tuple(list(Method)[i] for i in rng.permutation(5)[: int(rng.integers(1, 6))])
        config = ExperimentConfig(
            train=_sample(rng, scale, 2_000 if edge else int(rng.integers(10, 300))),
            cost=cost, alpha_grid=grid, methods=methods, seed=k, test=test,
            theta=float(rng.uniform(0.0, 0.5)) * scale * (k % 3 != 0),
            eps_grid=tuple(float(e) * scale * scale for e in 10 ** rng.uniform(-4, 0.5, 3)),
            folds=int(rng.integers(2, 6)))
        want = _report_outcome(_per_cell_experiment, config)
        assert _report_outcome(run_experiment, config) == want, k
        outcomes.add("report" if want.startswith("ExperimentReport(")
                     else "profit" if "out-of-sample profit" in want else "solve")
    assert outcomes == {"report", "profit", "solve"}, outcomes


def test_in_sample_profit_beyond_the_float_range_warns_nothing():
    # the nominal quantity's in-sample profit overflows (and, at the higher
    # price, reads inf - inf) before the experiment's cv solve fails
    rng = np.random.default_rng(3)
    train = _sample(rng, 1e151, 40)
    for price in (1e157, 1e158):
        config = ExperimentConfig(train=train, cost=CostStructure(price, 3e156),
                                  alpha_grid=(1e12,), methods=(Method.NOMINAL,), seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match="^" + re.escape(
                    f"the worst-case value or a term of its checks leaves the float range "
                    f"at price={price!r}, ")):
                run_experiment(config)


def test_run_experiment_shape_and_determinism():
    config = stationary_config(7)
    report = run_experiment(config)
    assert len(report.cells) == len(config.methods) * len(config.alpha_grid)
    assert report_json_text(report) == report_json_text(run_experiment(config))
    # constant methods do not react to the index; the solver one does
    by_method = {}
    for cell in report.cells:
        by_method.setdefault(cell.method, []).append(cell)
    for m in (Method.NOMINAL, Method.AMBIGUITY):
        qs = {c.quantity for c in by_method[m]}
        assert len(qs) == 1
    misspec_qs = [c.quantity for c in by_method[Method.MISSPEC]]
    assert misspec_qs == sorted(misspec_qs)
    assert by_method[Method.AMBIGUITY][0].worst_case == pytest.approx(
        scarf_quantity(config.train.moments, COST).value, rel=1e-12
    )
    assert by_method[Method.NOMINAL][0].worst_case is None
    # selections: all three present with test data
    sel = dict(report.selections)
    assert set(sel) == {"cv", "formula", "stress"}
    assert sel["cv"] in set(config.alpha_grid)
    assert all(report.selection(name) == pick for name, pick in sel.items())
    with pytest.raises(KeyError):
        report.selection("delage_ye")


def test_run_experiment_without_test_data():
    config = stationary_config(9)
    config = ExperimentConfig(
        train=config.train,
        cost=config.cost,
        alpha_grid=config.alpha_grid,
        methods=(Method.MISSPEC, Method.TV),
        seed=config.seed,
        test=None,
    )
    report = run_experiment(config)
    assert all(c.out_of_sample is None for c in report.cells)
    sel = dict(report.selections)
    assert sel["formula"] is None and sel["stress"] is None
    assert sel["cv"] is not None


def test_config_digest_tracks_inputs():
    base = stationary_config(5)
    other = ExperimentConfig(
        train=base.train,
        cost=base.cost,
        alpha_grid=base.alpha_grid + (99.0,),
        methods=base.methods,
        seed=base.seed,
        test=base.test,
    )
    assert config_digest(base) != config_digest(other)
    assert config_digest(base) == config_digest(stationary_config(5))


def test_experiment_config_stores_the_theta_and_folds_it_checked():
    base = stationary_config(5, n_train=30, n_test=30, grid=(0.5, 4.0))
    fields = {"train": base.train, "cost": base.cost, "alpha_grid": base.alpha_grid,
              "methods": (Method.MISSPEC, Method.WASSERSTEIN), "seed": 5, "test": base.test}
    want = ExperimentConfig(**fields, theta=0.5, folds=3)
    for theta, folds in ((np.float32(0.5), "3"), (Fraction(1, 2), np.int64(3)), ("0.5", 3.0)):
        got = ExperimentConfig(**fields, theta=theta, folds=folds)
        assert type(got.theta) is float and type(got.folds) is int
        assert got == want and config_digest(got) == config_digest(want)
    assert report_json_text(run_experiment(got)) == report_json_text(run_experiment(want))
    cv = cv_alpha(base.train, COST, (0.5, 4.0), folds="3", seed=5)  # the same rule
    assert cv == cv_alpha(base.train, COST, (0.5, 4.0), folds=3, seed=5)
    for folds, message in ((2.7, "whole number, got 2.7"), ("2.5", "whole number"),
                           (None, "folds must be a finite number"), (1, ">= 2, got 1")):
        with pytest.raises(InputError, match=message):
            ExperimentConfig(**fields, folds=folds)
        with pytest.raises(InputError, match=message):
            cv_alpha(base.train, COST, (0.5, 4.0), folds=folds)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("alpha_grid", ("x",), r"alpha_grid\[0\] must be a finite number"),
        ("alpha_grid", (1.0, math.nan), r"alpha_grid\[1\] must be finite, got nan"),
        ("alpha_grid", (-1.0,), r"alpha_grid\[0\] must be >= 0, got -1.0"),
        ("alpha_grid", (-math.inf,), r"alpha_grid\[0\] must be finite, got -inf"),
        ("alpha_grid", (10**400,), r"alpha_grid\[0\] must be finite, got an int beyond"),
        ("eps_grid", (None,), r"eps_grid\[0\] must be a finite number"),
        ("eps_grid", (0.1, -0.5), r"eps_grid\[1\] must be >= 0, got -0.5"),
        ("eps_grid", (math.inf,), r"eps_grid\[0\] must be finite, got inf"),
        ("seed", "a", r"seed must be a finite number"),
        ("seed", 1.7, r"seed must be a whole number, got 1.7"),
        ("seed", None, r"seed must be a finite number"),
        ("seed", -1, r"seed must be >= 0, got -1"),
    ],
)
def test_experiment_config_rejects_each_bad_entry_by_name(field, value, message):
    fields = {"train": SampleSet((1.0, 2.0, 4.0)), "cost": COST, "alpha_grid": (1.0,),
              "methods": (Method.MISSPEC,), "seed": 0}
    with pytest.raises(InputError, match=f"^{message}"):
        ExperimentConfig(**{**fields, field: value})


def test_experiment_config_stores_the_indices_budgets_and_seed_it_checked():
    fields = {"train": SampleSet((1.0, 2.0, 4.0)), "cost": COST, "methods": (Method.MISSPEC,)}
    want = ExperimentConfig(**fields, alpha_grid=(0.0, 2.0, math.inf), eps_grid=(0.0, 0.5),
                            seed=7)
    for alphas, eps, seed in (((0, 2, "inf"), (0, "0.5"), np.int64(7)),
                              ((np.float32(0.0), Fraction(2), math.inf), (0.0, 0.5), 7.0)):
        got = ExperimentConfig(**fields, alpha_grid=alphas, eps_grid=eps, seed=seed)
        assert got == want and config_digest(got) == config_digest(want)
        assert all(type(x) is float for x in got.alpha_grid + got.eps_grid)
        assert type(got.seed) is int
    big = ExperimentConfig(**fields, alpha_grid=(1.0,), seed=2**64 - 1)
    assert big.seed == 2**64 - 1  # an int seed is kept exactly, not through a float


def test_stationary_data_favors_the_nominal_method():
    # with no shift between train and test, the sample-quantile order should
    # win (up to sampling noise) against the robust alternatives
    wins = 0
    seeds = range(31)
    for seed in seeds:
        report = run_experiment(stationary_config(200 + seed, n_test=200))
        best = {}
        for cell in report.cells:
            cur = best.get(cell.method)
            if cur is None or cell.out_of_sample > cur:
                best[cell.method] = cell.out_of_sample
        nominal = best.pop(Method.NOMINAL)
        rival = max(best.values())
        if nominal >= rival - 0.02 * abs(rival):
            wins += 1
    assert wins > len(seeds) // 2, f"nominal led on only {wins}/31 seeds"


def test_downward_shift_lets_misspec_beat_ambiguity():
    hits = 0
    seeds = range(31)
    for seed in seeds:
        train = generate_demand("TRUNC_NORMAL", {"mu": 6.0, "sigma": 2.0}, 60, 600 + seed)
        shifted = SampleSet(tuple(0.65 * v for v in generate_demand(
            "TRUNC_NORMAL", {"mu": 6.0, "sigma": 2.0}, 120, 9_600 + seed
        ).values))
        config = ExperimentConfig(
            train=train,
            cost=COST,
            alpha_grid=tuple(float(a) for a in np.geomspace(0.05, 20.0, 10)),
            methods=(Method.AMBIGUITY, Method.MISSPEC),
            seed=seed,
            test=shifted,
        )
        report = run_experiment(config)
        amb = max(
            c.out_of_sample for c in report.cells if c.method is Method.AMBIGUITY
        )
        mis = max(
            c.out_of_sample for c in report.cells if c.method is Method.MISSPEC
        )
        if mis >= amb:
            hits += 1
    assert hits > len(seeds) // 2, f"misspec matched ambiguity on only {hits}/31 seeds"


# ---------------------------------------------------------------------------
# synthetic demand
# ---------------------------------------------------------------------------


def test_draw_demand_reproducible_and_nonnegative():
    a = draw_demand("TRUNC_NORMAL", {"mu": 4.0, "sigma": 2.0}, 50, seed=12)
    b = draw_demand("TRUNC_NORMAL", {"mu": 4.0, "sigma": 2.0}, 50, seed=12)
    c = draw_demand("TRUNC_NORMAL", {"mu": 4.0, "sigma": 2.0}, 50, seed=13)
    assert a == b
    assert a != c
    assert all(v >= 0.0 for v in a)
    single = draw_demand(DemandKind.LOGNORMAL, {"mu": 1.0, "sigma": 0.4}, 1, seed=0)
    assert len(single) == 1 and single[0] >= 0.0


def test_trunc_normal_mean_matches_formula():
    n = 100_000
    vals = np.asarray(draw_demand("TRUNC_NORMAL", {"mu": 4.0, "sigma": 2.0}, n, seed=99))
    a = (0.0 - 4.0) / 2.0
    target_mean = stats.truncnorm.mean(a, np.inf, loc=4.0, scale=2.0)
    target_std = stats.truncnorm.std(a, np.inf, loc=4.0, scale=2.0)
    assert abs(vals.mean() - target_mean) <= 3.0 * target_std / math.sqrt(n)


def test_regime_shift_concatenates_two_segments():
    vals = draw_demand(
        "REGIME_SHIFT",
        {"mu": 10.0, "sigma": 1.0, "mu2": 3.0, "sigma2": 1.0, "split": 0.5},
        400,
        seed=21,
    )
    head, tail = np.asarray(vals[:200]), np.asarray(vals[200:])
    assert head.mean() > tail.mean() + 4.0
    with pytest.raises(InputError):
        draw_demand("REGIME_SHIFT", {"mu": 10.0, "sigma": 1.0}, 10, seed=0)
    with pytest.raises(InputError):
        draw_demand("TRUNC_NORMAL", {"mu": 4.0, "sigma": 2.0}, 0, seed=0)
    with pytest.raises(ValueError):
        draw_demand("CAUCHY", {"mu": 4.0, "sigma": 2.0}, 5, seed=0)


def test_enum_inputs_raise_input_error_naming_the_allowed_values():
    train = SampleSet((3.0, 5.0, 4.0))
    with pytest.raises(InputError, match="NOMINAL, AMBIGUITY, MISSPEC, WASSERSTEIN, TV, got 'FOO'"):
        ExperimentConfig(train=train, cost=COST, alpha_grid=(1.0,), methods=("FOO",), seed=0)
    with pytest.raises(InputError, match="TRUNC_NORMAL, LOGNORMAL, REGIME_SHIFT, got 'gamma'"):
        draw_demand("gamma", {"mu": 1, "sigma": 1}, 3, 0)
    # members and their values still pass
    config = ExperimentConfig(train=train, cost=COST, alpha_grid=(1.0,),
                              methods=("TV", Method.NOMINAL), seed=0)
    assert config.methods == (Method.TV, Method.NOMINAL)
    assert len(draw_demand(DemandKind.LOGNORMAL, {"mu": 1, "sigma": 1}, 3, 0)) == 3


def test_generate_demand_needs_two_draws():
    with pytest.raises(InputError):
        generate_demand("TRUNC_NORMAL", {"mu": 4.0, "sigma": 2.0}, 1, seed=0)
    s = generate_demand("TRUNC_NORMAL", {"mu": 4.0, "sigma": 2.0}, 2, seed=0)
    assert s.n == 2


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------


def test_demand_csv_round_trip(tmp_path):
    path = str(tmp_path / "demand.csv")
    values = (1.25, 0.0, 7.5, 3.125)
    write_demand_csv(path, values)
    text = open(path, encoding="utf-8").read()
    assert text.startswith("date,demand\n2020-01-01,1.250000\n2020-01-02,0.000000\n")
    loaded = load_demand_csv(path)
    assert loaded.values == pytest.approx(values, abs=1e-9)


@pytest.mark.parametrize(
    "body,fragment",
    [
        ("count,demand\n2020-01-01,4\n2020-01-02,5\n", "line 1"),
        ("date,demand\nnot-a-date,4\n2020-01-02,5\n", "line 2"),
        ("date,demand\n2020-01-01,4\n2020-01-02,\n", "line 3"),
        ("date,demand\n2020-01-01,4\n2020-01-02,abc\n", "line 3"),
        ("date,demand\n2020-01-01,4\n2020-01-02,-1\n", "line 3"),
        ("date,demand\n2020-01-01,4\n2020-01-02,nan\n", "bad.csv: line 3: demand must be finite"),
        ("date,demand\n2020-01-01,4\n2020-01-02,inf\n", "bad.csv: line 3: demand must be finite"),
        ("date,demand\n2020-01-01,1e400\n2020-01-02,4\n", "bad.csv: line 2: demand must be finite"),
        ("date,demand\n2020-01-01,4,9\n", "line 2"),
        ("date,demand\n2020-01-01,4\n", "at least 2"),
        # a blank row is skipped, and the line count runs on past it
        ("date,demand\n2020-01-01,4\n\n2020-01-02,abc\n", "line 4"),
        ("date,demand\n2020-01-01,4\n\n", "got 1"),
    ],
)
def test_demand_csv_schema_errors_carry_line_numbers(tmp_path, body, fragment):
    path = tmp_path / "bad.csv"
    path.write_text(body, encoding="utf-8")
    with pytest.raises(InputError) as err:
        load_demand_csv(str(path))
    assert fragment in str(err.value)


# a demand file that is not UTF-8 text, and one whose field passes csv's
# field size limit (131,072 characters)
MALFORMED_DEMAND_FILES = {
    "not-utf8": (b"date,demand\n2020-01-01,4\n2020-01-02,\xff5\n",
                 "not UTF-8 text (invalid start byte)"),
    "huge-field": (b"date,demand\n2020-01-01," + b"1" * 200_000 + b"\n2020-01-02,5\n",
                   "line 2: field larger than field limit"),
}


@pytest.mark.parametrize("name", MALFORMED_DEMAND_FILES)
def test_malformed_demand_files_raise_input_error_naming_the_file(tmp_path, name):
    body, fragment = MALFORMED_DEMAND_FILES[name]
    path = tmp_path / f"{name}.csv"
    path.write_bytes(body)
    with pytest.raises(InputError) as err:
        load_demand_csv(str(path))
    assert str(err.value).startswith(f"{path}: {fragment}")


def test_sweep_csv_field_beyond_the_size_limit_is_input_error():
    head = "axis,value,quantity,in_sample,out_of_sample\n"
    with pytest.raises(InputError, match="^line 3: field larger than field limit"):
        parse_sweep_csv(head + "alpha,1.0,2.0,3.0,4.0\nalpha," + "1" * 200_000 + ",2,3,4\n")
    # a quoted field that spans lines is one row, reported at the line it starts on
    with pytest.raises(InputError, match="^line 2: expected 5 fields, got 2"):
        parse_sweep_csv(head + '"alpha\n1.0",2.0\n')


def test_sweep_csv_round_trip_exact():
    config = stationary_config(17, grid=(0.5, 2.0, 8.0))
    series = sweep("alpha", config, values=[1 / 3, 2 / 7, 5.0, math.inf])
    text = sweep_csv_text(series)
    assert parse_sweep_csv(text) == series
    head, *rows = text.splitlines(keepends=True)
    assert parse_sweep_csv(head + "\n" + "".join(rows) + "\n") == series  # blank lines skipped
    with pytest.raises(InputError):
        parse_sweep_csv("alpha,value\n")
    for body, fragment in [
        ("alpha,1.0,2.0,3.0\n", "line 2: expected 5 fields, got 4"),
        ("\nalpha,1.0,two,3.0,nan\n", "line 3: bad numeric field"),
        ("", "no data rows"),
        ("\n\n", "no data rows"),
    ]:
        with pytest.raises(InputError, match=fragment):
            parse_sweep_csv(head + body)
    mixed = text.splitlines()
    mixed[2] = mixed[2].replace("alpha", "price", 1)
    with pytest.raises(InputError):
        parse_sweep_csv("\n".join(mixed) + "\n")


def test_report_emission_schema():
    config = stationary_config(23, grid=(0.5, math.inf))
    report = run_experiment(config)
    doc = json.loads(report_json_text(report))
    assert set(doc) == {"meta", "reserved_methods", "selections", "cells"}
    assert doc["meta"]["seed"] == 23
    assert len(doc["meta"]["config_sha256"]) == 64
    assert doc["meta"]["version"] == report.version
    assert doc["reserved_methods"] == ["DELAGE_YE"]
    infinite = [c for c in doc["cells"] if c["alpha"] == "inf"]
    assert infinite and all(isinstance(c["quantity"], float) for c in infinite)
    csv_text = report_csv_text(report)
    lines = csv_text.strip().splitlines()
    assert lines[0] == "method,alpha,quantity,in_sample,out_of_sample,worst_case"
    assert len(lines) == 1 + len(report.cells)
    # six-decimal fixed formatting in the CSV twin
    assert all(
        "." in field and len(field.split(".")[1]) == 6
        for field in lines[1].split(",")[2:5]
    )
    json_doc = sweep_json_text(sweep("alpha", config))
    assert json.loads(json_doc)["axis"] == "alpha"


def test_demand_csv_text_rejects_negative_and_empty():
    with pytest.raises(InputError):
        demand_csv_text([])
    with pytest.raises(InputError):
        demand_csv_text([1.0, -2.0])


# ---------------------------------------------------------------------------
# oracle batch
# ---------------------------------------------------------------------------


def test_oracle_check_small_batch_passes():
    summary = oracle_check(seed=101, instances=6, grid_points=101, q_points=51)
    assert summary["passed"] is True
    assert summary["max_quantity_gap_steps"] <= 1.0
    assert summary["max_value_gap_fraction_of_budget"] <= 1.0
    with pytest.raises(InputError):
        oracle_check(seed=0, instances=0)
    with pytest.raises(InputError):
        oracle_check(seed=0, instances=1, grid_points=500)


def test_oracle_check_value_rules_fail_a_shifted_closed_form(monkeypatch):
    # the quantity rule passes on both mutants: only the values move
    args = dict(seed=101, instances=2, grid_points=41, q_points=12)
    solve, ell_rows = ev._solve, ev._ell_rows
    with monkeypatch.context() as patch:
        patch.setattr(ev, "_solve", lambda *a: (solve(*a)[0], solve(*a)[1] + 100.0))
        with pytest.raises(InternalCheckError, match=(
            r"^instance 0: closed value \d+\.\d{6} differs from the oracle by "
            r"\d\.\d{3}e\+\d\d \(budget \d\.\d{3}e[+-]\d\d\)$"
        )):
            oracle_check(**args)

    def raised(*a):  # every quantity of the grid, but not the closed one
        rows = ell_rows(*a)
        rows[:-1] += 100.0
        return rows

    monkeypatch.setattr(ev, "_ell_rows", raised)
    with pytest.raises(InternalCheckError, match=re.escape(
        "instance 0: oracle found a quantity beating the closed value by more than the grid budget"
    )):
        oracle_check(**args)


def test_oracle_check_solves_quantity_only_and_builds_no_law(monkeypatch):
    def reported(alpha, m, cost):
        report = misspec_quantity(alpha, m, cost)
        return report.quantity, report.value

    # nine instances: the eighth runs the infinite index
    args = dict(seed=25, instances=9, grid_points=41, q_points=12)
    with monkeypatch.context() as patch:
        patch.setattr(ev, "_solve", reported)
        want = oracle_check(**args)
    laws = []
    init = DiscreteDistribution.__init__
    monkeypatch.setattr(
        DiscreteDistribution, "__init__", lambda d, *args: laws.append(args) or init(d, *args)
    )
    assert oracle_check(**args) == want
    assert laws == []
