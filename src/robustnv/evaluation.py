"""Out-of-sample evaluation, sensitivity sweeps, the experiment protocol,
synthetic demand generation, and deterministic file emission.

Everything here is a harness around the closed-form solvers: nothing in this
module contributes model mathematics.  All emitted artifacts are
byte-deterministic for fixed inputs and seed — dictionary keys are sorted,
floats are formatted explicitly, and computation is single-threaded with a
fixed reduction order (sweep points and experiment cells are independent, so
a parallel map would only be admissible with the same ordered reduction).
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass
from datetime import date, timedelta
from enum import Enum
from typing import Mapping, Sequence

import numpy as np

from ._version import __version__
from .calibration import (
    SampleSet,
    cv_alpha,
    formula_calibrate,
    stress_calibrate,
)
from .distances import RadiusSpec, tv_misspec_quantity, wasserstein_misspec_solve
from .oracle import (
    Moment,
    MomentConstraint,
    MomentConstraintSet,
    MomentLawFamily,
    Relation,
)
from .single_product import (
    AlphaLike,
    CostStructure,
    DiscreteDistribution,
    MisspecIndex,
    MomentSpec,
    _expected_profit,
    _solve,
    as_misspec_index,
    ell,
    misspec_quantity,
    nominal_quantity,
    profit,
)
from .validation import (
    InputError,
    InternalCheckError,
    require,
    require_nonnegative,
    require_positive,
)

__all__ = [
    "Method",
    "DemandKind",
    "ExperimentConfig",
    "MethodCell",
    "ExperimentReport",
    "SweepSeries",
    "out_of_sample_profit",
    "sweep",
    "run_experiment",
    "draw_demand",
    "generate_demand",
    "demand_csv_text",
    "write_demand_csv",
    "load_demand_csv",
    "sweep_csv_text",
    "parse_sweep_csv",
    "sweep_json_text",
    "report_json_text",
    "report_csv_text",
    "solve_json_payload",
    "default_alpha_grid",
    "oracle_check",
]

# the report schema reserves this method tag so third-party benchmark results
# can be merged into the same files; the solver itself never produces it
RESERVED_METHOD_TAGS = ("DELAGE_YE",)

_EPOCH = date(2020, 1, 1)

#: estimation-budget grid of the formula-based calibration when none is given
_DEFAULT_EPS_GRID = (0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0)


class Method(str, Enum):
    NOMINAL = "NOMINAL"
    AMBIGUITY = "AMBIGUITY"
    MISSPEC = "MISSPEC"
    WASSERSTEIN = "WASSERSTEIN"
    TV = "TV"


class DemandKind(str, Enum):
    TRUNC_NORMAL = "TRUNC_NORMAL"
    LOGNORMAL = "LOGNORMAL"
    REGIME_SHIFT = "REGIME_SHIFT"


def default_alpha_grid(price: float, count: int = 25) -> tuple[float, ...]:
    """Log-spaced index grid spanning [1e-2, 1e2] scaled by price/10."""
    require_positive("price", price)
    require(int(count) >= 1, f"count must be >= 1, got {count!r}")
    return tuple(float(a) * price / 10.0 for a in np.logspace(-2.0, 2.0, int(count)))


@dataclass(frozen=True)
class ExperimentConfig:
    """Inputs of one evaluation run.

    ``theta`` is the transport-ball radius used by the WASSERSTEIN method
    (0 keeps the ball a singleton at the training empirical law);
    ``eps_grid`` is the estimation-budget grid for the formula-based
    calibration; ``folds`` drives every cross-validation split.
    """

    train: SampleSet
    cost: CostStructure
    alpha_grid: tuple[float, ...]
    methods: tuple[Method, ...]
    seed: int
    test: SampleSet | None = None
    theta: float = 0.0
    eps_grid: tuple[float, ...] = _DEFAULT_EPS_GRID
    folds: int = 5
    out_path: str | None = None

    def __post_init__(self) -> None:
        require(len(self.alpha_grid) > 0, "alpha_grid must be non-empty")
        require(len(self.methods) > 0, "methods must be non-empty")
        require(len(self.eps_grid) > 0, "eps_grid must be non-empty")
        require_nonnegative("theta", self.theta)
        require(int(self.folds) >= 2, f"folds must be >= 2, got {self.folds!r}")
        object.__setattr__(
            self, "alpha_grid", tuple(float(a) for a in self.alpha_grid)
        )
        object.__setattr__(
            self, "methods", tuple(Method(m) for m in self.methods)
        )
        object.__setattr__(self, "eps_grid", tuple(float(e) for e in self.eps_grid))
        object.__setattr__(self, "seed", int(self.seed))


@dataclass(frozen=True)
class SweepSeries:
    """One sensitivity curve: the axis, and per-point quantity/value series.

    ``out_of_sample`` entries are NaN when the sweep ran without test data;
    all four tuples always share the axis length.
    """

    axis: str
    values: tuple[float, ...]
    quantities: tuple[float, ...]
    in_sample: tuple[float, ...]
    out_of_sample: tuple[float, ...]

    def __post_init__(self) -> None:
        n = len(self.values)
        require(n > 0, "sweep needs at least one axis point")
        require(
            len(self.quantities) == n
            and len(self.in_sample) == n
            and len(self.out_of_sample) == n,
            "all sweep series must have the axis length",
        )


@dataclass(frozen=True)
class MethodCell:
    method: Method
    alpha: float
    quantity: float
    in_sample: float
    out_of_sample: float | None
    worst_case: float | None


@dataclass(frozen=True)
class ExperimentReport:
    seed: int
    config_digest: str
    version: str
    cells: tuple[MethodCell, ...]
    selections: tuple[tuple[str, float | None], ...]

    def selection(self, name: str) -> float | None:
        for key, val in self.selections:
            if key == name:
                return val
        raise KeyError(name)


# ---------------------------------------------------------------------------
# evaluation primitives
# ---------------------------------------------------------------------------


def out_of_sample_profit(q: float, test: SampleSet, cost: CostStructure) -> float:
    """Average selling profit of ordering ``q`` against held-out observations."""
    return float(np.mean(profit(q, np.asarray(test.values, dtype=float), cost)))


_SWEEP_AXES = ("alpha", "price", "sigma")


def _sole_alpha(config: ExperimentConfig, alpha: AlphaLike | None) -> MisspecIndex:
    if alpha is not None:
        return as_misspec_index(alpha)
    if len(config.alpha_grid) == 1:
        return as_misspec_index(config.alpha_grid[0])
    raise InputError(
        "price/sigma sweeps need a single index: pass alpha= or use a "
        "one-entry alpha_grid"
    )


def sweep(
    axis: str,
    config: ExperimentConfig,
    values: Sequence[float] | None = None,
    alpha: AlphaLike | None = None,
) -> SweepSeries:
    """Recompute the order quantity and values along one model axis.

    ``alpha`` sweeps the index over ``values`` (default: the config grid)
    with cost and moments fixed; ``price`` sweeps the unit price at a fixed
    index (default grid: 200 points from 1.05c to 2.5p); ``sigma`` sweeps
    the demand deviation at a fixed index (default grid: 200 points up to
    1.5 mu).  Each point records the quantity, the model's worst-case value,
    and the out-of-sample profit when the config carries test data (NaN
    otherwise; for the price axis the profit is computed at that point's
    price).
    """
    if axis not in _SWEEP_AXES:
        raise InputError(f"axis must be one of {_SWEEP_AXES}, got {axis!r}")
    m = config.train.moments
    base = config.cost
    if axis == "alpha":
        vals = tuple(float(v) for v in (values if values is not None else config.alpha_grid))
    elif axis == "price":
        lo, hi = 1.05 * base.cost, 2.5 * base.price
        vals = tuple(
            float(v) for v in (values if values is not None else np.linspace(lo, hi, 200))
        )
    else:
        vals = tuple(
            float(v)
            for v in (values if values is not None else np.linspace(1e-3, 1.5 * m.mean, 200))
        )
    require(len(vals) > 0, "sweep axis grid must be non-empty")

    quantities: list[float] = []
    in_sample: list[float] = []
    out_sample: list[float] = []
    fixed_alpha = None if axis == "alpha" else _sole_alpha(config, alpha)
    for v in vals:
        if axis == "alpha":
            q, value = _solve(v, m, base)
            cost_here = base
        elif axis == "price":
            cost_here = CostStructure(v, base.cost)
            q, value = _solve(fixed_alpha, m, cost_here)
        else:
            cost_here = base
            q, value = _solve(fixed_alpha, MomentSpec(m.mean, v), base)
        quantities.append(q)
        in_sample.append(value)
        if config.test is not None:
            out_sample.append(out_of_sample_profit(q, config.test, cost_here))
        else:
            out_sample.append(math.nan)
    return SweepSeries(axis, vals, tuple(quantities), tuple(in_sample), tuple(out_sample))


# ---------------------------------------------------------------------------
# experiment protocol
# ---------------------------------------------------------------------------


def _method_solution(
    method: Method, alpha: AlphaLike, config: ExperimentConfig
) -> tuple[float, float | None]:
    """(quantity, closed-form worst-case value where the model provides one)."""
    m = config.train.moments
    cost = config.cost
    if method is Method.NOMINAL:
        return nominal_quantity(config.train.empirical, cost), None
    if method is Method.AMBIGUITY:
        return _solve(MisspecIndex.INFINITY, m, cost)
    if method is Method.MISSPEC:
        return _solve(alpha, m, cost)
    if method is Method.WASSERSTEIN:
        sol = wasserstein_misspec_solve(
            config.train.empirical, RadiusSpec(config.theta, alpha), cost
        )
        return sol.psi_star, None
    if method is Method.TV:
        return tv_misspec_quantity(alpha, m, cost), None
    raise InputError(f"unknown method {method!r}")


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Solve every requested (method, index) cell and select indices.

    Each cell records the training-side quantity, the expected profit under
    the training empirical law (``in_sample``), the mean profit on the test
    observations when present, and the model's closed-form worst-case value
    where one exists.  The ``selections`` block carries the cross-validated
    index (always) and the formula/stress shift-aware selections (only when
    test data is available).  Output is deterministic for a fixed config.
    """
    emp = config.train.empirical
    cost = config.cost
    cells: list[MethodCell] = []
    for method in config.methods:
        for a in config.alpha_grid:
            q, worst = _method_solution(method, a, config)
            cell = MethodCell(
                method=method,
                alpha=a,
                quantity=q,
                in_sample=_expected_profit(emp, q, cost),
                out_of_sample=(
                    out_of_sample_profit(q, config.test, cost)
                    if config.test is not None
                    else None
                ),
                worst_case=worst,
            )
            cells.append(cell)

    picks: list[tuple[str, float | None]] = []
    picks.append(
        (
            "cv",
            cv_alpha(
                config.train, cost, config.alpha_grid, folds=config.folds, seed=config.seed
            ).alpha,
        )
    )
    if config.test is not None:
        picks.append(
            (
                "formula",
                formula_calibrate(
                    config.train,
                    config.test,
                    cost,
                    config.eps_grid,
                    seed=config.seed,
                    folds=config.folds,
                ).alpha,
            )
        )
        picks.append(
            (
                "stress",
                stress_calibrate(
                    config.train, config.test, cost, config.alpha_grid, seed=config.seed
                ).alpha,
            )
        )
    else:
        picks.append(("formula", None))
        picks.append(("stress", None))

    return ExperimentReport(
        seed=config.seed,
        config_digest=config_digest(config),
        version=__version__,
        cells=tuple(cells),
        selections=tuple(picks),
    )


def config_digest(config: ExperimentConfig) -> str:
    """SHA-256 over a canonical JSON rendering of the run inputs."""
    doc = {
        "train": [repr(v) for v in config.train.values],
        "test": None if config.test is None else [repr(v) for v in config.test.values],
        "price": repr(config.cost.price),
        "cost": repr(config.cost.cost),
        "alpha_grid": [repr(a) for a in config.alpha_grid],
        "methods": [m.value for m in config.methods],
        "seed": config.seed,
        "theta": repr(config.theta),
        "eps_grid": [repr(e) for e in config.eps_grid],
        "folds": config.folds,
    }
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


# ---------------------------------------------------------------------------
# synthetic demand
# ---------------------------------------------------------------------------


def _draw_segment(
    kind: DemandKind, mu: float, sigma: float, n: int, rng: np.random.Generator
) -> np.ndarray:
    if kind is DemandKind.LOGNORMAL:
        return rng.lognormal(mean=mu, sigma=sigma, size=n)
    # normal truncated to the nonnegative half line; scipy.stats is imported
    # here, not at module level, because it is most of the package's import time
    from scipy import stats

    a = (0.0 - mu) / sigma
    return stats.truncnorm.rvs(a, np.inf, loc=mu, scale=sigma, size=n, random_state=rng)


def draw_demand(
    kind: DemandKind | str,
    params: Mapping[str, float],
    n: int,
    seed: int,
) -> tuple[float, ...]:
    """Seeded synthetic demand draws as a raw tuple (``n >= 1``).

    TRUNC_NORMAL and LOGNORMAL take ``mu`` and ``sigma`` (log-space for the
    lognormal); REGIME_SHIFT additionally takes ``mu2``, ``sigma2`` and an
    optional ``split`` fraction (default 0.5) and concatenates two truncated
    normal segments.  Identical seeds reproduce identical samples.
    """
    kind = DemandKind(kind)
    require(int(n) >= 1, f"n must be >= 1, got {n!r}")
    n = int(n)
    require("mu" in params and "sigma" in params, "params need 'mu' and 'sigma'")
    mu, sigma = float(params["mu"]), float(params["sigma"])
    require_positive("sigma", sigma)
    if kind is not DemandKind.LOGNORMAL:
        require_positive("mu", mu)
    rng = np.random.default_rng(int(seed))
    if kind is DemandKind.REGIME_SHIFT:
        require(
            "mu2" in params and "sigma2" in params,
            "REGIME_SHIFT params need 'mu2' and 'sigma2'",
        )
        mu2, sigma2 = float(params["mu2"]), float(params["sigma2"])
        require_positive("mu2", mu2)
        require_positive("sigma2", sigma2)
        split = float(params.get("split", 0.5))
        require(0.0 <= split <= 1.0, f"split must lie in [0, 1], got {split!r}")
        n1 = int(round(split * n))
        head = _draw_segment(DemandKind.TRUNC_NORMAL, mu, sigma, n1, rng)
        tail = _draw_segment(DemandKind.TRUNC_NORMAL, mu2, sigma2, n - n1, rng)
        values = np.concatenate([head, tail])
    else:
        values = _draw_segment(kind, mu, sigma, n, rng)
    return tuple(float(v) for v in values)


def generate_demand(
    kind: DemandKind | str,
    params: Mapping[str, float],
    n: int,
    seed: int,
) -> SampleSet:
    """Seeded synthetic demand as a :class:`SampleSet` (``n >= 2``).

    Single draws cannot carry a deviation, so they are available only
    through :func:`draw_demand` (and the ``generate`` CLI path, which writes
    raw rows).
    """
    require(int(n) >= 2, f"a sample set needs n >= 2, got {n!r}")
    return SampleSet(draw_demand(kind, params, n, seed))


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------


def demand_csv_text(values: Sequence[float]) -> str:
    """``date,demand`` rows: ISO-8601 daily dates from 2020-01-01, 6 decimals."""
    require(len(values) > 0, "need at least one demand value")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["date", "demand"])
    for i, v in enumerate(values):
        require_nonnegative(f"values[{i}]", float(v))
        writer.writerow([(_EPOCH + timedelta(days=i)).isoformat(), f"{float(v):.6f}"])
    return buf.getvalue()


def write_demand_csv(path: str, values: Sequence[float]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(demand_csv_text(values))


def load_demand_csv(path: str) -> SampleSet:
    """Read a ``date,demand`` file; schema violations carry line numbers."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["date", "demand"]:
            raise InputError(
                f"{path}: line 1: expected header 'date,demand', got {header!r}"
            )
        vals: list[float] = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise InputError(f"{path}: line {lineno}: expected 2 fields, got {len(row)}")
            stamp, raw = row[0].strip(), row[1].strip()
            try:
                date.fromisoformat(stamp)
            except ValueError:
                raise InputError(
                    f"{path}: line {lineno}: bad ISO-8601 date {row[0]!r}"
                ) from None
            if not raw:
                raise InputError(f"{path}: line {lineno}: missing demand value")
            try:
                vals.append(float(raw))
            except ValueError:
                raise InputError(
                    f"{path}: line {lineno}: bad demand value {row[1]!r}"
                ) from None
            if vals[-1] < 0:
                raise InputError(
                    f"{path}: line {lineno}: demand must be >= 0, got {row[1]!r}"
                )
    if len(vals) < 2:
        raise InputError(f"{path}: need at least 2 demand rows, got {len(vals)}")
    return SampleSet(tuple(vals))


def _full(x: float) -> str:
    # repr round-trips doubles exactly, which the sweep CSV contract needs
    return repr(float(x))


def sweep_csv_text(series: SweepSeries) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["axis", "value", "quantity", "in_sample", "out_of_sample"])
    for v, q, ins, outs in zip(
        series.values, series.quantities, series.in_sample, series.out_of_sample
    ):
        writer.writerow([series.axis, _full(v), _full(q), _full(ins), _full(outs)])
    return buf.getvalue()


def parse_sweep_csv(text: str) -> SweepSeries:
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header != ["axis", "value", "quantity", "in_sample", "out_of_sample"]:
        raise InputError(f"line 1: unexpected sweep header {header!r}")
    axis = None
    cols: tuple[list[float], ...] = ([], [], [], [])
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 5:
            raise InputError(f"line {lineno}: expected 5 fields, got {len(row)}")
        if axis is None:
            axis = row[0]
        elif row[0] != axis:
            raise InputError(f"line {lineno}: mixed axes {axis!r} and {row[0]!r}")
        try:
            for col, raw in zip(cols, row[1:]):
                col.append(float(raw))
        except ValueError:
            raise InputError(f"line {lineno}: bad numeric field in {row!r}") from None
    if axis is None:
        raise InputError("sweep file has no data rows")
    return SweepSeries(axis, *(tuple(c) for c in cols))


def _fmt6(x: float | None):
    """JSON-friendly value: None passes through, infinities become 'inf'."""
    if x is None:
        return None
    x = float(x)
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if math.isnan(x):
        return "nan"
    return round(x, 6)


def sweep_json_text(series: SweepSeries) -> str:
    doc = {
        "axis": series.axis,
        "points": [
            {
                "value": _fmt6(v),
                "quantity": _fmt6(q),
                "in_sample": _fmt6(ins),
                "out_of_sample": _fmt6(outs),
            }
            for v, q, ins, outs in zip(
                series.values, series.quantities, series.in_sample, series.out_of_sample
            )
        ],
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def report_json_text(report: ExperimentReport) -> str:
    doc = {
        "meta": {
            "seed": report.seed,
            "config_sha256": report.config_digest,
            "version": report.version,
        },
        "reserved_methods": list(RESERVED_METHOD_TAGS),
        "selections": {k: _fmt6(v) for k, v in report.selections},
        "cells": [
            {
                "method": c.method.value,
                "alpha": _fmt6(c.alpha),
                "quantity": _fmt6(c.quantity),
                "in_sample": _fmt6(c.in_sample),
                "out_of_sample": _fmt6(c.out_of_sample),
                "worst_case": _fmt6(c.worst_case),
            }
            for c in report.cells
        ],
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _cell_field(x: float | None) -> str:
    if x is None:
        return ""
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return f"{x:.6f}"


def report_csv_text(report: ExperimentReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["method", "alpha", "quantity", "in_sample", "out_of_sample", "worst_case"]
    )
    for c in report.cells:
        writer.writerow(
            [
                c.method.value,
                _cell_field(c.alpha),
                _cell_field(c.quantity),
                _cell_field(c.in_sample),
                _cell_field(c.out_of_sample),
                _cell_field(c.worst_case),
            ]
        )
    return buf.getvalue()


def solve_json_payload(report) -> dict:
    """JSON-ready rendering of a single-product solve report."""
    return {
        "alpha": _fmt6(report.alpha.alpha),
        "quantity": _fmt6(report.quantity),
        "value": _fmt6(report.value),
        "regime": report.regime.value,
        "duals": {name: _fmt6(val) for name, val in report.duals},
        "worst_case": {
            "support": [_fmt6(v) for v in report.worst_case.support],
            "weights": [_fmt6(w) for w in report.worst_case.weights],
        },
    }


# ---------------------------------------------------------------------------
# closed-form-vs-oracle batch
# ---------------------------------------------------------------------------


def _random_instance(rng: np.random.Generator) -> tuple[MomentSpec, CostStructure]:
    """Non-degenerate moment/cost pair: kappa stays above sigma^2/(mu^2+sigma^2)."""
    price = float(rng.uniform(4.0, 20.0))
    cost = price * float(rng.uniform(0.15, 0.75))
    cs = CostStructure(price, cost)
    kappa = cs.kappa
    mu = float(rng.uniform(2.0, 8.0))
    ratio_cap = math.sqrt(kappa / (1.0 - kappa))
    sigma = mu * float(rng.uniform(0.15, 0.85)) * min(1.0, ratio_cap)
    return MomentSpec(mu, sigma), cs


def oracle_check(
    seed: int,
    instances: int = 20,
    grid_points: int = 161,
    q_points: int = 81,
) -> dict:
    """Closed-form solves vs the exhaustive moment-law oracle.

    For each random non-degenerate instance, the worst-case expected profit
    is maximized over a quantity grid against every grid-supported law
    matching the mean and second moment; the closed-form quantity must land
    within one quantity step of the grid argmax, and the closed-form value
    within the grid error budget (price * support step, covering the
    rounding of the extremal atoms).  Every eighth instance runs the
    infinite index (the ambiguity-only model).  Violations raise
    :class:`InternalCheckError`; the returned summary reports the worst
    gaps actually observed.
    """
    require(int(instances) >= 1, f"instances must be >= 1, got {instances!r}")
    require(int(grid_points) >= 20, "grid_points must be >= 20")
    require(int(grid_points) <= 400, "grid_points above 400 exceed the family budget")
    require(int(q_points) >= 10, "q_points must be >= 10")
    rng = np.random.default_rng(int(seed))
    worst_q_gap_steps = 0.0
    worst_value_gap = 0.0
    for k in range(int(instances)):
        m, cs = _random_instance(rng)
        alpha: AlphaLike
        if k % 8 == 7:
            alpha = MisspecIndex.INFINITY
        else:
            alpha = float(cs.price / 10.0 * 10.0 ** rng.uniform(-1.0, 1.6))
        closed = misspec_quantity(alpha, m, cs)

        hi = m.mean + 6.0 * m.std
        grid = np.linspace(0.0, hi, int(grid_points))
        family = MomentLawFamily(
            MomentConstraintSet(
                grid=tuple(grid),
                constraints=(
                    MomentConstraint(Moment.MEAN, Relation.EQ, m.mean),
                    MomentConstraint(Moment.SECOND_MOMENT, Relation.EQ, m.second_moment),
                ),
            )
        )
        q_hi = max(_solve(MisspecIndex.INFINITY, m, cs)[0] * 1.2, 1e-6)
        q_grid = np.linspace(0.0, q_hi, int(q_points))
        q_step = q_grid[1] - q_grid[0]
        rows = np.array([ell(alpha, float(q), grid, cs) for q in [*q_grid, closed.quantity]])
        values, _ = family.minimize_many(rows)
        best = int(np.argmax(values[:-1]))
        q_gap = abs(closed.quantity - q_grid[best])
        value_tol = cs.price * (hi / (grid.size - 1))
        value_gap = abs(closed.value - values[-1])
        worst_q_gap_steps = max(worst_q_gap_steps, q_gap / q_step)
        worst_value_gap = max(worst_value_gap, value_gap / value_tol)
        if q_gap > q_step + 1e-12:
            raise InternalCheckError(
                f"instance {k}: closed quantity {closed.quantity:.6f} is "
                f"{q_gap / q_step:.2f} steps from the oracle argmax {q_grid[best]:.6f}"
            )
        if value_gap > value_tol:
            raise InternalCheckError(
                f"instance {k}: closed value {closed.value:.6f} differs from the "
                f"oracle by {value_gap:.3e} (budget {value_tol:.3e})"
            )
        if float(np.max(values[:-1])) > closed.value + value_tol:
            raise InternalCheckError(
                f"instance {k}: oracle found a quantity beating the closed value "
                f"by more than the grid budget"
            )
    return {
        "instances": int(instances),
        "grid_points": int(grid_points),
        "q_points": int(q_points),
        "max_quantity_gap_steps": round(float(worst_q_gap_steps), 6),
        "max_value_gap_fraction_of_budget": round(float(worst_value_gap), 6),
        "passed": True,
    }
