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
from itertools import repeat
from typing import Mapping, Sequence

import numpy as np

from ._version import __version__
from .calibration import (
    SampleSet,
    _index_grid,
    cv_alpha,
    formula_calibrate,
    stress_calibrate,
)
from .distances import RadiusSpec, tv_misspec_quantity, wasserstein_misspec_solve
from .oracle import (
    Moment,
    MomentConstraint,
    MomentConstraintSet,
    Relation,
    _FAMILY_CUBIC_BUDGET,
    _LAW_BLOCK,
    _moment_min_batch,
)
from .single_product import (
    AlphaLike,
    CostStructure,
    MisspecIndex,
    MomentSpec,
    _checked_test_profits,
    _ell_core,
    _expected_profits,
    _floats,
    _require_demands,
    _solve,
    _solves,
    _test_profits,
    as_misspec_index,
    nominal_quantity,
)
from .validation import (
    InputError,
    InternalCheckError,
    _member,
    require,
    require_finite,
    require_nonnegative,
    require_positive,
    _until_error,
    _whole_number,
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
    "write_demand_csv",
    "load_demand_csv",
    "default_alpha_grid",
    "oracle_check",
]

# the report schema reserves this method tag so third-party benchmark results
# can be merged into the same files; the solver itself never produces it
RESERVED_METHOD_TAGS = ("DELAGE_YE",)

_EPOCH = date(2020, 1, 1)

#: estimation-budget grid of the formula-based calibration when none is given
_DEFAULT_EPS_GRID = (0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0)

#: points of the default index grid of the calibrators
_ALPHA_GRID_POINTS = 25


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


def default_alpha_grid(price: float) -> tuple[float, ...]:
    """Log-spaced index grid spanning [1e-2, 1e2] scaled by price/10."""
    price = require_positive("price", price)
    return tuple(float(a) * price / 10.0 for a in np.logspace(-2.0, 2.0, _ALPHA_GRID_POINTS))


@dataclass(frozen=True)
class ExperimentConfig:
    """Inputs of one evaluation run.

    ``theta`` is the transport-ball radius used by the WASSERSTEIN method
    (0 keeps the ball a singleton at the training empirical law);
    ``eps_grid`` is the estimation-budget grid for the formula-based
    calibration; ``folds`` drives every cross-validation split.

    Every number is checked once here and stored as it was checked, an error
    being an :class:`InputError` naming the field: each ``alpha_grid`` entry
    as :func:`cv_alpha` reads an index (a float >= 0, ``inf`` or a
    :class:`MisspecIndex`, stored as its alpha), each ``eps_grid`` entry as
    :func:`formula_calibrate` checks a budget (finite and >= 0), ``folds`` a
    whole number >= 2 and ``seed`` a whole number >= 0 (numpy's generators
    reject negative seeds).  A seed with a fraction, such as 1.7, is rejected
    rather than truncated: it names no generator, and the report's digest
    would record a seed that was not used.
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

    def __post_init__(self) -> None:
        require(len(self.alpha_grid) > 0, "alpha_grid must be non-empty")
        require(len(self.methods) > 0, "methods must be non-empty")
        require(len(self.eps_grid) > 0, "eps_grid must be non-empty")
        object.__setattr__(self, "theta", require_nonnegative("theta", self.theta))
        object.__setattr__(self, "folds", _whole_number("folds", self.folds, 2))
        object.__setattr__(self, "alpha_grid", tuple(a.alpha for a in _index_grid(self.alpha_grid)))
        object.__setattr__(self, "methods", tuple(_member(Method, m) for m in self.methods))
        eps = (require_nonnegative(f"eps_grid[{i}]", e) for i, e in enumerate(self.eps_grid))
        object.__setattr__(self, "eps_grid", tuple(eps))
        object.__setattr__(self, "seed", _whole_number("seed", self.seed, 0))


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
        return dict(self.selections)[name]


# ---------------------------------------------------------------------------
# evaluation primitives
# ---------------------------------------------------------------------------


def out_of_sample_profit(q: float, test: SampleSet, cost: CostStructure) -> float:
    """Average selling profit of ordering ``q`` against held-out observations;
    a profit beyond the float range is bad input, not an infinite answer."""
    demands = _require_demands(test.values)
    q = require_nonnegative("q", q)
    return next(_checked_test_profits((q,), _test_profits((q,), demands, cost)))


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

    All points are solved first, then scored in one numpy pass.  Errors
    come in the per-point order: the first point whose solve or profit
    fails decides, its solve before its profit.
    """
    if axis not in _SWEEP_AXES:
        raise InputError(f"axis must be one of {_SWEEP_AXES}, got {axis!r}")
    m, base = config.train.moments, config.cost
    # per axis: the default grid's span, and the coordinate of a point
    # (index, mean, std, price, cost) that the axis sets
    span, slot = {"alpha": (None, 0), "price": ((1.05 * base.cost, 2.5 * base.price), 3),
                  "sigma": ((1e-3, 1.5 * m.mean), 2)}[axis]
    if values is None:
        values = config.alpha_grid if span is None else np.linspace(*span, 200)
    vals = tuple(_floats(values, "values"))
    require(len(vals) > 0, "sweep axis grid must be non-empty")
    # the fixed index is resolved once the grid is known
    point = [None if span is None else _sole_alpha(config, alpha).alpha,
             m.mean, m.std, base.price, base.cost]
    point[slot] = list(vals)
    demands = None if config.test is None else _require_demands(config.test.values)
    rows, error = _solves(*point)
    quantities, in_sample = (tuple(col) for col in zip(*rows)) if rows else ((), ())
    if demands is None:
        out_sample = (math.nan,) * len(rows)
    else:
        prices = vals[: len(rows)] if axis == "price" else None
        means = _test_profits(quantities, demands, base, prices)
        out_sample = tuple(_checked_test_profits(quantities, means))
    if error is not None:
        raise error
    return SweepSeries(axis, vals, quantities, in_sample, out_sample)


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
    return tv_misspec_quantity(alpha, m, cost), None  # Method.TV, the last member


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Solve every requested (method, index) cell and select indices.

    Each cell records the training-side quantity, the expected profit under
    the training empirical law (``in_sample``), the mean profit on the test
    observations when present, and the model's closed-form worst-case value
    where one exists.  The ``selections`` block carries the cross-validated
    index (always) and the formula/stress shift-aware selections (only when
    test data is available).  Output is deterministic for a fixed config.

    All cells are solved first, then each profit is formed in one numpy
    pass.  Errors come in the per-cell order: the first cell whose solve or
    profits fail decides, its solve, in-sample and out-of-sample profit in turn.
    """
    emp, cost, test = config.train.empirical, config.cost, config.test
    demands = None if test is None else _require_demands(test.values)
    keys = [(method, a) for method in config.methods for a in config.alpha_grid]
    # the closed-form cells in one batch; a cell past its first error solves
    # alone, and raises it
    m = config.train.moments
    closed = [(method, a) for method, a in keys if method in (Method.AMBIGUITY, Method.MISSPEC)]
    alphas = [math.inf if method is Method.AMBIGUITY else a for method, a in closed]
    done = dict(zip(closed, _solves(alphas, m.mean, m.std, cost.price, cost.cost)[0]))
    solved, error = _until_error(
        lambda key: done[key] if key in done else _method_solution(*key, config), keys)
    qs = [q for q, _ in solved]
    outs = (repeat(None) if demands is None
            else _checked_test_profits(qs, _test_profits(qs, demands, cost)))
    # zip reads the lazy sums and checks cell by cell, in-sample first
    cells = [
        MethodCell(method, a, q, in_sample, out, worst)
        for (method, a), (q, worst), in_sample, out
        in zip(keys, solved, _expected_profits(emp, qs, cost), outs)
    ]
    if error is not None:
        raise error

    train, seed, folds = config.train, config.seed, config.folds
    picks = (
        ("cv", cv_alpha(train, cost, config.alpha_grid, folds=folds, seed=seed).alpha),
        ("formula", None if test is None else formula_calibrate(
            train, test, cost, config.eps_grid, seed=seed, folds=folds).alpha),
        ("stress", None if test is None else stress_calibrate(
            train, test, cost, config.alpha_grid, seed=seed).alpha),
    )
    return ExperimentReport(
        seed=config.seed,
        config_digest=config_digest(config),
        version=__version__,
        cells=tuple(cells),
        selections=picks,
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
    """Seeded synthetic demand draws as a raw tuple (``n >= 1`` and
    ``seed >= 0``, whole numbers: ``3.0`` is 3, ``2.5`` an :class:`InputError`).

    TRUNC_NORMAL and LOGNORMAL take ``mu`` and ``sigma`` (log-space for the
    lognormal, whose ``mu`` need only be finite); REGIME_SHIFT additionally
    takes ``mu2``, ``sigma2`` and an optional ``split`` fraction (default
    0.5) and concatenates two truncated normal segments.  Identical seeds
    reproduce identical samples.
    """
    kind = _member(DemandKind, kind)
    n = _whole_number("n", n, 1)
    require("mu" in params and "sigma" in params, "params need 'mu' and 'sigma'")
    sigma = require_positive("sigma", params["sigma"])
    mu = (require_finite if kind is DemandKind.LOGNORMAL else require_positive)("mu", params["mu"])
    rng = np.random.default_rng(_whole_number("seed", seed, 0))
    if kind is DemandKind.REGIME_SHIFT:
        require(
            "mu2" in params and "sigma2" in params,
            "REGIME_SHIFT params need 'mu2' and 'sigma2'",
        )
        mu2 = require_positive("mu2", params["mu2"])
        sigma2 = require_positive("sigma2", params["sigma2"])
        split = require_finite("split", params.get("split", 0.5))
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
    """Seeded synthetic demand as a :class:`SampleSet` (a whole ``n >= 2``).

    Single draws cannot carry a deviation, so they are available only
    through :func:`draw_demand` (and the ``generate`` CLI path, which writes
    raw rows).
    """
    n = _whole_number("n", n, 2)
    return SampleSet(draw_demand(kind, params, n, seed))


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

_DEMAND_HEADER = ("date", "demand")
_SWEEP_HEADER = ("axis", "value", "quantity", "in_sample", "out_of_sample")
_REPORT_HEADER = ("method", "alpha", "quantity", "in_sample", "out_of_sample", "worst_case")


def _csv_text(header: Sequence[str], rows) -> str:
    """The CSV text of ``header`` and then ``rows``, one ``\\n``-ended line
    each: the one writer of every CSV format here and in the CLI."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _csv_rows(lines, header: Sequence[str], where: str = "") -> list[tuple[int, list[str]]]:
    """The non-blank rows after ``header`` in ``lines``, each with the line it
    starts on; every error is InputError prefixed by ``where``, and bytes that
    are not UTF-8 have no line (the text layer decodes ahead in chunks)."""
    reader = csv.reader(lines)
    rows = []
    try:
        found = next(reader, None)
        if found != list(header):
            raise InputError(f"{where}line 1: expected header {','.join(header)!r}, got {found!r}")
        end = reader.line_num
        for row in reader:
            start, end = end + 1, reader.line_num
            if not row:
                continue
            if len(row) != len(header):
                raise InputError(
                    f"{where}line {start}: expected {len(header)} fields, got {len(row)}"
                )
            rows.append((start, row))
    except csv.Error as exc:
        raise InputError(f"{where}line {reader.line_num}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"{where}not UTF-8 text ({exc.reason})") from None
    return rows


def demand_csv_text(values: Sequence[float]) -> str:
    """``date,demand`` rows: ISO-8601 daily dates from 2020-01-01, 6 decimals."""
    require(len(values) > 0, "need at least one demand value")
    vals = [require_nonnegative(f"values[{i}]", v) for i, v in enumerate(values)]
    rows = (((_EPOCH + timedelta(days=i)).isoformat(), f"{v:.6f}") for i, v in enumerate(vals))
    return _csv_text(_DEMAND_HEADER, rows)


def write_demand_csv(path: str, values: Sequence[float]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(demand_csv_text(values))


def load_demand_csv(path: str) -> SampleSet:
    """Read a ``date,demand`` file of at least 2 rows.  Every error is
    :class:`InputError` naming the file, and the line where there is one: a
    file that is not UTF-8 text, malformed CSV, a header other than
    ``date,demand``, a row without 2 fields, a bad ISO-8601 date, a missing or
    non-numeric demand, or one that is not finite and >= 0."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = _csv_rows(fh, _DEMAND_HEADER, f"{path}: ")
    vals: list[float] = []
    for lineno, (stamp, raw) in rows:
        try:
            date.fromisoformat(stamp.strip())
        except ValueError:
            raise InputError(f"{path}: line {lineno}: bad ISO-8601 date {stamp!r}") from None
        if not raw.strip():
            raise InputError(f"{path}: line {lineno}: missing demand value")
        try:
            value = float(raw)
        except ValueError:
            raise InputError(f"{path}: line {lineno}: bad demand value {raw!r}") from None
        if not 0.0 <= value < math.inf:  # also catches nan
            raise InputError(
                f"{path}: line {lineno}: demand must be finite and >= 0, got {raw!r}"
            )
        vals.append(value)
    if len(vals) < 2:
        raise InputError(f"{path}: need at least 2 demand rows, got {len(vals)}")
    return SampleSet(tuple(vals))


def _sweep_columns(series: SweepSeries) -> tuple[tuple[float, ...], ...]:
    """The columns named by ``_SWEEP_HEADER[1:]``, in that order."""
    return series.values, series.quantities, series.in_sample, series.out_of_sample


def sweep_csv_text(series: SweepSeries) -> str:
    # repr round-trips doubles exactly, which the sweep CSV contract needs
    axis = [series.axis] * len(series.values)
    columns = (map(repr, map(float, c)) for c in _sweep_columns(series))
    return _csv_text(_SWEEP_HEADER, zip(axis, *columns))


def parse_sweep_csv(text: str) -> SweepSeries:
    """Read :func:`sweep_csv_text` output back.  Every error is
    :class:`InputError`: malformed CSV, a header other than the sweep header,
    a row without 5 fields, a non-numeric field or mixed axes, each with its
    line, or no data rows."""
    axis = None
    cols: tuple[list[float], ...] = ([], [], [], [])
    for lineno, row in _csv_rows(io.StringIO(text), _SWEEP_HEADER):
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


def _json_text(doc) -> str:
    """Canonical JSON: sorted keys, no spaces, one trailing newline."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def sweep_json_text(series: SweepSeries) -> str:
    points = zip(*_sweep_columns(series))
    return _json_text({
        "axis": series.axis,
        "points": [dict(zip(_SWEEP_HEADER[1:], map(_fmt6, point))) for point in points],
    })


def report_json_text(report: ExperimentReport) -> str:
    return _json_text({
        "meta": {
            "seed": report.seed,
            "config_sha256": report.config_digest,
            "version": report.version,
        },
        "reserved_methods": list(RESERVED_METHOD_TAGS),
        "selections": {k: _fmt6(v) for k, v in report.selections},
        "cells": [
            {"method": c.method.value, **{k: _fmt6(getattr(c, k)) for k in _REPORT_HEADER[1:]}}
            for c in report.cells
        ],
    })


def _cell_field(x: float | None) -> str:
    if x is None:
        return ""
    return f"{x:.6f}"


def report_csv_text(report: ExperimentReport) -> str:
    rows = ((c.method.value, *(_cell_field(getattr(c, k)) for k in _REPORT_HEADER[1:]))
            for c in report.cells)
    return _csv_text(_REPORT_HEADER, rows)


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


def _oracle_instance(rng: np.random.Generator, k: int, grid_points: int, q_points: int):
    """Instance ``k`` of :func:`oracle_check`: ``(closed quantity, closed
    value, quantity grid, value budget, laws, rows of both quantities)``."""
    m, cs = _random_instance(rng)
    a = MisspecIndex.INFINITY if k % 8 == 7 else MisspecIndex(
        cs.price / 10.0 * 10.0 ** rng.uniform(-1.0, 1.6))
    closed_q, closed_value = _solve(a, m, cs)

    hi = m.mean + 6.0 * m.std
    grid = np.linspace(0.0, hi, grid_points)
    laws = MomentConstraintSet(
        grid=tuple(grid),
        constraints=(
            MomentConstraint(Moment.MEAN, Relation.EQ, m.mean),
            MomentConstraint(Moment.SECOND_MOMENT, Relation.EQ, m.second_moment),
        ),
    )
    q_hi = max(_solve(MisspecIndex.INFINITY, m, cs)[0] * 1.2, 1e-6)
    q_grid = np.linspace(0.0, q_hi, q_points)
    rows = _ell_core(a, np.append(q_grid, closed_q)[:, None], grid, cs)
    return closed_q, closed_value, q_grid, cs.price * (hi / (grid.size - 1)), laws, rows


def oracle_check(
    seed: int,
    instances: int = 20,
    grid_points: int = 161,
    q_points: int = 81,
) -> dict:
    """Closed-form solves vs the exhaustive moment-law oracle.

    For each random non-degenerate instance, the worst-case expected profit
    is maximized over a quantity grid against every grid-supported law
    matching the mean and second moment.  The minima over those laws are
    ``MomentLawFamily``'s, bit for bit, but are read by
    :func:`oracle._moment_min_batch`: each quantity is scored only against
    the laws its grid dual parabola cannot exclude, and the family is built
    only for rows where that parabola excludes too little.  The instances
    are drawn and scored in groups of at most ``_LAW_BLOCK`` rows times grid
    points, so memory does not grow with ``instances``, and checked in
    order.  The closed-form quantity must land within one quantity step of
    the grid argmax, and the closed-form value within the grid error budget
    (price * support step, covering the rounding of the extremal atoms).
    Every eighth instance runs the infinite index (the ambiguity-only
    model).  Violations raise :class:`InternalCheckError`; a group keeps its
    first error, a draw's or a minimum's, by :func:`validation._until_error`,
    so a violation comes before any error of a later instance.  The summary
    reports the worst gaps observed.  The seed and counts are whole numbers.
    """
    instances = _whole_number("instances", instances, 1)
    grid_points = _whole_number("grid_points", grid_points, 20)
    budget = _FAMILY_CUBIC_BUDGET
    require(grid_points <= budget, f"grid_points above {budget} exceed the family budget")
    q_points = _whole_number("q_points", q_points, 10)
    rng = np.random.default_rng(_whole_number("seed", seed, 0))
    group = max(1, _LAW_BLOCK // ((q_points + 1) * grid_points))  # instances scored together
    worst_q_gap_steps = 0.0
    worst_value_gap = 0.0
    for lo in range(0, instances, group):
        drawn, error = _until_error(lambda k: _oracle_instance(rng, k, grid_points, q_points),
                                    range(lo, min(lo + group, instances)))
        minima, first = _moment_min_batch([inst[-2:] for inst in drawn])
        error = error if first is None else first  # it comes first
        for k, (inst, values) in enumerate(zip(drawn, minima), lo):
            closed_q, closed_value, q_grid, value_tol = inst[:4]
            q_step = q_grid[1] - q_grid[0]
            best = int(np.argmax(values[:-1]))
            q_gap = abs(closed_q - q_grid[best])
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
        if error is not None:
            raise error
    return {
        "instances": instances,
        "grid_points": grid_points,
        "q_points": q_points,
        "max_quantity_gap_steps": round(float(worst_q_gap_steps), 6),
        "max_value_gap_fraction_of_budget": round(float(worst_value_gap), 6),
        "passed": True,
    }
