"""One way to read a number: every public function computes with the float
its check returns, and every count or seed is read by ``_whole_number``.

The AST guard below rejects the two other ways of reading an argument: a
check whose result is dropped while the raw value is computed with, and a
bare ``float()``/``int()`` call.  The table test feeds every reading site the
number types a caller may hold and requires either the float input's exact
outputs or an ``InputError`` naming the argument."""

import ast
import dataclasses
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from robustnv import (
    CostStructure,
    DemandKind,
    DiscreteDistribution,
    ExperimentConfig,
    InputError,
    MomentSpec,
    PortfolioSpec,
    ProductSpec,
    SampleSet,
    cv_alpha,
    default_alpha_grid,
    draw_demand,
    dual_objective,
    epsilon_N,
    formula_calibrate,
    fractile_factor,
    generate_demand,
    guarantee,
    oracle_check,
    product_quantities,
    stress_calibrate,
    stress_distribution,
    sweep,
    theta,
    transform,
)
from robustnv.oracle import inner_min_oracle, wasserstein_dual_oracle
from robustnv.validation import _whole_number

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "robustnv"
_CHECKS = {"require_finite", "require_positive", "require_nonnegative", "_whole_number"}


def _params(fn: ast.FunctionDef) -> set[str]:
    a = fn.args
    names = [*a.posonlyargs, *a.args, *a.kwonlyargs, *filter(None, (a.vararg, a.kwarg))]
    return {p.arg for p in names}


def _own_nodes(fn):
    """The nodes of ``fn``'s body, not descending into nested functions,
    lambdas or classes, whose parameters are their own."""
    todo = list(fn.body)
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            todo.extend(ast.iter_child_nodes(node))


def _functions(tree: ast.Module):
    return [n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]


def _called(node: ast.AST, names) -> bool:
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in names


def _trees():
    return {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def test_no_check_of_a_parameter_discards_the_checked_value():
    found = []
    for file, tree in _trees().items():
        for fn in _functions(tree):
            params = _params(fn)
            for node in _own_nodes(fn):
                if (
                    isinstance(node, ast.Expr)
                    and _called(node.value, _CHECKS)
                    and len(node.value.args) > 1
                    and isinstance(node.value.args[1], ast.Name)
                    and node.value.args[1].id in params
                ):
                    found.append(f"{file}:{node.lineno} {fn.name}")
    assert not found, f"checks whose checked value is thrown away: {found}"


def _exported(tree: ast.Module):
    """Each function in the module's ``__all__``, and each public method of
    each class in it."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names = {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name in names:
            yield node
        elif isinstance(node, ast.ClassDef) and node.name in names:
            yield from (
                m for m in node.body
                if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")
            )


def test_no_exported_function_reads_a_parameter_by_hand():
    found = []
    for file, tree in _trees().items():
        for fn in _exported(tree):
            params = _params(fn)
            found += [
                f"{file}:{node.lineno} {fn.name} {node.func.id}({node.args[0].id})"
                for node in _own_nodes(fn)
                if _called(node, ("float", "int"))
                and len(node.args) == 1
                and isinstance(node.args[0], ast.Name)
                and node.args[0].id in params
            ]
    assert not found, f"hand-rolled float()/int() reads of a parameter: {found}"


# ---------------------------------------------------------------------------
# the table: every reading site, fed the number types a caller may hold
# ---------------------------------------------------------------------------

COST = CostStructure(10.0, 3.0)
PRODUCTS = (ProductSpec(10.0, 3.0, 4.0), ProductSpec(12.0, 5.0, 6.0))
PLAN = PortfolioSpec(PRODUCTS[:1], 40.0, 2.0)
TRAIN = SampleSet([2.0, 3.0, 5.0, 6.0, 9.0, 4.0, 7.0, 8.0])
TEST = SampleSet([3.0, 4.0, 4.5, 6.0, 8.0, 5.0])
CONFIG = ExperimentConfig(TRAIN, COST, (2.0,), ("MISSPEC",), 0, test=TEST)
LAW = DiscreteDistribution.from_samples([1.0, 2.0, 4.0])


def _draw(kind: str, param: str):
    """draw_demand of a ``kind`` law with ``param`` set to the argument x."""
    base = {"mu": 6.0, "sigma": 2.0, "mu2": 3.0, "sigma2": 1.0}
    return lambda x: draw_demand(kind, {**base, param: x}, 4, 1)


# (argument name, a valid value exact in float32, the call with that argument x)
_NUMBER_SITES = {
    "transform-price": ("price", 10.0, lambda x: transform(2.0, x, 3.0)),
    "transform-q": ("q", 3.0, lambda x: transform(2.0, 10.0, x)),
    "transform-apply": ("v", 2.0, lambda x: transform(2.0, 10.0, 3.0).apply(x)),
    "theta": ("lam", 0.5, lambda x: theta(1, x, PRODUCTS, 4.0)),
    "product_quantities": ("lambda_star", 0.5, lambda x: product_quantities(x, PRODUCTS, 4.0)),
    "dual_objective": ("lam", 0.5, lambda x: dual_objective(x, PLAN, [0.0, 2.0, 4.0, 6.0, 8.0])),
    "epsilon_N-eta": ("eta", 0.5, lambda x: epsilon_N(100, x, 0.5, 1.0)),
    "epsilon_N-c1": ("c1", 0.5, lambda x: epsilon_N(100, 0.1, x, 1.0)),
    "epsilon_N-c2": ("c2", 0.5, lambda x: epsilon_N(100, 0.1, 0.5, x)),
    "guarantee-shift": ("shift", 0.25, lambda x: guarantee(TRAIN, x, COST, 0.1)),
    "guarantee-eps": ("eps", 0.25, lambda x: guarantee(TRAIN, 0.1, COST, x)),
    "stress_distribution": ("target", 0.25, lambda x: stress_distribution(TRAIN, x)),
    "default_alpha_grid": ("price", 10.0, default_alpha_grid),
    "inner_min_oracle": ("alpha", 2.0, lambda x: inner_min_oracle(x, 3.0, 2.0, COST, [0.0, 1.0, 2.0, 4.0])),
    "wasserstein_dual_oracle": ("alpha", 2.0, lambda x: wasserstein_dual_oracle(
        LAW, 0.5, x, COST, [0.0, 0.5], [1.0, 2.0, 3.0], [0.0, 2.0, 4.0])),
    "point_mass": ("value", 3.0, DiscreteDistribution.point_mass),
    # a weight of 0 keeps every number kind's law valid
    "DiscreteDistribution-support": ("support", 2.0, lambda x: DiscreteDistribution([1.0, x], [0.5, 0.5])),
    "DiscreteDistribution-weights": ("weights", 0.0, lambda x: DiscreteDistribution(
        [1.0, 2.0, 3.0], [0.5, 0.5, x])),
    "from_pairs-values": ("values", 2.0, lambda x: DiscreteDistribution.from_pairs([1.0, x], [0.5, 0.5])),
    "from_pairs-weights": ("weights", 0.0, lambda x: DiscreteDistribution.from_pairs(
        [1.0, 2.0, 3.0], [0.5, 0.5, x])),
    "from_samples": ("values", 2.0, lambda x: DiscreteDistribution.from_samples([1.0, x])),
    "fractile_factor": ("x", 0.25, fractile_factor),
    "formula_calibrate": ("eps_grid[0]", 0.25, lambda x: formula_calibrate(TRAIN, TEST, COST, [x], folds=2)),
    "cv_alpha": ("alpha_grid[1]", 2.0, lambda x: cv_alpha(TRAIN, COST, [1.0, x], folds=2)),
    "stress_calibrate": ("alpha_grid[1]", 2.0, lambda x: stress_calibrate(TRAIN, TEST, COST, [1.0, x])),
    "draw_demand-mu": ("mu", 6.0, _draw("TRUNC_NORMAL", "mu")),
    "draw_demand-sigma": ("sigma", 2.0, _draw("TRUNC_NORMAL", "sigma")),
    "draw_demand-lognormal-mu": ("mu", 0.5, _draw("LOGNORMAL", "mu")),
    "draw_demand-mu2": ("mu2", 3.0, _draw("REGIME_SHIFT", "mu2")),
    "draw_demand-sigma2": ("sigma2", 1.0, _draw("REGIME_SHIFT", "sigma2")),
    "draw_demand-split": ("split", 0.5, _draw("REGIME_SHIFT", "split")),
    "sweep": ("values", 2.0, lambda x: sweep("alpha", CONFIG, values=[x])),
    "cdf": ("x", 2.0, LAW.cdf),
    "quantile": ("kappa", 0.5, LAW.quantile),
}


def _bits(out):
    """Every number in ``out`` as (type, float.hex), recursing into
    containers and dataclasses."""
    if isinstance(out, (float, np.floating)):
        return type(out).__name__, float(out).hex()
    if isinstance(out, np.ndarray):
        return str(out.dtype), [_bits(x) for x in out.tolist()]
    if isinstance(out, (tuple, list)):
        return [_bits(x) for x in out]
    if isinstance(out, dict):
        return {k: _bits(v) for k, v in out.items()}
    if dataclasses.is_dataclass(out):
        return type(out).__name__, {f.name: _bits(getattr(out, f.name)) for f in dataclasses.fields(out)}
    return type(out).__name__, repr(out)


def _number_inputs(v: float):
    """The number types a caller may hold, around the valid float ``v``."""
    inexact = v * 4.0 / 3.0
    return {
        "float32": np.float32(v),
        "float32-inexact": np.float32(inexact),
        "fraction": Fraction(v) * Fraction(4, 3),
        "numeric-str": repr(inexact),
        "non-numeric-str": "x",
        "none": None,
        "huge-int": 10**400,
    }


@pytest.mark.parametrize(
    "site, kind",
    [(site, kind) for site in _NUMBER_SITES for kind in _number_inputs(1.0)],
)
def test_every_site_reads_a_number_as_its_float_or_names_it(site, kind):
    name, v, call = _NUMBER_SITES[site]
    x = _number_inputs(v)[kind]
    try:
        want = _bits(call(float(x)))
    except (TypeError, ValueError, OverflowError):  # float() rejects x
        with pytest.raises(InputError, match="^" + re.escape(name) + " "):
            call(x)
    else:
        assert _bits(call(x)) == want


# (argument name, its least value, a valid count, the call with that argument x)
_COUNT_SITES = {
    "epsilon_N-n": ("n", 1, 3, lambda x: epsilon_N(x, 0.1, 0.5, 1.0)),
    "draw_demand-n": ("n", 1, 3, lambda x: draw_demand("TRUNC_NORMAL", {"mu": 6.0, "sigma": 2.0}, x, 1)),
    "draw_demand-seed": ("seed", 0, 3, lambda x: draw_demand("LOGNORMAL", {"mu": 1.0, "sigma": 0.5}, 3, x)),
    "generate_demand-n": ("n", 2, 3, lambda x: generate_demand(
        DemandKind.LOGNORMAL, {"mu": 1.0, "sigma": 0.5}, x, 1).values),
    "generate_demand-seed": ("seed", 0, 3, lambda x: generate_demand(
        DemandKind.LOGNORMAL, {"mu": 1.0, "sigma": 0.5}, 3, x).values),
    "oracle_check-seed": ("seed", 0, 3, lambda x: oracle_check(x, 1, 20, 10)),
    "oracle_check-instances": ("instances", 1, 3, lambda x: oracle_check(0, x, 20, 10)),
    "oracle_check-grid_points": ("grid_points", 20, 21, lambda x: oracle_check(0, 1, x, 10)),
    "oracle_check-q_points": ("q_points", 10, 11, lambda x: oracle_check(0, 1, 20, x)),
    "cv_alpha-seed": ("seed", 0, 3, lambda x: cv_alpha(TRAIN, COST, (1.0, 4.0), folds=2, seed=x)),
    "cv_alpha-folds": ("folds", 2, 3, lambda x: cv_alpha(TRAIN, COST, (1.0, 4.0), folds=x)),
    "formula_calibrate-seed": ("seed", 0, 3, lambda x: formula_calibrate(
        TRAIN, TEST, COST, [0.1], seed=x, folds=2)),
    "stress_calibrate-seed": ("seed", 0, 3, lambda x: stress_calibrate(TRAIN, TEST, COST, (1.0, 4.0), seed=x)),
    "theta-j": ("segment index", 1, 3, lambda x: theta(x, 0.5, PRODUCTS, 4.0)),
}


def _count_inputs(k: int):
    """Counts as a caller may hold them, around the valid count ``k``."""
    return {"fraction": k - 0.5, "negative": -1, "non-numeric-str": "x",
            "int64": np.int64(k), "whole-float": float(k)}


@pytest.mark.parametrize(
    "site, kind",
    [(site, kind) for site in _COUNT_SITES for kind in _count_inputs(3)],
)
def test_every_count_follows_the_whole_number_rule(site, kind):
    name, low, k, call = _COUNT_SITES[site]
    x = _count_inputs(k)[kind]
    try:
        n = _whole_number(name, x, low)
    except InputError as exc:
        with pytest.raises(InputError, match="^" + re.escape(str(exc)) + "$"):
            call(x)
    else:
        assert _bits(call(x)) == _bits(call(n))


def test_a_lognormal_mu_must_be_finite():
    with pytest.raises(InputError, match="^mu must be finite, got inf$"):
        draw_demand("LOGNORMAL", {"mu": float("inf"), "sigma": 0.5}, 3, 1)
