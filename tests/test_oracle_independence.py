"""The brute-force dual in portfolio.py certifies the closed forms beside it,
so nothing it calls may call them: a floor or a seed taken from the solver
would let the certificate agree with the solver by construction."""

import ast
from pathlib import Path

PORTFOLIO = Path(__file__).resolve().parents[1] / "src" / "robustnv" / "portfolio.py"
CLOSED_FORMS = {
    "solve_lambda", "product_quantities", "_single_quantity", "theta", "_theta", "_first_segment",
}
ORACLES = ("dual_objective", "dual_objective_curve", "_envelope_min", "_chain")


def _reads(node: ast.AST) -> set[str]:
    """Every bare name and attribute read inside ``node``."""
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)} | {
        n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)
    }


def _reached(functions: dict[str, ast.FunctionDef]) -> set[str]:
    """The module's functions that the oracles call, directly or not."""
    seen, todo = set(), list(ORACLES)
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo += sorted(_reads(functions[name]) & functions.keys())
    return seen


def test_the_dual_oracles_reach_no_closed_form():
    tree = ast.parse(PORTFOLIO.read_text())
    functions = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    assert CLOSED_FORMS <= functions.keys(), "a closed form was renamed; update CLOSED_FORMS"
    reached = _reached(functions)
    assert {"_product_curve", "_validated_grid"} <= reached
    leaks = {name: sorted(_reads(functions[name]) & CLOSED_FORMS) for name in sorted(reached)}
    assert not any(leaks.values()), f"oracle functions that read a closed form: {leaks}"
