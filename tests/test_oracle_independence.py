"""The brute-force oracles certify the closed forms beside them, so nothing
they call may call them: a floor or a seed taken from the solver would let
the certificate agree with the solver by construction.  This holds for the
dual in portfolio.py and for every oracle in oracle.py."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "robustnv"
PORTFOLIO = SRC / "portfolio.py"
CLOSED_FORMS = {
    "solve_lambda", "product_quantities", "_single_quantity", "theta", "_theta", "_first_segment",
}
ORACLES = ("dual_objective", "dual_objective_curve", "_envelope_min", "_chain")


def _reads(node: ast.AST) -> set[str]:
    """Every bare name and attribute read inside ``node``."""
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)} | {
        n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)
    }


def _reached(functions: dict[str, ast.AST], roots=ORACLES) -> set[str]:
    """The module's functions that the oracles call, directly or not."""
    seen, todo = set(), list(roots)
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


# the rules oracle.py shares with the closed forms: the profit, the grid rule
# and the law type; it may read no other name that single_product.py defines
SHARED = {"_profit", "_grid", "_floats", "DiscreteDistribution"}
MOMENT_MINIMUM = "_moment_min_batch"


def _defined(tree: ast.Module) -> set[str]:
    """The names a module defines at its top level."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return names - {"__all__"}


def _oracle_leaks(source: str) -> dict[str, list[str]]:
    """Per oracle.py function or class that a public oracle or the certified
    moment minimum reaches: the single_product.py names it reads beyond
    ``SHARED``."""
    tree = ast.parse(source)
    units = {n.name: n for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
    public = next(
        n.value for n in tree.body
        if isinstance(n, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in n.targets)
    )
    roots = [ast.literal_eval(e) for e in public.elts] + [MOMENT_MINIMUM]
    assert set(roots) <= units.keys(), "an oracle was renamed; update the roots"
    closed = _defined(ast.parse((SRC / "single_product.py").read_text())) - SHARED
    reached = _reached(units, roots)
    assert {"_iter_triples", "_row_minima", "_exchange", "_screen"} <= reached
    return {name: sorted(_reads(units[name]) & closed) for name in sorted(reached)}


def test_the_grid_oracles_read_only_the_shared_rules():
    leaks = _oracle_leaks((SRC / "oracle.py").read_text())
    assert not any(leaks.values()), f"oracle functions that read a closed form: {leaks}"


def test_the_walk_sees_a_closed_form_read_two_calls_down():
    source = (SRC / "oracle.py").read_text()
    mutated = source.replace(
        "def _screen(grid, f, t1, t2, coef, best, omega, w_err)",
        "def _screen(grid, f, t1, t2, coef, best, omega, w_err, _peek=lambda: _solve)",
    )
    assert mutated != source
    assert _oracle_leaks(mutated)["_screen"] == ["_solve"]
