"""The package and its tests import only the standard library, numpy, scipy,
pytest and robustnv itself: the test install brings in nothing else, so a
module that happens to be installed on one host must not be reached for."""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ALLOWED = {"numpy", "scipy", "pytest", "robustnv"}


def _imported(tree: ast.Module):
    """(top-level module, line) of every absolute import in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0], node.lineno


def test_src_and_tests_import_only_the_stdlib_numpy_scipy_pytest_and_robustnv():
    paths = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
    assert len(paths) > 10
    foreign = [
        f"{path.relative_to(ROOT)}:{line} {name}"
        for path in paths
        for name, line in _imported(ast.parse(path.read_text()))
        if name not in ALLOWED and name not in sys.stdlib_module_names
    ]
    assert not foreign, f"imports outside the stdlib and the test install: {foreign}"
