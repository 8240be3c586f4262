"""Every private name in the package, at module level or in a class body, is
used inside the package, and every module-level import is read in the module
that makes it."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "robustnv"


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _definitions(body: list[ast.stmt]):
    """(name, first line, last line) of each private function, class and
    constant (or class attribute) defined directly in ``body``."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in filter(_private, names):
            yield name, node.lineno, node.end_lineno


def _uses(tree: ast.Module):
    """(name, line) of every read of a bare name or an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def _class_bodies(tree: ast.Module):
    """The body of every class in the module, nested ones included."""
    return [node.body for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]


def _dead(bodies_of) -> list[str]:
    """``file:line name`` of each private name that ``bodies_of(tree)`` define
    and nothing in the package reads."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    uses = [(name, file, line) for file, tree in trees.items() for name, line in _uses(tree)]
    return [
        f"{file}:{first} {name}"
        for file, tree in trees.items()
        for body in bodies_of(tree)
        for name, first, last in _definitions(body)
        # a read inside the definition itself (recursion) keeps nothing alive
        if not any(n == name and (f != file or not first <= line <= last) for n, f, line in uses)
    ]


def test_no_private_module_level_name_is_dead():
    dead = _dead(lambda tree: [tree.body])
    assert not dead, f"private names with no use in the package: {dead}"


def test_no_private_class_member_is_dead():
    dead = _dead(_class_bodies)
    assert not dead, f"private methods and class attributes with no use in the package: {dead}"


def _imports(tree: ast.Module):
    """(name bound, line) of each module-level import, ``__future__`` aside."""
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno


def test_no_module_level_import_is_unread():
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":  # its imports are the package's exports
            continue
        tree = ast.parse(path.read_text())
        reads = {n.id for n in ast.walk(tree)
                 if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unread += [f"{path.name}:{line} {name}"
                   for name, line in _imports(tree) if name not in reads]
    assert not unread, f"imports never read in their module: {unread}"
