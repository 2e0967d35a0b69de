"""Every public top-level ``def`` and ``class`` of the library has a caller, and so does every private one without a decorator.

A name counts as used when ``src/ncentropy``, ``bench/`` or ``demos/``
refers to it outside its own definition: as a name, as an attribute, or
as an imported name.  The package ``__init__``'s re-exports do not count,
and neither do the tests, so an API that only tests call fails here; such
helpers belong in ``tests/predicates.py``.  A decorated private definition, such as a
suite registered by ``@_per_trial``, is used through its decorator.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ncentropy"


def _referenced_names(node: ast.AST) -> set[str]:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.rsplit(".", 1)[-1] for alias in sub.names)
    return names


def _unreferenced(wanted) -> list[str]:
    """``file:line name`` of each top-level ``def`` or ``class`` of the package that ``wanted`` selects and nothing refers to."""
    sources = [*PACKAGE.glob("*.py"), *(ROOT / "bench").glob("*.py"), *(ROOT / "demos").glob("*.py")]
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in sources}
    # (file, index of the top-level statement) -> names referenced inside it, re-exports left out
    refs = {
        (path, i): _referenced_names(stmt)
        for path, tree in trees.items()
        if path != PACKAGE / "__init__.py"
        for i, stmt in enumerate(tree.body)
    }
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for i, stmt in enumerate(trees[path].body):
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) or not wanted(stmt):
                continue
            if not any(stmt.name in names for where, names in refs.items() if where != (path, i)):
                unused.append(f"{path.name}:{stmt.lineno} {stmt.name}")
    return unused


def test_every_public_definition_is_referenced_outside_the_tests():
    assert _unreferenced(lambda stmt: not stmt.name.startswith("_")) == []


def test_every_undecorated_private_definition_is_referenced_outside_the_tests():
    assert _unreferenced(lambda stmt: stmt.name.startswith("_") and not stmt.decorator_list) == []
