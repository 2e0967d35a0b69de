"""Every public top-level ``def`` and ``class`` of the library has a caller.

A name counts as used when ``src/ncentropy``, ``bench/`` or ``demos/``
refers to it outside its own definition: as a name, as an attribute, or
as an imported name (the package ``__init__``'s imports count).  Tests do
not count, so an API that only tests call fails here; such helpers belong
in ``tests/predicates.py``.
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


def test_every_public_definition_is_referenced_outside_the_tests():
    sources = [*PACKAGE.glob("*.py"), *(ROOT / "bench").glob("*.py"), *(ROOT / "demos").glob("*.py")]
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in sources}
    # (file, index of the top-level statement) -> names referenced inside it
    refs = {(path, i): _referenced_names(stmt) for path, tree in trees.items() for i, stmt in enumerate(tree.body)}
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for i, stmt in enumerate(trees[path].body):
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) or stmt.name.startswith("_"):
                continue
            if not any(stmt.name in names for where, names in refs.items() if where != (path, i)):
                unused.append(f"{path.name}:{stmt.lineno} {stmt.name}")
    assert unused == []
