"""Each library decision has one threshold: only these functions take ``tol``.

``run_suite``/``run_all`` carry ``nce verify --tol``; no library function
takes one.  A disintegration's candidate factors are checked against an
allowance that the disintegration module computes from its own rounding,
not against a threshold a caller passes.
The predicates whose tests use several values live in ``tests/predicates.py``.
Every other threshold is a named module constant, and the library modules
write no small float literal, nor a constant power below 1e-6 such as
``2.0**-53``, anywhere else.
"""

import ast
import inspect

import ncentropy
from ncentropy import algebra, disintegration, entropy, linalg, morphism, state

TAKES_TOL = {"run_suite", "run_all"}


def _public_functions():
    found = {name: getattr(ncentropy, name) for name in ncentropy.__all__}
    for module in (algebra, linalg, state, morphism, entropy, disintegration):
        for name, obj in vars(module).items():
            if not name.startswith("_") and getattr(obj, "__module__", "").startswith("ncentropy"):
                found[name] = obj
    return {name: obj for name, obj in found.items() if inspect.isfunction(obj)}


def test_only_the_allowlisted_functions_take_a_tol():
    takes_tol = {
        name for name, obj in _public_functions().items() if "tol" in inspect.signature(obj).parameters
    }
    assert takes_tol == TAKES_TOL


def _constant_value(node):
    """The value of an expression of number literals and arithmetic operators, such as ``2.0**-53``; else None."""
    parts = list(ast.walk(node))
    arithmetic = (ast.Constant, ast.UnaryOp, ast.BinOp, ast.unaryop, ast.operator)
    if all(isinstance(n, arithmetic) and type(getattr(n, "value", 0)) in (int, float) for n in parts):
        return eval(compile(ast.Expression(node), "<constant>", "eval"))
    return None


def _small_literals_outside_module_constants(module):
    """``(line, value)`` of each float literal, or constant power such as ``2.0**-53``, in ``(0, 1e-6)`` that no module-level assignment holds."""
    tree = ast.parse(inspect.getsource(module))
    named = {
        id(node)
        for stmt in tree.body
        if isinstance(stmt, (ast.Assign, ast.AnnAssign))
        for node in ast.walk(stmt)
    }
    return [
        (node.lineno, value)
        for node in ast.walk(tree)
        if (
            (isinstance(node, ast.Constant) and type(node.value) is float)
            or (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow))
        )
        and isinstance(value := _constant_value(node), float)
        and 0.0 < value < 1e-6
        and id(node) not in named
    ]


def test_every_small_threshold_is_a_named_module_constant():
    found = {
        module.__name__: literals
        for module in (algebra, linalg, state, morphism, entropy, disintegration)
        if (literals := _small_literals_outside_module_constants(module))
    }
    assert found == {}
