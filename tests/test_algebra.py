import json

import numpy as np
import pytest

from ncentropy import AlgebraElement, AlgebraShape, Seed
from ncentropy.algebra import direct_sum_shape, element_to_json
from ncentropy.errors import ShapeMismatch
from ncentropy.linalg import matrix_from_json, max_abs, sample_unitary

from predicates import adjoint, identity, is_positive, is_projection, multiply


def _random_element(shape, seed):
    blocks = []
    for x, m in enumerate(shape.blocks):
        rng = Seed(seed, x).rng()
        blocks.append(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
    return AlgebraElement(shape, tuple(blocks))


def test_shape_validation():
    assert AlgebraShape((2, 3)).total_dim == 5
    assert AlgebraShape((1, 1, 1)).is_commutative()
    assert not AlgebraShape((1, 2)).is_commutative()
    with pytest.raises(ShapeMismatch):
        AlgebraShape(())
    with pytest.raises(ShapeMismatch):
        AlgebraShape((2, 0))


def test_identity_blocks():
    assert np.allclose(identity(AlgebraShape((1,))).blocks[0], [[1.0]])
    e = identity(AlgebraShape((2, 3)))
    assert np.allclose(e.blocks[0], np.eye(2))
    assert np.allclose(e.blocks[1], np.eye(3))
    assert is_projection(e)
    assert is_positive(e)


def test_identity_is_the_unit():
    shape = AlgebraShape((2, 3))
    a = _random_element(shape, 0)
    prod = multiply(identity(shape), a)
    assert all(max_abs(p - q) < 1e-12 for p, q in zip(prod.blocks, a.blocks))


def test_star_square_is_positive():
    shape = AlgebraShape((2, 2))
    for k in range(5):
        x = _random_element(shape, 10 + k)
        assert is_positive(multiply(adjoint(x), x))


def test_positivity_and_projection_predicates():
    diag = AlgebraElement(AlgebraShape((2,)), (np.diag([1.0, -0.5]),))
    assert not is_positive(diag)
    proj = AlgebraElement(AlgebraShape((2,)), (np.full((2, 2), 0.5),))
    assert is_projection(proj)
    assert not is_projection(AlgebraElement(AlgebraShape((2,)), (np.diag([1.0, 0.5]),)))


def test_direct_sums():
    a, b = AlgebraShape((2,)), AlgebraShape((1, 1))
    assert direct_sum_shape(a, b).blocks == (2, 1, 1)
    both = identity(a).blocks + identity(b).blocks
    assert all(max_abs(p - q) < 1e-15 for p, q in zip(both, identity(direct_sum_shape(a, b)).blocks))


def test_classical_direct_sum_is_all_ones():
    x, y = AlgebraShape((1,) * 3), AlgebraShape((1,) * 2)
    assert direct_sum_shape(x, y).blocks == (1,) * 5


def test_element_json_round_trip():
    shape = AlgebraShape((2, 1))
    u = sample_unitary(2, Seed(5).rng())
    a = AlgebraElement(shape, (u, np.array([[0.5 + 0.5j]])))
    data = json.loads(json.dumps(element_to_json(a)))
    assert AlgebraShape(tuple(data["shape"])) == shape
    back = [matrix_from_json(b) for b in data["blocks"]]
    assert all(np.array_equal(p, q) for p, q in zip(back, a.blocks))


@pytest.mark.parametrize("blocks", [("2",), (2.7,), (2.0,), (True, 1), (np.bool_(True),), (None,)])
def test_shape_rejects_non_integer_dimensions(blocks):
    with pytest.raises(ShapeMismatch, match="integers"):
        AlgebraShape(blocks)


def test_shape_accepts_python_and_numpy_integers():
    assert AlgebraShape((np.int64(2), np.int32(3), 1)).blocks == (2, 3, 1)
    assert all(type(m) is int for m in AlgebraShape((np.int64(2),)).blocks)
