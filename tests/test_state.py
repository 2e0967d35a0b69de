import cmath
import json
import warnings

import numpy as np
import pytest

from ncentropy import (
    AlgebraElement,
    AlgebraShape,
    Seed,
    State,
    are_orthogonal,
    block_pure_state,
    classical_state,
    convex_combine,
    evaluate,
    external_sum_state,
    is_pure,
    measurement_morphism,
    segal,
    support,
)
from ncentropy.errors import IndexOutOfRange, NotDensity, NotProbabilityVector, OutOfRange, ShapeMismatch
from ncentropy import cli, linalg
from ncentropy.linalg import max_abs, sample_density, sample_simplex, sample_unitary
from ncentropy.state import state_to_json, support_rank

from predicates import identity, is_projection, multiply


def _random_state(shape, seed):
    weights = sample_simplex(len(shape), Seed(seed, 0).rng())
    densities = tuple(sample_density(m, Seed(seed, 1 + x).rng()) for x, m in enumerate(shape.blocks))
    return State(shape, weights, densities)


def _random_element(shape, seed):
    blocks = []
    for x, m in enumerate(shape.blocks):
        rng = Seed(seed, 50 + x).rng()
        blocks.append(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
    return AlgebraElement(shape, tuple(blocks))


BELL = np.zeros((4, 4), dtype=complex)
for _i in (0, 3):
    for _j in (0, 3):
        BELL[_i, _j] = 0.5

PLUS = np.full((2, 2), 0.5, dtype=complex)


def test_state_validation():
    shape = AlgebraShape((2,))
    with pytest.raises(NotProbabilityVector):
        State(shape, [0.9], (PLUS,))
    with pytest.raises(NotDensity):
        State(shape, [1.0], (np.diag([0.9, 0.3]),))
    with pytest.raises(ShapeMismatch):
        State(shape, [1.0], (np.eye(3) / 3,))
    for bad, reason in (([[1.0 + 1e-3j]], "Hermitian"), ([[-0.5]], "eigenvalue"), ([[0.7]], "trace")):
        with pytest.raises(NotDensity, match=reason):
            State(AlgebraShape((1, 1)), [0.5, 0.5], (np.ones((1, 1)), np.array(bad)))


def test_evaluate_examples():
    half_tr = State(AlgebraShape((2,)), [1.0], (np.eye(2) / 2,))
    a = AlgebraElement(AlgebraShape((2,)), (np.diag([1.0, 3.0]),))
    assert abs(evaluate(half_tr, a) - 2.0) < 1e-12

    two_point = classical_state([0.25, 0.75])
    b = AlgebraElement(two_point.shape, (np.array([[2.0]]), np.array([[4.0]])))
    assert abs(evaluate(two_point, b) - 3.5) < 1e-12


def test_evaluate_of_an_element_whose_expectation_overflows_is_not_finite_and_silent():
    omega = State(AlgebraShape((2,)), [1.0], (np.full((2, 2), 0.5),))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = evaluate(omega, AlgebraElement(omega.shape, (np.full((2, 2), 1.5e308),)))
    assert not cmath.isfinite(value)


def test_evaluate_unitality_and_linearity():
    shape = AlgebraShape((2, 3))
    omega = _random_state(shape, 0)
    assert abs(evaluate(omega, identity(shape)) - 1.0) < 1e-10
    a, b = _random_element(shape, 1), _random_element(shape, 2)
    summed = AlgebraElement(shape, tuple(x + 2.0j * y for x, y in zip(a.blocks, b.blocks)))
    assert abs(evaluate(omega, summed) - evaluate(omega, a) - 2.0j * evaluate(omega, b)) < 1e-10


def test_support_examples():
    omega = State(AlgebraShape((3,)), [1.0], (np.diag([0.5, 0.5, 0.0]),))
    assert np.allclose(support(omega).blocks[0], np.diag([1.0, 1.0, 0.0]), atol=1e-12)

    plus = State(AlgebraShape((2,)), [1.0], (PLUS,))
    assert max_abs(support(plus).blocks[0] - PLUS) < 1e-12

    dirac = classical_state([1.0, 0.0])
    assert np.allclose(support(dirac).blocks[0], [[1.0]])
    assert np.allclose(support(dirac).blocks[1], [[0.0]])


def test_support_is_projection_and_absorbs():
    for k in range(100):
        shape = AlgebraShape((2, 3))
        omega = _random_state(shape, 100 + k)
        p = support(omega)
        assert is_projection(p, 1e-9)
        a = _random_element(shape, 100 + k)
        sandwiched = multiply(multiply(p, a), p)
        assert abs(evaluate(omega, sandwiched) - evaluate(omega, a)) < 1e-9


def test_the_support_trace_is_the_support_rank():
    rng = np.random.default_rng(17)
    for blocks in ((1, 2, 3), (16,), (20, 5), (64,), (40, 17)):
        for rank in (1, 2, 4, 8, None):
            weights = sample_simplex(len(blocks), rng)
            weights[0] = 0.0 if len(blocks) > 1 else 1.0
            densities = tuple(sample_density(m, rng, rank=None if rank is None else min(rank, m)) for m in blocks)
            omega = State(AlgebraShape(blocks), weights / weights.sum(), densities)
            p = support(omega)
            assert round(sum(b.trace().real for b in p.blocks)) == support_rank(omega)
            assert is_projection(p, 1e-9)


@pytest.mark.parametrize("factor, kept", [(1 + 1e-6, True), (1 - 1e-6, False)], ids=["above", "below"])
def test_a_support_keeps_a_weighted_eigenvalue_above_the_threshold(factor, kept):
    # p * lambda = factor * DEFAULT_TOL, once through the block weight and once through the eigenvalue
    t = factor * linalg.DEFAULT_TOL
    light_weight = State(AlgebraShape((1, 1)), [1 - t, t], (np.ones((1, 1)), np.ones((1, 1))))
    light_vector = State(AlgebraShape((2,)), [1.0], (np.diag([1 - t, t]).astype(complex),))
    half = State(AlgebraShape((2, 1)), [0.5, 0.5], (np.diag([1 - 2 * t, 2 * t]).astype(complex), np.ones((1, 1))))
    for omega, rank in ((light_weight, 1), (light_vector, 1), (half, 2)):
        assert support_rank(omega) == rank + kept
        assert round(sum(b.trace().real for b in support(omega).blocks)) == rank + kept


def test_a_zero_weight_block_has_the_zero_support_without_an_eigh_call(monkeypatch):
    shapes = []
    hermitian_eigh = linalg.hermitian_eigh
    monkeypatch.setattr(linalg, "hermitian_eigh", lambda m: shapes.append(m.shape) or hermitian_eigh(m))
    omega = State(AlgebraShape((2, 3)), [1.0, 0.0], (sample_density(2, np.random.default_rng(0)), sample_density(3, np.random.default_rng(1))))
    blocks = support(omega).blocks
    assert shapes == [(2, 2)]
    assert blocks[1].dtype == np.complex128 and not blocks[1].any()
    assert support_rank(omega) == 2


def test_support_minimality():
    # rank equals the number of nonzero eigenvalues, and any strictly
    # smaller spectral projection loses absorption
    rho = np.diag([0.6, 0.4, 0.0])
    omega = State(AlgebraShape((3,)), [1.0], (rho,))
    assert support_rank(omega) == 2
    smaller = AlgebraElement(omega.shape, (np.diag([1.0, 0.0, 0.0]).astype(complex),))
    probe = identity(omega.shape)
    assert abs(evaluate(omega, multiply(smaller, probe)) - evaluate(omega, probe)) > 0.1


def test_orthogonality_examples():
    d1 = classical_state([1.0, 0.0])
    d2 = classical_state([0.0, 1.0])
    assert are_orthogonal(d1, d2)
    assert not are_orthogonal(d1, d1)

    plus = State(AlgebraShape((2,)), [1.0], (PLUS,))
    e0 = State(AlgebraShape((2,)), [1.0], (np.diag([1.0, 0.0]),))
    # oracle: the product of the two rank-1 projectors is nonzero
    assert max_abs(support(plus).blocks[0] @ support(e0).blocks[0]) > 0.1
    assert not are_orthogonal(plus, e0)


def test_supports_of_nearly_hermitian_densities_have_the_kept_rank(tmp_path, capsys):
    # rank-8 densities on orthogonal column sets of a Haar unitary, each
    # plus 2e-11 (A - A^T): Hermitian within DEFAULT_TOL only.  The lower
    # triangle alone is another Hermitian matrix, whose near-null
    # eigenvalues pass DEFAULT_TOL; the support is of the Hermitian part.
    rng = np.random.default_rng(11)
    u = sample_unitary(64, rng)

    def near_hermitian(cols, a):
        return State(AlgebraShape((64,)), [1.0], (cols @ sample_density(8, rng) @ cols.conj().T + 2e-11 * (a - a.T),))

    omega, xi = (near_hermitian(u[:, 8 * i : 8 * i + 8], rng.uniform(-1, 1, (64, 64))) for i in (0, 1))
    for state in (omega, xi):
        assert support_rank(state) == 8
        assert round(support(state).blocks[0].trace().real) == 8
    assert are_orthogonal(omega, xi)
    paths = []
    for i, state in enumerate((omega, xi)):
        paths.append(str(tmp_path / f"near_hermitian_{i}.json"))
        with open(paths[-1], "w") as fh:
            json.dump(state_to_json(state), fh)
    assert cli.main(["orthogonal", *paths]) == 0
    assert capsys.readouterr().out == "true\n"


def test_orthogonality_symmetric_and_null_mass():
    shape = AlgebraShape((2, 2))
    base = np.zeros((2, 2), dtype=complex)
    base[0, 0] = 1.0
    comp = np.zeros((2, 2), dtype=complex)
    comp[1, 1] = 1.0
    omega = State(shape, [1.0, 0.0], (base, np.eye(2) / 2))
    xi = State(shape, [0.5, 0.5], (comp, np.eye(2) / 2))
    assert are_orthogonal(omega, xi) == are_orthogonal(xi, omega)
    assert abs(evaluate(omega, support(xi))) < 1e-10


def test_convex_combine_endpoints_and_symmetry():
    shape = AlgebraShape((2,))
    omega = State(shape, [1.0], (np.diag([1.0, 0.0]),))
    xi = State(shape, [1.0], (np.diag([0.0, 1.0]),))
    same = convex_combine(1.0, omega, xi)
    a = _random_element(shape, 7)
    assert abs(evaluate(same, a) - evaluate(omega, a)) < 1e-12
    mixed = convex_combine(0.5, omega, xi)
    assert max_abs(mixed.densities[0] - np.eye(2) / 2) < 1e-12
    with pytest.raises(OutOfRange):
        convex_combine(1.5, omega, xi)


def test_convex_combine_is_affine_on_evaluation():
    shape = AlgebraShape((1, 3))
    omega = _random_state(shape, 8)
    xi = _random_state(shape, 9)
    a = _random_element(shape, 10)
    for lam in (0.0, 0.3, 0.77, 1.0):
        mixed = convex_combine(lam, omega, xi)
        expected = lam * evaluate(omega, a) + (1.0 - lam) * evaluate(xi, a)
        assert abs(evaluate(mixed, a) - expected) < 1e-10


def test_purity():
    assert is_pure(classical_state([0.0, 1.0, 0.0]))
    assert not is_pure(State(AlgebraShape((2,)), [1.0], (np.eye(2) / 2,)))
    bell = State(AlgebraShape((4,)), [1.0], (BELL,))
    assert is_pure(bell)


def test_purity_iff_zero_entropy():
    for k in range(20):
        shape = AlgebraShape((2, 3))
        omega = _random_state(shape, 200 + k)
        assert not is_pure(omega)
        assert segal(omega) > 1e-9
    pure = block_pure_state(AlgebraShape((2, 3)), 1, [1.0, 1.0j, 0.0])
    assert is_pure(pure)
    assert abs(segal(pure)) < 1e-9


@pytest.mark.parametrize("vector, unit", [([1e200, 1e200], [0.5**0.5] * 2), ([1e-200, 0.0], [1.0, 0.0]), ([1e-160, 0.0], [1.0, 0.0])])
def test_pure_state_of_a_vector_whose_squares_leave_the_float_range(vector, unit):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pure = block_pure_state(AlgebraShape((2,)), 0, vector)
    assert max_abs(pure.densities[0] - np.outer(unit, unit)) < 1e-15


def test_external_sum():
    unique = classical_state([1.0])
    pair = external_sum_state(0.5, unique, unique)
    assert np.allclose(pair.weights, [0.5, 0.5])
    for k in range(10):
        omega = _random_state(AlgebraShape((2,)), 300 + k)
        xi = _random_state(AlgebraShape((1, 2)), 400 + k)
        lam = 0.3
        combined = external_sum_state(lam, omega, xi)
        assert abs(combined.weights.sum() - 1.0) < 1e-12
        tilde_omega = external_sum_state(1.0, omega, xi)
        tilde_xi = external_sum_state(0.0, omega, xi)
        assert are_orthogonal(tilde_omega, tilde_xi)


def _count_eigvalsh(monkeypatch):
    calls = []
    original = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda *a, **k: calls.append(1) or original(*a, **k))
    return calls


def test_placeholder_is_one_read_only_object_per_dimension(monkeypatch):
    monkeypatch.setattr(linalg, "_placeholders", {})  # every dimension is fresh
    calls = _count_eigvalsh(monkeypatch)
    sizes = (1, 2, 3, 4, 7, 16, 64, 257)
    kept = []
    for n in sizes:
        rho = linalg.placeholder(n)
        assert rho is linalg.placeholder(n)
        assert np.array_equal(rho, np.eye(n) / n)
        assert not rho.flags.writeable
        with pytest.raises(ValueError):
            rho[0, 0] = 0.0
        kept.append(linalg.check_density(rho))
        assert kept[-1] is linalg.check_density(rho) and not kept[-1].flags.writeable
    omega = State(AlgebraShape((3, 7)), [1.0, 0.0], (linalg.placeholder(3), linalg.placeholder(7)))
    assert calls == []  # the spectrum is written down, not decomposed
    assert omega.densities[1] is linalg.placeholder(7)
    assert omega.spectra[1] is linalg.check_density(linalg.placeholder(7))
    for n, vals in zip(sizes, kept):  # with LAPACK's bits
        assert vals.tobytes() == linalg.hermitian_spectrum(np.eye(n, dtype=complex) / n)[1].tobytes()


def test_library_zero_weight_blocks_share_the_placeholder():
    pure = block_pure_state(AlgebraShape((2, 3)), 0, [1.0, 0.0])
    assert pure.densities[1] is linalg.placeholder(3)
    mix = convex_combine(0.5, pure, pure)
    assert mix.densities[1] is linalg.placeholder(3)


def test_an_equal_density_is_still_decomposed_and_checked(monkeypatch):
    linalg.placeholder(3)
    fresh = np.eye(3, dtype=np.complex128) / 3
    assert fresh is not linalg.placeholder(3) and fresh.flags.writeable
    calls = _count_eigvalsh(monkeypatch)
    omega = State(AlgebraShape((3,)), [1.0], (fresh,))
    assert len(calls) == 1
    assert linalg.check_density(fresh) is not omega.spectra[0]
    assert len(calls) == 2
    fresh[0, 0] = 2.0  # a writable copy is the caller's own: it is checked as any density
    with pytest.raises(NotDensity):
        State(AlgebraShape((3,)), [1.0], (fresh,))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.inf), complex(np.nan, 1.0)])
@pytest.mark.parametrize("n, where", [(1, (0, 0)), (2, (0, 0)), (2, (0, 1))])
def test_non_finite_density_still_raises(bad, n, where):
    rho = np.eye(n, dtype=np.complex128) / n
    rho[where] = bad
    with np.errstate(invalid="ignore"), pytest.raises(ShapeMismatch, match="finite"):
        State(AlgebraShape((n,)), [1.0], (rho,))


def test_nan_weight_still_raises():
    with pytest.raises(NotProbabilityVector, match="finite"):
        State(AlgebraShape((1, 1)), [np.nan, 1.0], (np.ones((1, 1)), np.ones((1, 1))))


@pytest.mark.parametrize("block", [-1, 2, 1.0, True], ids=["negative", "past-the-end", "float", "bool"])
@pytest.mark.parametrize(
    "build",
    [
        lambda shape, block: block_pure_state(shape, block, [1.0, 0.0]),
        lambda shape, block: measurement_morphism(shape, block, np.diag([1.0, 2.0])),
    ],
    ids=["block_pure_state", "measurement_morphism"],
)
def test_block_index_must_be_an_integer_in_range(build, block):
    # unchecked, -1 silently picks the last block, 2 and 1.0 raise untyped errors,
    # and measurement_morphism at -1 reports a misleading multiplicity ShapeMismatch
    with pytest.raises(IndexOutOfRange, match="block index"):
        build(AlgebraShape((2, 3)), block)
