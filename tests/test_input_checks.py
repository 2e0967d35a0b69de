"""Each input check raises its typed ``InvariantViolation`` at the check that names the fault.

The message fragment pins the check itself, so an earlier check of the
same type cannot stand in for it, and no numpy warning is raised on the
way: the check comes before any arithmetic that would warn on the bad
input, or that arithmetic overflows silently and the check names the inf.
"""

import warnings

import numpy as np
import pytest

from ncentropy import (
    AlgebraElement,
    AlgebraShape,
    Morphism,
    State,
    apply,
    are_orthogonal,
    block_pure_state,
    classical_disintegrate,
    classical_state,
    compose,
    convex_combine,
    evaluate,
    external_sum_state,
    holevo_change,
    initial,
    measurement_morphism,
    pullback,
    shannon,
    von_neumann,
)
from ncentropy.errors import NotDensity, NotHermitian, NotProbabilityVector, OutOfRange, ShapeMismatch
from ncentropy.linalg import as_matrix

LINE = AlgebraShape((1,))
QUBIT = AlgebraShape((2,))
BIT_AND_QUBIT = AlgebraShape((1, 2))
EYE1, EYE2, EYE3 = (np.eye(n, dtype=np.complex128) for n in (1, 2, 3))
# exactly Hermitian, but its entries' modulus overflows, so eigvalsh returns nan
NAN_SPECTRUM = np.array([[-1, 1.7e308 - 1e308j], [1.7e308 + 1e308j, 1e308]])
# finite entries, yet m - m^dag overflows; (m + m^dag) / 2 overflows off the diagonal;
# and (m + m^dag) / 2 overflows on the diagonal, where LAPACK's eigensolver does not converge
DEVIATION_OVERFLOWS = np.array([[0.5, 1e308], [-1e308, 0.5]])
HERMITIAN_PART_OVERFLOWS = np.array([[0.5, 1.5e308], [1.4e308, 0.5]])
NOT_CONVERGING = np.array([[0.5, 0.5, 0], [-0.5, 1.7e308, 0], [0, 0, 0.5]])
# within DEFAULT_TOL of Hermitian, but (m + m^dag) / 2 overflows off the diagonal, where LAPACK does not converge
OBSERVABLE_NOT_CONVERGING = [[0.5, 1.5e308, 0], [1.5e308 + 1e-11j, 0.5, 0], [0, 0, 0.5]]
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)


def _doubling() -> Morphism:
    """M_1 -> M_2, the scalar embedding with two copies."""
    return Morphism(LINE, QUBIT, np.array([[2]]), (EYE2,))


def _point() -> State:
    return State(LINE, np.ones(1), (EYE1,))


def _mixed_qubit() -> State:
    return State(QUBIT, np.ones(1), (EYE2 / 2,))


CHECKS = [
    ("element-block-count", lambda: AlgebraElement(BIT_AND_QUBIT, (EYE1,)), ShapeMismatch, "expected 2 blocks, got 1"),
    ("element-block-size", lambda: AlgebraElement(QUBIT, (EYE3,)), ShapeMismatch, "block of size"),
    ("morphism-unitary-count", lambda: Morphism(LINE, QUBIT, np.array([[2]]), ()), ShapeMismatch, "expected 1 unitaries, got 0"),
    ("morphism-unitary-shape", lambda: Morphism(LINE, QUBIT, np.array([[2]]), (EYE3,)), ShapeMismatch, "unitary of shape"),
    ("morphism-multiplicity-shape", lambda: Morphism(LINE, QUBIT, np.array([[2, 0]]), (EYE2,)), ShapeMismatch, "multiplicity matrix of shape"),
    ("morphism-multiplicity-float-above-dimension", lambda: Morphism(LINE, QUBIT, np.array([[1e300]]), (EYE2,)), ShapeMismatch, r"multiplicity 1e\+300 exceeds the dimension 2 of codomain block 0"),
    ("morphism-multiplicity-uint64-above-dimension", lambda: Morphism(LINE, QUBIT, np.array([[2**63]], dtype=np.uint64), (EYE2,)), ShapeMismatch, "multiplicity 9223372036854775808 exceeds the dimension 2 of codomain block 0"),
    ("apply-domain", lambda: apply(_doubling(), AlgebraElement(QUBIT, (EYE2,))), ShapeMismatch, "fed to morphism with domain"),
    ("apply-overflows", lambda: apply(Morphism(QUBIT, QUBIT, np.array([[1]]), (HADAMARD,)), AlgebraElement(QUBIT, (np.full((2, 2), 1.5e308),))), ShapeMismatch, "matrix entries must be finite"),
    ("pullback-codomain", lambda: pullback(_doubling(), _point()), ShapeMismatch, "pulled through morphism with codomain"),
    ("compose-inner-codomain", lambda: compose(_doubling(), _doubling()), ShapeMismatch, "cannot compose"),
    ("measurement-one-dimensional-block", lambda: measurement_morphism(LINE, 0, EYE1), ShapeMismatch, "at least 2"),
    ("measurement-nan-spectrum", lambda: measurement_morphism(QUBIT, 0, NAN_SPECTRUM), NotHermitian, "observable spectrum is not finite"),
    ("measurement-eigensolver-does-not-converge", lambda: measurement_morphism(AlgebraShape((3,)), 0, OBSERVABLE_NOT_CONVERGING), NotHermitian, "observable spectrum is not finite"),
    ("measurement-deviation-overflows", lambda: measurement_morphism(QUBIT, 0, [[0, 1e308], [-1e308, 0]]), NotHermitian, "deviates from its adjoint by inf"),
    ("state-density-count", lambda: State(BIT_AND_QUBIT, np.array([0.5, 0.5]), (EYE1,)), ShapeMismatch, "expected 2 densities, got 1"),
    ("state-density-nan-spectrum", lambda: State(QUBIT, np.ones(1), (NAN_SPECTRUM,)), NotDensity, "density spectrum is not finite"),
    ("state-density-deviation-overflows", lambda: State(QUBIT, np.ones(1), (DEVIATION_OVERFLOWS,)), NotDensity, "deviates from Hermitian by inf"),
    ("state-density-hermitian-part-overflows", lambda: State(QUBIT, np.ones(1), (HERMITIAN_PART_OVERFLOWS,)), NotDensity, r"deviates from Hermitian by 1\.000e\+307"),
    ("state-density-eigensolver-does-not-converge", lambda: State(AlgebraShape((3,)), np.ones(1), (NOT_CONVERGING,)), NotDensity, r"deviates from Hermitian by 1\.000e\+00"),
    ("state-1x1-density-deviation-overflows", lambda: State(LINE, np.ones(1), (np.array([[1 + 1e308j]]),)), NotDensity, "deviates from Hermitian by inf"),
    ("state-density-trace-overflows", lambda: State(QUBIT, np.ones(1), (np.diag([1e308, 1e308]),)), NotDensity, "density trace inf"),
    ("state-weight-sum-overflows", lambda: State(AlgebraShape((1, 1)), np.array([1e308, 1e308]), (EYE1, EYE1)), NotProbabilityVector, "entries sum to inf"),
    ("state-complex-weights", lambda: State(AlgebraShape((1, 1)), [0.5 + 0.4j, 0.5 - 0.4j], (EYE1, EYE1)), ShapeMismatch, "entries must be real numbers, got dtype complex128"),
    ("shannon-complex-entries", lambda: shannon(np.array([0.5 + 0.4j, 0.5 - 0.4j])), ShapeMismatch, "entries must be real numbers, got dtype complex128"),
    ("state-density-ndim", lambda: State(LINE, np.ones(1), (np.ones(1),)), ShapeMismatch, "expected a matrix, got array of ndim 1"),
    ("pure-state-vector-length", lambda: block_pure_state(QUBIT, 0, [1, 0, 0]), ShapeMismatch, "vector of length 3"),
    ("pure-state-zero-vector", lambda: block_pure_state(QUBIT, 0, [0, 0]), ShapeMismatch, "vector of norm 0.0"),
    ("pure-state-infinite-vector", lambda: block_pure_state(QUBIT, 0, [np.inf, 0]), ShapeMismatch, "vector of norm inf"),
    ("evaluate-shape", lambda: evaluate(_point(), AlgebraElement(QUBIT, (EYE2,))), ShapeMismatch, "applied to element on"),
    ("orthogonal-shape", lambda: are_orthogonal(_point(), _mixed_qubit()), ShapeMismatch, "same algebra"),
    ("combine-shape", lambda: convex_combine(0.5, _point(), _mixed_qubit()), ShapeMismatch, "same algebra"),
    ("external-sum-weight-above-1", lambda: external_sum_state(1.5, _point(), _point()), OutOfRange, "outside"),
    ("external-sum-weight-below-0", lambda: external_sum_state(-0.5, _point(), _point()), OutOfRange, "outside"),
    ("disintegrate-non-commutative", lambda: classical_disintegrate(_doubling(), _mixed_qubit()), ShapeMismatch, "between commutative algebras"),
    ("disintegrate-state-shape", lambda: classical_disintegrate(initial(LINE), classical_state([0.5, 0.5])), ShapeMismatch, "through morphism with codomain"),
    ("as-matrix-3d", lambda: as_matrix(np.zeros((2, 2, 2))), ShapeMismatch, "ndim 3"),
    ("as-matrix-text", lambda: as_matrix("a"), ShapeMismatch, "matrix entries must be numbers, got dtype <U1"),
    ("as-matrix-ragged", lambda: as_matrix([[0.5, 0], [0]]), ShapeMismatch, "matrix entries must form a regular array"),
    ("state-text-density", lambda: State(QUBIT, [1.0], (np.array([["0.5", "0"], ["0", "0.5"]]),)), ShapeMismatch, "density entries must be numbers, got dtype <U3"),
    ("state-boolean-density", lambda: State(QUBIT, [1.0], (np.array([[True, False], [False, False]]),)), ShapeMismatch, "density entries must be numbers, got dtype bool"),
    ("state-ragged-density", lambda: State(QUBIT, [1.0], ([[0.5, 0], [0]],)), ShapeMismatch, "density entries must form a regular array"),
    ("state-ragged-weights", lambda: State(AlgebraShape((1, 1)), [[0.5], [0.5, 0]], (EYE1, EYE1)), ShapeMismatch, "probability vector entries must form a regular array"),
    ("classical-state-float", lambda: classical_state(0.5), ShapeMismatch, "expected a vector of outcome probabilities, got array of ndim 0"),
    ("classical-state-numpy-scalar", lambda: classical_state(np.float64(0.5)), ShapeMismatch, "expected a vector of outcome probabilities, got array of ndim 0"),
    ("classical-state-0d-array", lambda: classical_state(np.array(0.5)), ShapeMismatch, "expected a vector of outcome probabilities, got array of ndim 0"),
    ("classical-state-ragged-weights", lambda: classical_state([[0.5], [0.5, 0]]), ShapeMismatch, "probability vector entries must form a regular array"),
    ("morphism-text-unitary", lambda: Morphism(QUBIT, QUBIT, np.array([[1]]), (np.array([["1", "0"], ["0", "1"]]),)), ShapeMismatch, "matrix entries must be numbers, got dtype <U1"),
    ("morphism-multiplicity-beyond-int64", lambda: Morphism(LINE, QUBIT, [[2**64]], (EYE2,)), ShapeMismatch, "multiplicities must be real numbers, got dtype object"),
    ("von-neumann-text", lambda: von_neumann([["1", "0"], ["0", "0"]]), ShapeMismatch, "matrix entries must be numbers, got dtype <U1"),
    ("pure-state-text-vector", lambda: block_pure_state(QUBIT, 0, ["1", "0"]), ShapeMismatch, "vector entries must be numbers, got dtype <U1"),
    ("combine-text-weight", lambda: convex_combine("0.5", _mixed_qubit(), _mixed_qubit()), ShapeMismatch, "mixing weight must be a real number, got str"),
    ("combine-complex-weight", lambda: convex_combine(0.5 + 0j, _mixed_qubit(), _mixed_qubit()), ShapeMismatch, "mixing weight must be a real number, got complex"),
    ("combine-boolean-weight", lambda: convex_combine(True, _mixed_qubit(), _mixed_qubit()), ShapeMismatch, "mixing weight must be a real number, got bool"),
    ("external-sum-none-weight", lambda: external_sum_state(None, _point(), _point()), ShapeMismatch, "mixing weight must be a real number, got NoneType"),
    ("holevo-text-weight", lambda: holevo_change(_doubling(), "0.5", _mixed_qubit(), _mixed_qubit()), ShapeMismatch, "mixing weight must be a real number, got str"),
]


@pytest.mark.parametrize("call, error, message", [c[1:] for c in CHECKS], ids=[c[0] for c in CHECKS])
def test_input_check_raises_its_typed_violation(call, error, message):
    with warnings.catch_warnings(record=True) as warned, pytest.raises(error, match=message) as caught:
        warnings.simplefilter("always")
        call()
    assert type(caught.value) is error
    assert not warned
