from dataclasses import replace

import numpy as np
import pytest

from ncentropy import (
    AlgebraShape,
    Morphism,
    NoDisintegration,
    QuantumDisintegrationData,
    Seed,
    State,
    classical_disintegrate,
    disintegration_entropy,
    entropy_change,
    quantum_disintegrate,
)
from ncentropy.disintegration import classical_function
from ncentropy.entropy import LOG2
from ncentropy.errors import InconsistentData, IndexOutOfRange, NotProbabilityVector
from ncentropy.harness import factor_inclusion, generate_instance, InstanceFamily
from ncentropy.linalg import max_abs, sample_density, sample_simplex, sample_unitary


INCLUSION = factor_inclusion(2, 2)


def _diag_state(p):
    return State(AlgebraShape((len(p),)), [1.0], (np.diag(p).astype(complex),))


def test_classical_identity_function():
    psi = classical_disintegrate([0, 1, 2], [0.2, 0.3, 0.5])
    assert np.allclose(psi.matrix, np.eye(3))


def test_classical_merge_example():
    # phi = (a, b, b) with p = (1/2, 1/4, 1/4): psi_a = delta, psi_b splits evenly
    psi = classical_disintegrate([0, 1, 1], [0.5, 0.25, 0.25])
    assert np.allclose(psi.matrix, [[1.0, 0.0, 0.0], [0.0, 0.5, 0.5]])


def test_classical_zero_mass_rows():
    psi = classical_disintegrate([0, 0], [0.5, 0.5], n_targets=3)
    assert np.allclose(psi.matrix[1], [0.5, 0.5])  # empty fiber: uniform everywhere
    psi2 = classical_disintegrate([0, 1], [1.0, 0.0])
    assert np.allclose(psi2.matrix[1], [0.0, 1.0])  # massless fiber: uniform on it


def test_classical_diagrams_hold():
    # oracle: verify q = pushforward(p), p = sum_y q_y psi_y,
    # and pushforward(psi_y) = delta_y wherever q_y > 0
    rng = np.random.default_rng(0)
    for k in range(200):
        n_x = int(rng.integers(1, 7))
        n_y = int(rng.integers(1, 5))
        phi = [int(v) for v in rng.integers(0, n_y, size=n_x)]
        p = sample_simplex(n_x, Seed(101, k).rng())
        psi = classical_disintegrate(phi, p, n_targets=n_y)
        q = np.zeros(n_y)
        for x, y in enumerate(phi):
            q[y] += p[x]
        assert max_abs(q @ psi.matrix - p) < 1e-12
        for y in range(n_y):
            if q[y] > 0:
                push = np.zeros(n_y)
                for x in range(n_x):
                    push[phi[x]] += psi.matrix[y, x]
                delta = np.zeros(n_y)
                delta[y] = 1.0
                assert max_abs(push - delta) < 1e-12


def test_classical_input_validation():
    with pytest.raises(NotProbabilityVector):
        classical_disintegrate([0, 0], [0.5, 0.6])
    for phi in ([0, 2], [0, 1.7], [0, True]):
        with pytest.raises(IndexOutOfRange):
            classical_disintegrate(phi, [0.5, 0.5], n_targets=2)
    for n_targets in (2.7, True, "3"):
        with pytest.raises(IndexOutOfRange):
            classical_disintegrate([0, 0], [0.5, 0.5], n_targets=n_targets)


def test_quantum_existence_balanced_diagonal():
    omega = _diag_state([0.4, 0.1, 0.4, 0.1])
    result = quantum_disintegrate(INCLUSION, omega)
    assert isinstance(result, QuantumDisintegrationData)
    assert max_abs(result.tau[(0, 0)] - np.eye(2) / 2) < 1e-9
    assert max_abs(result.pullback_densities[0] - np.diag([0.8, 0.2])) < 1e-12
    production = disintegration_entropy(INCLUSION, omega, result)
    assert abs(production - LOG2) < 1e-9
    assert abs(production - entropy_change(INCLUSION, omega)) < 1e-8


def test_quantum_nonexistence_quartic():
    omega = _diag_state([0.5, 0.25, 0.125, 0.125])
    result = quantum_disintegrate(INCLUSION, omega)
    assert isinstance(result, NoDisintegration)
    # entropy change stays nonnegative even though no disintegration exists;
    # frozen from the closed-form sum -sum p_i log(p_i / marginal_i)
    change = entropy_change(INCLUSION, omega)
    assert abs(change - 0.5514443278219221) < 1e-9
    assert change >= 0.0


def test_quartic_criterion_is_the_product_condition():
    rng = np.random.default_rng(1)
    for _ in range(50):
        x, y = rng.uniform(0.05, 0.95, size=2)
        balanced = np.kron(np.diag([x, 1 - x]), np.diag([y, 1 - y])).diagonal().real
        assert isinstance(quantum_disintegrate(INCLUSION, _diag_state(balanced)), QuantumDisintegrationData)
        p = rng.dirichlet(np.ones(4))
        if abs(p[0] * p[3] - p[1] * p[2]) > 1e-3:
            assert isinstance(quantum_disintegrate(INCLUSION, _diag_state(p)), NoDisintegration)


def test_quantum_isomorphism_always_disintegrates():
    u = sample_unitary(3, Seed(102).rng())
    iso = Morphism(AlgebraShape((3,)), AlgebraShape((3,)), np.array([[1]]), (u,))
    omega = State(AlgebraShape((3,)), [1.0], (sample_density(3, Seed(103).rng()),))
    result = quantum_disintegrate(iso, omega)
    assert isinstance(result, QuantumDisintegrationData)
    assert abs(result.tau[(0, 0)][0, 0] - 1.0) < 1e-10
    assert abs(disintegration_entropy(iso, omega, result)) < 1e-9


def test_classical_agrees_with_quantum():
    for k in range(30):
        f, omega = generate_instance(InstanceFamily(max_block_dim=1), Seed(104, k))
        result = quantum_disintegrate(f, omega)
        assert isinstance(result, QuantumDisintegrationData)
        psi = classical_disintegrate(classical_function(f), omega.weights, n_targets=len(f.domain))
        for (y, x), t in result.tau.items():
            if result.pullback_weights[y] > 1e-12:
                assert abs(t[0, 0].real - psi.matrix[y, x]) < 1e-10
        production = disintegration_entropy(f, omega, result)
        assert abs(production - entropy_change(f, omega)) < 1e-8
        assert production >= -1e-9


def test_inconsistent_witness_rejected():
    omega = _diag_state([0.4, 0.1, 0.4, 0.1])
    result = quantum_disintegrate(INCLUSION, omega)
    doctored = QuantumDisintegrationData(
        {(0, 0): np.diag([0.9, 0.1]).astype(complex)},
        result.pullback_weights,
        result.pullback_densities,
    )
    with pytest.raises(InconsistentData):
        disintegration_entropy(INCLUSION, omega, doctored)


def test_witness_with_a_wrong_size_tau_block_is_inconsistent():
    omega = State(AlgebraShape((4,)), np.ones(1), (np.eye(4) / 4,))
    data = quantum_disintegrate(INCLUSION, omega)
    assert abs(disintegration_entropy(INCLUSION, omega, data) - LOG2) < 1e-9
    with pytest.raises(InconsistentData, match=r"tau block \(0, 0\) has shape \(3, 3\), expected \(2, 2\)"):
        disintegration_entropy(INCLUSION, omega, replace(data, tau={(0, 0): np.eye(3) / 3}))


def test_witness_with_a_tau_key_naming_no_segment_is_inconsistent():
    omega = State(AlgebraShape((4,)), np.ones(1), (np.eye(4) / 4,))
    data = quantum_disintegrate(INCLUSION, omega)
    with pytest.raises(InconsistentData, match=r"tau key \(3, 5\) names no"):
        disintegration_entropy(INCLUSION, omega, replace(data, tau={**data.tau, (3, 5): np.eye(7) / 7}))


def test_witness_with_a_tau_key_of_multiplicity_zero_is_inconsistent():
    # M_1 + M_1 into M_1 + M_1 by the identity: c[0, 1] = 0
    f = Morphism(AlgebraShape((1, 1)), AlgebraShape((1, 1)), np.eye(2, dtype=int), (np.eye(1), np.eye(1)))
    omega = State(f.codomain, [0.5, 0.5], (np.eye(1), np.eye(1)))
    data = quantum_disintegrate(f, omega)
    assert disintegration_entropy(f, omega, data) == 0.0
    with pytest.raises(InconsistentData, match=r"tau key \(1, 0\) names no"):
        disintegration_entropy(f, omega, replace(data, tau={**data.tau, (1, 0): np.eye(1)}))


def test_quantum_disintegrate_with_a_weight_zero_codomain_block():
    # M_2 into M_4 (two copies) and M_2 (one copy); the second block has weight zero
    f = Morphism(
        AlgebraShape((2,)),
        AlgebraShape((4, 2)),
        np.array([[2], [1]]),
        (sample_unitary(4, Seed(23).rng()), np.eye(2)),
    )
    u = f.unitaries[0]
    inner = np.diag([0.4, 0.1, 0.4, 0.1]).astype(complex)
    omega = State(f.codomain, [1.0, 0.0], (u @ inner @ u.conj().T, np.eye(2) / 2))
    result = quantum_disintegrate(f, omega)
    assert isinstance(result, QuantumDisintegrationData)
    assert max_abs(result.tau[(0, 0)] - np.eye(2) / 2) < 1e-9
    assert max_abs(result.tau[(0, 1)]) == 0.0
    assert max_abs(result.pullback_densities[0] - np.diag([0.8, 0.2])) < 1e-9
    production = disintegration_entropy(f, omega, result)
    assert abs(production - LOG2) < 1e-9
    assert abs(production - entropy_change(f, omega)) < 1e-9
