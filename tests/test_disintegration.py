import json
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
    classical_state,
    disintegration_entropy,
    entropy_change,
    quantum_disintegrate,
)
from ncentropy import cli
from ncentropy.disintegration import FACTOR_TOL, _factor_tolerances, _factored_block, _verify_witness
from ncentropy.entropy import LOG2
from ncentropy.errors import InconsistentData, NotUnitary
from ncentropy.harness import _disintegrable_state, _sample_disintegrable, factor_inclusion, generate_instance, InstanceFamily
from ncentropy.linalg import (
    DEFAULT_TOL,
    check_probability_vector,
    hermitian_part,
    max_abs,
    project_to_density,
    sample_density,
    sample_simplex,
    sample_unitary,
)
from ncentropy.morphism import morphism_to_json, pullback
from ncentropy.state import state_to_json

from predicates import function_morphism, light_block, random_morphism


INCLUSION = factor_inclusion(2, 2)


def _diag_state(p):
    return State(AlgebraShape((len(p),)), [1.0], (np.diag(p).astype(complex),))


def _classical(phi, n_targets, p):
    """``classical_disintegrate`` of the map ``phi`` into ``0..n_targets - 1`` with probabilities ``p``."""
    return classical_disintegrate(function_morphism(phi, n_targets), classical_state(p))


def test_classical_identity_function():
    psi = _classical([0, 1, 2], 3, [0.2, 0.3, 0.5])
    assert np.allclose(psi, np.eye(3))


def test_classical_merge_example():
    # phi = (a, b, b) with p = (1/2, 1/4, 1/4): psi_a = delta, psi_b splits evenly
    psi = _classical([0, 1, 1], 2, [0.5, 0.25, 0.25])
    assert np.allclose(psi, [[1.0, 0.0, 0.0], [0.0, 0.5, 0.5]])


def test_classical_zero_mass_rows():
    psi = _classical([0, 0], 3, [0.5, 0.5])
    assert np.allclose(psi[1], [0.5, 0.5])  # empty fiber: uniform everywhere
    psi2 = _classical([0, 1], 2, [1.0, 0.0])
    assert np.allclose(psi2[1], [0.0, 1.0])  # massless fiber: uniform on it
    psi3 = _classical([0, 0, 1], 3, [0.0, 0.0, 1.0])  # massless two-point fiber, empty fiber
    assert np.allclose(psi3, [[0.5, 0.5, 0.0], [0.0, 0.0, 1.0], [1 / 3, 1 / 3, 1 / 3]])


def test_classical_diagrams_hold():
    # oracle: verify q = pushforward(p), p = sum_y q_y psi_y,
    # and pushforward(psi_y) = delta_y wherever q_y > 0; every row is a
    # probability vector that the library's check leaves as it is
    rng = np.random.default_rng(0)
    for k in range(200):
        n_x = int(rng.integers(1, 7))
        n_y = int(rng.integers(1, 5))
        phi = [int(v) for v in rng.integers(0, n_y, size=n_x)]
        p = sample_simplex(n_x, Seed(101, k).rng())
        psi = _classical(phi, n_y, p)
        q = np.zeros(n_y)
        for x, y in enumerate(phi):
            q[y] += p[x]
        assert max_abs(q @ psi - p) < 1e-12
        assert all(np.array_equal(check_probability_vector(row), row) for row in psi)
        for y in range(n_y):
            if q[y] > 0:
                push = np.zeros(n_y)
                for x in range(n_x):
                    push[phi[x]] += psi[y, x]
                delta = np.zeros(n_y)
                delta[y] = 1.0
                assert max_abs(push - delta) < 1e-12


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
        psi = classical_disintegrate(f, omega)
        for (y, x), t in result.tau.items():
            if result.pullback_weights[y] > 1e-12:
                assert abs(t[0, 0].real - psi[y, x]) < 1e-10
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


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("pullback_weights", np.zeros(0), r"pullback_weights has shape \(0,\), expected \(1,\)"),
        ("pullback_weights", np.array([1.0, 0.0]), r"pullback_weights has shape \(2,\), expected \(1,\)"),
        ("pullback_densities", (np.eye(3) / 3,), r"pullback density 0 has shape \(3, 3\), expected \(2, 2\)"),
        ("pullback_densities", (), "witness holds 0 pullback densities for 1 domain blocks"),
        ("tau", {(0, 0): [[0.5, 0.0], [0.0, 0.5]]}, r"tau block \(0, 0\) is a list, expected an array of shape \(2, 2\)"),
        ("pullback_weights", np.array([1.0 + 0j]), "pullback_weights has dtype complex128, expected real numbers"),
        ("pullback_weights", np.array(["1.0"]), "pullback_weights has dtype <U3, expected real numbers"),
        ("pullback_weights", np.array([True]), "pullback_weights has dtype bool, expected real numbers"),
        ("pullback_densities", (np.array([["0.5", "0"], ["0", "0.5"]]),), "pullback density 0 has dtype <U3, expected numbers"),
        ("tau", {(0, 0): np.array([[0.5, 0.0], [0.0, 0.5]], dtype=object)}, r"tau block \(0, 0\) has dtype object, expected numbers"),
    ],
    ids=["no-weight", "two-weights", "sigma-3x3", "no-sigma", "tau-nested-list", "complex-weight", "text-weight", "boolean-weight", "text-sigma", "object-tau"],
)
def test_witness_with_a_malformed_field_is_inconsistent(field, value, message):
    omega = State(INCLUSION.codomain, np.ones(1), (np.eye(4) / 4,))
    data = quantum_disintegrate(INCLUSION, omega)
    assert abs(disintegration_entropy(INCLUSION, omega, data) - LOG2) < 1e-9
    with pytest.raises(InconsistentData, match=message):
        disintegration_entropy(INCLUSION, omega, replace(data, **{field: value}))


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


def test_witness_without_tau_for_a_domain_block_of_positive_weight_is_inconsistent():
    # M_1 + M_1 into M_1 by the first summand: domain block 1 has pullback weight zero and no tau block
    f = Morphism(AlgebraShape((1, 1)), AlgebraShape((1,)), np.array([[1, 0]]), (np.eye(1),))
    omega = State(f.codomain, [1.0], (np.eye(1),))
    data = quantum_disintegrate(f, omega)
    assert set(data.tau) == {(0, 0)}
    moved = replace(data, pullback_weights=data.pullback_weights + np.array([-1e-9, 1e-9]))
    _verify_witness(f, omega, moved)  # the residual 1e-9 is within FACTOR_TOL
    with pytest.raises(InconsistentData, match=r"no tau block for domain block 1 of pullback weight 1\.000e-09"):
        disintegration_entropy(f, omega, moved)


def test_quantum_disintegrate_rejects_off_diagonal_coupling():
    f = Morphism(AlgebraShape((1, 1)), AlgebraShape((2,)), np.array([[1, 1]]), (np.eye(2),))
    omega = State(f.codomain, [1.0], (np.array([[0.6, 0.2 + 0.1j], [0.2 - 0.1j, 0.4]]),))
    result = quantum_disintegrate(f, omega)
    assert result.violation == "codomain block 0 does not factor through the pullback"
    assert result.residual == abs(0.2 + 0.1j)  # 0.2236


def test_quantum_disintegrate_rejects_a_charge_on_a_domain_block_of_weight_zero():
    f = Morphism(AlgebraShape((1, 1)), AlgebraShape((1, 1)), np.eye(2, dtype=int), (np.eye(1), np.eye(1)))
    omega = State(f.codomain, [1 - 1e-11, 1e-11], (np.eye(1), np.eye(1)))
    result = quantum_disintegrate(f, omega)
    assert result.violation == "codomain block 1 does not factor through the pullback"
    assert result.residual == 1e-11


def test_quantum_disintegrate_names_the_codomain_block_that_does_not_factor():
    # M_1 + M_1 into M_1 + M_2 by [[1, 0], [1, 1]]: block 0 factors, block 1
    # couples its two segments by 0.5 * 0.2
    f = Morphism(AlgebraShape((1, 1)), AlgebraShape((1, 2)), np.array([[1, 0], [1, 1]]), (np.eye(1), np.eye(2)))
    omega = State(f.codomain, [0.5, 0.5], (np.eye(1), np.array([[0.6, 0.2], [0.2, 0.4]])))
    result = quantum_disintegrate(f, omega)
    assert result.violation == "codomain block 1 does not factor through the pullback"
    assert result.residual == 0.5 * 0.2
    uncoupled = State(f.codomain, [0.5, 0.5], (np.eye(1), np.diag([0.6, 0.4])))
    assert isinstance(quantum_disintegrate(f, uncoupled), QuantumDisintegrationData)


def test_quantum_disintegrate_rejects_a_candidate_factor_that_is_not_psd():
    # M_1 + M_1 into M_3 by (2, 1) copies; the density's eigenvalue -0.9e-10,
    # within the State tolerance, lies in a segment of trace 2.1e-10
    f = Morphism(AlgebraShape((1, 1)), AlgebraShape((3,)), np.array([[2, 1]]), (np.eye(3),))
    omega = State(f.codomain, [1.0], (np.diag([3e-10, -0.9e-10, 1 - 2.1e-10]).astype(complex),))
    result = quantum_disintegrate(f, omega)
    assert result.violation == "candidate factor for domain block 0 in codomain block 0 is not PSD"
    assert abs(result.residual - 0.9 / 2.1) < 1e-6


def test_a_state_that_factors_at_a_tiny_pullback_weight_disintegrates():
    # the candidate tau is a partial trace divided by q, so its rounding grows as 1/q:
    # against the fixed FACTOR_TOL, 7 of the 100 draws at q = 1e-9 were refused as not PSD
    for q in (1e-6, 1e-7, 1e-8, 1e-9):
        for d in range(100):
            f, rho = light_block(q, np.random.default_rng(1000 + d))
            omega = State(f.codomain, [1.0], (project_to_density(rho),))
            data = quantum_disintegrate(f, omega)
            assert isinstance(data, QuantumDisintegrationData), (q, d, data)
            assert abs(disintegration_entropy(f, omega, data) - entropy_change(f, omega)) < 1e-8


def test_a_candidate_factor_clearly_below_its_allowance_is_refused():
    # tau's least eigenvalue is -1e-6 tr tau at q = 1e-6; the state's is about -1e-12,
    # a density within DEFAULT_TOL, and the candidate's allowance r / q is below 1e-7
    for d in range(20):
        rng = np.random.default_rng(2000 + d)
        v = sample_unitary(2, rng)
        f, rho = light_block(1e-6, rng, v @ np.diag([1.0 + 1e-6, -1e-6]) @ v.conj().T)
        omega = State(f.codomain, [1.0], (rho,))
        assert _factor_tolerances(f, omega, pullback(f, omega).weights)[0] < 1e-7
        result = quantum_disintegrate(f, omega)
        assert result.violation == "candidate factor for domain block 0 in codomain block 0 is not PSD"
        assert abs(result.residual - 1e-6) < 1e-8


def test_the_candidate_allowance_is_its_formula():
    # M_2 + M_1 into M_5 + M_3 by copies (2, 1) and (1, 1): r_y = 20 (d_y + C_y^2) u kappa_y, kappa_y = sum_x c n p_x ||rho_x||_F
    rng = np.random.default_rng(4)
    f = Morphism(AlgebraShape((2, 1)), AlgebraShape((5, 3)), np.array([[2, 1], [1, 1]]), (sample_unitary(5, rng), sample_unitary(3, rng)))
    omega = State(f.codomain, [0.7, 0.3], (sample_density(5, rng), sample_density(3, rng)))
    norms = [p * np.linalg.norm(rho) for p, rho in zip(omega.weights, omega.densities)]
    r = [20.0 * (8 + 3**2) * 2.0**-53 * (4 * norms[0] + 2 * norms[1]), 20.0 * (8 + 2**2) * 2.0**-53 * (norms[0] + norms[1])]
    for q in ([1e-9, 1.0 - 1e-9], [0.5, 1e-12], [1e-11, 0.0]):
        expected = [max(FACTOR_TOL, r_y / q_y) if q_y > DEFAULT_TOL else FACTOR_TOL for r_y, q_y in zip(r, q)]
        assert _factor_tolerances(f, omega, np.array(q)) == pytest.approx(expected, rel=1e-12)
    assert _factor_tolerances(f, omega, np.array([1e-9, 0.5]))[0] > 1e3 * FACTOR_TOL


def test_witness_whose_tau_traces_miss_one_is_inconsistent():
    # M_1 + M_1 into M_2: the witness reproduces omega exactly, but at q = 0.5
    # the tau of domain block 0 has trace 1 + 1e-6 (and that of block 1, 1 - 1e-6)
    f = Morphism(AlgebraShape((1, 1)), AlgebraShape((2,)), np.array([[1, 1]]), (np.eye(2),))
    omega = State(f.codomain, [1.0], (np.diag([0.5 + 0.5e-6, 0.5 - 0.5e-6]).astype(complex),))
    one = np.ones((1, 1), dtype=complex)
    data = QuantumDisintegrationData({(0, 0): (1 + 1e-6) * one, (1, 0): (1 - 1e-6) * one}, np.array([0.5, 0.5]), (one, one))
    _verify_witness(f, omega, data)
    with pytest.raises(InconsistentData, match=r"tau of domain block 0 has trace 1\.000001, not 1 within 1\.000e-08"):
        disintegration_entropy(f, omega, data)


@pytest.mark.parametrize(
    "tau, in_state, message",
    [
        ([[1.0 + 1e-6, 0.0], [0.0, -1e-6]], [[1.0, 0.0], [0.0, 0.0]], r"has eigenvalue -1\.000e-06 < -1\.000e-08"),
        ([[0.5, 1e-6], [0.0, 0.5]], [[0.5, 0.5e-6], [0.5e-6, 0.5]], r"deviates from Hermitian by 1\.000e-06"),
    ],
    ids=["negative-eigenvalue", "not-hermitian"],
)
def test_witness_whose_tau_is_no_density_is_inconsistent(tau, in_state, message):
    # M_64 + M_1 into M_129 by (2, 1) copies at q = (0.5, 0.5): omega holds tau_in_state (x) sigma_0 / 2
    # for sigma_0 = 1/64, which spreads the witness's 1e-6 to residual entries of at most 7.8e-9, within FACTOR_TOL
    f = Morphism(AlgebraShape((64, 1)), AlgebraShape((129,)), np.array([[2, 1]]), (np.eye(129),))
    sigma, one = np.eye(64, dtype=complex) / 64, np.ones((1, 1), dtype=complex)
    omega = State(f.codomain, [1.0], (_factored_block(f, 0, {(0, 0): np.array(in_state), (1, 0): one}, [0.5, 0.5], (sigma, one)),))
    data = QuantumDisintegrationData({(0, 0): np.array(tau, dtype=complex), (1, 0): one}, np.array([0.5, 0.5]), (sigma, one))
    _verify_witness(f, omega, data)
    with pytest.raises(InconsistentData, match="tau of domain block 0 " + message):
        disintegration_entropy(f, omega, data)


def test_quantum_disintegrate_through_m1_at_the_unitarity_tolerance(tmp_path, capsys):
    # U = I + a J on M_256 deviates by m (2a + m a^2) = 0.9 DEFAULT_TOL in Frobenius
    # norm.  Along the all-ones vector it moves the trace by as much, far below
    # FACTOR_TOL, and the pure state's entropy production is -0.9 DEFAULT_TOL.
    m, t = 256, 0.9 * DEFAULT_TOL
    with pytest.raises(NotUnitary):  # I + 4.5e-11 J: within DEFAULT_TOL entrywise, 2.3e-8 in Frobenius norm
        Morphism(AlgebraShape((1,)), AlgebraShape((m,)), np.array([[m]]), (np.eye(m) + 4.5e-11 * np.ones((m, m)),))
    a = (np.sqrt(1.0 + t) - 1.0) / m
    f = Morphism(AlgebraShape((1,)), AlgebraShape((m,)), np.array([[m]]), (np.eye(m) + a * np.ones((m, m)),))
    assert abs(f.unitarity_deviations[0] - t) < 1e-15
    v = np.ones(m) / np.sqrt(m)
    omega = State(f.codomain, [1.0], (np.outer(v, v).astype(complex),))
    data = quantum_disintegrate(f, omega)
    assert isinstance(data, QuantumDisintegrationData)
    assert abs(np.trace(data.tau[(0, 0)]).real - (1.0 + t)) < 1e-13
    assert abs(disintegration_entropy(f, omega, data) + t) < 1e-12
    (tmp_path / "f.json").write_text(json.dumps(morphism_to_json(f)))
    (tmp_path / "w.json").write_text(json.dumps(state_to_json(omega)))
    assert cli.main(["disintegrate", str(tmp_path / "f.json"), str(tmp_path / "w.json")]) == 0
    assert json.loads(capsys.readouterr().out)["exists"]


def test_witness_check_falls_back_to_a_zero_segment_for_a_domain_block_of_weight_zero(monkeypatch):
    # M_3 + M_1 into M_7 by (2, 1) copies; omega leaves domain block 1 at
    # weight zero, so the witness holds no tau for it.  A traceless change
    # of tau puts 0.6 FACTOR_TOL on entries of the residual and more than
    # FACTOR_TOL in Frobenius norm, so the dense check, with the segment of
    # block 1 zero, decides.
    from ncentropy import disintegration

    rng = np.random.default_rng(3)
    u = sample_unitary(7, rng)
    f = Morphism(AlgebraShape((3, 1)), AlgebraShape((7,)), np.array([[2, 1]]), (u,))
    inner = np.zeros((7, 7), dtype=np.complex128)
    inner[:6, :6] = np.kron(sample_density(2, rng), sample_density(3, rng))
    omega = State(f.codomain, [1.0], (u @ inner @ u.conj().T,))
    data = quantum_disintegrate(f, omega)
    assert set(data.tau) == {(0, 0)} and data.pullback_weights[1] <= DEFAULT_TOL
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    change = np.kron(swap, data.pullback_weights[0] * data.pullback_densities[0])
    moved = replace(data, tau={(0, 0): data.tau[(0, 0)] + 0.6 * FACTOR_TOL / max_abs(change) * swap})
    assert _entrywise_excess(f, omega, moved) <= 1.0 < _frobenius_excess(f, omega, moved)
    factored = []
    monkeypatch.setattr(disintegration, "_factored_block", lambda *a: factored.append(a[1]) or _factored_block(*a))
    assert abs(disintegration_entropy(f, omega, moved) - entropy_change(f, omega)) < 1e-8
    assert factored == [0]


def test_own_witnesses_are_accepted_on_the_one_product_bound(monkeypatch):
    # the dense fallback of the witness check gives the same verdict as its bound,
    # so only this test notices a bound that no longer holds for exact witnesses
    from ncentropy import disintegration

    def dense_fallback(*args):
        raise AssertionError("the witness check formed a dense block")

    cases = [_sample_disintegrable(Seed(43, k).rng())[:2] for k in range(40)]
    cases += [(f, _disintegrable_state(f, Seed(44, n).rng())[0]) for n, f in ((16, factor_inclusion(16, 4)), (64, factor_inclusion(64, 4)))]
    for f, omega in cases:
        data = quantum_disintegrate(f, omega)
        assert isinstance(data, QuantumDisintegrationData)
        with monkeypatch.context() as patch:
            patch.setattr(disintegration, "_factored_block", dense_fallback)
            disintegration_entropy(f, omega, data)


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


def _dense_residuals(f, omega, data):
    """Per codomain block, ``U^dag (p rho) U - R`` with R dense from ``_factored_block``."""
    for x, (p, rho, u) in enumerate(zip(omega.weights, omega.densities, f.unitaries)):
        rebuilt = _factored_block(f, x, data.tau, data.pullback_weights, data.pullback_densities)
        yield u.conj().T @ (p * rho) @ u - rebuilt


def _entrywise_excess(f, omega, data):
    """The largest entry of the residual over the check's threshold ``FACTOR_TOL`` (> 1: the witness must be rejected)."""
    return max(max_abs(diff) for diff in _dense_residuals(f, omega, data)) / FACTOR_TOL


def _frobenius_excess(f, omega, data):
    """The largest Frobenius norm of a residual over the same threshold."""
    return max(np.linalg.norm(diff) for diff in _dense_residuals(f, omega, data)) / FACTOR_TOL


def _perturbed(data, kind, eps, rng):
    """``data`` with its tau blocks, pullback weights or pullback densities moved by ``eps`` times a Gaussian draw, Hermitian for a matrix."""
    def nudge(m):
        if np.ndim(m) == 1:
            return m + eps * rng.standard_normal(len(m))
        return m + eps * hermitian_part(rng.standard_normal(m.shape) + 1j * rng.standard_normal(m.shape))

    if kind == "tau":
        return replace(data, tau={key: nudge(t) for key, t in data.tau.items()})
    if kind == "q":
        return replace(data, pullback_weights=nudge(data.pullback_weights))
    return replace(data, pullback_densities=tuple(nudge(s) for s in data.pullback_densities))


def _witness_morphisms(rng):
    """Factor inclusions into M_64 and M_256, and multi-segment morphisms with blocks of dimension 16-112."""
    return [
        factor_inclusion(16, 4),
        factor_inclusion(64, 4),
        random_morphism((16, 32), (64, 112), [[2, 1], [1, 3]], rng),
        random_morphism((16, 24, 32), (112, 88, 16), [[2, 2, 1], [0, 1, 2], [1, 0, 0]], rng),
    ]


def _check_decides_as_the_entrywise_residual(instances):
    """Perturb each witness's tau, q or sigma by 1e-9 ... 1e-3; the check must reject exactly those
    whose entrywise residual, formed densely, exceeds the threshold.  Returns how many perturbed
    witnesses were rejected, and how many were accepted with a Frobenius residual over it."""
    rejected = accepted_over_frobenius = 0
    for f, omega, rng in instances:
        data = quantum_disintegrate(f, omega)
        assert isinstance(data, QuantumDisintegrationData)
        for kind in ("tau", "q", "sigma"):
            for eps in (1e-9, 3e-9, 1e-7, 1e-5, 1e-3):
                bad = _perturbed(data, kind, eps, rng)
                if _entrywise_excess(f, omega, bad) > 1.0:
                    rejected += 1
                    with pytest.raises(InconsistentData, match="does not reproduce"):
                        disintegration_entropy(f, omega, bad)
                else:
                    accepted_over_frobenius += _frobenius_excess(f, omega, bad) > 1.0
                    _verify_witness(f, omega, bad)  # the entropy may still refuse tau of trace != 1
    return rejected, accepted_over_frobenius


def test_witness_check_decides_as_the_entrywise_residual():
    # Valid witnesses pass with a residual of at most 1e-12.  A perturbed
    # witness is rejected exactly when an entry of its residual exceeds the
    # threshold, also when its Frobenius norm does and no entry does.
    rng = Seed(105).rng()
    instances = [(f, _disintegrable_state(f, rng)[0], rng) for f in _witness_morphisms(rng)]
    for k in range(200):
        f, omega, _ = _sample_disintegrable(Seed(106, k).rng())
        instances.append((f, omega, Seed(107, k).rng()))
    for f, omega, _ in instances:
        data = quantum_disintegrate(f, omega)
        assert max(np.linalg.norm(diff) for diff in _dense_residuals(f, omega, data)) <= 1e-12
        assert abs(disintegration_entropy(f, omega, data) - entropy_change(f, omega)) < 1e-8
    rejected, accepted_over_frobenius = _check_decides_as_the_entrywise_residual(instances)
    assert rejected > len(instances) * 3 * 2  # every 1e-5 and 1e-3 nudge, at least
    assert accepted_over_frobenius > 0


def test_witness_check_with_unitaries_at_the_morphism_tolerance():
    # U = Q (I + 0.4 DEFAULT_TOL H / ||H||_F) keeps ||U^dag U - I||_F near 0.8
    # DEFAULT_TOL, so ||(p rho) U - U R||_F is no longer ||U^dag (p rho) U - R||_F;
    # the decision still follows the entrywise residual.
    rng = Seed(108).rng()
    instances = []
    for f in _witness_morphisms(rng)[1:]:
        def skew(u):
            h = hermitian_part(rng.uniform(-1.0, 1.0, u.shape) + 1j * rng.uniform(-1.0, 1.0, u.shape))
            return u @ (np.eye(len(u)) + 0.4 * DEFAULT_TOL * h / np.linalg.norm(h))

        g = Morphism(f.domain, f.codomain, f.multiplicities, tuple(skew(u) for u in f.unitaries))
        assert min(g.unitarity_deviations) > 0.7 * DEFAULT_TOL
        instances.append((g, _disintegrable_state(g, rng)[0], rng))
    rejected, _ = _check_decides_as_the_entrywise_residual(instances)
    assert rejected > 0


def test_witness_check_counts_the_unitarity_slack():
    # U = sqrt(I + delta J) with J all ones: ||U^dag U - I||_F = m delta is within
    # DEFAULT_TOL.  With E = delta J R + a e_0 e_0^dag and p rho =
    # U^-1 (R + E) U^-1, G = (p rho) U - U R = a U^-1 e_0 has ||G||_F < a,
    # while E_00 = a + delta (J R)_00 exceeds the threshold for a just under it.
    c, n = 4, 64
    m = c * n
    delta = 0.99 * DEFAULT_TOL / m
    ones = np.ones((m, m))
    u = np.eye(m) + (np.sqrt(1.0 + m * delta) - 1.0) / m * ones
    f = Morphism(AlgebraShape((n,)), AlgebraShape((m,)), np.array([[c]]), (u,))
    tau, sigma = np.eye(c) / c, (np.eye(n) + np.ones((n, n))) / (2 * n)
    r = np.kron(tau, sigma)
    a = FACTOR_TOL * (1.0 - 1e-6)
    corner = np.zeros((m, m))
    corner[0, 0] = a
    inv = np.linalg.inv(u)
    s = (1.0 - a * (inv @ inv)[0, 0]) / np.trace(r)  # scales R so that p rho has trace 1
    rho = inv @ (s * r + delta * ones @ (s * r) + corner) @ inv
    omega = State(AlgebraShape((m,)), np.ones(1), (hermitian_part(rho).astype(complex),))
    data = QuantumDisintegrationData({(0, 0): s * tau}, np.ones(1), (sigma.astype(complex),))
    g = rho @ u - u @ np.kron(s * tau, sigma)
    assert np.linalg.norm(g) < FACTOR_TOL < a + delta * s * r[:, 0].sum()
    assert _entrywise_excess(f, omega, data) > 1.0
    with pytest.raises(InconsistentData, match="does not reproduce"):
        disintegration_entropy(f, omega, data)


def test_witness_check_is_tight_on_a_scalar_block():
    # A 1x1 unitary u with u^2 = 1 + t' and a witness leaving p - r = FACTOR_TOL: then
    # E = u^2 p - r exceeds the threshold by t' p, about 1e-18, and the fast path's
    # sqrt(1 + t) |G| + t r, with G = u (p - r), exceeds it by about as much.
    u, r = np.sqrt(1.0 + 0.99 * DEFAULT_TOL), 1e-12
    f = Morphism(AlgebraShape((1,)), AlgebraShape((1, 1)), np.array([[1], [1]]), (np.eye(1), np.full((1, 1), u)))
    p = r + FACTOR_TOL
    omega = State(AlgebraShape((1, 1)), np.array([1.0 - p, p]), (np.eye(1), np.eye(1)))
    data = QuantumDisintegrationData({(0, 0): np.full((1, 1), 1.0 - p), (0, 1): np.full((1, 1), r)}, np.ones(1), (np.eye(1),))
    assert _entrywise_excess(f, omega, data) > 1.0
    with pytest.raises(InconsistentData, match="does not reproduce codomain block 1"):
        disintegration_entropy(f, omega, data)


def test_witness_entrywise_within_the_threshold_passes_above_it_in_frobenius_norm(tmp_path, capsys):
    # An added term with zero partial traces leaves tau and sigma unchanged;
    # its entries, 1.5e-9, are within the threshold and its Frobenius norm,
    # 16 * 1.5e-9, is not.
    h2 = np.array([[1.0, 1.0], [1.0, -1.0]])
    h4 = np.kron(h2, h2)
    rho = np.kron(np.eye(4) / 4, np.diag([0.7, 0.1, 0.1, 0.1])) + 1.5e-9 * np.kron(h4, h4)
    f = factor_inclusion(4, 4)
    omega = State(AlgebraShape((16,)), np.ones(1), (rho.astype(complex),))
    data = quantum_disintegrate(f, omega)
    assert isinstance(data, QuantumDisintegrationData)
    assert _entrywise_excess(f, omega, data) <= 1.0 < _frobenius_excess(f, omega, data)
    assert abs(disintegration_entropy(f, omega, data) - entropy_change(f, omega)) < 1e-8
    (tmp_path / "f.json").write_text(json.dumps(morphism_to_json(f)))
    (tmp_path / "w.json").write_text(json.dumps(state_to_json(omega)))
    assert cli.main(["disintegrate", str(tmp_path / "f.json"), str(tmp_path / "w.json")]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["exists"] and abs(payload["entropy_production"] - entropy_change(f, omega)) < 1e-8


def test_witness_with_non_finite_tau_is_inconsistent():
    omega = State(AlgebraShape((4,)), np.ones(1), (np.eye(4) / 4,))
    data = quantum_disintegrate(INCLUSION, omega)
    for bad in (np.full((2, 2), np.nan), np.diag([np.inf, 0.5])):
        with np.errstate(invalid="ignore"), pytest.raises(InconsistentData, match="residual nan"):
            disintegration_entropy(INCLUSION, omega, replace(data, tau={(0, 0): bad}))
