import numpy as np
import pytest

from ncentropy import (
    AlgebraShape,
    Morphism,
    Seed,
    State,
    block_pure_state,
    classical_state,
    entropy_change,
    holevo_change,
    initial,
    k_functor,
    measurement_morphism,
    pullback,
    segal,
    shannon,
    von_neumann,
)
from ncentropy import entropy
from ncentropy.entropy import LOG2
from ncentropy.errors import NotDensity, NotProbabilityVector, OutOfRange
from ncentropy.harness import factor_inclusion, generate_instance, InstanceFamily
from ncentropy.linalg import DEFAULT_TOL, sample_density, sample_simplex, sample_unitary
import ncentropy.linalg as linalg

from predicates import identity_morphism


def test_shannon_values():
    assert shannon([1.0, 0.0, 0.0]) == 0.0
    assert abs(shannon([0.5, 0.5]) - LOG2) < 1e-12
    # hand evaluation: 1/2 log 2 + 2 * (1/4 log 4) = 1.5 log 2
    assert abs(shannon([0.5, 0.25, 0.25]) - 1.5 * LOG2) < 1e-12
    assert shannon(sample_simplex(6, Seed(0).rng())) <= np.log(6.0)
    with pytest.raises(NotProbabilityVector):
        shannon([0.5, 0.4])


def test_von_neumann_values():
    v = np.array([1.0, 1.0j]) / np.sqrt(2)
    assert abs(von_neumann(np.outer(v, v.conj()))) < 1e-12
    assert abs(von_neumann(np.eye(2) / 2) - LOG2) < 1e-12
    with pytest.raises(NotDensity):
        von_neumann(np.diag([0.7, 0.7]))
    skew = np.eye(2, dtype=complex) / 2
    skew[0, 1] = 1e-3
    for bad in (np.ones((2, 3)) / 2, np.zeros((0, 0)), skew, np.diag([1.5, -0.5])):
        with pytest.raises(NotDensity):
            von_neumann(bad)
    # 1x1 densities take the entry path of hermitian_spectrum
    for bad, reason in (([[1.0 + 1e-3j]], "Hermitian"), ([[-0.5]], "eigenvalue"), ([[0.7]], "trace")):
        with pytest.raises(NotDensity, match=reason):
            von_neumann(np.array(bad))


def test_von_neumann_matches_eigenvalue_oracle():
    for k in range(20):
        rho = sample_density(4, Seed(5, k).rng())
        vals, _ = np.linalg.eigh(rho)
        assert abs(von_neumann(rho) - shannon(np.clip(vals, 0, None) / vals.sum())) < 1e-10


def test_von_neumann_unitary_invariance():
    rho = sample_density(3, Seed(6).rng())
    u = sample_unitary(3, Seed(7).rng())
    assert abs(von_neumann(u @ rho @ u.conj().T) - von_neumann(rho)) < 1e-9


def test_segal_values():
    pure = block_pure_state(AlgebraShape((1, 3)), 1, [0.0, 1.0, 0.0])
    assert abs(segal(pure)) < 1e-12
    # S(1/4,1/4,1/2) + 1/2 * log 2 = 1.5 log 2 + 0.5 log 2 = 2 log 2
    omega = State(
        AlgebraShape((1, 1, 2)),
        [0.25, 0.25, 0.5],
        (np.eye(1), np.eye(1), np.eye(2) / 2),
    )
    assert abs(segal(omega) - 2.0 * LOG2) < 1e-12
    p = sample_simplex(4, Seed(8).rng())
    assert abs(segal(classical_state(p)) - shannon(p)) < 1e-12


def _psd_log(m) -> np.ndarray:
    """Matrix logarithm on the support of a PSD matrix: eigenvalues up to ``DEFAULT_TOL`` contribute nothing."""
    vals, vecs = np.linalg.eigh(m)
    assert vals[0] >= -DEFAULT_TOL, "not positive semidefinite"
    keep = vals > DEFAULT_TOL
    log_vals = np.zeros_like(vals)
    log_vals[keep] = np.log(vals[keep])
    return (vecs * log_vals) @ vecs.conj().T


def test_tensor_log_identity():
    # (C (x) D) log(C (x) D) == C log C (x) D + C (x) D log D, both sides via _psd_log
    rng = np.random.default_rng(5)
    for _ in range(200):
        c = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        d = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        c = c @ c.conj().T
        d = d @ d.conj().T
        cd = np.kron(c, d)
        lhs = cd @ _psd_log(cd)
        rhs = np.kron(c @ _psd_log(c), d) + np.kron(c, d @ _psd_log(d))
        assert linalg.max_abs(lhs - rhs) < 1e-9


def test_segal_weighted_log_identity():
    # independent oracle: -sum_x tr(p_x rho_x log(p_x rho_x)) via _psd_log
    for k in range(10):
        shape = AlgebraShape((2, 3))
        weights = sample_simplex(2, Seed(9, k).rng())
        densities = (sample_density(2, Seed(10, k).rng()), sample_density(3, Seed(11, k).rng()))
        omega = State(shape, weights, densities)
        total = 0.0
        for p, rho in zip(weights, densities):
            if p > 0:
                w = p * rho
                total -= np.trace(w @ _psd_log(w)).real
        assert abs(segal(omega) - total) < 1e-9


def test_entropy_change_along_isomorphism():
    u = sample_unitary(3, Seed(12).rng())
    iso = Morphism(AlgebraShape((3,)), AlgebraShape((3,)), np.array([[1]]), (u,))
    for k in range(10):
        omega = State(AlgebraShape((3,)), [1.0], (sample_density(3, Seed(13, k).rng()),))
        assert abs(entropy_change(iso, omega)) < 1e-9


def test_change_and_pullback_has_the_bits_of_entropy_change_and_pullback():
    for k in range(20):
        family = InstanceFamily(max_block_dim=1) if k % 4 == 0 else InstanceFamily()
        f, omega = generate_instance(family, Seed(26, k))
        change, pulled = entropy._change_and_pullback(f, omega)
        reference = pullback(f, omega)
        assert np.float64(change).tobytes() == np.float64(segal(omega) - segal(reference)).tobytes()
        assert np.float64(entropy_change(f, omega)).tobytes() == np.float64(change).tobytes()
        assert pulled.shape == reference.shape == f.domain
        assert pulled.weights.tobytes() == reference.weights.tobytes()
        assert all(a.tobytes() == b.tobytes() for a, b in zip(pulled.densities, reference.densities))


def test_entropy_change_bell():
    bell = block_pure_state(AlgebraShape((4,)), 0, np.array([1.0, 0, 0, 1.0]) / np.sqrt(2))
    assert abs(entropy_change(factor_inclusion(2, 2), bell) + LOG2) < 1e-12


def test_entropy_change_classical_merge():
    # merging two outcomes of (1/2, 1/4, 1/4) drops the entropy by 1/2 log 2
    f = Morphism(
        AlgebraShape((1, 1)),
        AlgebraShape((1, 1, 1)),
        np.array([[1, 0], [0, 1], [0, 1]]),
        (np.eye(1),) * 3,
    )
    omega = classical_state([0.5, 0.25, 0.25])
    assert abs(entropy_change(f, omega) - 0.5 * LOG2) < 1e-12


def test_entropy_change_additive_under_composition():
    from ncentropy import compose
    from ncentropy.harness import _sample_morphism

    for k in range(10):
        g, _ = generate_instance(InstanceFamily(), Seed(14, k))
        f = _sample_morphism(InstanceFamily(), Seed(15, k).rng(), g.codomain)
        omega = State(
            f.codomain,
            sample_simplex(len(f.codomain), Seed(16, k).rng()),
            tuple(sample_density(m, Seed(17, k + 100 * x).rng()) for x, m in enumerate(f.codomain.blocks)),
        )
        lhs = entropy_change(compose(f, g), omega)
        rhs = entropy_change(f, omega) + entropy_change(g, pullback(f, omega))
        assert abs(lhs - rhs) < 1e-9


def test_coboundary_identity():
    for k in range(20):
        f, omega = generate_instance(InstanceFamily(), Seed(18, k))
        direct = entropy_change(f, omega)
        via_terminal = entropy_change(initial(f.codomain), omega) - entropy_change(
            initial(f.domain), pullback(f, omega)
        )
        assert abs(direct - via_terminal) < 1e-12


def test_holevo_change_identity_vanishes():
    shape = AlgebraShape((2,))
    f = identity_morphism(shape)
    omega = State(shape, [1.0], (sample_density(2, Seed(19).rng()),))
    xi = State(shape, [1.0], (sample_density(2, Seed(20).rng()),))
    assert abs(holevo_change(f, 0.4, omega, xi)) < 1e-12
    with pytest.raises(OutOfRange):
        holevo_change(f, -0.1, omega, xi)


def test_holevo_changes_has_the_bits_of_one_weight_at_a_time():
    lams = (0.0, 0.1, 0.5, 0.9, 1.0, 0.123456789)
    for k in range(20):
        f, omega = generate_instance(InstanceFamily(), Seed(23, k))
        densities = tuple(
            sample_density(m, np.random.default_rng(np.random.SeedSequence(25, spawn_key=(k, x))))
            for x, m in enumerate(f.codomain.blocks)
        )
        xi = State(f.codomain, sample_simplex(len(f.codomain), Seed(24, k).rng()), densities)
        many = entropy._holevo_changes(f, lams, omega, xi)[0]
        one_at_a_time = [holevo_change(f, lam, omega, xi) for lam in lams]
        assert np.array(many).tobytes() == np.array(one_at_a_time).tobytes()


@pytest.mark.parametrize("lams", [(-0.1,), (0.5, 1.5), (0.1, 0.5, float("nan")), (float("inf"), 0.5)])
def test_holevo_changes_checks_every_weight_before_any_entropy_change(monkeypatch, lams):
    calls = []
    monkeypatch.setattr(entropy, "_change_and_pullback", lambda f, omega: calls.append(f) or (0.0, omega))
    f = identity_morphism(AlgebraShape((2,)))
    omega = State(f.codomain, [1.0], (sample_density(2, Seed(19).rng()),))
    with pytest.raises(OutOfRange):
        entropy._holevo_changes(f, lams, omega, omega)
    assert calls == []


def test_holevo_change_terminal_on_orthogonal_pair():
    f = initial(AlgebraShape((2,)))
    omega = State(AlgebraShape((2,)), [1.0], (np.diag([1.0, 0.0]),))
    xi = State(AlgebraShape((2,)), [1.0], (np.diag([0.0, 1.0]),))
    # S_f(mix) = log 2 while both endpoints change by 0
    assert abs(holevo_change(f, 0.5, omega, xi) - LOG2) < 1e-12


def test_holevo_change_zero_when_orthogonality_preserved():
    f = measurement_morphism(AlgebraShape((2,)), 0, np.diag([2.0, -1.0]))
    omega = State(AlgebraShape((2,)), [1.0], (np.diag([1.0, 0.0]),))
    xi = State(AlgebraShape((2,)), [1.0], (np.diag([0.0, 1.0]),))
    for lam in (0.1, 0.5, 0.9):
        assert abs(holevo_change(f, lam, omega, xi)) < 1e-9


def test_k_functor():
    # commutative case: block weights carry all the entropy
    for k in range(10):
        f, omega = generate_instance(InstanceFamily(max_block_dim=1), Seed(21, k))
        assert abs(k_functor(f, omega) - entropy_change(f, omega)) < 1e-12

    f = measurement_morphism(AlgebraShape((2,)), 0, np.diag([1.0, -1.0]))
    half = State(AlgebraShape((2,)), [1.0], (np.eye(2) / 2,))
    assert abs(k_functor(f, half) + LOG2) < 1e-12

    single = factor_inclusion(2, 2)
    bell = block_pure_state(AlgebraShape((4,)), 0, np.array([1.0, 0, 0, 1.0]) / np.sqrt(2))
    assert k_functor(single, bell) == 0.0


def test_concavity_sandwich():
    rng = np.random.default_rng(22)
    for k in range(100):
        count = int(rng.integers(2, 4))
        dim = int(rng.integers(2, 5))
        p = sample_simplex(count, Seed(23, k).rng())
        rhos = [sample_density(dim, Seed(24, k + 100 * j).rng()) for j in range(count)]
        mix = sum(w * r for w, r in zip(p, rhos))
        left = sum(w * von_neumann(r) for w, r in zip(p, rhos))
        mid = von_neumann(mix)
        assert left <= mid + 1e-9
        assert mid <= shannon(p) + left + 1e-9


def test_concavity_right_equality_iff_orthogonal():
    # orthogonal supports saturate the upper bound; overlapping ones do not
    basis = sample_unitary(4, Seed(25).rng())
    r1 = basis[:, :2] @ sample_density(2, Seed(26).rng()) @ basis[:, :2].conj().T
    r2 = basis[:, 2:] @ sample_density(2, Seed(27).rng()) @ basis[:, 2:].conj().T
    p = np.array([0.3, 0.7])
    mix = p[0] * r1 + p[1] * r2
    gap = shannon(p) + p[0] * von_neumann(r1) + p[1] * von_neumann(r2) - von_neumann((mix + mix.conj().T) / 2)
    assert abs(gap) < 1e-8

    s1, s2 = sample_density(4, Seed(28).rng()), sample_density(4, Seed(29).rng())
    mix2 = p[0] * s1 + p[1] * s2
    gap2 = shannon(p) + p[0] * von_neumann(s1) + p[1] * von_neumann(s2) - von_neumann(mix2)
    assert gap2 > 1e-4


def test_segal_reads_the_validated_spectrum_bit_for_bit():
    from ncentropy import convex_combine
    from ncentropy.entropy import _plogp

    def by_von_neumann(omega):
        total = _plogp(omega.weights)
        for p, rho in zip(omega.weights, omega.densities):
            if p > 0.0:
                total += p * von_neumann(rho)
        return total

    for k in range(20):
        f, omega = generate_instance(InstanceFamily(), Seed(19, k))
        xi = State(
            f.codomain,
            sample_simplex(len(f.codomain), Seed(20, k).rng()),
            tuple(sample_density(m, Seed(21, k + 100 * x).rng()) for x, m in enumerate(f.codomain.blocks)),
        )
        for state in (omega, pullback(f, omega), convex_combine(0.3, omega, xi)):
            assert segal(state) == by_von_neumann(state)


def test_segal_matches_von_neumann_at_the_state_tolerance():
    def skew(e):  # Hermitian deviation e
        rho = np.diag([0.5, 0.5]).astype(complex)
        rho[0, 1] = e
        return rho

    def negative(e):
        return np.diag([1.0 + e, -e]).astype(complex)

    for rho in (skew(5e-11), negative(5e-11)):  # inside the State tolerance
        omega = State(AlgebraShape((2,)), [1.0], (rho,))
        assert abs(segal(omega) - von_neumann(rho)) == 0.0
    for rho in (skew(2e-10), negative(2e-10)):  # outside it, both refuse
        with pytest.raises(NotDensity):
            State(AlgebraShape((2,)), [1.0], (rho,))
        with pytest.raises(NotDensity):
            von_neumann(rho)


def test_entropy_change_decomposes_each_domain_block_once(monkeypatch):
    calls = {"eigvalsh": 0, "eigh": 0}
    for name in calls:

        def counted(*args, _name=name, _original=getattr(np.linalg, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    placeholders = 0
    for k in range(10):
        f, omega = generate_instance(InstanceFamily(), Seed(22, k))
        weights = pullback(f, omega).weights
        calls.update(eigvalsh=0, eigh=0)
        entropy_change(f, omega)
        # validating the pullback decomposes each domain density of positive
        # weight once, and a 1x1 density is read off its entry; a block of
        # weight zero takes the placeholder's kept spectrum, and the codomain
        # state's spectrum was kept when it was built
        expected = sum(n > 1 and q > 0.0 for n, q in zip(f.domain.blocks, weights))
        assert calls == {"eigvalsh": expected, "eigh": 0}
        placeholders += sum(n > 1 and q == 0.0 for n, q in zip(f.domain.blocks, weights))
    assert placeholders > 0
