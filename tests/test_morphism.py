import json
import math
import warnings

import numpy as np
import pytest

from ncentropy import (
    AlgebraElement,
    AlgebraShape,
    Morphism,
    Seed,
    State,
    apply,
    are_orthogonal,
    block_pure_state,
    classical_state,
    compose,
    convex_combine,
    entropy_change,
    evaluate,
    external_sum_morphism,
    external_sum_state,
    initial,
    is_isomorphism,
    is_pure,
    measurement_morphism,
    preserves_orthogonality,
    pullback,
    summand_projection,
    support,
)
from ncentropy.errors import DegenerateSpectrum, NotHermitian, NotOrthogonalInput, NotUnitary, ShapeMismatch
from ncentropy.disintegration import QuantumDisintegrationData, quantum_disintegrate
from ncentropy.harness import _disintegrable_state, _sample_disintegrable, factor_inclusion, generate_instance, InstanceFamily
from ncentropy.linalg import DEFAULT_TOL, hermitian_part, max_abs, sample_density, sample_simplex, sample_unitary
from ncentropy import cli, linalg, morphism
from ncentropy.morphism import morphism_from_json, morphism_to_json
from ncentropy.state import state_to_json
from predicates import adjoint, extensionally_equal, identity, identity_morphism, is_positive, multiply, random_morphism


def _random_element(shape, seed):
    blocks = []
    for x, m in enumerate(shape.blocks):
        rng = Seed(seed, 70 + x).rng()
        blocks.append(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
    return AlgebraElement(shape, tuple(blocks))


def _random_state(shape, seed):
    weights = sample_simplex(len(shape), Seed(seed, 90).rng())
    densities = tuple(sample_density(m, Seed(seed, 91 + x).rng()) for x, m in enumerate(shape.blocks))
    return State(shape, weights, densities)


def _bell_state():
    v = np.array([1.0, 0, 0, 1.0]) / np.sqrt(2)
    return block_pure_state(AlgebraShape((4,)), 0, v)


Z = np.diag([1.0, -1.0]).astype(complex)


def test_morphism_validation():
    with pytest.raises(ShapeMismatch):
        Morphism(AlgebraShape((2,)), AlgebraShape((3,)), np.array([[1]]), (np.eye(3),))
    domain, codomain, u = AlgebraShape((2, 2)), AlgebraShape((4,)), (np.eye(4),)
    for good in (np.array([[2, 0]], dtype=np.uint8), np.array([[2.0, 0.0]]), np.array([[1, 1]])):
        f = Morphism(domain, codomain, good, u)
        assert f.multiplicities.dtype == np.int64 and f.multiplicities.tolist() == good.astype(int).tolist()
    # each row sums to dimension 4, so only the entry check rejects it
    for bad in (
        np.array([[0.5, 1.5]]),
        np.array([[np.nan, 2.0]]),
        np.array([[3, -1]]),
        np.array([[True, True]]),
        np.array([[2 + 0j, 0]]),
    ):
        with pytest.raises(ShapeMismatch):
            Morphism(domain, codomain, bad, u)


def test_a_unitary_far_from_norm_m_raises_without_a_warning():
    # the last two's U^dag U overflows to inf and nan, which the product measures without a warning
    for unitary in (np.eye(2) * 2, np.array([[1e200, 1e200], [1e200, 1e200j]]), np.array([[1e200, 1e200], [1e200, 0]])):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotUnitary):
                Morphism(AlgebraShape((2,)), AlgebraShape((2,)), np.array([[1]]), (unitary,))


def test_the_norm_check_passes_every_unitary_the_product_accepts():
    # U = (1 + a) I has |tr(U^dag U - I)| = sqrt(m) ||U^dag U - I||_F, where that bound is tight
    for m in (1, 2, 3, 16, 256):
        a = math.sqrt(1.0 + 0.999 * DEFAULT_TOL / math.sqrt(m)) - 1.0
        f = Morphism(AlgebraShape((1,)), AlgebraShape((m,)), np.array([[m]]), ((1.0 + a) * np.eye(m),))
        assert 0.99 * DEFAULT_TOL < f.unitarity_deviations[0] <= DEFAULT_TOL


def test_apply_identity_morphism():
    shape = AlgebraShape((2, 3))
    f = identity_morphism(shape)
    a = _random_element(shape, 0)
    out = apply(f, a)
    assert all(max_abs(p - q) < 1e-12 for p, q in zip(out.blocks, a.blocks))


def test_apply_factor_inclusion():
    f = factor_inclusion(2, 2)
    b = _random_element(AlgebraShape((2,)), 1)
    out = apply(f, b)
    assert max_abs(out.blocks[0] - np.kron(np.eye(2), b.blocks[0])) < 1e-12


def test_apply_rejects_an_image_that_overflows():
    # the image's AlgebraElement check is apply's only guard against entries that overflow to inf or nan
    f = Morphism(AlgebraShape((2,)), AlgebraShape((4,)), np.array([[2]]), (sample_unitary(4, Seed(1).rng()),))
    huge = AlgebraElement(AlgebraShape((2,)), (np.full((2, 2), 1.5e308, dtype=np.complex128),))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ShapeMismatch, match="matrix entries must be finite"):
        apply(f, huge)


def test_apply_measurement_layout():
    f = measurement_morphism(AlgebraShape((2,)), 0, Z)
    ab = AlgebraElement(AlgebraShape((1, 1)), (np.array([[2.0]]), np.array([[5.0]])))
    assert np.allclose(apply(f, ab).blocks[0], np.diag([2.0, 5.0]))


def test_apply_is_a_unital_star_homomorphism():
    for k in range(30):
        f, _ = generate_instance(InstanceFamily(), Seed(123, k))
        e_out = apply(f, identity(f.domain))
        assert all(max_abs(p - q) < 1e-9 for p, q in zip(e_out.blocks, identity(f.codomain).blocks))
        a = _random_element(f.domain, k)
        b = _random_element(f.domain, 1000 + k)
        prod = apply(f, multiply(a, b))
        prod2 = multiply(apply(f, a), apply(f, b))
        assert all(max_abs(p - q) < 1e-9 for p, q in zip(prod.blocks, prod2.blocks))
        adj = apply(f, adjoint(a))
        adj2 = adjoint(apply(f, a))
        assert all(max_abs(p - q) < 1e-9 for p, q in zip(adj.blocks, adj2.blocks))


def test_pullback_duality():
    for k in range(30):
        f, omega = generate_instance(InstanceFamily(), Seed(77, k))
        b = _random_element(f.domain, k)
        lhs = evaluate(pullback(f, omega), b)
        rhs = evaluate(omega, apply(f, b))
        assert abs(lhs - rhs) < 1e-9


def test_pullback_through_terminal_and_bell():
    omega = _random_state(AlgebraShape((2, 2)), 4)
    bang = initial(omega.shape)
    pulled = pullback(bang, omega)
    assert pulled.shape.blocks == (1,)
    assert abs(pulled.weights[0] - 1.0) < 1e-12

    sigma = pullback(factor_inclusion(2, 2), _bell_state())
    assert max_abs(sigma.densities[0] - np.eye(2) / 2) < 1e-12


def test_pullback_sums_diagonal_pairs():
    # tracing the multiplicity index adds entries (0, 2) and (1, 3)
    rho = np.diag([0.5, 0.25, 0.125, 0.125]).astype(complex)
    omega = State(AlgebraShape((4,)), [1.0], (rho,))
    pulled = pullback(factor_inclusion(2, 2), omega)
    assert max_abs(pulled.densities[0] - np.diag([0.625, 0.375])) < 1e-12


def _pullback_by_einsum(f, omega):
    """Weights and densities of ``pullback`` with each segment traced by one einsum, kept as the reference."""
    accum = [np.zeros((n, n), dtype=np.complex128) for n in f.domain.blocks]
    for x, (p, rho) in enumerate(zip(omega.weights, omega.densities)):
        if p <= 0.0:
            continue
        u = f.unitaries[x]
        m = u.conj().T @ (p * rho) @ u
        for y, seg, copies, n in f.segments[x]:
            accum[y] += np.einsum("aiaj->ij", m[seg, seg].reshape(copies, n, copies, n))
    weights = np.array([max(np.trace(a).real, 0.0) for a in accum])
    densities = [
        hermitian_part(a / q) if q > 1e-13 else np.eye(n) / n
        for q, a, n in zip(weights, accum, f.domain.blocks)
    ]
    return weights / weights.sum(), densities


def _einsum_cases():
    """Random instances with up to 5 copies, and factor inclusions of 1- to 3-dimensional blocks."""
    cases = [generate_instance(InstanceFamily(max_block_dim=9), Seed(31, k)) for k in range(60)]
    for n, copies in ((1, 5), (2, 3), (3, 4)):
        cases.append((factor_inclusion(n, copies), _random_state(AlgebraShape((copies * n,)), copies)))
    return cases


def test_pullback_with_blocks_has_the_bits_of_the_einsum_partial_trace():
    most_copies = 0
    for f, omega in _einsum_cases():
        weights, densities = _pullback_by_einsum(f, omega)
        pulled_weights, pulled_densities, _ = morphism._pullback_with_blocks(f, omega)
        assert np.array_equal(pulled_weights, weights)
        assert all(np.array_equal(a, b) for a, b in zip(pulled_densities, densities))
        most_copies = max(most_copies, int(f.multiplicities.max()))
    assert most_copies >= 4  # sums of three or more copies, where the order of addition shows


# Morphisms with several segments per codomain block and blocks of dimension 8-64.
MULTI_SEGMENT = [
    ((8, 16), [[2, 1], [0, 3], [4, 2]]),
    ((8, 24), [[1, 1], [5, 1]]),
    ((16, 8, 16), [[1, 2, 1], [2, 0, 0], [0, 1, 0]]),
]


def _large_cases():
    """Factor inclusions of M_16 and M_64 by 4 copies, and multi-segment morphisms with Haar unitaries."""
    cases = [(factor_inclusion(n, 4), _random_state(AlgebraShape((4 * n,)), n)) for n in (16, 64)]
    for k, (domain, c) in enumerate(MULTI_SEGMENT):
        rng = Seed(41, k).rng()
        codomain = AlgebraShape(tuple((np.array(c) @ np.array(domain)).tolist()))
        unitaries = tuple(sample_unitary(m, rng) for m in codomain.blocks)
        f = Morphism(AlgebraShape(domain), codomain, np.array(c), unitaries)
        cases.append((f, _random_state(codomain, 50 + k)))
    return cases


def _pullback_error(pulled, weights, densities):
    return max(max_abs(pulled.weights - weights), *(max_abs(a - b) for a, b in zip(pulled.densities, densities)))


def test_pullback_matches_the_einsum_partial_trace():
    # pullback forms only the diagonal copy blocks, whose products round
    # differently from slices of the whole conjugated block
    for f, omega in _einsum_cases() + _large_cases():
        assert _pullback_error(pullback(f, omega), *_pullback_by_einsum(f, omega)) < 1e-14


def test_apply_has_the_bits_of_the_kron_layout():
    for k, (f, _) in enumerate(_einsum_cases() + _large_cases()):
        b = _random_element(f.domain, k)
        image = apply(f, b)
        for u, segments, blk in zip(f.unitaries, f.segments, image.blocks):
            inner = linalg.block_diag([linalg.kron(np.eye(copies), b.blocks[y]) for y, _, copies, _ in segments])
            assert np.array_equal(blk, u @ inner @ u.conj().T)


def test_pullback_agrees_with_the_disintegration_pullback():
    cases = [_sample_disintegrable(Seed(43, k).rng())[:2] for k in range(40)]
    cases += [(f, _disintegrable_state(f, Seed(44, k).rng())[0]) for k, (f, _) in enumerate(_large_cases())]
    for f, omega in cases:
        data = quantum_disintegrate(f, omega)
        assert isinstance(data, QuantumDisintegrationData)
        assert _pullback_error(pullback(f, omega), data.pullback_weights, data.pullback_densities) < 1e-14


_DFT3 = np.exp(-2j * np.pi * np.outer(range(3), range(3)) / 3) / np.sqrt(3)
# M_2 + C in M_3 through the 3 x 3 discrete Fourier transform
_DFT_MORPHISM = Morphism(AlgebraShape((2, 1)), AlgebraShape((3,)), np.array([[1, 1]]), (_DFT3,))


@pytest.mark.parametrize("t", [1e-7, 1e-8, 1e-9, 1e-11])
@pytest.mark.parametrize("spread", [False, True], ids=["one-vector", "two-vectors"])
def test_a_light_pulled_back_block_is_still_a_density(tmp_path, capsys, t, spread):
    # the pure state along F (a, b, sqrt(1 - t)) puts weight t on M_2: dividing the rounding
    # of U^dag (p rho) U by t would give that block a negative eigenvalue far below -DEFAULT_TOL
    a, b = (math.sqrt(t / 2), math.sqrt(t / 2)) if spread else (math.sqrt(t), 0.0)
    omega = block_pure_state(AlgebraShape((3,)), 0, _DFT3 @ np.array([a, b, math.sqrt(1.0 - t)]))
    binary = -t * math.log(t) - (1.0 - t) * math.log1p(-t)
    assert abs(entropy_change(_DFT_MORPHISM, omega) + binary) <= 1e-12
    morphism_path, state_path = tmp_path / "morphism.json", tmp_path / "state.json"
    morphism_path.write_text(json.dumps(morphism_to_json(_DFT_MORPHISM)))
    state_path.write_text(json.dumps(state_to_json(omega)))
    for command in ("change", "pullback"):
        assert cli.main([command, str(morphism_path), str(state_path)]) == 0
    assert capsys.readouterr().err == ""


def test_pullback_projects_exactly_the_blocks_state_refuses():
    # M_2 + M_2 into M_4 + M_2 by (2, 1) copies: the two copies of -e in the first codomain block
    # pull back to -2e, below -DEFAULT_TOL, and the single copy of -e in the second stays -e
    e = 9e-11
    f = Morphism(AlgebraShape((2, 2)), AlgebraShape((4, 2)), np.array([[2, 0], [0, 1]]), (np.eye(4), np.eye(2)))
    omega = State(f.codomain, [0.5, 0.5], (np.diag([0.5 + e, -e] * 2).astype(complex), np.diag([1 + e, -e]).astype(complex)))
    pulled = pullback(f, omega)
    assert max_abs(pulled.densities[0] - np.diag([1.0, 0.0])) < 1e-15 and pulled.spectra[0][0] >= 0.0
    assert abs(pulled.spectra[1][0] + e) < 1e-15


def test_compose_with_identity_and_terminal():
    f, _ = generate_instance(InstanceFamily(), Seed(8, 0))
    assert extensionally_equal(compose(f, identity_morphism(f.domain)), f)
    assert extensionally_equal(compose(identity_morphism(f.codomain), f), f)
    assert extensionally_equal(compose(f, initial(f.domain)), initial(f.codomain))


def test_compose_inclusion_after_measurement():
    incl = factor_inclusion(2, 2)
    meas = measurement_morphism(AlgebraShape((2,)), 0, Z)
    comp = compose(incl, meas)
    assert comp.multiplicities.tolist() == [[2, 2]]
    ab = AlgebraElement(AlgebraShape((1, 1)), (np.array([[3.0]]), np.array([[7.0]])))
    direct = apply(comp, ab)
    nested = apply(incl, apply(meas, ab))
    assert max_abs(direct.blocks[0] - nested.blocks[0]) < 1e-12


def test_compose_random_chains():
    for k in range(20):
        g, _ = generate_instance(InstanceFamily(max_blocks=3), Seed(55, k))
        from ncentropy.harness import _sample_morphism

        f = _sample_morphism(InstanceFamily(max_blocks=3), Seed(56, k).rng(), g.codomain)
        comp = compose(f, g)
        c = _random_element(g.domain, k)
        direct = apply(comp, c)
        nested = apply(f, apply(g, c))
        assert all(max_abs(p - q) < 1e-9 for p, q in zip(direct.blocks, nested.blocks))


def _regrouped_unitary_by_loops(f, g, x):
    """The composite unitary built with the explicit regrouping permutation matrix."""
    m = f.codomain.blocks[x]
    dims_z = g.domain.blocks
    c_total = (f.multiplicities @ g.multiplicities)[x]
    spread = np.zeros((m, m), dtype=np.complex128)
    canon_start = np.concatenate([[0], np.cumsum(c_total * np.asarray(dims_z))])
    copy_count = [0] * len(dims_z)
    perm = np.empty(m, dtype=np.int64)
    offset = pos = 0
    for y, n in enumerate(f.domain.blocks):
        copies_f = int(f.multiplicities[x, y])
        spread[offset : offset + copies_f * n, offset : offset + copies_f * n] = np.kron(
            np.eye(copies_f), g.unitaries[y]
        )
        offset += copies_f * n
        for _ in range(copies_f):
            for z, dz in enumerate(dims_z):
                for _ in range(int(g.multiplicities[y, z])):
                    target = canon_start[z] + copy_count[z] * dz
                    perm[pos : pos + dz] = np.arange(target, target + dz)
                    copy_count[z] += 1
                    pos += dz
    p_mat = np.zeros((m, m), dtype=np.complex128)
    p_mat[np.arange(m), perm] = 1.0
    return f.unitaries[x] @ spread @ p_mat


def test_composite_unitary_matches_the_permutation_matrix():
    from ncentropy.harness import _sample_morphism
    from ncentropy.morphism import _composition_data

    for k in range(30):
        g, _ = generate_instance(InstanceFamily(), Seed(57, k))
        f = _sample_morphism(InstanceFamily(), Seed(58, k).rng(), g.codomain)
        for x in range(len(f.codomain)):
            assert np.array_equal(_composition_data(f, g, x), _regrouped_unitary_by_loops(f, g, x))


def _dense_deviation(u):
    return linalg.frobenius_norm(u.conj().T @ u - np.eye(len(u)))


def _assert_records_at_least_the_measurement(f):
    for u, recorded in zip(f.unitaries, f.unitarity_deviations):
        assert recorded >= _dense_deviation(u)


def test_composite_records_at_least_its_measured_deviation():
    from ncentropy.harness import _sample_morphism

    rng = np.random.default_rng(2207)
    g = random_morphism((16,), (32, 48), [[2], [3]], rng)
    f = random_morphism((32, 48), (128,), [[1, 2]], rng)
    h = random_morphism((128,), (256,), [[2]], rng)
    inner = random_morphism((16, 32), (64, 80), [[2, 1], [3, 1]], rng)
    outer = random_morphism((64, 80), (208,), [[2, 1]], rng)
    large = [compose(f, g), compose(h, compose(f, g)), compose(compose(h, f), g), compose(outer, inner)]
    large.append(external_sum_morphism(large[0], large[3]))
    for comp in large:
        _assert_records_at_least_the_measurement(comp)
    for k in range(20):
        g, _ = generate_instance(InstanceFamily(max_blocks=3), Seed(59, k))
        f = _sample_morphism(InstanceFamily(max_blocks=3), Seed(60, k).rng(), g.codomain)
        e = _sample_morphism(InstanceFamily(max_blocks=3), Seed(61, k).rng(), f.codomain)
        for comp in (compose(f, g), compose(e, compose(f, g)), external_sum_morphism(f, g)):
            _assert_records_at_least_the_measurement(comp)


def test_composite_bound_carries_the_largest_inner_dimension():
    # V_1 = [[1 + e]] deviates by d = 2e + e^2 and V_0 = [[1]] by 0; with 15
    # copies of V_1 in M_16, the composite deviates by sqrt(15) d in Frobenius
    # norm, so the bound needs the largest inner deviation and the copy count.
    e = 5e-12
    shape = AlgebraShape((1, 1))
    g = Morphism(shape, shape, np.eye(2, dtype=int), (np.eye(1), np.full((1, 1), 1.0 + e)))
    f = Morphism(shape, AlgebraShape((16,)), np.array([[1, 15]]), (linalg.identity_matrix(16),))
    d = g.unitarity_deviations[1]
    assert g.unitarity_deviations[0] == 0.0 and abs(d - 2 * e) < 1e-15 and f.unitarity_deviations == (0.0,)
    comp = compose(f, g)
    assert _dense_deviation(comp.unitaries[0]) > 3.8 * d
    _assert_records_at_least_the_measurement(comp)


def test_composite_bound_carries_the_rounding_of_the_product():
    # 1x1 unitaries that measure as exact, whose product does not
    one = AlgebraShape((1,))
    rng = np.random.default_rng(0)
    while True:
        u, v = (Morphism(one, one, np.array([[1]]), (np.exp(2j * np.pi * rng.random((1, 1))),)) for _ in range(2))
        comp = compose(u, v)
        if u.unitarity_deviations == v.unitarity_deviations == (0.0,) and _dense_deviation(comp.unitaries[0]) > 0.0:
            break
    _assert_records_at_least_the_measurement(comp)


@pytest.mark.parametrize("m", [1, 2, 16, 256, 4096, 10**6])
def test_composite_bound_covers_its_second_order_terms(m):
    # _composite_bound's proof: the exact product deviates by delta = (1 + d_v) d_u + sqrt(m) d_v,
    # the rounding has Frobenius norm at most eta = sqrt(2) gamma_2m m sqrt((1 + d_u)(1 + d_v)),
    # and W^dag W - I is within delta + 2 eta sqrt(1 + delta) + eta^2; the bound covers that where it is at most 1.
    u = 2.0**-53
    gamma = 2 * m * u / (1.0 - 2 * m * u)
    for d_u in (0.0, 1e-16, linalg.DEFAULT_TOL):
        for d_v in (0.0, 1e-16, linalg.DEFAULT_TOL):
            bound = morphism._composite_bound(d_u, d_v, m)
            delta = (1.0 + d_v) * d_u + math.sqrt(m) * d_v
            eta = math.sqrt(2.0) * gamma * m * math.sqrt((1.0 + d_u) * (1.0 + d_v))
            assert delta + 2.0 * eta * math.sqrt(1.0 + delta) + eta * eta <= bound <= 1.0


def test_compose_and_external_sum_take_no_unitarity_product(monkeypatch):
    f, _ = generate_instance(InstanceFamily(), Seed(8, 0))
    g = random_morphism(f.codomain.blocks, (f.codomain.blocks[0] * 2,), [[2] + [0] * (len(f.codomain) - 1)], np.random.default_rng(8))
    checked = []
    monkeypatch.setattr(linalg, "frobenius_norm", lambda m: checked.append(m.shape) or np.linalg.norm(m))
    comp = compose(g, f)
    total = external_sum_morphism(f, g)
    assert checked == []
    assert all(0.0 < d < 1e-12 for d in comp.unitarity_deviations)
    assert total.unitarity_deviations == f.unitarity_deviations + g.unitarity_deviations


def test_composite_of_factors_near_the_tolerance_is_measured():
    # each factor deviates by t = 0.9 DEFAULT_TOL; their composite, by about 2.4 t
    t = 0.9 * linalg.DEFAULT_TOL
    g = Morphism(AlgebraShape((1,)), AlgebraShape((1,)), np.array([[1]]), (np.full((1, 1), math.sqrt(1.0 + t)),))
    f = Morphism(AlgebraShape((1,)), AlgebraShape((4,)), np.array([[4]]), (np.diag([math.sqrt(1.0 + t), 1.0, 1.0, 1.0]),))
    assert max(f.unitarity_deviations + g.unitarity_deviations) < linalg.DEFAULT_TOL
    with pytest.raises(NotUnitary):
        compose(f, g)
    # a bound above the tolerance is replaced by the measurement where that is within it:
    # 0.999 DEFAULT_TOL plus the rounding term 13 m^2 u of M_16
    edge = Morphism(AlgebraShape((16,)), AlgebraShape((16,)), np.array([[1]]), (np.diag([math.sqrt(1.0 + 0.999 * linalg.DEFAULT_TOL)] + [1.0] * 15),))
    h = random_morphism((16,), (16,), [[1]], np.random.default_rng(9))
    assert morphism._composite_bound(edge.unitarity_deviations[0], h.unitarity_deviations[0], 16) > linalg.DEFAULT_TOL
    comp = compose(edge, h)
    assert abs(comp.unitarity_deviations[0] - _dense_deviation(comp.unitaries[0])) < 1e-15
    assert comp.unitarity_deviations[0] < linalg.DEFAULT_TOL


def test_initial_morphism():
    one = initial(AlgebraShape((1,)))
    assert extensionally_equal(one, identity_morphism(AlgebraShape((1,))))
    f = initial(AlgebraShape((2,)))
    scalar = AlgebraElement(AlgebraShape((1,)), (np.array([[1.0]]),))
    assert max_abs(apply(f, scalar).blocks[0] - np.eye(2)) < 1e-12


def test_is_isomorphism():
    assert is_isomorphism(identity_morphism(AlgebraShape((2, 3))))
    for f in (
        factor_inclusion(2, 2),
        factor_inclusion(3, 2),
        initial(AlgebraShape((1, 1))),
        summand_projection(AlgebraShape((2,)), AlgebraShape((2,))),
    ):
        assert not is_isomorphism(f)
    swap = Morphism(
        AlgebraShape((3, 2)),
        AlgebraShape((2, 3)),
        np.array([[0, 1], [1, 0]]),
        (np.eye(2), np.eye(3)),
    )
    assert is_isomorphism(swap)


def test_preserves_orthogonality_cases():
    # any isomorphism preserves every orthogonal pair
    u = sample_unitary(2, Seed(3).rng())
    iso = Morphism(AlgebraShape((2,)), AlgebraShape((2,)), np.array([[1]]), (u,))
    e0 = State(AlgebraShape((2,)), [1.0], (np.diag([1.0, 0.0]),))
    e1 = State(AlgebraShape((2,)), [1.0], (np.diag([0.0, 1.0]),))
    assert preserves_orthogonality(iso, e0, e1)

    # the terminal morphism collapses every orthogonal pair
    bang = initial(AlgebraShape((1, 1)))
    assert not preserves_orthogonality(bang, classical_state([1.0, 0.0]), classical_state([0.0, 1.0]))

    # orthogonal Bell states pull back to the same maximally mixed state
    phi_plus = block_pure_state(AlgebraShape((4,)), 0, np.array([1.0, 0, 0, 1.0]) / np.sqrt(2))
    phi_minus = block_pure_state(AlgebraShape((4,)), 0, np.array([1.0, 0, 0, -1.0]) / np.sqrt(2))
    assert not preserves_orthogonality(factor_inclusion(2, 2), phi_plus, phi_minus)

    with pytest.raises(NotOrthogonalInput):
        preserves_orthogonality(iso, e0, e0)


def test_measurement_morphism():
    f = measurement_morphism(AlgebraShape((2,)), 0, Z)
    assert f.domain.blocks == (1, 1)
    e1 = AlgebraElement(f.domain, (np.array([[1.0]]), np.array([[0.0]])))
    assert np.allclose(apply(f, e1).blocks[0], np.diag([1.0, 0.0]))
    total = apply(f, identity(f.domain))
    assert max_abs(total.blocks[0] - np.eye(2)) < 1e-12

    multi = measurement_morphism(AlgebraShape((3, 2)), 1, Z)
    e_top = AlgebraElement(multi.domain, (np.array([[1.0]]), np.array([[0.0]])))
    out = apply(multi, e_top)
    assert max_abs(out.blocks[0] - np.eye(3)) < 1e-12  # designated point carries the other block

    with pytest.raises(DegenerateSpectrum):
        measurement_morphism(AlgebraShape((2,)), 0, np.eye(2))

    clustered = measurement_morphism(AlgebraShape((3,)), 0, np.diag([1.0, 1.0 + 1e-13, 0.0]))
    assert clustered.domain.blocks == (1, 1)
    assert clustered.multiplicities.tolist() == [[2, 1]]

    # the gap between +-1.7e308 overflows to inf, which separates the two points without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        wide = measurement_morphism(AlgebraShape((2,)), 0, np.diag([1.7e308, -1.7e308]))
    assert wide.domain.blocks == (1, 1)


def test_measurement_morphism_rejects_bad_observables():
    # the observable is checked where it enters: linalg.eigh reads only its lower triangle
    with pytest.raises(NotHermitian, match=r"deviates from its adjoint by 1\.000e\+00 > 1\.000e-10"):
        measurement_morphism(AlgebraShape((2,)), 0, np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ShapeMismatch, match=r"observable of shape \(2, 3\) does not fit block dimension 2"):
        measurement_morphism(AlgebraShape((2,)), 0, np.ones((2, 3)))
    within = measurement_morphism(AlgebraShape((2,)), 0, np.array([[1.0, 5e-11], [0.0, -1.0]]))
    assert within.domain.blocks == (1, 1)
    u, hermitian_part = within.unitaries[0], np.array([[1.0, 2.5e-11], [2.5e-11, -1.0]])
    assert max_abs(u.conj().T @ hermitian_part @ u - np.diag([1.0, -1.0])) < 1e-13  # not the lower triangle's eigenvectors


def test_summand_projection():
    pi = summand_projection(AlgebraShape((1,)), AlgebraShape((1,)))
    pair = AlgebraElement(pi.domain, (np.array([[3.0]]), np.array([[9.0]])))
    assert np.allclose(apply(pi, pair).blocks[0], [[3.0]])

    a, b = AlgebraShape((2, 1)), AlgebraShape((3,))
    pi = summand_projection(a, b)
    omega = _random_state(a, 5)
    lifted = pullback(pi, omega)
    assert np.allclose(lifted.weights, np.concatenate([omega.weights, [0.0]]))
    pure = block_pure_state(a, 0, [1.0, 0.0])
    assert is_pure(pullback(pi, pure))


def test_external_sum_morphism():
    f = identity_morphism(AlgebraShape((2,)))
    g = identity_morphism(AlgebraShape((1, 1)))
    both = external_sum_morphism(f, g)
    assert extensionally_equal(both, identity_morphism(both.domain))

    f2, omega = generate_instance(InstanceFamily(), Seed(31, 0))
    g2, xi = generate_instance(InstanceFamily(), Seed(31, 1))
    k = external_sum_morphism(f2, g2)
    b = _random_element(f2.domain, 6)
    c = _random_element(g2.domain, 7)
    joint = AlgebraElement(k.domain, b.blocks + c.blocks)
    out = apply(k, joint)
    fb, gc = apply(f2, b), apply(g2, c)
    assert all(max_abs(p - q) < 1e-10 for p, q in zip(out.blocks, fb.blocks + gc.blocks))

    # pullback of the weighted direct-sum state is the weighted sum of pullbacks
    lam = 0.35
    mix = external_sum_state(lam, omega, xi)
    pulled = pullback(k, mix)
    expected = external_sum_state(lam, pullback(f2, omega), pullback(g2, xi))
    assert max_abs(pulled.weights - expected.weights) < 1e-10
    for w, p, q in zip(pulled.weights, pulled.densities, expected.densities):
        if w > 1e-12:
            assert max_abs(p - q) < 1e-9


def test_support_image_lemma():
    for k in range(25):
        f, omega = generate_instance(InstanceFamily(), Seed(88, k))
        image = apply(f, support(pullback(f, omega)))
        difference = AlgebraElement(image.shape, tuple(a - b for a, b in zip(image.blocks, support(omega).blocks)))
        assert is_positive(difference, 1e-8)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 17(b): support thresholds each normalised block density at DEFAULT_TOL, "
    "so the pullback can drop a direction of weighted mass p_x * lambda / q_y that support(omega) keeps",
)
def test_support_image_lemma_near_the_support_threshold():
    # M_2 into M_2 + M_2, one copy each; the eigenvalue 1e-9 of the light block pulls back at 5e-11:
    # support(omega) has rank 3, support(f* omega) rank 1, and the image misses supp omega by 1.0
    f = Morphism(AlgebraShape((2,)), AlgebraShape((2, 2)), np.array([[1], [1]]), (np.eye(2), np.eye(2)))
    omega = State(f.codomain, [0.05, 0.95], (np.diag([1 - 1e-9, 1e-9]).astype(complex), np.diag([1.0, 0.0]).astype(complex)))
    image = apply(f, support(pullback(f, omega)))
    difference = AlgebraElement(image.shape, tuple(a - b for a, b in zip(image.blocks, support(omega).blocks)))
    assert is_positive(difference, 1e-8)


def test_overlap_persistence_lemma():
    for k in range(25):
        f, omega = generate_instance(InstanceFamily(), Seed(89, k))
        xi = convex_combine(0.5, omega, _random_state(f.codomain, 500 + k))
        assert not are_orthogonal(omega, xi)
        assert not are_orthogonal(pullback(f, omega), pullback(f, xi))


def test_isomorphism_transport():
    u = sample_unitary(3, Seed(17).rng())
    iso = Morphism(AlgebraShape((3,)), AlgebraShape((3,)), np.array([[1]]), (u,))
    pure = block_pure_state(AlgebraShape((3,)), 0, [1.0, 1.0j, 0.0])
    assert is_pure(pullback(iso, pure))
    mixed = _random_state(AlgebraShape((3,)), 18)
    assert not is_pure(pullback(iso, mixed))


def test_morphism_json_round_trip():
    f, _ = generate_instance(InstanceFamily(), Seed(91, 3))
    back = morphism_from_json(morphism_to_json(f))
    assert extensionally_equal(f, back, tol=1e-10)
    data = morphism_to_json(f)
    data["unitaries"] = None
    bare = morphism_from_json(data)
    assert all(max_abs(u - np.eye(m)) < 1e-15 for u, m in zip(bare.unitaries, bare.codomain.blocks))


def test_library_identity_unitaries_are_one_read_only_object_per_dimension():
    eye = linalg.identity_matrix(3)
    assert eye is linalg.identity_matrix(3) and not eye.flags.writeable
    assert np.array_equal(eye, np.eye(3))
    with pytest.raises(ValueError):
        eye[0, 0] = 2.0
    shape = AlgebraShape((3, 2))
    assert all(u is linalg.identity_matrix(m) for u, m in zip(initial(shape).unitaries, shape.blocks))
    assert all(u is linalg.identity_matrix(m) for u, m in zip(summand_projection(shape, shape).unitaries, shape.blocks))
    f = measurement_morphism(shape, 1, np.diag([1.0, 2.0]))
    assert f.unitaries[0] is linalg.identity_matrix(3)
    g = morphism_from_json({"domain": [3, 2], "codomain": [3, 2], "multiplicities": [[1, 0], [0, 1]]})
    assert all(u is linalg.identity_matrix(m) for u, m in zip(g.unitaries, shape.blocks))


def test_unitaries_other_than_the_shared_identity_are_checked_by_product(monkeypatch):
    checked = []
    monkeypatch.setattr(linalg, "frobenius_norm", lambda m: checked.append(m.shape) or np.linalg.norm(m))
    shape = AlgebraShape((2,))
    Morphism(shape, shape, np.array([[1]]), (linalg.identity_matrix(2),))
    assert checked == []
    Morphism(shape, shape, np.array([[1]]), (np.eye(2, dtype=np.complex128),))
    assert checked == [(2, 2)]
    near = np.eye(2, dtype=np.complex128)
    near[0, 0] = 1.0 + 1e-6
    with pytest.raises(NotUnitary):
        Morphism(shape, shape, np.array([[1]]), (near,))
    with pytest.raises(NotUnitary):
        Morphism(shape, shape, np.array([[1]]), (np.eye(2) * 2,))


def test_a_morphism_read_from_json_measures_its_unitaries(monkeypatch):
    skewed = np.eye(2, dtype=np.complex128)
    skewed[0, 1] = 5e-11  # deviates by 5e-11 sqrt(2): accepted, and recorded as measured
    data = {"domain": [2], "codomain": [2], "multiplicities": [[1]], "unitaries": [linalg.matrix_to_json(skewed)]}
    checked = []
    monkeypatch.setattr(linalg, "frobenius_norm", lambda m: checked.append(m.shape) or np.linalg.norm(m))
    f = morphism_from_json(data)
    assert checked == [(2, 2)]
    assert f.unitarity_deviations == (np.linalg.norm(skewed.conj().T @ skewed - np.eye(2)),)
    # I + 0.4 DEFAULT_TOL J: every entry of U^dag U - I within DEFAULT_TOL, its Frobenius norm not
    near = np.eye(2) + 0.4 * linalg.DEFAULT_TOL * np.ones((2, 2))
    assert max_abs(near.T @ near - np.eye(2)) < linalg.DEFAULT_TOL < _dense_deviation(near)
    for u in (near, skewed + [[0, 1e-6], [0, 0]]):
        with pytest.raises(NotUnitary):
            morphism_from_json({**data, "unitaries": [linalg.matrix_to_json(u)]})
    assert morphism_from_json({**data, "unitaries": None}).unitarity_deviations == (0.0,)


def test_stored_layout_is_the_ascending_y_layout():
    rng = np.random.default_rng(5)
    for _ in range(200):
        n = rng.integers(1, 5, size=int(rng.integers(1, 5)))
        c = rng.integers(0, 3, size=(int(rng.integers(1, 5)), len(n)))
        c[:, rng.random(len(n)) < 0.3] = 0  # some domain blocks reach no codomain block
        c[c.sum(axis=1) == 0, 0] = 1
        dims = c @ n
        domain, codomain = AlgebraShape(tuple(n.tolist())), AlgebraShape(tuple(dims.tolist()))
        f = Morphism(domain, codomain, c, tuple(np.eye(m) for m in dims))
        for x, row in enumerate(c):
            ends = np.cumsum(row * n)
            expected = tuple(
                (y, slice(int(ends[y] - row[y] * n[y]), int(ends[y])), int(row[y]), int(n[y]))
                for y in range(len(n))
                if row[y] > 0
            )
            assert f.segments[x] == expected
