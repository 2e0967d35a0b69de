import json
import math
from fractions import Fraction

import numpy as np
import pytest

from ncentropy import AlgebraShape, Seed, State, linalg, shannon
from ncentropy.errors import NotProbabilityVector, ShapeMismatch
from ncentropy.linalg import (
    DEFAULT_TOL,
    SUPPORT_SLACK,
    _ginibre,
    as_matrix,
    check_density,
    check_probability_vector,
    frobenius_norm,
    hermitian_eigh,
    hermitian_part,
    hermitian_spectrum,
    kron,
    matrix_from_json,
    matrix_to_json,
    max_abs,
    sample_density,
    sample_simplex,
    sample_unitary,
    support_projection,
)


def _random_hermitian(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2


def test_eigh_diagonal():
    _, vals, vecs = hermitian_eigh(np.diag([3.0, 1.0]))
    assert np.allclose(vals, [1.0, 3.0])
    # eigenvectors are a permutation of the identity columns
    assert np.allclose(np.abs(vecs), [[0, 1], [1, 0]])


def test_eigh_rank_one_projector():
    _, vals, _ = hermitian_eigh(np.full((2, 2), 0.5))
    assert np.allclose(vals, [0.0, 1.0], atol=1e-12)


def test_eigh_reconstruction_oracle():
    # oracle: rebuild H from the decomposition and compare entrywise
    rng = np.random.default_rng(3)
    for _ in range(20):
        h = _random_hermitian(rng, 4)
        _, vals, vecs = hermitian_eigh(h)
        assert max_abs((vecs * vals) @ vecs.conj().T - h) < 1e-10
        assert max_abs(vecs.conj().T @ vecs - np.eye(4)) < 1e-10
        assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_hermitian_spectrum_is_bit_identical_on_the_hermitian_part():
    rng = np.random.default_rng(17)
    for n in (1, 2, 3, 4, 8, 16):
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = hermitian_part(m)
        deviation, vals = hermitian_spectrum(m)
        assert np.array_equal(vals, hermitian_spectrum(h)[1])
        assert np.array_equal(vals, np.linalg.eigvalsh(h))
        assert deviation == max_abs(m - m.conj().T) and hermitian_spectrum(h)[0] == 0.0
        assert all(a <= b for a, b in zip(vals, vals[1:]))
        # hermitian_eigh decomposes the same matrix, with np.linalg.eigh's bits
        eigh_deviation, eigh_vals, vecs = hermitian_eigh(m)
        expected_vals, expected_vecs = np.linalg.eigh(h)
        assert eigh_deviation == deviation and np.array_equal(eigh_vals, expected_vals) and np.array_equal(vecs, expected_vecs)

    # a 1x1 matrix is read off its entry; these entries have the bits
    # eigvalsh gives, down to the sign of zero
    for z in (0.3 - 0.7j, -0.0, complex(-0.0, -0.0), -2.5, 0.8j, 1e-3 - 4e300j, 1e308 + 1e-5j, 5e-324 + 0j):
        for m in (np.array([[z]], dtype=np.complex128), np.array([[z.real]])):
            adjoint = m.conj().T
            deviation, vals = hermitian_spectrum(m)
            with np.errstate(over="ignore", invalid="ignore"):  # 2e308 overflows on both paths
                expected = np.linalg.eigvalsh((m + adjoint) / 2)
            assert vals.dtype == expected.dtype and vals.tobytes() == expected.tobytes()
            assert np.float64(deviation).tobytes() == np.float64(max_abs(m - adjoint)).tobytes()


def _hermitian_with_zeros(rng, n, zeros):
    """A random exactly Hermitian matrix, some of whose entries' parts are zeros drawn from ``zeros``.

    The partner of an entry ``a + bi`` is ``a - bi``, with ``-b`` a zero of
    ``zeros`` again when ``b`` is zero.
    """
    m = hermitian_part(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    for i, j in zip(*np.nonzero(rng.random((n, n)) < 0.3)):
        re = rng.choice(zeros) if rng.random() < 0.5 else m[i, j].real
        if i == j:
            m[i, i] = complex(re, rng.choice(zeros))
        else:
            im = rng.choice(zeros) if rng.random() < 0.5 else m[i, j].imag
            m[i, j] = complex(re, im)
            m[j, i] = complex(re, -im if im != 0.0 else rng.choice(zeros))
    return m


def _has_negative_zero(m):
    parts = np.stack((m.real, m.imag))
    return bool(((parts == 0.0) & np.signbit(parts)).any())


def test_hermitian_spectrum_takes_an_exactly_hermitian_matrix_as_it_is():
    rng = np.random.default_rng(29)
    for n in (2, 3, 4, 8):
        for _ in range(50):
            # without a negative zero, (m + m^dag) / 2 is m bit for bit, so
            # the spectrum keeps the bits of the symmetrized matrix's
            m = _hermitian_with_zeros(rng, n, (0.0,))
            half = (m + m.conj().T) / 2
            assert not _has_negative_zero(m) and half.tobytes() == m.tobytes()
            deviation, vals = hermitian_spectrum(m)
            assert deviation == 0.0
            assert vals.tobytes() == np.linalg.eigvalsh(half).tobytes()
            # a negative zero can change sign in (m + m^dag) / 2, and with it
            # LAPACK's reflections and the last bits of the eigenvalues; m
            # itself is what is decomposed
            m = _hermitian_with_zeros(rng, n, (0.0, -0.0))
            deviation, vals = hermitian_spectrum(m)
            assert deviation == 0.0
            assert vals.tobytes() == np.linalg.eigvalsh(m).tobytes()
            assert np.allclose(vals, np.linalg.eigvalsh((m + m.conj().T) / 2), rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan), complex(0.0, np.inf)])
@pytest.mark.parametrize("n", [2, 3])
def test_hermitian_spectrum_rejects_non_finite_entries(bad, n):
    for i, j in ((0, 0), (0, n - 1), (n - 1, 0)):
        m = np.eye(n, dtype=np.complex128) / n
        m[i, j] = bad
        with np.errstate(invalid="ignore"), pytest.raises(ShapeMismatch, match="finite"):
            hermitian_spectrum(m)


def test_kron_is_np_kron_byte_for_byte():
    rng = np.random.default_rng(23)
    factors = []
    for p in range(1, 5):
        for q in range(1, 5):
            factors.append(rng.standard_normal((p, q)) + 1j * rng.standard_normal((p, q)))
            factors.append(rng.standard_normal((p, q)))
        factors.append(np.eye(p))
    factors.append(np.array([[complex(-0.0, 0.0), complex(1.0, -0.0)], [-1.0, complex(-0.0, -0.0)]]))
    for a in factors:
        for b in factors:
            expected = np.kron(a, b)
            out = kron(a, b)
            assert out.shape == expected.shape and out.dtype == expected.dtype
            assert out.tobytes() == expected.tobytes()


_NOT_PROBABILITY_VECTORS = {
    "nan": [np.nan, 1.0],
    "inf": [np.inf, 0.0],
    "minus-inf": [-np.inf, 1.0],
    "negative": [1.5, -0.5],
    "bad-sum": [0.5, 0.4],
    "empty": [],
    "2-d": [[0.5, 0.5]],
}


@pytest.mark.parametrize("p", _NOT_PROBABILITY_VECTORS.values(), ids=_NOT_PROBABILITY_VECTORS.keys())
def test_one_vector_check_rejects_every_malformed_vector(p):
    with pytest.raises(NotProbabilityVector):
        shannon(p)
    shape = AlgebraShape((1,) * max(len(p), 1))
    ones = (np.ones((1, 1)),) * len(shape)
    # a state checks its shape first
    vector = np.ndim(p) == 1 and len(p) > 0
    expected = NotProbabilityVector if vector else ShapeMismatch
    with pytest.raises(expected):
        State(shape, p, ones)


def test_vector_check_returns_a_new_array_clipped_at_positive_zero():
    p = np.array([-0.0, 1.0, -1e-12])
    q = check_probability_vector(p)
    assert q is not p and not np.shares_memory(q, p)
    assert q.tolist() == [0.0, 1.0, 0.0] and not np.signbit(q).any()
    assert np.signbit(p[0])  # the input is left as it was


def test_sample_unitary_phase_for_dim_one():
    u = sample_unitary(1, Seed(0).rng())
    assert abs(abs(u[0, 0]) - 1.0) < 1e-12


def test_sample_unitary_deterministic_and_unitary():
    u1 = sample_unitary(3, Seed(42, 5).rng())
    u2 = sample_unitary(3, Seed(42, 5).rng())
    assert np.array_equal(u1, u2)
    assert max_abs(u1.conj().T @ u1 - np.eye(3)) < 1e-10
    assert not np.allclose(u1, sample_unitary(3, Seed(42, 6).rng()))


def test_sample_unitary_haar_moment():
    # Haar oracle: E|U_00|^2 = 1/n for an n x n Haar unitary
    vals = [abs(sample_unitary(3, Seed(1, k).rng())[0, 0]) ** 2 for k in range(1000)]
    assert abs(np.mean(vals) - 1.0 / 3.0) < 0.05


def test_sample_density_dim_one():
    assert np.allclose(sample_density(1, Seed(2).rng()), [[1.0]])


def test_sample_density_valid():
    rho = sample_density(4, Seed(3).rng())
    vals = np.linalg.eigvalsh(rho)
    assert vals[0] > -1e-12
    assert abs(vals.sum() - 1.0) < 1e-12


def test_sample_density_mean_purity():
    # Monte-Carlo oracle for the square-Ginibre-induced ensemble; the exact
    # first moment of tr(rho^2) is (n + k)/(nk + 1) = 4/5 at n = k = 2
    vals = [np.trace(sample_density(2, Seed(4, k).rng()) @ sample_density(2, Seed(4, k).rng())).real for k in range(1000)]
    assert abs(np.mean(vals) - 0.8) < 0.02


def test_sample_simplex():
    p = sample_simplex(5, Seed(6).rng())
    assert abs(p.sum() - 1.0) < 1e-12
    assert np.min(p) >= 0.0
    assert np.array_equal(p, sample_simplex(5, Seed(6).rng()))


@pytest.mark.parametrize("seed, stream", [(0, 0), (42, 5), (7, 123456), (2**40, 1)])
def test_public_samplers_draw_from_their_seed_substream(seed, stream):
    # each sampler draws from the generator it is given exactly as below
    def inline():
        key = np.random.SeedSequence(entropy=seed, spawn_key=(stream,))
        return np.random.default_rng(key)

    key = Seed(seed, stream)
    for n in (1, 2, 4, 8):
        rng = inline()
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        q, r = np.linalg.qr(g)
        d = np.diagonal(r)
        assert sample_unitary(n, key.rng()).tobytes() == (q * (d / np.abs(d))).tobytes()
        for rank in (None, 1, 2):
            rng = inline()
            k = n if rank is None else rank
            g = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
            w = g @ g.conj().T
            w = w / w.trace().real
            assert sample_density(n, key.rng(), rank=rank).tobytes() == ((w + w.conj().T) / 2).tobytes()
        assert sample_simplex(n, key.rng()).tobytes() == inline().dirichlet(np.ones(n)).tobytes()
        for k in (1, n, 3):
            rng = inline()
            reference = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
            assert _ginibre(n, k, key.rng()).tobytes() == reference.tobytes()


def test_matrix_json_round_trip():
    m = np.array([[1.0 + 2.0j, 0.5], [-1.0j, 3.0]])
    assert np.array_equal(matrix_from_json(matrix_to_json(m)), m)
    with pytest.raises(ShapeMismatch):
        matrix_from_json([[[1, 0]], [[1, 0], [0, 0]]])
    for entry in ([0.5, 0, 7], [0.5], [], 0.5, "ab", [10**310, 0]):
        with pytest.raises(ShapeMismatch):
            matrix_from_json([[entry]])


def _entrywise_json(m):
    """The per-entry encoding that ``matrix_to_json`` must reproduce."""
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m, dtype=np.complex128)]


def test_matrix_to_json_matches_entrywise_encoding():
    rng = np.random.default_rng(11)
    cases = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for n in (1, 2, 3, 7, 16, 64)]
    cases.append(rng.integers(-5, 6, size=(4, 4)) + 1j * rng.integers(-5, 6, size=(4, 4)))
    cases.append(np.array([[0.0, -0.0], [complex(0.0, -0.0), complex(-0.0, -0.0)]]))
    for m in cases:
        encoded = matrix_to_json(m)
        assert json.dumps(encoded) == json.dumps(_entrywise_json(m))
        back = matrix_from_json(json.loads(json.dumps(encoded)))
        assert np.array_equal(back, m)
        assert np.array_equal(np.signbit(back.real), np.signbit(np.real(m)))
        assert np.array_equal(np.signbit(back.imag), np.signbit(np.imag(m)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("part", ["real", "imag"])
def test_as_matrix_rejects_non_finite_entries(bad, part):
    m = np.eye(2, dtype=np.complex128)
    m[0, 1] = complex(bad, 0.0) if part == "real" else complex(0.0, bad)
    with pytest.raises(ShapeMismatch, match="finite"):
        as_matrix(m)


def _eigh_support(h, k):
    """The product of the top k eigenvectors of ``np.linalg.eigh(h)``, in descending order, with their adjoint."""
    cols = np.linalg.eigh(h)[1][:, h.shape[0] - k :][:, ::-1]
    return cols @ cols.conj().T


def _no_eigh(m):
    raise AssertionError("the low-rank support fell back to hermitian_eigh")


def _no_low_rank_support(h, vals, k):
    raise AssertionError("a block outside the low-rank range took the low-rank path")


@pytest.mark.parametrize("m, k", [(16, 4), (64, 8), (112, 12), (256, 8)])
def test_a_low_rank_support_is_the_eigh_projection(m, k):
    rho = sample_density(m, np.random.default_rng(m + k), rank=k)
    vals = check_density(rho)
    q, bound = linalg._low_rank_support(rho, vals, k)
    assert bound <= SUPPORT_SLACK
    assert frobenius_norm(q @ q.conj().T - _eigh_support(rho, k)) <= 1e-13


@pytest.mark.parametrize(
    "m, k, low_rank",
    [(16, 4, False), (31, 7, False), (32, 8, True), (32, 9, False), (64, 1, True), (64, 16, True), (64, 17, False)],
)
def test_blocks_from_dimension_32_with_4k_at_most_m_take_the_low_rank_path(m, k, low_rank, monkeypatch):
    rho = sample_density(m, np.random.default_rng(m + k), rank=k)
    vals = check_density(rho)
    expected = _eigh_support(rho, k)
    if low_rank:
        monkeypatch.setattr(linalg, "hermitian_eigh", _no_eigh)
    else:
        monkeypatch.setattr(linalg, "_low_rank_support", _no_low_rank_support)
    assert frobenius_norm(support_projection(rho, vals, k) - expected) <= 1e-13


def test_small_exactly_hermitian_blocks_keep_the_eigh_bits():
    rng = np.random.default_rng(3)
    for m in (1, 2, 3, 4):
        for rank in range(1, m + 1):
            rho = sample_density(m, rng, rank=rank)
            vals, vecs = np.linalg.eigh(rho)
            cols = vecs[:, vals > DEFAULT_TOL][:, ::-1]
            kept = check_density(rho)
            assert np.array_equal(support_projection(rho, kept, np.count_nonzero(kept > DEFAULT_TOL)), cols @ cols.conj().T)


def _parallel_columns():
    """0.9 |v><v| + 0.1 |w><w| on M_32, v = (e0 + e1)/sqrt 2: the two columns of largest diagonal are parallel."""
    m = 32
    v = np.zeros(m, dtype=complex)
    v[:2] = 1 / np.sqrt(2)
    w = np.zeros(m, dtype=complex)
    w[2:] = np.exp(2j * np.pi * np.arange(m - 2) / 7) / np.sqrt(m - 2)
    return hermitian_part(0.9 * np.outer(v, v.conj()) + 0.1 * np.outer(w, w.conj())), 2


def _tiny_kept_eigenvalue():
    """A rank-4 density on M_32 whose smallest kept eigenvalue, 3e-10, leaves too small a gap."""
    u = sample_unitary(32, np.random.default_rng(5))[:, :4]
    return hermitian_part((u * [0.5, 0.3, 0.2 - 3e-10, 3e-10]) @ u.conj().T), 4


@pytest.mark.parametrize(
    "case, lowest, highest",
    [(_parallel_columns, np.inf, np.inf), (_tiny_kept_eigenvalue, 1e-6, 1e-4)],
    ids=["parallel-columns", "tiny-kept-eigenvalue"],
)
def test_a_refused_certificate_falls_back_to_eigh_bit_for_bit(case, lowest, highest):
    rho, k = case()
    vals = check_density(rho)
    assert np.count_nonzero(vals > DEFAULT_TOL) == k
    assert lowest <= linalg._low_rank_support(rho, vals, k)[1] <= highest
    assert np.array_equal(support_projection(rho, vals, k), _eigh_support(rho, k))


def _rounding_count(n):
    """2s + ceil(n / s), s = isqrt(2n): the roundings of a product whose inner dimension n is summed in chunks of s."""
    s = math.isqrt(2 * n)
    return 2 * s + (n + s - 1) // s


def test_chunked_products_count_their_roundings():
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((2, 10_000)), rng.standard_normal((10_000, 3))
    for n in range(1, 10_001):
        out, count = linalg._chunked_matmul(a[:, :n], b[:n])
        assert count == _rounding_count(n)
        if n % 997 == 0:
            assert max_abs(out - a[:, :n] @ b[:n]) <= 1e-12 * n
    assert _rounding_count(112) == 36  # 2m = 224 for a plain product


def _sqrt_below(x):
    """A rational lower bound on the square root of the rational ``x``, within 1e-30."""
    return Fraction(math.isqrt(math.floor(x * 10**60)), 10**30)


def _proven_support_bound(m, k, norms, theta, lam):
    """``_low_rank_support``'s proof evaluated exactly: the least bound the proof allows from what it measured.

    ``norms`` are ``frobenius_norm`` of Q, H, B, ``Q^dag Q - I`` and R, each at
    most 1.0002 times the norm it stands for, and ``gamma_n = n u / (1 - n u)``.
    """
    u = Fraction(1, 2**53)
    f_q, f_h, f_b, f_d, f_r = (Fraction(10002, 10000) * Fraction(x) for x in norms)

    def gamma(n):  # sqrt(2) gamma_n, from below
        return _sqrt_below(Fraction(2)) * n * u / (1 - n * u)

    c_m, c_k = _rounding_count(m), _rounding_count(k)
    eps = f_d + gamma(c_m) * f_q**2
    r = f_r + (gamma(c_m) * f_h + gamma(c_k) * f_b) * f_q
    delta = Fraction(theta) - Fraction(lam) - u * (k * k * f_b + m * m * f_h)
    sigma = r / delta
    return _sqrt_below(2 * (1 + eps)) * sigma + eps + 2 * sigma**2 + gamma(2 * k) * f_q**2


def _diagonal(values, m):
    return np.diag(np.array(values + [0.0] * (m - len(values)), dtype=complex))


@pytest.mark.parametrize(
    "case",
    [
        lambda: (sample_density(64, np.random.default_rng(1), rank=8), 8),
        lambda: (sample_density(112, np.random.default_rng(2), rank=12), 12),
        lambda: (sample_density(256, np.random.default_rng(3), rank=8), 8),
        # an exact basis and a wide gap: the rounding terms eps and gamma_2k q^2 carry the bound
        lambda: (_diagonal([0.25] * 4, 32), 4),
        # an exact basis and a gap of 6e-13, 43% of it taken by the eigenvalues' rounding: sigma is 0.05
        lambda: (_diagonal([1.0] * 4 + [1.0 - 6e-13], 32), 4),
        _tiny_kept_eigenvalue,
    ],
    ids=["64-8", "112-12", "256-8", "wide-gap", "narrow-gap", "tiny-kept-eigenvalue"],
)
def test_the_low_rank_support_bound_is_its_proof(case, monkeypatch):
    h, k = case()
    m = h.shape[0]
    vals = hermitian_spectrum(h)[1]
    norms, spectra = [], []
    norm, spectrum = linalg.frobenius_norm, linalg.hermitian_spectrum
    monkeypatch.setattr(linalg, "frobenius_norm", lambda x: norms.append(norm(x)) or norms[-1])
    monkeypatch.setattr(linalg, "hermitian_spectrum", lambda x: spectra.append(spectrum(x)) or spectra[-1])
    bound = linalg._low_rank_support(h, vals, k)[1]
    assert len(norms) == 5 and len(spectra) == 1
    proven = _proven_support_bound(m, k, norms, spectra[0][1][0], vals[m - k - 1])
    assert proven <= Fraction(bound) <= Fraction(1004, 1000) * proven  # the function's margins: 1.001 over 1.0002 and 1 + n u


def test_the_low_rank_support_bound_holds_against_40_digits():
    # a rank-4 density on M_16 whose smallest kept eigenvalue t shrinks 10x per
    # step: the gap below it shrinks with it until the certificate refuses
    from mpmath import mp  # a test dependency only: the library stays numpy-only
    u = sample_unitary(16, np.random.default_rng(5))[:, :4]
    accepted, t = 0, 0.1
    while True:
        h = hermitian_part((u * [0.4, 0.3, 0.3 - t, t]) @ u.conj().T)
        vals = check_density(h)
        assert np.count_nonzero(vals > DEFAULT_TOL) == 4
        q, bound = linalg._low_rank_support(h, vals, 4)
        if bound > SUPPORT_SLACK:
            break
        with mp.workdps(40):
            vecs = mp.eighe(mp.matrix(h.tolist()))[1][:, 12:]  # ascending: the 4 largest eigenvalues' vectors
            assert mp.mnorm(mp.matrix((q @ q.conj().T).tolist()) - vecs * vecs.H, "F") <= bound
        accepted, t = accepted + 1, t / 10
    assert accepted >= 2
