"""Dense complex-matrix kernel and the one home of value validation.

Hermitian eigendecompositions in LAPACK's ascending order, Kronecker
products, and sampling of unitaries, density matrices, and simplex
points: each sampler draws from the ``numpy.random.Generator`` it is
given, such as ``Seed(...).rng()``.
Every other module decides "is this a density?" with ``check_density``,
"is this a probability vector?" with ``check_probability_vector``, takes
Hermitian spectra from ``hermitian_spectrum``, the package's one
``eigvalsh`` call (a 1x1 spectrum is read off the entry), eigenvectors
from ``hermitian_eigh``, its one ``eigh`` call (both decompose an exactly
Hermitian matrix without symmetrizing it), support blocks
from ``support_projection``, and forms
Kronecker products with ``kron``, which has ``np.kron``'s bits.  Hot
reductions call the ufuncs' ``reduce``, skipping the Python wrappers of
``ndarray.sum``/``max``/``min``.
Every threshold here is ``DEFAULT_TOL``, and ``SUPPORT_SLACK`` bounds
the error of a low-rank support block.  Everything here is a pure
function of its inputs; matrices are plain ``numpy`` arrays of ``complex128``, and
``placeholder(n)``/``identity_matrix(n)`` are shared read-only, one per dimension.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import IndexOutOfRange, NotDensity, NotProbabilityVector, ShapeMismatch

# One tolerance governs every "is zero / is PSD / is Hermitian" decision
# so the verification suites stay coherent.
DEFAULT_TOL = 1e-10
# support_projection keeps a low-rank basis only when its projection is
# proven within this Frobenius distance of the exact spectral projection
SUPPORT_SLACK = DEFAULT_TOL / 100
_UNIT_ROUNDOFF = 2.0**-53  # u, the unit roundoff of binary64: the proven rounding bounds scale it

_placeholders: dict[int, tuple[np.ndarray, np.ndarray]] = {}  # n -> placeholder(n) and its spectrum


@dataclass(frozen=True)
class Seed:
    """Deterministic RNG key: a 64-bit seed plus a stream index.

    Identical ``(seed, stream)`` pairs reproduce identical sample
    sequences.  ``rng()`` is the generator of the
    ``numpy.random.SeedSequence`` with spawn key ``(stream,)``;
    ``child(i)`` is the key of trial ``i``.  A harness trial builds one
    generator, ``rng()``, from its key and draws everything from it in
    program order; the samplers below draw from the generator they are given.
    """

    seed: int
    stream: int = 0

    def rng(self) -> np.random.Generator:
        key = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream,))
        return np.random.default_rng(key)

    def child(self, index: int) -> "Seed":
        # Bijective LCG step keeps child streams distinct and within uint32.
        return Seed(self.seed, (self.stream * 0x9E3779B1 + index + 1) % (1 << 32))


def is_integer(v) -> bool:
    """True for a Python or numpy integer; a bool is not one."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def check_block_index(block, count: int) -> None:
    """Raise IndexOutOfRange unless ``block`` is an integer in ``0..count - 1``."""
    if not (is_integer(block) and 0 <= block < count):
        raise IndexOutOfRange(f"block index {block!r} is not an integer in 0..{count - 1}")


def as_numbers(a, kinds: str, what: str) -> np.ndarray:
    """``np.asarray(a)``; ShapeMismatch, before any cast, for a ragged nesting or a dtype kind outside ``kinds``.

    ``kinds`` is ``"iuf"`` (real numbers) or ``"iufc"``: text, booleans and objects (Python integers beyond int64) are refused.
    """
    try:
        a = np.asarray(a)
    except ValueError as exc:  # numpy refuses a ragged nesting
        raise ShapeMismatch(f"{what} must form a regular array: {exc}") from exc
    if a.dtype.kind not in kinds:
        raise ShapeMismatch(f"{what} must be {'numbers' if 'c' in kinds else 'real numbers'}, got dtype {a.dtype}")
    return a


def as_matrix(m) -> np.ndarray:
    a = as_numbers(m, "iufc", "matrix entries").astype(np.complex128, copy=False)
    if a.ndim != 2:
        raise ShapeMismatch(f"expected a matrix, got array of ndim {a.ndim}")
    if not np.logical_and.reduce(np.isfinite(a), axis=None):  # a complex entry is finite iff both parts are
        raise ShapeMismatch("matrix entries must be finite")
    return a


def max_abs(m: np.ndarray) -> float:
    """Max-norm ``max |m_ij|``; 0 for empty arrays."""
    return float(np.maximum.reduce(np.abs(m), axis=None)) if m.size else 0.0


def frobenius_norm(m: np.ndarray) -> float:
    """``||m||_F = sqrt(sum |m_ij|^2)``, by one ``np.vdot``; NaN if an entry is."""
    return math.sqrt(np.vdot(m, m).real)


def hermitian_part(x: np.ndarray) -> np.ndarray:
    """``(x + x^dag) / 2``."""
    return (x + x.conj().T) / 2


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two matrices: the products ``np.kron`` forms, by one broadcast multiply."""
    (p, q), (r, t) = a.shape, b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(p * r, q * t)


def block_diag(blocks) -> np.ndarray:
    """Complex matrix with the square ``blocks`` down its diagonal and zeros elsewhere."""
    dims = [b.shape[0] for b in blocks]
    out = np.zeros((sum(dims), sum(dims)), dtype=np.complex128)
    start = 0
    for b, n in zip(blocks, dims):
        out[start : start + n, start : start + n] = b
        start += n
    return out


def hermitian_spectrum(m: np.ndarray) -> tuple[float, np.ndarray]:
    """Hermitian deviation ``max |m - m^dag|`` and the ascending eigenvalues of ``(m + m^dag)/2``.

    A 1x1 matrix ``[[z]]`` is answered from its entry with the same bits:
    the deviation is ``|z - conj(z)|``, and the eigenvalue is the real part
    of ``(z + conj(z))/2``, which is what LAPACK returns for n = 1.  At
    deviation 0.0 ``m`` itself is decomposed: it equals ``(m + m^dag)/2``,
    in bits too unless it holds a negative zero, whose sign the sum may flip
    (and with it the eigenvalues' last bits).  Overflow rule: only a NaN or infinite entry
    raises ShapeMismatch; a finite ``m`` that overflows gets deviation inf or a non-finite spectrum, silently.
    """
    if m.shape == (1, 1):
        z = m.item(0)
        deviation = abs(z - z.conjugate())
        if not math.isfinite(deviation) and not cmath.isfinite(z):
            raise ShapeMismatch("matrix entries must be finite")
        return deviation, np.array([((z + z.conjugate()) / 2).real])
    deviation, h = _spectral_matrix(m)
    try:
        return deviation, np.linalg.eigvalsh(h)
    except np.linalg.LinAlgError:  # LAPACK does not converge on a Hermitian part that overflowed to inf or NaN
        return deviation, np.full(len(h), math.nan)


def hermitian_eigh(m: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """``hermitian_spectrum``'s deviation, then the ascending eigenvalues and unitary eigenvector columns V of its matrix H.

    ``H == V @ diag(vals) @ V^dag``; H is ``m`` itself at deviation 0.0 and ``(m + m^dag)/2`` otherwise.
    Overflow rule: as ``hermitian_spectrum``'s; where LAPACK does not converge the eigenvalues and eigenvectors are NaN.
    """
    deviation, h = _spectral_matrix(m)
    try:
        return deviation, *np.linalg.eigh(h)
    except np.linalg.LinAlgError:  # LAPACK does not converge on a Hermitian part that overflowed to inf or NaN
        return deviation, np.full(len(h), math.nan), np.full(h.shape, complex(math.nan, math.nan))


def _spectral_matrix(m: np.ndarray) -> tuple[float, np.ndarray]:
    """``max |m - m^dag|`` and the Hermitian matrix that ``hermitian_spectrum`` and ``hermitian_eigh`` decompose.

    That is ``m`` itself at deviation 0.0 and ``(m + m^dag)/2`` otherwise.
    Overflow rule: both are formed under ``np.errstate(over="ignore", invalid="ignore")``,
    and only a NaN or infinite entry raises ShapeMismatch.
    """
    adjoint = m.conj().T
    with np.errstate(over="ignore", invalid="ignore"):
        deviation = float(np.maximum.reduce(np.abs(m - adjoint), axis=None))
        h = m if deviation == 0.0 else (m + adjoint) / 2
    if not math.isfinite(deviation) and not np.logical_and.reduce(np.isfinite(m), axis=None):
        raise ShapeMismatch("matrix entries must be finite")
    return deviation, h


def check_density(rho: np.ndarray) -> np.ndarray:
    """Raise NotDensity unless ``rho`` is a density within ``DEFAULT_TOL``; returns ``hermitian_spectrum(rho)[1]``.

    The shared ``placeholder(n)`` itself (not an equal array) returns its kept spectrum.
    Overflow rule: a finite ``rho`` whose deviation, spectrum or trace (a sum of Python floats)
    overflows to inf or NaN raises NotDensity, without a numpy warning.
    """
    kept = _placeholders.get(rho.shape[0])
    if kept is not None and kept[0] is rho:
        return kept[1]
    if rho.shape[0] != rho.shape[1] or rho.size == 0:
        raise NotDensity(f"density must be a nonempty square matrix, got {rho.shape}")
    deviation, vals = hermitian_spectrum(rho)
    if deviation > DEFAULT_TOL:
        raise NotDensity(f"density deviates from Hermitian by {deviation:.3e}")
    if not vals[0] >= -DEFAULT_TOL:  # a NaN spectrum fails
        if not math.isfinite(vals[0]):
            raise NotDensity("density spectrum is not finite")
        raise NotDensity(f"density has eigenvalue {vals[0]:.3e} < -{DEFAULT_TOL:.3e}")
    trace = sum(vals.tolist())
    if not abs(trace - 1.0) <= DEFAULT_TOL:
        raise NotDensity(f"density trace {trace:.12g} != 1 within {DEFAULT_TOL:.3e}")
    return vals


def check_probability_vector(p) -> np.ndarray:
    """Raise NotProbabilityVector unless ``p`` is a probability vector within ``DEFAULT_TOL``; returns it clipped at 0.

    Entries that are not real numbers (text, booleans, complex) raise ShapeMismatch before any cast.
    Overflow rule: the sum is of Python floats, so finite entries that overflow fail it at inf, silently."""
    p = as_numbers(p, "iuf", "probability vector entries").astype(np.float64, copy=False)
    if p.ndim != 1 or p.size == 0:
        raise NotProbabilityVector(f"expected a nonempty vector, got shape {p.shape}")
    total = sum(p.tolist())  # finite unless an entry is not, or the sum overflows
    if not math.isfinite(total) and not np.isfinite(p).all():
        raise NotProbabilityVector("entries must be finite")
    lowest = np.minimum.reduce(p)
    if lowest < -DEFAULT_TOL:
        raise NotProbabilityVector(f"entry {lowest:.3e} is negative")
    if abs(total - 1.0) > DEFAULT_TOL:
        raise NotProbabilityVector(f"entries sum to {total:.12g}, not 1 within {DEFAULT_TOL:.3e}")
    return np.maximum(p, 0.0)


def placeholder(n: int) -> np.ndarray:
    """The shared ``eye(n) / n``, kept with its spectrum ``n`` times ``1 / n``, written down and not decomposed.

    That is ``hermitian_spectrum``'s answer bit for bit: LAPACK splits a scaled identity into 1x1 blocks.
    """
    if n not in _placeholders:
        rho = np.eye(n, dtype=np.complex128) / n
        rho.flags.writeable = False
        vals = np.full(n, 1.0 / n)
        vals.flags.writeable = False
        _placeholders[n] = rho, vals
    return _placeholders[n][0]


@functools.cache
def identity_matrix(n: int) -> np.ndarray:
    """The shared ``n x n`` complex identity; ``Morphism`` takes it as a unitary without a product."""
    eye = np.eye(n, dtype=np.complex128)
    eye.flags.writeable = False
    return eye


def support_projection(rho: np.ndarray, vals: np.ndarray, k: int) -> np.ndarray:
    """The projection onto the eigenvectors of ``rho``'s k largest eigenvalues; the zero block at k = 0.

    ``vals`` is ``check_density(rho)``, the ascending spectrum that
    ``State`` keeps: that of the Hermitian matrix H that ``hermitian_spectrum``
    decomposes, ``rho`` itself when it is exactly Hermitian and its
    Hermitian part otherwise.  The projection is of H; ``state.support``
    passes k = the count of ``p * vals`` above ``DEFAULT_TOL``.  A block of
    dimension m >= 32 with 4k <= m takes the O(m^2 k) ``_low_rank_support``
    and keeps it when its bound is at most ``SUPPORT_SLACK``; every other
    block, and a refused one, takes the top k columns of ``hermitian_eigh(rho)``.
    """
    m = rho.shape[0]
    if k == 0:
        return np.zeros((m, m), dtype=np.complex128)
    if m >= 32 and 4 * k <= m:  # on smaller blocks, or at k above m/4, eigh is about as fast
        q, bound = _low_rank_support(_spectral_matrix(rho)[1], vals, k)
        if bound <= SUPPORT_SLACK:
            return q @ q.conj().T
    cols = hermitian_eigh(rho)[2][:, m - k :][:, ::-1]  # descending: the product's rounding depends on the column order
    return cols @ cols.conj().T


def _low_rank_support(h: np.ndarray, vals: np.ndarray, k: int) -> tuple[np.ndarray, float]:
    """A basis Q of k columns of H, and a bound on ``||fl(Q Q^dag) - P||_F``.

    H is an exactly Hermitian m x m matrix, ``vals`` its spectrum as
    ``eigvalsh`` computed it, and P its spectral projection onto its k
    largest eigenvalues.  Q is the computed QR basis of the k columns of H
    with the largest diagonal entries, B the Hermitian part of the computed
    ``Q^dag (HQ)``, theta its least eigenvalue, and lambda = ``vals[m-k-1]``
    the largest dropped eigenvalue.  The bound is ``inf`` unless the gap
    below is positive.

    Exact part.  Let V, V' hold orthonormal eigenvectors of H for its k
    largest and its m - k other eigenvalues, L' the latter, c = V^dag Q,
    s = V'^dag Q, R = HQ - QB and eps >= ||Q^dag Q - I||_F.  If every
    eigenvalue of B exceeds every one of L' by delta > 0, then
    ``V'^dag R = L' s - s B``, and in B's eigenbasis each entry of s is that
    of ``V'^dag R`` divided by a difference of at least delta, so
    ``||s||_F <= sigma = ||R||_F / delta`` (the sin-theta theorem: Davis &
    Kahan, SIAM J. Numer. Anal. 7, 1970).  In the basis (V, V'),
    ``Q Q^dag - P`` has the blocks ``c c^dag - I``, ``c s^dag``, its adjoint
    and ``s s^dag``; ``c c^dag - I`` has the singular values of
    ``c^dag c - I = Q^dag Q - I - s^dag s``, and ``||c||_2^2 <= 1 + eps``, so::

        ||Q Q^dag - P||_F <= (eps + sigma^2) + sqrt(2 (1 + eps)) sigma + sigma^2.

    P is unique where this is below 1/2: were the (m-k)th and (m-k+1)th
    eigenvalues equal, one more column in V' would give
    ``1 - eps <= sigma^2``.

    Rounding.  u = 2^-53, and m <= 2^20 (a larger dense block needs over
    16 TiB), so every count n below has nu < 2^-12 and
    ``gamma_n = nu / (1 - nu) < 1.001 nu``.  Products are conventional
    inner products, in any order and with or without fused multiply-adds.
    Either part of an entry of a product that ``_chunked_matmul`` sums over
    an inner dimension n in chunks of s is a real sum of 2s products per
    chunk plus ceil(n/s) - 1 additions of the chunks' sums, and the two
    real products of each part of ``a b`` add up to at most ``|a| |b|``; so
    the product is within ``sqrt(2) gamma_c(n) |A| |B|`` of the exact one
    entrywise and within ``sqrt(2) gamma_c(n) ||A||_F ||B||_F`` in norm,
    c(n) = 2s + ceil(n/s) being the count it returns (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2nd ed., 3.1, 3.6 and Lemma 3.3).
    A plain product has c = 2n.  ``frobenius_norm`` sums nonnegative
    squares, so ``F(X) = 1.001 frobenius_norm(X) >= ||X||_F``; its margin
    over the 1.0002 it needs covers the relative u of each scalar operation
    below (the subtraction in delta cancels only where sigma is far above
    1).  Any Hermitian B serves above, so B's own rounding does not enter.
    With q = F(Q), the computed ``D = Q^dag Q - I`` gives
    ``eps = F(D) + sqrt(2) gamma_c(m) q^2``, and the computed
    ``R^ = fl(fl(HQ) - fl(QB))`` gives ``||R||_F <= r = F(R^) +
    sqrt(2) (gamma_c(m) F(H) + gamma_c(k) F(B)) q``.  LAPACK's Hermitian
    eigenvalues lie within ``p(n) u ||A||_2`` of the exact ones, p a
    modestly growing function (LAPACK Users' Guide, 3rd ed., 4.7); with
    p(n) = n^2, ``delta = theta - lambda - u (k^2 F(B) + m^2 F(H))``.  The
    returned ``fl(Q Q^dag)``, a plain product of inner dimension k, adds
    ``sqrt(2) gamma_2k q^2``.
    """
    m = h.shape[0]
    cols = np.argsort(h.diagonal().real)[::-1][:k]  # largest diagonal first
    q = np.linalg.qr(h[:, cols])[0]
    q_adj = q.conj().T
    z, terms_m = _chunked_matmul(h, q)
    b = hermitian_part(q_adj @ z)
    theta = hermitian_spectrum(b)[1][0]
    qb, terms_k = _chunked_matmul(q, b)
    gram = _chunked_matmul(q_adj, q)[0]
    gram[np.diag_indices(k)] -= 1.0
    f_q, f_h, f_b, f_d, f_r = (1.001 * frobenius_norm(x) for x in (q, h, b, gram, z - qb))

    def gamma(n):  # sqrt(2) gamma_n
        return math.sqrt(2.0) * 1.001 * _UNIT_ROUNDOFF * n

    eps = f_d + gamma(terms_m) * f_q * f_q
    r = f_r + (gamma(terms_m) * f_h + gamma(terms_k) * f_b) * f_q
    delta = theta - vals[m - k - 1] - _UNIT_ROUNDOFF * (k * k * f_b + m * m * f_h)
    if not delta > 0.0:
        return q, math.inf
    sigma = r / delta
    return q, math.sqrt(2.0 * (1.0 + eps)) * sigma + eps + 2.0 * sigma * sigma + gamma(2 * k) * f_q * f_q


def _chunked_matmul(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, int]:
    """``a @ b`` with its inner dimension n summed in chunks of s = ``isqrt(2n)``, and the rounding count 2s + ceil(n/s).

    A plain product's rounding count is 2n; this one's grows with about sqrt(8n).
    """
    n = a.shape[1]
    s = math.isqrt(2 * n)
    out = a[:, :s] @ b[:s]
    for i in range(s, n, s):
        out += a[:, i : i + s] @ b[i : i + s]
    return out, 2 * s + -(-n // s)


def project_to_density(rho: np.ndarray) -> np.ndarray:
    """``(rho + rho^dag)/2`` with its negative eigenvalues set to 0 and the others rescaled to sum 1.

    The one projection onto densities: ``rho`` needs a positive trace, and
    the result is a density up to the rounding of one product.
    """
    vals, vecs = hermitian_eigh(rho)[1:]
    vals = np.clip(vals, 0.0, None)
    vals /= vals.sum()
    return (vecs * vals) @ vecs.conj().T


def _ginibre(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """Complex Ginibre ``n x k`` matrix from one ``standard_normal`` draw: the stream of two, real part first."""
    re, im = rng.standard_normal((2, n, k))
    return re + 1j * im


def sample_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random ``n x n`` unitary (QR of a complex Ginibre matrix).

    The QR phase ambiguity is fixed by making the diagonal of R positive,
    which is what makes the distribution Haar rather than merely unitary.
    """
    q, r = np.linalg.qr(_ginibre(n, n, rng))
    d = r.diagonal()
    return q * (d / np.abs(d))


def sample_density(n: int, rng: np.random.Generator, rank: int | None = None) -> np.ndarray:
    """Random density matrix ``G G^dag / tr(G G^dag)`` for complex Gaussian G.

    ``rank`` restricts G to ``n x rank`` columns, producing a density of
    that rank almost surely.
    """
    g = _ginibre(n, n if rank is None else rank, rng)
    w = g @ g.conj().T
    return hermitian_part(w / w.trace().real)


def sample_simplex(n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform (Dirichlet(1,...,1)) point on the probability simplex."""
    return rng.dirichlet(np.ones(n))


def matrix_to_json(m: np.ndarray) -> list:
    """Row-major nested lists; each complex entry becomes ``[re, im]``."""
    m = as_matrix(m)
    return np.stack((m.real, m.imag), axis=-1).tolist()


def matrix_from_json(data) -> np.ndarray:
    """Inverse of ``matrix_to_json``; every entry must be exactly ``[re, im]``."""
    try:
        rows = [[complex(re, im) for re, im in row] for row in data]
    except (TypeError, ValueError, OverflowError) as exc:
        raise ShapeMismatch(f"malformed matrix encoding: {exc}") from exc
    if not rows or any(len(r) != len(rows[0]) for r in rows):
        raise ShapeMismatch("matrix rows must be nonempty and of equal length")
    return as_matrix(rows)
