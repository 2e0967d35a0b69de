"""Classical and quantum disintegrations and their entropy production.

A classical disintegration is a stochastic one-sided inverse of a
probability-preserving map of finite sets; it always exists.  The
quantum analogue asks each weighted codomain density, conjugated into
the canonical layout, to equal ``R_x = blockdiag_y(tau_yx (x) q_y sigma_y)``
with PSD ``tau`` blocks normalized per domain block, which one residual
per codomain block decides; existence then forces a nonnegative entropy
change, equal to a weighted entropy of the assembled ``tau`` blocks.

``disintegration_entropy`` re-checks a witness on its own: per codomain
block every entry of ``E_x = U_x^dag (p_x rho_x) U_x - R_x`` must be at
most ``FACTOR_TOL``.  Most witnesses are accepted by one ``m^3`` product and
a proven bound on ``max |E_x|`` (``_verify_witness``); only the others
have ``E_x`` formed entrywise, so the check accepts exactly the witnesses
whose entrywise residual is within the threshold,
``quantum_disintegrate``'s among them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entropy import _plogp
from .errors import InconsistentData, ShapeMismatch
from .linalg import (
    DEFAULT_TOL,
    _UNIT_ROUNDOFF,
    block_diag,
    frobenius_norm,
    hermitian_part,
    hermitian_spectrum,
    kron,
    max_abs,
)
from .morphism import Morphism, _pullback_with_blocks
from .state import State

FACTOR_TOL = 1e-8  # the factorization test's tolerance, scaled per block


def classical_disintegrate(f: Morphism, omega: State) -> np.ndarray:
    """Stochastic inverse of the probability-preserving map of finite sets that ``(f, omega)`` encodes.

    Between commutative algebras, codomain block ``x`` of ``f`` has one
    segment, of domain block ``phi(x)``; ``omega``'s weights are the ``p_x``.
    Row ``y`` of the returned row-stochastic ``n_y x n_x`` matrix is the
    conditional distribution ``p_x / q_y`` on the fiber over ``y``.  Rows
    over targets of pushforward weight zero are fixed deterministically:
    uniform on the fiber when it is nonempty, uniform everywhere otherwise.  ShapeMismatch unless both algebras are
    commutative and ``omega`` is a state on ``f``'s codomain.
    """
    if not (f.domain.is_commutative() and f.codomain.is_commutative()):
        raise ShapeMismatch("a classical disintegration needs a morphism between commutative algebras")
    if omega.shape != f.codomain:
        raise ShapeMismatch(f"state on {omega.shape.blocks} disintegrated through morphism with codomain {f.codomain.blocks}")
    phi = [segments[0][0] for segments in f.segments]
    p, n_x, n_y = omega.weights, len(f.codomain), len(f.domain)
    q = np.zeros(n_y)
    for x, y in enumerate(phi):
        q[y] += p[x]
    psi = np.zeros((n_y, n_x))
    for y in range(n_y):
        fiber = [x for x in range(n_x) if phi[x] == y]
        if q[y] > 0.0:
            for x in fiber:
                psi[y, x] = p[x] / q[y]
        elif fiber:
            psi[y, fiber] = 1.0 / len(fiber)
        else:
            psi[y, :] = 1.0 / n_x
    return psi


@dataclass(frozen=True)
class QuantumDisintegrationData:
    """Factorization witnesses: one PSD ``tau`` block per (domain, codomain) pair."""

    tau: dict  # (y, x) -> ndarray of size c[x, y]
    pullback_weights: np.ndarray
    pullback_densities: tuple


@dataclass(frozen=True)
class NoDisintegration:
    """First violated factorization check, with the offending residual."""

    violation: str
    residual: float


def quantum_disintegrate(f: Morphism, omega: State):
    """Decide existence of a disintegration for ``(f, omega)`` constructively.

    One exists exactly when each ``M_x = U_x^dag (p_x rho_x) U_x`` equals
    ``R_x``.  The candidate ``tau`` blocks, partial traces of M_x's diagonal
    segments over the domain factor divided by q_y, are exact whenever it
    does; a domain block of q_y at most ``DEFAULT_TOL`` gets none.  Refused,
    in this order: a candidate not PSD within ``_factor_tolerances``'
    ``max(FACTOR_TOL, r_y / q_y)`` (its rounding grows as ``1/q_y``), and a
    codomain block with an entry of ``M_x - R_x`` (formed in place) above
    ``FACTOR_TOL max |p_x rho_x|``: coupling between segments, charge on a
    segment without ``tau`` and a segment that does not factor all stay there.
    ``disintegration_entropy`` checks the traces: each ``sum_x tr tau_yx`` is
    ``sum_x p_x tr(rho_x U_x U_x^dag)`` up to rounding, within about
    ``3 DEFAULT_TOL`` of 1 (``Morphism``, ``State``).
    """
    q, sigmas, conjugated = _pullback_with_blocks(f, omega)
    allowed = _factor_tolerances(f, omega, q)
    tau: dict = {}
    for x, (p, rho, m) in enumerate(zip(omega.weights, omega.densities, conjugated)):
        for y, rows, copies, n in f.segments[x]:
            if q[y] <= DEFAULT_TOL:  # no tau: any charge on the segment stays in the residual
                continue
            seg = m[rows, rows]
            cand = hermitian_part(np.einsum("iaja->ij", seg.reshape(copies, n, copies, n)) / q[y])  # trace out the n-factor
            lowest = hermitian_spectrum(cand)[1][0]
            if lowest < -allowed[y]:
                return NoDisintegration(
                    f"candidate factor for domain block {y} in codomain block {x} is not PSD",
                    float(-lowest),
                )
            seg -= kron(cand, q[y] * sigmas[y])  # in place: m becomes U^dag (p rho) U - R
            tau[(y, x)] = cand
        residual = max_abs(m)
        if not residual <= FACTOR_TOL * max_abs(p * rho):
            return NoDisintegration(f"codomain block {x} does not factor through the pullback", residual)
    return QuantumDisintegrationData(tau, q, sigmas)


def _factor_tolerances(f: Morphism, omega: State, q) -> list[float]:
    """Per domain block y, ``max(FACTOR_TOL, r_y / q_y)``: how far the candidate ``tau`` blocks of y may miss being a density.

    ``r_y = 20 (d_y + C_y^2) u kappa_y`` bounds the rounding of the weighted
    partial traces ``q_y tau_yx``; over the codomain blocks x with
    ``c = c[x, y] > 0``, d_y sums ``m = m_x``, C_y sums c, and kappa_y sums
    ``kappa_yx = c n p_x ||rho_x||_F`` (``frobenius_norm``), ``n = n_y``.
    A block of pullback weight at most ``DEFAULT_TOL`` gets ``FACTOR_TOL``:
    no candidate is formed for it.

    Proof.  u = 2^-53, t = ``DEFAULT_TOL``, m <= 2^20 (a larger dense block
    needs over 16 TiB), |X| is entrywise.  Sums in any order, with or without
    fused multiply-adds, err by at most ``gamma_k = k u / (1 - k u)`` times
    the sum of the terms' moduli, and either part of a complex product
    ``fl(A B)`` by ``g = sqrt(2) gamma_2m`` times ``|A| |B|`` (Higham,
    *Accuracy and Stability of Numerical Algorithms*, 2nd ed., 3.1 and 3.6).
    ``_pullback_with_blocks`` forms ``M = fl(fl(U^dag W) U)``, and
    ``W = fl(p rho)`` is ``p rho`` within ``u |W| / (1 - u)``, so
    ``|M - U^dag (p rho) U| <= (2g + g^2 + 1.01 u) |U|^dag |W| |U|``.  The
    candidate sums M's segment over the n-factor: ``T^ = fl(PT(M))`` is
    within ``gamma_n PT(|M|)`` of ``PT(M)``, so with
    ``K = PT(|U_s|^dag |W| |U_s|) >= 0``, ``U_s`` the segment's cn columns
    of U, ``|T^ - T| <= e K``, ``e <= 8 m u``, T the exact partial trace.
    Each column of U has squared norm at most 1 + t (``Morphism``) and
    ``|| |W| ||_2 <= ||W||_F``, so ``||K||_F`` and ``tr K`` are at most
    ``c n (1 + t) ||W||_F <= 1.001 kappa_yx``.
    Dividing by q_y and taking the Hermitian part add ``2.01 u |T^| / q_y``.
    So each candidate lies within ``(8 m + 2.01) u 1.001 kappa_yx / q_y``
    in Frobenius norm, and its trace within as much, of ``H(T) / q_y``,
    which is PSD wherever the state factors.  LAPACK's eigenvalues of a
    k x k matrix A lie within ``k^2 u ||A||_2`` of the exact ones (as in
    ``linalg._low_rank_support``), so a candidate's least eigenvalue, and
    that of their block diagonal (k = C_y), stays above
    ``-(8 d_y + 2.01 + 1.01 C_y^2) u kappa_y / q_y >= -r_y / q_y``.  The
    weight q_y is ``w^ / S^``, ``S^`` the sum of all computed weights, within
    about ``3 DEFAULT_TOL`` of 1 up to rounding, and ``w^ = fl(tr PT'(M))``
    sums ``N_y <= d_y`` diagonal entries of M, so it is within
    ``(6.7 d_y + 1.01) u kappa_y`` of ``w_y = sum_x tr T_yx``.  The computed
    trace of the block diagonal is ``w_y / q_y`` up to
    ``(8 d_y + 2.01 + 1.01 C_y) u kappa_y / q_y``, so it is within
    ``(15 d_y + 4 C_y^2) u kappa_y / q_y <= 0.75 r_y / q_y`` of ``S^``, and
    within the allowance of 1, as ``FACTOR_TOL = 100 DEFAULT_TOL`` covers
    the ``|S^ - 1|`` left.
    """
    d, c_sum, kappa = ([0] * len(f.domain) for _ in range(3))
    for p, rho, m, segments in zip(omega.weights.tolist(), omega.densities, f.codomain.blocks, f.segments):
        norm = p * frobenius_norm(rho)
        for y, _, copies, n in segments:
            d[y] += m
            c_sum[y] += copies
            kappa[y] += copies * n * norm
    return [
        max(FACTOR_TOL, 20.0 * (dy + cy * cy) * _UNIT_ROUNDOFF * ky / qy) if qy > DEFAULT_TOL else FACTOR_TOL
        for dy, cy, ky, qy in zip(d, c_sum, kappa, q.tolist())
    ]


def _factored_block(f: Morphism, x: int, tau: dict, q, sigmas) -> np.ndarray:
    """Canonical-layout block ``blockdiag_y(tau_yx (x) q_y sigma_y)`` of codomain block ``x``.

    A segment without a ``(y, x)`` entry in ``tau`` is zero.
    """
    return block_diag(
        [
            kron(tau[(y, x)], q[y] * sigmas[y]) if (y, x) in tau else np.zeros((copies * n,) * 2)
            for y, _, copies, n in f.segments[x]
        ]
    )


def _verify_witness(f: Morphism, omega: State, data: QuantumDisintegrationData) -> None:
    """InconsistentData unless every entry of each ``E_x = U_x^dag (p_x rho_x) U_x - R_x`` is at most ``FACTOR_TOL``.

    Per block, ``G = (p rho) U - U R`` takes one ``m^3`` product, with ``U R``
    formed segment by segment from the Kronecker factors (``m c n^2 + m c^2 n``
    multiply-adds for ``c`` copies of an ``n``-block).  Then ``E = U^dag G +
    (U^dag U - I) R``, and ``Morphism`` keeps ``||U^dag U - I||_F`` within
    ``t = DEFAULT_TOL``: a column ``u_i`` of U has ``||u_i||^2 = (U^dag U)_ii
    <= 1 + t``, so ``|(U^dag G)_ij| = |u_i^dag g_j| <= sqrt(1 + t) ||G||_F``,
    and an entry of ``(U^dag U - I) R``, a row of ``U^dag U - I`` times a
    column ``r_j`` of R, is at most ``t ||r_j|| <= t ||R||_F``, so
    ``max |E| <= sqrt(1 + t) ||G||_F + t ||R||_F``.
    Only where that bound exceeds the threshold are E and the dense R
    formed; a NaN residual fails.  Each field must first be an array of the
    shape ``f`` gives it: one weight and one ``n_y x n_y`` density per domain
    block, one ``c x c`` ``tau`` block per key, each key a pair with ``c > 0``.
    """
    sizes = {(y, x): copies for x, segments in enumerate(f.segments) for y, _, copies, _ in segments}
    for key in data.tau:
        if key not in sizes:
            raise InconsistentData(f"tau key {key!r} names no (domain, codomain) pair with c[x, y] > 0")
    q, sigmas = data.pullback_weights, data.pullback_densities
    if len(sigmas) != len(f.domain):
        raise InconsistentData(f"witness holds {len(sigmas)} pullback densities for {len(f.domain)} domain blocks")
    fields = [("pullback_weights", q, (len(f.domain),))]
    fields += [(f"pullback density {y}", s, (n, n)) for y, (s, n) in enumerate(zip(sigmas, f.domain.blocks))]
    fields += [(f"tau block {key}", t, (sizes[key],) * 2) for key, t in data.tau.items()]
    for name, value, shape in fields:
        if not isinstance(value, np.ndarray):
            raise InconsistentData(f"{name} is a {type(value).__name__}, expected an array of shape {shape}")
        if value.shape != shape:
            raise InconsistentData(f"{name} has shape {value.shape}, expected {shape}")
    for x, (p, rho, u) in enumerate(zip(omega.weights, omega.densities, f.unitaries)):
        weighted = p * rho
        m = len(u)
        residual = weighted @ u  # minus U R below: G = (p rho) U - U R
        r_norm2 = 0.0  # ||R||_F^2 = sum over segments of ||tau||_F^2 ||q sigma||_F^2
        for y, seg, copies, n in f.segments[x]:
            if (y, x) in data.tau:  # U[:, seg] (tau (x) q sigma): q sigma on the factor index, tau on the copy index
                t, s = data.tau[(y, x)], q[y] * sigmas[y]
                half = (u[:, seg].reshape(m * copies, n) @ s).reshape(m, copies, n)
                residual[:, seg] -= (np.transpose(t) @ half).reshape(m, copies * n)
                r_norm2 += np.vdot(t, t).real * np.vdot(s, s).real
        if math.sqrt(1.0 + DEFAULT_TOL) * frobenius_norm(residual) + DEFAULT_TOL * math.sqrt(r_norm2) <= FACTOR_TOL:  # bounds max |E|
            continue
        diff = max_abs(u.conj().T @ weighted @ u - _factored_block(f, x, data.tau, q, sigmas))
        if not diff <= FACTOR_TOL:  # a NaN residual fails
            raise InconsistentData(f"witness does not reproduce codomain block {x} (residual {diff:.3e})")


def disintegration_entropy(f: Morphism, omega: State, data: QuantumDisintegrationData) -> float:
    """Entropy production of a disintegration witness.

    Equals the entropy change of ``(f, omega)``: each domain block y of
    pullback weight q_y above ``DEFAULT_TOL`` contributes q_y times the
    entropy of tau_y, the block-diagonal assembly of its ``tau`` factors.
    InconsistentData unless the witness reproduces ``omega``, every entry
    of each ``U_x^dag (p_x rho_x) U_x - R_x`` at most ``FACTOR_TOL`` (a NaN
    fails; ``_verify_witness``, which reads only ``f``, ``omega`` and the
    witness), unless every such y has a ``tau`` block, and unless each
    tau_y is a density within ``_factor_tolerances``' allowance
    ``max(FACTOR_TOL, r_y / q_y)``: Hermitian, its least eigenvalue and
    ``sum_x tr tau_yx - 1`` within it.  The entropy skips negative
    eigenvalues, so it is at least ``-s log s`` if the positive ones sum
    to s, and s is at most 1 plus (C_y + 1) times the allowance for a
    C_y x C_y tau_y.  For a witness of ``quantum_disintegrate`` s is about
    the total trace, and ``-s log s`` about ``-3 DEFAULT_TOL`` (-9.0e-11
    for a pure state on M_256 through M_1 at a unitarity deviation of
    0.9 ``DEFAULT_TOL``); at a tiny q_y the allowance is ``r_y / q_y``, so
    y's weighted term is still at least about ``-(C_y + 1) r_y``.
    """
    _verify_witness(f, omega, data)
    q = data.pullback_weights
    allowed = _factor_tolerances(f, omega, q)
    total = 0.0
    for y in range(len(f.domain)):
        if q[y] <= DEFAULT_TOL:
            continue
        parts = [data.tau[(y, x)] for x in range(len(f.codomain)) if (y, x) in data.tau]
        if not parts:
            raise InconsistentData(f"witness holds no tau block for domain block {y} of pullback weight {q[y]:.3e}")
        tau = block_diag(parts)
        deviation, vals = hermitian_spectrum(tau)
        trace = tau.trace().real
        if deviation > allowed[y]:
            raise InconsistentData(f"tau of domain block {y} deviates from Hermitian by {deviation:.3e}")
        if not vals[0] >= -allowed[y]:
            raise InconsistentData(f"tau of domain block {y} has eigenvalue {vals[0]:.3e} < -{allowed[y]:.3e}")
        if not abs(trace - 1.0) <= allowed[y]:
            raise InconsistentData(f"tau of domain block {y} has trace {trace:.12g}, not 1 within {allowed[y]:.3e}")
        total += q[y] * _plogp(vals)
    return total
