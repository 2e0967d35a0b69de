"""Classical and quantum disintegrations and their entropy production.

A classical disintegration is a stochastic one-sided inverse of a
probability-preserving map of finite sets; it always exists.  The
quantum analogue asks each weighted codomain density, conjugated into
the canonical layout, to factor segment-by-segment as
``tau_{yx} (x) q_y sigma_y`` with PSD ``tau`` blocks normalized per
domain block; existence then forces a nonnegative entropy change, and
the change equals a weighted entropy of the assembled ``tau`` blocks.

``disintegration_entropy`` re-checks a witness on its own: per codomain
block every entry of ``E_x = U_x^dag (p_x rho_x) U_x - R_x``,
``R_x = blockdiag_y(tau_yx (x) q_y sigma_y)``, must be at most
``FACTOR_TOL``.  Most witnesses are accepted by one ``m^3`` product and
a proven bound on ``max |E_x|`` (``_verify_witness``); only the others
have ``E_x`` formed entrywise, so the check accepts exactly the witnesses
whose entrywise residual is within the threshold,
``quantum_disintegrate``'s among them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entropy import von_neumann
from .errors import InconsistentData, ShapeMismatch
from .linalg import (
    DEFAULT_TOL,
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

    Conjugates each weighted codomain density into the canonical layout
    and tests the block factorization against the pullback state.  The
    candidate ``tau`` blocks are read off by partial-tracing the domain
    factor, which is exact whenever a factorization exists, so verifying
    the reconstruction decides existence.  Their traces need no check: each
    ``sum_x tr tau_yx`` is ``sum_x p_x tr(rho_x U_x U_x^dag)`` up to rounding,
    within about ``3 DEFAULT_TOL`` of 1 (``Morphism``, ``State``).  Returns
    the witness data, or a ``NoDisintegration`` naming the first failed check.
    """
    pulled, conjugated = _pullback_with_blocks(f, omega)
    q, sigmas = pulled.weights, pulled.densities
    tau: dict = {}
    for x, (p, rho, m) in enumerate(zip(omega.weights, omega.densities, conjugated)):
        eff = FACTOR_TOL * max_abs(p * rho)
        segs = f.segments[x]
        for i, (y, rows, _, _) in enumerate(segs):
            for y2, cols, _, _ in segs[i + 1 :]:
                coupling = max_abs(m[rows, cols])
                if coupling > eff:
                    return NoDisintegration(
                        f"off-diagonal coupling between domain blocks {y} and {y2} inside codomain block {x}",
                        coupling,
                    )
        for y, rows, copies, n in segs:
            seg = m[rows, rows]
            if q[y] <= DEFAULT_TOL:
                charge = max_abs(seg)
                if charge > eff:
                    return NoDisintegration(
                        f"codomain block {x} charges domain block {y} of pullback weight zero",
                        charge,
                    )
                continue
            cand = hermitian_part(np.einsum("iaja->ij", seg.reshape(copies, n, copies, n)) / q[y])  # trace out the n-factor
            lowest = hermitian_spectrum(cand)[1][0]
            if lowest < -FACTOR_TOL:
                return NoDisintegration(
                    f"candidate factor for domain block {y} in codomain block {x} is not PSD",
                    float(-lowest),
                )
            residual = max_abs(seg - kron(cand, q[y] * sigmas[y]))
            if residual > eff:
                return NoDisintegration(
                    f"segment for domain block {y} in codomain block {x} does not factor through the pullback density",
                    residual,
                )
            tau[(y, x)] = cand
    return QuantumDisintegrationData(tau, q.copy(), sigmas)


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
    formed; a NaN residual fails.
    """
    sizes = {(y, x): copies for x, segments in enumerate(f.segments) for y, _, copies, _ in segments}
    for key, t in data.tau.items():
        if key not in sizes:
            raise InconsistentData(f"tau key {key!r} names no (domain, codomain) pair with c[x, y] > 0")
        if np.shape(t) != (sizes[key],) * 2:
            raise InconsistentData(f"tau block {key} has shape {np.shape(t)}, expected {(sizes[key],) * 2}")
    q, sigmas = data.pullback_weights, data.pullback_densities
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

    Equals the entropy change of ``(f, omega)``: each domain block of
    positive pullback weight contributes its weight times the entropy of
    the block-diagonal assembly of its ``tau`` factors, at least ``-s log s``
    if its positive eigenvalues sum to ``s``: about ``-3 DEFAULT_TOL`` for a
    witness of ``quantum_disintegrate`` (-9.0e-11 for a pure state on M_256
    through M_1 at a unitarity deviation of 0.9 ``DEFAULT_TOL``).
    InconsistentData unless the witness reproduces ``omega``, every entry
    of each ``U_x^dag (p_x rho_x) U_x - R_x`` at most ``FACTOR_TOL`` (a NaN
    fails; ``_verify_witness``, which reads only ``f``, ``omega`` and the
    witness), and unless every domain block of pullback weight above
    ``DEFAULT_TOL`` has a ``tau`` block.
    """
    _verify_witness(f, omega, data)
    q = data.pullback_weights
    total = 0.0
    for y in range(len(f.domain)):
        if q[y] <= DEFAULT_TOL:
            continue
        parts = [data.tau[(y, x)] for x in range(len(f.codomain)) if (y, x) in data.tau]
        if not parts:
            raise InconsistentData(f"witness holds no tau block for domain block {y} of pullback weight {q[y]:.3e}")
        total += q[y] * von_neumann(block_diag(parts), FACTOR_TOL)
    return total
