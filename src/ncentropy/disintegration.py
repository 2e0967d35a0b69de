"""Classical and quantum disintegrations and their entropy production.

A classical disintegration is a stochastic one-sided inverse of a
probability-preserving map of finite sets; it always exists.  The
quantum analogue asks each weighted codomain density, conjugated into
the canonical layout, to factor segment-by-segment as
``tau_{yx} (x) q_y sigma_y`` with PSD ``tau`` blocks normalized per
domain block; existence then forces a nonnegative entropy change, and
the change equals a weighted entropy of the assembled ``tau`` blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .entropy import von_neumann
from .errors import (
    InconsistentData,
    IndexOutOfRange,
    ShapeMismatch,
)
from .linalg import (
    DEFAULT_TOL,
    block_diag,
    check_probability_vector,
    hermitian_part,
    hermitian_spectrum,
    is_integer,
    kron,
    max_abs,
    partial_trace_right,
)
from .morphism import Morphism, _pullback_with_blocks
from .state import State

FACTOR_TOL = 1e-8  # the factorization test's tolerance, scaled per block


@dataclass(frozen=True)
class StochasticMap:
    """Row-stochastic matrix: one probability vector on the target per source point."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.float64)
        if m.ndim != 2 or m.size == 0:
            raise ShapeMismatch(f"expected a nonempty 2-d matrix, got shape {m.shape}")
        object.__setattr__(self, "matrix", np.array([check_probability_vector(row) for row in m]))


def classical_function(f: Morphism) -> list[int]:
    """The map ``x -> y`` that a morphism of commutative algebras encodes; ShapeMismatch otherwise."""
    if not (f.domain.is_commutative() and f.codomain.is_commutative()):
        raise ShapeMismatch("the function of a morphism needs commutative domain and codomain")
    return [int(np.nonzero(row)[0][0]) for row in f.multiplicities]


def classical_disintegrate(phi, p, n_targets: int | None = None) -> StochasticMap:
    """Stochastic inverse of a probability-preserving function.

    ``phi`` maps source index ``x`` to target index ``y``; the returned
    map sends ``y`` to the conditional distribution ``p_x / q_y`` on the
    fiber over ``y``.  Rows over targets of pushforward weight zero are
    fixed deterministically: uniform on the fiber when it is nonempty,
    uniform everywhere otherwise.
    """
    p = check_probability_vector(p)
    phi = list(phi)
    if not all(map(is_integer, phi)):
        raise IndexOutOfRange(f"phi entries must be integers, got {phi}")
    if len(phi) != p.size:
        raise ShapeMismatch(f"phi has {len(phi)} entries but p has {p.size}")
    if n_targets is not None and not is_integer(n_targets):
        raise IndexOutOfRange(f"n_targets must be an integer, got {n_targets!r}")
    n_y = (max(phi) + 1) if n_targets is None else int(n_targets)
    if any(y < 0 or y >= n_y for y in phi):
        raise IndexOutOfRange(f"phi takes values outside 0..{n_y - 1}")
    n_x = p.size
    q = np.zeros(n_y)
    for x, y in enumerate(phi):
        q[y] += p[x]
    psi = np.zeros((n_y, n_x))
    for y in range(n_y):
        fiber = [x for x in range(n_x) if phi[x] == y]
        if q[y] > 0.0:
            for x in fiber:
                psi[y, x] = p[x] / q[y]
            psi[y] /= psi[y].sum()
        elif fiber:
            psi[y, fiber] = 1.0 / len(fiber)
        else:
            psi[y, :] = 1.0 / n_x
    return StochasticMap(psi)


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
    the reconstruction decides existence.  Returns the witness data on
    success and a ``NoDisintegration`` describing the first failed check
    otherwise.
    """
    pulled, conjugated = _pullback_with_blocks(f, omega)
    q, sigmas = pulled.weights, pulled.densities
    tau: dict = {}
    for x, (p, rho, m) in enumerate(zip(omega.weights, omega.densities, conjugated)):
        weighted = p * rho
        if m is None:
            m = f.unitaries[x].conj().T @ weighted @ f.unitaries[x]
        eff = FACTOR_TOL * max_abs(weighted)
        segs = f.segments[x]
        for i, (y, rows, _, _) in enumerate(segs):
            for y2, cols, _, _ in segs[i + 1 :]:
                block = m[rows, cols]
                if max_abs(block) > eff:
                    return NoDisintegration(
                        f"off-diagonal coupling between domain blocks {y} and {y2} inside codomain block {x}",
                        max_abs(block),
                    )
        for y, rows, copies, n in segs:
            seg = m[rows, rows]
            if q[y] <= DEFAULT_TOL:
                if max_abs(seg) > eff:
                    return NoDisintegration(
                        f"codomain block {x} charges domain block {y} of pullback weight zero",
                        max_abs(seg),
                    )
                continue
            cand = hermitian_part(partial_trace_right(seg, copies, n) / q[y])
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
    for y in range(len(f.domain)):
        if q[y] > DEFAULT_TOL:
            total = sum(np.trace(tau[(y, x)]).real for x in range(len(f.codomain)) if (y, x) in tau)
            if abs(total - 1.0) > FACTOR_TOL * len(f.codomain.blocks):
                return NoDisintegration(
                    f"factors for domain block {y} have total trace {total:.12g} instead of 1",
                    abs(total - 1.0),
                )
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
    sizes = {(y, x): int(c) for (x, y), c in np.ndenumerate(f.multiplicities) if c > 0}
    for key, t in data.tau.items():
        if key not in sizes:
            raise InconsistentData(f"tau key {key!r} names no (domain, codomain) pair with c[x, y] > 0")
        if np.shape(t) != (sizes[key],) * 2:
            raise InconsistentData(f"tau block {key} has shape {np.shape(t)}, expected {(sizes[key],) * 2}")
    for x, (p, rho) in enumerate(zip(omega.weights, omega.densities)):
        weighted = p * rho
        m = f.unitaries[x].conj().T @ weighted @ f.unitaries[x]
        rebuilt = _factored_block(f, x, data.tau, data.pullback_weights, data.pullback_densities)
        if max_abs(m - rebuilt) > FACTOR_TOL * max(1.0, max_abs(weighted)):
            raise InconsistentData(
                f"witness does not reproduce codomain block {x} (residual {max_abs(m - rebuilt):.3e})"
            )


def disintegration_entropy(f: Morphism, omega: State, data: QuantumDisintegrationData) -> float:
    """Entropy production of a disintegration witness.

    Equals the entropy change of ``(f, omega)`` and is nonnegative: each
    domain block of positive pullback weight contributes its weight times
    the entropy of the block-diagonal assembly of its ``tau`` factors.
    """
    _verify_witness(f, omega, data)
    q = data.pullback_weights
    total = 0.0
    for y in range(len(f.domain)):
        if q[y] <= DEFAULT_TOL:
            continue
        parts = [data.tau[(y, x)] for x in range(len(f.codomain)) if (y, x) in data.tau]
        total += q[y] * von_neumann(block_diag(parts), FACTOR_TOL)
    return total
