"""Shannon, von Neumann, and Segal entropies plus the change functors.

All values are in nats (natural logarithm); zero probabilities and zero
eigenvalues are skipped before taking logs, realizing the ``0 log 0 = 0``
convention uniformly.
"""

from __future__ import annotations

import numpy as np

from .errors import NotDensity, NotProbabilityVector, OutOfRange, ShapeMismatch
from .linalg import DEFAULT_TOL, as_matrix, hermitian_part, is_hermitian
from .morphism import Morphism, pullback
from .state import State, convex_combine

LOG2 = float(np.log(2.0))


def _plogp(values: np.ndarray) -> float:
    """``-sum v log v`` over the entries above zero; no validation."""
    v = values[values > 0.0]
    return float(-(v * np.log(v)).sum()) if v.size else 0.0


def shannon(p) -> float:
    """Shannon entropy of a probability vector."""
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise NotProbabilityVector(f"expected a probability vector, got shape {p.shape}")
    if np.min(p) < -DEFAULT_TOL or abs(p.sum() - 1.0) > DEFAULT_TOL:
        raise NotProbabilityVector(
            f"entries must be nonnegative and sum to 1 within {DEFAULT_TOL:.0e} "
            f"(min {np.min(p):.3e}, sum {p.sum():.12g})"
        )
    return _plogp(np.clip(p, 0.0, None))


def _spectrum_entropy(vals: np.ndarray, tol: float) -> float:
    """Entropy from the ascending eigenvalues of a density's Hermitian part."""
    if vals[0] < -tol:
        raise NotDensity(f"density has eigenvalue {vals[0]:.3e} < -{tol:.3e}")
    if abs(vals.sum() - 1.0) > tol:
        raise NotDensity(f"density trace {vals.sum():.12g} != 1")
    return _plogp(np.clip(vals, 0.0, None))


def von_neumann(rho, tol: float = DEFAULT_TOL) -> float:
    """Entropy of a density matrix: the Shannon entropy of its spectrum."""
    rho = as_matrix(rho)
    if not is_hermitian(rho, tol):
        raise NotDensity("density must be Hermitian")
    return _spectrum_entropy(np.linalg.eigvalsh(hermitian_part(rho)), tol)


def segal(omega: State, tol: float = DEFAULT_TOL) -> float:
    """Block-weight Shannon entropy plus the weighted block entropies.

    Each block entropy comes from the spectrum ``omega.spectra`` kept when
    the state was validated, checked at ``tol`` exactly as ``von_neumann``
    checks a raw matrix, so no density is decomposed again.
    """
    total = _plogp(omega.weights)
    for p, (deviation, vals) in zip(omega.weights, omega.spectra):
        if p > 0.0:
            if deviation > tol:
                raise NotDensity("density must be Hermitian")
            total += p * _spectrum_entropy(vals, tol)
    return total


def entropy_change(f: Morphism, omega: State, tol: float = DEFAULT_TOL) -> float:
    """Entropy of the state minus the entropy of its pullback."""
    if omega.shape != f.codomain:
        raise ShapeMismatch("state must live on the codomain of the morphism")
    return segal(omega, tol) - segal(pullback(f, omega), tol)


def holevo_change(f: Morphism, lam: float, omega: State, xi: State, tol: float = DEFAULT_TOL) -> float:
    """Deviation of the entropy change from affinity on a two-state mixture."""
    if not 0.0 <= lam <= 1.0:
        raise OutOfRange(f"mixing weight {lam!r} outside [0, 1]")
    mixed = convex_combine(lam, omega, xi)
    return (
        entropy_change(f, mixed, tol)
        - lam * entropy_change(f, omega, tol)
        - (1.0 - lam) * entropy_change(f, xi, tol)
    )


def k_functor(f: Morphism, omega: State, tol: float = DEFAULT_TOL) -> float:
    """Shannon difference of the block-weight distributions only.

    Agrees with ``entropy_change`` on commutative algebras but ignores the
    internal structure of the block densities, which is what makes it a
    separating counterexample for affinity on orthogonal mixtures.
    """
    if omega.shape != f.codomain:
        raise ShapeMismatch("state must live on the codomain of the morphism")
    return _plogp(omega.weights) - _plogp(pullback(f, omega).weights)
