"""Shannon, von Neumann, and Segal entropies plus the change functors.

All values are in nats (natural logarithm); zero probabilities and zero
eigenvalues are skipped before taking logs, realizing the ``0 log 0 = 0``
convention uniformly.
"""

from __future__ import annotations

import numpy as np

from .linalg import as_matrix, check_density, check_probability_vector
from .morphism import Morphism, pullback
from .state import State, convex_combine

LOG2 = float(np.log(2.0))


def _plogp(values: np.ndarray) -> float:
    """``-sum v log v`` over the entries above zero; no validation."""
    v = values[values > 0.0]
    return float(-np.add.reduce(v * np.log(v))) if v.size else 0.0


def shannon(p) -> float:
    """Shannon entropy of a probability vector."""
    return _plogp(check_probability_vector(p))


def von_neumann(rho) -> float:
    """Entropy of a density matrix: the Shannon entropy of its spectrum."""
    return _plogp(check_density(as_matrix(rho)))


def segal(omega: State) -> float:
    """Block-weight Shannon entropy plus the weighted block entropies.

    Each block entropy comes from the spectrum ``omega.spectra`` that
    ``State`` kept when it validated the density at ``DEFAULT_TOL``, so no
    density is decomposed or checked again.
    """
    total = _plogp(omega.weights)
    for p, vals in zip(omega.weights.tolist(), omega.spectra):
        if p > 0.0:
            total += p * _plogp(vals)
    return total


def _change_and_pullback(f: Morphism, omega: State) -> tuple[float, State]:
    """``entropy_change`` and the pullback it took: the one place an entropy change is computed.

    Every caller goes through this module's binding of the name, so a
    replacement installed here (a negative control) sees every change.
    """
    pulled = pullback(f, omega)
    return segal(omega) - segal(pulled), pulled


def entropy_change(f: Morphism, omega: State) -> float:
    """Entropy of the state minus the entropy of its pullback."""
    return _change_and_pullback(f, omega)[0]


def _holevo_changes(f: Morphism, lams, omega: State, xi: State) -> tuple[list[float], list[tuple[State, State]]]:
    """``holevo_change`` at each weight in ``lams``, every mixture built first, and ``(state, pullback)`` of ``omega``, ``xi`` and each mixture."""
    states = [omega, xi, *(convex_combine(lam, omega, xi) for lam in lams)]
    changes, pulled = zip(*(_change_and_pullback(f, w) for w in states))
    at_omega, at_xi = changes[:2]
    deviations = [at_m - lam * at_omega - (1.0 - lam) * at_xi for lam, at_m in zip(lams, changes[2:])]
    return deviations, list(zip(states, pulled))


def holevo_change(f: Morphism, lam: float, omega: State, xi: State) -> float:
    """Deviation of the entropy change from affinity on a two-state mixture."""
    return _holevo_changes(f, (lam,), omega, xi)[0][0]


def _block_weight_change(omega: State, pulled: State) -> float:
    """``k_functor`` of a state whose pullback is already taken."""
    return _plogp(omega.weights) - _plogp(pulled.weights)


def k_functor(f: Morphism, omega: State) -> float:
    """Shannon difference of the block-weight distributions only.

    Agrees with ``entropy_change`` on commutative algebras but ignores the
    internal structure of the block densities, which is what makes it a
    separating counterexample for affinity on orthogonal mixtures.  It
    pulls back by itself, not through ``_change_and_pullback``: a negative
    control installed there may be this very function.
    """
    return _block_weight_change(omega, pullback(f, omega))
