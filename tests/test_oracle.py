"""The library's numbers against a 40-digit oracle.

The oracle reads a morphism and a state as exact binary values and
recomputes, in mpmath at 40 digits, the pulled-back weighted densities
(from the duality ``f*omega(a) = omega(f(a))`` and the copy layout of
``f``) and the Segal entropies ``-sum_x tr(P_x log P_x)`` of the weighted
block densities ``P_x = p_x rho_x``.  It shares no arithmetic with the
library: the layout comes from ``apply`` on matrix units through the same
multiplicities with identity unitaries, whose products are exact.

The bounds are stated from a measurement.  The tests take the first
``DRAWS`` draws of each family.  Over the first 200 draws of each, with
numpy 2.4.6 on its SkylakeX OpenBLAS kernel, the largest errors were the
figures noted next to ``BOUNDS``; each bound is about four times its figure.
"""

import numpy as np
import pytest
from mpmath import mp  # a test dependency only: the library stays numpy-only

from ncentropy import AlgebraElement, Morphism, Seed, apply, entropy_change, holevo_change, pullback
from ncentropy.disintegration import QuantumDisintegrationData, disintegration_entropy, quantum_disintegrate
from ncentropy.harness import _DEFAULT, _sample_disintegrable, _sample_morphism, _sample_state
from ncentropy.linalg import identity_matrix

DIGITS = 40
DRAWS = 20
# (figure, family) -> bound; the largest error measured over 200 draws in the comment
BOUNDS = {
    ("change", "default"): 4e-15,  # 9.4e-16
    ("pullback", "default"): 3e-15,  # 6.6e-16
    ("holevo", "default"): 5e-15,  # 1.1e-15
    ("change", "rank-deficient"): 3e-14,  # 6.8e-15
    ("pullback", "rank-deficient"): 4e-15,  # 8.3e-16
    ("holevo", "rank-deficient"): 3e-14,  # 5.9e-15
    ("disintegration", "disintegrable"): 7e-15,  # 1.7e-15
}


def _copy_offsets(f):
    """Per domain block x, the (codomain block, row offset) of each copy of x in ``f``'s layout."""
    layout = Morphism(f.domain, f.codomain, f.multiplicities, tuple(identity_matrix(m) for m in f.codomain.blocks))
    offsets = []
    for x, n in enumerate(f.domain.blocks):
        units = [np.zeros((k, k), dtype=np.complex128) for k in f.domain.blocks]
        units[x][0, 0] = 1.0
        image = apply(layout, AlgebraElement(f.domain, tuple(units)))
        offsets.append([(y, int(r)) for y, b in enumerate(image.blocks) for r in np.flatnonzero(b.diagonal().real)])
    return offsets


def _exact(m):
    return mp.matrix(np.asarray(m).tolist())


def _weighted(omega):
    """The weighted block densities ``p_x (rho_x + rho_x^dag) / 2`` of ``omega``, exactly."""
    return [mp.mpf(float(p)) * (_exact(r) + _exact(r).H) / 2 for p, r in zip(omega.weights, omega.densities)]


def _pulled(f, blocks):
    """The weighted densities of the pullback of the state whose weighted blocks are ``blocks``."""
    conjugated = [_exact(u).H * b * _exact(u) for u, b in zip(f.unitaries, blocks)]
    out = []
    for n, copies in zip(f.domain.blocks, _copy_offsets(f)):
        total = mp.zeros(n, n)
        for y, r in copies:
            total += conjugated[y][r : r + n, r : r + n]
        out.append(total)
    return out


def _entropy(blocks):
    total = mp.mpf(0)
    for b in blocks:
        for v in mp.eighe(b, eigvals_only=True):
            if v > 0:
                total -= v * mp.log(v)
    return total


def _change(f, blocks):
    return _entropy(blocks) - _entropy(_pulled(f, blocks))


def _draws(full_rank):
    for k in range(DRAWS):
        rng = Seed(4200 + k, int(full_rank)).rng()
        f = _sample_morphism(_DEFAULT, rng)
        yield f, _sample_state(f.codomain, rng, full_rank=full_rank), _sample_state(f.codomain, rng, full_rank=full_rank)


@pytest.mark.parametrize("family", ["default", "rank-deficient"])
def test_entropy_pullback_and_holevo_against_40_digits(family):
    full_rank = family == "default"
    worst = {"change": 0.0, "pullback": 0.0, "holevo": 0.0}
    with mp.workdps(DIGITS):
        for f, omega, xi in _draws(full_rank):
            a, b = _weighted(omega), _weighted(xi)
            at_a, at_b = _change(f, a), _change(f, b)
            worst["change"] = max(worst["change"], abs(entropy_change(f, omega) - at_a))
            pulled = pullback(f, omega)
            for p, rho, exact in zip(pulled.weights, pulled.densities, _pulled(f, a)):
                worst["pullback"] = max(worst["pullback"], float(mp.mnorm(mp.mpf(float(p)) * _exact(rho) - exact, 1)))
            lam = mp.mpf(0.3)
            mixed = _change(f, [lam * u + (1 - lam) * v for u, v in zip(a, b)])
            exact = mixed - lam * at_a - (1 - lam) * at_b
            worst["holevo"] = max(worst["holevo"], abs(holevo_change(f, 0.3, omega, xi) - exact))
    for name, error in worst.items():
        assert float(error) <= BOUNDS[(name, family)], (name, float(error))


def test_disintegration_entropy_against_40_digits():
    worst = 0.0
    with mp.workdps(DIGITS):
        for k in range(DRAWS):
            f, omega, _ = _sample_disintegrable(Seed(4300 + k).rng())
            witness = quantum_disintegrate(f, omega)
            assert isinstance(witness, QuantumDisintegrationData)
            worst = max(worst, abs(disintegration_entropy(f, omega, witness) - _change(f, _weighted(omega))))
    assert float(worst) <= BOUNDS[("disintegration", "disintegrable")], float(worst)
