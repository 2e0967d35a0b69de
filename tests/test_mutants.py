"""Negative controls: wrong entropy-change functors that the gate must reject.

Every entropy change in the package is computed by
``entropy._change_and_pullback``, which returns the change together with
the pullback it took; ``entropy_change``, ``holevo_change`` and the
suites all call the module's binding of that name.  Each mutant is
installed there as an adapter returning ``(mutant(f, omega),
pullback(f, omega))``, so it sees every entropy change while the suites
still get the exact pullback.  Each runs only the suites listed for it,
at 20 trials, and each listed suite must report a failure.  The exact
functor passing every suite is covered by
``test_harness.test_each_suite_passes``.

A kernel mutant replaces a function below the entropy change at every
module binding of it in the package, and each suite listed for it must
report a failure too, and so must ``disintegration`` when its
``FACTOR_TOL`` is infinite.
"""

import math
import sys
from dataclasses import replace

import numpy as np
import pytest

from ncentropy import Seed, disintegration, entropy, linalg, run_suite, state
from ncentropy.algebra import AlgebraElement
from ncentropy.linalg import DEFAULT_TOL, max_abs
from ncentropy.morphism import pullback

EXACT = entropy._change_and_pullback  # captured here: the adapter replaces the binding


def _collision(omega):
    """``sum_x p_x^2 tr(rho_x^2)``: the purity of the block-diagonal density."""
    return sum(p * p * float((vals**2).sum()) for p, vals in zip(omega.weights, omega.spectra))


def _change(h):
    """Entropy change ``h(omega) - h(f* omega)`` of a state functional ``h``."""
    return lambda f, omega: h(omega) - h(pullback(f, omega))


MUTANTS = {
    # Scaling the functor is invisible to every check whose both sides
    # scale alike; only the suites that compare against an independent
    # reference entropy (coboundary's potential, the characterization fit),
    # a closed form or continuity's first-order rate see it.  That rate is
    # computed from the exact pullback's logarithms, so continuity catches
    # every mutant of this table on all of seeds 1-30.
    "doubled": (
        lambda f, omega: 2.0 * EXACT(f, omega)[0],
        ["coboundary", "continuity", "disintegration", "characterization-fit"],
    ),
    "half-pullback": (
        lambda f, omega: entropy.segal(omega) - 0.5 * entropy.segal(pullback(f, omega)),
        [
            "coboundary",
            "functoriality",
            "iso-invariance",
            "adjoin-zero",
            "orthogonal-affinity",
            "external-affinity",
            "k-counterexample",
            "continuity",
            "disintegration",
            "characterization-fit",
        ],
    ),
    "renyi-2": (
        _change(lambda omega: -np.log(_collision(omega))),
        [
            "coboundary",
            "holevo-nonneg",
            "orthogonal-affinity",
            "external-affinity",
            "continuity",
            "disintegration",
            "characterization-fit",
        ],
    ),
    "tsallis-2": (
        _change(lambda omega: 1.0 - _collision(omega)),
        [
            "coboundary",
            "holevo-nonneg",
            "orthogonal-affinity",
            "external-affinity",
            "continuity",
            "disintegration",
            "characterization-fit",
        ],
    ),
    # The sign flip S(f* omega) - S(omega) is negative wherever the change is
    # positive, so the suites with an inequality or a closed form see it.
    "sign-flipped": (
        lambda f, omega: -EXACT(f, omega)[0],
        [
            "coboundary",
            "holevo-nonneg",
            "commutative-positivity",
            "negative-existence",
            "continuity",
            "disintegration",
            "characterization-fit",
        ],
    ),
    "k-functor": (
        entropy.k_functor,
        # holevo-nonneg catches it on 22 of seeds 1-30, but not on seed 42
        [
            "coboundary",
            "orthogonal-affinity",
            "k-counterexample",
            "continuity",
            "disintegration",
            "characterization-fit",
        ],
    ),
}


@pytest.mark.parametrize("name", list(MUTANTS))
def test_mutant_is_caught_by_its_suites(name, monkeypatch):
    mutant, suites = MUTANTS[name]
    monkeypatch.setattr(entropy, "_change_and_pullback", lambda f, omega: (mutant(f, omega), pullback(f, omega)))
    passed = {suite: run_suite(suite, 20, Seed(42), 1e-9).passed for suite in suites}
    assert passed == dict.fromkeys(suites, False)


def _bindings(name, exact):
    """The package's modules that bind ``name`` to ``exact``."""
    return [
        module
        for module_name, module in sys.modules.items()
        if module_name.startswith("ncentropy") and getattr(module, name, None) is exact
    ]


def _diagonal_spectrum(m):
    """A wrong Hermitian spectrum: the sorted real diagonal, as if ``m`` were diagonal."""
    return max_abs(m - m.conj().T), np.sort(np.diagonal(m).real)


# A pure state off the standard basis gets positive entropy, and every
# entropy but a diagonal state's grows, so the suites with a closed form or
# an inequality that the dephased spectrum breaks report it, and so does
# continuity, whose first-order rate takes its logarithms from hermitian_eigh.
DIAGONAL_SPECTRUM_SUITES = [
    "iso-invariance",
    "adjoin-zero",
    "concavity",
    "holevo-nonneg",
    "orthogonal-affinity",
    "pure-vanishing",
    "negative-existence",
    "continuity",
    "disintegration",
]


def test_diagonal_spectrum_is_caught_by_its_suites(monkeypatch):
    bindings = _bindings("hermitian_spectrum", linalg.hermitian_spectrum)
    assert {module.__name__ for module in bindings} >= {"ncentropy.linalg", "ncentropy.harness", "ncentropy.disintegration"}
    for module in bindings:
        monkeypatch.setattr(module, "hermitian_spectrum", _diagonal_spectrum)
    passed = {suite: run_suite(suite, 20, Seed(42), 1e-9).passed for suite in DIAGONAL_SPECTRUM_SUITES}
    assert passed == dict.fromkeys(DIAGONAL_SPECTRUM_SUITES, False)


def _pullback_with_unitaries(block_unitary):
    """A wrong pullback: the exact one through ``f`` with each block unitary ``U`` replaced by ``block_unitary(U)``."""
    return lambda f, omega: pullback(replace(f, unitaries=tuple(block_unitary(u) for u in f.unitaries)), omega)


# coboundary and characterization-fit check the duality omega(f(a)) = (f* omega)(a)
# through apply; support-image pushes the pullback's support forward through
# apply; continuity's first-order rate pushes the pullback's logarithm forward
# through apply; disintegration compares the entropy change with the production
# of a witness built from the exact whole-block pullback.  Each catches both
# mutants on all of seeds 1-30.
PULLBACK_SUITES = ["coboundary", "support-image", "continuity", "disintegration", "characterization-fit"]
PULLBACK_MUTANTS = {
    "conjugation-skipped": _pullback_with_unitaries(lambda u: linalg.identity_matrix(len(u))),
    # U^T (p rho) conj(U): the adjoint taken without its complex conjugation
    "transpose-for-adjoint": _pullback_with_unitaries(np.conj),
}


@pytest.mark.parametrize("name", list(PULLBACK_MUTANTS))
def test_pullback_mutant_is_caught_by_its_suites(name, monkeypatch):
    bindings = _bindings("pullback", pullback)
    assert {module.__name__ for module in bindings} >= {"ncentropy.morphism", "ncentropy.entropy"}
    for module in bindings:
        monkeypatch.setattr(module, "pullback", PULLBACK_MUTANTS[name])
    passed = {suite: run_suite(suite, 20, Seed(42), 1e-9).passed for suite in PULLBACK_SUITES}
    assert passed == dict.fromkeys(PULLBACK_SUITES, False)


def _support_above(cut):
    """A wrong ``support``: in each block of positive weight, the spectral projection onto the eigenvalues above ``cut``."""

    def support(omega):
        blocks = []
        for p, rho, m in zip(omega.weights, omega.densities, omega.shape.blocks):
            if p > DEFAULT_TOL:
                vals, vecs = np.linalg.eigh(rho)
                cols = vecs[:, vals > cut]
                blocks.append(cols @ cols.conj().T)
            else:
                blocks.append(np.zeros((m, m), dtype=np.complex128))
        return AlgebraElement(omega.shape, tuple(blocks))

    return support


def _renyi_2(rho):
    """A wrong ``von_neumann``: the Renyi-2 entropy ``-log tr(rho^2)`` of the checked spectrum."""
    return -float(np.log(np.add.reduce(linalg.check_density(linalg.as_matrix(rho)) ** 2)))


def _segal_without_block_weights(omega):
    """A wrong ``segal``: the weighted block entropies without the Shannon entropy of the block weights."""
    return sum(p * entropy._plogp(vals) for p, vals in zip(omega.weights.tolist(), omega.spectra) if p > 0.0)


# name -> (exact function, mutant, suites that must report it).  A support
# that fills whole blocks, and an orthogonality test that always says no,
# make the suites that need an orthogonal pair raise NotOrthogonalInput,
# which their trial loop reports as a failure.
KERNEL_MUTANTS = {
    "support-whole-blocks": (state.support, _support_above(-np.inf), ["iso-invariance", "orthogonal-affinity", "k-counterexample"]),
    "support-above-0.2": (state.support, _support_above(0.2), ["support-image"]),
    "orthogonal-always": (state.are_orthogonal, lambda omega, xi: True, ["orthogonal-affinity", "overlap-persistence"]),
    "orthogonal-never": (state.are_orthogonal, lambda omega, xi: False, ["iso-invariance", "orthogonal-affinity", "k-counterexample"]),
    # disintegration_entropy takes its spectra from hermitian_spectrum, so only
    # concavity's mixtures reach von_neumann (all of seeds 1-30)
    "von-neumann-renyi-2": (entropy.von_neumann, _renyi_2, ["concavity"]),
    "segal-without-block-weights": (
        entropy.segal,
        _segal_without_block_weights,
        [
            "coboundary",
            "holevo-nonneg",
            "orthogonal-affinity",
            "negative-existence",
            "k-counterexample",
            "continuity",
            "disintegration",
            "characterization-fit",
        ],
    ),
}


@pytest.mark.parametrize("name", list(KERNEL_MUTANTS))
def test_kernel_mutant_is_caught_by_its_suites(name, monkeypatch):
    exact, mutant, suites = KERNEL_MUTANTS[name]
    bindings = _bindings(exact.__name__, exact)
    assert exact.__module__ in {module.__name__ for module in bindings}
    for module in bindings:
        monkeypatch.setattr(module, exact.__name__, mutant)
    passed = {suite: run_suite(suite, 20, Seed(42), 1e-9).passed for suite in suites}
    assert passed == dict.fromkeys(suites, False)


def test_an_infinite_factor_tolerance_is_caught_by_disintegration(monkeypatch):
    # every negative draw of the suite is refused by the block residual
    # alone, so accepting every state fails it (seed 42 and each of seeds 1-30)
    monkeypatch.setattr(disintegration, "FACTOR_TOL", math.inf)
    report = run_suite("disintegration", 20, Seed(42), 1e-9)
    assert {message for _, message, _ in report.failures} == {"factorization found despite violated product criterion"}
