"""Negative controls: wrong entropy-change functors that the gate must reject.

Each mutant replaces ``entropy.entropy_change`` (and through it
``holevo_change``, which calls the module's binding) and runs only the
suites listed for it, at 20 trials.  Each listed suite must report a
failure.  The exact functor passing every suite is covered by
``test_harness.test_each_suite_passes``.
"""

import numpy as np
import pytest

from ncentropy import Seed, entropy, run_suite
from ncentropy.morphism import pullback

EXACT = entropy.entropy_change


def _collision(omega):
    """``sum_x p_x^2 tr(rho_x^2)``: the purity of the block-diagonal density."""
    return sum(p * p * float((vals**2).sum()) for p, vals in zip(omega.weights, omega.spectra))


def _change(h):
    """Entropy change ``h(omega) - h(f* omega)`` of a state functional ``h``."""
    return lambda f, omega: h(omega) - h(pullback(f, omega))


MUTANTS = {
    # Caught by one suite only: scaling the functor is invisible to every
    # check whose both sides scale alike.  This is the gap that ROADMAP
    # item 1 (a characterization check against an independent reference)
    # closes.
    "doubled": (lambda f, omega: 2.0 * EXACT(f, omega), ["disintegration"]),
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
            "disintegration",
        ],
    ),
    "renyi-2": (
        _change(lambda omega: -np.log(_collision(omega))),
        ["orthogonal-affinity", "external-affinity", "disintegration"],
    ),
    "tsallis-2": (
        _change(lambda omega: 1.0 - _collision(omega)),
        ["holevo-nonneg", "orthogonal-affinity", "external-affinity", "disintegration"],
    ),
    "k-functor": (
        entropy.k_functor,
        ["holevo-nonneg", "orthogonal-affinity", "k-counterexample", "disintegration"],
    ),
}


@pytest.mark.parametrize("name", list(MUTANTS))
def test_mutant_is_caught_by_its_suites(name, monkeypatch):
    mutant, suites = MUTANTS[name]
    monkeypatch.setattr(entropy, "entropy_change", mutant)
    passed = {suite: run_suite(suite, 20, Seed(42), 1e-9).passed for suite in suites}
    assert passed == dict.fromkeys(suites, False)
