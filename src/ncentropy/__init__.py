"""Finite-dimensional quantum probability toolkit.

Block algebras and their states, unital *-homomorphisms in canonical
multiplicity/unitary form, entropy-change functors, disintegrations, and
seeded verification suites for the entropy inequalities they satisfy.
"""

from .algebra import AlgebraElement, AlgebraShape
from .disintegration import (
    NoDisintegration,
    QuantumDisintegrationData,
    classical_disintegrate,
    disintegration_entropy,
    quantum_disintegrate,
)
from .entropy import entropy_change, holevo_change, k_functor, segal, shannon, von_neumann
from .harness import InstanceFamily, SuiteReport, generate_instance, run_all, run_suite
from .linalg import (
    DEFAULT_TOL,
    Seed,
    sample_density,
    sample_simplex,
    sample_unitary,
)
from .morphism import (
    Morphism,
    apply,
    compose,
    external_sum_morphism,
    initial,
    is_isomorphism,
    measurement_morphism,
    preserves_orthogonality,
    pullback,
    summand_projection,
)
from .state import (
    State,
    are_orthogonal,
    block_pure_state,
    classical_state,
    convex_combine,
    evaluate,
    external_sum_state,
    is_pure,
    support,
)

__all__ = [
    "AlgebraElement",
    "AlgebraShape",
    "DEFAULT_TOL",
    "InstanceFamily",
    "Morphism",
    "NoDisintegration",
    "QuantumDisintegrationData",
    "Seed",
    "State",
    "SuiteReport",
    "apply",
    "are_orthogonal",
    "block_pure_state",
    "classical_disintegrate",
    "classical_state",
    "compose",
    "convex_combine",
    "disintegration_entropy",
    "entropy_change",
    "evaluate",
    "external_sum_morphism",
    "external_sum_state",
    "generate_instance",
    "holevo_change",
    "initial",
    "is_isomorphism",
    "is_pure",
    "k_functor",
    "measurement_morphism",
    "preserves_orthogonality",
    "pullback",
    "quantum_disintegrate",
    "run_all",
    "run_suite",
    "sample_density",
    "sample_simplex",
    "sample_unitary",
    "segal",
    "shannon",
    "summand_projection",
    "support",
    "von_neumann",
]
