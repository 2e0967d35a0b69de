# Disintegrations: stochastic inverses and when they exist.
#
# Classically a probability-preserving map always has a stochastic
# one-sided inverse that splits the merged mass back apart.  In the
# quantum setting the analogous factorization may fail; on the diagonal
# family through the qubit inclusion it exists exactly when the cross
# products of the eigenvalues agree, and whenever it exists the entropy
# change is nonnegative and equals a weighted entropy of the factors.

import numpy as np

from ncentropy import (
    AlgebraShape,
    Morphism,
    NoDisintegration,
    State,
    classical_disintegrate,
    classical_state,
    disintegration_entropy,
    entropy_change,
    quantum_disintegrate,
)
from ncentropy.harness import factor_inclusion

# Classical: merge outcomes 2 and 3 of (1/2, 1/4, 1/4).  The map of finite
# sets x -> phi(x) = (0, 1, 1) is the morphism of commutative algebras with
# one 1 per multiplicity row, in column phi(x).
merge = Morphism(AlgebraShape((1, 1)), AlgebraShape((1, 1, 1)), np.array([[1, 0], [0, 1], [0, 1]]), (np.ones((1, 1)),) * 3)
psi = classical_disintegrate(merge, classical_state([0.5, 0.25, 0.25]))
print("stochastic inverse rows:\n", psi)

inclusion = factor_inclusion(2, 2)


def diag_state(p):
    return State(AlgebraShape((4,)), [1.0], (np.diag(p).astype(complex),))


# diag(0.4, 0.1, 0.4, 0.1): cross products 0.4*0.1 match, so the state
# factors and the witness is tau = I/2.
balanced = diag_state([0.4, 0.1, 0.4, 0.1])
witness = quantum_disintegrate(inclusion, balanced)
print("balanced tau:\n", witness.tau[(0, 0)].real)
print("entropy production:", disintegration_entropy(inclusion, balanced, witness))
print("entropy change:   ", entropy_change(inclusion, balanced))

# diag(1/2, 1/4, 1/8, 1/8): cross products 1/16 vs 1/32 differ -- no
# disintegration, yet the entropy change is still positive.
quartic = diag_state([0.5, 0.25, 0.125, 0.125])
verdict = quantum_disintegrate(inclusion, quartic)
assert isinstance(verdict, NoDisintegration)
print("quartic verdict:", verdict.violation)
print("quartic change (still >= 0):", entropy_change(inclusion, quartic))
