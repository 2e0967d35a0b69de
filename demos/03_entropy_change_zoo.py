# How the entropy change behaves across kinds of morphisms.
#
# Isomorphisms never change entropy; classical (commutative) maps never
# decrease it; and any noncommutative system admits a measurement that
# strictly decreases it on a suitable pure state.  The change is also a
# coboundary: it only depends on the entropies assigned to the two ends.

import numpy as np

from ncentropy import (
    AlgebraShape,
    Morphism,
    Seed,
    State,
    block_pure_state,
    classical_state,
    entropy_change,
    initial,
    measurement_morphism,
    pullback,
    sample_density,
    sample_unitary,
)

# 1. A unitary rotation of a qutrit: entropy change is zero.
u = sample_unitary(3, Seed(0).rng())
rotation = Morphism(AlgebraShape((3,)), AlgebraShape((3,)), np.array([[1]]), (u,))
omega = State(AlgebraShape((3,)), [1.0], (sample_density(3, Seed(1).rng()),))
print("isomorphism:", entropy_change(rotation, omega))

# 2. Merging two classical outcomes loses information, so entropy drops
#    along the pullback -- the change is positive.
merge = Morphism(
    AlgebraShape((1, 1)),
    AlgebraShape((1, 1, 1)),
    np.array([[1, 0], [0, 1], [0, 1]]),
    (np.eye(1),) * 3,
)
die = classical_state([0.5, 0.25, 0.25])
print("classical merge:", entropy_change(merge, die), "= 0.5 log 2")

# 3. Measuring a pure state in a basis it does not commute with creates
#    a genuinely random record: the change is negative.
z_basis = measurement_morphism(AlgebraShape((2,)), 0, np.diag([1.0, -1.0]))
plus = block_pure_state(AlgebraShape((2,)), 0, [1.0, 1.0])
print("measurement of |+>:", entropy_change(z_basis, plus), "= -log 2")

# 4. Coboundary: the change along any morphism is the difference of the
#    changes along the unique arrows out of the scalars.
f = merge
lhs = entropy_change(f, die)
rhs = entropy_change(initial(f.codomain), die) - entropy_change(initial(f.domain), pullback(f, die))
print("coboundary residual:", abs(lhs - rhs))
