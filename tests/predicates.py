"""Predicates that only the tests use, kept out of the library."""

import numpy as np

from ncentropy import AlgebraElement, apply
from ncentropy.linalg import max_abs


def extensionally_equal(f, g, tol: float = 1e-9) -> bool:
    """Apply-equality on the matrix-unit basis of the domain.

    The (multiplicities, unitaries) data is not unique, so value-level
    equality of morphisms is decided extensionally.
    """
    if f.domain != g.domain or f.codomain != g.codomain:
        return False
    for y, n in enumerate(f.domain.blocks):
        for i in range(n):
            for j in range(n):
                blocks = [np.zeros((d, d), dtype=np.complex128) for d in f.domain.blocks]
                blocks[y][i, j] = 1.0
                unit = AlgebraElement(f.domain, tuple(blocks))
                fa, ga = apply(f, unit), apply(g, unit)
                if any(max_abs(p - q) > tol for p, q in zip(fa.blocks, ga.blocks)):
                    return False
    return True
