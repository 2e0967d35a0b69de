"""Algebra operations, predicates and constructors that only the tests use, kept out of the library."""

import numpy as np

from ncentropy import AlgebraElement, AlgebraShape, Morphism, apply
from ncentropy.linalg import DEFAULT_TOL, hermitian_spectrum, max_abs, sample_unitary


def identity(shape: AlgebraShape) -> AlgebraElement:
    return AlgebraElement(shape, tuple(np.eye(m, dtype=np.complex128) for m in shape.blocks))


def identity_morphism(shape: AlgebraShape) -> Morphism:
    """The identity of ``shape``: one copy of each block and identity unitaries."""
    eyes = tuple(np.eye(m, dtype=np.complex128) for m in shape.blocks)
    return Morphism(shape, shape, np.eye(len(shape), dtype=np.int64), eyes)


def random_morphism(domain, codomain, c, rng) -> Morphism:
    """The morphism of multiplicities ``c`` between the block dimensions given, with one Haar unitary per codomain block drawn from ``rng``."""
    return Morphism(AlgebraShape(domain), AlgebraShape(codomain), np.array(c), tuple(sample_unitary(m, rng) for m in codomain))


def function_morphism(phi, n_targets: int) -> Morphism:
    """The morphism of commutative algebras that the map ``x -> phi[x]`` into ``0..n_targets - 1`` encodes."""
    c = np.zeros((len(phi), n_targets), dtype=np.int64)
    c[np.arange(len(phi)), phi] = 1
    return Morphism(AlgebraShape((1,) * n_targets), AlgebraShape((1,) * len(phi)), c, (np.ones((1, 1)),) * len(phi))


def multiply(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Blockwise product of two elements of one algebra."""
    return AlgebraElement(a.shape, tuple(x @ y for x, y in zip(a.blocks, b.blocks)))


def adjoint(a: AlgebraElement) -> AlgebraElement:
    return AlgebraElement(a.shape, tuple(x.conj().T for x in a.blocks))


def is_positive(a: AlgebraElement, tol: float = DEFAULT_TOL) -> bool:
    """Blockwise Hermitian with all eigenvalues at least ``-tol``."""
    for b in a.blocks:
        deviation, vals = hermitian_spectrum(b)
        if deviation > tol or vals[0] < -tol:
            return False
    return True


def is_projection(p: AlgebraElement, tol: float = DEFAULT_TOL) -> bool:
    """Checks ``p* p = p`` blockwise in max-norm."""
    return all(max_abs(b.conj().T @ b - b) <= tol for b in p.blocks)


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
