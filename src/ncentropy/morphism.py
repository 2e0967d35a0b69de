"""Unital *-homomorphisms between block algebras in canonical form.

A morphism from ``B = ⊕_y M_{n_y}`` to ``A = ⊕_x M_{m_x}`` is stored as a
nonnegative-integer multiplicity matrix ``c`` with ``m_x = sum_y c[x,y] n_y``
plus one unitary per codomain block.  Applied to an element ``b``, codomain
block ``x`` is::

    U_x @ blockdiag_y( kron(eye(c[x,y]), b_y) ) @ U_x^dag

with the segments laid out in ascending ``y`` order and copies contiguous.
A ``Morphism`` keeps this layout from its construction: ``segments[x]``
holds one ``(y, slice, copies, n_y)`` per segment of codomain block ``x``.
Every module that reads or builds a block in this layout takes its slices
from there; ``apply`` and ``compose`` spread the domain blocks into it
the same way (``_spread``).  States pull back through the Hilbert-Schmidt
adjoint, i.e. by partial tracing the multiplicity index of each diagonal
segment: ``pullback`` forms only the diagonal copy blocks, and
``_pullback_with_blocks`` whole blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .algebra import AlgebraElement, AlgebraShape, direct_sum_shape
from .errors import (
    DegenerateSpectrum,
    InvariantViolation,
    NotDensity,
    NotHermitian,
    NotOrthogonalInput,
    NotUnitary,
    ShapeMismatch,
)
from .linalg import DEFAULT_TOL, as_matrix
from .state import State, are_orthogonal

WEIGHT_FLOOR = 1e-13  # a pulled-back block of weight at most this gets the placeholder density


@dataclass(frozen=True, eq=False)
class Morphism:
    """Canonical form; ``unitarity_deviations[x]`` is ``||U_x^dag U_x - I||_F`` as measured, at most ``DEFAULT_TOL``.

    It bounds ``||U_x^dag U_x - I||_2`` and equals ``||U_x U_x^dag - I||_F``, so
    ``||U_x||_2^2 <= 1 + DEFAULT_TOL``.  The shared identity is taken as 0.0 without a product.
    ``compose`` and ``external_sum_morphism`` record a proven bound instead (``_composite_bound``).
    """

    domain: AlgebraShape
    codomain: AlgebraShape
    multiplicities: np.ndarray
    unitaries: tuple[np.ndarray, ...]
    segments: tuple[tuple[tuple[int, slice, int, int], ...], ...] = field(init=False, repr=False)
    unitarity_deviations: tuple[float, ...] = field(init=False, repr=False)

    def __post_init__(self, bounds=None):
        """Check the fields and fill in ``segments`` and ``unitarity_deviations``.

        ``bounds``, passed by ``_bounded_morphism`` only, holds a proven bound
        on each unitary's deviation; then only a unitary whose bound exceeds
        ``DEFAULT_TOL`` is measured, and the others keep their bound.
        """
        c = np.asarray(self.multiplicities)
        if c.shape != (len(self.codomain), len(self.domain)):
            raise ShapeMismatch(
                f"multiplicity matrix of shape {c.shape} does not match "
                f"{len(self.codomain)} codomain x {len(self.domain)} domain blocks"
            )
        kind = c.dtype.kind
        if kind not in "iuf":  # signed, unsigned, float: no bool, complex or object
            raise ShapeMismatch(f"multiplicities must be real numbers, got dtype {c.dtype}")
        if (kind == "f" and (not np.isfinite(c).all() or (c != np.floor(c)).any())) or np.logical_or.reduce(c < 0, axis=None):
            raise ShapeMismatch("multiplicities must be nonnegative integers")
        segments = []
        for x, (m, row) in enumerate(zip(self.codomain.blocks, c.tolist())):
            layout, start = [], 0
            for y, (n, copies) in enumerate(zip(self.domain.blocks, row)):
                if copies > m:  # c[x,y] n_y <= m_x; checked before the int64 cast below could wrap it
                    raise ShapeMismatch(f"multiplicity {copies} exceeds the dimension {m} of codomain block {x}")
                if copies > 0:
                    copies = int(copies)
                    layout.append((y, slice(start, start + copies * n), copies, n))
                    start += copies * n
            if start != m:
                raise ShapeMismatch(f"codomain block {x} has dimension {m} but multiplicities give {start}")
            segments.append(tuple(layout))
        c = c.astype(np.int64)
        mats = tuple(as_matrix(u) for u in self.unitaries)
        if len(mats) != len(self.codomain):
            raise ShapeMismatch(f"expected {len(self.codomain)} unitaries, got {len(mats)}")
        deviations = []
        for m, u, bound in zip(self.codomain.blocks, mats, [None] * len(mats) if bounds is None else bounds):
            if u.shape != (m, m):
                raise ShapeMismatch(f"unitary of shape {u.shape} does not match block dimension {m}")
            if bound is None or bound > DEFAULT_TOL:
                bound = _unitarity_deviation(u)
                if not bound <= DEFAULT_TOL:  # a NaN deviation fails
                    raise NotUnitary(f"block unitary has ||U^dag U - I||_F above {DEFAULT_TOL:.0e}")
            deviations.append(bound)
        object.__setattr__(self, "multiplicities", c)
        object.__setattr__(self, "unitaries", mats)
        object.__setattr__(self, "segments", tuple(segments))
        object.__setattr__(self, "unitarity_deviations", tuple(deviations))


def _unitarity_deviation(u: np.ndarray) -> float:
    """``||U^dag U - I||_F`` as measured; 0.0 for the shared identity.

    Overflow rule: the product is formed under ``np.errstate(over="ignore", invalid="ignore")``,
    so a U whose ``U^dag U`` overflows measures inf or NaN, which ``Morphism`` refuses, silently.
    """
    m = len(u)
    eye = linalg.identity_matrix(m)
    if u is eye:
        return 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        return linalg.frobenius_norm(u.conj().T @ u - eye)


def _bounded_morphism(domain, codomain, c, unitaries, bounds) -> Morphism:
    """``Morphism(domain, codomain, c, unitaries)``, given a proven deviation bound per unitary (see ``__post_init__``)."""
    f = object.__new__(Morphism)
    for name, value in (("domain", domain), ("codomain", codomain), ("multiplicities", c), ("unitaries", unitaries)):
        object.__setattr__(f, name, value)
    f.__post_init__(bounds)
    return f


def apply(f: Morphism, b: AlgebraElement) -> AlgebraElement:
    """Image of a domain element under the homomorphism."""
    if b.shape != f.domain:
        raise ShapeMismatch(f"element on {b.shape.blocks} fed to morphism with domain {f.domain.blocks}")
    blocks = tuple(u @ _spread(segments, b.blocks) @ u.conj().T for u, segments in zip(f.unitaries, f.segments))
    return AlgebraElement(f.codomain, blocks)


def _spread(segments, blocks) -> np.ndarray:
    """``blockdiag_y(kron(eye(c[x,y]), blocks[y]))`` over the ``segments`` of one codomain block."""
    return linalg.block_diag([linalg.kron(linalg.identity_matrix(copies), blocks[y]) for y, _, copies, _ in segments])


def pullback(f: Morphism, omega: State) -> State:
    """State on the domain dual to ``apply``: evaluate(pullback(f, w), b) == evaluate(w, apply(f, b)).

    Each weighted domain density is the sum, over codomain blocks ``x`` and
    over the copies of its segment in copy order, of the diagonal copy
    blocks of ``U_x^dag (p_x rho_x) U_x``.  Only those blocks are formed:
    ``a = U_x^dag (p_x rho_x)`` once, then ``a[k:k+n] @ U_x[:, k:k+n]`` per
    copy starting at row ``k``, so a block of dimension ``m`` costs
    ``m^3 + m sum_y c[x,y] n_y^2`` multiply-adds instead of ``2 m^3``.
    Summing copies, or dividing rounding by a small weight, can leave a
    block an eigenvalue below ``-DEFAULT_TOL``: ``State`` refuses exactly
    those blocks, which get ``linalg.project_to_density`` of themselves.
    """
    accum = _accumulators(f, omega)
    for p, rho, u, segments in zip(omega.weights.tolist(), omega.densities, f.unitaries, f.segments):
        if p <= 0.0:
            continue
        a = u.conj().T @ (p * rho)
        for y, seg, _, n in segments:
            for k in range(seg.start, seg.stop, n):
                accum[y] += a[k : k + n] @ u[:, k : k + n]
    weights, densities = _pulled(f.domain, accum)
    try:
        return State(f.domain, weights, densities)
    except NotDensity:  # a refusal for any other reason is raised again by the second State
        low = [linalg.hermitian_spectrum(s)[1][0] < -DEFAULT_TOL for s in densities]
        return State(f.domain, weights, tuple(linalg.project_to_density(s) if b else s for s, b in zip(densities, low)))


def _pullback_with_blocks(f: Morphism, omega: State) -> tuple[np.ndarray, tuple, list]:
    """``_pulled``'s arrays, unvalidated, through the whole canonical-layout blocks ``U_x^dag (p_x rho_x) U_x``, and those blocks.

    The blocks are fresh arrays the caller owns and may overwrite, also those
    of codomain blocks of weight zero; only positive weights are summed.
    """
    accum = _accumulators(f, omega)
    blocks = []
    for p, rho, u, segments in zip(omega.weights.tolist(), omega.densities, f.unitaries, f.segments):
        m = u.conj().T @ (p * rho) @ u
        blocks.append(m)
        if p <= 0.0:
            continue
        for y, seg, copies, n in segments:
            accum[y] += np.einsum("aiaj->ij", m[seg, seg].reshape(copies, n, copies, n))  # trace out the copy index
    return *_pulled(f.domain, accum), blocks


def _accumulators(f: Morphism, omega: State) -> list:
    """One zero matrix per domain block of ``f``, once ``omega`` is known to live on its codomain."""
    if omega.shape != f.codomain:
        raise ShapeMismatch(f"state on {omega.shape.blocks} pulled through morphism with codomain {f.codomain.blocks}")
    return [np.zeros((n, n), dtype=np.complex128) for n in f.domain.blocks]


def _pulled(domain: AlgebraShape, accum: list) -> tuple[np.ndarray, tuple]:
    """Weights clipped at 0 and normalised, and densities ``hermitian_part(a / q)`` of ``accum`` (placeholders at ``q <= WEIGHT_FLOOR``)."""
    weights = np.maximum([a.trace().real for a in accum], 0.0)
    densities = tuple(
        linalg.hermitian_part(a / q) if q > WEIGHT_FLOOR else linalg.placeholder(n)
        for q, a, n in zip(weights.tolist(), accum, domain.blocks)
    )
    return weights / np.add.reduce(weights), densities


def initial(shape: AlgebraShape) -> Morphism:
    """The unique unital morphism from the scalars into ``shape``."""
    c = np.array([[m] for m in shape.blocks], dtype=np.int64)
    return Morphism(AlgebraShape((1,)), shape, c, tuple(linalg.identity_matrix(m) for m in shape.blocks))


def _composition_data(f: Morphism, g: Morphism, x: int) -> np.ndarray:
    """Unitary for codomain block ``x`` of ``f o g``.

    Applying f after g interleaves the copies of g's domain blocks as
    (y, f-copy, z, g-copy); the canonical layout wants all copies of each
    z contiguous in ascending z, in order of appearance.  Labelling each
    interleaved row with its z, a stable sort of the labels lists the rows
    in canonical order, so the conjugating unitary is
    U_x @ blockdiag_y(kron(eye(c_f[x,y]), V_y)) with its columns taken in
    that order.
    """
    segments = f.segments[x]
    z_of_row = [
        np.tile(np.concatenate([np.full(rows.stop - rows.start, z) for z, rows, _, _ in g.segments[y]]), copies)
        for y, _, copies, _ in segments
    ]
    order = np.argsort(np.concatenate(z_of_row), kind="stable")
    return (f.unitaries[x] @ _spread(segments, g.unitaries))[:, order]


def compose(f: Morphism, g: Morphism) -> Morphism:
    """Composite ``f o g`` in canonical form (g applied first)."""
    if g.codomain != f.domain:
        raise ShapeMismatch(f"cannot compose: inner codomain {g.codomain.blocks} != outer domain {f.domain.blocks}")
    c = f.multiplicities @ g.multiplicities
    unitaries = tuple(_composition_data(f, g, x) for x in range(len(f.codomain)))
    d_v = max(g.unitarity_deviations)
    bounds = [_composite_bound(d_u, d_v, m) for d_u, m in zip(f.unitarity_deviations, f.codomain.blocks)]
    return _bounded_morphism(g.domain, f.codomain, c, unitaries, bounds)


def _composite_bound(d_u: float, d_v: float, m: int) -> float:
    """A bound on ``||W^dag W - I||_F`` for ``W = fl(U S) P`` of dimension ``m``, sound wherever it is at most 1.

    ``_composition_data`` forms W from ``U = U_x``, ``S = blockdiag_y(kron(eye(c_xy), V_y))``
    and a permutation ``P``, which keeps the norm.  The recorded deviations
    ``d_u, d_v <= t = DEFAULT_TOL`` bound ``||E||_F``, ``E = U^dag U - I``, and
    every ``||V_y^dag V_y - I||_F``, so ``||S||_2^2 <= 1 + d_v``; S holds
    ``sum_y c_xy <= m`` copies of the V_y, and ``d_u d_v <= t^2 < u = 2^-53``::

        (US)^dag (US) - I = S^dag E S + (S^dag S - I),
        ||S^dag E S||_F <= (1 + d_v) d_u <= d_u + u,
        ||S^dag S - I||_F^2 = sum_y c_xy ||V_y^dag V_y - I||_F^2 <= m d_v^2,

    so the exact product deviates by at most ``delta = d_u + u + sqrt(m) d_v``.
    The computed product is ``US + F``, ``|F| <= sqrt(2) gamma_2m |U| |S| <= 3 m u
    |U| |S| / (1 + t)`` for m below 10^14: either part of an entry is a real sum
    of ``2m`` products, within ``gamma_2m = 2mu / (1 - 2mu)`` of the sum of their
    absolute values in any order, with or without fused multiply-adds (Higham,
    *Accuracy and Stability of Numerical Algorithms*, 2nd ed., 3.1 and 3.6), and
    the two products in either part of ``a b`` sum to at most ``|a| |b|``.  As
    ``||U||_F^2, ||S||_F^2 <= m (1 + t)``, ``||F||_F <= eta = 3 m^2 u``, and
    ``||W^dag W - I||_F <= delta + 2 eta sqrt(1 + delta) + eta^2``, at most ``delta
    + 4 eta <= d_u + sqrt(m) d_v + 13 m^2 u`` where that is at most 1; a larger
    bound exceeds ``DEFAULT_TOL``, and ``Morphism`` measures W instead.
    """
    return d_u + math.sqrt(m) * d_v + 13.0 * m * m * linalg._UNIT_ROUNDOFF


def is_isomorphism(f: Morphism) -> bool:
    """True iff every row and every column of the multiplicity matrix sums to 1.

    For nonnegative integers that makes it a permutation matrix, and then
    ``m_x = sum_y c[x,y] n_y``, which ``Morphism`` enforces, matches the dimensions.
    """
    c = f.multiplicities
    return bool((c.sum(axis=0) == 1).all() and (c.sum(axis=1) == 1).all())


def preserves_orthogonality(f: Morphism, omega: State, xi: State) -> bool:
    """Whether the pullbacks of a mutually orthogonal pair stay orthogonal."""
    return _preserves_orthogonality(omega, xi, pullback(f, omega), pullback(f, xi))


def _preserves_orthogonality(omega: State, xi: State, f_omega: State, f_xi: State) -> bool:
    """``preserves_orthogonality`` of a pair whose pullbacks ``f_omega`` and ``f_xi`` are already taken."""
    if not are_orthogonal(omega, xi):
        raise NotOrthogonalInput("input states are not mutually orthogonal")
    return are_orthogonal(f_omega, f_xi)


def measurement_morphism(codomain: AlgebraShape, block: int, observable) -> Morphism:
    """Morphism from the classical algebra of an observable's spectrum.

    Each spectrum point (eigenvalues clustered within ``DEFAULT_TOL``,
    listed in descending order) maps to its spectral projection inside
    ``block``; the largest eigenvalue additionally carries the identity
    of every other codomain block so the morphism is unital.  NotHermitian
    if the observable deviates from its adjoint by more than ``DEFAULT_TOL``
    or its spectrum is not finite; its Hermitian part is decomposed.
    """
    linalg.check_block_index(block, len(codomain))
    m = codomain.blocks[block]
    if m < 2:
        raise ShapeMismatch("measurement needs a block of dimension at least 2")
    obs = as_matrix(observable)
    if obs.shape != (m, m):
        raise ShapeMismatch(f"observable of shape {obs.shape} does not fit block dimension {m}")
    deviation, h = linalg._spectral_matrix(obs)
    if deviation > DEFAULT_TOL:
        raise NotHermitian(f"matrix deviates from its adjoint by {deviation:.3e} > {DEFAULT_TOL:.3e}")
    vals, vecs = linalg.eigh(h)
    if not np.isfinite(vals).all():
        raise NotHermitian("observable spectrum is not finite")
    vals, vecs = vals[::-1].tolist(), vecs[:, ::-1]  # descending: the largest eigenvalue is point 0; Python floats overflow silently
    cluster_sizes = [1]
    for i in range(1, len(vals)):
        if vals[i - 1] - vals[i] <= DEFAULT_TOL:
            cluster_sizes[-1] += 1
        else:
            cluster_sizes.append(1)
    k = len(cluster_sizes)
    if k < 2:
        raise DegenerateSpectrum("all eigenvalues coincide; the induced morphism is the scalar embedding")
    domain = AlgebraShape((1,) * k)
    c = np.zeros((len(codomain), k), dtype=np.int64)
    c[block] = cluster_sizes
    for x, mx in enumerate(codomain.blocks):
        if x != block:
            c[x, 0] = mx  # designated largest eigenvalue absorbs the other blocks
    unitaries = [linalg.identity_matrix(mx) for mx in codomain.blocks]
    unitaries[block] = vecs
    return Morphism(domain, codomain, c, tuple(unitaries))


def summand_projection(a: AlgebraShape, b: AlgebraShape) -> Morphism:
    """Projection ``A + B -> A`` dropping the second summand."""
    domain = direct_sum_shape(a, b)
    c = np.zeros((len(a), len(domain)), dtype=np.int64)
    for x in range(len(a)):
        c[x, x] = 1
    return Morphism(domain, a, c, tuple(linalg.identity_matrix(m) for m in a.blocks))


def external_sum_morphism(f: Morphism, g: Morphism) -> Morphism:
    """Blockwise direct sum ``f + g`` acting summand by summand."""
    domain = direct_sum_shape(f.domain, g.domain)
    codomain = direct_sum_shape(f.codomain, g.codomain)
    c = np.zeros((len(codomain), len(domain)), dtype=np.int64)
    c[: len(f.codomain), : len(f.domain)] = f.multiplicities
    c[len(f.codomain) :, len(f.domain) :] = g.multiplicities
    return _bounded_morphism(domain, codomain, c, f.unitaries + g.unitaries, f.unitarity_deviations + g.unitarity_deviations)


def morphism_to_json(f: Morphism) -> dict:
    return {
        "domain": list(f.domain.blocks),
        "codomain": list(f.codomain.blocks),
        "multiplicities": [[int(v) for v in row] for row in f.multiplicities],
        "unitaries": [linalg.matrix_to_json(u) for u in f.unitaries],
    }


def morphism_from_json(data) -> Morphism:
    """The morphism a decoded JSON object encodes; null ``unitaries`` stand for identities.

    Those are allocated however large the declared codomain is: ``nce`` checks it against its state first.
    """
    try:
        domain = AlgebraShape(tuple(data["domain"]))
        codomain = AlgebraShape(tuple(data["codomain"]))
        c = np.asarray(data["multiplicities"])
        raw = data.get("unitaries")
        if raw is None:
            unitaries = tuple(linalg.identity_matrix(m) for m in codomain.blocks)
        else:
            unitaries = tuple(linalg.matrix_from_json(u) for u in raw)
    except InvariantViolation:
        raise  # a field's own check, which names what is wrong
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ShapeMismatch(f"malformed morphism encoding: missing or bad field {exc}") from exc
    return Morphism(domain, codomain, c, unitaries)
