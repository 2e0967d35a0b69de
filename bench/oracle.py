"""Reference oracle, computed apart from ncentropy.

Works on plain arrays: a morphism is its multiplicity matrix ``c``
(codomain x domain), its domain block dimensions and one unitary per
codomain block; a state is its block weights and block densities.  Dense
matrices are assembled here and decomposed with ``scipy.linalg``:

* the Segal entropy of a state is the von Neumann entropy of the dense
  matrix ``⊕_x p_x rho_x``;
* the pullback is read off by explicit partial traces over the copies of
  each domain block inside ``U_x^† (p_x rho_x) U_x``;
* ``apply`` builds ``U_x (⊕_y 1_{c[x,y]} ⊗ b_y) U_x^†``.

``self_check`` pins the oracle to closed forms before it judges anything.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import linalg as sla

LOG2 = math.log(2.0)


def dense(weights, blocks) -> np.ndarray:
    """The block-diagonal matrix ``⊕_x p_x b_x``."""
    return sla.block_diag(*[p * np.asarray(b, dtype=np.complex128) for p, b in zip(weights, blocks)])


def von_neumann(mat: np.ndarray) -> float:
    vals = sla.eigvalsh(mat, check_finite=True)
    vals = vals[vals > 0.0]
    return float(-(vals * np.log(vals)).sum())


def entropy(weights, densities) -> float:
    return von_neumann(dense(weights, densities))


def _layout(c, dom_dims, x):
    """Segments ``(y, offset, copies, n_y)`` of codomain block ``x``, ascending in y."""
    offset = 0
    for y, n in enumerate(dom_dims):
        copies = int(c[x][y])
        if copies:
            yield y, offset, copies, n
            offset += copies * n


def weighted_pullback(c, dom_dims, unitaries, weights, densities) -> list[np.ndarray]:
    """Unnormalised domain blocks ``q_y sigma_y`` of the pulled-back state."""
    acc = [np.zeros((n, n), dtype=np.complex128) for n in dom_dims]
    for x, (p, rho) in enumerate(zip(weights, densities)):
        u = unitaries[x]
        m = u.conj().T @ (p * rho) @ u
        for y, off, copies, n in _layout(c, dom_dims, x):
            for k in range(copies):
                lo = off + k * n
                acc[y] += m[lo : lo + n, lo : lo + n]
    return acc


def pullback(c, dom_dims, unitaries, weights, densities):
    """Normalised ``(weights, densities)`` of the pullback; weight-zero blocks get ``None``."""
    acc = weighted_pullback(c, dom_dims, unitaries, weights, densities)
    q = np.array([np.trace(a).real for a in acc])
    q = np.clip(q, 0.0, None)
    q = q / q.sum()
    sig = [a / np.trace(a).real if w > 1e-13 else None for a, w in zip(acc, q)]
    return q, sig


def entropy_change(c, dom_dims, unitaries, weights, densities) -> float:
    acc = weighted_pullback(c, dom_dims, unitaries, weights, densities)
    return entropy(weights, densities) - von_neumann(sla.block_diag(*acc))


def mix(lam, wa, da, wb, db):
    """Blockwise mixture ``lam*a + (1-lam)*b`` as ``(weights, densities)``."""
    weights, dens = [], []
    for p, r, q, s in zip(wa, da, wb, db):
        w = lam * p + (1.0 - lam) * q
        weights.append(w)
        dens.append((lam * p * r + (1.0 - lam) * q * s) / w if w > 0 else np.zeros_like(r))
    return np.array(weights), dens


def holevo_change(c, dom_dims, unitaries, lam, wa, da, wb, db) -> float:
    wm, dm = mix(lam, wa, da, wb, db)
    return (
        entropy_change(c, dom_dims, unitaries, wm, dm)
        - lam * entropy_change(c, dom_dims, unitaries, wa, da)
        - (1.0 - lam) * entropy_change(c, dom_dims, unitaries, wb, db)
    )


def apply(c, dom_dims, unitaries, blocks) -> list[np.ndarray]:
    out = []
    for x, u in enumerate(unitaries):
        parts = []
        for y, _, copies, _ in _layout(c, dom_dims, x):
            parts.extend([blocks[y]] * copies)
        out.append(u @ sla.block_diag(*parts) @ u.conj().T)
    return out


def evaluate(weights, densities, blocks) -> complex:
    return complex(sum(p * np.trace(r @ b) for p, r, b in zip(weights, densities, blocks) if p > 0))


def rank(mat: np.ndarray, tol: float = 1e-10) -> int:
    return int(np.sum(sla.eigvalsh(mat) > tol))


def projection_defect(p: np.ndarray, rho: np.ndarray | None) -> float:
    """Largest of ``|P - P^†|``, ``|P^2 - P|`` and ``|P rho - rho|`` in max-norm."""
    worst = max(np.max(np.abs(p - p.conj().T)), np.max(np.abs(p @ p - p)))
    if rho is not None:
        worst = max(worst, np.max(np.abs(p @ rho - rho)))
    return float(worst)


def quartic_change(p) -> float:
    """Closed form for ``diag(p)`` through the inclusion ``b -> 1_2 ⊗ b`` of M_2 in M_4."""
    marg = (p[0] + p[2], p[1] + p[3])
    return float(-sum(p[i] * math.log(p[i] / marg[i % 2]) for i in range(4) if p[i] > 0))


def self_check() -> None:
    """Check the oracle against closed forms; raises AssertionError on a mismatch."""
    eye4 = np.eye(4, dtype=np.complex128)
    bell = np.zeros((4, 4), dtype=np.complex128)
    bell[np.ix_([0, 3], [0, 3])] = 0.5
    got = entropy_change([[2]], (2,), [eye4], [1.0], [bell])
    if abs(got + LOG2) > 1e-12:
        raise AssertionError(f"oracle: bell change {got!r} != -log 2")
    plus = np.full((2, 2), 0.5, dtype=np.complex128)
    got = entropy_change([[1, 1]], (1, 1), [np.eye(2, dtype=np.complex128)], [1.0], [plus])
    if abs(got + LOG2) > 1e-12:
        raise AssertionError(f"oracle: plus-measurement change {got!r} != -log 2")
    for p in ([0.5, 0.25, 0.125, 0.125], [0.4, 0.1, 0.3, 0.2]):
        rho = np.diag(p).astype(np.complex128)
        got = entropy_change([[2]], (2,), [eye4], [1.0], [rho])
        if abs(got - quartic_change(p)) > 1e-12:
            raise AssertionError(f"oracle: remark-quartic change {got!r} != {quartic_change(p)!r}")
    # pullback of a product state through the factor inclusion is the right factor
    a = np.diag([0.7, 0.3]).astype(np.complex128)
    b = np.array([[0.6, 0.2j], [-0.2j, 0.4]], dtype=np.complex128)
    q, sig = pullback([[2]], (2,), [eye4], [1.0], [np.kron(a, b)])
    if abs(q[0] - 1.0) > 1e-12 or np.max(np.abs(sig[0] - b)) > 1e-12:
        raise AssertionError("oracle: partial trace of a product state is not its right factor")
