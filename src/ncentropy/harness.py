"""Seeded randomized verification suites.

Every suite turns one entropy/structure fact into a pass/fail property
over freshly generated instances: morphisms in canonical form with Haar
block unitaries, Ginibre block densities, and Dirichlet block weights.
Trial ``i`` builds one generator from its key ``seed.child(i)`` and draws
everything from it in program order, so reports are deterministic and
independent of execution order.  The samplers take that generator.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from . import disintegration as dis
from . import entropy as ent
from . import morphism as mor
from . import state as st
from .algebra import AlgebraElement, AlgebraShape
from .errors import ShapeMismatch, UnknownSuite
from .linalg import (
    Seed,
    _ginibre,
    block_diag,
    hermitian_eigh,
    hermitian_part,
    hermitian_spectrum,
    identity_matrix,
    kron,
    max_abs,
    placeholder,
    project_to_density,
    sample_density,
    sample_simplex,
    sample_unitary,
)
from .state import State


@dataclass(frozen=True)
class InstanceFamily:
    """Ranges steering the instance generator."""

    max_blocks: int = 4
    min_block_dim: int = 1
    max_block_dim: int = 4


@dataclass
class SuiteReport:
    """One suite's outcome; its ``run`` executes the trials and ``check``/``expect`` record them."""

    suite: str
    trials: int
    failures: tuple = ()
    max_residual: float = 0.0
    fitted_constant: float | None = None

    @property
    def passed(self) -> bool:
        return not self.failures

    def check(self, seed: Seed, description: str, residual: float, limit: float):
        residual = float(residual)
        self.max_residual = max(self.max_residual, residual)
        if not residual <= limit:
            self.failures += (((seed.seed, seed.stream), description, residual),)

    def expect(self, seed: Seed, description: str, ok: bool):
        if not ok:
            self.failures += (((seed.seed, seed.stream), description, 1.0),)

    def run(self, trial, seed: Seed, tol: float) -> "SuiteReport":
        """The one trial loop: ``trial(self, s, s.rng(), i, tol)`` on each key ``s = seed.child(i)``.

        A trial that raises fails with ``raised <ExceptionType>`` at its key, and the next trial runs.
        """
        for i in range(self.trials):
            s = seed.child(i)
            try:
                trial(self, s, s.rng(), i, tol)
            except Exception as exc:
                self.expect(s, f"raised {type(exc).__name__}", False)
        return self

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "trials": self.trials,
            "failures": [
                {"seed": list(s), "description": d, "residual": r} for (s, d, r) in self.failures
            ],
            "max_residual": self.max_residual,
            "pass": self.passed,
            "fitted_constant": self.fitted_constant,
        }


def _sample_shape(family: InstanceFamily, rng: np.random.Generator) -> AlgebraShape:
    k = int(rng.integers(1, family.max_blocks + 1))
    dims = rng.integers(family.min_block_dim, family.max_block_dim + 1, size=k)
    return AlgebraShape(tuple(dims.tolist()))


def _sample_morphism(
    family: InstanceFamily, rng: np.random.Generator, domain: AlgebraShape | None = None
) -> mor.Morphism:
    """Random morphism out of ``domain``, or out of a shape drawn from ``family``, built from its multiplicities.

    Each codomain row draws ``c_y ~ U{0 .. room // n_y}`` over the domain blocks
    in a random order, ``room`` starting at ``max_block_dim`` and shrinking by
    ``c_y n_y``; an empty row takes one copy of a random domain block.  The
    codomain is ``c n``, and a row over one-dimensional blocks is a single 1.
    """
    if domain is None:
        domain = _sample_shape(family, rng)
    rows = []
    for _ in range(int(rng.integers(1, family.max_blocks + 1))):
        row = [0] * len(domain)
        room = family.max_block_dim
        for y in rng.permutation(len(domain)).tolist():
            row[y] = int(rng.integers(0, room // domain.blocks[y] + 1))
            room -= row[y] * domain.blocks[y]
        if not any(row):
            row[int(rng.integers(0, len(domain)))] = 1
        rows.append(row)
    c = np.array(rows, dtype=np.int64)
    codomain = AlgebraShape(tuple((c @ np.array(domain.blocks)).tolist()))
    unitaries = tuple(sample_unitary(m, rng) for m in codomain.blocks)
    return mor.Morphism(domain, codomain, c, unitaries)


def _sample_state(shape: AlgebraShape, rng: np.random.Generator, full_rank: bool = True) -> State:
    """Random state on ``shape``; ``full_rank=False`` draws each block's rank from 1..m right before its density."""
    weights = sample_simplex(len(shape), rng)
    densities = tuple(sample_density(m, rng, None if full_rank else int(rng.integers(1, m + 1))) for m in shape.blocks)
    return State(shape, weights, densities)


def _sample_orthogonal_pair(shape: AlgebraShape, rng: np.random.Generator):
    """Two states with exactly orthogonal supports, built from complementary subspaces."""
    if shape.total_dim < 2:
        raise ShapeMismatch("an orthogonal pair needs total dimension at least 2")
    k = len(shape)
    dims = np.asarray(shape.blocks)
    # with total_dim >= 2 each draw is accepted with probability at least 1/3, the worst case being one M_2 block
    while True:
        ranks = np.array([int(rng.integers(0, m + 1)) for m in shape.blocks])
        if ranks.sum() >= 1 and (dims - ranks).sum() >= 1:
            break
    bases = [sample_unitary(m, rng) for m in shape.blocks]

    def build(use_complement: bool) -> State:
        weights = np.zeros(k)
        densities = []
        active = []
        for x, (m, r, v) in enumerate(zip(shape.blocks, ranks, bases)):
            span = (m - r) if use_complement else r
            cols = v[:, r:] if use_complement else v[:, :r]
            if span == 0:
                densities.append(placeholder(m))
                continue
            inner = sample_density(span, rng)
            rho = cols @ inner @ cols.conj().T
            densities.append(hermitian_part(rho))
            active.append(x)
        probs = sample_simplex(len(active), rng)
        for i, x in enumerate(active):
            weights[x] = probs[i]
        return State(shape, weights, tuple(densities))

    return build(False), build(True)


def _sample_instance(family: InstanceFamily, rng: np.random.Generator):
    f = _sample_morphism(family, rng)
    return f, _sample_state(f.codomain, rng)


def _sample_instance_pair(family: InstanceFamily, rng: np.random.Generator):
    """Two instances ``(f_a, omega_a), (f_b, omega_b)``, both morphisms drawn before both states."""
    fa, fb = _sample_morphism(family, rng), _sample_morphism(family, rng)
    return (fa, _sample_state(fa.codomain, rng)), (fb, _sample_state(fb.codomain, rng))


def generate_instance(family: InstanceFamily, seed: Seed):
    """Random ``(f, omega)`` instance: the one a suite trial keyed by ``seed`` draws first."""
    return _sample_instance(family, seed.rng())


def _sample_isomorphism(family: InstanceFamily, rng: np.random.Generator) -> mor.Morphism:
    codomain = _sample_shape(family, rng)
    perm = rng.permutation(len(codomain))
    domain_dims = [0] * len(codomain)
    c = np.zeros((len(codomain), len(codomain)), dtype=np.int64)
    for x, y in enumerate(perm):
        domain_dims[y] = codomain.blocks[x]
        c[x, y] = 1
    unitaries = tuple(sample_unitary(m, rng) for m in codomain.blocks)
    return mor.Morphism(AlgebraShape(tuple(domain_dims)), codomain, c, unitaries)


_DEFAULT = InstanceFamily()
_CLASSICAL = InstanceFamily(max_block_dim=1)  # one-dimensional blocks: commutative algebras
_LAMBDAS = (0.1, 0.5, 0.9)
GATE_TOL = 1e-9  # the suites' limit unless ``nce verify --tol`` sets another

# Suite name -> run(trials, seed, tol) -> SuiteReport, in roster order.
SUITES: dict = {}


def _per_trial(check):
    """Register ``check(rec, s, rng, i, tol)``, one trial of a suite, as that suite.

    The suite is named after the function: ``_suite_iso_invariance`` runs
    as ``iso-invariance``.  Its runner hands ``SuiteReport.run`` the module's
    binding of the name, as a plain call from this module would, so a
    wrapper installed over ``_suite_<name>`` sees every trial.
    """
    name = check.__name__.removeprefix("_suite_").replace("_", "-")

    def run(trials: int, seed: Seed, tol: float) -> SuiteReport:
        return SuiteReport(name, trials).run(globals()[check.__name__], seed, tol)

    SUITES[name] = run
    return check


def _reference_entropy(omega: State) -> float:
    """Von Neumann entropy of the assembled block diagonal ``⊕_x p_x rho_x``.

    One spectrum of the whole matrix, never ``omega.spectra`` (which
    ``segal`` reads), so the entropy functor is checked against a value it
    did not compute.
    """
    return ent._plogp(hermitian_spectrum(block_diag([p * rho for p, rho in zip(omega.weights, omega.densities)]))[1])


def _check_duality(rec, s, rng, f, omega, pulled, tol):
    """Check ``pulled(a) == omega(f(a))`` at two Ginibre domain elements ``a``, both drawn by one ``_ginibre`` call.

    ``apply`` and ``evaluate`` share only ``Morphism.segments`` with the
    pullback, so this is the pullback's own contract checked independently.
    """
    dims = f.domain.blocks
    ends = list(itertools.accumulate(n * n for n in dims))
    for row in _ginibre(2, ends[-1], rng):
        a = AlgebraElement(f.domain, tuple(row[j - n * n : j].reshape(n, n) for j, n in zip(ends, dims)))
        rec.check(s, "pullback is not dual to apply", abs(st.evaluate(pulled, a) - st.evaluate(omega, mor.apply(f, a))), tol)


@_per_trial
def _suite_coboundary(rec, s, rng, i, tol):
    f, omega = _sample_instance(_DEFAULT, rng)
    lhs, pulled = ent._change_and_pullback(f, omega)
    # the potential of the coboundary: the change along the unit of an algebra is the state's entropy
    at_codomain = ent.entropy_change(mor.initial(f.codomain), omega)
    at_domain = ent.entropy_change(mor.initial(f.domain), pulled)
    rec.check(s, "entropy change differs from its coboundary expression", abs(lhs - (at_codomain - at_domain)), tol)
    rec.check(s, "potential on the codomain differs from the reference entropy", abs(at_codomain - _reference_entropy(omega)), tol)
    rec.check(s, "potential on the domain differs from the reference entropy", abs(at_domain - _reference_entropy(pulled)), tol)
    _check_duality(rec, s, rng, f, omega, pulled, tol)


@_per_trial
def _suite_functoriality(rec, s, rng, i, tol):
    g = _sample_morphism(_DEFAULT, rng)
    f = _sample_morphism(_DEFAULT, rng, g.codomain)
    omega = _sample_state(f.codomain, rng)
    composite = mor.compose(f, g)
    lhs = ent.entropy_change(composite, omega)
    change, pulled = ent._change_and_pullback(f, omega)
    rhs = change + ent.entropy_change(g, pulled)
    rec.check(s, "entropy change is not additive under composition", abs(lhs - rhs), tol)


@_per_trial
def _suite_iso_invariance(rec, s, rng, i, tol):
    f = _sample_isomorphism(_DEFAULT, rng)
    rec.expect(s, "constructed isomorphism not recognized", mor.is_isomorphism(f))
    omega = _sample_state(f.codomain, rng)
    change, pulled = ent._change_and_pullback(f, omega)
    rec.check(s, "entropy change along an isomorphism", abs(change), tol)
    pure = _sample_pure_state(f.codomain, rng)
    rec.expect(
        s,
        "isomorphism does not transport purity",
        st.is_pure(mor.pullback(f, pure)) and st.is_pure(pulled) == st.is_pure(omega),
    )
    if f.codomain.total_dim >= 2:
        w, x = _sample_orthogonal_pair(f.codomain, rng)
        rec.expect(
            s,
            "isomorphism does not preserve orthogonality",
            mor.preserves_orthogonality(f, w, x),
        )


def _sample_pure_state(shape: AlgebraShape, rng: np.random.Generator) -> State:
    block = int(rng.integers(0, len(shape)))
    m = shape.blocks[block]
    v = sample_unitary(m, rng)[:, 0] if m > 1 else np.ones(1)
    return st.block_pure_state(shape, block, v)


@_per_trial
def _suite_adjoin_zero(rec, s, rng, i, tol):
    a = _sample_shape(_DEFAULT, rng)
    b = _sample_shape(_DEFAULT, rng)
    proj = mor.summand_projection(a, b)
    omega = _sample_state(a, rng)
    rec.check(s, "adjoining a zero summand changes entropy", abs(ent.entropy_change(proj, omega)), tol)
    pure = _sample_pure_state(a, rng)
    rec.expect(s, "zero-extension does not preserve purity", st.is_pure(mor.pullback(proj, pure)))


@_per_trial
def _suite_concavity(rec, s, rng, i, tol):
    count = int(rng.integers(2, 4))
    dim = int(rng.integers(2, 5))
    # generic overlapping family; the floor keeps all weights bounded away from 0
    raw = sample_simplex(count, rng)
    p = (raw + 0.2) / (1.0 + 0.2 * count)
    rhos = [sample_density(dim, rng) for _ in range(count)]
    mixture = sum(w * r for w, r in zip(p, rhos))
    left = sum(w * ent.von_neumann(r) for w, r in zip(p, rhos))
    mid = ent.von_neumann(mixture)
    right = ent.shannon(p) + left
    rec.check(s, "mixture entropy below the weighted block entropies", left - mid, tol)
    rec.check(s, "mixture entropy above the Shannon bound", mid - right, tol)
    rec.check(s, "overlapping family saturates the Shannon bound", 1e-4 - (right - mid), 0.0)
    # orthogonal family: supports in complementary subspaces saturate the bound
    ranks = [int(rng.integers(1, 3)) for _ in range(count)]
    basis = sample_unitary(sum(ranks), rng)
    q = sample_simplex(count, rng)
    parts = [
        cols @ sample_density(cols.shape[1], rng) @ cols.conj().T
        for cols in np.split(basis, np.cumsum(ranks)[:-1], axis=1)
    ]
    mix = hermitian_part(sum(w * r for w, r in zip(q, parts)))
    gap = ent.shannon(q) + sum(w * ent.von_neumann(r) for w, r in zip(q, parts)) - ent.von_neumann(mix)
    rec.check(s, "orthogonal family misses the Shannon bound", abs(gap), 1e-8)


@_per_trial
def _suite_holevo_nonneg(rec, s, rng, i, tol):
    f, omega = _sample_instance(_DEFAULT, rng)
    xi = _sample_state(f.codomain, rng)
    lams = _LAMBDAS + (float(rng.uniform()),)
    for lam, chi in zip(lams, ent._holevo_changes(f, lams, omega, xi)[0]):
        rec.check(s, f"negative mixing deviation at weight {lam:.3f}", -chi, tol)


def _bell_states():
    v1 = np.array([1, 0, 0, 1], dtype=np.complex128) / np.sqrt(2)
    v2 = np.array([1, 0, 0, -1], dtype=np.complex128) / np.sqrt(2)
    shape = AlgebraShape((4,))
    return st.block_pure_state(shape, 0, v1), st.block_pure_state(shape, 0, v2)


def factor_inclusion(n: int, copies: int) -> mor.Morphism:
    """The inclusion of one tensor factor: ``b -> eye(copies) (x) b``."""
    u = identity_matrix(copies * n)
    return mor.Morphism(AlgebraShape((n,)), AlgebraShape((copies * n,)), np.array([[copies]]), (u,))


def _diagonal_measurement_pair(dim: int, rng: np.random.Generator):
    """Measurement of a nondegenerate diagonal observable plus two
    diagonally supported orthogonal states; the pullbacks stay disjoint."""
    values = np.sort(rng.uniform(0.5, 1.0, size=dim))[::-1] + 2.0 * np.arange(dim, 0, -1)
    obs = np.diag(values).astype(np.complex128)
    shape = AlgebraShape((dim,))
    f = mor.measurement_morphism(shape, 0, obs)
    cut = int(rng.integers(1, dim))
    idx = rng.permutation(dim)
    left, right = idx[:cut], idx[cut:]

    def diag_state(support_idx):
        probs = sample_simplex(len(support_idx), rng)
        d = np.zeros(dim)
        d[np.asarray(support_idx)] = probs
        return State(shape, np.ones(1), (np.diag(d).astype(np.complex128),))

    return f, diag_state(left), diag_state(right)


@_per_trial
def _suite_orthogonal_affinity(rec, s, rng, i, tol):
    kind = i % 5
    if kind == 0:
        f = _sample_isomorphism(_DEFAULT, rng)
        while f.codomain.total_dim < 2:
            f = _sample_isomorphism(_DEFAULT, rng)
        omega, xi = _sample_orthogonal_pair(f.codomain, rng)
        preserving = True
    elif kind == 1:
        dim = int(rng.integers(2, 5))
        f, omega, xi = _diagonal_measurement_pair(dim, rng)
        preserving = True
    elif kind == 2:
        (fa, wa), (fb, wb) = _sample_instance_pair(_DEFAULT, rng)
        f = mor.external_sum_morphism(fa, fb)
        omega = st.external_sum_state(1.0, wa, wb)
        xi = st.external_sum_state(0.0, wa, wb)
        preserving = True
    elif kind == 3:
        f = mor.initial(AlgebraShape((1, 1)))
        omega = st.classical_state([1.0, 0.0])
        xi = st.classical_state([0.0, 1.0])
        preserving = False
    else:
        f = factor_inclusion(2, 2)
        omega, xi = _bell_states()
        preserving = False
    chis, ((_, f_omega), (_, f_xi), *_) = ent._holevo_changes(f, _LAMBDAS, omega, xi)
    rec.expect(
        s,
        f"orthogonality preservation mismatch on construction {kind}",
        mor._preserves_orthogonality(omega, xi, f_omega, f_xi) == preserving,
    )
    for lam, chi in zip(_LAMBDAS, chis):
        if preserving:
            rec.check(s, f"mixing deviation on a preserving morphism (weight {lam})", abs(chi), 1e-8)
        else:
            rec.check(s, f"mixing deviation too small on a non-preserving morphism (weight {lam})", 1e-4 - abs(chi), 0.0)


@_per_trial
def _suite_commutative_positivity(rec, s, rng, i, tol):
    f, omega = _sample_instance(_CLASSICAL, rng)
    rec.check(s, "negative entropy change between commutative algebras", -ent.entropy_change(f, omega), tol)


@_per_trial
def _suite_support_image(rec, s, rng, i, tol):
    f = _sample_morphism(_DEFAULT, rng)
    omega = _sample_state(f.codomain, rng, full_rank=False)
    image = mor.apply(f, st.support(mor.pullback(f, omega)))
    deficit = 0.0
    for blk_img, blk_sup in zip(image.blocks, st.support(omega).blocks):
        vals = hermitian_spectrum(blk_img - blk_sup)[1]
        deficit = max(deficit, -float(vals[0]))
    rec.check(s, "image of the pullback support does not dominate the support", deficit, 100 * tol)


@_per_trial
def _suite_overlap_persistence(rec, s, rng, i, tol):
    f = _sample_morphism(_DEFAULT, rng)
    omega = _sample_state(f.codomain, rng, full_rank=False)
    other = _sample_state(f.codomain, rng)
    xi = st.convex_combine(0.4, omega, other)
    rec.expect(
        s,
        "overlapping states became orthogonal after pullback",
        not st.are_orthogonal(mor.pullback(f, omega), mor.pullback(f, xi)),
    )


@_per_trial
def _suite_pure_vanishing(rec, s, rng, i, tol):
    shape = _sample_shape(_DEFAULT, rng)
    pure = _sample_pure_state(shape, rng)
    rec.check(s, "pure state with nonzero entropy", abs(ent.segal(pure)), tol)
    mixed = _sample_state(shape, rng)
    rec.check(s, "state with negative entropy", -ent.segal(mixed), tol)


@_per_trial
def _suite_negative_existence(rec, s, rng, i, tol):
    shape = _sample_shape(InstanceFamily(min_block_dim=2), rng)
    block = int(rng.integers(0, len(shape)))
    m = shape.blocks[block]
    f = mor.measurement_morphism(shape, block, hermitian_part(_ginibre(m, m, rng)))
    omega = st.block_pure_state(shape, block, sample_unitary(m, rng)[:, 0])
    rec.check(s, "measurement of a noncommuting pure state did not lose entropy", ent.entropy_change(f, omega) + 1e-6, 0.0)


@_per_trial
def _suite_external_affinity(rec, s, rng, i, tol):
    (fa, wa), (fb, wb) = _sample_instance_pair(_CLASSICAL if i % 2 == 0 else _DEFAULT, rng)
    lam = float(rng.uniform())
    pairs = ((mor.external_sum_morphism(fa, fb), st.external_sum_state(lam, wa, wb)), (fa, wa), (fb, wb))
    changes, pulled = zip(*(ent._change_and_pullback(h, w) for h, w in pairs))
    weight_changes = [ent._block_weight_change(w, p) for (_, w), p in zip(pairs, pulled)]
    for name, (lhs, a, b) in (("entropy change", changes), ("block-weight change", weight_changes)):
        rec.check(s, f"{name} is not externally affine", abs(lhs - (lam * a + (1.0 - lam) * b)), tol)


@functools.cache
def _z_measurement_pair():
    """Measurement of Z on a qubit with its two eigenstates, which it keeps orthogonal."""
    shape = AlgebraShape((2,))
    f = mor.measurement_morphism(shape, 0, np.diag([1.0, -1.0]).astype(np.complex128))
    omega = State(shape, np.ones(1), (np.diag([1.0, 0.0]).astype(np.complex128),))
    xi = State(shape, np.ones(1), (np.diag([0.0, 1.0]).astype(np.complex128),))
    return f, omega, xi


@_per_trial
def _suite_k_counterexample(rec, s, rng, i, tol):
    f, omega, xi = _z_measurement_pair()
    lam = _LAMBDAS[i % len(_LAMBDAS)]
    (chi_s,), ((_, f_omega), (_, f_xi), (mix, f_mix)) = ent._holevo_changes(f, (lam,), omega, xi)
    preserved = mor._preserves_orthogonality(omega, xi, f_omega, f_xi)
    rec.expect(s, "measurement fails to preserve the diagonal pair", preserved)
    binary = ent.shannon([lam, 1.0 - lam])
    rec.check(s, "entropy change deviates on the preserved pair", abs(chi_s), 1e-8)

    k_omega, k_xi = ent._block_weight_change(omega, f_omega), ent._block_weight_change(xi, f_xi)

    def k_chi(l, state, pulled):
        return ent._block_weight_change(state, pulled) - l * k_omega - (1.0 - l) * k_xi

    half = st.convex_combine(0.5, omega, xi)
    rec.check(s, "block-weight functor deviation is not the binary entropy", abs(k_chi(lam, mix, f_mix) + binary), tol)
    rec.check(s, "block-weight functor unexpectedly affine", 1e-4 - abs(k_chi(0.5, half, mor.pullback(f, half))), 0.0)


def _change_rate(f: mor.Morphism, omega: State, pulled: State, w_dir, dirs) -> float:
    """Derivative D of the entropy change at ``omega`` along the weights ``w_dir`` and traceless densities ``dirs``.

    D = -tr(dP log P) + tr(f*(dP) log Q), with P = ⊕_x p_x rho_x, dP_x = dw_x rho_x + p_x d_x and Q the
    pullback's ⊕_y q_y sigma_y; by duality it is sum_x tr(dP_x (f(log Q)_x - log P_x)), so f*(dP) is not
    formed.  The logs come from ``hermitian_eigh``; a domain block of weight 0, which f does not hit, gets 0.
    """

    def log(p, rho):
        if p <= 0.0:
            return np.zeros_like(rho)
        vals, vecs = hermitian_eigh(p * rho)[1:]
        return (vecs * np.log(vals)) @ vecs.conj().T

    log_q = mor.apply(f, AlgebraElement(f.domain, tuple(map(log, pulled.weights, pulled.densities))))
    return sum(
        np.vdot(l - log(p, rho), dw * rho + p * d).real
        for l, p, rho, dw, d in zip(log_q.blocks, omega.weights, omega.densities, w_dir, dirs)
    )


@_per_trial
def _suite_continuity(rec, s, rng, i, tol):
    f, raw = _sample_instance(_DEFAULT, rng)
    # mix toward the maximally mixed state so log-derivatives stay bounded
    uniform = State(
        f.codomain,
        np.ones(len(f.codomain)) / len(f.codomain),
        tuple(placeholder(m) for m in f.codomain.blocks),
    )
    omega = st.convex_combine(0.9, raw, uniform)
    # the smoothing floors eigenvalues at 0.1 / (blocks * dim), far above
    # a step of this scale, so every step stays inside the state space
    scale = 0.005
    w_dir = rng.uniform(-1.0, 1.0, size=len(f.codomain))
    w_dir -= w_dir.mean()
    w_dir *= scale / max(np.max(np.abs(w_dir)), 1e-9)
    dirs = []
    for m in f.codomain.blocks:
        h = hermitian_part(_ginibre(m, m, rng))
        h -= np.trace(h).real / m * np.eye(m)
        dirs.append(scale * h / max(max_abs(h), 1e-9))
    base, pulled = ent._change_and_pullback(f, omega)
    rate = _change_rate(f, omega, pulled, w_dir, dirs)
    # along omega + Delta/n the change moves by D/n + O(1/n^2)
    for n in (1000, 10000):
        weights = omega.weights + w_dir / n
        densities = tuple(rho + d / n for rho, d in zip(omega.densities, dirs))
        change = ent._change_and_pullback(f, State(f.codomain, weights / weights.sum(), densities))[0]
        rec.check(s, "entropy change moves off its first-order rate", abs(n * (change - base) - rate), 1e-2 / n)


def _sample_disintegrable(rng: np.random.Generator):
    """Build (f, omega) that factors by construction, from random tau blocks."""
    f = _sample_morphism(InstanceFamily(max_blocks=3), rng)
    return (f, *_disintegrable_state(f, rng))


def _disintegrable_state(f: mor.Morphism, rng: np.random.Generator):
    """A state that factors through ``f`` by construction, and its tau blocks; a domain block that ``f`` misses gets weight zero."""
    c = f.multiplicities
    hit = c.sum(axis=0) > 0
    q = sample_simplex(len(f.domain), rng) * hit
    q /= q.sum()
    sigmas = [sample_density(n, rng) for n in f.domain.blocks]
    tau: dict = {}
    for y in range(len(f.domain)):
        pairs = [x for x in range(len(f.codomain)) if c[x, y] > 0]
        if q[y] <= 0.0 or not pairs:
            continue
        raws = []
        for x in pairs:
            k = int(c[x, y])
            g = _ginibre(k, k, rng)
            raws.append(g @ g.conj().T)
        total = sum(np.trace(r).real for r in raws)
        for x, r in zip(pairs, raws):
            tau[(y, x)] = r / total
    weights = np.zeros(len(f.codomain))
    densities = []
    for x, m in enumerate(f.codomain.blocks):
        inner = dis._factored_block(f, x, tau, q, sigmas)
        block = f.unitaries[x] @ inner @ f.unitaries[x].conj().T
        weights[x] = np.trace(block).real
        densities.append(project_to_density(block / weights[x]) if weights[x] > 1e-12 else placeholder(m))
    omega = State(f.codomain, weights / weights.sum(), tuple(densities))
    return omega, tau


def _remark_quartic_change(p: np.ndarray) -> float:
    """Entropy change of ``diag(p)`` through the second-factor inclusion of M_2 in M_4."""
    total = 0.0
    for i, row in ((0, p[0] + p[2]), (1, p[1] + p[3]), (2, p[0] + p[2]), (3, p[1] + p[3])):
        if p[i] > 0:
            total -= p[i] * np.log(p[i] / row)
    return total


@_per_trial
def _suite_disintegration(rec, s, rng, i, tol):
    inclusion = factor_inclusion(2, 2)
    # (a) instances with a factorization by construction
    f, omega, tau = _sample_disintegrable(rng)
    result = dis.quantum_disintegrate(f, omega)
    if isinstance(result, dis.NoDisintegration):
        rec.expect(s, f"constructed factorization rejected: {result.violation}", False)
    else:
        worst = max(
            (max_abs(result.tau[key] - tau[key]) for key in tau),
            default=0.0,
        )
        rec.check(s, "recovered factors differ from the constructed ones", worst, 1e-7)
        production = dis.disintegration_entropy(f, omega, result)
        change = ent.entropy_change(f, omega)
        rec.check(s, "entropy production does not match the entropy change", abs(production - change), 1e-8)
        rec.check(s, "negative entropy production", -production, tol)
    # (b) the diagonal quartic family: existence iff p1 p4 == p2 p3
    while True:
        p = sample_simplex(4, rng)
        if abs(p[0] * p[3] - p[1] * p[2]) > 1e-2 and np.min(p) > 1e-3:
            break
    rho = np.diag(p).astype(np.complex128)
    diag_state = State(AlgebraShape((4,)), np.ones(1), (rho,))
    verdict = dis.quantum_disintegrate(inclusion, diag_state)
    rec.expect(s, "factorization found despite violated product criterion", isinstance(verdict, dis.NoDisintegration))
    change = ent.entropy_change(inclusion, diag_state)
    rec.check(s, "quartic entropy change differs from closed form", abs(change - _remark_quartic_change(p)), 1e-9)
    rec.check(s, "quartic entropy change negative", -change, tol)
    x_w, y_w = rng.uniform(0.1, 0.9, size=2)
    prod = kron(np.diag([x_w, 1 - x_w]), np.diag([y_w, 1 - y_w])).astype(np.complex128)
    prod_state = State(AlgebraShape((4,)), np.ones(1), (prod,))
    rec.expect(
        s,
        "product-form diagonal state rejected",
        isinstance(dis.quantum_disintegrate(inclusion, prod_state), dis.QuantumDisintegrationData),
    )
    # (c) commutative case: factors match the classical stochastic inverse
    g, omega_c = _sample_instance(_CLASSICAL, rng)
    result_c = dis.quantum_disintegrate(g, omega_c)
    if isinstance(result_c, dis.NoDisintegration):
        rec.expect(s, f"classical instance rejected: {result_c.violation}", False)
        return
    psi = dis.classical_disintegrate(g, omega_c)
    worst = 0.0
    for (y, x), t in result_c.tau.items():
        worst = max(worst, abs(t[0, 0].real - psi[y, x]))
    rec.check(s, "quantum factors differ from the classical disintegration", worst, 1e-10)


def fit_scaling_constant(functor_values, reference_values):
    """Least-squares constant c minimizing ``sum (h_i - c s_i)^2``."""
    h = np.asarray(functor_values, dtype=np.float64)
    s = np.asarray(reference_values, dtype=np.float64)
    denom = float(s @ s)
    return float(h @ s / denom) if denom > 0 else 0.0


def _suite_characterization_fit(trials, seed, tol):
    """The one whole-suite function: the fit needs every trial's values first."""
    # The axioms force H = c * (S(omega) - S(f* omega)): fit the entropy
    # change against that difference of reference entropies, which must
    # give c = 1 with every residual at rounding level.
    values = []  # (s, change, reference) of each trial that did not raise

    def trial(rec, s, rng, i, tol):
        f, omega = _sample_instance(_CLASSICAL if i % 3 == 0 else _DEFAULT, rng)
        change, pulled = ent._change_and_pullback(f, omega)
        values.append((s, change, _reference_entropy(omega) - _reference_entropy(pulled)))
        _check_duality(rec, s, rng, f, omega, pulled, tol)

    rec = SuiteReport("characterization-fit", trials).run(trial, seed, tol)
    c = fit_scaling_constant([h for _, h, _ in values], [r for _, _, r in values])
    for s, h, r in values:
        rec.check(s, "fit residual", abs(h - c * r), tol)
    rec.check(seed, "fitted constant differs from 1", abs(c - 1.0), tol)
    rec.fitted_constant = c
    return rec


SUITES["characterization-fit"] = _suite_characterization_fit


def run_suite(name: str, trials: int, seed: Seed, tol: float = GATE_TOL) -> SuiteReport:
    """Execute one named suite; deterministic in (name, trials, seed, tol)."""
    if name not in SUITES:
        raise UnknownSuite(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    return SUITES[name](trials, seed, tol)


def run_all(trials: int, seed: Seed, tol: float = GATE_TOL) -> list[SuiteReport]:
    return [run_suite(name, trials, seed, tol) for name in SUITES]
