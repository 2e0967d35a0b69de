"""States on block algebras: supports, orthogonality, mixing, purity.

A state is a probability weight per block together with a density
matrix per block; it acts on an element by ``sum_x p_x tr(rho_x a_x)``.
Blocks of weight zero carry a placeholder density (maximally mixed by
convention) that no operation ever reads: the library's own is the shared
read-only ``linalg.placeholder(n)``.

Validating a density takes its spectrum, so a ``State`` keeps what
``linalg.check_density`` computed: per block, the ascending eigenvalues
of ``(rho + rho^dag)/2``; the shared placeholder's was kept when it was built.
``support_rank``, and the Segal entropy in ``entropy``, read those values
instead of decomposing the density again; ``support`` projects onto the
eigenvectors of that same Hermitian part, keeping as many as
``support_rank`` counts.  One rule decides supports: block x keeps the
eigenvalues lambda with ``p_x * lambda > linalg.DEFAULT_TOL``, the support
of the density ``(+)_x p_x rho_x``; orthogonality and purity read it.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .algebra import AlgebraElement, AlgebraShape, direct_sum_shape
from .errors import InvariantViolation, OutOfRange, ShapeMismatch
from .linalg import DEFAULT_TOL, max_abs

# block_pure_state scales a vector by its largest entry first when that entry
# lies outside this range, so that the sum of squares stays a normal float
NORM_SAFE_RANGE = (2.0**-500, 2.0**500)


@dataclass(frozen=True, eq=False)
class State:
    """Block weights plus one density matrix per block.

    ``spectra`` holds, per block, the eigenvalues that validating its
    density returned (see ``linalg.check_density``).
    """

    shape: AlgebraShape
    weights: np.ndarray
    densities: tuple[np.ndarray, ...]
    spectra: tuple[np.ndarray, ...] = field(init=False, repr=False)

    def __post_init__(self):
        w = linalg.as_numbers(self.weights, "iuf", "probability vector entries")
        if w.shape != (len(self.shape),):
            raise ShapeMismatch(f"expected {len(self.shape)} weights, got shape {w.shape}")
        w = linalg.check_probability_vector(w)
        # non-finite entries are caught by check_density
        mats = tuple(linalg.as_numbers(r, "iufc", "density entries").astype(np.complex128, copy=False) for r in self.densities)
        if len(mats) != len(self.shape):
            raise ShapeMismatch(f"expected {len(self.shape)} densities, got {len(mats)}")
        spectra = []
        for m, rho in zip(self.shape.blocks, mats):
            if rho.shape != (m, m):
                if rho.ndim != 2:
                    raise ShapeMismatch(f"expected a matrix, got array of ndim {rho.ndim}")
                raise ShapeMismatch(f"density of shape {rho.shape} does not match block dimension {m}")
            spectra.append(linalg.check_density(rho))
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "densities", mats)
        object.__setattr__(self, "spectra", tuple(spectra))


def classical_state(p) -> State:
    """State on the commutative algebra with one 1-dim block per outcome."""
    p = linalg.as_numbers(p, "iuf", "probability vector entries")
    if p.ndim != 1:
        raise ShapeMismatch(f"expected a vector of outcome probabilities, got array of ndim {p.ndim}")
    shape = AlgebraShape((1,) * len(p))
    ones = tuple(np.ones((1, 1), dtype=np.complex128) for _ in p)
    return State(shape, p, ones)


def block_pure_state(shape: AlgebraShape, block: int, vector) -> State:
    """Dirac weight on ``block`` with the rank-1 density of ``vector``."""
    linalg.check_block_index(block, len(shape))
    v = linalg.as_numbers(vector, "iufc", "vector entries").astype(np.complex128).reshape(-1)
    if v.shape[0] != shape.blocks[block]:
        raise ShapeMismatch(f"vector of length {v.shape[0]} does not fit block of dimension {shape.blocks[block]}")
    largest = np.maximum.reduce(np.abs(v))  # the norm too when it is 0, inf or nan
    if not 0.0 < largest < np.inf:
        raise ShapeMismatch(f"vector of norm {largest} has no pure state: it must be finite and nonzero")
    if not NORM_SAFE_RANGE[0] < largest < NORM_SAFE_RANGE[1]:
        v = v / largest
    v = v / np.linalg.norm(v)
    weights = np.zeros(len(shape))
    weights[block] = 1.0
    densities = [linalg.placeholder(m) for m in shape.blocks]
    densities[block] = np.outer(v, v.conj())
    return State(shape, weights, tuple(densities))


def evaluate(omega: State, a: AlgebraElement) -> complex:
    """Expectation ``sum_x p_x tr(rho_x a_x)``.

    Overflow rule: a finite ``a`` whose expectation overflows gives an inf or NaN value, silently.
    """
    if omega.shape != a.shape:
        raise ShapeMismatch(f"state on {omega.shape.blocks} applied to element on {a.shape.blocks}")
    total = 0j
    with np.errstate(over="ignore", invalid="ignore"):
        for p, rho, blk in zip(omega.weights.tolist(), omega.densities, a.blocks):
            if p > 0.0:
                total += p * complex(np.add.reduce(rho * blk.T, axis=None))  # tr(rho a) without the matrix product
    return total


def _support_counts(omega: State) -> list[int]:
    """Per block, the number of eigenvalues of ``p_x rho_x`` above ``DEFAULT_TOL``: the one support rule."""
    return [int(np.count_nonzero(p * vals > DEFAULT_TOL)) for p, vals in zip(omega.weights, omega.spectra)]


def support(omega: State) -> AlgebraElement:
    """Smallest projection absorbing the state: an element with ``p^dag p = p`` blockwise.

    Block ``x`` projects the Hermitian part of ``rho_x`` (``rho_x`` itself
    when it is exactly Hermitian) onto its eigenvalues lambda with
    ``p_x * lambda > DEFAULT_TOL``: the support of the density
    ``(+)_x p_x rho_x``, with the zero block at weight zero.  The block
    traces sum to ``support_rank``.
    """
    blocks = zip(omega.densities, omega.spectra, _support_counts(omega))
    return AlgebraElement(omega.shape, tuple(linalg.support_projection(rho, vals, k) for rho, vals, k in blocks))


def support_rank(omega: State) -> int:
    return sum(_support_counts(omega))


def are_orthogonal(omega: State, xi: State) -> bool:
    """True iff the support projections multiply to zero blockwise."""
    if omega.shape != xi.shape:
        raise ShapeMismatch("orthogonality requires states on the same algebra")
    p_omega = support(omega)
    p_xi = support(xi)
    return all(max_abs(a @ b) <= DEFAULT_TOL for a, b in zip(p_omega.blocks, p_xi.blocks))


def _mixing_weight(lam) -> float:
    """``lam`` as a float: ShapeMismatch unless it is a real number (not a bool), OutOfRange outside [0, 1]."""
    if isinstance(lam, bool) or not isinstance(lam, numbers.Real):
        raise ShapeMismatch(f"mixing weight must be a real number, got {type(lam).__name__}")
    if not 0.0 <= lam <= 1.0:
        raise OutOfRange(f"mixing weight {lam!r} outside [0, 1]")
    return float(lam)


def convex_combine(lam: float, omega: State, xi: State) -> State:
    """Mixture ``lam*omega + (1-lam)*xi`` on a common algebra."""
    lam = _mixing_weight(lam)
    if omega.shape != xi.shape:
        raise ShapeMismatch("mixing requires states on the same algebra")
    weights = lam * omega.weights + (1.0 - lam) * xi.weights
    densities = []
    for w, p, rho, q, sig, m in zip(
        weights, omega.weights, omega.densities, xi.weights, xi.densities, omega.shape.blocks
    ):
        if w > 0.0:
            densities.append(linalg.hermitian_part((lam * p * rho + (1.0 - lam) * q * sig) / w))
        else:
            densities.append(linalg.placeholder(m))
    return State(omega.shape, weights / np.add.reduce(weights), tuple(densities))


def is_pure(omega: State) -> bool:
    """True iff the total support has rank one."""
    return support_rank(omega) == 1


def external_sum_state(lam: float, omega: State, xi: State) -> State:
    """State on the direct sum weighting ``omega`` by ``lam`` and ``xi`` by ``1-lam``."""
    lam = _mixing_weight(lam)
    shape = direct_sum_shape(omega.shape, xi.shape)
    weights = np.concatenate([lam * omega.weights, (1.0 - lam) * xi.weights])
    return State(shape, weights, omega.densities + xi.densities)


def state_to_json(omega: State) -> dict:
    return {
        "shape": list(omega.shape.blocks),
        "weights": [float(p) for p in omega.weights],
        "densities": [linalg.matrix_to_json(r) for r in omega.densities],
    }


def state_from_json(data) -> State:
    try:
        shape = AlgebraShape(tuple(data["shape"]))
        weights = np.asarray(data["weights"])
        densities = tuple(linalg.matrix_from_json(r) for r in data["densities"])
    except InvariantViolation:
        raise  # a field's own check, which names what is wrong
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ShapeMismatch(f"malformed state encoding: missing or bad field {exc}") from exc
    return State(shape, weights, densities)
