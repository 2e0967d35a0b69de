"""Finite-dimensional block algebras and their elements.

An algebra here is a direct sum of full complex matrix blocks, recorded
as the list of block dimensions.  An element is one square matrix per
block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import ShapeMismatch
from .linalg import as_matrix


MAX_BLOCK_DIM = math.isqrt(np.iinfo(np.intp).max // 16)  # n x n complex128 takes n^2 * 16 bytes, within intp


@dataclass(frozen=True)
class AlgebraShape:
    """Block dimensions ``(m_0, ..., m_{k-1})``, every ``m_x`` in ``1..MAX_BLOCK_DIM``."""

    blocks: tuple[int, ...]

    def __post_init__(self):
        for m in self.blocks:
            if not linalg.is_integer(m):
                raise ShapeMismatch(f"block dimensions must be integers, got {m!r}")
        object.__setattr__(self, "blocks", tuple(int(m) for m in self.blocks))
        if not self.blocks or any(not 1 <= m <= MAX_BLOCK_DIM for m in self.blocks):
            raise ShapeMismatch(f"block dimensions must be in 1..{MAX_BLOCK_DIM}, got {self.blocks}")

    def __len__(self) -> int:
        return len(self.blocks)

    @property
    def total_dim(self) -> int:
        return sum(self.blocks)

    def is_commutative(self) -> bool:
        """True iff every block is one-dimensional (a classical algebra)."""
        return all(m == 1 for m in self.blocks)


@dataclass(frozen=True, eq=False)
class AlgebraElement:
    """One matrix per block of ``shape``."""

    shape: AlgebraShape
    blocks: tuple[np.ndarray, ...]

    def __post_init__(self):
        mats = tuple(as_matrix(b) for b in self.blocks)
        if len(mats) != len(self.shape):
            raise ShapeMismatch(f"expected {len(self.shape)} blocks, got {len(mats)}")
        for m, b in zip(self.shape.blocks, mats):
            if b.shape != (m, m):
                raise ShapeMismatch(f"block of size {b.shape} does not match dimension {m}")
        object.__setattr__(self, "blocks", mats)


def direct_sum_shape(a: AlgebraShape, b: AlgebraShape) -> AlgebraShape:
    return AlgebraShape(a.blocks + b.blocks)


def element_to_json(a: AlgebraElement) -> dict:
    return {
        "shape": list(a.shape.blocks),
        "blocks": [linalg.matrix_to_json(b) for b in a.blocks],
    }
