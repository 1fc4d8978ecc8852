"""Generalized Gell-Mann operator families for d-dimensional systems.

Three families span the traceless Hermitian operators: for each index pair
1 <= j < k <= d a symmetric matrix |j><k| + |k><j| and an antisymmetric one
-i|j><k| + i|k><j|, plus d-1 diagonal matrices. At d = 2 the three families
reduce to the Pauli set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadDimensionError
from .tolerances import MAX_BASIS_DIMENSION

DIAGONAL_COEFFICIENTS = ("rational", "orthonormal")


def _frozen(m: np.ndarray) -> np.ndarray:
    m.setflags(write=False)
    return m


@dataclass(frozen=True, eq=False)
class GellMannBasis:
    """One basis build: matrices are read-only and indexed 1-based.

    ``symmetric`` and ``antisymmetric`` run over pairs (j, k) with j < k in
    lexicographic order; ``pair_index`` maps (j, k) to their shared position.
    ``diagonal`` holds the d-1 diagonal matrices indexed by l = 1..d-1.
    """

    dim: int
    symmetric: tuple
    antisymmetric: tuple
    diagonal: tuple
    pair_index: dict
    diagonal_coefficient: str

    def symmetric_at(self, j: int, k: int) -> np.ndarray:
        return self.symmetric[self.pair_index[(j, k)]]

    def antisymmetric_at(self, j: int, k: int) -> np.ndarray:
        return self.antisymmetric[self.pair_index[(j, k)]]

    def diagonal_at(self, l: int) -> np.ndarray:
        if not 1 <= l <= self.dim - 1:
            raise BadDimensionError(f"diagonal index must be in 1..{self.dim - 1}, got {l}")
        return self.diagonal[l - 1]


def build_basis(dim: int, diagonal_coefficient: str = "rational") -> GellMannBasis:
    """Construct the operator families for dimension ``dim``, from 2 to 32.

    ``diagonal_coefficient`` selects the prefactor of the diagonal family:

    - ``"rational"`` (default): 2/(l(l+1)). With this choice the diagonal
      matrices are not normalized to Tr(L^2) = 2 for l >= 2.
    - ``"orthonormal"``: sqrt(2/(l(l+1))), which restores Tr(L^2) = 2 across
      every family.

    The off-diagonal families are identical under both choices.
    """
    if not 2 <= dim <= MAX_BASIS_DIMENSION:
        raise BadDimensionError(f"basis needs dimension in 2..{MAX_BASIS_DIMENSION}, got {dim}")
    if diagonal_coefficient not in DIAGONAL_COEFFICIENTS:
        raise BadDimensionError(
            f"diagonal_coefficient must be one of {DIAGONAL_COEFFICIENTS}, got {diagonal_coefficient!r}"
        )

    symmetric = []
    antisymmetric = []
    pair_index = {}
    pos = 0
    for j in range(1, dim + 1):
        for k in range(j + 1, dim + 1):
            s = np.zeros((dim, dim), dtype=np.complex128)
            s[j - 1, k - 1] = 1.0
            s[k - 1, j - 1] = 1.0
            a = np.zeros((dim, dim), dtype=np.complex128)
            a[j - 1, k - 1] = -1.0j
            a[k - 1, j - 1] = 1.0j
            symmetric.append(_frozen(s))
            antisymmetric.append(_frozen(a))
            pair_index[(j, k)] = pos
            pos += 1

    diagonal = []
    for l in range(1, dim):
        coefficient = 2.0 / (l * (l + 1))
        if diagonal_coefficient == "orthonormal":
            coefficient = math.sqrt(coefficient)
        d = np.zeros((dim, dim), dtype=np.complex128)
        # accumulate the head in index order and negate the running total:
        # summing the diagonal in that same order then cancels to exactly
        # 0.0, which is the tracelessness contract (pairwise summation
        # orders may leave an ulp for coefficients like 1/6)
        head = 0.0
        for i in range(l):
            d[i, i] = coefficient
            head += coefficient
        d[l, l] = -head
        diagonal.append(_frozen(d))

    return GellMannBasis(
        dim=dim,
        symmetric=tuple(symmetric),
        antisymmetric=tuple(antisymmetric),
        diagonal=tuple(diagonal),
        pair_index=pair_index,
        diagonal_coefficient=diagonal_coefficient,
    )

