"""l1-norm coherence in the fixed computational basis."""

from __future__ import annotations

import numpy as np

from . import linalg
from .states import DensityMatrix


def l1_coherence(state):
    """Sum of |entry| over all off-diagonal positions.

    Accepts a DensityMatrix or a bare square matrix, or a stack (one value
    per matrix). Hermitian pairs contribute twice, once per side of the
    diagonal. Tiny magnitudes are summed as they are, with no thresholding.
    """
    m = state.matrix if isinstance(state, DensityMatrix) else linalg.as_matrices(state)
    return linalg.item_or_array(_off_diagonal_sum(m))


def _off_diagonal_sum(m: np.ndarray) -> np.ndarray:
    """Per-matrix l1 coherence of a complex array, taken as it is: no coercion, no check."""
    rows, cols = m.shape[-2:]
    magnitudes = np.abs(m).reshape(m.shape[:-2] + (rows * cols,))
    # Every (cols + 1)-th flat entry is diagonal, as in np.fill_diagonal.
    magnitudes[..., : min(rows, cols) * (cols + 1) : cols + 1] = 0.0
    return magnitudes.sum(axis=-1)

