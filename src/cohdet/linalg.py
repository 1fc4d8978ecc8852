"""Dense complex-matrix kernel sized for small multipartite systems.

Matrices are plain ``numpy.complex128`` arrays. Every function is pure and
results never alias their arguments. Sizes are capped at ``MAX_DIMENSION``
because everything downstream works with a handful of qubits and qudits.
Every kernel but the Kronecker product also takes a stack ``(N, n, n)`` and
gives each matrix the bits it gets alone. The partial trace and partial
transpose act on a ``DensityMatrix`` and live in ``states``.
"""

from __future__ import annotations

import numpy as np

from .errors import NotHermitianError, ShapeError, SizeError
from .tolerances import HERMITICITY_TOL, MAX_DIMENSION


def as_matrices(candidate) -> np.ndarray:
    """Coerce to a finite complex128 matrix or stack ``(N, n, m)``, read in place where it is one."""
    m = np.asarray(candidate, dtype=np.complex128)
    if m.ndim not in (2, 3):
        raise ShapeError(f"expected a matrix or a stack of them, got an array of shape {m.shape}")
    return require_finite(m)


def require_finite(m: np.ndarray) -> np.ndarray:
    """``m`` itself, once no entry is NaN or infinite."""
    if not np.isfinite(m).all():
        raise ShapeError("matrix contains NaN or infinite entries")
    return m


def as_matrix(candidate) -> np.ndarray:
    """Coerce to a finite complex128 2-d array, read in place where the input is one."""
    m = as_matrices(candidate)
    if m.ndim != 2:
        raise ShapeError(f"expected a matrix, got an array of shape {m.shape}")
    return m


def item_or_array(values):
    """A single matrix's numpy result as a Python scalar, a stack's as its array."""
    return values.item() if values.ndim == 0 else values


def first_flagged(values, flags):
    """The first of ``values`` (a scalar or a stack's array) whose flag is set, or None."""
    if not isinstance(flags, np.ndarray):
        return values if flags else None
    hits = np.flatnonzero(flags)
    return values.ravel()[hits[0]].item() if hits.size else None


def tensor_product(a, b) -> np.ndarray:
    """Kronecker product; block (i, j) of the result is a[i, j] * b.

    Formed by one broadcast multiply, the same elementwise products as ``np.kron``;
    the inputs are only read, so they are not copied.
    """
    a = as_matrix(a)
    b = as_matrix(b)
    rows = a.shape[0] * b.shape[0]
    cols = a.shape[1] * b.shape[1]
    if rows > MAX_DIMENSION or cols > MAX_DIMENSION:
        raise SizeError(
            f"tensor product would be {rows}x{cols}, above the {MAX_DIMENSION} cap"
        )
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(rows, cols)


def frobenius_norm_sq(m):
    """Sum of squared absolute entries, per matrix; a row-times-column matmul keeps vdot's bits."""
    m = np.asarray(m, dtype=np.complex128)
    rows = m.reshape(m.shape[:-2] + (1, -1))
    return item_or_array((rows.conj() @ rows.swapaxes(-1, -2))[..., 0, 0].real)


def trace_product(a, b):
    """Tr(a @ b) without forming the product, per matrix of a stack a; b may be one matrix."""
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if a.ndim not in (2, 3) or b.shape not in (a.shape, a.shape[-2:]) or a.shape[-1] != a.shape[-2]:
        raise ShapeError(f"trace product needs equal square matrices, got {a.shape} and {b.shape}")
    return item_or_array((a * b.swapaxes(-1, -2)).sum(axis=(-2, -1)))


def hermitian_part(m) -> np.ndarray:
    """m/2 + m^H/2 of a square matrix, or of each matrix in a stack.

    Halving before the sum cannot overflow, and is exact in the normal range,
    so the bits are those of (m + m^H) / 2 wherever that does not overflow.
    """
    half = np.asarray(m, dtype=np.complex128) / 2.0
    half += half.conj().swapaxes(-1, -2)  # conj(m/2) is conj(m)/2, bit for bit
    return half


def hermiticity_deviation(m):
    """Largest |m - m^H| entry of a square matrix, or of each matrix in a stack."""
    m = np.asarray(m, dtype=np.complex128)
    with np.errstate(over="ignore"):  # past the float range it is inf, which every caller refuses
        return np.abs(m - m.conj().swapaxes(-1, -2)).max(axis=(-2, -1), initial=0.0)


def _hermitian_part(m) -> np.ndarray:
    """The Hermitian part of a square matrix or stack, the input check of both eigen routes.

    Hermiticity is required up to ``HERMITICITY_TOL`` on the worst entry;
    anything beyond that is rejected rather than silently symmetrized.
    """
    a = as_matrices(m)
    if a.shape[-1] != a.shape[-2]:
        raise ShapeError(f"eigenvalues need a square matrix, got {a.shape}")
    deviation = hermiticity_deviation(a)
    worst = first_flagged(deviation, deviation > HERMITICITY_TOL)
    if worst is not None:
        raise NotHermitianError(f"matrix is not Hermitian: max |m - m^H| entry is {worst:.3e}")
    return hermitian_part(a)


def lambda_min_2x2(m):
    """Smallest eigenvalue of a Hermitian 2x2 matrix (each of a stack), by one Jacobi rotation.

    Input is checked as in ``lambda_min``. A phase makes the pivot m[0, 1]
    real and the real Jacobi angle zeroes it, so the rotated diagonal is the
    spectrum; a pivot below 1e-300 is not rotated. The operations and their
    order are those of the Jacobi solver this replaced, whose bits the CLI
    golden pins.
    """
    h = _hermitian_part(m)
    if h.shape[-2:] != (2, 2):
        raise ShapeError(f"lambda_min_2x2 needs 2x2 matrices, got shape {h.shape}")
    a00, a01, a10, a11 = h.reshape(-1, 4).T  # one matrix too: numpy's scalar math has other bits
    # hypot is the scalar abs of a complex; the array abs loses bits against it
    r = np.hypot(a01.real, a01.imag)
    live = ~(r < 1e-300)
    r = np.where(live, r, 1.0)  # a dead pivot is rotated by a stand-in, then ignored
    phase = a01 / r
    tau = (a11.real - a00.real) / (2.0 * r)
    big = np.abs(tau) > 1e150
    mild = np.where(big, 0.0, tau)  # tau*tau would overflow on the big ones
    t = 1.0 / (np.abs(mild) + np.sqrt(1.0 + mild * mild))
    t = np.where(tau < 0.0, -t, t)
    t = np.where(big, 0.5 / np.where(big, tau, 1.0), t)  # the asymptotic form
    c = 1.0 / np.sqrt(1.0 + t * t)
    se = (t * c) * phase
    # the column update, then the row update, of which only the diagonal is kept
    b00, b10 = c * a00 - np.conj(se) * a01, c * a10 - np.conj(se) * a11
    b01, b11 = se * a00 + c * a01, se * a10 + c * a11
    low = np.where(live, (c * b00 - se * b10).real, a00.real)
    high = np.where(live, (np.conj(se) * b01 + c * b11).real, a11.real)
    return item_or_array(np.minimum(low, high).reshape(h.shape[:-2]))


def lambda_min(m):
    """Smallest eigenvalue of a Hermitian matrix (each of a stack), by LAPACK ``eigvalsh``."""
    h = _hermitian_part(m)
    if h.shape[-1] == 0:
        raise ShapeError(f"a 0x0 matrix has no smallest eigenvalue, got shape {h.shape}")
    return item_or_array(np.linalg.eigvalsh(h)[..., 0])
