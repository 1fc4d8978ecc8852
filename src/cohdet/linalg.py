"""Dense complex-matrix kernel sized for small multipartite systems.

Matrices are plain ``numpy.complex128`` arrays. Every function is pure and
results never alias their arguments. Sizes are capped at ``MAX_DIMENSION``
because everything downstream works with a handful of qubits and qudits.
The kernels of the bipartite checks also take a stack ``(N, n, n)`` and
return one value per matrix, with the bits of that matrix taken alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotHermitianError, ShapeError, SizeError

MAX_DIMENSION = 4096
HERMITICITY_TOL = 1e-9
JACOBI_OFFDIAG_TOL = 1e-12
JACOBI_MAX_SWEEPS = 100


def as_matrices(candidate) -> np.ndarray:
    """Coerce to a fresh, finite complex128 matrix, or stack ``(N, n, m)`` of matrices."""
    m = np.array(candidate, dtype=np.complex128, copy=True)
    if m.ndim not in (2, 3):
        raise ShapeError(f"expected a matrix or a stack of them, got an array of shape {m.shape}")
    if not np.isfinite(m).all():
        raise ShapeError("matrix contains NaN or infinite entries")
    return m


def as_matrix(candidate) -> np.ndarray:
    """Coerce to a fresh, finite complex128 2-d array."""
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
    """Kronecker product; block (i, j) of the result is a[i, j] * b."""
    a = as_matrix(a)
    b = as_matrix(b)
    rows = a.shape[0] * b.shape[0]
    cols = a.shape[1] * b.shape[1]
    if rows > MAX_DIMENSION or cols > MAX_DIMENSION:
        raise SizeError(
            f"tensor product would be {rows}x{cols}, above the {MAX_DIMENSION} cap"
        )
    return np.kron(a, b)


def partial_trace(rho, dims, keep) -> np.ndarray:
    """Trace out every subsystem not listed in ``keep``.

    Parameters
    ----------
    rho : square matrix over the full product space.
    dims : subsystem dimensions, ordered as the tensor factors of ``rho``.
    keep : indices of the subsystems that survive; they keep their original
        relative order in the result.
    """
    rho = as_matrix(rho)
    dims = tuple(int(d) for d in dims)
    if not dims or any(d < 1 for d in dims):
        raise ShapeError(f"subsystem dimensions must be positive, got {dims}")
    total = math.prod(dims)
    if rho.shape != (total, total):
        raise ShapeError(
            f"matrix is {rho.shape[0]}x{rho.shape[1]} but dims {dims} imply {total}x{total}"
        )
    kept = sorted({int(k) for k in keep})
    if not kept:
        raise ShapeError("keep must name at least one subsystem")
    if kept[0] < 0 or kept[-1] >= len(dims):
        raise ShapeError(f"keep indices {kept} out of range for {len(dims)} subsystems")

    n = len(dims)
    tensor = rho.reshape(dims + dims)
    row_labels = list(range(n))
    col_labels = []
    out_labels = []
    nxt = n
    for i in range(n):
        if i in kept:
            col_labels.append(nxt)
            nxt += 1
        else:
            col_labels.append(i)  # same label as the row axis: traced out
    out_labels = kept + [col_labels[i] for i in kept]
    reduced = np.einsum(tensor, row_labels + col_labels, out_labels)
    d_keep = math.prod(dims[i] for i in kept)
    return np.ascontiguousarray(reduced.reshape(d_keep, d_keep))


def partial_transpose(rho, dims, subsystem="B") -> np.ndarray:
    """Transpose one tensor factor of a bipartite matrix.

    ``subsystem`` is "A"/0 for the first factor or "B"/1 for the second.
    """
    rho = as_matrix(rho)
    if len(dims) != 2:
        raise ShapeError("partial transpose expects exactly two subsystem dimensions")
    da, db = (int(d) for d in dims)
    if da < 1 or db < 1 or rho.shape != (da * db, da * db):
        raise ShapeError(
            f"matrix is {rho.shape[0]}x{rho.shape[1]} but dims ({da},{db}) imply {da * db}"
        )
    if subsystem in ("A", 0):
        axes = (2, 1, 0, 3)
    elif subsystem in ("B", 1):
        axes = (0, 3, 2, 1)
    else:
        raise ShapeError(f"subsystem must be 'A' or 'B', got {subsystem!r}")
    t = rho.reshape(da, db, da, db).transpose(axes)
    return np.ascontiguousarray(t.reshape(da * db, da * db))


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


def hermiticity_deviation(m):
    """Largest |m - m^H| entry of a square matrix, or of each matrix in a stack."""
    a = np.asarray(m)
    return item_or_array(np.abs(a - a.conj().swapaxes(-1, -2)).max(axis=(-2, -1), initial=0.0))


def _hermitian_part(m) -> np.ndarray:
    """(m + m^H) / 2 of a square matrix or stack, the input check of both eigen routes.

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
    return (a + a.conj().swapaxes(-1, -2)) / 2.0


@dataclass(frozen=True)
class EigenResult:
    """Eigenvalues in ascending order plus solver diagnostics."""

    eigenvalues: np.ndarray
    converged: bool
    sweeps_used: int


def hermitian_eigenvalues(m, offdiag_tol=JACOBI_OFFDIAG_TOL, max_sweeps=JACOBI_MAX_SWEEPS) -> EigenResult:
    """All eigenvalues of a Hermitian matrix by cyclic Jacobi rotations.

    Input is checked as in ``lambda_min``. Each sweep annihilates every
    off-diagonal pair once with a unitary 2x2 rotation (a phase to make the
    pivot real, then a real Jacobi angle). The loop stops when the Frobenius
    norm of the off-diagonal part drops below ``offdiag_tol``, or after a
    sweep that found every off-diagonal entry below 1e-300 and so rotated
    nothing; hitting ``max_sweeps`` first returns the current estimate with
    ``converged=False``. Only the tripartite pair blocks still use it.
    """
    a = _hermitian_part(m)
    if a.ndim != 2:
        raise ShapeError(f"expected a matrix, got an array of shape {a.shape}")
    n = a.shape[0]
    threshold = float(offdiag_tol) ** 2

    def off_mass() -> float:
        return float(np.sum(np.abs(a) ** 2) - np.sum(np.abs(np.diag(a)) ** 2))

    sweeps = 0
    converged = off_mass() <= threshold
    while not converged and sweeps < max_sweeps:
        rotated = False
        for p in range(n - 1):
            for q in range(p + 1, n):
                r = abs(a[p, q])
                if r < 1e-300:
                    continue
                rotated = True
                phase = a[p, q] / r
                tau = (a[q, q].real - a[p, p].real) / (2.0 * r)
                if abs(tau) > 1e150:
                    t = 0.5 / tau  # asymptotic form; tau*tau would overflow
                else:
                    t = 1.0 / (abs(tau) + math.sqrt(1.0 + tau * tau))
                    if tau < 0.0:
                        t = -t
                c = 1.0 / math.sqrt(1.0 + t * t)
                se = (t * c) * phase
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p - np.conj(se) * col_q
                a[:, q] = se * col_p + c * col_q
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = c * row_p - se * row_q
                a[q, :] = np.conj(se) * row_p + c * row_q
                a[p, q] = 0.0
                a[q, p] = 0.0
        sweeps += 1
        # off_mass() is a difference of two sums whose roundoff can exceed the
        # threshold; a sweep with nothing to rotate has left a matrix that no
        # further sweep can change, so that is convergence too.
        converged = not rotated or off_mass() <= threshold
    eigenvalues = np.sort(np.diag(a).real)
    eigenvalues.setflags(write=False)
    return EigenResult(eigenvalues, converged, sweeps)


def lambda_min(m):
    """Smallest eigenvalue of a Hermitian matrix (each of a stack), by LAPACK ``eigvalsh``."""
    h = _hermitian_part(m)
    if h.shape[-1] == 0:
        raise ShapeError(f"a 0x0 matrix has no smallest eigenvalue, got shape {h.shape}")
    return item_or_array(np.linalg.eigvalsh(h)[..., 0])
