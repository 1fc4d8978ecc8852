"""Dense complex-matrix kernel sized for small multipartite systems.

Matrices are plain ``numpy.complex128`` arrays. Every function is pure and
results never alias their arguments. Sizes are capped at ``MAX_DIMENSION``
because everything downstream works with a handful of qubits and qudits.
Every kernel but the Kronecker product also takes a stack ``(N, n, n)`` and
gives each matrix the bits it gets alone. The partial trace and partial
transpose act on a ``DensityMatrix`` and live in ``states``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotHermitianError, ShapeError, SizeError
from .tolerances import HERMITICITY_TOL, JACOBI_MAX_SWEEPS, JACOBI_OFFDIAG_TOL, MAX_DIMENSION


def as_matrices(candidate) -> np.ndarray:
    """Coerce to a fresh, finite complex128 matrix, or stack ``(N, n, m)`` of matrices."""
    m = np.array(candidate, dtype=np.complex128, copy=True)
    if m.ndim not in (2, 3):
        raise ShapeError(f"expected a matrix or a stack of them, got an array of shape {m.shape}")
    return require_finite(m)


def require_finite(m: np.ndarray) -> np.ndarray:
    """``m`` itself, once no entry is NaN or infinite."""
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
    """Kronecker product; block (i, j) of the result is a[i, j] * b.

    Formed by one broadcast multiply, the same elementwise products as ``np.kron``.
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
    """Eigenvalues in ascending order, ``(n,)`` or ``(N, n)`` for a stack, plus solver diagnostics.

    For a stack, ``converged`` holds only if every matrix converged, and
    ``sweeps_used`` is the largest count any matrix needed.
    """

    eigenvalues: np.ndarray
    converged: bool
    sweeps_used: int


def _off_mass(a: np.ndarray) -> np.ndarray:
    total = np.sum(np.abs(a) ** 2, axis=(-2, -1))
    return total - np.sum(np.abs(np.diagonal(a, axis1=-2, axis2=-1)) ** 2, axis=-1)


def _jacobi_sweep(a: np.ndarray) -> np.ndarray:
    """One cyclic sweep over every matrix of the stack ``a``, in place; which ones rotated."""
    rotated = np.zeros(len(a), dtype=bool)
    n = a.shape[-1]
    for p in range(n - 1):
        for q in range(p + 1, n):
            z = a[:, p, q]
            # hypot is the scalar abs of a complex; the array abs loses bits against it
            r = np.hypot(z.real, z.imag)
            live = ~(r < 1e-300)
            if not live.any():
                continue
            k = slice(None) if live.all() else np.flatnonzero(live)
            z, r = z[k], r[k]
            rotated[k] = True
            phase = z / r
            tau = (a[k, q, q].real - a[k, p, p].real) / (2.0 * r)
            big = np.abs(tau) > 1e150
            mild = np.where(big, 0.0, tau)  # tau*tau would overflow on the big ones
            t = 1.0 / (np.abs(mild) + np.sqrt(1.0 + mild * mild))
            t = np.where(tau < 0.0, -t, t)
            if big.any():
                t[big] = 0.5 / tau[big]  # asymptotic form
            c = 1.0 / np.sqrt(1.0 + t * t)
            se = ((t * c) * phase)[:, None]
            c = c[:, None]
            col_p, col_q = a[k, :, p].copy(), a[k, :, q].copy()
            a[k, :, p] = c * col_p - np.conj(se) * col_q
            a[k, :, q] = se * col_p + c * col_q
            row_p, row_q = a[k, p, :].copy(), a[k, q, :].copy()
            a[k, p, :] = c * row_p - se * row_q
            a[k, q, :] = np.conj(se) * row_p + c * row_q
            a[k, p, q] = 0.0
            a[k, q, p] = 0.0
    return rotated


def hermitian_eigenvalues(m, offdiag_tol=JACOBI_OFFDIAG_TOL, max_sweeps=JACOBI_MAX_SWEEPS) -> EigenResult:
    """All eigenvalues of a Hermitian matrix, or of each matrix in a stack, by cyclic Jacobi.

    Input is checked as in ``lambda_min``. Each sweep annihilates every
    off-diagonal pair once with a unitary 2x2 rotation (a phase to make the
    pivot real, then a real Jacobi angle). A matrix is done when the
    Frobenius norm of its off-diagonal part drops below ``offdiag_tol``, or
    after a sweep that found every off-diagonal entry below 1e-300 and so
    rotated nothing; hitting ``max_sweeps`` first leaves the current
    estimate with ``converged=False``. A stack is swept as one loop, each
    matrix frozen once done, so every matrix gets the bits it gets alone.
    Only the tripartite pair blocks still use it.
    """
    a = _hermitian_part(m)
    stack = a.reshape((math.prod(a.shape[:-2]),) + a.shape[-2:])
    threshold = float(offdiag_tol) ** 2
    sweeps = np.zeros(len(stack), dtype=int)
    converged = _off_mass(stack) <= threshold
    active = np.flatnonzero(~converged)
    while active.size and sweeps[active[0]] < max_sweeps:  # the active share one count
        sub = stack[active]
        rotated = _jacobi_sweep(sub)
        stack[active] = sub
        sweeps[active] += 1
        # _off_mass is a difference of two sums whose roundoff can exceed the
        # threshold; a sweep with nothing to rotate has left a matrix that no
        # further sweep can change, so that is convergence too.
        settled = ~rotated | (_off_mass(sub) <= threshold)
        converged[active] = settled
        active = active[~settled]
    eigenvalues = np.sort(stack.diagonal(0, 1, 2).real, axis=-1).reshape(a.shape[:-1])
    eigenvalues.setflags(write=False)
    return EigenResult(eigenvalues, bool(converged.all()), int(sweeps.max(initial=0)))


def lambda_min(m):
    """Smallest eigenvalue of a Hermitian matrix (each of a stack), by LAPACK ``eigvalsh``."""
    h = _hermitian_part(m)
    if h.shape[-1] == 0:
        raise ShapeError(f"a 0x0 matrix has no smallest eigenvalue, got shape {h.shape}")
    return item_or_array(np.linalg.eigvalsh(h)[..., 0])
