"""Density-matrix domain type, validation, subsystem operations, and random states.

The computational product basis is fixed throughout: a ``DensityMatrix``
carries the subsystem dimensions of its tensor factors in order, and no
operation ever rotates the basis behind the caller's back. Reordering
subsystems is always explicit via :func:`permute_subsystems`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import linalg
from .errors import (
    BadPermutationError,
    BadRankError,
    NotHermitianError,
    NotPositiveError,
    NotUnitTraceError,
    QubitNotFirstError,
    ShapeError,
)

TRACE_TOL = 1e-9
PSD_TOL = 1e-10

# Seeded-stream contract: uniforms from numpy's PCG64, Gaussians by Box-Muller
# on top of them, Dirichlet weights as normalized -log(1-u) draws. Bump the
# tag if any of that ever changes, so recorded fixtures stay attributable.
RNG_SCHEME = "pcg64-boxmuller-v1"


def _positive_dims(dims) -> tuple:
    dims = tuple(int(d) for d in dims)
    if not dims or any(d < 1 for d in dims):
        raise ShapeError(f"subsystem dimensions must be positive, got {dims}")
    return dims


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A square complex matrix, or a stack ``(N, n, n)`` of them, with subsystem dimensions.

    Construction checks shape consistency only; use :func:`validate` when the
    physical invariants (Hermitian, unit trace, positive semidefinite) need
    to be certified. The wrapped array is read-only.
    """

    matrix: np.ndarray
    dims: tuple

    def __post_init__(self):
        m = linalg.as_matrices(self.matrix)
        dims = _positive_dims(self.dims)
        if m.shape[-2:] != (math.prod(dims), math.prod(dims)):
            raise ShapeError(
                f"matrix is {m.shape[-2]}x{m.shape[-1]} but dims {dims} imply {math.prod(dims)}"
            )
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "dims", dims)

    @property
    def dim(self) -> int:
        return self.matrix.shape[-1]


def _violations(deviation: float, trace_error: float, smallest: float) -> list:
    if deviation > linalg.HERMITICITY_TOL:
        # eigenvalues are meaningless past this point
        return [f"not Hermitian: max |m - m^H| entry is {deviation:.3e}"]
    found = []
    if trace_error > TRACE_TOL:
        found.append(f"trace is not 1: |Tr - 1| = {trace_error:.3e}")
    if smallest < -PSD_TOL:
        found.append(f"not positive semidefinite: min eigenvalue {smallest:.3e}")
    return found


def _violations_per_state(m: np.ndarray, require_psd: bool) -> list:
    deviation = linalg.hermiticity_deviation(m)
    trace_error = np.abs(np.trace(m, axis1=-2, axis2=-1) - 1.0)
    hermitian = (m + m.conj().swapaxes(-1, -2)) / 2.0
    smallest = np.linalg.eigvalsh(hermitian)[..., 0] if require_psd else np.zeros_like(trace_error)
    measures = np.column_stack((deviation, trace_error, smallest)).tolist()
    return [_violations(*point) for point in measures]


def state_violations(matrix, dims, require_psd: bool = True) -> list:
    """All failed physical invariants of a candidate, with magnitudes.

    Returns an empty list when the candidate is a valid state, and one such
    list per state for a stack. Structural problems (wrong shape, bad dims)
    raise ShapeError instead of being reported, since nothing else can be
    checked without a square matrix.
    """
    m = DensityMatrix(matrix, dims).matrix
    per_state = _violations_per_state(m, require_psd)
    return per_state if m.ndim == 3 else per_state[0]


def validate(matrix, dims, *, require_psd: bool = True) -> DensityMatrix:
    """Certify a candidate as a density matrix or raise the first violation.

    Tolerances: Hermiticity and trace within 1e-9, smallest eigenvalue no
    lower than -1e-10. Nothing is clamped or renormalized; a candidate that
    fails is rejected as is. ``require_psd=False`` skips only the positivity
    check (used for as-printed fixture constructions that are Hermitian and
    unit-trace but indefinite). A stack fails with its first failing state.
    """
    state = DensityMatrix(matrix, dims)
    found = next(filter(None, _violations_per_state(state.matrix, require_psd)), [])
    if found:
        message = "; ".join(found)
        if found[0].startswith("not Hermitian"):
            raise NotHermitianError(message, found)
        if found[0].startswith("trace"):
            raise NotUnitTraceError(message, found)
        raise NotPositiveError(message, found)
    return state


@dataclass(frozen=True, eq=False)
class BlockDecomposition:
    """The four-block view [[p, q], [q^H, r]] of a qubit-first state.

    ``p`` and ``r`` are the diagonal blocks conditioned on the qubit being 0
    or 1; ``q`` is the upper coherence block. All three have order d, the
    combined dimension of the remaining factors.
    """

    p: np.ndarray
    q: np.ndarray
    r: np.ndarray


def block_decompose(rho: DensityMatrix) -> BlockDecomposition:
    """Split a qubit-first state into its P/Q/R blocks.

    The first subsystem must have dimension 2; everything after it is
    treated as a single qudit. Callers with the qubit elsewhere must
    permute first, explicitly.
    """
    if rho.dims[0] != 2:
        raise QubitNotFirstError(
            f"first subsystem has dimension {rho.dims[0]}; permute the qubit to the front"
        )
    d = rho.dim // 2
    m = rho.matrix
    return BlockDecomposition(
        p=np.array(m[..., :d, :d]),
        q=np.array(m[..., :d, d:]),
        r=np.array(m[..., d:, d:]),
    )


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Trace out every factor not listed in ``keep``, of one state or each of a stack.

    ``keep`` lists distinct factor indices in the order their factors take in
    the result; keeping every index reorders the factors.
    """
    n = len(rho.dims)
    kept = [int(k) for k in keep]
    if not kept or len(set(kept)) != len(kept):
        raise ShapeError(f"keep must name at least one subsystem, each once, got {kept}")
    if min(kept) < 0 or max(kept) >= n:
        raise ShapeError(f"keep indices {kept} out of range for {n} subsystems")
    return DensityMatrix(_reduce(rho.matrix, rho.dims, kept), tuple(rho.dims[i] for i in kept))


def _reduce(m: np.ndarray, dims: tuple, kept: list) -> np.ndarray:
    """The reduction behind ``partial_trace``, on a bare matrix or stack over ``dims``.

    ``kept`` must already be checked; the result is a fresh contiguous array,
    not checked again, and the tripartite survey reads it as it is.
    """
    n = len(dims)
    tensor = m.reshape(m.shape[:-2] + dims + dims)
    # a traced-out column axis shares its row axis's label; a kept one gets a fresh label
    col_labels = [n + kept.index(i) if i in kept else i for i in range(n)]
    out_labels = kept + [n + j for j in range(len(kept))]
    reduced = np.einsum(tensor, [..., *range(n), *col_labels], [..., *out_labels])
    d_keep = math.prod(dims[i] for i in kept)
    return np.ascontiguousarray(reduced.reshape(m.shape[:-2] + (d_keep, d_keep)))


def partial_transpose(rho: DensityMatrix) -> np.ndarray:
    """Transpose the second tensor factor of one bipartite state.

    Transposing the first factor instead gives the full transpose of this
    result, so the spectrum, all a PPT test reads, is the same.
    """
    m = rho.matrix
    if m.ndim != 2 or len(rho.dims) != 2:
        raise ShapeError(f"partial transpose needs one bipartite matrix, got {m.shape} over {rho.dims}")
    da, db = rho.dims
    t = m.reshape(da, db, da, db).transpose(0, 3, 2, 1)
    return np.ascontiguousarray(t.reshape(da * db, da * db))


def permute_subsystems(rho: DensityMatrix, order) -> DensityMatrix:
    """Reorder factors by a partial trace keeping them all: output factor k is input order[k]."""
    order = tuple(int(i) for i in order)
    n = len(rho.dims)
    if sorted(order) != list(range(n)):
        raise BadPermutationError(f"order {order} is not a permutation of 0..{n - 1}")
    return partial_trace(rho, order)


def _normalize_dims(dims) -> tuple:
    if isinstance(dims, (int, np.integer)):
        dims = (int(dims),)
    return _positive_dims(dims)


def _complex_gaussians(rng, rows: int, cols: int) -> np.ndarray:
    """Standard complex Gaussians via Box-Muller over the uniform stream."""
    u1 = rng.random((rows, cols))
    u2 = rng.random((rows, cols))
    radius = np.sqrt(-2.0 * np.log1p(-u1))
    angle = 2.0 * np.pi * u2
    return radius * np.cos(angle) + 1.0j * radius * np.sin(angle)


def _ginibre_state(rng, dims, rank: int) -> DensityMatrix:
    total = math.prod(dims)
    g = _complex_gaussians(rng, total, rank)
    m = g @ g.conj().T
    m /= np.trace(m).real
    m = (m + m.conj().T) / 2.0
    return DensityMatrix(m, dims)


def random_density(dims, rank=None, seed: int = 0) -> DensityMatrix:
    """Seeded random state: normalized G G^H with Gaussian G of given rank.

    ``dims`` may be a single dimension or a tuple of subsystem dimensions.
    Same seed, same state, bit for bit.
    """
    dims = _normalize_dims(dims)
    total = math.prod(dims)
    if rank is None:
        rank = total
    rank = int(rank)
    if not 1 <= rank <= total:
        raise BadRankError(f"rank must be in 1..{total}, got {rank}")
    rng = np.random.Generator(np.random.PCG64(seed))
    return _ginibre_state(rng, dims, rank)


def random_separable(dims, terms: int = 1, seed: int = 0, factor_rank=None) -> DensityMatrix:
    """Seeded mixture of random product states: separable by construction.

    Draws ``terms`` flat-Dirichlet weights, then for each term an independent
    random state per subsystem, and mixes the tensor products. Factors are
    full rank by default; ``factor_rank=1`` gives pure factors.
    """
    dims = _normalize_dims(dims)
    if len(dims) < 2:
        raise ShapeError("separable states need at least two subsystems")
    terms = int(terms)
    if not 1 <= terms <= linalg.MAX_DIMENSION:
        raise ShapeError(f"terms must be in 1..{linalg.MAX_DIMENSION}, got {terms}")
    if factor_rank is not None:
        factor_rank = int(factor_rank)
        if not 1 <= factor_rank <= min(dims):
            raise BadRankError(f"factor rank must be in 1..{min(dims)}, got {factor_rank}")
    rng = np.random.Generator(np.random.PCG64(seed))
    weights = -np.log1p(-rng.random(terms))
    weights /= weights.sum()
    total = math.prod(dims)
    acc = np.zeros((total, total), dtype=np.complex128)
    for w in weights:
        factors = [
            _ginibre_state(rng, (d,), d if factor_rank is None else factor_rank).matrix
            for d in dims
        ]
        acc += w * reduce(linalg.tensor_product, factors)
    return DensityMatrix((acc + acc.conj().T) / 2.0, dims)
