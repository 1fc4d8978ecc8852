"""Density-matrix domain type, validation, subsystem operations, and random states.

The computational product basis is fixed throughout: a ``DensityMatrix``
carries the subsystem dimensions of its tensor factors in order, and no
operation ever rotates the basis behind the caller's back. Reordering
subsystems is always explicit via :func:`permute_subsystems`.
"""

from __future__ import annotations

import math
import operator
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
    shown,
)
from .tolerances import HERMITICITY_TOL, MAX_DIMENSION, PSD_TOL, TRACE_TOL

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
        m = linalg.as_matrices(np.array(self.matrix, dtype=np.complex128))
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
    """(exception type, message) for each invariant one state's measures fail."""
    if deviation > HERMITICITY_TOL:
        # eigenvalues are meaningless past this point
        return [(NotHermitianError, f"not Hermitian: max |m - m^H| entry is {deviation:.3e}")]
    found = []
    if trace_error > TRACE_TOL:
        found.append((NotUnitTraceError, f"trace is not 1: |Tr - 1| = {trace_error:.3e}"))
    if smallest < -PSD_TOL:
        found.append((NotPositiveError, f"not positive semidefinite: min eigenvalue {smallest:.3e}"))
    return found


def _violations_per_state(m: np.ndarray, require_psd: bool) -> list:
    hermitian = linalg.hermitian_part(m)
    deviation = linalg.hermiticity_deviation(m)
    trace_error = np.abs(np.trace(m, axis1=-2, axis2=-1) - 1.0)
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
    per_state = [[text for _, text in found] for found in _violations_per_state(m, require_psd)]
    return per_state if m.ndim == 3 else per_state[0]


def validate(matrix, dims, *, require_psd: bool = True) -> DensityMatrix:
    """Certify a candidate as a density matrix or raise the first violation.

    Tolerances: HERMITICITY_TOL, TRACE_TOL and PSD_TOL. Nothing is clamped
    or renormalized; a failing candidate is rejected as is. ``require_psd=False``
    skips only the positivity check (used for as-printed fixture
    constructions that are Hermitian and unit-trace but indefinite). A stack
    fails with its first failing state.
    """
    state = DensityMatrix(matrix, dims)
    _refuse_any(next(filter(None, _violations_per_state(state.matrix, require_psd)), []))
    return state


def _refuse_any(found: list, prefix: str = "") -> None:
    """Raise the type of the first violation in ``found``, if any, ``prefix`` leading every message."""
    if found:
        texts = [text for _, text in found]
        raise found[0][0](prefix + "; ".join(texts), texts)


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
    return _cut(rho.matrix)


def _cut(m: np.ndarray) -> BlockDecomposition:
    """The P/Q/R blocks of a bare qubit-first matrix or stack, each a fresh array."""
    d = m.shape[-1] // 2
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


def _count(value, top: int, error, what: str) -> int:
    """``value`` as an int in 1..top, else ``error``; a float is refused, never truncated."""
    try:
        n = operator.index(value)
    except TypeError:
        raise error(f"{what} must be an integer in 1..{top}, got {shown(value)}") from None
    if not 1 <= n <= top:
        raise error(f"{what} must be in 1..{top}, got {n}")
    return n


def _complex_gaussians(rng, rows: int, cols: int) -> np.ndarray:
    """Standard complex Gaussians via Box-Muller over the uniform stream."""
    u1, u2 = rng.random((2, rows, cols))  # the stream order of two draws, u1's first
    radius = np.sqrt(-2.0 * np.log1p(-u1))
    angle = 2.0 * np.pi * u2
    g = np.empty((rows, cols), dtype=np.complex128)
    np.multiply(radius, np.cos(angle), out=g.real)
    np.multiply(radius, np.sin(angle), out=g.imag)
    return g


def _ginibre_matrix(rng, n: int, rank: int) -> np.ndarray:
    """The Hermitian part of G G^H / Tr(G G^H), G an n x rank complex Gaussian draw."""
    g = _complex_gaussians(rng, n, rank)
    m = g @ g.conj().T
    m /= np.trace(m).real
    return linalg.hermitian_part(m)


def random_density(dims, rank=None, seed: int = 0) -> DensityMatrix:
    """Seeded random state: normalized G G^H with Gaussian G of given rank.

    ``dims`` may be a single dimension or a tuple of subsystem dimensions.
    Same seed, same state, bit for bit.
    """
    dims = _normalize_dims(dims)
    total = math.prod(dims)
    rank = total if rank is None else _count(rank, total, BadRankError, "rank")
    rng = np.random.Generator(np.random.PCG64(seed))
    return DensityMatrix(_ginibre_matrix(rng, total, rank), dims)


def random_separable(dims, terms: int = 1, seed: int = 0, factor_rank=None) -> DensityMatrix:
    """Seeded mixture of random product states: separable by construction.

    Draws ``terms`` flat-Dirichlet weights, then for each term an independent
    random state per subsystem, and mixes the tensor products. Factors are
    full rank by default; ``factor_rank=1`` gives pure factors.
    """
    dims = _normalize_dims(dims)
    if len(dims) < 2:
        raise ShapeError("separable states need at least two subsystems")
    terms = _count(terms, MAX_DIMENSION, ShapeError, "terms")
    if factor_rank is not None:
        factor_rank = _count(factor_rank, min(dims), BadRankError, "factor rank")
    rng = np.random.Generator(np.random.PCG64(seed))
    weights = -np.log1p(-rng.random(terms))
    weights /= weights.sum()
    total = math.prod(dims)
    acc = np.zeros((total, total), dtype=np.complex128)
    for w in weights:
        factors = [_ginibre_matrix(rng, d, d if factor_rank is None else factor_rank) for d in dims]
        acc += w * reduce(linalg.tensor_product, factors)
    return DensityMatrix(linalg.hermitian_part(acc), dims)
