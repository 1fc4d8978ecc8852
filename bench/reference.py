"""Independent numpy recomputation of every number the library workloads check.

Nothing here calls cohdet. States are regenerated from the documented
``pcg64-boxmuller-v1`` stream, blocks are plain slices, Tr(PR) and the
coupling functional are direct sums, eigenvalues come from
``numpy.linalg.eigvalsh``, the partial transpose is built block by block and
the partial trace by ``numpy.trace`` over a reshaped tensor.

Tolerances follow the acceptance tests: lhs 1e-10, rhs 1e-9, eigenvalues
1e-10. A verdict is compared only when the reference margin lies outside the
dead-band around the 1e-10 detection threshold, where the last bits of two
equally valid computations could disagree.
"""

from __future__ import annotations

import math

import numpy as np

LHS_TOL = 1e-10
RHS_TOL = 1e-9
EIG_TOL = 1e-10
STATE_TOL = 1e-12
DETECTION_TOLERANCE = 1e-10
PPT_TOL = 1e-10
DEADBAND = 1e-9

LABELS = "ABC"
PAIRS = {"A": (1, 2), "B": (2, 0), "C": (0, 1)}


def ginibre(seed: int, n: int, rank: int) -> np.ndarray:
    """Normalized G G^H for an n x rank complex Gaussian G (Box-Muller over PCG64)."""
    rng = np.random.Generator(np.random.PCG64(seed))
    u1 = rng.random((n, rank))
    u2 = rng.random((n, rank))
    g = np.sqrt(-2.0 * np.log1p(-u1)) * np.exp(2j * np.pi * u2)
    m = g @ g.conj().T
    m = m / np.trace(m).real
    return (m + m.conj().T) / 2.0


def product_ensemble(seed: int, terms: int):
    """Weights and 8x8 term matrices of the criterion 7 product-term recipe."""
    rng = np.random.Generator(np.random.PCG64(seed))
    weights = -np.log1p(-rng.random(terms))
    weights /= weights.sum()
    matrices = []
    for _ in range(terms):
        factors = []
        for _ in range(3):
            rank = 1 + int(rng.integers(0, 2))
            factors.append(ginibre(int(rng.integers(2**31)), 2, rank))
        matrices.append(np.kron(np.kron(factors[0], factors[1]), factors[2]))
    return [float(w) for w in weights], matrices


def l1(m: np.ndarray) -> float:
    a = np.abs(m)
    return float(a.sum() - np.trace(a))


def lambda_min(m: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(m)[0])


def _ceiling(p, r, diag_sq) -> tuple:
    d = p.shape[0]
    lam_p, lam_r = lambda_min(p), lambda_min(r)
    radicand = float(np.sum(np.abs(p) ** 2) + np.sum(np.abs(r) ** 2)) - diag_sq
    ceiling = math.sqrt(2.0 * d * (d - 1)) * (
        math.sqrt(max(radicand, 0.0)) + math.sqrt(max(lam_p, 0.0)) * math.sqrt(max(lam_r, 0.0))
    )
    return ceiling, lam_p, lam_r


def bipartite(m: np.ndarray) -> dict:
    """(lhs, rhs) of every detector on a qubit-first 2xd matrix, plus the PT spectrum edge."""
    d = m.shape[0] // 2
    p, q, r = m[:d, :d], m[:d, d:], m[d:, d:]
    coherence = l1(m)
    pr = p + r
    tr_pr = float(np.sum(p * r.T).real)
    coupling = float(pr.real.sum() - np.trace(pr).real) + 2.0 * tr_pr
    q_mass = float(np.sum(np.abs(q) ** 2))
    ceiling, lam_p, lam_r = _ceiling(p, r, float(np.sum(np.abs(np.diagonal(m)) ** 2)))
    pt = np.block([[p.T, q.T], [q.conj(), r.T]])
    sides = {
        "qudit-coherence": (coherence, coupling),
        "block-trace": (q_mass, tr_pr),
        "block-spectrum": (q_mass, lam_p * lam_r),
        "coherence-bound": (coherence, ceiling),
    }
    if d == 2:
        sides["qubit-coherence"] = (coherence, coupling)
    return {"sides": sides, "ppt_min": lambda_min(pt)}


def partial_trace(m: np.ndarray, dims: tuple, keep) -> np.ndarray:
    t = m.reshape(dims + dims)
    for axis in sorted(set(range(len(dims))) - set(keep), reverse=True):
        t = np.trace(t, axis1=axis, axis2=axis + t.ndim // 2)
    size = math.prod(dims[k] for k in keep)
    return t.reshape(size, size)


def ensemble_bound(weights, matrices, label: str) -> dict:
    """lhs, rhs and per-term pair-block eigenvalues for three qubits, one singled out."""
    dims = (2, 2, 2)
    ix = LABELS.index(label)
    iy, iz = PAIRS[label]
    rhs = 0.0
    lambdas = []
    for w, m in zip(weights, matrices):
        cx = l1(partial_trace(m, dims, [ix]))
        pair = partial_trace(m, dims, sorted((iy, iz)))
        if iy > iz:
            pair = pair.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)
        ceiling, lam_p, lam_r = _ceiling(
            pair[:2, :2], pair[2:, 2:], float(np.sum(np.abs(np.diagonal(pair)) ** 2))
        )
        rhs += w * (cx + ceiling * (1.0 + cx))
        lambdas.append((lam_p, lam_r))
    lhs = l1(sum(w * m for w, m in zip(weights, matrices)))
    return {"lhs": lhs, "rhs": rhs, "lambdas": lambdas}


def expect_fired(lhs: float, rhs: float):
    """Reference verdict, or None inside the dead-band where it is not judged."""
    margin = lhs - rhs
    if abs(margin - DETECTION_TOLERANCE) <= DEADBAND:
        return None
    return margin > DETECTION_TOLERANCE


def close(got: float, want: float, tol: float) -> bool:
    return abs(got - want) <= tol
