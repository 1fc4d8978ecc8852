"""Bipartite entanglement checks for qubit-qudit states.

Every check works on the block decomposition [[P, Q], [Q^H, R]] of a state
with the qubit factor first, and returns a report carrying the two sides of
its inequality, so callers can audit the margin instead of trusting a bare
verdict. The PPT test lives here too, as an independent reference point: it
diagonalizes the partial transpose, while the checks diagonalize the blocks
P and R, and it is exact in 2x2 and 2x3. The separable ceiling is written
once, in ``_ceiling``, and the tripartite ensemble bound builds on it.

The coherence-based checks are one-sided detectors: a firing report says
entangled, a silent one says nothing. The block-spectrum check is the lone
exception, phrased as a condition every separable state is supposed to meet,
so its non-firing verdict is SeparabilityConsistent rather than
Inconclusive. See the module tests for measured behavior of each check on
states with known separability, which is not uniformly flattering. A
stacked DensityMatrix gets per-state values, each as if checked alone.
"""

from __future__ import annotations

import enum
import math
import weakref
from dataclasses import dataclass

import numpy as np

from . import linalg
from .coherence import l1_coherence
from .errors import NegativeRadicandError, ShapeError
from .states import BlockDecomposition, DensityMatrix, block_decompose, partial_transpose

DETECTION_TOLERANCE = 1e-10
PPT_TOL = 1e-10
RADICAND_TOL = 1e-10


class Verdict(enum.Enum):
    """Outcome of a one-sided test; only ENTANGLED is ever a claim."""

    ENTANGLED = "Entangled"
    INCONCLUSIVE = "Inconclusive"
    SEPARABILITY_CONSISTENT = "SeparabilityConsistent"


@dataclass(frozen=True)
class CriterionReport:
    """A check's two sides, margin and verdict; arrays, one entry per state, for a stack."""

    criterion: str
    lhs: float
    rhs: float
    margin: float
    verdict: Verdict
    tolerance: float
    notes: tuple = ()


@dataclass(frozen=True)
class PptVerdict:
    """Smallest partial-transpose eigenvalue and the PPT yes/no it implies."""

    min_eigenvalue: float
    is_ppt: bool


def _report(criterion, lhs, rhs, *, fired, quiet, notes=()) -> CriterionReport:
    margin = lhs - rhs
    above = margin > DETECTION_TOLERANCE
    stacked = isinstance(above, np.ndarray)
    verdict = np.where(above, fired, quiet) if stacked else (fired if above else quiet)
    return CriterionReport(criterion, lhs, rhs, margin, verdict, DETECTION_TOLERANCE, tuple(notes))


# Quantities several checks read from one state, filled on first use. Keyed
# weakly on the state object (frozen, read-only matrix, identity hash), so an
# entry lives exactly as long as its state and every check sees the same bits.
_ANALYSES = weakref.WeakKeyDictionary()


def _shared(rho: DensityMatrix, name: str, compute):
    analysis = _ANALYSES.setdefault(rho, {})
    if name not in analysis:
        analysis[name] = compute()
    return analysis[name]


def _blocks(rho: DensityMatrix) -> BlockDecomposition:
    return _shared(rho, "blocks", lambda: block_decompose(rho))


def _lambda_min_p(rho: DensityMatrix) -> float:
    return _shared(rho, "lambda_min_p", lambda: linalg.lambda_min(_blocks(rho).p))


def _lambda_min_r(rho: DensityMatrix) -> float:
    return _shared(rho, "lambda_min_r", lambda: linalg.lambda_min(_blocks(rho).r))


def _coherence(rho: DensityMatrix) -> float:
    return _shared(rho, "coherence", lambda: l1_coherence(rho))


def _coupling_mass(rho: DensityMatrix) -> float:
    return _shared(rho, "coupling_mass", lambda: linalg.frobenius_norm_sq(_blocks(rho).q))


def _diagonal_functional(rho: DensityMatrix) -> float:
    return _shared(rho, "diagonal_functional", lambda: _coherence_rhs(_blocks(rho)))


def _coherence_rhs(blocks: BlockDecomposition):
    """Diagonal-block functional the coherence detectors compare against.

    The off-diagonal entries of P+R summed directly, plus twice Tr(PR); both
    terms are real for Hermitian blocks up to roundoff, which is discarded.
    The sum runs over the complex entries: summing their real parts alone
    changes the last bit of some values.
    """
    p, r = blocks.p, blocks.r
    off = p + r
    np.einsum("...ii->...i", off)[...] = 0.0  # a writable view of each diagonal
    cross = linalg.trace_product(p, r).real
    return linalg.item_or_array(off.sum(axis=(-2, -1)).real + 2.0 * cross)


def qubit_coherence_check(rho: DensityMatrix) -> CriterionReport:
    """Two-qubit detector: coherence vs a diagonal-block functional.

    Fires when the l1 coherence exceeds Tr[(P+R) sigma_x] + 2 Tr(PR).
    """
    if rho.dim != 4:
        raise ShapeError(f"check needs a two-qubit state, got total dimension {rho.dim}")
    return _report(
        "qubit-coherence",
        _coherence(rho),
        _diagonal_functional(rho),
        fired=Verdict.ENTANGLED,
        quiet=Verdict.INCONCLUSIVE,
    )


def qudit_coherence_check(rho: DensityMatrix) -> CriterionReport:
    """Qubit-qudit detector: coherence vs the same block functional at any d.

    The stated condition is a non-strict inequality; ties land inside the
    tolerance dead-band and stay Inconclusive, which the report notes.
    """
    return _report(
        "qudit-coherence",
        _coherence(rho),
        _diagonal_functional(rho),
        fired=Verdict.ENTANGLED,
        quiet=Verdict.INCONCLUSIVE,
        notes=("stated as a non-strict inequality; ties within tolerance stay Inconclusive",),
    )


def block_trace_check(rho: DensityMatrix) -> CriterionReport:
    """Detector comparing the coupling-block mass against Tr(PR)."""
    blocks = _blocks(rho)
    return _report(
        "block-trace",
        _coupling_mass(rho),
        linalg.trace_product(blocks.p, blocks.r).real,
        fired=Verdict.ENTANGLED,
        quiet=Verdict.INCONCLUSIVE,
    )


def block_spectrum_check(rho: DensityMatrix) -> CriterionReport:
    """Spectral condition met by separable states, tested in contrapositive.

    Separable states are expected to keep the coupling-block mass at or
    below lambda_min(P) lambda_min(R); exceeding it is reported Entangled.
    The non-firing verdict is SeparabilityConsistent: the state passed a
    condition separable states satisfy, nothing stronger.
    """
    return _report(
        "block-spectrum",
        _coupling_mass(rho),
        _lambda_min_p(rho) * _lambda_min_r(rho),
        fired=Verdict.ENTANGLED,
        quiet=Verdict.SEPARABILITY_CONSISTENT,
        notes=("stated as a non-strict inequality; ties within tolerance stay quiet",),
    )


def _prefactor(d: int) -> float:
    return math.sqrt(2.0 * d * (d - 1))


def _ceiling(d: int, radicand, lam_p, lam_r, block: str):
    """sqrt(2d(d-1)) (sqrt(radicand) + sqrt(lam_p) sqrt(lam_r)), for one state or a stack.

    Each input clamps to zero inside [-RADICAND_TOL, 0]. Anything lower means
    an invalid state slipped through: it raises for the first failing state,
    naming its radicand before P before R, the blocks called ``block``.
    """
    values = (radicand, lam_p, lam_r)
    low = (radicand < -RADICAND_TOL) | (lam_p < -RADICAND_TOL) | (lam_r < -RADICAND_TOL)
    names = ("{} off-diagonal mass", "lambda_min of {} P", "lambda_min of {} R")
    for value, what in zip(values, names):
        value = linalg.first_flagged(value, low)  # its value in the first failing state
        if value is not None and value < -RADICAND_TOL:
            raise NegativeRadicandError(
                f"{what.format(block)} is {value:.3e}, beyond the {-RADICAND_TOL:g} window"
            )
    roots = [np.sqrt(np.maximum(v, 0.0)) for v in values]
    return linalg.item_or_array(_prefactor(d) * (roots[0] + roots[1] * roots[2]))


def separable_bound(rho: DensityMatrix):
    """Coherence ceiling that separable qubit-qudit states are claimed to obey.

    sqrt(2d(d-1)) * [ (|P|_2^2 + |R|_2^2 - sum_j |rho_jj|^2)^(1/2)
                      + sqrt(lambda_min(P) lambda_min(R)) ]

    The radicand is the off-diagonal mass of P and R, so it is nonnegative
    up to roundoff; values inside [-1e-10, 0] clamp to zero and anything
    lower raises. The tripartite ensemble ceiling uses the same function.
    """
    blocks = _blocks(rho)
    diag_sq = (np.abs(np.diagonal(rho.matrix, axis1=-2, axis2=-1)) ** 2).sum(axis=-1)
    radicand = (
        linalg.frobenius_norm_sq(blocks.p) + linalg.frobenius_norm_sq(blocks.r) - diag_sq
    )
    return _ceiling(blocks.p.shape[-1], radicand, _lambda_min_p(rho), _lambda_min_r(rho), "block")


def coherence_bound_check(rho: DensityMatrix) -> CriterionReport:
    """Detector that fires when coherence exceeds the separable ceiling."""
    return _report(
        "coherence-bound",
        _coherence(rho),
        separable_bound(rho),
        fired=Verdict.ENTANGLED,
        quiet=Verdict.INCONCLUSIVE,
        notes=(f"ceiling prefactor sqrt(2d(d-1)) = {_prefactor(rho.dim // 2):.12g}",),
    )


def ppt_check(rho: DensityMatrix) -> PptVerdict:
    """Partial-transpose spectrum test (the transpose is over the second factor).

    Kept deliberately independent of the detectors above: it diagonalizes
    the partial transpose, a different matrix from the blocks P and R the
    detectors diagonalize, so agreement between the two means something.
    """
    pt = partial_transpose(rho)
    smallest = float(np.linalg.eigvalsh(pt)[0])
    return PptVerdict(min_eigenvalue=smallest, is_ppt=smallest >= -PPT_TOL)
