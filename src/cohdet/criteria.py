"""Bipartite entanglement checks for qubit-qudit states.

Every check works on the block decomposition [[P, Q], [Q^H, R]] of a state
with the qubit factor first, and returns a report carrying the two sides of
its inequality, so callers can audit the margin instead of trusting a bare
verdict. The PPT test lives here too, as an independent reference point: it
diagonalizes the partial transpose, while the checks diagonalize the blocks
P and R, and it is exact in 2x2 and 2x3. Everything the checks read from a
state (blocks, coherence, masses, block spectra) is one ``BlockAnalysis``,
kept per state; the separable ceiling is written once, in ``_ceiling``, and
the verdict rule once, in ``_decide``. The tripartite ensemble bound reads
the same analysis of each pair, the same ceiling and the same rule.

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
from functools import cached_property

import numpy as np

from . import linalg
from .coherence import _off_diagonal_sum
from .errors import NegativeRadicandError, NotFiniteError, ShapeError
from .states import BlockDecomposition, DensityMatrix, block_decompose, partial_transpose
from .tolerances import DETECTION_TOLERANCE, PPT_TOL, RADICAND_TOL


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


def _decide(lhs, rhs, quiet=Verdict.INCONCLUSIVE) -> tuple:
    """(margin, verdict): Entangled where lhs - rhs > DETECTION_TOLERANCE, per state of a stack.

    A margin that is not finite comes from arithmetic that overflowed and gets
    no verdict: it raises, naming the two sides of the first such state.
    """
    margin = lhs - rhs
    stack = isinstance(margin, np.ndarray)
    if not (np.isfinite(margin).all() if stack else math.isfinite(margin)):
        row = np.flatnonzero(~np.isfinite(margin))[0]
        lhs, rhs = (np.broadcast_to(side, np.shape(margin)).flat[row] for side in (lhs, rhs))
        raise NotFiniteError(
            f"lhs - rhs is not finite: lhs {lhs:g}, rhs {rhs:g}; overflowed arithmetic has no verdict"
        )
    if stack:
        return margin, np.where(margin > DETECTION_TOLERANCE, Verdict.ENTANGLED, quiet)
    return margin, Verdict.ENTANGLED if margin > DETECTION_TOLERANCE else quiet


def _report(criterion, lhs, rhs, *, quiet=Verdict.INCONCLUSIVE, notes=()) -> CriterionReport:
    margin, verdict = _decide(lhs, rhs, quiet)
    return CriterionReport(criterion, lhs, rhs, margin, verdict, DETECTION_TOLERANCE, tuple(notes))


class BlockAnalysis:
    """What the checks and the separable ceiling read from one qubit-first matrix or stack.

    ``matrix`` is taken as it is and ``blocks`` are its P/Q/R blocks. Each
    quantity is computed on first use and then kept, so every reader sees
    the same bits; a stack gets one value per matrix, each as if alone.
    """

    def __init__(self, matrix: np.ndarray, blocks: BlockDecomposition):
        self.matrix, self.blocks = matrix, blocks

    @cached_property
    def coherence(self):
        return linalg.item_or_array(_off_diagonal_sum(self.matrix))

    @cached_property
    def coupling_mass(self):
        return linalg.frobenius_norm_sq(self.blocks.q)

    @cached_property
    def trace_pr(self):
        return linalg.trace_product(self.blocks.p, self.blocks.r).real

    @cached_property
    def diagonal_functional(self):
        """The off-diagonal entries of P+R summed directly, plus twice Tr(PR).

        Both terms are real for Hermitian blocks up to roundoff, which is
        discarded. The sum runs over the complex entries: summing their real
        parts alone changes the last bit of some values.
        """
        off = self.blocks.p + self.blocks.r
        np.einsum("...ii->...i", off)[...] = 0.0  # a writable view of each diagonal
        return linalg.item_or_array(off.sum(axis=(-2, -1)).real + 2.0 * self.trace_pr)

    @cached_property
    def lambda_min_p(self):
        return linalg.lambda_min(self.blocks.p)

    @cached_property
    def lambda_min_r(self):
        return linalg.lambda_min(self.blocks.r)

    @cached_property
    def masses(self) -> tuple:
        """|P|_2^2, |R|_2^2 and sum_j |rho_jj|^2 (a correctly rounded square): the radicand's terms."""
        norms = [linalg.frobenius_norm_sq(b) for b in (self.blocks.p, self.blocks.r)]
        return (*norms, (np.abs(np.diagonal(self.matrix, axis1=-2, axis2=-1)) ** 2).sum(axis=-1))


# One analysis per state, made on first use and keyed weakly on the state (frozen,
# read-only matrix, identity hash), so it lives exactly as long as its state.
_ANALYSES = weakref.WeakKeyDictionary()


def _analysis(rho: DensityMatrix) -> BlockAnalysis:
    if rho not in _ANALYSES:
        _ANALYSES[rho] = BlockAnalysis(rho.matrix, block_decompose(rho))
    return _ANALYSES[rho]


def qubit_coherence_check(rho: DensityMatrix) -> CriterionReport:
    """Two-qubit detector: coherence vs a diagonal-block functional.

    Fires when the l1 coherence exceeds Tr[(P+R) sigma_x] + 2 Tr(PR).
    """
    if rho.dim != 4:
        raise ShapeError(f"check needs a two-qubit state, got total dimension {rho.dim}")
    analysis = _analysis(rho)
    return _report("qubit-coherence", analysis.coherence, analysis.diagonal_functional)


def qudit_coherence_check(rho: DensityMatrix) -> CriterionReport:
    """Qubit-qudit detector: coherence vs the same block functional at any d.

    The stated condition is a non-strict inequality; ties land inside the
    tolerance dead-band and stay Inconclusive, which the report notes.
    """
    analysis = _analysis(rho)
    return _report(
        "qudit-coherence",
        analysis.coherence,
        analysis.diagonal_functional,
        notes=("stated as a non-strict inequality; ties within tolerance stay Inconclusive",),
    )


def block_trace_check(rho: DensityMatrix) -> CriterionReport:
    """Detector comparing the coupling-block mass against Tr(PR)."""
    analysis = _analysis(rho)
    return _report("block-trace", analysis.coupling_mass, analysis.trace_pr)


def block_spectrum_check(rho: DensityMatrix) -> CriterionReport:
    """Spectral condition met by separable states, tested in contrapositive.

    Separable states are expected to keep the coupling-block mass at or
    below lambda_min(P) lambda_min(R); exceeding it is reported Entangled.
    The non-firing verdict is SeparabilityConsistent: the state passed a
    condition separable states satisfy, nothing stronger.
    """
    analysis = _analysis(rho)
    return _report(
        "block-spectrum",
        analysis.coupling_mass,
        analysis.lambda_min_p * analysis.lambda_min_r,
        quiet=Verdict.SEPARABILITY_CONSISTENT,
        notes=("stated as a non-strict inequality; ties within tolerance stay quiet",),
    )


def _prefactor(d: int) -> float:
    return math.sqrt(2.0 * d * (d - 1))


def _ceiling(prefactor, radicand, lam_p, lam_r, block: str):
    """prefactor (sqrt(radicand) + sqrt(lam_p) sqrt(lam_r)), for one state or a stack.

    ``prefactor`` is sqrt(2d(d-1)), one value or one per row. Each input
    clamps to zero inside [-RADICAND_TOL, 0]. Anything lower means an invalid
    state slipped through: it raises for the first failing row, naming its
    radicand before P before R, the blocks called ``block``.
    """
    values = (radicand, lam_p, lam_r)
    low = (radicand < -RADICAND_TOL) | (lam_p < -RADICAND_TOL) | (lam_r < -RADICAND_TOL)
    names = ("{} off-diagonal mass", "lambda_min of {} P", "lambda_min of {} R")
    for value, what in zip(values, names):
        value = linalg.first_flagged(value, low)  # its value in the first failing row
        if value is not None and value < -RADICAND_TOL:
            raise NegativeRadicandError(
                f"{what.format(block)} is {value:.3e}, beyond the {-RADICAND_TOL:g} window"
            )
    roots = [np.sqrt(np.maximum(v, 0.0)) for v in values]
    return linalg.item_or_array(prefactor * (roots[0] + roots[1] * roots[2]))


def separable_bound(rho: DensityMatrix):
    """Coherence ceiling that separable qubit-qudit states are claimed to obey.

    sqrt(2d(d-1)) * [ (|P|_2^2 + |R|_2^2 - sum_j |rho_jj|^2)^(1/2)
                      + sqrt(lambda_min(P) lambda_min(R)) ]

    The radicand is the off-diagonal mass of P and R, so it is nonnegative
    up to roundoff; values inside [-RADICAND_TOL, 0] clamp to zero and anything
    lower raises. The tripartite ensemble ceiling reads the same masses from
    a BlockAnalysis of each pair and calls the same ``_ceiling``.
    """
    a = _analysis(rho)
    p_norm_sq, r_norm_sq, diag_sq = a.masses
    radicand = p_norm_sq + r_norm_sq - diag_sq
    return _ceiling(_prefactor(rho.dim // 2), radicand, a.lambda_min_p, a.lambda_min_r, "block")


def coherence_bound_check(rho: DensityMatrix) -> CriterionReport:
    """Detector that fires when coherence exceeds the separable ceiling."""
    return _report(
        "coherence-bound",
        _analysis(rho).coherence,
        separable_bound(rho),
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
