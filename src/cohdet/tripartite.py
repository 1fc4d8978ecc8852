"""Ensemble-based entanglement detection for three-party states.

The bound computed here is a property of a stated convex decomposition, not
of the mixed state alone, so the ensemble (weights plus member states) is
the input type. For each member, one subsystem is singled out and the other
two are reduced to a qubit-qudit pair; the separable ceiling of that pair,
stitched together with the singled-out factor's coherence, gives a per-term
summand. A mixture whose coherence exceeds the weighted sum of summands is
reported entangled.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

from . import linalg
from .coherence import l1_coherence
from .criteria import DETECTION_TOLERANCE, Verdict, _clamped_sqrt
from .errors import NoQubitInPairError, ShapeError
from .states import DensityMatrix, block_decompose, permute_subsystems, validate

LABELS = ("A", "B", "C")

# Singling out one subsystem leaves the other two in cyclic order; the first
# of the pair indexes the blocks when both are qubits.
PAIRS = {"A": (1, 2), "B": (2, 0), "C": (0, 1)}

WEIGHT_TOL = 1e-10


def _require_qubit_in_pair(dims: tuple, singled_out: str) -> None:
    iy, iz = PAIRS[singled_out]
    if dims[iy] != 2 and dims[iz] != 2:
        raise NoQubitInPairError(
            f"pair {LABELS[iy]}{LABELS[iz]} has dimensions "
            f"{dims[iy]}x{dims[iz]}; the block analysis needs a qubit factor"
        )


@dataclass(frozen=True, eq=False)
class TripartiteEnsemble:
    """Convex decomposition of a three-party state, with one part singled out.

    ``terms`` is a sequence of (weight, DensityMatrix) pairs over the same
    three factors; weights must be positive and sum to one. The pair left
    after removing ``singled_out`` must contain a qubit, or the block
    analysis downstream has nothing to decompose. ``require_psd=False``
    admits indefinite members (and mixture): some textbook constructions
    are written down entrywise and are not physical states, yet their
    bound arithmetic is still well defined. The mixture is built and
    certified once, at construction.
    """

    dims: tuple
    terms: tuple
    singled_out: str = "A"
    require_psd: bool = True
    _mixture: DensityMatrix = field(init=False, repr=False)

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if len(dims) != 3:
            raise ShapeError(f"need exactly three subsystem dimensions, got {dims}")
        if self.singled_out not in LABELS:
            raise ShapeError(f"singled_out must be one of {LABELS}, got {self.singled_out!r}")
        _require_qubit_in_pair(dims, self.singled_out)
        terms = []
        for weight, state in self.terms:
            weight = float(weight)
            if not 0.0 < weight <= 1.0:
                raise ShapeError(f"term weights must lie in (0, 1], got {weight}")
            if not isinstance(state, DensityMatrix):
                state = DensityMatrix(state, dims)
            if state.dims != dims:
                raise ShapeError(f"term dims {state.dims} do not match ensemble dims {dims}")
            validate(state.matrix, dims, require_psd=self.require_psd)
            terms.append((weight, state))
        if not terms:
            raise ShapeError("ensemble needs at least one term")
        total = sum(w for w, _ in terms)
        if abs(total - 1.0) > WEIGHT_TOL:
            raise ShapeError(f"term weights sum to {total!r}, not 1")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "terms", tuple(terms))
        acc = sum(w * s.matrix for w, s in terms)
        object.__setattr__(self, "_mixture", validate(acc, dims, require_psd=self.require_psd))

    def mixture(self) -> DensityMatrix:
        return self._mixture

    def pair_label(self) -> str:
        iy, iz = PAIRS[self.singled_out]
        return LABELS[iy] + LABELS[iz]


@dataclass(frozen=True)
class TermBreakdown:
    """Everything that enters one term's summand, for independent recomputation."""

    weight: float
    coherence_x: float
    p_norm_sq: float
    r_norm_sq: float
    diag_sq_sum: float
    lambda_min_p: float
    lambda_min_r: float
    prefactor: float
    summand: float

    def recomputed(self) -> float:
        radicand = max(self.p_norm_sq + self.r_norm_sq - self.diag_sq_sum, 0.0)
        lam = max(self.lambda_min_p, 0.0) * max(self.lambda_min_r, 0.0)
        ceiling = self.prefactor * (math.sqrt(radicand) + math.sqrt(lam))
        return self.weight * (self.coherence_x + ceiling * (1.0 + self.coherence_x))


@dataclass(frozen=True)
class TripartiteReport:
    criterion: str
    singled_out: str
    pair: str
    lhs: float
    rhs: float
    margin: float
    verdict: Verdict
    tolerance: float
    terms: tuple


@dataclass(frozen=True)
class BipartitionSurvey:
    """Reports for every admissible singled-out choice, plus skip records."""

    reports: tuple
    skipped: tuple


def _pair_state(state: DensityMatrix, singled_out: str) -> DensityMatrix:
    """Reduce to the pair, order it cyclically, then put the qubit first."""
    iy, iz = PAIRS[singled_out]
    kept = sorted((iy, iz))
    reduced = linalg.partial_trace(state.matrix, state.dims, keep=kept)
    pair = DensityMatrix(reduced, (state.dims[kept[0]], state.dims[kept[1]]))
    if kept != [iy, iz]:
        pair = permute_subsystems(pair, (1, 0))
    if pair.dims[0] != 2:
        pair = permute_subsystems(pair, (1, 0))
    return pair


def ensemble_bound(ens: TripartiteEnsemble):
    """Weighted-sum ceiling on the mixture's coherence, with its breakdown.

    Returns (rhs, terms) where ``terms`` carries one TermBreakdown per
    ensemble member, sufficient to reproduce ``rhs`` independently.
    """
    ix = LABELS.index(ens.singled_out)
    breakdown = []
    for weight, state in ens.terms:
        single = linalg.partial_trace(state.matrix, state.dims, keep=[ix])
        coherence_x = l1_coherence(single)
        pair = _pair_state(state, ens.singled_out)
        blocks = block_decompose(pair)
        d = pair.dim // 2
        diag_sq = float(sum(abs(v) ** 2 for v in pair.matrix.diagonal()))
        p_norm_sq = linalg.frobenius_norm_sq(blocks.p)
        r_norm_sq = linalg.frobenius_norm_sq(blocks.r)
        # Jacobi, not lambda_min: the CLI golden pins these printed floats byte
        # for byte; switch once CLI floats are compared within a tolerance.
        lam_p = float(linalg.hermitian_eigenvalues(blocks.p).eigenvalues[0])
        lam_r = float(linalg.hermitian_eigenvalues(blocks.r).eigenvalues[0])
        prefactor = math.sqrt(2.0 * d * (d - 1))
        ceiling = prefactor * (
            _clamped_sqrt(p_norm_sq + r_norm_sq - diag_sq, "pair block off-diagonal mass")
            + _clamped_sqrt(lam_p, "lambda_min of pair block P")
            * _clamped_sqrt(lam_r, "lambda_min of pair block R")
        )
        summand = weight * (coherence_x + ceiling * (1.0 + coherence_x))
        breakdown.append(
            TermBreakdown(
                weight=weight,
                coherence_x=coherence_x,
                p_norm_sq=p_norm_sq,
                r_norm_sq=r_norm_sq,
                diag_sq_sum=diag_sq,
                lambda_min_p=lam_p,
                lambda_min_r=lam_r,
                prefactor=prefactor,
                summand=summand,
            )
        )
    rhs = float(sum(t.summand for t in breakdown))
    return rhs, tuple(breakdown)


def ensemble_bound_check(ens: TripartiteEnsemble) -> TripartiteReport:
    """Compare the mixture's coherence against the ensemble ceiling."""
    lhs = l1_coherence(ens.mixture())
    rhs, breakdown = ensemble_bound(ens)
    margin = lhs - rhs
    verdict = Verdict.ENTANGLED if margin > DETECTION_TOLERANCE else Verdict.INCONCLUSIVE
    return TripartiteReport(
        criterion="ensemble-bound",
        singled_out=ens.singled_out,
        pair=ens.pair_label(),
        lhs=float(lhs),
        rhs=rhs,
        margin=float(margin),
        verdict=verdict,
        tolerance=DETECTION_TOLERANCE,
        terms=breakdown,
    )


def _relabelled(ens: TripartiteEnsemble, label: str) -> TripartiteEnsemble:
    """The same certified ensemble with another party singled out.

    Only the pair test depends on the label, so the terms and mixture are
    shared rather than validated again; ``ens`` itself is left unchanged.
    """
    _require_qubit_in_pair(ens.dims, label)
    probe = copy.copy(ens)
    object.__setattr__(probe, "singled_out", label)
    return probe


def all_bipartitions_check(ens: TripartiteEnsemble) -> BipartitionSurvey:
    """Run the ensemble check for every subsystem that can be singled out.

    Choices whose leftover pair has no qubit are recorded as skips instead
    of raising, so a survey always covers all three labels.
    """
    reports = []
    skipped = []
    for label in LABELS:
        try:
            probe = _relabelled(ens, label)
        except NoQubitInPairError as exc:
            skipped.append((label, str(exc)))
            continue
        reports.append(ensemble_bound_check(probe))
    return BipartitionSurvey(reports=tuple(reports), skipped=tuple(skipped))
