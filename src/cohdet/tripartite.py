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

import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .coherence import _off_diagonal_sum, l1_coherence
from .criteria import BlockAnalysis, Verdict, _ceiling, _decide, _prefactor
from .errors import NoQubitInPairError, ShapeError, shown
from .states import DensityMatrix, _cut, _reduce, _refuse_any, _violations_per_state
from .tolerances import DETECTION_TOLERANCE, WEIGHT_TOL

LABELS = ("A", "B", "C")

# Singling out one subsystem leaves the other two in cyclic order; the first
# of the pair indexes the blocks when both are qubits.
PAIRS = {"A": (1, 2), "B": (2, 0), "C": (0, 1)}
PAIR_LABELS = {x: LABELS[iy] + LABELS[iz] for x, (iy, iz) in PAIRS.items()}


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
    bound arithmetic is still well defined. The members and the mixture
    are certified as one stack, at construction; a failing member is named
    ``term k``, counted from 1.
    """

    dims: tuple
    terms: tuple
    singled_out: str = "A"
    require_psd: bool = True
    _stack: DensityMatrix = field(init=False, repr=False)
    _mixture: DensityMatrix = field(init=False, repr=False)

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if len(dims) != 3:
            raise ShapeError(f"need exactly three subsystem dimensions, got {dims}")
        if self.singled_out not in LABELS:
            raise ShapeError(f"singled_out must be one of {LABELS}, got {shown(self.singled_out)}")
        _require_qubit_in_pair(dims, self.singled_out)
        terms = []
        for weight, state in self.terms:
            weight = float(weight)
            if not 0.0 < weight <= 1.0:
                raise ShapeError(f"term weights must lie in (0, 1], got {weight}")
            if not isinstance(state, DensityMatrix):
                state = DensityMatrix(state, dims)
            if state.matrix.ndim != 2:
                shape = state.matrix.shape
                raise ShapeError(f"each term must be one matrix, got an array of shape {shape}")
            if state.dims != dims:
                raise ShapeError(f"term dims {state.dims} do not match ensemble dims {dims}")
            terms.append((weight, state))
        if not terms:
            raise ShapeError("ensemble needs at least one term")
        stack = np.array([s.matrix for _, s in terms])
        acc = sum(w * s.matrix for w, s in terms)
        # a mixture that overflowed stays out of the stack, for DensityMatrix to refuse
        rows = (stack, acc[None]) if np.isfinite(acc).all() else (stack,)
        found = _violations_per_state(np.concatenate(rows), self.require_psd)
        for position, violations in enumerate(found[: len(terms)], start=1):
            _refuse_any(violations, f"term {position}: ")
        total = sum(w for w, _ in terms)
        if abs(total - 1.0) > WEIGHT_TOL:
            raise ShapeError(f"term weights sum to {total!r}, not 1")
        _refuse_any(found[-1])  # the mixture's row; if it overflowed, the last term's (empty)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "terms", tuple(terms))
        object.__setattr__(self, "_stack", DensityMatrix(stack, dims))
        object.__setattr__(self, "_mixture", DensityMatrix(acc, dims))

    def mixture(self) -> DensityMatrix:
        return self._mixture


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


def _ceilings(ens: TripartiteEnsemble, labels) -> list:
    """(rhs, TermBreakdowns) of the ensemble ceiling for each singled-out label.

    Each label reduces the certified term stack straight to its singled-out
    factor and its qubit-first pair with the partial-trace kernel, wrapping
    neither in a DensityMatrix. The labels whose pair blocks share an order d
    are one stack; one scan of its singles and one of its pairs refuse what
    is not finite, in every group before any is analyzed. A stack is cut into
    P/Q/R as ``block_decompose`` cuts a state: one ``BlockAnalysis`` gives its
    masses, the same that ``separable_bound`` reads, and one call
    (``lambda_min_2x2`` if d = 2, else ``lambda_min``) its block spectra.
    Every label's terms, in label order, are bounded by one ``_ceiling``
    call, so every bit and error is what labels one by one give.
    """
    m, dims = ens._stack.matrix, ens.dims
    groups, where = {}, []
    for label in labels:
        single = _reduce(m, dims, [LABELS.index(label)])
        # the pair in cyclic order with its qubit moved first; the sort is stable
        kept = sorted(PAIRS[label], key=lambda i: dims[i] != 2)
        pair = _reduce(m, dims, kept)
        d = pair.shape[-1] // 2
        where.append((d, len(groups.setdefault(d, []))))
        groups[d].append((single, pair))
    stacks = {d: [linalg.require_finite(np.concatenate(a)) for a in zip(*g)] for d, g in groups.items()}
    columns = {}
    for d, (singles, pairs) in stacks.items():
        analysis = BlockAnalysis(pairs, _cut(pairs))
        p, r = analysis.blocks.p[:, None], analysis.blocks.r[:, None]
        blocks = np.concatenate((p, r), axis=1).reshape(-1, d, d)  # P and R of each pair in turn
        # eigvalsh's bits on 2x2 would break the CLI golden until it compares within a tolerance
        lam = (linalg.lambda_min_2x2 if d == 2 else linalg.lambda_min)(blocks).reshape(-1, 2)
        prefactor = np.full(len(pairs), _prefactor(d))
        columns[d] = np.array((_off_diagonal_sum(singles), *analysis.masses, *lam.T, prefactor))
    n = len(ens.terms)
    rows = np.concatenate([columns[d][:, k * n : (k + 1) * n] for d, k in where], axis=1)
    coherence_x, p_norm_sq, r_norm_sq, diag_sq, lam_p, lam_r, prefactor = rows
    ceilings = _ceiling(prefactor, p_norm_sq + r_norm_sq - diag_sq, lam_p, lam_r, "pair block")
    weights = np.array([w for w, _ in ens.terms] * len(where))
    summands = weights * (coherence_x + ceilings * (1.0 + coherence_x))
    table = np.concatenate((weights[None], rows, summands[None])).T.tolist()
    terms = [TermBreakdown(*row) for row in table]
    breakdowns = (tuple(terms[i : i + n]) for i in range(0, len(terms), n))
    return [(float(sum(t.summand for t in b)), b) for b in breakdowns]


def ensemble_bound(ens: TripartiteEnsemble):
    """Weighted-sum ceiling on the mixture's coherence, with its breakdown.

    Returns (rhs, terms) where ``terms`` carries one TermBreakdown per
    ensemble member, sufficient to reproduce ``rhs`` independently.
    """
    return _ceilings(ens, (ens.singled_out,))[0]


def _report(singled_out: str, lhs: float, rhs: float, terms: tuple) -> TripartiteReport:
    margin, verdict = _decide(lhs, rhs)
    pair = PAIR_LABELS[singled_out]
    return TripartiteReport(
        "ensemble-bound", singled_out, pair, lhs, rhs, margin, verdict, DETECTION_TOLERANCE, terms
    )


# overflowed arithmetic is refused by _decide, not reported as a warning
@np.errstate(over="ignore", invalid="ignore")
def ensemble_bound_check(ens: TripartiteEnsemble) -> TripartiteReport:
    """Compare the mixture's coherence against the ensemble ceiling."""
    lhs = l1_coherence(ens.mixture())
    return _report(ens.singled_out, lhs, *ensemble_bound(ens))


@np.errstate(over="ignore", invalid="ignore")
def all_bipartitions_check(ens: TripartiteEnsemble) -> BipartitionSurvey:
    """Run the ensemble check for every subsystem that can be singled out.

    Choices whose leftover pair has no qubit are recorded as skips instead
    of raising, so a survey always covers all three labels. The admissible
    labels share one ceiling computation and one mixture coherence.
    """
    labels = []
    skipped = []
    for label in LABELS:
        try:
            _require_qubit_in_pair(ens.dims, label)
        except NoQubitInPairError as exc:
            skipped.append((label, str(exc)))
            continue
        labels.append(label)
    lhs = l1_coherence(ens.mixture())
    reports = (_report(label, lhs, *c) for label, c in zip(labels, _ceilings(ens, labels)))
    return BipartitionSurvey(reports=tuple(reports), skipped=tuple(skipped))
