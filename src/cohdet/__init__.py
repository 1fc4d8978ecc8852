"""Coherence-based entanglement detection for small quantum systems."""

from .coherence import l1_coherence
from .criteria import (
    CriterionReport,
    PptVerdict,
    Verdict,
    block_spectrum_check,
    block_trace_check,
    coherence_bound_check,
    ppt_check,
    qubit_coherence_check,
    qudit_coherence_check,
    separable_bound,
)
from .families import FamilySpec, build_family, family_names, get_family
from .gellmann import GellMannBasis, build_basis
from .states import (
    RNG_SCHEME,
    BlockDecomposition,
    DensityMatrix,
    block_decompose,
    permute_subsystems,
    random_density,
    random_separable,
    state_violations,
    validate,
)
from .tolerances import DETECTION_TOLERANCE
from .tripartite import (
    BipartitionSurvey,
    TermBreakdown,
    TripartiteEnsemble,
    TripartiteReport,
    all_bipartitions_check,
    ensemble_bound,
    ensemble_bound_check,
)

__version__ = "0.1.0"

__all__ = [
    "BipartitionSurvey",
    "BlockDecomposition",
    "CriterionReport",
    "DETECTION_TOLERANCE",
    "DensityMatrix",
    "FamilySpec",
    "GellMannBasis",
    "PptVerdict",
    "RNG_SCHEME",
    "TermBreakdown",
    "TripartiteEnsemble",
    "TripartiteReport",
    "Verdict",
    "all_bipartitions_check",
    "block_decompose",
    "block_spectrum_check",
    "block_trace_check",
    "build_basis",
    "build_family",
    "coherence_bound_check",
    "ensemble_bound",
    "ensemble_bound_check",
    "family_names",
    "get_family",
    "l1_coherence",
    "permute_subsystems",
    "ppt_check",
    "qubit_coherence_check",
    "qudit_coherence_check",
    "random_density",
    "random_separable",
    "separable_bound",
    "state_violations",
    "validate",
    "__version__",
]
