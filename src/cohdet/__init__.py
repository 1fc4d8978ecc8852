"""Coherence-based entanglement detection for small quantum systems.

The public names below are looked up in their home modules on first use
(PEP 562), so ``import cohdet`` -- and a one-shot ``cohdet`` process --
loads only the modules that are actually used.
"""

import importlib

__version__ = "0.1.0"

_HOMES = {
    name: home
    for home, names in (
        ("coherence", "l1_coherence"),
        ("criteria", "CriterionReport PptVerdict Verdict block_spectrum_check block_trace_check "
         "coherence_bound_check ppt_check qubit_coherence_check qudit_coherence_check separable_bound"),
        ("families", "FamilySpec build_family family_names get_family"),
        ("gellmann", "GellMannBasis build_basis"),
        ("states", "RNG_SCHEME BlockDecomposition DensityMatrix block_decompose permute_subsystems "
         "random_density random_separable state_violations validate"),
        ("tolerances", "DETECTION_TOLERANCE"),
        ("tripartite", "BipartitionSurvey TermBreakdown TripartiteEnsemble TripartiteReport "
         "all_bipartitions_check ensemble_bound ensemble_bound_check"),
    )
    for name in names.split()
}

__all__ = [*sorted(_HOMES), "__version__"]


def __getattr__(name):
    """A public name from its home module, or a submodule such as ``cohdet.states``."""
    if name in _HOMES:
        value = getattr(importlib.import_module(f"{__name__}.{_HOMES[name]}"), name)
        globals()[name] = value
        return value
    if not name.startswith("_"):  # probes such as __wrapped__ import nothing
        try:
            return importlib.import_module(f"{__name__}.{name}")
        except ModuleNotFoundError as exc:
            if exc.name != f"{__name__}.{name}":
                raise
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
