"""Named parameterized states and ensembles used across tests and sweeps.

Two kinds of family live in the registry. State families build a bipartite
DensityMatrix, stacked for parameter arrays; ensemble families build a
TripartiteEnsemble whose decomposition is part of the definition. Each family
declares its parameter ranges so sweeps can be validated before any matrix is
assembled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParamOutOfRangeError, UnknownFamilyError
from .states import DensityMatrix, validate
from .tripartite import TripartiteEnsemble

MINOR_SLACK = 1e-12


@dataclass(frozen=True)
class ParamSpec:
    name: str
    default: float
    low: float
    high: float


@dataclass(frozen=True)
class FamilySpec:
    name: str
    kind: str  # "state" or "ensemble"
    dims: tuple
    parameters: tuple
    summary: str
    # False for constructions that are written down entrywise and leave the
    # physical state space for some parameter values.
    physical_everywhere: bool = True
    build: callable = field(repr=False, default=None)

    def parameter(self, name: str) -> ParamSpec:
        for p in self.parameters:
            if p.name == name:
                return p
        raise ParamOutOfRangeError(
            f"family {self.name!r} has no parameter {name!r}; "
            f"valid names: {', '.join(p.name for p in self.parameters)}"
        )


def _ket(dim: int, amplitudes: dict) -> np.ndarray:
    v = np.zeros(dim, dtype=np.complex128)
    for index, amp in amplitudes.items():
        v[index] = amp
    return v / np.linalg.norm(v)


def _projector(v: np.ndarray) -> np.ndarray:
    return np.outer(v, v.conj())


def _refuse(broken, template: str, *quantities) -> None:
    """Raise ParamOutOfRangeError, worded at the first grid point where ``broken`` holds."""
    hits = np.flatnonzero(broken)
    if hits.size:
        values = (np.ravel(q)[hits[0]].item() for q in quantities)
        raise ParamOutOfRangeError(template.format(*values))


def _build_xstate22(v) -> DensityMatrix:
    a, b, d, c, f = np.broadcast_arrays(*(np.asarray(v[k], dtype=float) for k in "abdcf"))
    e = 1.0 - a - b - d
    _refuse(e < -MINOR_SLACK, "diagonal weights a+b+d = {} exceed 1", a + b + d)
    e = np.maximum(e, 0.0)
    _refuse(c * c > b * d + MINOR_SLACK, "positivity needs c^2 <= b*d, got c={}, b*d={}", c, b * d)
    _refuse(f * f > a * e + MINOR_SLACK, "positivity needs f^2 <= a*e, got f={}, a*e={}", f, a * e)
    m = np.zeros(a.shape + (4, 4), dtype=np.complex128)
    m[..., 0, 0], m[..., 1, 1], m[..., 2, 2], m[..., 3, 3] = a, b, d, e
    m[..., 0, 3] = m[..., 3, 0] = f
    m[..., 1, 2] = m[..., 2, 1] = c
    return validate(m, (2, 2))


def _build_xstate22_slice(v) -> DensityMatrix:
    c = v["c"]
    return _build_xstate22({"a": 0.25, "b": 0.25, "d": 0.25, "c": c, "f": c})


def _build_xstate24(v) -> DensityMatrix:
    a = np.asarray(v["a"], dtype=float)
    lo = a / (6.0 * a + 1.0)
    hi = (a + 1.0) / (6.0 * a + 1.0)
    # P = diag(lo, lo, lo, 0), R = diag(0, lo, lo, hi), Q = lo at (0, 3), (1, 2), (2, 1).
    m = np.zeros(a.shape + (8, 8), dtype=np.complex128)
    for row, col in ((0, 0), (1, 1), (2, 2), (5, 5), (6, 6), (0, 7), (1, 6), (2, 5)):
        m[..., row, col] = m[..., col, row] = lo
    m[..., 7, 7] = hi
    return validate(m, (2, 4))


_KET_0 = np.array([1.0, 0.0], dtype=np.complex128)
_KET_1 = np.array([0.0, 1.0], dtype=np.complex128)
_BELL_PLUS = _ket(4, {0: 1.0, 3: 1.0})
_BELL_MINUS = _ket(4, {0: 1.0, 3: -1.0})


def _two_term_ensemble(p, first, second, require_psd=True) -> TripartiteEnsemble:
    terms = []
    if p > 0.0:
        terms.append((p, DensityMatrix(first, (2, 2, 2))))
    if p < 1.0:
        terms.append((1.0 - p, DensityMatrix(second, (2, 2, 2))))
    return TripartiteEnsemble(dims=(2, 2, 2), terms=tuple(terms), require_psd=require_psd)


def _build_bellmix(v) -> TripartiteEnsemble:
    p = v["p"]
    return _two_term_ensemble(
        p,
        np.kron(_projector(_KET_0), _projector(_BELL_PLUS)),
        np.kron(_projector(_KET_1), _projector(_BELL_MINUS)),
    )


_PSI_1 = _ket(8, {0: 1.0, 4: 1.0, 6: 1.0, 7: math.sqrt(2.0)})
_PSI_2 = _ket(8, {0: 1.0, 4: 1.0, 5: -1.0, 6: math.sqrt(2.0)})


def _build_puremix(v) -> TripartiteEnsemble:
    p = v["p"]
    return _two_term_ensemble(p, _projector(_PSI_1), _projector(_PSI_2))


# An indefinite qubit factor: Hermitian, unit trace, eigenvalues (1 +- sqrt(5))/2.
_FLAG = np.array([[1.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
_DIAG_00_11 = np.diag([0.5, 0.0, 0.0, 0.5]).astype(np.complex128)
_DIAG_01_10 = np.diag([0.0, 0.5, 0.5, 0.0]).astype(np.complex128)


def _build_flagmix(v) -> TripartiteEnsemble:
    p = v["p"]
    return _two_term_ensemble(
        p,
        np.kron(_FLAG, _DIAG_00_11),
        np.kron(_projector(_KET_1), _DIAG_01_10),
        require_psd=False,
    )


FAMILIES = {
    spec.name: spec
    for spec in (
        FamilySpec(
            name="xstate22",
            kind="state",
            dims=(2, 2),
            parameters=(
                ParamSpec("a", 0.25, 0.0, 1.0),
                ParamSpec("b", 0.25, 0.0, 1.0),
                ParamSpec("d", 0.25, 0.0, 1.0),
                ParamSpec("c", 0.0, -0.5, 0.5),
                ParamSpec("f", 0.0, -0.5, 0.5),
            ),
            summary="two-qubit X-shaped state; diagonal (a,b,d,1-a-b-d), "
            "anti-diagonal couplings f (outer) and c (inner)",
            build=_build_xstate22,
        ),
        FamilySpec(
            name="xstate22-slice",
            kind="state",
            dims=(2, 2),
            parameters=(ParamSpec("c", 0.0, 0.0, 0.25),),
            summary="xstate22 with the diagonal pinned to 1/4 and c = f swept",
            build=_build_xstate22_slice,
        ),
        FamilySpec(
            name="xstate24",
            kind="state",
            dims=(2, 4),
            parameters=(ParamSpec("a", 1.0, 0.0, 1.0),),
            summary="2x4 state with three equal couplings a/(6a+1) on the anti-diagonal",
            build=_build_xstate24,
        ),
        FamilySpec(
            name="bellmix",
            kind="ensemble",
            dims=(2, 2, 2),
            parameters=(ParamSpec("p", 0.5, 0.0, 1.0),),
            summary="qubit-marked mixture of the two phase-opposite Bell pairs",
            build=_build_bellmix,
        ),
        FamilySpec(
            name="puremix",
            kind="ensemble",
            dims=(2, 2, 2),
            parameters=(ParamSpec("p", 0.5, 0.0, 1.0),),
            summary="mixture of two entangled three-qubit pure states",
            build=_build_puremix,
        ),
        FamilySpec(
            name="flagmix",
            kind="ensemble",
            dims=(2, 2, 2),
            parameters=(ParamSpec("p", 0.5, 0.0, 1.0),),
            summary="diagonal two-qubit factors marked by an indefinite qubit term",
            physical_everywhere=False,
            build=_build_flagmix,
        ),
    )
}


def family_names() -> tuple:
    return tuple(sorted(FAMILIES))


def get_family(name: str) -> FamilySpec:
    try:
        return FAMILIES[name]
    except KeyError:
        raise UnknownFamilyError(
            f"unknown family {name!r}; available: {', '.join(family_names())}"
        ) from None


def build_family(name: str, **overrides):
    """Build a family member at the given parameter values.

    Unspecified parameters take their declared defaults; state families also
    take arrays and build that grid as one stacked DensityMatrix. Values
    outside a parameter's range, or combinations that break the family's own
    validity conditions, raise ParamOutOfRangeError, naming the first point.
    """
    spec = get_family(name)
    values = {p.name: p.default for p in spec.parameters}
    for key, value in overrides.items():
        p = spec.parameter(key)
        value = np.asarray(value, dtype=float)
        template = f"{name}.{key} must lie in [{p.low}, {p.high}], got {{}}"
        _refuse(~((p.low <= value) & (value <= p.high)), template, value)
        values[key] = value
    return spec.build(values)
