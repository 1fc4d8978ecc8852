"""Maps that must not change the paper's quantities (hypothesis properties).

block-trace, block-spectrum and coherence-bound read the l1 coherence, the
block masses, Tr(PR) and the block spectra. A flip of the qubit swaps P and
R and turns Q into Q^H; a permutation of the qudit basis, a product of local
diagonal phases and complex conjugation each map P, Q and R by the same
entrywise rule. None of these moves any of those quantities, so each check's
two sides agree up to roundoff and its verdict agrees wherever the margin is
clear of the tolerance. An ensemble survey is likewise unchanged, up to the
order of its reports, by a cyclic relabeling of A, B and C, by reordering
the terms and by splitting a term into two halves of the same state.

Maps that do change the checks (local phases for the coherence checks, the
qubit swap of a 2x2 state, a transposition of three labels) are recorded
facts of the inequalities, not properties, and are not tested here.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cohdet.criteria import block_spectrum_check, block_trace_check, coherence_bound_check
from cohdet.states import DensityMatrix, permute_subsystems, random_density
from cohdet.tolerances import DETECTION_TOLERANCE
from cohdet.tripartite import PAIRS, TripartiteEnsemble, all_bipartitions_check

CHECKS = (block_trace_check, block_spectrum_check, coherence_bound_check)
SIDES_TOL = 1e-12  # lhs and rhs, absolute; the values are of order one
CLEAR = 1e-9  # a verdict must agree where its margin is this far from the tolerance
SEEDS = st.integers(0, 2**31 - 1)


def assert_same_report(got, want):
    assert abs(got.lhs - want.lhs) <= SIDES_TOL
    assert abs(got.rhs - want.rhs) <= SIDES_TOL
    if abs(want.margin - DETECTION_TOLERANCE) > CLEAR:
        assert got.verdict is want.verdict


def local_maps(d, permutation, phases):
    """Each map as a function of a 2xd matrix: qubit flip, qudit permutation, phases, conjugation."""
    flip = np.r_[d:2 * d, 0:d]  # basis index q*d + j goes to (1 - q)*d + j
    permute = np.add.outer(np.array([0, d]), permutation).ravel()
    phase = np.exp(1j * np.asarray(phases))  # one per basis vector of the qubit, then of the qudit
    diagonal = np.kron(phase[:2], phase[2:])
    return {
        "qubit flip": lambda m: m[np.ix_(flip, flip)],
        "qudit permutation": lambda m: m[np.ix_(permute, permute)],
        "local phases": lambda m: m * np.outer(diagonal, diagonal.conj()),
        "conjugation": np.conj,
    }


@st.composite
def bipartite_cases(draw):
    d = draw(st.integers(2, 4))
    state = random_density((2, d), rank=draw(st.integers(1, 2 * d)), seed=draw(SEEDS))
    permutation = draw(st.permutations(range(d)))
    angles = st.floats(-np.pi, np.pi, allow_nan=False)
    phases = draw(st.lists(angles, min_size=2 + d, max_size=2 + d))
    return state, local_maps(d, permutation, phases)


@settings(max_examples=40, deadline=None)
@given(bipartite_cases())
def test_bipartite_checks_are_invariant_under_local_maps(case):
    state, maps = case
    for apply in maps.values():
        moved = DensityMatrix(apply(state.matrix), state.dims)
        for check in CHECKS:
            assert_same_report(check(moved), check(state))


@st.composite
def ensembles(draw):
    dims = draw(st.sampled_from([(2, 2, 2), (2, 2, 3), (3, 2, 2), (3, 2, 3)]))
    count = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(SEEDS))
    weights = rng.dirichlet(np.ones(count)).tolist()
    states = [random_density(dims, seed=int(rng.integers(2**31))) for _ in range(count)]
    return TripartiteEnsemble(dims, tuple(zip(weights, states)), singled_out=_admissible(dims))


def _admissible(dims) -> str:
    # the first label whose pair has a qubit; the survey itself covers every label
    return next(x for x, (iy, iz) in PAIRS.items() if 2 in (dims[iy], dims[iz]))


def assert_same_survey(got, want):
    assert [r.singled_out for r in got.reports] == [r.singled_out for r in want.reports]
    assert [label for label, _ in got.skipped] == [label for label, _ in want.skipped]
    for a, b in zip(got.reports, want.reports):
        assert_same_report(a, b)


def rebuilt(ens, terms, dims=None):
    dims = ens.dims if dims is None else dims
    return TripartiteEnsemble(dims, tuple(terms), singled_out=_admissible(dims))


@settings(max_examples=25, deadline=None)
@given(ensembles(), st.randoms(use_true_random=False))
def test_survey_is_invariant_under_relabeling_reordering_and_splitting(ens, random):
    survey = all_bipartitions_check(ens)

    # new factor k is old factor (k + 1) % 3, so new label A is old label B, and so on
    dims = tuple(ens.dims[k] for k in (1, 2, 0))
    relabeled = [(w, permute_subsystems(state, (1, 2, 0))) for w, state in ens.terms]
    moved = all_bipartitions_check(rebuilt(ens, relabeled, dims))
    old = {r.singled_out: r for r in survey.reports}
    new = {r.singled_out: r for r in moved.reports}
    assert {"ABC"["BCA".index(x)] for x in old} == set(new)
    for x, report in old.items():
        assert_same_report(new["ABC"["BCA".index(x)]], report)

    shuffled = list(ens.terms)
    random.shuffle(shuffled)
    assert_same_survey(all_bipartitions_check(rebuilt(ens, shuffled)), survey)

    k = random.randrange(len(ens.terms))
    weight, state = ens.terms[k]
    split = [*ens.terms[:k], (weight / 2, state), (weight / 2, state), *ens.terms[k + 1:]]
    assert_same_survey(all_bipartitions_check(rebuilt(ens, split)), survey)
