"""Ensemble bound tests.

The three built-in ensembles carry hand-computed values: the Bell mixture
(coherence 1 against a vanishing bound), the two-ket mixture (exact surd
coherence against an affine-in-p bound), and the flagged diagonal mixture
that sits exactly on the equality line 2p. The bound's behavior on
product ensembles is split between a frozen Inconclusive case (diagonal
factors) and a frozen misfire (coherent factors), since both are stable,
reproducible facts about the inequality as stated.
"""

import dataclasses
import math

import numpy as np
import pytest

from cohdet import criteria, linalg, tripartite
from cohdet.coherence import l1_coherence
from cohdet.criteria import separable_bound
from cohdet.errors import (
    NegativeRadicandError,
    NoQubitInPairError,
    NotConvergedError,
    NotPositiveError,
    ShapeError,
)
from cohdet.families import build_family
from cohdet.linalg import frobenius_norm_sq, hermitian_eigenvalues, tensor_product
from cohdet.states import (
    DensityMatrix,
    block_decompose,
    partial_trace,
    permute_subsystems,
    random_density,
    validate,
)
from cohdet.tripartite import (
    PAIRS,
    TermBreakdown,
    TripartiteEnsemble,
    Verdict,
    all_bipartitions_check,
    ensemble_bound,
    ensemble_bound_check,
)

PUREMIX_LHS = 6 * (1 + math.sqrt(2)) / 5
PUREMIX_RHS_BASE = (10 + 14 * math.sqrt(2)) / 25
PUREMIX_RHS_SLOPE = (28 - 14 * math.sqrt(2)) / 25


def product_term(*factors):
    matrix = factors[0]
    for factor in factors[1:]:
        matrix = tensor_product(matrix, factor)
    return validate(matrix, tuple(f.shape[0] for f in factors))


def single_term_ensemble(state, singled_out="A"):
    return TripartiteEnsemble(
        dims=state.dims, terms=((1.0, state),), singled_out=singled_out
    )


KET_PLUS = np.full((2, 2), 0.5, dtype=complex)
KET_ZERO = np.diag([1.0, 0.0]).astype(complex)


class TestBellMixture:
    @pytest.mark.parametrize("p", [0.0, 0.3, 0.5, 1.0])
    def test_unit_coherence_against_zero_bound(self, p):
        report = ensemble_bound_check(build_family("bellmix", p=p))
        assert report.lhs == pytest.approx(1.0, abs=1e-12)
        assert report.rhs == pytest.approx(0.0, abs=1e-12)
        assert report.verdict is Verdict.ENTANGLED

    def test_term_breakdowns_vanish(self):
        report = ensemble_bound_check(build_family("bellmix", p=0.5))
        for term in report.terms:
            assert term.coherence_x == pytest.approx(0.0, abs=1e-14)
            assert term.summand == pytest.approx(0.0, abs=1e-13)
            assert term.prefactor == 2.0

    def test_every_bipartition_fires(self):
        survey = all_bipartitions_check(build_family("bellmix", p=0.5))
        assert survey.skipped == ()
        assert len(survey.reports) == 3
        for report in survey.reports:
            assert report.lhs == pytest.approx(1.0, abs=1e-12)
            assert report.rhs == pytest.approx(0.0, abs=1e-12)
            assert report.verdict is Verdict.ENTANGLED


class TestTwoKetMixture:
    @pytest.mark.parametrize("p", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_affine_bound_in_weight(self, p):
        report = ensemble_bound_check(build_family("puremix", p=p))
        assert report.lhs == pytest.approx(PUREMIX_LHS, abs=1e-10)
        assert report.rhs == pytest.approx(
            PUREMIX_RHS_BASE + PUREMIX_RHS_SLOPE * p, abs=1e-9
        )
        assert report.verdict is Verdict.ENTANGLED

    def test_midpoint_term_summands(self):
        report = ensemble_bound_check(build_family("puremix", p=0.5))
        summands = sorted(term.summand for term in report.terms)
        assert summands[0] == pytest.approx(0.595979797464, abs=1e-10)
        assert summands[1] == pytest.approx(0.76, abs=1e-10)

    def test_endpoint_bound_is_rational(self):
        report = ensemble_bound_check(build_family("puremix", p=1.0))
        assert report.rhs == pytest.approx(38 / 25, abs=1e-12)


class TestFlaggedMixture:
    @pytest.mark.parametrize("p", [0.0, 0.1, 0.5, 0.9, 1.0])
    def test_sits_exactly_on_the_equality_line(self, p):
        report = ensemble_bound_check(build_family("flagmix", p=p))
        assert report.lhs == pytest.approx(2 * p, abs=1e-10)
        assert report.rhs == pytest.approx(2 * p, abs=1e-10)
        assert report.verdict is Verdict.INCONCLUSIVE

    def test_midpoint_breakdown(self):
        report = ensemble_bound_check(build_family("flagmix", p=0.5))
        first, second = report.terms
        assert first.coherence_x == pytest.approx(2.0, abs=1e-14)
        assert first.summand == pytest.approx(1.0, abs=1e-12)
        assert second.summand == pytest.approx(0.0, abs=1e-13)


class TestBreakdownAudit:
    @pytest.mark.parametrize("family,p", [("bellmix", 0.5), ("puremix", 0.25),
                                          ("flagmix", 0.7)])
    def test_rhs_recomputable_from_terms(self, family, p):
        rhs, terms = ensemble_bound(build_family(family, p=p))
        assert rhs == pytest.approx(sum(t.summand for t in terms), abs=1e-12)
        for term in terms:
            assert term.recomputed() == pytest.approx(term.summand, abs=1e-12)

    def test_report_metadata(self):
        report = ensemble_bound_check(build_family("bellmix", p=0.5))
        assert report.criterion == "ensemble-bound"
        assert report.singled_out == "A"
        assert report.pair == "BC"
        assert report.margin == report.lhs - report.rhs
        assert report.tolerance == 1e-10


class TestProductEnsembles:
    def test_diagonal_product_is_inconclusive(self):
        factors = [np.diag(d).astype(complex) for d in
                   ([0.2, 0.8], [0.5, 0.5], [0.9, 0.1])]
        ens = single_term_ensemble(product_term(*factors))
        report = ensemble_bound_check(ens)
        assert report.lhs == pytest.approx(0.0, abs=1e-14)
        assert report.verdict is Verdict.INCONCLUSIVE

    def test_coherent_product_misfire_is_frozen(self):
        # |+>|+>(I/2) is a product state, yet the bound comes out at 2
        # against a mixture coherence of 3. The inequality as stated is
        # simply not satisfied by every product ensemble.
        ens = single_term_ensemble(
            product_term(KET_PLUS, KET_PLUS, np.eye(2, dtype=complex) / 2)
        )
        report = ensemble_bound_check(ens)
        assert report.lhs == pytest.approx(3.0, abs=1e-12)
        assert report.rhs == pytest.approx(2.0, abs=1e-12)
        assert report.verdict is Verdict.ENTANGLED


class TestRelabeling:
    def test_cyclic_relabeling_preserves_reports(self):
        # Relabel (A,B,C) -> (B,C,A); the cyclic pair convention makes the
        # corresponding report identical, not merely verdict-equal.
        factors = (KET_PLUS, KET_ZERO, np.eye(2, dtype=complex) / 2)
        original = single_term_ensemble(product_term(*factors), singled_out="A")
        base = ensemble_bound_check(original)

        shifted_state = permute_subsystems(original.terms[0][1], (2, 0, 1))
        shifted = TripartiteEnsemble(
            dims=shifted_state.dims,
            terms=((1.0, shifted_state),),
            singled_out="B",
        )
        moved = ensemble_bound_check(shifted)
        assert moved.lhs == pytest.approx(base.lhs, abs=1e-12)
        assert moved.rhs == pytest.approx(base.rhs, abs=1e-12)
        assert moved.verdict is base.verdict

    def test_survey_verdict_multiset_is_relabeling_invariant(self):
        factors = (KET_PLUS, KET_ZERO, np.eye(2, dtype=complex) / 2)
        original = single_term_ensemble(product_term(*factors))
        shifted_state = permute_subsystems(original.terms[0][1], (2, 0, 1))
        shifted = single_term_ensemble(shifted_state)
        verdicts = lambda ens: sorted(
            r.verdict.value for r in all_bipartitions_check(ens).reports
        )
        assert verdicts(original) == verdicts(shifted)


class TestMixedDimensions:
    def test_pair_without_qubit_rejected_at_construction(self):
        term = product_term(
            np.eye(3, dtype=complex) / 3,
            np.eye(2, dtype=complex) / 2,
            np.eye(3, dtype=complex) / 3,
        )
        with pytest.raises(NoQubitInPairError):
            TripartiteEnsemble(dims=(3, 2, 3), terms=((1.0, term),), singled_out="B")

    def test_survey_skips_qubitless_pair_with_reason(self):
        factors = [np.diag([0.2, 0.3, 0.5]).astype(complex),
                   np.diag([0.4, 0.6]).astype(complex),
                   np.diag([0.1, 0.2, 0.7]).astype(complex)]
        ens = single_term_ensemble(product_term(*factors))
        survey = all_bipartitions_check(ens)
        assert [r.singled_out for r in survey.reports] == ["A", "C"]
        assert len(survey.skipped) == 1
        label, reason = survey.skipped[0]
        assert label == "B"
        assert "qubit" in reason
        for report in survey.reports:
            assert report.verdict is Verdict.INCONCLUSIVE

    def test_pair_map_is_cyclic(self):
        assert PAIRS == {"A": (1, 2), "B": (2, 0), "C": (0, 1)}


def random_product_ensemble(dims, terms, seed):
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(terms))
    return TripartiteEnsemble(
        dims=dims,
        terms=tuple(
            (float(w), product_term(*(
                random_density(d, seed=int(rng.integers(2**31))).matrix for d in dims
            )))
            for w in weights
        ),
    )


SURVEYED = {
    "bellmix": lambda: build_family("bellmix", p=0.3),
    "puremix": lambda: build_family("puremix", p=0.5),
    "random-222": lambda: random_product_ensemble((2, 2, 2), 3, seed=17),
    # labels A and B leave a 2x3 pair, C a 2x2 one: two block orders; at this
    # seed the scalar pow instead of the array square changes a diag_sq bit
    "random-223": lambda: random_product_ensemble((2, 2, 3), 2, seed=75),
    "random-323": lambda: random_product_ensemble((3, 2, 3), 2, seed=23),
}


def clamped_sqrt(x):
    """sqrt(x), with x inside [-1e-10, 0] taken as zero and anything lower refused."""
    if x < -1e-10:
        raise NegativeRadicandError(f"{x:.3e} is below the -1e-10 window")
    return math.sqrt(max(0.0, x))  # this order clamps -0.0 to 0.0, as np.maximum does


def reference_pair(state, label):
    """The pair left after singling out ``label``: traced in index order, swapped back to
    cyclic order, then swapped again if that puts a qudit first."""
    iy, iz = tripartite.PAIRS[label]
    kept = sorted((iy, iz))
    pair = partial_trace(state, keep=kept)
    if kept != [iy, iz]:
        pair = permute_subsystems(pair, (1, 0))
    if pair.dims[0] != 2:
        pair = permute_subsystems(pair, (1, 0))
    return pair


def per_term_ceiling(ens, label):
    """The ceiling for one singled-out label, term by term and one matrix at a time."""
    ix = "ABC".index(label)
    terms = []
    for weight, state in ens.terms:
        coherence_x = l1_coherence(partial_trace(state, keep=[ix]))
        pair = reference_pair(state, label)
        blocks = block_decompose(pair)
        d = pair.dim // 2
        diag_sq = float((np.abs(pair.matrix.diagonal()) ** 2).sum())
        p_norm_sq, r_norm_sq = frobenius_norm_sq(blocks.p), frobenius_norm_sq(blocks.r)
        lam_p = float(hermitian_eigenvalues(blocks.p).eigenvalues[0])
        lam_r = float(hermitian_eigenvalues(blocks.r).eigenvalues[0])
        prefactor = math.sqrt(2.0 * d * (d - 1))
        ceiling = prefactor * (
            clamped_sqrt(p_norm_sq + r_norm_sq - diag_sq)
            + clamped_sqrt(lam_p) * clamped_sqrt(lam_r)
        )
        summand = weight * (coherence_x + ceiling * (1.0 + coherence_x))
        terms.append(TermBreakdown(
            weight, coherence_x, p_norm_sq, r_norm_sq, diag_sq, lam_p, lam_r, prefactor, summand
        ))
    return float(sum(t.summand for t in terms)), tuple(terms)


def exact(values):
    """Each value as its type and hex form, so a signed zero or a last-bit change counts."""
    return [(type(v), v.hex()) for v in values]


class TestSharedSurvey:
    """The survey reuses the ensemble certified at construction for every bipartition."""

    def test_survey_validates_nothing_again(self, monkeypatch):
        calls = []
        real = tripartite.validate

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(tripartite, "validate", counting)
        ens = build_family("puremix", p=0.5)
        assert len(ens.terms) == 2 and len(calls) == 2  # the term stack, then the mixture
        all_bipartitions_check(ens)
        assert len(calls) == 2

    @pytest.mark.parametrize("name", sorted(SURVEYED))
    def test_reports_match_the_per_term_recipe(self, name):
        ens = SURVEYED[name]()
        lhs = l1_coherence(ens.mixture())
        for report in all_bipartitions_check(ens).reports:
            rhs, terms = per_term_ceiling(ens, report.singled_out)
            assert report.terms == terms
            assert [exact(dataclasses.astuple(t)) for t in report.terms] == [
                exact(dataclasses.astuple(t)) for t in terms
            ]
            assert exact((report.lhs, report.rhs, report.margin)) == exact((lhs, rhs, lhs - rhs))

    @pytest.mark.parametrize("name", sorted(SURVEYED))
    def test_reports_equal_freshly_built_ensembles(self, name):
        ens = SURVEYED[name]()
        survey = all_bipartitions_check(ens)
        skipped = dict(survey.skipped)
        for report in survey.reports:
            fresh = TripartiteEnsemble(ens.dims, ens.terms, singled_out=report.singled_out)
            assert report == ensemble_bound_check(fresh)
        for label, reason in skipped.items():
            with pytest.raises(NoQubitInPairError) as exc:
                TripartiteEnsemble(ens.dims, ens.terms, singled_out=label)
            assert str(exc.value) == reason
        assert list(skipped) == (["B"] if ens.dims == (3, 2, 3) else [])
        assert [r.singled_out for r in survey.reports] == [x for x in "ABC" if x not in skipped]

    def test_one_coercion_per_survey(self, monkeypatch):
        # the reduced factors and pairs are read as they come from the kernel;
        # only the Jacobi input check still coerces
        calls = []
        real = linalg.as_matrices

        def counting(candidate):
            calls.append(1)
            return real(candidate)

        ens = build_family("puremix", p=0.5)
        monkeypatch.setattr(linalg, "as_matrices", counting)
        all_bipartitions_check(ens)
        assert len(calls) == 1

    def test_caller_ensemble_is_unchanged(self):
        ens = random_product_ensemble((2, 2, 2), 2, seed=5)
        mixture = ens.mixture()
        all_bipartitions_check(ens)
        assert ens.singled_out == "A"
        assert ens.mixture() is mixture


class TestPairAnalysis:
    """U1 reads U's block analysis: a term's masses are what separable_bound reads from its pair."""

    @pytest.mark.parametrize("dims, terms, seed", [
        ((2, 2, 2), 3, 17), ((2, 2, 3), 2, 75), ((2, 3, 2), 2, 75), ((3, 2, 3), 2, 23),
    ])
    def test_term_masses_equal_the_pair_analysis(self, dims, terms, seed):
        ens = random_product_ensemble(dims, terms, seed=seed)
        for report in all_bipartitions_check(ens).reports:
            for term, (_, state) in zip(report.terms, ens.terms):
                pair = reference_pair(state, report.singled_out)
                separable_bound(pair)
                analysis = criteria._ANALYSES[pair]
                assert exact((term.p_norm_sq, term.r_norm_sq, term.diag_sq_sum)) == exact(
                    map(float, analysis.masses)
                )


class TestPairBlockEigenRoute:
    """The pair-block lambda_min values come from one stacked Jacobi call per block order."""

    @staticmethod
    def recorded_calls(monkeypatch):
        calls = []
        real = linalg.hermitian_eigenvalues

        def recorder(m, *args, **kwargs):
            calls.append(np.shape(m))
            return real(m, *args, **kwargs)

        monkeypatch.setattr(linalg, "hermitian_eigenvalues", recorder)
        return calls, real

    @staticmethod
    def assert_fresh_jacobi_values(ens, label, terms, solve):
        for term, (_, state) in zip(terms, ens.terms):
            blocks = block_decompose(reference_pair(state, label))
            assert term.lambda_min_p == solve(blocks.p).eigenvalues[0]
            assert term.lambda_min_r == solve(blocks.r).eigenvalues[0]

    @pytest.mark.parametrize("name", sorted(SURVEYED))
    def test_one_jacobi_call_per_bound_with_identical_values(self, monkeypatch, name):
        ens = SURVEYED[name]()
        calls, real = self.recorded_calls(monkeypatch)
        _, terms = ensemble_bound(ens)
        assert len(calls) == 1 and calls[0][0] == 2 * len(ens.terms)
        self.assert_fresh_jacobi_values(ens, ens.singled_out, terms, real)

    def test_an_unconverged_solve_is_refused(self, monkeypatch):
        real = linalg.hermitian_eigenvalues

        def capped(m, *args, **kwargs):
            result = real(m, max_sweeps=0)
            assert not result.converged  # puremix blocks have off-diagonal mass
            return result

        monkeypatch.setattr(linalg, "hermitian_eigenvalues", capped)
        with pytest.raises(NotConvergedError, match="did not converge on the 2x2 pair blocks"):
            all_bipartitions_check(build_family("puremix", p=0.5))

    @pytest.mark.parametrize("name", sorted(SURVEYED))
    def test_one_jacobi_call_per_block_order_per_survey(self, monkeypatch, name):
        ens = SURVEYED[name]()
        calls, real = self.recorded_calls(monkeypatch)
        survey = all_bipartitions_check(ens)
        assert len(calls) == (2 if ens.dims == (2, 2, 3) else 1)
        assert sum(shape[0] for shape in calls) == 2 * len(ens.terms) * len(survey.reports)
        for report in survey.reports:
            self.assert_fresh_jacobi_values(ens, report.singled_out, report.terms, real)


class TestEnsembleValidation:
    def test_weights_must_sum_to_one(self):
        term = product_term(KET_ZERO, KET_ZERO, KET_ZERO)
        with pytest.raises(ShapeError):
            TripartiteEnsemble(dims=(2, 2, 2), terms=((0.6, term),), singled_out="A")

    def test_weights_must_be_in_unit_interval(self):
        term = product_term(KET_ZERO, KET_ZERO, KET_ZERO)
        with pytest.raises(ShapeError):
            TripartiteEnsemble(
                dims=(2, 2, 2),
                terms=((1.5, term), (-0.5, term)),
                singled_out="A",
            )

    def test_needs_three_dims_and_known_label(self):
        term = product_term(KET_ZERO, KET_ZERO, KET_ZERO)
        with pytest.raises(ShapeError):
            TripartiteEnsemble(dims=(2, 2), terms=((1.0, term),), singled_out="A")
        with pytest.raises(ShapeError):
            TripartiteEnsemble(dims=(2, 2, 2), terms=((1.0, term),), singled_out="D")

    def test_term_dims_must_match(self):
        term = product_term(
            np.eye(3, dtype=complex) / 3, KET_ZERO, np.eye(3, dtype=complex) / 3
        )
        with pytest.raises(ShapeError):
            TripartiteEnsemble(dims=(2, 2, 2), terms=((1.0, term),), singled_out="A")

    def test_indefinite_mixture_needs_explicit_waiver(self):
        flag = np.array([[1.0, 1.0], [1.0, 0.0]], dtype=complex)
        term_matrix = tensor_product(tensor_product(flag, KET_ZERO), KET_ZERO)
        term = validate(term_matrix, (2, 2, 2), require_psd=False)
        with pytest.raises(NotPositiveError):
            TripartiteEnsemble(dims=(2, 2, 2), terms=((1.0, term),), singled_out="A")
        waived = TripartiteEnsemble(
            dims=(2, 2, 2), terms=((1.0, term),), singled_out="A", require_psd=False
        )
        assert np.linalg.eigvalsh(waived.mixture().matrix)[0] < -1e-10

    def test_stacked_term_rejected_with_its_shape(self):
        stack = np.array([random_density((2, 2, 2), seed=s).matrix for s in range(3)])
        for term in (stack, DensityMatrix(stack, (2, 2, 2))):
            with pytest.raises(ShapeError, match=r"one matrix, got an array of shape \(3, 8, 8\)"):
                TripartiteEnsemble(dims=(2, 2, 2), terms=((1.0, term),))

    @pytest.mark.parametrize("first, second, message", [
        ("R", "P", r"pair block R is -2\.000e-01"),
        ("P", "R", r"pair block P is -3\.000e-01"),
    ])
    def test_first_failing_term_names_the_root(self, first, second, message):
        # Each term is |0><0| on A times a diagonal BC part whose P or R block
        # is indefinite; the error comes from term 1, whichever block it is.
        indefinite = {"R": [0.6, 0.5, -0.2, 0.1], "P": [-0.3, 0.5, 0.4, 0.4]}
        terms = tuple(
            (0.5, validate(tensor_product(KET_ZERO, np.diag(indefinite[block])),
                           (2, 2, 2), require_psd=False))
            for block in (first, second)
        )
        ens = TripartiteEnsemble(dims=(2, 2, 2), terms=terms, require_psd=False)
        for check in (ensemble_bound_check, all_bipartitions_check):
            with pytest.raises(NegativeRadicandError, match=message):
                check(ens)

    def test_first_failing_label_names_the_root(self):
        # dims (2, 3, 2): labels A and C leave a 2x3 pair and B a 2x2 one, so B
        # is bounded in a stack of its own. The pairs of B (c x a) and C (a x b)
        # both have an indefinite P block; B's error comes first, as it does
        # label by label (C's P block is at -3.333e-02).
        a = np.diag([-0.1, 1.1]).astype(complex)
        term = tensor_product(tensor_product(a, np.eye(3, dtype=complex) / 3), np.eye(2) / 2)
        ens = TripartiteEnsemble((2, 3, 2), ((1.0, term),), require_psd=False)
        with pytest.raises(NegativeRadicandError) as exc:
            all_bipartitions_check(ens)
        assert str(exc.value) == (
            "lambda_min of pair block P is -5.000e-02, beyond the -1e-10 window"
        )

    def test_overflowing_pair_is_refused(self):
        # Hermitian, unit trace and indefinite, yet tracing out C adds the two
        # 1e308 entries into an infinite entry of the AB pair
        m = np.diag([0.5, 0.5, 0, 0, 0, 0, 0, 0]).astype(complex)
        m[0, 6] = m[6, 0] = m[1, 7] = m[7, 1] = 1e308
        with np.errstate(over="ignore", invalid="ignore"):
            ens = TripartiteEnsemble((2, 2, 2), ((1.0, m),), require_psd=False)
            with pytest.raises(ShapeError, match="^matrix contains NaN or infinite entries$"):
                all_bipartitions_check(ens)

    def test_ensembles_are_frozen(self):
        ens = build_family("bellmix", p=0.5)
        with pytest.raises(dataclasses.FrozenInstanceError):
            ens.singled_out = "B"
