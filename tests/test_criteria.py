"""Bipartite criteria tests.

Two kinds of assertions live here. Frozen-value tests pin each check's
lhs/rhs on states whose numbers were worked out by hand (Bell pair,
maximally mixed, the X-state families). Characterization tests document
measured behavior that is uncomfortable but real: three of the checks
fire on provably separable states, and those misfires are asserted as
facts so a change in behavior is noticed either way.
"""

import gc
import math
import weakref

import numpy as np
import pytest

from cohdet import criteria, linalg
from cohdet.criteria import (
    DETECTION_TOLERANCE,
    CriterionReport,
    Verdict,
    block_spectrum_check,
    block_trace_check,
    coherence_bound_check,
    ppt_check,
    qubit_coherence_check,
    qudit_coherence_check,
    separable_bound,
)
from cohdet.coherence import l1_coherence
from cohdet.errors import NegativeRadicandError, QubitNotFirstError, ShapeError
from cohdet.families import build_family
from cohdet.linalg import tensor_product
from cohdet.states import block_decompose, random_density, random_separable, validate


def bell_state(sign=1.0):
    m = np.zeros((4, 4), dtype=complex)
    m[np.ix_([0, 3], [0, 3])] = [[0.5, sign * 0.5], [sign * 0.5, 0.5]]
    return validate(m, (2, 2))


def maximally_mixed():
    return validate(np.eye(4) / 4, (2, 2))


def coherent_product():
    """|+><+| x I/2: separable by construction, coherent in the fixed basis."""
    plus = np.full((2, 2), 0.5, dtype=complex)
    return validate(tensor_product(plus, np.eye(2) / 2), (2, 2))


def werner(p):
    m = p * bell_state().matrix + (1 - p) * np.eye(4) / 4
    return validate(m, (2, 2))


class TestQubitCoherenceCheck:
    def test_bell_pair(self):
        report = qubit_coherence_check(bell_state())
        assert report.lhs == pytest.approx(1.0, abs=1e-12)
        assert report.rhs == pytest.approx(0.0, abs=1e-12)
        assert report.verdict is Verdict.ENTANGLED

    def test_maximally_mixed(self):
        report = qubit_coherence_check(maximally_mixed())
        assert report.lhs == 0.0
        assert report.rhs == pytest.approx(0.25, abs=1e-12)
        assert report.verdict is Verdict.INCONCLUSIVE

    def test_x_state_rhs_closed_form(self):
        # For the 2x2 X family the comparison value collapses to 2(ad + be).
        rng = np.random.default_rng(37)
        for _ in range(50):
            a, b, d = rng.dirichlet(np.ones(4))[:3]
            e = 1.0 - a - b - d
            c = math.sqrt(b * d) * rng.uniform(0, 1)
            f = math.sqrt(a * e) * rng.uniform(0, 1)
            state = build_family("xstate22", a=a, b=b, d=d, c=c, f=f)
            report = qubit_coherence_check(state)
            assert report.rhs == pytest.approx(2 * (a * d + b * e), abs=1e-12)
            assert report.lhs == pytest.approx(2 * (c + f), abs=1e-12)

    def test_needs_two_qubits(self):
        with pytest.raises(ShapeError):
            qubit_coherence_check(random_density((2, 3), seed=1))

    def test_fires_on_a_ppt_x_state(self):
        # a=b=d=e=c=f=1/4 is invariant under partial transpose, hence PPT
        # and separable in 2x2, yet the check fires: a live counterexample
        # to treating this detector as sound.
        state = build_family("xstate22", a=0.25, b=0.25, d=0.25, c=0.25, f=0.25)
        assert ppt_check(state).min_eigenvalue == pytest.approx(0.0, abs=1e-12)
        report = qubit_coherence_check(state)
        assert report.lhs == pytest.approx(1.0, abs=1e-12)
        assert report.rhs == pytest.approx(0.25, abs=1e-12)
        assert report.verdict is Verdict.ENTANGLED


class TestQuditCoherenceCheck:
    def test_x_state_24_at_one(self):
        report = qudit_coherence_check(build_family("xstate24", a=1.0))
        assert report.lhs == pytest.approx(6 / 7, abs=1e-12)
        assert report.rhs == pytest.approx(4 / 49, abs=1e-12)
        assert report.verdict is Verdict.ENTANGLED

    def test_reduces_to_qubit_check_at_d_two(self):
        for seed in range(1000):
            state = random_density((2, 2), rank=(seed % 4) + 1, seed=3000 + seed)
            narrow = qubit_coherence_check(state)
            wide = qudit_coherence_check(state)
            assert abs(narrow.lhs - wide.lhs) < 1e-12
            assert abs(narrow.rhs - wide.rhs) < 1e-12
            assert narrow.verdict is wide.verdict

    def test_tie_handling_note_present(self):
        report = qudit_coherence_check(build_family("xstate24", a=0.5))
        assert any("non-strict" in note for note in report.notes)

    def test_qudit_first_rejected(self):
        rho = tensor_product(np.eye(3) / 3, np.eye(2) / 2)
        with pytest.raises(QubitNotFirstError):
            qudit_coherence_check(validate(rho, (3, 2)))


class TestBlockTraceCheck:
    def test_bell_pair(self):
        report = block_trace_check(bell_state())
        assert report.lhs == pytest.approx(0.25, abs=1e-12)
        assert report.rhs == pytest.approx(0.0, abs=1e-12)
        assert report.verdict is Verdict.ENTANGLED

    def test_x_state_24_at_half(self):
        # Couplings 3 * (1/8)^2 against the diagonal overlap 2 * (1/8)^2.
        report = block_trace_check(build_family("xstate24", a=0.5))
        assert report.lhs == pytest.approx(3 / 64, abs=1e-14)
        assert report.rhs == pytest.approx(1 / 32, abs=1e-14)
        assert report.verdict is Verdict.ENTANGLED

    def test_maximally_mixed(self):
        report = block_trace_check(maximally_mixed())
        assert report.lhs == 0.0
        assert report.rhs == pytest.approx(0.125, abs=1e-14)
        assert report.verdict is Verdict.INCONCLUSIVE

    def test_quiet_on_coherent_product(self):
        report = block_trace_check(coherent_product())
        assert report.lhs == pytest.approx(report.rhs, abs=1e-14)
        assert report.verdict is Verdict.INCONCLUSIVE

    def test_immune_on_separable_sweep(self):
        # This is the one detector with a soundness proof; a firing here
        # would be a genuine bug, not a documented quirk.
        for seed in range(100):
            state = random_separable((2, 3), terms=(seed % 4) + 1, seed=4000 + seed)
            assert block_trace_check(state).verdict is not Verdict.ENTANGLED


class TestBlockSpectrumCheck:
    def test_bell_pair(self):
        report = block_spectrum_check(bell_state())
        assert report.lhs == pytest.approx(0.25, abs=1e-12)
        assert report.rhs == pytest.approx(0.0, abs=1e-12)
        assert report.verdict is Verdict.ENTANGLED

    def test_maximally_mixed_is_consistent(self):
        report = block_spectrum_check(maximally_mixed())
        assert report.lhs == 0.0
        assert report.rhs == pytest.approx(1 / 16, abs=1e-14)
        assert report.verdict is Verdict.SEPARABILITY_CONSISTENT

    def test_fires_on_coherent_product(self):
        # 1/8 coupling mass against a 1/16 eigenvalue product: the check
        # flags a manifestly separable product state. Kept as a record of
        # the check's real discriminating power.
        state = coherent_product()
        assert ppt_check(state).is_ppt
        report = block_spectrum_check(state)
        assert report.lhs == pytest.approx(1 / 8, abs=1e-14)
        assert report.rhs == pytest.approx(1 / 16, abs=1e-14)
        assert report.verdict is Verdict.ENTANGLED


class TestSeparableBound:
    def test_bell_pair_bound_is_zero(self):
        assert separable_bound(bell_state()) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed_bound(self):
        assert separable_bound(maximally_mixed()) == pytest.approx(0.5, abs=1e-12)

    def test_nonnegative_on_random_states(self):
        for seed in range(100):
            state = random_density((2, 4), rank=(seed % 8) + 1, seed=5000 + seed)
            assert separable_bound(state) >= 0.0

    def test_indefinite_block_raises(self):
        # Diagonal with a genuinely negative entry in the P block: the
        # square root has no business succeeding silently.
        m = np.diag([0.6, -0.1, 0.0, 0.5]).astype(complex)
        state = validate(m, (2, 2), require_psd=False)
        with pytest.raises(NegativeRadicandError):
            separable_bound(state)

    def test_violated_by_coherent_product(self):
        # The ceiling is claimed to hold for every separable state; this
        # product state exceeds it by a factor of two.
        state = coherent_product()
        assert l1_coherence(state) == pytest.approx(1.0, abs=1e-14)
        assert separable_bound(state) == pytest.approx(0.5, abs=1e-12)


class TestCoherenceBoundCheck:
    def test_bell_pair(self):
        report = coherence_bound_check(bell_state())
        assert report.lhs == pytest.approx(1.0, abs=1e-12)
        assert report.rhs == pytest.approx(0.0, abs=1e-12)
        assert report.verdict is Verdict.ENTANGLED

    def test_maximally_mixed(self):
        report = coherence_bound_check(maximally_mixed())
        assert report.verdict is Verdict.INCONCLUSIVE

    def test_prefactor_recorded_in_notes(self):
        report = coherence_bound_check(random_density((2, 3), seed=2))
        expected = math.sqrt(2 * 3 * 2)
        assert any(f"{expected:.12g}" in note for note in report.notes)


class TestPptCheck:
    def test_bell_pair_is_npt(self):
        verdict = ppt_check(bell_state())
        assert verdict.min_eigenvalue == pytest.approx(-0.5, abs=1e-12)
        assert not verdict.is_ppt

    @pytest.mark.parametrize("p", [0.0, 0.2, 1 / 3, 0.4, 0.7, 1.0])
    def test_werner_family_closed_form(self, p):
        verdict = ppt_check(werner(p))
        assert verdict.min_eigenvalue == pytest.approx((1 - 3 * p) / 4, abs=1e-12)
        assert verdict.is_ppt == (p <= 1 / 3 + 1e-9)

    def test_needs_bipartite_dims(self):
        with pytest.raises(ShapeError):
            ppt_check(random_density((2, 2, 2), seed=1))


HOLDER_TOL = 1e-12


def holder_bound_holds(values, tol: float = HOLDER_TOL) -> bool:
    """Whether sum|x| <= sqrt(n) * (sum x^2)^(1/2) + tol.

    Always true mathematically; the norm comparison underlying the
    separable ceiling, spot-checked here.
    """
    x = np.abs(np.asarray(values, dtype=float))
    if x.ndim != 1:
        raise ShapeError("values must be a flat sequence")
    return float(x.sum()) <= math.sqrt(len(x)) * float(np.sqrt((x**2).sum())) + tol


class TestHolderBound:
    def test_equality_for_constant_vector(self):
        assert holder_bound_holds([0.3] * 7)

    def test_unit_basis_vector(self):
        assert holder_bound_holds([1.0, 0.0, 0.0, 0.0])

    def test_1000_random_vectors(self):
        rng = np.random.default_rng(91)
        for _ in range(1000):
            values = rng.standard_normal(int(rng.integers(1, 12)))
            assert holder_bound_holds(values)


ALL_CHECKS = (
    qubit_coherence_check,
    qudit_coherence_check,
    block_trace_check,
    block_spectrum_check,
    coherence_bound_check,
    separable_bound,
)


def applicable(state):
    return [c for c in ALL_CHECKS if c is not qubit_coherence_check or state.dim == 4]


class TestSharedAnalysis:
    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"block_decompose": 0, "lambda_min": 0}

        def counted(name, fn):
            def wrapper(*args):
                counts[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(criteria, "block_decompose",
                            counted("block_decompose", criteria.block_decompose))
        monkeypatch.setattr(linalg, "lambda_min", counted("lambda_min", linalg.lambda_min))
        return counts

    def test_one_decomposition_and_two_diagonalizations_per_state(self, counts):
        state = random_density((2, 3), seed=8)
        for check in applicable(state):
            check(state)
        assert counts == {"block_decompose": 1, "lambda_min": 2}

    def test_block_trace_alone_diagonalizes_nothing(self, counts):
        block_trace_check(random_density((2, 3), seed=8))
        assert counts == {"block_decompose": 1, "lambda_min": 0}

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (2, 4)])
    def test_checks_do_not_use_the_2x2_rotation(self, monkeypatch, dims):
        def forbidden(*args, **kwargs):
            raise AssertionError("bipartite checks must not call lambda_min_2x2")

        monkeypatch.setattr(linalg, "lambda_min_2x2", forbidden)
        state = random_density(dims, seed=31)
        for check in applicable(state):
            check(state)
        # A fresh state, so separable_bound fills the analysis on its own.
        separable_bound(random_density(dims, seed=31))

    def test_analysis_lives_only_as_long_as_its_state(self):
        state = random_density((2, 2), seed=9)
        for check in applicable(state):
            check(state)
        assert state in criteria._ANALYSES
        alive = weakref.ref(state)
        del state
        gc.collect()
        assert alive() is None

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (2, 4)])
    def test_reports_do_not_depend_on_check_order(self, dims):
        for seed in range(5):
            shared = random_density(dims, seed=7000 + seed)
            checks = applicable(shared)
            for check in reversed(checks):
                check(shared)
            for check in checks:
                fresh = random_density(dims, seed=7000 + seed)
                assert check(shared) == check(fresh)


def same_bits(a, b) -> bool:
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


def family_stack(name, param, values):
    values = np.asarray(values, dtype=float)
    stack = build_family(name, **{param: values})
    return stack, [build_family(name, **{param: v}) for v in values.tolist()]


def ginibre_stack(dims, base, count=48):
    """Seeded states whose ranks cycle through 1..D, so rank-1 ones are in."""
    total = math.prod(dims)
    singles = [random_density(dims, rank=i % total + 1, seed=base + i) for i in range(count)]
    return validate(np.array([s.matrix for s in singles]), dims), singles


STACKS = {
    "xstate22": lambda: family_stack("xstate22", "c", np.linspace(-0.25, 0.25, 101)),
    "xstate22-slice": lambda: family_stack("xstate22-slice", "c", np.linspace(0.0, 0.25, 251)),
    "xstate24": lambda: family_stack("xstate24", "a", np.linspace(0.0, 1.0, 1001)),
    "ginibre-2x2": lambda: ginibre_stack((2, 2), 81000),
    "ginibre-2x3": lambda: ginibre_stack((2, 3), 82000),
    "ginibre-2x4": lambda: ginibre_stack((2, 4), 83000),
}


class TestStackedChecks:
    @pytest.mark.parametrize("case", list(STACKS))
    def test_stack_reports_equal_per_state_reports(self, case):
        stack, singles = STACKS[case]()
        assert same_bits(separable_bound(stack), [separable_bound(s) for s in singles])
        for check in applicable(singles[0]):
            if check is separable_bound:
                continue
            stacked = check(stack)
            reports = [check(s) for s in singles]
            for field in ("lhs", "rhs", "margin"):
                assert same_bits(getattr(stacked, field), [getattr(r, field) for r in reports])
            assert list(stacked.verdict) == [r.verdict for r in reports]
            assert (stacked.criterion, stacked.tolerance, stacked.notes) == (
                reports[0].criterion, reports[0].tolerance, reports[0].notes,
            )

    def test_a_stack_is_analyzed_once(self, monkeypatch):
        stack, _ = ginibre_stack((2, 3), 84000, count=10)
        calls = []
        monkeypatch.setattr(linalg, "lambda_min", lambda m, f=linalg.lambda_min: calls.append(m.shape) or f(m))
        for check in applicable(stack):
            check(stack)
        assert calls == [(10, 3, 3), (10, 3, 3)]

    def test_radicand_failure_names_the_first_failing_state(self):
        indefinite = np.diag([0.6, -0.1, 0.0, 0.5]).astype(complex)
        worse = np.diag([0.7, -0.2, 0.0, 0.5]).astype(complex)
        fine = np.eye(4, dtype=complex) / 4
        stack = validate(np.array([fine, indefinite, worse]), (2, 2), require_psd=False)
        with pytest.raises(NegativeRadicandError) as stacked:
            separable_bound(stack)
        with pytest.raises(NegativeRadicandError) as single:
            separable_bound(validate(indefinite, (2, 2), require_psd=False))
        assert str(stacked.value) == str(single.value)

    def test_radicand_failure_names_the_first_state_before_its_blocks(self):
        # The first state fails on R, the second on P: the message is the first state's.
        first = np.diag([0.6, 0.5, -0.2, 0.1]).astype(complex)
        second = np.diag([-0.3, 0.5, 0.4, 0.4]).astype(complex)
        stack = validate(np.array([first, second]), (2, 2), require_psd=False)
        with pytest.raises(NegativeRadicandError) as stacked:
            separable_bound(stack)
        with pytest.raises(NegativeRadicandError) as single:
            separable_bound(validate(first, (2, 2), require_psd=False))
        assert str(stacked.value) == str(single.value)
        assert str(single.value) == "lambda_min of block R is -2.000e-01, beyond the -1e-10 window"

    @pytest.mark.parametrize("case", ["ginibre-2x2", "ginibre-2x3", "ginibre-2x4", "xstate24"])
    def test_rhs_keeps_the_bits_of_the_symmetric_sum_trace(self, case):
        stack, singles = STACKS[case]()
        for state in (stack, *singles):
            blocks = block_decompose(state)
            p, r = blocks.p, blocks.r
            d = p.shape[-1]
            symmetric_sum = np.ones((d, d), dtype=complex) - np.eye(d)  # sigma_x at d = 2
            trace_form = (
                linalg.trace_product(p + r, symmetric_sum).real
                + 2.0 * linalg.trace_product(p, r).real
            )
            direct = criteria.BlockAnalysis(state.matrix, blocks).diagonal_functional
            assert type(direct) is type(trace_form)
            assert [float(v).hex() for v in np.ravel(direct)] == [
                float(v).hex() for v in np.ravel(trace_form)
            ]


class TestReportShape:
    def test_margin_is_exact_difference(self):
        for seed in range(50):
            state = random_density((2, 3), seed=6000 + seed)
            for check in (qudit_coherence_check, block_trace_check,
                          block_spectrum_check, coherence_bound_check):
                report = check(state)
                assert report.margin == report.lhs - report.rhs
                assert report.tolerance == DETECTION_TOLERANCE

    def test_verdict_values_are_presentation_strings(self):
        assert Verdict.ENTANGLED.value == "Entangled"
        assert Verdict.INCONCLUSIVE.value == "Inconclusive"
        assert Verdict.SEPARABILITY_CONSISTENT.value == "SeparabilityConsistent"

    def test_reports_are_frozen(self):
        report = block_trace_check(bell_state())
        assert isinstance(report, CriterionReport)
        with pytest.raises(AttributeError):
            report.lhs = 2.0
