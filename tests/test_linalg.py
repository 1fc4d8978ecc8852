"""Matrix kernel tests.

Closed-form 2x2 eigenvalues serve as the independent reference for the
Jacobi solver; everything else is checked against hand-expanded small
cases or numpy's own primitives where those are not the unit under test.
"""

import hashlib
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohdet.errors import NotHermitianError, ShapeError, SizeError
from cohdet.families import build_family
from cohdet.linalg import (
    JACOBI_MAX_SWEEPS,
    MAX_DIMENSION,
    as_matrices,
    as_matrix,
    frobenius_norm_sq,
    hermitian_eigenvalues,
    lambda_min,
    tensor_product,
    trace_product,
)
from cohdet.states import (
    DensityMatrix,
    block_decompose,
    partial_trace,
    partial_transpose,
    permute_subsystems,
)

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
KET_PLUS_STATE = np.full((2, 2), 0.5, dtype=complex)
BELL_PLUS = np.zeros((4, 4), dtype=complex)
BELL_PLUS[np.ix_([0, 3], [0, 3])] = 0.5


def closed_form_2x2(m):
    """Eigenvalues of a Hermitian 2x2 from the quadratic formula."""
    a = m[0, 0].real
    d = m[1, 1].real
    half_gap = math.hypot((a - d) / 2.0, abs(m[0, 1]))
    mid = (a + d) / 2.0
    return mid - half_gap, mid + half_gap


def random_hermitian(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2.0


class TestTensorProduct:
    def test_identity_times_identity(self):
        assert np.array_equal(tensor_product(np.eye(2), np.eye(2)), np.eye(4))

    def test_projector_times_bell_fills_upper_block(self):
        ket0 = np.zeros((2, 2), dtype=complex)
        ket0[0, 0] = 1.0
        big = tensor_product(ket0, BELL_PLUS)
        assert big.shape == (8, 8)
        expected = np.zeros((8, 8), dtype=complex)
        expected[np.ix_([0, 3], [0, 3])] = 0.5
        assert np.array_equal(big, expected)

    def test_sigma_x_squared_indices(self):
        both = tensor_product(SIGMA_X, SIGMA_X)
        assert both[0, 3] == 1.0
        assert both[3, 0] == 1.0
        assert np.count_nonzero(both) == 4

    def test_trace_multiplicativity(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            a = random_hermitian(rng, 3)
            b = random_hermitian(rng, 4)
            left = np.trace(tensor_product(a, b))
            assert abs(left - np.trace(a) * np.trace(b)) < 1e-12

    def test_bits_equal_numpy_kron(self):
        rng = np.random.default_rng(29)
        shapes = [(1, 1), (1, 3), (3, 1), (2, 2), (2, 3), (4, 2), (3, 3)]
        for k in range(400):
            (ra, ca), (rb, cb) = shapes[k % len(shapes)], shapes[(k // len(shapes)) % len(shapes)]
            a = rng.normal(size=(ra, ca)) + 1j * rng.normal(size=(ra, ca))
            b = rng.normal(size=(rb, cb)) * 1e-3 + 1j * rng.normal(size=(rb, cb)) * 1e3
            product = tensor_product(a, b)
            assert product.dtype == np.complex128 and product.flags.c_contiguous
            assert product.tobytes() == np.kron(a, b).tobytes()

    def test_size_cap(self):
        side = int(math.isqrt(MAX_DIMENSION)) + 1
        block = np.eye(side)
        with pytest.raises(SizeError):
            tensor_product(block, block)


class TestPartialTrace:
    def test_bell_marginal_is_maximally_mixed(self):
        reduced = partial_trace(DensityMatrix(BELL_PLUS, (2, 2)), keep=(1,))
        assert reduced.dims == (2,)
        np.testing.assert_allclose(reduced.matrix, np.eye(2) / 2, atol=1e-15)

    def test_trace_preserved(self):
        rng = np.random.default_rng(5)
        rho = random_hermitian(rng, 12)
        for keep in ((0,), (1,), (0, 1), (1, 2), (0, 2)):
            reduced = partial_trace(DensityMatrix(rho, (2, 2, 3)), keep=keep).matrix
            assert abs(np.trace(reduced) - np.trace(rho)) < 1e-12

    def test_product_state_factor_recovery(self):
        rng = np.random.default_rng(6)
        a = random_hermitian(rng, 2)
        b = random_hermitian(rng, 3)
        big = tensor_product(a, b)
        np.testing.assert_allclose(
            partial_trace(DensityMatrix(big, (2, 3)), keep=(0,)).matrix,
            a * np.trace(b),
            atol=1e-10,
        )

    def test_dims_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            DensityMatrix(np.eye(6), (2, 2))
        rho = DensityMatrix(np.eye(4), (2, 2))
        with pytest.raises(ShapeError):
            partial_trace(rho, keep=())
        with pytest.raises(ShapeError):
            partial_trace(rho, keep=(2,))
        with pytest.raises(ShapeError):
            partial_trace(rho, keep=(-1,))
        with pytest.raises(ShapeError):
            partial_trace(rho, keep=(1, 1))

    @pytest.mark.parametrize("dims", [(2, 2, 2), (2, 3, 2), (3, 2, 3)])
    def test_keep_sets_the_output_order(self, dims):
        def reorder(m, sub_dims, perm):
            """Factor k of the result is factor perm[k] of m, by reshape and transpose."""
            batch, k = m.shape[:-2], len(sub_dims)
            tensor = m.reshape(batch + tuple(sub_dims) * 2)
            b = len(batch)
            axes = (*range(b), *(b + i for i in perm), *(b + k + i for i in perm))
            total = math.prod(sub_dims)
            return np.ascontiguousarray(tensor.transpose(axes).reshape(batch + (total, total)))

        total = math.prod(dims)
        rng = np.random.default_rng(total + 1)
        stack = np.array([random_hermitian(rng, total) for _ in range(4)])
        for m in (stack[0], stack):
            rho = DensityMatrix(m, dims)
            for keep in itertools.chain(*(itertools.permutations(range(3), r) for r in (2, 3))):
                kept = sorted(keep)
                perm = [kept.index(i) for i in keep]
                sorted_trace = partial_trace(rho, kept).matrix
                expected = reorder(sorted_trace, [dims[i] for i in kept], perm)
                got = partial_trace(rho, keep)
                assert got.dims == tuple(dims[i] for i in keep)
                assert got.matrix.tobytes() == expected.tobytes()
        signed = stack.copy()
        signed[:, ::2, 1::3] = -0.0
        signed[:, 1::3, ::2] = complex(0.0, -0.0)
        for order in itertools.permutations(range(3)):
            got = permute_subsystems(DensityMatrix(signed, dims), order)
            assert got.dims == tuple(dims[i] for i in order)
            assert got.matrix.tobytes() == reorder(signed, dims, order).tobytes()


class TestPartialTranspose:
    def test_product_state_stays_psd(self):
        rng = np.random.default_rng(7)
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        b = g @ g.conj().T
        rho = tensor_product(np.diag([0.3, 0.7]).astype(complex), b / np.trace(b))
        pt = partial_transpose(DensityMatrix(rho, (2, 3)))
        assert np.linalg.eigvalsh(pt)[0] > -1e-12

    def test_bell_min_eigenvalue(self):
        pt = partial_transpose(DensityMatrix(BELL_PLUS, (2, 2)))
        assert abs(np.linalg.eigvalsh(pt)[0] + 0.5) < 1e-12

    def test_involution_and_symmetry(self):
        rng = np.random.default_rng(8)
        rho = random_hermitian(rng, 6)
        pt = partial_transpose(DensityMatrix(rho, (2, 3)))
        assert np.array_equal(partial_transpose(DensityMatrix(pt, (2, 3))), rho)
        assert np.array_equal(pt, pt.conj().T)
        assert np.trace(pt) == np.trace(rho)

    def test_bad_dims(self):
        with pytest.raises(ShapeError):
            DensityMatrix(np.eye(6), (2, 2))
        with pytest.raises(ShapeError):
            partial_transpose(DensityMatrix(np.eye(8), (2, 2, 2)))
        with pytest.raises(ShapeError):
            partial_transpose(DensityMatrix(np.eye(6), (6,)))
        with pytest.raises(ShapeError):
            partial_transpose(DensityMatrix(np.stack([np.eye(6)] * 2), (2, 3)))


class TestHermitianEigenvalues:
    def test_half_projector(self):
        result = hermitian_eigenvalues(np.diag([0.5, 0.0]))
        np.testing.assert_allclose(result.eigenvalues, [0.0, 0.5], atol=1e-15)
        assert result.converged

    def test_identity(self):
        result = hermitian_eigenvalues(np.eye(5))
        np.testing.assert_allclose(result.eigenvalues, np.ones(5), atol=1e-15)

    def test_rank_one_half_matrix(self):
        result = hermitian_eigenvalues(KET_PLUS_STATE)
        np.testing.assert_allclose(result.eigenvalues, [0.0, 1.0], atol=1e-15)

    @pytest.mark.parametrize("solve", [hermitian_eigenvalues, lambda_min], ids=["jacobi", "lapack"])
    def test_rejects_non_hermitian(self, solve):
        with pytest.raises(NotHermitianError, match=r"max \|m - m\^H\| entry is 1\.000e\+00"):
            solve(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("solve", [hermitian_eigenvalues, lambda_min], ids=["jacobi", "lapack"])
    def test_rejects_non_square(self, solve):
        with pytest.raises(ShapeError, match="square"):
            solve(np.zeros((2, 3)))

    def test_matches_closed_form_on_1000_random(self):
        rng = np.random.default_rng(101)
        for _ in range(1000):
            m = random_hermitian(rng, 2)
            low, high = closed_form_2x2(m)
            got = hermitian_eigenvalues(m).eigenvalues
            assert abs(got[0] - low) < 1e-10
            assert abs(got[1] - high) < 1e-10

    def test_sum_is_trace_product_is_determinant(self):
        rng = np.random.default_rng(13)
        for n in (2, 3):
            for _ in range(50):
                m = random_hermitian(rng, n)
                vals = hermitian_eigenvalues(m).eigenvalues
                assert abs(vals.sum() - np.trace(m).real) < 1e-10
                assert abs(np.prod(vals) - np.linalg.det(m).real) < 1e-8

    def test_ascending_order_and_read_only(self):
        rng = np.random.default_rng(17)
        result = hermitian_eigenvalues(random_hermitian(rng, 8))
        assert np.all(np.diff(result.eigenvalues) >= 0)
        assert not result.eigenvalues.flags.writeable
        assert 0 < result.sweeps_used <= JACOBI_MAX_SWEEPS

    def test_tiny_offdiagonal_against_split_diagonal(self):
        # A rotation angle computed naively from this matrix overflows in
        # the cotangent square; the solver must take the asymptotic branch.
        m = np.array([[0.0, 1e-200], [1e-200, 1.0]], dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = hermitian_eigenvalues(m)
        np.testing.assert_allclose(result.eigenvalues, [0.0, 1.0], atol=1e-12)

    def test_agrees_with_numpy_on_larger_matrices(self):
        rng = np.random.default_rng(23)
        for n in (4, 8, 16):
            m = random_hermitian(rng, n)
            got = hermitian_eigenvalues(m).eigenvalues
            np.testing.assert_allclose(got, np.linalg.eigvalsh(m), atol=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(
        entries=st.lists(
            st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
            min_size=9,
            max_size=9,
        )
    )
    def test_hypothesis_3x3_matches_numpy(self, entries):
        raw = np.array(entries[:9], dtype=float)
        m = raw.reshape(3, 3) + 1j * np.diag([0.0, 0.0, 0.0])
        m = (m + m.conj().T) / 2.0
        got = hermitian_eigenvalues(m).eigenvalues
        np.testing.assert_allclose(got, np.linalg.eigvalsh(m), atol=1e-9)

    def test_diagonal_block_stops_after_an_idle_sweep(self):
        # The R block of xstate24 at a = 0.013 is diagonal, but the off-diagonal
        # mass, a difference of two sums, rounds to more than the threshold.
        block = block_decompose(build_family("xstate24", a=0.013)).r
        result = hermitian_eigenvalues(block)
        assert result.converged
        assert result.sweeps_used <= 1
        assert np.array_equal(result.eigenvalues, np.sort(np.diag(block).real))

    def test_bits_match_the_recorded_digest(self):
        # Recorded from the solver when it took one matrix at a time. An array
        # abs of the pivot, for one, changes about a fifth of the 2x2 results.
        digest = hashlib.sha256()
        for n in range(1, 9):
            rng = np.random.default_rng(900 + n)
            for _ in range(25):
                result = hermitian_eigenvalues(random_hermitian(rng, n))
                digest.update(result.eigenvalues.tobytes() + bytes([result.converged, result.sweeps_used]))
        assert digest.hexdigest() == "c3f1a57fce5ffeefbefc3f8d98e98b4b553c54330b1a3af555f1660da3042078"

    def test_lambda_min_shortcut(self):
        assert lambda_min(np.diag([0.4, -0.1, 0.7])) == pytest.approx(-0.1, abs=1e-14)


class TestLambdaMin:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_agrees_with_jacobi(self, n):
        rng = np.random.default_rng(300 + n)
        for _ in range(20):
            m = random_hermitian(rng, n)
            jacobi = hermitian_eigenvalues(m).eigenvalues[0]
            assert abs(lambda_min(m) - jacobi) < 1e-12

    def test_leaves_argument_unchanged(self):
        m = random_hermitian(np.random.default_rng(29), 4)
        m[0, 1] += 1e-12  # Hermitian within tolerance, but not exactly
        before = m.copy()
        lambda_min(m)
        assert np.array_equal(m, before)

    @pytest.mark.parametrize("shape", [(0, 0), (3, 0, 0)])
    def test_empty_matrix_is_a_shape_error(self, shape):
        with pytest.raises(ShapeError, match="0x0"):
            lambda_min(np.zeros(shape))


def same_bits(a, b) -> bool:
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


class TestStacks:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
    def test_kernels_give_each_matrix_its_own_bits(self, n):
        rng = np.random.default_rng(700 + n)
        stack = np.array([random_hermitian(rng, n) for _ in range(30)])
        other = np.array([random_hermitian(rng, n) for _ in range(30)])
        assert same_bits(lambda_min(stack), [lambda_min(m) for m in stack])
        assert same_bits(frobenius_norm_sq(stack), [frobenius_norm_sq(m) for m in stack])
        assert same_bits(
            trace_product(stack, other), [trace_product(a, b) for a, b in zip(stack, other)]
        )

    def test_norm_keeps_the_bits_of_vdot(self):
        rng = np.random.default_rng(43)
        for n in (1, 2, 3, 4, 8, 16):
            for _ in range(20):
                m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                assert frobenius_norm_sq(m) == float(np.vdot(m, m).real)

    def test_a_single_matrix_gives_python_scalars(self):
        m = random_hermitian(np.random.default_rng(47), 3)
        assert type(lambda_min(m)) is float
        assert type(frobenius_norm_sq(m)) is float
        assert type(trace_product(m, m)) is complex

    def test_first_non_hermitian_matrix_is_reported(self):
        stack = np.zeros((4, 2, 2), dtype=complex)
        stack[1, 0, 1] = 0.5
        stack[3, 0, 1] = 2.0
        with pytest.raises(NotHermitianError, match=r"entry is 5\.000e-01"):
            lambda_min(stack)

    def test_stacks_have_their_own_shape_check(self):
        assert as_matrices(np.zeros((3, 2, 2))).shape == (3, 2, 2)
        with pytest.raises(ShapeError, match="stack"):
            as_matrices(np.zeros((2, 2, 2, 2)))
        with pytest.raises(ShapeError, match="NaN"):
            as_matrices(np.full((2, 2, 2), np.nan))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_stacked_jacobi_gives_each_matrix_its_own_bits(self, n):
        rng = np.random.default_rng(800 + n)
        tiny = np.diag(np.arange(n, dtype=complex))
        if n > 1:
            tiny[0, 1] = tiny[1, 0] = 1e-200  # below the rotation floor: skipped
        vectors = rng.standard_normal((4, 2, n)) + 1j * rng.standard_normal((4, 2, n))
        low_rank = [sum(np.outer(v, v.conj()) for v in pair[:k]) for pair in vectors for k in (1, 2)]
        full_rank = [random_hermitian(rng, n) for _ in range(6)]
        stack = np.array(low_rank + full_rank + [np.diag(rng.standard_normal(n)), np.eye(n), tiny])
        result = hermitian_eigenvalues(stack)
        alone = [hermitian_eigenvalues(m) for m in stack]
        assert result.eigenvalues.shape == (len(stack), n)
        assert same_bits(result.eigenvalues, [r.eigenvalues for r in alone])
        assert result.converged is all(r.converged for r in alone)
        assert result.sweeps_used == max(r.sweeps_used for r in alone)
        assert type(result.sweeps_used) is int

    def test_capped_stack_reports_unconverged(self):
        rng = np.random.default_rng(61)
        stack = np.array([random_hermitian(rng, 4) for _ in range(5)] + [np.eye(4)])
        result = hermitian_eigenvalues(stack, max_sweeps=1)
        alone = [hermitian_eigenvalues(m, max_sweeps=1) for m in stack]
        assert same_bits(result.eigenvalues, [r.eigenvalues for r in alone])
        assert [r.converged for r in alone] == [False] * 5 + [True]
        assert result.converged is False
        assert result.sweeps_used == 1

    def test_partial_trace_of_a_stack_is_per_matrix(self):
        for dims in ((2, 2, 2), (2, 3, 2), (3, 2, 3)):
            total = math.prod(dims)
            rng = np.random.default_rng(total)
            stack = np.array([random_hermitian(rng, total) for _ in range(4)])
            for keep in ((0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)):
                got = partial_trace(DensityMatrix(stack, dims), keep).matrix
                alone = [partial_trace(DensityMatrix(m, dims), keep).matrix for m in stack]
                assert same_bits(got, alone)


class TestNorms:
    def test_half_projector_norm(self):
        assert frobenius_norm_sq(np.diag([0.5, 0.0])) == pytest.approx(0.25, abs=1e-15)

    def test_zero_matrix(self):
        assert frobenius_norm_sq(np.zeros((3, 3))) == 0.0

    def test_matches_trace_form(self):
        rng = np.random.default_rng(19)
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        direct = frobenius_norm_sq(m)
        assert abs(direct - np.trace(m.conj().T @ m).real) < 1e-12


class TestTraceProduct:
    def test_identity_pair(self):
        assert trace_product(np.eye(2), np.eye(2)) == 2.0

    def test_disjoint_diagonals(self):
        assert trace_product(np.diag([1.0, 0, 0]), np.diag([0, 0, 2.0])) == 0.0

    def test_balanced_diagonal_blocks(self):
        block = np.diag([0.25, 0.25]).astype(complex)
        assert trace_product(block, block).real == pytest.approx(0.125, abs=1e-15)

    def test_matches_full_product(self):
        rng = np.random.default_rng(29)
        a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        b = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        assert abs(trace_product(a, b) - np.trace(a @ b)) < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            trace_product(np.eye(2), np.eye(3))


class TestAsMatrix:
    def test_accepts_nested_lists(self):
        m = as_matrix([[1, 0], [0, 1]])
        assert m.dtype == complex
        assert np.array_equal(m, np.eye(2))

    def test_rejects_non_matrix_shapes(self):
        with pytest.raises(ShapeError):
            as_matrix(np.zeros(4))
        with pytest.raises(ShapeError):
            as_matrix(np.zeros((2, 2, 2)))

    def test_rejects_non_finite(self):
        with pytest.raises(ShapeError):
            as_matrix(np.array([[np.inf, 0], [0, 1]]))
        with pytest.raises(ShapeError):
            as_matrix(np.array([[np.nan, 0], [0, 1]]))
