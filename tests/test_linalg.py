"""Matrix kernel tests.

Closed-form 2x2 eigenvalues serve as the independent reference for the
one-rotation 2x2 eigenvalue; everything else is checked against
hand-expanded small cases or numpy's own primitives where those are not
the unit under test.
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
    MAX_DIMENSION,
    as_matrices,
    as_matrix,
    checked_hermitian_part,
    frobenius_norm_sq,
    hermitian_part,
    hermiticity_deviation,
    lambda_min,
    lambda_min_2x2,
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


def xstate24_r_corners():
    """The 2x2 principal submatrices of xstate24's R block at a = 0.013, a diagonal 4x4."""
    block = block_decompose(build_family("xstate24", a=0.013)).r
    return [block[np.ix_(k, k)] for k in itertools.combinations(range(4), 2)]


def edge_2x2():
    """2x2 Hermitian matrices on each branch of the rotation."""
    return np.array([
        np.diag([0.5, 0.0]),  # half projector: a zero pivot
        KET_PLUS_STATE,  # rank one, equal diagonal: tau = 0
        [[0.0, 1e-200], [1e-200, 1.0]],  # asymptotic angle, shift underflows
        [[0.25, 1e-160j], [-1e-160j, 0.75]],  # asymptotic angle, complex phase
        [[0.7, 1e-310], [1e-310, 0.2]],  # dead pivot
        [[0.3, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]],  # equal diagonal, complex pivot
        [[0.0, 0.0], [0.0, -0.0]],  # zero matrix: the Hermitian part clears the sign
        [[2e-9, 1e-9j], [-1e-9j, -3e-9]],  # 1e-9 scale
        *xstate24_r_corners(),
    ], dtype=complex)


def digest_2x2_stack():
    """Seeded random 2x2 stacks at three scales, then the edge rows."""
    rng = np.random.default_rng(901)
    rows = [random_hermitian(rng, 2) * scale for scale in (1.0, 1e-9, 1e6) for _ in range(300)]
    return np.concatenate([np.array(rows), edge_2x2()])


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


class TestLambdaMin2x2:
    def test_half_projector(self):
        assert lambda_min_2x2(np.diag([0.5, 0.0])) == 0.0

    def test_rank_one_half_matrix(self):
        assert lambda_min_2x2(KET_PLUS_STATE) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("solve", [lambda_min_2x2, lambda_min], ids=["rotation", "lapack"])
    def test_rejects_non_hermitian(self, solve):
        # the kernels keep only their arithmetic; their one input check is the checked part
        with pytest.raises(NotHermitianError, match=r"max \|m - m\^H\| entry is 1\.000e\+00"):
            solve(checked_hermitian_part(np.array([[0.0, 1.0], [0.0, 0.0]])))

    @pytest.mark.parametrize("solve", [lambda_min_2x2, lambda_min], ids=["rotation", "lapack"])
    def test_rejects_non_square(self, solve):
        # a non-square matrix is refused where a state is made, before any kernel sees it
        with pytest.raises(ShapeError, match="2x3 but dims"):
            solve(checked_hermitian_part(DensityMatrix(np.zeros((2, 3)), (2,)).matrix))

    def test_matches_closed_form_on_1000_random(self):
        rng = np.random.default_rng(101)
        for _ in range(1000):
            m = random_hermitian(rng, 2)
            low, high = closed_form_2x2(m)
            assert abs(lambda_min_2x2(m) - low) < 1e-10
            assert abs(-lambda_min_2x2(-m) - high) < 1e-10

    def test_sum_is_trace_product_is_determinant(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            m = random_hermitian(rng, 2)
            low, high = lambda_min_2x2(m), -lambda_min_2x2(-m)
            assert abs(low + high - np.trace(m).real) < 1e-10
            assert abs(low * high - np.linalg.det(m).real) < 1e-8

    def test_tiny_offdiagonal_against_split_diagonal(self):
        # A rotation angle computed naively from this matrix overflows in
        # the cotangent square; the rotation must take the asymptotic branch.
        m = np.array([[0.0, 1e-200], [1e-200, 1.0]], dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert lambda_min_2x2(m) == pytest.approx(0.0, abs=1e-12)

    def test_asymptotic_angle_keeps_the_shift(self):
        # tau is 5e154, so tau*tau would overflow; 0.5/tau gives the shift 1e-310
        m = np.array([[1e-300, -1e-155], [-1e-155, 1.0]], dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = lambda_min_2x2(m)
        assert got == pytest.approx(1e-300 - 1e-310, rel=1e-12)
        assert got < 1e-300

    def test_dead_pivot_returns_the_smaller_diagonal_entry(self):
        for pivot in (0.0, 1e-310, 9e-301j):
            m = np.array([[0.7, pivot], [np.conj(pivot), 0.2]], dtype=complex)
            assert lambda_min_2x2(m) == 0.2
            assert lambda_min_2x2(m[::-1, ::-1]) == 0.2

    def test_a_pivot_below_the_old_stopping_rule_still_rotates(self):
        # Its off-diagonal mass rounds to zero beside the diagonal's, so a
        # solver that stops on that mass leaves it alone; the rotation finds
        # the 2e-18 shift of the small eigenvalue.
        m = np.array([[1e-6, 1e-9], [1e-9, 0.5]], dtype=complex)
        got = lambda_min_2x2(m)
        assert got != 1e-6
        assert abs(got - np.linalg.eigvalsh(m)[0]) < 1e-21

    @settings(max_examples=60, deadline=None)
    @given(
        entries=st.lists(
            st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
            min_size=4,
            max_size=4,
        )
    )
    def test_hypothesis_matches_numpy(self, entries):
        a, d, re, im = entries
        m = np.array([[a, complex(re, im)], [complex(re, -im), d]])
        assert abs(lambda_min_2x2(m) - np.linalg.eigvalsh(m)[0]) < 1e-9

    def test_agrees_with_numpy_on_a_seeded_stack(self):
        rng = np.random.default_rng(907)
        stack = np.concatenate([[random_hermitian(rng, 2) for _ in range(500)], edge_2x2()])
        np.testing.assert_allclose(
            lambda_min_2x2(stack), np.linalg.eigvalsh(stack)[:, 0], rtol=0, atol=1e-12
        )

    def test_diagonal_block_is_its_smallest_diagonal_entry(self):
        # The R block of xstate24 at a = 0.013 is diagonal, though its
        # off-diagonal mass, a difference of two sums, does not round to zero.
        block = block_decompose(build_family("xstate24", a=0.013)).r
        assert lambda_min(block) == np.diag(block).real.min()
        for corner in xstate24_r_corners():
            assert lambda_min_2x2(corner) == np.diag(corner).real.min()

    def test_bits_match_the_recorded_digest(self):
        # Recorded from the smallest eigenvalues of the cyclic Jacobi solver
        # that this rotation replaced, on the same stack, then taken through
        # the input check that the rotation has since handed to its callers.
        values = lambda_min_2x2(checked_hermitian_part(digest_2x2_stack()))
        digest = hashlib.sha256(values.tobytes()).hexdigest()
        assert digest == "a94e72b76473931c7bda473a74df6b781e72a19e4a4c10c2e310f0e7500112c7"

    def test_an_empty_stack_gives_an_empty_array(self):
        got = lambda_min_2x2(np.zeros((0, 2, 2)))
        assert isinstance(got, np.ndarray) and got.shape == (0,)


class TestLambdaMin:
    def test_identity(self):
        assert lambda_min(np.eye(5)) == pytest.approx(1.0, abs=1e-15)

    def test_lambda_min_shortcut(self):
        assert lambda_min(np.diag([0.4, -0.1, 0.7])) == pytest.approx(-0.1, abs=1e-14)

    def test_agrees_with_the_rotation(self):
        rng = np.random.default_rng(302)
        for _ in range(20):
            m = random_hermitian(rng, 2)
            assert abs(lambda_min(m) - lambda_min_2x2(m)) < 1e-12

    @pytest.mark.parametrize("n", range(1, 9))
    def test_agrees_with_the_general_eigensolver(self, n):
        # np.linalg.eigvals (LAPACK geev) assumes no symmetry, so it is a second route
        rng = np.random.default_rng(300 + n)
        for _ in range(20):
            m = random_hermitian(rng, n)
            assert abs(lambda_min(m) - np.linalg.eigvals(m).real.min()) < 1e-12

    def test_leaves_argument_unchanged(self):
        m = random_hermitian(np.random.default_rng(29), 4)
        m[0, 1] += 1e-12  # Hermitian within tolerance, but not exactly
        before = m.copy()
        lambda_min(checked_hermitian_part(m))
        assert np.array_equal(m, before)
        m2 = m[:2, :2].copy()
        lambda_min_2x2(m2)
        assert np.array_equal(m2, before[:2, :2])

    @pytest.mark.parametrize("shape", [(0, 0), (3, 0, 0)])
    def test_empty_matrix_is_a_shape_error(self, shape):
        # no state has a 0x0 block, so no empty matrix reaches the kernel
        with pytest.raises(ShapeError, match="must be positive"):
            lambda_min(DensityMatrix(np.zeros(shape), (0,)).matrix)

    def test_entries_near_the_float_limit_do_not_overflow(self):
        # the Hermitian part is halved before it is summed, so 1e308 + 1e308 never forms
        m = np.array([[0.125, 1e308], [1e308, 0.125]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert lambda_min(m) == pytest.approx(-1e308, rel=1e-12)


def same_bits(a, b) -> bool:
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


class TestHermitianPart:
    @pytest.mark.parametrize("scale", [1.0, 1e-9, 1e150])
    def test_bits_of_the_halved_sum_and_of_the_deviation(self, scale):
        rng = np.random.default_rng(811)
        for n in (1, 2, 3, 4, 8):
            stack = scale * (rng.standard_normal((40, n, n)) + 1j * rng.standard_normal((40, n, n)))
            stack[::2] += stack[::2].conj().swapaxes(-1, -2)  # every other matrix Hermitian
            before = stack.copy()
            adjoint = stack.conj().swapaxes(-1, -2)
            for m, mh in ((stack, adjoint), (stack[1], adjoint[1])):
                assert same_bits(hermitian_part(m), (m + mh) / 2.0)
                deviation = hermiticity_deviation(m)
                assert same_bits(deviation, np.abs(m - mh).max(axis=(-2, -1), initial=0.0))
            assert same_bits(stack, before)

    def test_a_deviation_past_the_float_range_is_inf_without_a_warning(self):
        m = np.array([[0.25, 1e308], [-1e308, 0.25]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert hermiticity_deviation(m) == np.inf
            assert hermiticity_deviation(np.array([[0.0, 1.5e308 + 1.5e308j], [0.0, 0.0]])) == np.inf


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
        assert type(lambda_min_2x2(m[:2, :2])) is float
        assert type(frobenius_norm_sq(m)) is float
        assert type(trace_product(m, m)) is complex

    def test_first_non_hermitian_matrix_is_reported(self):
        stack = np.zeros((4, 2, 2), dtype=complex)
        stack[1, 0, 1] = 0.5
        stack[3, 0, 1] = 2.0
        with pytest.raises(NotHermitianError, match=r"entry is 5\.000e-01"):
            checked_hermitian_part(stack)

    def test_stacks_have_their_own_shape_check(self):
        assert as_matrices(np.zeros((3, 2, 2))).shape == (3, 2, 2)
        with pytest.raises(ShapeError, match="stack"):
            as_matrices(np.zeros((2, 2, 2, 2)))
        with pytest.raises(ShapeError, match="NaN"):
            as_matrices(np.full((2, 2, 2), np.nan))

    @pytest.mark.parametrize("scale", [1.0, 1e-9, 1e6, 1e-150])
    def test_stacked_rotation_gives_each_matrix_its_own_bits(self, scale):
        rng = np.random.default_rng(802)
        vectors = rng.standard_normal((4, 2, 2)) + 1j * rng.standard_normal((4, 2, 2))
        low_rank = [sum(np.outer(v, v.conj()) for v in pair[:k]) for pair in vectors for k in (1, 2)]
        full_rank = [random_hermitian(rng, 2) for _ in range(6)]
        stack = np.array(low_rank + full_rank + [np.diag(rng.standard_normal(2)), np.eye(2)])
        stack = np.concatenate([stack * scale, edge_2x2()])
        got = lambda_min_2x2(stack)
        assert got.shape == (len(stack),)
        assert same_bits(got, [lambda_min_2x2(m) for m in stack])

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
