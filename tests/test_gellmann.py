"""Operator basis tests.

The algebraic contracts here are exact, not approximate: entries are 0,
+-1, +-i, or small rationals, so Hermiticity, the pairwise trace table,
and the all-ones decomposition are asserted with plain equality. The one
deliberate caveat is tracelessness, which is exact under index-order
summation of the diagonal (how the builder accumulates it), not under
every floating-point regrouping.
"""

import numpy as np
import pytest

from cohdet.errors import BadDimensionError
from cohdet.gellmann import DIAGONAL_COEFFICIENTS, MAX_BASIS_DIMENSION, build_basis

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def symmetric_sum(dim: int) -> np.ndarray:
    """Sum of the symmetric family: all-ones matrix minus identity.

    At d = 2 this is the Pauli X matrix. For Hermitian rho,
    Tr(rho @ symmetric_sum(d)) adds up twice the real parts of the upper
    off-diagonal entries.
    """
    if dim < 2:
        raise BadDimensionError(f"symmetric sum needs dimension >= 2, got {dim}")
    return np.ones((dim, dim), dtype=np.complex128) - np.eye(dim, dtype=np.complex128)


def sequential_diagonal_sum(m):
    total = 0.0
    for entry in m.diagonal().real.tolist():
        total += entry
    return total


def all_matrices(basis):
    return list(basis.symmetric) + list(basis.antisymmetric) + list(basis.diagonal)


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
class TestCounts:
    def test_family_sizes(self, dim):
        basis = build_basis(dim)
        off_diag = dim * (dim - 1) // 2
        assert len(basis.symmetric) == off_diag
        assert len(basis.antisymmetric) == off_diag
        assert len(basis.diagonal) == dim - 1
        assert len(all_matrices(basis)) == dim * dim - 1

    def test_pair_index_covers_upper_triangle(self, dim):
        basis = build_basis(dim)
        expected = {(j, k) for j in range(1, dim) for k in range(j + 1, dim + 1)}
        assert set(basis.pair_index) == expected


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("coefficient", DIAGONAL_COEFFICIENTS)
class TestExactAlgebra:
    def test_hermitian_exactly(self, dim, coefficient):
        for m in all_matrices(build_basis(dim, diagonal_coefficient=coefficient)):
            assert np.array_equal(m, m.conj().T)

    def test_traceless_under_index_order_summation(self, dim, coefficient):
        for m in all_matrices(build_basis(dim, diagonal_coefficient=coefficient)):
            assert sequential_diagonal_sum(m) == 0.0

    def test_off_diagonal_families_orthogonal(self, dim, coefficient):
        basis = build_basis(dim, diagonal_coefficient=coefficient)
        sym = list(basis.symmetric)
        anti = list(basis.antisymmetric)
        for family in (sym, anti):
            for i, a in enumerate(family):
                for j, b in enumerate(family):
                    expected = 2.0 if i == j else 0.0
                    assert np.trace(a @ b).real == expected
        for a in sym:
            for b in anti:
                assert np.trace(a @ b) == 0.0


class TestQubitCase:
    def test_pauli_matrices_recovered(self):
        basis = build_basis(2)
        assert np.array_equal(basis.symmetric_at(1, 2), SIGMA_X)
        assert np.array_equal(basis.antisymmetric_at(1, 2), SIGMA_Y)
        assert np.array_equal(basis.diagonal_at(1), SIGMA_Z)

    def test_symmetric_sum_is_sigma_x(self):
        assert np.array_equal(symmetric_sum(2), SIGMA_X)


class TestPlacement:
    def test_symmetric_entry_positions(self):
        m = build_basis(3).symmetric_at(1, 3)
        expected = np.zeros((3, 3), dtype=complex)
        expected[0, 2] = expected[2, 0] = 1.0
        assert np.array_equal(m, expected)

    def test_antisymmetric_entry_positions(self):
        m = build_basis(4).antisymmetric_at(2, 4)
        expected = np.zeros((4, 4), dtype=complex)
        expected[1, 3] = -1j
        expected[3, 1] = 1j
        assert np.array_equal(m, expected)

    def test_lookup_matches_sequence_order(self):
        basis = build_basis(4)
        for (j, k), pos in basis.pair_index.items():
            assert basis.symmetric_at(j, k) is basis.symmetric[pos]
            assert basis.antisymmetric_at(j, k) is basis.antisymmetric[pos]


class TestDiagonalNormalization:
    def test_plain_coefficient_self_trace(self):
        # With the plain rational coefficient 2/(l(l+1)) the self-trace is
        # 4/(l(l+1)), so only the first diagonal matrix is normalized to 2.
        basis = build_basis(5, diagonal_coefficient="rational")
        for l, m in enumerate(basis.diagonal, start=1):
            self_trace = np.trace(m @ m).real
            assert self_trace == pytest.approx(4.0 / (l * (l + 1)), abs=1e-13)
        assert np.trace(basis.diagonal[0] @ basis.diagonal[0]).real == 2.0

    def test_orthonormal_coefficient_self_trace(self):
        basis = build_basis(5, diagonal_coefficient="orthonormal")
        for m in basis.diagonal:
            assert np.trace(m @ m).real == pytest.approx(2.0, abs=1e-13)

    def test_mode_recorded_on_basis(self):
        assert build_basis(3).diagonal_coefficient == "rational"
        mode = build_basis(3, diagonal_coefficient="orthonormal").diagonal_coefficient
        assert mode == "orthonormal"

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            build_basis(3, diagonal_coefficient="unit")


class TestSymmetricSum:
    @pytest.mark.parametrize("dim", [2, 3, 4, 7])
    def test_equals_all_ones_minus_identity(self, dim):
        expected = np.ones((dim, dim), dtype=complex) - np.eye(dim)
        assert np.array_equal(symmetric_sum(dim), expected)

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_matches_explicit_family_sum(self, dim):
        basis = build_basis(dim)
        total = np.zeros((dim, dim), dtype=complex)
        for m in basis.symmetric:
            total = total + m
        assert np.array_equal(symmetric_sum(dim), total)

    def test_trace_against_state_doubles_real_parts(self):
        rng = np.random.default_rng(31)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rho = g @ g.conj().T
        rho = rho / np.trace(rho)
        direct = np.trace(rho @ symmetric_sum(4)).real
        doubled = 2.0 * sum(
            rho[j, k].real for j in range(4) for k in range(j + 1, 4)
        )
        assert direct == pytest.approx(doubled, abs=1e-12)


def test_dimension_below_two_rejected():
    with pytest.raises(BadDimensionError):
        build_basis(1)
    with pytest.raises(BadDimensionError):
        symmetric_sum(1)


def test_dimension_above_the_cap_rejected():
    assert len(build_basis(MAX_BASIS_DIMENSION).diagonal) == MAX_BASIS_DIMENSION - 1
    with pytest.raises(BadDimensionError, match="2..32"):
        build_basis(MAX_BASIS_DIMENSION + 1)
