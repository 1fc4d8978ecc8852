"""State domain-type tests: validation, blocks, permutation, generators.

Frozen matrices for the Bell-pair block decomposition come from expanding
the projector by hand; the generator determinism values are pinned by the
golden file under tests/data, recorded when the scheme was first fixed.
"""

import hashlib
import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from cohdet.errors import (
    BadPermutationError,
    BadRankError,
    NotHermitianError,
    NotPositiveError,
    NotUnitTraceError,
    QubitNotFirstError,
    ShapeError,
    ValidationError,
)
from cohdet.linalg import MAX_DIMENSION, tensor_product
from cohdet.states import (
    RNG_SCHEME,
    DensityMatrix,
    block_decompose,
    permute_subsystems,
    random_density,
    random_separable,
    state_violations,
    validate,
)

GOLDEN_DIR = Path(__file__).resolve().parent / "data"


def bell_state(sign=1.0):
    m = np.zeros((4, 4), dtype=complex)
    m[np.ix_([0, 3], [0, 3])] = [[0.5, sign * 0.5], [sign * 0.5, 0.5]]
    return validate(m, (2, 2))


def x_state(a, b, d, c, f):
    e = 1.0 - a - b - d
    m = np.zeros((4, 4), dtype=complex)
    np.fill_diagonal(m, [a, b, d, e])
    m[1, 2] = c
    m[2, 1] = np.conj(c)
    m[0, 3] = f
    m[3, 0] = np.conj(f)
    return m


def reassemble(blocks) -> np.ndarray:
    """[[p, q], [q^H, r]] from a BlockDecomposition, for one matrix or a stack."""
    return np.block([[blocks.p, blocks.q], [blocks.q.conj().swapaxes(-1, -2), blocks.r]])


class TestValidate:
    def test_maximally_mixed_two_qubits(self):
        state = validate(np.eye(4) / 4, (2, 2))
        assert state.dims == (2, 2)
        assert state.dim == 4

    def test_minor_boundary_state_accepted(self):
        # Equality in the 2x2 positivity minors (bd = |c|^2, ae = |f|^2)
        # is a valid, rank-deficient state, not a violation.
        state = validate(x_state(0.25, 0.25, 0.25, c=0.25, f=0.25), (2, 2))
        assert np.linalg.eigvalsh(state.matrix)[0] == pytest.approx(0.0, abs=1e-14)

    def test_broken_minor_rejected(self):
        with pytest.raises(NotPositiveError) as info:
            validate(x_state(0.25, 0.25, 0.25, c=0.5, f=0.0), (2, 2))
        assert "min eigenvalue" in str(info.value)

    def test_non_hermitian_rejected_with_magnitude(self):
        bad = np.array([[0.6, 0.2], [0.1, 0.4]], dtype=complex)
        with pytest.raises(NotHermitianError) as info:
            validate(bad, (2,))
        assert "1.000e-01" in str(info.value)

    def test_wrong_trace_rejected(self):
        with pytest.raises(NotUnitTraceError):
            validate(np.diag([0.5, 0.6]), (2,))

    def test_dims_product_must_match(self):
        with pytest.raises(ShapeError):
            validate(np.eye(4) / 4, (2, 3))

    def test_violation_list_collects_everything_after_hermiticity(self):
        found = state_violations(np.diag([1.2, -0.1]), (2,))
        assert len(found) == 2
        assert found[0].startswith("trace is not 1")
        assert found[1].startswith("not positive semidefinite")

    def test_hermiticity_failure_short_circuits(self):
        bad = np.array([[2.0, 1.0], [0.0, -0.5]], dtype=complex)
        found = state_violations(bad, (2,))
        assert len(found) == 1
        assert found[0].startswith("not Hermitian")

    def test_psd_check_can_be_waived(self):
        indefinite = np.diag([1.1, -0.1]).astype(complex)
        assert state_violations(indefinite, (2,), require_psd=False) == []
        state = validate(indefinite, (2,), require_psd=False)
        assert np.linalg.eigvalsh(state.matrix)[0] < -1e-10

    def test_matrix_is_defensively_frozen(self):
        source = np.eye(4, dtype=complex) / 4
        state = validate(source, (2, 2))
        assert not state.matrix.flags.writeable
        source[0, 0] = 9.0
        assert state.matrix[0, 0] == 0.25


def mixed_candidates() -> list:
    """Valid 2x2 states interleaved with every kind of rejection."""
    skewed = x_state(0.25, 0.25, 0.25, c=0.1, f=0.0)
    skewed[2, 1] = 0.3
    return [
        np.eye(4) / 4,
        bell_state().matrix,
        x_state(0.25, 0.25, 0.25, c=0.5, f=0.0),  # not PSD
        np.diag([0.5, 0.6, 0.0, 0.0]),  # trace 1.1
        skewed,  # not Hermitian
        np.diag([1.2, -0.1, 0.0, 0.0]),  # trace and PSD
        x_state(0.25, 0.25, 0.25, c=0.25, f=0.25),
    ]


class TestStackedValidate:
    @pytest.mark.parametrize("require_psd", [True, False])
    def test_violations_listed_per_state(self, require_psd):
        candidates = mixed_candidates()
        stacked = state_violations(np.array(candidates), (2, 2), require_psd=require_psd)
        assert stacked == [
            state_violations(c, (2, 2), require_psd=require_psd) for c in candidates
        ]

    def test_stack_rejected_for_its_first_failing_state(self):
        candidates = mixed_candidates()
        for start in range(len(candidates) - 1):
            rest = candidates[start:]
            first_bad = next(c for c in rest if state_violations(c, (2, 2)))
            with pytest.raises(ValidationError) as stacked:
                validate(np.array(rest), (2, 2))
            with pytest.raises(ValidationError) as single:
                validate(first_bad, (2, 2))
            assert type(stacked.value) is type(single.value)
            assert str(stacked.value) == str(single.value)
            assert stacked.value.violations == single.value.violations

    def test_valid_stack_wraps_every_state(self):
        states = [random_density((2, 3), seed=seed) for seed in range(5)]
        stack = validate(np.array([s.matrix for s in states]), (2, 3))
        assert stack.matrix.shape == (5, 6, 6)
        assert stack.dim == 6
        assert not stack.matrix.flags.writeable
        assert all(np.array_equal(stack.matrix[i], s.matrix) for i, s in enumerate(states))

    def test_stacked_blocks_are_the_blocks_of_each_state(self):
        states = [random_density((2, 3), seed=seed) for seed in range(5)]
        blocks = block_decompose(DensityMatrix(np.array([s.matrix for s in states]), (2, 3)))
        assert np.array_equal(reassemble(blocks), np.array([s.matrix for s in states]))
        for i, state in enumerate(states):
            single = block_decompose(state)
            assert np.array_equal(blocks.p[i], single.p)
            assert np.array_equal(blocks.q[i], single.q)
            assert np.array_equal(blocks.r[i], single.r)


class TestBlockDecompose:
    def test_bell_plus_blocks(self):
        blocks = block_decompose(bell_state(+1.0))
        np.testing.assert_array_equal(blocks.p, np.diag([0.5, 0.0]))
        np.testing.assert_array_equal(blocks.r, np.diag([0.0, 0.5]))
        np.testing.assert_array_equal(blocks.q, [[0.0, 0.5], [0.0, 0.0]])

    def test_bell_minus_flips_the_coupling_sign(self):
        blocks = block_decompose(bell_state(-1.0))
        np.testing.assert_array_equal(blocks.q, [[0.0, -0.5], [0.0, 0.0]])

    def test_diagonal_product_has_zero_coupling(self):
        rho = tensor_product(np.diag([0.3, 0.7]), np.diag([0.2, 0.3, 0.5]))
        blocks = block_decompose(validate(rho, (2, 3)))
        assert np.count_nonzero(blocks.q) == 0

    def test_reassemble_is_exact_identity(self):
        state = random_density((2, 4), seed=77)
        blocks = block_decompose(state)
        assert np.array_equal(reassemble(blocks), state.matrix)

    def test_qudit_first_rejected(self):
        rho = tensor_product(np.diag([0.2, 0.3, 0.5]), np.diag([0.3, 0.7]))
        with pytest.raises(QubitNotFirstError):
            block_decompose(validate(rho, (3, 2)))


class TestPermuteSubsystems:
    def test_identity_permutation_is_exact(self):
        state = random_density((2, 3), seed=5)
        out = permute_subsystems(state, (0, 1))
        assert np.array_equal(out.matrix, state.matrix)

    def test_swap_on_product_state(self):
        a = random_density(2, seed=1).matrix
        b = random_density(3, seed=2).matrix
        state = validate(tensor_product(a, b), (2, 3))
        swapped = permute_subsystems(state, (1, 0))
        assert swapped.dims == (3, 2)
        np.testing.assert_allclose(swapped.matrix, tensor_product(b, a), atol=1e-15)

    def test_permutation_round_trip(self):
        state = random_density((2, 2, 3), seed=9)
        order = (2, 0, 1)
        inverse = (1, 2, 0)
        back = permute_subsystems(permute_subsystems(state, order), inverse)
        assert np.array_equal(back.matrix, state.matrix)
        assert back.dims == state.dims

    def test_spectrum_invariant(self):
        state = random_density((2, 2, 2), seed=21)
        shuffled = permute_subsystems(state, (1, 2, 0))
        np.testing.assert_allclose(
            np.linalg.eigvalsh(shuffled.matrix),
            np.linalg.eigvalsh(state.matrix),
            atol=1e-10,
        )

    @pytest.mark.parametrize("dims", [(2, 2, 2), (2, 3, 2), (3, 2, 3)])
    def test_stack_is_permuted_per_matrix(self, dims):
        stack = DensityMatrix(np.array([random_density(dims, seed=s).matrix for s in range(3)]), dims)
        for order in itertools.permutations(range(3)):
            got = permute_subsystems(stack, order)
            alone = [permute_subsystems(DensityMatrix(m, dims), order) for m in stack.matrix]
            assert got.dims == alone[0].dims
            assert got.matrix.tobytes() == np.array([a.matrix for a in alone]).tobytes()

    def test_bad_orders_rejected(self):
        state = random_density((2, 2), seed=3)
        for order in ((0, 0), (0, 2), (0,), (0, 1, 2)):
            with pytest.raises(BadPermutationError):
                permute_subsystems(state, order)


class TestRandomDensity:
    def test_outputs_validate(self):
        for seed in range(20):
            state = random_density((2, 3), rank=(seed % 6) + 1, seed=seed)
            assert state_violations(state.matrix, state.dims) == []

    def test_rank_one_is_pure(self):
        state = random_density(5, rank=1, seed=123)
        m = state.matrix
        np.testing.assert_allclose(m @ m, m, atol=1e-10)

    def test_same_seed_same_matrix(self):
        a = random_density((2, 4), seed=42)
        b = random_density((2, 4), seed=42)
        assert np.array_equal(a.matrix, b.matrix)
        c = random_density((2, 4), seed=43)
        assert not np.array_equal(a.matrix, c.matrix)

    def test_matches_recorded_golden_matrix(self):
        doc = json.loads(
            (GOLDEN_DIR / "random_density_dim4_rank4_seed42.json").read_text()
        )
        assert doc["metadata"]["scheme"] == RNG_SCHEME
        recorded = np.array(
            [[complex(re, im) for re, im in row] for row in doc["matrix"]]
        )
        fresh = random_density(4, rank=4, seed=42)
        assert np.array_equal(fresh.matrix, recorded)

    def test_rank_bounds(self):
        for rank in (0, 7):
            with pytest.raises(BadRankError):
                random_density(6, rank=rank, seed=0)

    def test_scalar_dim_and_dims_tuple_agree(self):
        assert random_density(6, seed=4).dims == (6,)
        assert random_density((2, 3), seed=4).dims == (2, 3)
        with pytest.raises(TypeError):
            DensityMatrix(np.eye(6) / 6, 6)  # only the generators take a bare dimension
        for dims in (0, (2, 0)):
            with pytest.raises(ShapeError, match="must be positive"):
                random_density(dims, seed=4)
            with pytest.raises(ShapeError, match="must be positive"):
                DensityMatrix(np.eye(1), np.atleast_1d(dims))


class TestRandomSeparable:
    def test_outputs_validate(self):
        for seed in range(10):
            state = random_separable((2, 3), terms=(seed % 3) + 1, seed=seed)
            assert state_violations(state.matrix, state.dims) == []

    def test_stays_ppt(self):
        # Peres-Horodecki necessity: a separable state can never acquire a
        # negative partial-transpose eigenvalue.
        from cohdet.criteria import ppt_check

        for seed in range(50):
            state = random_separable((2, 2), terms=(seed % 4) + 1, seed=seed)
            assert ppt_check(state).is_ppt
            state = random_separable((2, 3), terms=(seed % 4) + 1, seed=1000 + seed)
            assert ppt_check(state).is_ppt

    def test_single_pure_term_is_product_projector(self):
        state = random_separable((2, 3), terms=1, seed=8, factor_rank=1)
        m = state.matrix
        np.testing.assert_allclose(m @ m, m, atol=1e-10)

    def test_determinism(self):
        a = random_separable((2, 4), terms=3, seed=17)
        b = random_separable((2, 4), terms=3, seed=17)
        assert np.array_equal(a.matrix, b.matrix)

    @pytest.mark.parametrize("dims, terms, seed, factor_rank, digest", [
        ((2, 2), 1, 0, None, "1c5b73bd80d1a82eb8adbaf7735cd3a59a1ee32eee0bf5200a322dfd5d441d60"),
        ((2, 3), 3, 7, None, "de634286df5ba0affa995ec45564365515043679fe2afcfd8b05b2a0ceb9fc27"),
        ((2, 2, 2), 4, 11, 1, "bf77529f184e6f96b4b966cf3d849d4b88114e348b85157eef43c4970bf98ea3"),
        ((3, 2, 2), 2, 5, None, "41a31257b2b3fc41100a398d186f36eeb1a150356b1ffcfbe9234cdb0587bfbc"),
        ((2, 4), 5, 123, 1, "4c02b6ba90a9081589227d456e62f43ea2b450c73fc40a3d65805a5ce1009bb0"),
    ])
    def test_bytes_are_pinned(self, dims, terms, seed, factor_rank, digest):
        # recorded when the factors were still multiplied by np.kron
        state = random_separable(dims, terms=terms, seed=seed, factor_rank=factor_rank)
        assert hashlib.sha256(state.matrix.tobytes()).hexdigest() == digest

    def test_parameter_validation(self):
        for terms in (0, MAX_DIMENSION + 1):
            with pytest.raises(ShapeError):
                random_separable((2, 3), terms=terms)
        with pytest.raises(BadRankError):
            random_separable((2, 3), factor_rank=3)
        with pytest.raises(BadRankError):
            random_separable((2, 3), factor_rank=0)
