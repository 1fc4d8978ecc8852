"""Coherence measure tests.

Fixture values are exact surds recomputed by hand from the family
definitions: the 2x4 X state has six equal couplings of a/(6a+1), the
Bell mixture keeps coherence 1 at every mixing weight, and the two-ket
mixture carries 6(1+sqrt(2))/5 regardless of its weight.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohdet import linalg
from cohdet.coherence import l1_coherence
from cohdet.families import build_family
from cohdet.linalg import tensor_product
from cohdet.states import DensityMatrix, block_decompose, random_density, validate


class TestL1Coherence:
    def test_diagonal_state_is_exactly_zero(self):
        assert l1_coherence(np.diag([0.2, 0.3, 0.5])) == 0.0

    @pytest.mark.parametrize("a", [0.1, 0.5, 1.0])
    def test_x_state_24_closed_form(self, a):
        state = build_family("xstate24", a=a)
        assert l1_coherence(state) == pytest.approx(6 * a / (6 * a + 1), abs=1e-12)

    @pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
    def test_bell_mixture_is_unit(self, p):
        mix = build_family("bellmix", p=p).mixture()
        assert l1_coherence(mix) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
    def test_two_ket_mixture_value(self, p):
        mix = build_family("puremix", p=p).mixture()
        expected = 6 * (1 + math.sqrt(2)) / 5
        assert l1_coherence(mix) == pytest.approx(expected, abs=1e-12)

    def test_accepts_state_and_raw_array(self):
        state = build_family("xstate24", a=1.0)
        assert l1_coherence(state) == l1_coherence(state.matrix)

    def test_value_is_plain_float(self):
        assert isinstance(l1_coherence(np.eye(3) / 3), float)

    def test_stack_gives_each_state_its_own_bits(self):
        states = [random_density((2, 3), rank=(i % 6) + 1, seed=2500 + i) for i in range(30)]
        stacked = l1_coherence(np.array([s.matrix for s in states]))
        assert stacked.tobytes() == np.array([l1_coherence(s) for s in states]).tobytes()

    def test_counts_both_triangle_halves(self):
        m = np.array([[0.5, 0.25j], [-0.25j, 0.5]])
        assert l1_coherence(m) == pytest.approx(0.5, abs=1e-15)

    def test_matches_block_regrouping_for_qubit_qudit(self):
        # Splitting the sum into P's off-diagonals, R's off-diagonals, and
        # twice the coupling block must reproduce the flat sum.
        for seed in range(40):
            state = random_density((2, 3), rank=(seed % 6) + 1, seed=2000 + seed)
            blocks = block_decompose(state)
            off = 0.0
            for block in (blocks.p, blocks.r):
                mags = np.abs(block).copy()
                np.fill_diagonal(mags, 0.0)
                off += mags.sum()
            regrouped = off + 2.0 * np.abs(blocks.q).sum()
            assert abs(l1_coherence(state) - regrouped) < 1e-12


def product_coherence(c_left: float, c_right: float) -> float:
    """Coherence of a tensor product from its factor coherences.

    For any two states, C(a tensor b) = c_left + c_right * (1 + c_left):
    every off-diagonal of the product is an off-diagonal of one factor
    times an arbitrary entry of the other.
    """
    if c_left < 0 or c_right < 0:
        raise ValueError(f"coherences must be nonnegative, got {c_left} and {c_right}")
    return c_left + c_right * (1.0 + c_left)


class TestProductCoherence:
    def test_incoherent_left_factor(self):
        assert product_coherence(0.0, 0.7) == 0.7

    def test_worked_value(self):
        assert product_coherence(2 / 5, 1.0) == pytest.approx(9 / 5, abs=1e-15)

    def test_symmetric_in_its_arguments(self):
        assert product_coherence(0.3, 0.8) == pytest.approx(
            product_coherence(0.8, 0.3), abs=1e-15
        )

    def test_rejects_negative_inputs(self):
        with pytest.raises(ValueError):
            product_coherence(-0.1, 0.5)
        with pytest.raises(ValueError):
            product_coherence(0.5, -0.1)

    def test_matches_tensor_product_on_200_random_pairs(self):
        rng = np.random.default_rng(57)
        for _ in range(200):
            da, db = rng.integers(2, 5, size=2)
            a = random_density(int(da), seed=int(rng.integers(2**31)))
            b = random_density(int(db), seed=int(rng.integers(2**31)))
            joint = tensor_product(a.matrix, b.matrix)
            expected = product_coherence(l1_coherence(a), l1_coherence(b))
            assert abs(l1_coherence(joint) - expected) < 1e-10


CONVEXITY_TOL = 1e-10


def convexity_holds(states, weights, tol: float = CONVEXITY_TOL) -> bool:
    """Whether C(mixture) <= weighted sum of member coherences, plus tol.

    True for every valid input, so a failure flags numerical trouble.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 1 or len(weights) != len(states):
        raise ValueError("need one weight per state")
    if np.any(weights < 0) or abs(weights.sum() - 1.0) > 1e-10:
        raise ValueError("weights must be nonnegative and sum to 1")
    matrices = [s.matrix if isinstance(s, DensityMatrix) else linalg.as_matrix(s) for s in states]
    mixed = sum(w * m for w, m in zip(weights, matrices))
    member_sum = sum(w * l1_coherence(m) for w, m in zip(weights, matrices))
    return l1_coherence(mixed) <= member_sum + tol


class TestConvexity:
    def test_single_state_is_equality(self):
        state = random_density(4, seed=3)
        assert convexity_holds([state], [1.0])

    @pytest.mark.parametrize("p", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_bell_mixture_decomposition(self, p):
        plus = build_family("bellmix", p=1.0).mixture()
        minus = build_family("bellmix", p=0.0).mixture()
        assert convexity_holds([plus, minus], [p, 1.0 - p])

    def test_1000_random_mixtures(self):
        rng = np.random.default_rng(71)
        for _ in range(1000):
            k = int(rng.integers(2, 5))
            states = [
                random_density(4, rank=int(rng.integers(1, 5)), seed=int(rng.integers(2**31)))
                for _ in range(k)
            ]
            weights = rng.dirichlet(np.ones(k))
            assert convexity_holds(states, weights)

    @settings(max_examples=80, deadline=None)
    @given(
        p=st.floats(min_value=0.0, max_value=1.0),
        seed_a=st.integers(min_value=0, max_value=2**20),
        seed_b=st.integers(min_value=0, max_value=2**20),
    )
    def test_hypothesis_two_state_mixtures(self, p, seed_a, seed_b):
        a = random_density(3, seed=seed_a)
        b = random_density(3, seed=seed_b)
        mixture = p * a.matrix + (1.0 - p) * b.matrix
        mixed_value = l1_coherence(validate(mixture, (3,)))
        bound = p * l1_coherence(a) + (1.0 - p) * l1_coherence(b)
        assert mixed_value <= bound + 1e-10
