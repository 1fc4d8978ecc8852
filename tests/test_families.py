"""Built-in family registry tests.

Each family is swept across its declared parameter range to confirm every
in-range build is a physical state (or, for the one deliberately
non-physical construction, that the escape hatch and the defect are both
where they should be).
"""

import numpy as np
import pytest

from cohdet.errors import ParamOutOfRangeError, UnknownFamilyError
from cohdet.families import FAMILIES, build_family, family_names, get_family
from cohdet.states import DensityMatrix, state_violations
from cohdet.tripartite import TripartiteEnsemble

EXPECTED_NAMES = (
    "bellmix",
    "flagmix",
    "puremix",
    "xstate22",
    "xstate22-slice",
    "xstate24",
)


def grid(spec_param, points=101):
    return np.linspace(spec_param.low, spec_param.high, points)


class TestRegistry:
    def test_names_sorted_and_complete(self):
        assert family_names() == EXPECTED_NAMES
        assert tuple(sorted(FAMILIES)) == EXPECTED_NAMES

    def test_unknown_family(self):
        with pytest.raises(UnknownFamilyError):
            get_family("nope")
        with pytest.raises(UnknownFamilyError):
            build_family("nope")

    def test_unknown_parameter(self):
        with pytest.raises(ParamOutOfRangeError):
            build_family("xstate22", q=0.3)

    def test_out_of_range_parameter(self):
        with pytest.raises(ParamOutOfRangeError):
            build_family("xstate22-slice", c=0.3)
        with pytest.raises(ParamOutOfRangeError):
            build_family("bellmix", p=-0.1)

    def test_specs_carry_defaults_and_kinds(self):
        assert get_family("bellmix").kind == "ensemble"
        assert get_family("xstate24").kind == "state"
        assert get_family("flagmix").parameter("p").default == 0.5
        assert get_family("xstate22").dims == (2, 2)


class TestPhysicalityGrids:
    @pytest.mark.parametrize("name", ["xstate22-slice", "xstate24"])
    def test_state_families_valid_across_range(self, name):
        spec = get_family(name)
        assert spec.physical_everywhere
        (param,) = spec.parameters
        for value in grid(param):
            state = build_family(name, **{param.name: float(value)})
            assert isinstance(state, DensityMatrix)
            assert state_violations(state.matrix, state.dims) == []

    @pytest.mark.parametrize("name", ["bellmix", "puremix"])
    def test_ensemble_families_valid_across_range(self, name):
        spec = get_family(name)
        assert spec.physical_everywhere
        (param,) = spec.parameters
        for value in grid(param, points=21):
            ens = build_family(name, **{param.name: float(value)})
            assert isinstance(ens, TripartiteEnsemble)
            mix = ens.mixture()
            assert state_violations(mix.matrix, mix.dims) == []

    def test_flagmix_is_flagged_non_physical(self):
        spec = get_family("flagmix")
        assert not spec.physical_everywhere

    @pytest.mark.parametrize("p", [0.1, 0.5, 1.0])
    def test_flagmix_mixture_is_indefinite_for_positive_weight(self, p):
        ens = build_family("flagmix", p=p)
        assert not ens.require_psd
        smallest = np.linalg.eigvalsh(ens.mixture().matrix)[0]
        # The first term's qubit factor is an indefinite matrix, and mixing
        # it in pulls an eigenvalue of the total below zero in proportion.
        assert smallest == pytest.approx(-p * (np.sqrt(5) - 1) / 2 * 0.5, abs=1e-12)

    def test_flagmix_at_zero_weight_is_physical(self):
        mix = build_family("flagmix", p=0.0).mixture()
        assert state_violations(mix.matrix, mix.dims) == []


class TestXState22:
    def test_entry_placement(self):
        state = build_family("xstate22", a=0.3, b=0.2, d=0.25, c=0.1, f=0.05)
        np.testing.assert_allclose(
            np.diagonal(state.matrix).real, [0.3, 0.2, 0.25, 0.25], atol=1e-15
        )
        assert state.matrix[1, 2] == 0.1
        assert state.matrix[0, 3] == 0.05
        assert np.count_nonzero(state.matrix) == 8

    def test_minor_violation_rejected_as_out_of_range(self):
        # c = 0.4 is inside the declared parameter box but breaks the
        # 2x2 minor b*d >= |c|^2; the builder treats the joint constraint
        # as part of the parameter domain.
        with pytest.raises(ParamOutOfRangeError) as info:
            build_family("xstate22", c=0.4)
        assert "c^2 <= b*d" in str(info.value)
        with pytest.raises(ParamOutOfRangeError):
            build_family("xstate22", f=0.4)

    def test_slice_pins_diagonal_quarters(self):
        state = build_family("xstate22-slice", c=0.0625)
        np.testing.assert_allclose(np.diagonal(state.matrix).real, [0.25] * 4)
        assert state.matrix[1, 2] == 0.0625
        assert state.matrix[0, 3] == 0.0625


class TestXState24:
    def test_diagonal_split_at_a_one(self):
        state = build_family("xstate24", a=1.0)
        diag = np.diagonal(state.matrix).real
        assert np.count_nonzero(np.isclose(diag, 1 / 7)) == 5
        assert np.count_nonzero(np.isclose(diag, 2 / 7)) == 1
        assert np.count_nonzero(diag) == 6
        assert state.dims == (2, 4)

    def test_degenerate_endpoint(self):
        state = build_family("xstate24", a=0.0)
        np.testing.assert_allclose(
            np.diagonal(state.matrix).real, [0, 0, 0, 0, 0, 0, 0, 1], atol=1e-15
        )

    def test_coupling_entries(self):
        state = build_family("xstate24", a=0.5)
        m = 0.5 / 4.0
        for pos in ((0, 7), (1, 6), (2, 5)):
            assert state.matrix[pos] == pytest.approx(m, abs=1e-15)


GRIDS = [
    ("xstate22", "c", np.linspace(-0.25, 0.25, 41)),
    ("xstate22", "a", np.linspace(0.0, 0.5, 41)),
    ("xstate22-slice", "c", np.linspace(0.0, 0.25, 41)),
    ("xstate24", "a", np.linspace(0.0, 1.0, 101)),
]


def first_point_failure(name, **grid) -> str:
    for point in zip(*grid.values()):
        try:
            build_family(name, **dict(zip(grid, point)))
        except ParamOutOfRangeError as exc:
            return str(exc)
    raise AssertionError("no point of the grid fails")


class TestStateFamilyGrids:
    @pytest.mark.parametrize("name, param, values", GRIDS)
    def test_grid_is_the_stack_of_its_points(self, name, param, values):
        stack = build_family(name, **{param: values})
        assert stack.matrix.shape == (len(values), stack.dim, stack.dim)
        for value, matrix in zip(values.tolist(), stack.matrix):
            assert matrix.tobytes() == build_family(name, **{param: value}).matrix.tobytes()

    @pytest.mark.parametrize("a", [0.0, 0.013, 0.3, 1.0])
    def test_xstate24_keeps_its_block_recipe(self, a):
        lo = a / (6.0 * a + 1.0)
        hi = (a + 1.0) / (6.0 * a + 1.0)
        coupling = np.zeros((4, 4))
        coupling[0, 3] = coupling[1, 2] = coupling[2, 1] = lo
        expected = np.block([
            [np.diag([lo, lo, lo, 0.0]), coupling],
            [coupling.T, np.diag([0.0, lo, lo, hi])],
        ]).astype(np.complex128)
        assert build_family("xstate24", a=a).matrix.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("name, grid", [
        ("xstate24", {"a": [0.5, 1.5, 2.0]}),
        ("xstate22", {"c": [0.0, 0.45, 0.3]}),
        ("xstate22", {"a": [0.2, 0.5], "f": [0.0, 0.3]}),
    ])
    def test_grid_breaking_one_condition_fails_as_its_first_failing_point(self, name, grid):
        with pytest.raises(ParamOutOfRangeError) as info:
            build_family(name, **{key: np.array(values) for key, values in grid.items()})
        assert str(info.value) == first_point_failure(name, **grid)

    def test_conditions_are_checked_in_order_over_the_whole_grid(self):
        # Point 0 breaks positivity and point 2 the diagonal sum, which is
        # checked first. The scan command finds the first failing point itself.
        with pytest.raises(ParamOutOfRangeError, match=r"a\+b\+d = 1.3 exceed 1"):
            build_family("xstate22", a=np.array([0.2, 0.3, 0.8]), c=np.array([0.3, 0.0, 0.0]))


class TestEnsembleFamilies:
    def test_bellmix_matrix_entries(self):
        mix = build_family("bellmix", p=0.5).mixture()
        assert mix.matrix[0, 0] == pytest.approx(0.25, abs=1e-15)
        assert mix.matrix[4, 7] == pytest.approx(-0.25, abs=1e-15)
        assert mix.matrix[0, 3] == pytest.approx(0.25, abs=1e-15)

    def test_bellmix_drops_zero_weight_terms(self):
        assert len(build_family("bellmix", p=1.0).terms) == 1
        assert len(build_family("bellmix", p=0.0).terms) == 1
        assert len(build_family("bellmix", p=0.5).terms) == 2

    def test_puremix_terms_are_projectors(self):
        ens = build_family("puremix", p=0.3)
        weights = [w for w, _ in ens.terms]
        assert weights == pytest.approx([0.3, 0.7])
        for _, term in ens.terms:
            m = term.matrix
            np.testing.assert_allclose(m @ m, m, atol=1e-12)

    def test_puremix_first_ket_amplitudes(self):
        ens = build_family("puremix", p=1.0)
        m = ens.terms[0][1].matrix
        np.testing.assert_allclose(
            np.diagonal(m).real,
            [0.2, 0, 0, 0, 0.2, 0, 0.2, 0.4],
            atol=1e-15,
        )

    def test_all_ensembles_single_out_the_first_qubit(self):
        for name in ("bellmix", "puremix", "flagmix"):
            ens = build_family(name)
            assert ens.singled_out == "A"
            assert ens.dims == (2, 2, 2)
