"""Each argument check of the library raises its error class with its
message, and the numeric guards of the root certifier hold on the inputs
that reach them.

A check that only a caller's mistake reaches runs in no command, script or
report; these tests are what runs it.
"""

import re

import pytest

from dyndeg import core, estimators, spectral
from dyndeg.abelian import abelian_variety, exterior_pullback
from dyndeg.cli import parse_config
from dyndeg.degrees import _root_of_abs, delta_table
from dyndeg.errors import FloatOverflow, SchemaError, ShapeMismatch, UnitViolation
from dyndeg.lattice import surface_lattice
from dyndeg.linalg import as_matrix
from dyndeg.models import EmbeddedModel, exterior_algebra
from dyndeg.projective import multiprojective, pn_power_map, projective_space


def raises(error, message):
    return pytest.raises(error, match=f"^{re.escape(message)}$")


class TestAbelian:
    def test_genus_below_one(self):
        with raises(ShapeMismatch, "genus must be >= 1"):
            exterior_algebra(0)

    def test_row_count(self):
        with raises(ShapeMismatch, "matrix has 3 rows, expected 2"):
            exterior_pullback(exterior_algebra(1), [[1, 0], [0, 1], [1, 1]])

    def test_matrix_shape(self):
        with raises(ShapeMismatch, "endomorphism matrix must be 2x2"):
            abelian_variety(1, [[1, 0, 0], [0, 1, 0]])

    @pytest.mark.parametrize("omega", [{(1, 0): 1}, {(0, 2): 1}, {(-1, 1): 1}])
    def test_omega_indices(self, omega):
        (i, j), = omega
        with raises(ShapeMismatch, f"omega indices ({i}, {j}) out of range"):
            abelian_variety(1, [[1, 0], [0, 1]], omega=omega)


@pytest.mark.parametrize("text", ["[]", "1", '"model"', "null"])
def test_a_config_that_is_not_an_object(text):
    with pytest.raises(SchemaError) as got:
        parse_config(text)
    assert got.value.violations == [("", "top-level value must be an object")]


class TestCore:
    algebra = projective_space(1).algebra

    def test_degree_of_an_inhomogeneous_element(self):
        a = self.algebra.element({(0, 0): 1, (2, 0): 1})
        with raises(ShapeMismatch, "element is not homogeneous"):
            a.degree()

    @pytest.mark.parametrize("degree", [-1, 3])
    def test_homogeneous_degree(self, degree):
        with raises(ShapeMismatch, f"no graded piece of degree {degree}"):
            self.algebra.homogeneous(degree, [1])

    def test_homogeneous_length(self):
        with raises(ShapeMismatch, "degree 2 has dimension 1, got 2 coordinates"):
            self.algebra.homogeneous(2, [1, 2])

    def test_negative_power(self):
        with raises(ShapeMismatch, "negative powers are not defined"):
            self.algebra.power(self.algebra.one(), -1)

    @pytest.mark.parametrize("args, message", [
        ((-1, [], {}, []), "top_degree must be nonnegative"),
        ((2, [1, -1, 1], {}, [1]), "graded piece dimensions must be nonnegative"),
        ((0, [1], {}, [1], (1, 0)), "unit coordinates must have length dims[0] = 1"),
        ((0, [1], {}, [1], ()), "unit coordinates must have length dims[0] = 1"),
    ])
    def test_build_algebra_shapes(self, args, message):
        top, dims, constants, integrate, *unit = args
        with raises(ShapeMismatch, message):
            core.build_algebra(top, dims, core.COMMUTATIVE, constants,
                               integrate, *unit)

    def test_build_algebra_zero_unit(self):
        with raises(UnitViolation, "unit has zero coordinates"):
            core.build_algebra(0, [1], core.COMMUTATIVE, {}, [1], unit=(0,))


class TestDegrees:
    def test_delta_table_needs_one_iterate(self):
        model = projective_space(1)
        with raises(ShapeMismatch, "m_max must be >= 1"):
            delta_table(model, pn_power_map(model, 2), 0)

    def test_root_of_a_float(self):
        # a float goes through float logs, an exact rational through its
        # numerator and denominator
        assert _root_of_abs(-8.0, 3) == pytest.approx(2.0)
        assert _root_of_abs(0.25, 2) == pytest.approx(0.5)


class TestEstimators:
    def test_negative_doublings(self):
        with raises(ShapeMismatch, "doublings must be >= 0"):
            estimators.gelfand_sequence([[1]], -1)

    def test_gelfand_needs_a_square_matrix(self):
        with raises(ShapeMismatch, "gelfand_sequence needs a square matrix"):
            estimators.gelfand_sequence([[1, 2]], 1)

    def test_a_non_finite_norm(self, monkeypatch):
        # entries are scaled near 2^0 and rescaled after each product, so no
        # matrix that fits in memory overflows; a product stubbed to overflow
        # shows what the guard reports
        monkeypatch.setattr(estimators, "mat_mul",
                            lambda a, b: [[float("inf")] * len(a)] * len(a))
        with raises(FloatOverflow, "non-finite float entries at positions "
                                   "[(1, 'norm')]"):
            estimators.gelfand_sequence([[2]], 3)

    def test_trace_needs_one_iterate(self):
        with raises(ShapeMismatch, "m_max must be >= 1"):
            estimators.trace_sequence([[1]], 0)

    def test_trace_needs_a_square_matrix(self):
        with raises(ShapeMismatch, "trace_sequence needs a square matrix"):
            estimators.trace_sequence([[1, 2]], 3)

    def test_no_sequences(self):
        with raises(ShapeMismatch, "need at least one sequence"):
            estimators.combined_limsup_bound([], [])

    def test_one_weight_per_sequence(self):
        with raises(ShapeMismatch, "one weight per sequence"):
            estimators.combined_limsup_bound([[1, 2], [3, 4]], [1])

    def test_sequences_of_equal_length(self):
        with raises(ShapeMismatch, "sequences must have equal length"):
            estimators.combined_limsup_bound([[1, 2], [3]], [1, 1])


class TestLattice:
    @pytest.mark.parametrize("gram", [[], [[1, 0]]])
    def test_gram_shape(self, gram):
        with raises(ShapeMismatch, "gram matrix must be square and nonempty"):
            surface_lattice(gram, [[1]], [1])

    @pytest.mark.parametrize("isometry", [[[1]], [[1, 0, 0], [0, 1, 0]]])
    def test_isometry_shape(self, isometry):
        with raises(ShapeMismatch, "isometry must be 2x2"):
            surface_lattice([[0, 1], [1, 0]], isometry, [1, 1])

    def test_ample_length(self):
        with raises(ShapeMismatch, "ample vector must have length 2"):
            surface_lattice([[0, 1], [1, 0]], [[1, 0], [0, 1]], [1])


def test_ragged_matrix_rows():
    with raises(ShapeMismatch, "ragged matrix rows"):
        as_matrix([[1, 2], [3]])


def test_an_ample_class_not_of_degree_two():
    algebra = projective_space(2).algebra
    for h in (algebra.one(), algebra.basis_element(4, 0), algebra.element({})):
        with raises(ShapeMismatch, "h must be homogeneous of degree 2 and nonzero"):
            EmbeddedModel(algebra, h, ambient_dim=2).validate()


class TestProjective:
    def test_projective_space_dimension(self):
        with raises(ShapeMismatch, "projective space needs n >= 1"):
            projective_space(0)

    def test_map_degree(self):
        with raises(ShapeMismatch, "map degree must be >= 0"):
            pn_power_map(projective_space(1), -1)

    @pytest.mark.parametrize("ns", [[], [1, 0]])
    def test_factor_dimensions(self, ns):
        with raises(ShapeMismatch, "each factor needs n_i >= 1"):
            multiprojective(ns)


class TestRootGuards:
    # p = x^2 + 1 has p'(0) = 0: a centre there gets no Newton step and no
    # inclusion disk
    def test_certify_without_a_derivative(self):
        e = 8
        assert spectral._certify([1, 0, 1], [(0, 0), (0, 1 << e)], e) is None

    def test_polish_skips_a_centre_without_a_derivative(self):
        e = 8
        roots = spectral._polish([1, 0, 1], [(0, 0), (3, 1 << e)], e, 1)
        assert roots[0] == (0, 0) and roots[1] != (3, 1 << e)

    def test_polish_skips_a_zero_aberth_denominator(self):
        # p = x^2 - 4x + 1 on the integer grid: at z = 1, N = p/p' = 1 and
        # S = 1/(1 - 0), so 1 - N S = 0 exactly; at z = 0 the floored N = -1
        # and S = -1 do the same, so neither centre moves
        roots = spectral._polish([1, -4, 1], [(1, 0), (0, 0)], 0, 1)
        assert roots == [(1, 0), (0, 0)]
