import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyndeg.core import (
    COMMUTATIVE,
    SUPER_COMMUTATIVE,
    build_algebra,
)
from dyndeg.errors import (
    AssociativityViolation,
    ShapeMismatch,
    SignRuleViolation,
    UnitViolation,
)
from dyndeg.models import exterior_algebra, multiprojective, projective_space

small_fractions = st.fractions(
    min_value=-4, max_value=4, max_denominator=3
)


def quotient_ring(n):
    """Z[x]/(x^{n+1}) laid out cohomologically, built from raw tables."""
    dims = [1 if i % 2 == 0 else 0 for i in range(2 * n + 1)]
    products = {
        ((2 * a, 0), (2 * b, 0)): {0: 1}
        for a in range(n + 1)
        for b in range(n + 1)
        if 0 < a + b <= n
    }
    return build_algebra(2 * n, dims, COMMUTATIVE, products, integrate=(1,))


class TestBuildAlgebra:
    def test_p2_quotient_ring_is_valid(self):
        alg = quotient_ring(2)
        assert alg.dims == (1, 0, 1, 0, 1)
        x = alg.basis_element(2, 0)
        assert alg.mul(x, x) == alg.basis_element(4, 0)

    def test_exterior_rank_one_sign_rule(self):
        # two degree-1 generators with e1 e2 = -e2 e1
        products = {
            ((1, 0), (1, 1)): {0: 1},
            ((1, 1), (1, 0)): {0: -1},
            ((1, 0), (1, 0)): {},
            ((1, 1), (1, 1)): {},
        }
        alg = build_algebra(2, [1, 2, 1], SUPER_COMMUTATIVE, products, (1,))
        e1, e2 = alg.basis_element(1, 0), alg.basis_element(1, 1)
        assert alg.mul(e1, e2) == -alg.mul(e2, e1)

    def test_associativity_violation_names_triple(self):
        # e1^2 = e2, e2^2 = t, e1*e2 = 0: then (e1 e1) e2 = t but e1 (e1 e2) = 0
        products = {
            ((1, 0), (1, 0)): {0: 1},
            ((2, 0), (2, 0)): {0: 1},
        }
        with pytest.raises(AssociativityViolation) as exc:
            build_algebra(4, [1, 1, 1, 0, 1], COMMUTATIVE, products, (1,))
        assert len(exc.value.triple) == 3

    def test_sign_rule_violation_names_pair(self):
        products = {
            ((1, 0), (1, 1)): {0: 1},
            ((1, 1), (1, 0)): {0: -1},
        }
        with pytest.raises(SignRuleViolation) as exc:
            build_algebra(2, [1, 2, 1], COMMUTATIVE, products, (1,))
        assert len(exc.value.pair) == 2

    def test_unit_violation_from_degree_zero_override(self):
        products = {
            ((0, 0), (2, 0)): {0: 2},  # claims 1 * x = 2x
            ((2, 0), (0, 0)): {0: 2},
        }
        with pytest.raises(UnitViolation):
            build_algebra(2, [1, 0, 1], COMMUTATIVE, products, (1,))

    def test_shape_mismatches(self):
        with pytest.raises(ShapeMismatch):
            build_algebra(2, [2, 0, 1], COMMUTATIVE, {}, (1,))  # dims[0] != 1
        with pytest.raises(ShapeMismatch):
            build_algebra(2, [1, 0], COMMUTATIVE, {}, (1,))  # wrong length
        with pytest.raises(ShapeMismatch):
            build_algebra(
                2, [1, 0, 1], COMMUTATIVE, {((2, 0), (2, 0)): {0: 1}}, (1,)
            )  # product exceeds the top degree
        with pytest.raises(ShapeMismatch):
            build_algebra(2, [1, 0, 1], COMMUTATIVE, {}, (1, 1))  # integrate len


class TestMul:
    def test_p3_square(self):
        alg = quotient_ring(3)
        x = alg.basis_element(2, 0)
        assert alg.mul(x, x) == alg.basis_element(4, 0)

    def test_p2_truncation(self):
        alg = quotient_ring(2)
        x = alg.basis_element(2, 0)
        x2 = alg.mul(x, x)
        assert alg.mul(x2, x).is_zero()

    def test_koszul_sign_on_exterior_algebra(self):
        alg = exterior_algebra(1)
        e1, e2 = alg.basis_element(1, 0), alg.basis_element(1, 1)
        assert alg.mul(e1, e2) == -alg.mul(e2, e1)
        assert alg.mul(e1, e1).is_zero()

    def test_shape_mismatch_between_algebras(self):
        alg = quotient_ring(2)
        other = quotient_ring(3)
        with pytest.raises(ShapeMismatch):
            alg.mul(alg.one(), other.one())


class TestPower:
    def test_square(self):
        alg = quotient_ring(2)
        x = alg.basis_element(2, 0)
        assert alg.power(x, 2) == alg.basis_element(4, 0)

    def test_truncates_to_zero(self):
        alg = quotient_ring(2)
        assert alg.power(alg.basis_element(2, 0), 3).is_zero()

    def test_zeroth_power_is_unit(self):
        alg = quotient_ring(2)
        assert alg.power(alg.basis_element(2, 0), 0) == alg.one()

    @given(j=st.integers(0, 3), k=st.integers(0, 3), c=small_fractions)
    @settings(max_examples=25, deadline=None)
    def test_power_additivity(self, j, k, c):
        alg = quotient_ring(3)
        a = c * alg.basis_element(2, 0)
        assert alg.power(a, j + k) == alg.mul(alg.power(a, j), alg.power(a, k))


class TestPair:
    def test_p2_line_self_pairing(self):
        alg = quotient_ring(2)
        x = alg.basis_element(2, 0)
        assert alg.pair(x, x) == 1

    def test_p1xp1_pairing_matrix(self):
        # expand (h1+h2)^2 with h_i^2 = 0: the degree-2 Gram is [[0,1],[1,0]]
        model = multiprojective([1, 1])
        gram = model.algebra.gram_matrix(2)
        assert gram == ((0, 1), (1, 0))
        from dyndeg.linalg import det

        assert det(gram) != 0

    def test_below_top_degree_pairs_to_zero(self):
        alg = quotient_ring(2)
        assert alg.pair(alg.one(), alg.basis_element(2, 0)) == 0

    def test_graded_symmetry(self):
        alg = exterior_algebra(2)
        for da in range(1, 4):
            for pa in range(alg.dims[da]):
                db = alg.top_degree - da
                for pb in range(alg.dims[db]):
                    a = alg.basis_element(da, pa)
                    b = alg.basis_element(db, pb)
                    sign = -1 if (da * db) % 2 else 1
                    assert alg.pair(a, b) == sign * alg.pair(b, a)


class TestCheckPoincare:
    def test_projective_space_nondegenerate_everywhere(self):
        alg = projective_space(3).algebra
        for report in alg.poincare_report():
            assert report.nondegenerate

    def test_exterior_rank_one_gram_determinants(self):
        # degree-1 Gram is [[0,1],[-1,0]] with determinant 1
        alg = exterior_algebra(1)
        assert alg.gram_matrix(1) == ((0, 1), (-1, 0))
        reports = alg.poincare_report()
        assert all(r.nondegenerate for r in reports)
        assert reports[1].determinant == 1

    def test_nilpotent_summand_killed_by_integrate_is_flagged(self):
        # degree-2 classes u, v with u*u = point, v*anything = 0
        products = {((2, 0), (2, 0)): {0: 1}}
        alg = build_algebra(4, [1, 0, 2, 0, 1], COMMUTATIVE, products, (1,))
        reports = alg.poincare_report()
        assert not reports[2].nondegenerate
        assert reports[2].determinant == 0
        assert reports[0].nondegenerate
