from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyndeg.core import (
    COMMUTATIVE,
    SUPER_COMMUTATIVE,
    Element,
    build_algebra,
)
from dyndeg.errors import (
    AssociativityViolation,
    ShapeMismatch,
    SignRuleViolation,
    UnitViolation,
)
from dyndeg.linalg import as_fraction
from dyndeg.models import (
    exterior_algebra,
    multiprojective,
    projective_space,
    surface_lattice,
)

from support import (
    basis_product,
    builder_battery,
    fraction_det,
    gram_matrix,
    pair_by_product,
    poincare_determinants,
)

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


class TestAsFraction:
    """A malformed scalar raises ``ShapeMismatch`` naming it, never the
    ``ValueError`` or ``ZeroDivisionError`` of ``Fraction`` or ``int``."""

    @pytest.mark.parametrize("value", [
        "x", "1/0", {"num": "a", "den": "1"}, {"num": 1, "den": 0},
    ], ids=["word", "zero-denominator-string", "word-numerator",
            "zero-denominator-pair"])
    def test_malformed_scalars_raise_shape_mismatch(self, value):
        with pytest.raises(ShapeMismatch, match="not an exact rational") as exc:
            as_fraction(value)
        assert repr(value) in str(exc.value)

    def test_well_formed_scalars_still_read(self):
        assert as_fraction("3/2") == as_fraction({"num": "3", "den": 2}) == Fraction(3, 2)
        assert as_fraction(-4) == Fraction(-4)


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

    def test_one_order_of_a_pair_in_one_degree_fills_its_mirror(self):
        # h1 h2 = t given, h2 h1 filled from the sign rule; the block of
        # degree pair (2, 2) is its own mirror
        products = {((2, 0), (2, 1)): {0: 1}}
        alg = build_algebra(4, [1, 0, 2, 0, 1], COMMUTATIVE, products, (1,))
        h1, h2 = alg.basis_element(2, 0), alg.basis_element(2, 1)
        assert alg.mul(h2, h1) == alg.mul(h1, h2) == alg.basis_element(4, 0)
        assert alg.mul(h1, h1).is_zero()

    def test_generators_take_a_class_that_is_no_product(self):
        # x^2 = 0, so the top class is not a word in x and joins S itself
        alg = build_algebra(4, [1, 0, 1, 0, 1], COMMUTATIVE, {}, (1,))
        assert alg.generators == ((2, 0), (4, 0))
        assert quotient_ring(3).generators == ((2, 0),)

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

    @pytest.mark.parametrize("key, value", [
        ((2, 0, 2, 0), {0: 1}),  # a flat (i, p, j, q) key
        (((2, 0), (2, 0), (4, 0)), {0: 1}),
        (((2, 0), 2), {0: 1}),
        (((2, 0), (2, 0)), [1]),  # a dense coordinate sequence
        (((2, 0), (2, 0)), 1),
    ])
    def test_only_pair_keys_and_sparse_values_are_read(self, key, value):
        with pytest.raises(ShapeMismatch):
            build_algebra(4, [1, 0, 1, 0, 1], COMMUTATIVE, {key: value}, (1,))


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


class TestElement:
    """``Element`` is a value: exact ``==`` and ``hash`` whatever built it,
    scalars on the left only, and not a tuple."""

    def test_every_route_to_one_value_gives_one_element(self):
        alg = multiprojective([1, 1]).algebra
        a, b = alg.basis_element(2, 0), alg.basis_element(2, 1)
        half, three_halves = Fraction(1, 2), Fraction(3, 2)
        routes = [
            Element.scaled(alg.dims, 2, [{}, {}, {0: 1, 1: 3}, {}, {}]),
            Element.scaled(alg.dims, 4, [{}, {}, {0: 2, 1: 6, 2: 0}, {}, {}]),
            Element.from_coords(((0,), (), (half, three_halves), (), (0,))),
            alg.element({(2, 0): half, (2, 1): three_halves}),
            alg.homogeneous(2, [half, three_halves]),
            half * (a + 3 * b),
            (a + b) + half * b - half * a,
            -(-half * a - three_halves * b) + alg.zero(),
        ]
        assert all(x == routes[0] for x in routes)
        assert len({hash(x) for x in routes}) == 1
        assert routes[0] != half * a and routes[0] != 2 * routes[0]

    def test_scalars_multiply_from_the_left(self):
        alg = quotient_ring(2)
        e = alg.one() + Fraction(3, 2) * alg.basis_element(2, 0)
        for c in (2, Fraction(1, 2), -1):
            assert (c * e).coords == tuple(
                tuple(c * x for x in piece) for piece in e.coords
            )
        assert -e == (-1) * e and 2 * e == e + e
        assert e - e == alg.zero() and (e - e).is_zero()
        with pytest.raises(TypeError):
            e * 2
        with pytest.raises(TypeError):
            e * Fraction(1, 2)

    def test_an_element_is_not_a_tuple(self):
        zero = quotient_ring(2).zero()
        assert not isinstance(zero, tuple)
        assert zero != (zero.dims, zero.denominator, zero.pieces)
        assert repr(zero) == (
            "Element(dims=(1, 0, 1, 0, 1), denominator=1,"
            " pieces=((), (), (), (), ()))"
        )


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
        gram = gram_matrix(model.algebra, 2)
        assert gram == ((0, 1), (1, 0))
        assert fraction_det(gram) != 0

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


def pairing_algebras():
    """Algebras to compare the pairing form with its product oracle on:
    the builder battery, super-commutative exterior algebras, a lattice
    surface with a rational Gram matrix, and custom rings whose unit and
    integration functional are not 1."""
    algebras = [(name, model.algebra) for name, model, _ in builder_battery()]
    algebras += [(f"exterior g={g}", exterior_algebra(g)) for g in (1, 2, 3)]
    gram = [[2, Fraction(1, 2), 0], [Fraction(1, 2), -3, 1], [0, 1, Fraction(-5, 3)]]
    model, _ = surface_lattice(gram, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], [1, 0, 0])
    algebras.append(("rational lattice", model.algebra))
    products = {((2, 0), (2, 0)): {0: Fraction(1, 2)},
                ((2, 0), (2, 1)): {0: 3},
                ((2, 1), (2, 1)): {0: Fraction(-2, 5)}}
    algebras.append(("custom, rational unit", build_algebra(
        4, [1, 0, 2, 0, 1], COMMUTATIVE, products,
        integrate=(Fraction(7, 3),), unit=(Fraction(-3, 2),),
    )))
    algebras.append(("custom, two top classes", build_algebra(
        4, [1, 0, 1, 0, 2], COMMUTATIVE, {((2, 0), (2, 0)): {0: 2, 1: -1}},
        integrate=(Fraction(1, 4), Fraction(5, 6)), unit=(Fraction(2, 7),),
    )))
    return algebras


PAIRING_ALGEBRAS = pairing_algebras()


class TestPairingForm:
    """``pair`` reads the pairing form; the oracle integrates the Fraction
    basis-pair product."""

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_pair_matches_the_integral_of_the_product(self, data):
        name, alg = data.draw(st.sampled_from(PAIRING_ALGEBRAS))
        coordinate = st.one_of(st.just(Fraction(0)), small_fractions)

        def element():  # inhomogeneous: every piece may be nonzero
            return Element.from_coords([
                data.draw(st.lists(coordinate, min_size=d, max_size=d))
                for d in alg.dims
            ])

        a, b = element(), element()
        assert alg.pair(a, b) == pair_by_product(alg, a, b), name

    def test_every_basis_pair_of_complementary_degrees(self):
        # the integral of the table entry e_a e_b, in Fraction
        for name, alg in PAIRING_ALGEBRAS:
            top = alg.top_degree
            for i in range(top + 1):
                for p in range(alg.dims[i]):
                    for q in range(alg.dims[top - i]):
                        entry = basis_product(alg, (i, p), (top - i, q))
                        expected = sum(
                            (c * w for c, w in zip(entry, alg.integrate_coords)),
                            Fraction(0),
                        )
                        pair = alg.pair(alg.basis_element(i, p),
                                        alg.basis_element(top - i, q))
                        assert pair == expected, (name, i, p, q)

    def test_elements_of_another_grading_are_rejected(self):
        alg, other = quotient_ring(2), quotient_ring(3)
        with pytest.raises(ShapeMismatch):
            alg.pair(alg.one(), other.one())
        with pytest.raises(ShapeMismatch):
            alg.pair(other.one(), alg.one())


class TestCheckPoincare:
    def test_projective_space_nondegenerate_everywhere(self):
        alg = projective_space(3).algebra
        for d in poincare_determinants(alg):
            assert d not in (None, 0)

    def test_exterior_rank_one_gram_determinants(self):
        # degree-1 Gram is [[0,1],[-1,0]] with determinant 1
        alg = exterior_algebra(1)
        assert gram_matrix(alg, 1) == ((0, 1), (-1, 0))
        dets = poincare_determinants(alg)
        assert all(d not in (None, 0) for d in dets)
        assert dets[1] == 1

    def test_nilpotent_summand_killed_by_integrate_is_flagged(self):
        # degree-2 classes u, v with u*u = point, v*anything = 0
        products = {((2, 0), (2, 0)): {0: 1}}
        alg = build_algebra(4, [1, 0, 2, 0, 1], COMMUTATIVE, products, (1,))
        dets = poincare_determinants(alg)
        assert dets[2] == 0
        assert dets[0] not in (None, 0)

    def test_every_builder_model_satisfies_poincare_duality(self):
        # each degree's Gram matrix against its complement is square with
        # nonzero determinant, on every battery model and exterior algebra
        algebras = [(name, model.algebra)
                    for name, model, _ in builder_battery()]
        algebras += [(f"exterior g={g}", exterior_algebra(g)) for g in (1, 2, 3)]
        for name, alg in algebras:
            for degree, d in enumerate(poincare_determinants(alg)):
                assert d not in (None, 0), (name, degree)
