import functools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyndeg.core import (
    COMMUTATIVE,
    SUPER_COMMUTATIVE,
    Element,
    _read_table,
    _validate,
    build_algebra,
    tensor_product,
)
from dyndeg.errors import (
    AssociativityViolation,
    DynDegError,
    ShapeMismatch,
    SignRuleViolation,
    UnitViolation,
)
from dyndeg.lattice import surface_lattice
from dyndeg.linalg import as_fraction
from dyndeg.models import exterior_algebra
from dyndeg.projective import multiprojective, projective_space

from support import (
    basis_product,
    builder_battery,
    fraction_det,
    from_coords,
    gram_matrix,
    lin_comb,
    oracle_build_algebra,
    oracle_scaled_table,
    pair_by_product,
    poincare_determinants,
    tensor_factors,
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
        # Fraction would expand these exponents exactly, for seconds
        "1e4301", "1E-4301", "1e10000000",
    ], ids=["word", "zero-denominator-string", "word-numerator",
            "zero-denominator-pair", "exponent-past-limit",
            "negative-exponent-past-limit", "exponent-ten-million"])
    def test_malformed_scalars_raise_shape_mismatch(self, value):
        with pytest.raises(ShapeMismatch, match="not an exact rational") as exc:
            as_fraction(value)
        assert repr(value) in str(exc.value)

    def test_well_formed_scalars_still_read(self):
        assert as_fraction("3/2") == as_fraction({"num": "3", "den": 2}) == Fraction(3, 2)
        assert as_fraction(-4) == Fraction(-4)
        assert as_fraction("1e4300") == 10**4300  # at int's digit limit
        assert as_fraction("25E-2") == Fraction(1, 4)


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
        assert alg.mul(e1, e2) == lin_comb((-1, alg.mul(e2, e1)))

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


READ_SOURCES = (
    quotient_ring(2), multiprojective([1, 1]).algebra, exterior_algebra(1),
    exterior_algebra(2), tensor_factors()[3],
    # a^2 = b and every other product zero: the blocks (1, 2) and (2, 1)
    # hold zero products only
    build_algebra(3, [1, 1, 1, 1], COMMUTATIVE, {((1, 0), (1, 0)): {0: 1}}, (1,)),
)
UNITS = (1, 2, Fraction(-3, 2), Fraction(2, 7))
SCALES = (1, -1, 2, Fraction(1, 3), Fraction(-3, 2))


def _written(data, c):
    """The scalar ``c`` in one of the forms a table may hold it in."""
    forms = [c, str(c), {"num": c.numerator, "den": str(c.denominator)}]
    return data.draw(st.sampled_from(forms + [c.numerator] * (c.denominator == 1)))


def _user_constants(data, algebra, unit):
    """The products of ``algebra``, its positive-degree basis rescaled, as a
    user writes them: each pair of basis vectors in one order, the other or
    both, zero products omitted or written out (empty, or with zero
    coordinates), the products with e_0 left to the unit or written (some or
    all, as 1/unit or as 1), and maybe one pair written against the sign
    rule, one product replaced by random constants and one malformed entry."""
    table, top = algebra.scaled_table, algebra.top_degree
    positive = [b for b in algebra.basis() if b[0]]
    scale = {b: data.draw(st.sampled_from(SCALES)) for b in positive}
    pairs = [(a, b) for n, a in enumerate(positive) for b in positive[n:]
             if a[0] + b[0] <= top]
    clash, noise = data.draw(st.tuples(*[st.none() | st.sampled_from(pairs)] * 2))

    def vector(d, coords):
        out = {k: _written(data, c) for k, c in coords.items()}
        for k in range(algebra.dims[d]):
            if k not in out and data.draw(st.booleans()):
                out[k] = data.draw(st.sampled_from([0, "0", Fraction(0)]))
        return out

    constants = {}
    for a, b in pairs:
        d = a[0] + b[0]
        ab = {k: Fraction(v, table.denominator) * scale[a] * scale[b] / scale[d, k]
              for k, v in table.product(a, b)}
        if (a, b) == noise:
            ab = data.draw(st.dictionaries(
                st.integers(0, algebra.dims[d] - 1), small_fractions, max_size=2))
        sign = -1 if algebra.sign_rule == SUPER_COMMUTATIVE and a[0] * b[0] % 2 else 1
        ba = {k: sign * c for k, c in ab.items()}
        if (a, b) == clash and a != b:
            ba = {k: -c for k, c in ba.items()} if ab else {0: Fraction(1)}
            orders = "both"
        else:
            orders = data.draw(st.sampled_from(
                ["ab", "ba", "both"] + ["none"] * (not any(ab.values()))))
        if orders in ("ab", "both"):
            constants[a, b] = vector(d, ab)
        if orders in ("ba", "both"):
            constants[b, a] = vector(d, ba)

    e0 = (0, 0)
    sides = [(e0, b) for b in algebra.basis()] + [(b, e0) for b in algebra.basis()]
    value = data.draw(st.sampled_from([1 / Fraction(unit), Fraction(1)]))
    for a, b in data.draw(st.just(sides) | st.lists(st.sampled_from(sides), max_size=3)):
        constants[a, b] = {(b if a == e0 else a)[1]: _written(data, value)}

    malformed = data.draw(st.none() | st.sampled_from([
        (((top + 1, 0), e0), {0: 1}),  # degree out of range
        ((e0, (0, 1)), {0: 1}),  # index out of range
        (((top, 0), (top, 0)), {0: 1}),  # past the top degree
        ((e0, e0), {1: 1}),  # coordinate out of range
        ((0, 0, 0, 0), {0: 1}),  # not a pair of basis vectors
        ((e0, e0), [1]),  # not a mapping
        ((e0, e0), {0: "x"}),  # no exact scalar
        ((e0, e0), {0: 1.5}),
    ]))
    if malformed:
        items = list(constants.items())
        items.insert(data.draw(st.integers(0, len(items))), malformed)
        constants = dict(items)
    return constants


def _outcome(read):
    """What ``read()`` returns, or the type and payload of its error."""
    try:
        return read()
    except DynDegError as err:
        return type(err), err.payload()


class TestReadTable:
    """``build_algebra`` reads the structure constants in one pass; the
    two-pass reader it replaced (``support.oracle_scaled_table``) is the
    oracle."""

    @given(data=st.data())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_the_reader_agrees_with_the_two_pass_oracle(self, data):
        algebra = data.draw(st.sampled_from(READ_SOURCES))
        unit = data.draw(st.sampled_from(UNITS))
        constants = _user_constants(data, algebra, unit)
        shape = (algebra.top_degree, algebra.dims, algebra.sign_rule, constants)
        read = _outcome(lambda: _read_table(*shape, Fraction(unit)))
        oracle = _outcome(lambda: oracle_scaled_table(*shape, unit))
        # equal, and in the same order, which tensor_product's loops follow
        assert read == oracle and repr(read) == repr(oracle)
        built = _outcome(lambda: build_algebra(
            *shape, algebra.integrate_coords, (unit,)).scaled_table)
        assert built == _outcome(lambda: oracle_build_algebra(
            *shape, algebra.integrate_coords, (unit,)).scaled_table)

    def test_the_unit_enters_the_denominator_only_through_a_forced_product(self):
        # every product with e_0 written as e_q, with a unit of 7: no forced
        # e_q / 7 is added, so the table keeps denominator 1 (and fails the
        # unit law later); leave one out and 1/7 is forced into it
        written = {((0, 0), (0, 0)): {0: 1},
                   ((0, 0), (2, 0)): {0: 1}, ((2, 0), (0, 0)): {0: 1}}
        read = functools.partial(_read_table, 2, (1, 0, 1), COMMUTATIVE)
        assert read(written, Fraction(7)).denominator == 1
        del written[(2, 0), (0, 0)]
        assert read(written, Fraction(7)).denominator == 7

    @pytest.mark.parametrize("constants, message", [
        ({((2, 0), (2, 0)): {0.5: 1}}, "product coordinate"),
        ({((1, 0), (1, 0)): {False: 1}}, "product coordinate"),
        ({((2, 0.5), (0, 0)): {0: 1}}, "index out of range"),
        ({((2, False), (2, 0)): {0: 1}}, "index out of range"),
        ({((2.0, 0), (2, 0)): {0: 1}}, "degree out of range"),
    ])
    def test_a_key_that_is_no_int_is_a_shape_mismatch(self, constants, message):
        # a float or a bool is no basis index, even when it equals one
        with pytest.raises(ShapeMismatch, match=message):
            build_algebra(4, [1, 1, 1, 0, 1], COMMUTATIVE, constants, (1,))


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
        assert alg.mul(e1, e2) == lin_comb((-1, alg.mul(e2, e1)))
        assert alg.mul(e1, e1).is_zero()

    def test_shape_mismatch_between_algebras(self):
        alg = quotient_ring(2)
        other = quotient_ring(3)
        with pytest.raises(ShapeMismatch):
            alg.mul(alg.one(), other.one())


ELEMENT_ALGEBRAS = [
    quotient_ring(2), multiprojective([1, 1]).algebra, exterior_algebra(2),
]
BAD_SCALARS = (1.5, True, "x", "1/0", {"num": 1, "den": 0}, {"num": 1}, None)


def _scalar_error(value) -> str:
    """The message ``as_fraction`` rejects ``value`` with."""
    with pytest.raises(ShapeMismatch) as err:
        as_fraction(value)
    return str(err.value)


class TestElement:
    """``Element`` is a value: exact ``==`` and ``hash`` whatever built it,
    with no arithmetic of its own, and not a tuple."""

    def test_every_route_to_one_value_gives_one_element(self):
        alg = multiprojective([1, 1]).algebra
        a, b = alg.basis_element(2, 0), alg.basis_element(2, 1)
        half, three_halves = Fraction(1, 2), Fraction(3, 2)
        routes = [
            Element.scaled(alg.dims, 2, [{}, {}, {0: 1, 1: 3}, {}, {}]),
            Element.scaled(alg.dims, 4, [{}, {}, {0: 2, 1: 6, 2: 0}, {}, {}]),
            from_coords(((0,), (), (half, three_halves), (), (0,))),
            alg.element({(2, 0): half, (2, 1): three_halves}),
            alg.homogeneous(2, [half, three_halves]),
            lin_comb((half, a), (3 * half, b)),
            lin_comb((1, a), (1, b), (half, b), (-half, a)),
            lin_comb((three_halves, b), (half, a), (0, alg.element({}))),
        ]
        assert all(x == routes[0] for x in routes)
        assert len({hash(x) for x in routes}) == 1
        assert routes[0] != lin_comb((half, a))
        assert routes[0] != lin_comb((2, routes[0]))

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_element_matches_the_dense_route(self, data):
        # element() builds sparse numerators over one lcm; from_coords goes
        # through the dense Fraction vectors.  Values are zeros, negatives,
        # "p/q" strings and {num, den} scalars; a key outside the grading or
        # a value that is no exact rational raises the same ShapeMismatch
        alg = data.draw(st.sampled_from(ELEMENT_ALGEBRAS))
        scalar = st.one_of(
            st.just(0), st.integers(-5, 5), small_fractions,
            small_fractions.map(str),
            small_fractions.map(lambda c: {"num": c.numerator,
                                           "den": str(c.denominator)}),
        )
        entries = data.draw(st.dictionaries(st.sampled_from(list(alg.basis())),
                                            scalar))
        coords = [[Fraction(0)] * d for d in alg.dims]
        for (degree, index), value in entries.items():
            coords[degree][index] = as_fraction(value)
        assert alg.element(entries) == from_coords(coords)

        outside = [(-1, 0), (alg.top_degree + 1, 0)] + [
            (degree, d) for degree, d in enumerate(alg.dims)]
        key, value, expected = data.draw(st.one_of(
            st.tuples(st.sampled_from(outside), scalar).map(
                lambda kv: (*kv, "no basis vector at (%d, %d)" % kv[0])),
            st.tuples(st.sampled_from(list(alg.basis())),
                      st.sampled_from(BAD_SCALARS)).map(
                lambda kv: (*kv, _scalar_error(kv[1]))),
        ))
        with pytest.raises(ShapeMismatch) as err:
            alg.element({**entries, key: value})
        assert str(err.value) == expected

    def test_an_element_is_not_a_tuple(self):
        zero = quotient_ring(2).element({})
        assert not isinstance(zero, tuple)
        for repeat in (lambda e: 2 * e, lambda e: e * 2):
            with pytest.raises(TypeError):
                repeat(zero)
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
        a = alg.element({(2, 0): c})
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
            return from_coords([
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


class TestTensorProduct:
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_dims_integral_and_sign_of_a_tensor(self, data):
        factors = data.draw(st.lists(st.sampled_from(tensor_factors()),
                                     min_size=2, max_size=3))
        alg = tensor_product(*factors)
        _validate(alg)  # the checks that tensor_product trusts its factors for
        dims = [1]  # the convolution of the factors' dims
        for f in factors:
            dims = [sum(dims[i] * f.dims[d - i] for i in range(len(dims))
                        if 0 <= d - i <= f.top_degree)
                    for d in range(len(dims) + f.top_degree)]
        assert alg.dims == tuple(dims)
        index = {}
        for d, words in enumerate(alg.words):
            assert words == tuple(sorted(words, key=lambda w: [(-e, p) for e, p in w]))
            for p, w in enumerate(words):
                assert sum(e for e, _ in w) == d
                index[w] = (d, p)
        for w in alg.words[alg.top_degree]:
            assert alg.integrate(alg.element({index[w]: 1})) == math.prod(
                f.integrate_coords[p] for f, (_, p) in zip(factors, w))

        def tensor(letters):
            # the tensor of ``letters`` ({slot: basis vector}) with the
            # unit, u e_(0,0), in every other slot
            word = tuple(letters.get(m, (0, 0)) for m in range(len(factors)))
            return alg.element({index[word]: math.prod(
                f.unit_coords[0] for m, f in enumerate(factors) if m not in letters)})

        i = data.draw(st.integers(0, len(factors) - 2))
        j = data.draw(st.integers(i + 1, len(factors) - 1))
        a = data.draw(st.sampled_from(list(factors[i].basis())))
        b = data.draw(st.sampled_from(list(factors[j].basis())))
        a_b = tensor({i: a, j: b})
        sign = -1 if alg.sign_rule == SUPER_COMMUTATIVE and a[0] * b[0] % 2 else 1
        assert alg.mul(tensor({i: a}), tensor({j: b})) == a_b
        assert alg.mul(tensor({j: b}), tensor({i: a})) == lin_comb((sign, a_b))
