import pytest

from dyndeg.endo import (
    compose,
    identity_map,
    power_map,
    pushforward,
    validate_pullback,
)
from dyndeg.errors import (
    DegeneratePairing,
    MultiplicativityViolation,
    ShapeMismatch,
    UnitViolation,
)
from dyndeg.core import COMMUTATIVE, build_algebra
from dyndeg.models import (
    abelian_variety,
    multiprojective,
    pn_power_map,
    product_map,
    projective_space,
)


def p2_with_map(d=2):
    model = projective_space(2)
    return model, pn_power_map(model, d)


class TestValidatePullback:
    def test_power_map_is_valid(self):
        model, f = p2_with_map(2)
        assert f.block(2) == ((2,),)
        assert f.block(4) == ((4,),)

    def test_non_multiplicative_map_names_pair(self):
        # h1 -> h1 + h2, h2 -> h2 cannot extend: (h1+h2)^2 = 2 h1 h2 != 0
        model = multiprojective([1, 1])
        blocks = [
            [[1]],
            [],
            [[1, 0], [1, 1]],  # columns are the images of h1, h2
            [],
            [[1]],
        ]
        with pytest.raises(MultiplicativityViolation) as exc:
            validate_pullback(model.algebra, blocks)
        (a, b) = exc.value.pair
        assert a[0] == 2 and b[0] == 2

    def test_unit_violation(self):
        model = projective_space(1)
        blocks = [[[2]], [], [[1]]]
        with pytest.raises(UnitViolation):
            validate_pullback(model.algebra, blocks)

    def test_shape_mismatch(self):
        model = projective_space(1)
        with pytest.raises(ShapeMismatch):
            validate_pullback(model.algebra, [[[1]], [], [[1, 0]]])
        with pytest.raises(ShapeMismatch):
            validate_pullback(model.algebra, [[[1]], [[1]]])


class TestPowerMap:
    def test_p2_degree_two_squared(self):
        model, f = p2_with_map(2)
        f2 = power_map(f, 2)
        assert f2.block(2) == ((4,),)
        assert f2.block(4) == ((16,),)

    def test_swap_map_squares_to_multiplication_by_six(self):
        model = multiprojective([1, 1])
        f = product_map(model, [2, 3], [1, 0])
        f2 = power_map(f, 2)
        assert f2.block(2) == ((6, 0), (0, 6))

    def test_power_one_is_the_same_map(self):
        model, f = p2_with_map(2)
        assert power_map(f, 1).blocks == f.blocks

    def test_power_additivity(self):
        model = multiprojective([1, 1])
        f = product_map(model, [2, 3], [1, 0])
        lhs = power_map(f, 5)
        rhs = compose(power_map(f, 2), power_map(f, 3))
        assert lhs.blocks == rhs.blocks

    def test_powers_revalidate_as_ring_homomorphisms(self):
        model = multiprojective([1, 1])
        f = product_map(model, [2, 3], [1, 0])
        for m in (2, 3, 5):
            fm = power_map(f, m)
            revalidated = validate_pullback(
                model.algebra, [list(map(list, b)) for b in fm.blocks]
            )
            assert revalidated.blocks == fm.blocks


class TestPushforward:
    def test_p1_degree_two(self):
        model = projective_space(1)
        f = pn_power_map(model, 2)
        push = pushforward(f)
        one, x = model.algebra.one(), model.h
        assert push.apply(one) == 2 * one
        assert push.apply(x) == x

    def test_identity_pushforward_is_identity(self):
        model = projective_space(2)
        f = identity_map(model.algebra)
        push = pushforward(f)
        for deg, idx in model.algebra.basis():
            e = model.algebra.basis_element(deg, idx)
            assert push.apply(e) == e

    def test_p2_degree_two_on_lines(self):
        model, f = p2_with_map(2)
        push = pushforward(f)
        x = model.h
        assert push.apply(x) == 2 * x

    def test_projection_formula_on_all_basis_pairs(self):
        model, fmap = abelian_variety(2, [[1, 1, 0, 0], [0, 1, 0, 0],
                                          [0, 0, 1, 0], [1, 0, 0, 1]],
                                      realizability="unverified")
        alg = model.algebra
        push = pushforward(fmap)
        for a in alg.basis():
            ea = alg.basis_element(*a)
            for b in alg.basis():
                eb = alg.basis_element(*b)
                assert alg.pair(push.apply(ea), eb) == alg.pair(ea, fmap.apply(eb))

    def test_degenerate_pairing_is_refused(self):
        products = {((2, 0), (2, 0)): {0: 1}}
        alg = build_algebra(4, [1, 0, 2, 0, 1], COMMUTATIVE, products, (1,))
        blocks = [[[1]], [], [[1, 0], [0, 1]], [], [[1]]]
        f = validate_pullback(alg, blocks)
        with pytest.raises(DegeneratePairing) as exc:
            pushforward(f)
        assert exc.value.degree == 2


class TestApplyOnZeroPieces:
    @pytest.mark.parametrize("adjoint", [False, True])
    def test_a_homogeneous_element_costs_one_product(self, monkeypatch, adjoint):
        from dyndeg import endo

        model, f = abelian_variety(2, [[1, 1, 0, 0], [0, 1, 0, 0],
                                       [0, 0, 1, 0], [1, 0, 0, 1]],
                                   realizability="unverified")
        g = pushforward(f) if adjoint else f
        calls = []
        original = endo._GradedMatrices.apply_scaled

        def counted(self, degree, vec):
            calls.append(degree)
            return original(self, degree, vec)

        monkeypatch.setattr(endo._GradedMatrices, "apply_scaled", counted)
        x = model.algebra.basis_element(2, 1)
        image = g.apply(x)
        assert calls == [2]
        assert all(image.coords[i] is x.coords[i] for i in (0, 1, 3, 4))
        assert g.apply(model.algebra.zero()) == model.algebra.zero()
        assert calls == [2]


class TestTraces:
    def test_p2_degree_two_total_trace(self):
        model, f = p2_with_map(2)
        assert f.total_trace() == 1 + 2 + 4
        assert f.total_trace(alternating=True) == 7  # only even degrees

    def test_identity_total_trace_is_total_dimension(self):
        model = multiprojective([1, 1])
        f = identity_map(model.algebra)
        assert f.total_trace() == sum(model.algebra.dims)

    def test_abelian_h1_trace(self):
        model, f = abelian_variety(1, [[1, 1], [1, 0]])
        assert f.graded_trace(1) == 1
        # plain: 1 + tr(M^T) + det(M) = 1 + 1 - 1; alternating flips degree 1
        assert f.total_trace() == 1
        assert f.total_trace(alternating=True) == 1 - 1 + (-1)
