import pytest

from dyndeg.abelian import abelian_variety
from dyndeg.endo import validate_pullback
from dyndeg.errors import (
    MultiplicativityViolation,
    ShapeMismatch,
    UnitViolation,
)
from dyndeg.linalg import as_matrix, identity
from dyndeg.projective import (
    multiprojective,
    pn_power_map,
    product_map,
    projective_space,
)

from support import coords, fraction_blocks, mat_mul, mat_pow, power_map


def p2_with_map(d=2):
    model = projective_space(2)
    return model, pn_power_map(model, d)


class TestValidatePullback:
    def test_power_map_is_valid(self):
        model, f = p2_with_map(2)
        assert fraction_blocks(f)[2] == ((2,),)
        assert fraction_blocks(f)[4] == ((4,),)

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
        assert fraction_blocks(f2)[2] == ((4,),)
        assert fraction_blocks(f2)[4] == ((16,),)

    def test_swap_map_squares_to_multiplication_by_six(self):
        model = multiprojective([1, 1])
        f = product_map(model, [2, 3], [1, 0])
        f2 = power_map(f, 2)
        assert fraction_blocks(f2)[2] == ((6, 0), (0, 6))

    def test_power_one_is_the_same_map(self):
        model, f = p2_with_map(2)
        assert fraction_blocks(power_map(f, 1)) == fraction_blocks(f)

    def test_power_additivity(self):
        model = multiprojective([1, 1])
        f = product_map(model, [2, 3], [1, 0])
        lhs = power_map(f, 5)
        f2, f3 = power_map(f, 2), power_map(f, 3)
        assert fraction_blocks(lhs) == tuple(
            mat_mul(a, b) for a, b in zip(fraction_blocks(f2), fraction_blocks(f3))
        )

    def test_repeated_squaring_matches_the_running_product(self):
        a = as_matrix([[1, 2, 0], [0, -1, 3], [1, 0, 1]])
        running = identity(3)
        for m in range(20):
            assert mat_pow(a, m) == running, m
            running = mat_mul(running, a)
        with pytest.raises(ShapeMismatch):
            mat_pow(a, -1)

    def test_powers_revalidate_as_ring_homomorphisms(self):
        model = multiprojective([1, 1])
        f = product_map(model, [2, 3], [1, 0])
        for m in (2, 3, 5):
            fm = power_map(f, m)
            revalidated = validate_pullback(
                model.algebra, [list(map(list, b)) for b in fraction_blocks(fm)]
            )
            assert fraction_blocks(revalidated) == fraction_blocks(fm)


class TestApplyOnZeroPieces:
    def test_a_homogeneous_element_costs_one_product(self, monkeypatch):
        from dyndeg import endo

        model, f = abelian_variety(2, [[1, 1, 0, 0], [0, 1, 0, 0],
                                       [0, 0, 1, 0], [1, 0, 0, 1]])
        calls = []
        original = endo.PullbackMap.apply_scaled

        def counted(self, degree, vec):
            calls.append(degree)
            return original(self, degree, vec)

        monkeypatch.setattr(endo.PullbackMap, "apply_scaled", counted)
        x = model.algebra.basis_element(2, 1)
        image = f.apply(x)
        assert calls == [2]
        assert all(coords(image)[i] == coords(x)[i] for i in (0, 1, 3, 4))
        zero = model.algebra.element({})
        assert f.apply(zero) == zero
        assert calls == [2]

