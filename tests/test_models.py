import itertools
import math
from fractions import Fraction

import pytest

from dyndeg.degrees import delta_table
from dyndeg.endo import validate_pullback
from dyndeg.errors import (
    AmpleClassDegenerate,
    AmpleNotPositive,
    MultiplicativityViolation,
    NotIsometry,
    PermutationShapeMismatch,
    ShapeMismatch,
)
from dyndeg.gromov import spectral_chain
from dyndeg.models import (
    abelian_variety,
    custom_model,
    elliptic_square,
    exterior_algebra,
    exterior_pullback,
    multiprojective,
    pn_power_map,
    product_map,
    projective_space,
    surface_lattice,
)
from dyndeg.linalg import as_matrix, det, mat_mul, transpose
from dyndeg.spectral import char_poly

from support import builder_battery, det_wedge_blocks


class TestProjectiveSpace:
    def test_p2_shape(self):
        model = projective_space(2)
        assert model.algebra.dims == (1, 0, 1, 0, 1)
        assert model.deg_x == 1 and model.ambient_dim == 2
        assert model.algebra.integrate(model.algebra.power(model.h, 2)) == 1

    def test_degree_one_map_is_identity(self):
        model = projective_space(3)
        f = pn_power_map(model, 1)
        for i, d in enumerate(model.algebra.dims):
            if d:
                assert f.blocks[i] == ((1,),)

    def test_degree_zero_map_is_valid_and_non_dominant(self):
        model = projective_space(2)
        f = pn_power_map(model, 0)
        assert f.blocks[2] == ((0,),)
        assert f.blocks[0] == ((1,),)


class TestMultiprojective:
    def test_segre_degree_is_the_multinomial(self):
        for ns, expected in [
            ([1, 1], 2),
            ([2, 2], 6),
            ([1, 1, 1], 6),
            ([1, 2], 3),
        ]:
            model = multiprojective(ns)
            r = sum(ns)
            assert model.deg_x == expected
            assert model.deg_x == model.algebra.integrate(
                model.algebra.power(model.h, r)
            )
            assert model.ambient_dim == math.prod(n + 1 for n in ns) - 1

    def test_swap_map_with_unequal_factors_rejected(self):
        model = multiprojective([1, 2])
        with pytest.raises(PermutationShapeMismatch):
            product_map(model, [2, 3], [1, 0])

    def test_non_permutations_rejected(self):
        model = multiprojective([1, 1])
        with pytest.raises(PermutationShapeMismatch):
            product_map(model, [2, 3], [0, 0])
        with pytest.raises(PermutationShapeMismatch):
            product_map(model, [2], [1, 0])

    def test_swap_validates(self):
        model = multiprojective([1, 1])
        f = product_map(model, [2, 3], [1, 0])
        assert f.blocks[2] == ((0, 3), (2, 0))


class TestAbelianVariety:
    def test_identity_has_unit_radii(self):
        model, f = abelian_variety(1, [[1, 0], [0, 1]])
        rep = spectral_chain(model.algebra, f, model.h)
        assert rep.max_mu == pytest.approx(1.0, abs=1e-12)

    def test_multiplication_by_two_on_rank_one(self):
        model, f = abelian_variety(1, [[2, 0], [0, 2]])
        from dyndeg.spectral import spectral_radius

        assert spectral_radius(f.blocks[1])[0] == pytest.approx(2.0, abs=1e-9)
        assert spectral_radius(f.blocks[2])[0] == pytest.approx(4.0, abs=1e-9)

    def test_graded_traces_are_elementary_symmetric_functions(self):
        # char(M) = x^n - e1 x^{n-1} + e2 x^{n-2} - ..., and the degree-i
        # trace of the exterior lift is e_i of M's eigenvalues
        m = [[1, 1, 0, 0], [1, 0, 0, 0], [0, 0, 2, 1], [0, 0, 0, 1]]
        model, f = abelian_variety(2, m, realizability="unverified")
        coeffs = char_poly(m)
        for i in range(5):
            assert f.graded_trace(i) == (-1) ** i * coeffs[i]

    def test_only_a_kronecker_square_map_is_asserted(self):
        # A (x) I_2 is End(E^2) acting on H^1; I_2 (x) A and a rational
        # scalar block are not, and the model keeps its own tag
        _, f = abelian_variety(2, [[2, 0, 1, 0], [0, 2, 0, 1],
                                   [1, 0, 1, 0], [0, 1, 0, 1]])
        assert f.realizability == "asserted"
        for m in ([[2, 1, 0, 0], [1, 1, 0, 0], [0, 0, 2, 1], [0, 0, 1, 1]],
                  [[Fraction(1, 2), 0], [0, Fraction(1, 2)]]):
            model, f = abelian_variety(len(m) // 2, m)
            assert (model.realizability, f.realizability) == (
                "asserted", "unverified"
            )

    def test_degenerate_polarization_rejected(self):
        with pytest.raises(AmpleClassDegenerate):
            abelian_variety(2, [[1, 0, 0, 0], [0, 1, 0, 0],
                                [0, 0, 1, 0], [0, 0, 0, 1]],
                            omega={(0, 1): 1, (0, 2): 0})

    def test_standard_polarization_bookkeeping(self):
        model, _ = elliptic_square([[1, 0], [0, 1]])
        assert model.deg_x == 2  # raw integral of omega^2
        assert model.ambient_dim == 8  # cube-of-polarization embedding
        assert model.algebra.dims == (1, 4, 6, 4, 1)

    def test_elliptic_square_requires_integer_entries(self):
        with pytest.raises(ShapeMismatch):
            elliptic_square([[Fraction(1, 2), 0], [0, 1]])

    @pytest.mark.parametrize("g", [1, 2, 3])
    @pytest.mark.parametrize("rational", [False, True])
    def test_wedge_blocks_match_the_det_route(self, g, rational):
        # the Laplace expansion in int against one Fraction det per entry,
        # on random matrices that are mostly not A (x) I_2; their zero
        # entries, and a zero row in the last trial, take the expansion's
        # skip of zero terms
        import random

        rng = random.Random(f"wedge:{g}:{rational}")
        n = 2 * g
        for trial in range(4):
            m = [[Fraction(rng.randint(-4, 4),
                           rng.randint(1, 6) if rational else 1)
                  for _ in range(n)] for _ in range(n)]
            if trial == 3:
                m[0] = [Fraction(0)] * n
            if rational:  # at least one entry that is no integer
                m[n - 1][0] += Fraction(1, 3)
            pull = exterior_pullback(exterior_algebra(g), m)
            assert pull.blocks == det_wedge_blocks(m), trial


class TestSurfaceLattice:
    def test_identity_isometry_all_radii_one(self):
        model, f = surface_lattice([[0, 1], [1, 0]], [[1, 0], [0, 1]], [1, 1])
        rep = spectral_chain(model.algebra, f, model.h,
                             realizability=model.realizability,
                             scope_note=model.scope_note)
        assert rep.max_mu == pytest.approx(1.0, abs=1e-12)

    def test_form_preservation_decides_acceptance(self):
        # [[2,1],[1,1]] does not preserve the hyperbolic form
        with pytest.raises(NotIsometry):
            surface_lattice([[0, 1], [1, 0]], [[2, 1], [1, 1]], [1, 1])

    def test_pell_isometry_matches_char_poly_root(self):
        # x^2 - 6x + 1 has largest root 3 + 2 sqrt 2
        model, f = surface_lattice([[1, 0], [0, -2]], [[3, 4], [2, 3]], [1, 0])
        assert char_poly(f.blocks[2]) == [1, -6, 1]
        from dyndeg.spectral import spectral_radius

        assert spectral_radius(f.blocks[2])[0] == pytest.approx(
            3 + 2 * math.sqrt(2), abs=1e-9
        )

    @pytest.mark.parametrize("gram, iso, ample", [
        ([[0, 1], [1, 0]], [[Fraction(3, 2), 0], [0, Fraction(2, 3)]], [1, 1]),
        ([[0, Fraction(1, 2)], [Fraction(1, 2), 0]], [[0, 1], [1, 0]], [1, 1]),
        ([[1, 0], [0, -2]], [[3, 4], [2, 3]], [1, 0]),
    ])
    def test_isometry_check_agrees_with_the_fraction_product(
        self, gram, iso, ample
    ):
        # the check runs in integers over common denominators; the oracle
        # is g^T q g = q in Fractions, on the isometry and on each one-entry
        # perturbation of it
        q = as_matrix(gram)

        def preserves(g):
            return mat_mul(mat_mul(transpose(g), q), g) == q

        assert preserves(as_matrix(iso))
        surface_lattice(gram, iso, ample)
        for i, j in itertools.product(range(2), repeat=2):
            bad = [list(row) for row in as_matrix(iso)]
            bad[i][j] += Fraction(1, 3)
            assert not preserves(bad)
            with pytest.raises(NotIsometry):
                surface_lattice(gram, bad, ample)

    def test_ample_positivity_enforced(self):
        with pytest.raises(AmpleNotPositive):
            surface_lattice([[0, 1], [1, 0]], [[1, 0], [0, 1]], [1, -1])

    def test_gram_must_be_symmetric(self):
        with pytest.raises(ShapeMismatch):
            surface_lattice([[0, 1], [2, 0]], [[1, 0], [0, 1]], [1, 1])


def p2_custom_params():
    return {
        "top_degree": 4,
        "dims": [1, 0, 1, 0, 1],
        "sign_rule": "commutative",
        "products": [
            {"a": [2, 0], "b": [2, 0], "value": [[0, 1]]},
        ],
        "integrate": [1],
        "h": [1],
        "ambient_dim": 2,
        "effective": [
            {"label": "unit", "degree": 0, "coords": [1]},
            {"label": "line", "degree": 2, "coords": [1]},
            {"label": "point", "degree": 4, "coords": [1]},
        ],
    }


class TestCustomModel:
    def test_p2_reencoded_matches_builder(self):
        blocks = [[[1]], [], [[2]], [], [[4]]]
        custom = custom_model(p2_custom_params())
        fc = validate_pullback(custom.algebra, blocks)
        builder = projective_space(2)
        fb = pn_power_map(builder, 2)
        tc = delta_table(custom, fc, 6)
        tb = delta_table(builder, fb, 6)
        assert tc.rows == tb.rows
        rc = spectral_chain(custom.algebra, fc, custom.h)
        rb = spectral_chain(builder.algebra, fb, builder.h)
        assert rc.lambda_gr == rb.lambda_gr
        assert rc.mu_by_degree == rb.mu_by_degree
        assert custom.realizability == "unverified"

    def test_bad_map_names_offending_pair(self):
        blocks = [[[1]], [], [[2]], [], [[5]]]  # 5 != 2^2
        custom = custom_model(p2_custom_params())
        with pytest.raises(MultiplicativityViolation) as exc:
            validate_pullback(custom.algebra, blocks)
        assert exc.value.pair == ((2, 0), (2, 0))

    def test_degenerate_pairing_refuses_pushforward_but_chains(self):
        params = {
            "top_degree": 4,
            "dims": [1, 0, 2, 0, 1],
            "sign_rule": "commutative",
            "products": [
                {"a": [2, 0], "b": [2, 0], "value": [[0, 1]]},
            ],
            "integrate": [1],
            "h": [1, 0],
            "ambient_dim": 3,
        }
        model = custom_model(params)
        f = validate_pullback(
            model.algebra, [[[1]], [], [[1, 0], [0, 1]], [], [[1]]]
        )
        # a singular Gram matrix admits no adjoint, so no pushforward
        assert det(model.algebra.gram_matrix(2)) == 0
        rep = spectral_chain(model.algebra, f, model.h)
        assert rep.chain_holds


class TestBuilderSoundness:
    def test_every_builder_map_revalidates(self):
        for name, model, pull in builder_battery():
            revalidated = validate_pullback(
                model.algebra, [list(map(list, b)) for b in pull.blocks]
            )
            assert revalidated.blocks == pull.blocks, name

    def test_every_builder_model_has_positive_degree(self):
        for name, model, _ in builder_battery():
            assert model.deg_x >= 1, name
            assert not model.algebra.power(model.h, model.r).is_zero(), name

    def test_degree_is_the_integral_of_h_to_the_r(self):
        for name, model, _ in builder_battery():
            alg = model.algebra
            assert model.deg_x == alg.integrate(alg.power(model.h, model.r)), name
