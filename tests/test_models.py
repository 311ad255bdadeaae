import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyndeg.degrees import delta_table
from dyndeg.endo import tensor_pullback, validate_pullback
from dyndeg.errors import (
    AmpleClassDegenerate,
    AmpleNotPositive,
    MultiplicativityViolation,
    NotIsometry,
    PermutationShapeMismatch,
    ShapeMismatch,
)
from dyndeg.gromov import gromov_closure, spectral_chain
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
from dyndeg.linalg import as_matrix, transpose
from dyndeg.spectral import char_poly

from support import (builder_battery, det_wedge_blocks, fraction_det,
                     gram_matrix, mat_mul, monomial_substitution,
                     monomials_by_degree, oracle_exterior_algebra,
                     oracle_multiprojective_algebra, pair_by_product, trace)


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

    def test_product_map_on_projective_space_is_its_power_map(self):
        for n in (1, 2, 3):
            model = projective_space(n)
            for d in (0, 2, 3):
                f = product_map(model, [d], [0])
                assert f.blocks == pn_power_map(model, d).blocks
                assert f.provenance == f"product:{d}->0"

    def test_product_map_rejects_a_model_that_is_no_product_of_projective_spaces(self):
        # the words of a custom algebra with two classes in degree 2, and of
        # an exterior algebra, are no exponent vectors of (P^n)^k
        custom = custom_model({
            "top_degree": 4, "dims": [1, 0, 2, 0, 1],
            "products": [{"a": [2, 0], "b": [2, 0], "value": [[0, 1]]}],
            "integrate": [1], "h": [1, 0], "ambient_dim": 3,
        })
        with pytest.raises(ShapeMismatch, match="not custom$"):
            product_map(custom, [2], [0])
        abelian, _ = elliptic_square([[1, 0], [0, 1]])
        with pytest.raises(ShapeMismatch, match="not abelian_variety:2$"):
            product_map(abelian, [2, 2], [0, 1])


class TestTensorBuilders:
    """``multiprojective`` and ``exterior_algebra`` are ``core.tensor_product``
    of their factors; the oracles write the same algebras out monomial by
    monomial and subset by subset.  The tables are compared with ``==``: the
    insertion order of a row's dict may differ."""

    @pytest.mark.parametrize(
        "ns", [[1, 1], [1] * 5, [2, 2, 2], [3, 1, 2], [1, 2, 1], [6]])
    def test_multiprojective_is_the_monomial_table(self, ns):
        algebra = multiprojective(ns).algebra
        oracle = oracle_multiprojective_algebra(ns)
        assert algebra.dims == oracle.dims
        assert algebra.sign_rule == oracle.sign_rule
        assert algebra.scaled_table == oracle.scaled_table
        assert algebra.unit_coords == oracle.unit_coords
        assert algebra.integrate_coords == oracle.integrate_coords
        by_degree, _ = monomials_by_degree(ns)
        assert [[tuple(d // 2 for d, _ in w) for w in words]
                for words in algebra.words] == [
            by_degree.get(d, []) for d in range(algebra.top_degree + 1)]

    @pytest.mark.parametrize("g", [1, 2, 3, 4])
    def test_exterior_algebra_is_the_subset_table(self, g):
        algebra, oracle = exterior_algebra(g), oracle_exterior_algebra(g)
        assert algebra.dims == oracle.dims
        assert algebra.sign_rule == oracle.sign_rule
        assert algebra.scaled_table == oracle.scaled_table
        assert algebra.unit_coords == oracle.unit_coords
        assert algebra.integrate_coords == oracle.integrate_coords

    @pytest.mark.parametrize("g", [1, 2, 3, 4])
    def test_compound_blocks_list_the_subsets_as_the_words(self, g):
        # wedge^k of diag(p_0, ..., p_(2g-1)), distinct primes, is diagonal
        # with the product of the primes of each k-subset: its position in
        # the block is the position of that subset's word
        primes = [2, 3, 5, 7, 11, 13, 17, 19][:2 * g]
        blocks = exterior_pullback(exterior_algebra(g), [
            [Fraction(p if i == j else 0) for j, p in enumerate(primes)]
            for i in range(2 * g)]).blocks
        for k, words in enumerate(exterior_algebra(g).words):
            assert [blocks[k][s][s] for s in range(len(words))] == [
                math.prod(p for p, (d, _) in zip(primes, w) if d) for w in words]
            assert [tuple(i for i, (d, _) in enumerate(w) if d)
                    for w in words] == list(itertools.combinations(range(2 * g), k))


class TestTensorPullback:
    """``endo.tensor_pullback`` builds a map of a tensor product from its
    letters' images; ``support.monomial_substitution`` writes the same maps
    of (P^n)^k out monomial by monomial."""

    @given(data=st.data())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_letter_powers_give_the_monomial_substitution(self, data):
        ns = data.draw(st.sampled_from([[1, 1], [2, 1], [1, 1, 1], [2, 2]]))
        k = len(ns)
        # x_i -> c x_t is a ring map when n_t <= n_i, so x_t^(n_i + 1) = 0
        targets = [data.draw(st.sampled_from(
            [t for t in range(k) if ns[t] <= n])) for n in ns]
        scalars = data.draw(st.lists(
            st.fractions(min_value=-3, max_value=3, max_denominator=4),
            min_size=k, max_size=k))
        model = multiprojective(ns)
        algebra = model.algebra
        h = [algebra.basis_element(2, algebra.words[2].index(
            tuple((2, 0) if j == t else (0, 0) for j in range(k))))
            for t in range(k)]
        images = {(i, (2 * e, 0)): algebra.power(c * h[t], e)
                  for i, (n, t, c) in enumerate(zip(ns, targets, scalars))
                  for e in range(1, n + 1)}
        assert tensor_pullback(algebra, images).blocks == monomial_substitution(
            model, targets, scalars).blocks

    def test_a_letter_image_that_breaks_a_relation_is_rejected(self):
        # x_0 -> x_0 + x_1 on (P^1)^2 builds, but (x_0 + x_1)^2 = 2 x_0 x_1
        # while x_0^2 = 0
        algebra = multiprojective([1, 1]).algebra
        x0, x1 = algebra.basis_element(2, 0), algebra.basis_element(2, 1)
        with pytest.raises(MultiplicativityViolation):
            tensor_pullback(algebra, {(0, (2, 0)): x0 + x1, (1, (2, 0)): x1})

    def test_exterior_pullback_takes_only_an_exterior_algebra(self):
        # P^2, and the exterior algebra on two classes written out by hand:
        # neither is ``exterior_algebra(g)``
        with pytest.raises(ShapeMismatch, match="exterior_algebra"):
            exterior_pullback(projective_space(2).algebra, [])
        with pytest.raises(ShapeMismatch, match="exterior_algebra"):
            exterior_pullback(oracle_exterior_algebra(1), [[1, 0], [0, 1]])


class TestAbelianVariety:
    def test_identity_has_unit_radii(self):
        model, f = abelian_variety(1, [[1, 0], [0, 1]])
        rep = spectral_chain(model, gromov_closure(f, model.h))
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
        model, f = abelian_variety(2, m)
        coeffs = char_poly(m)
        for i in range(5):
            assert trace(f.blocks[i]) == (-1) ** i * coeffs[i]

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
        # the letter products in int against one Fraction det per entry,
        # on random matrices that are mostly not A (x) I_2; their zero
        # entries, and a zero row in the last trial, give sparse and zero
        # letter images
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
        rep = spectral_chain(model, gromov_closure(f, model.h))
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

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_isometry_check_is_the_fraction_oracle_on_random_lattices(
        self, data
    ):
        # a random symmetric gram with q_00 > 0 (so [1, 0, ...] is ample),
        # a product of reflections in vectors v with v^T q v != 0, which are
        # isometries, and perhaps one entry of it perturbed: the pullback
        # check accepts g exactly when g^T q g = q in Fractions
        rank = data.draw(st.integers(1, 3))
        small = st.fractions(min_value=-3, max_value=3, max_denominator=3)
        q = [[None] * rank for _ in range(rank)]
        for i in range(rank):
            for j in range(i, rank):
                q[i][j] = q[j][i] = data.draw(small)
        q[0][0] = data.draw(st.fractions(min_value=Fraction(1, 3),
                                         max_value=3, max_denominator=3))
        q = as_matrix(q)
        g = as_matrix([[int(i == j) for j in range(rank)]
                       for i in range(rank)])
        for _ in range(data.draw(st.integers(0, 2))):
            v = data.draw(st.lists(small, min_size=rank, max_size=rank))
            qv = [sum(q[i][j] * v[j] for j in range(rank)) for i in range(rank)]
            norm = sum(x * y for x, y in zip(v, qv))
            if norm:
                reflection = [[int(i == j) - 2 * v[i] * qv[j] / norm
                               for j in range(rank)] for i in range(rank)]
                g = mat_mul(reflection, g)
        g = [list(row) for row in g]
        if data.draw(st.booleans()):
            i, j = data.draw(st.tuples(st.integers(0, rank - 1),
                                       st.integers(0, rank - 1)))
            g[i][j] += data.draw(small.filter(bool))
        ample = [1] + [0] * (rank - 1)
        if mat_mul(mat_mul(transpose(as_matrix(g)), q), as_matrix(g)) == q:
            model, pull = surface_lattice(q, g, ample)
            assert pull.blocks[2] == as_matrix(g)
        else:
            with pytest.raises(NotIsometry) as info:
                surface_lattice(q, g, ample)
            assert str(info.value) == "isometry does not preserve the gram matrix"

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
        rc = spectral_chain(custom, gromov_closure(fc, custom.h))
        rb = spectral_chain(builder, gromov_closure(fb, builder.h))
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
        assert fraction_det(gram_matrix(model.algebra, 2)) == 0
        rep = spectral_chain(model, gromov_closure(f, model.h))
        assert rep.chain_holds

    def test_h_negative_on_an_effective_class_is_rejected(self):
        # on the P^2 re-encoding, h = x meets the effective class -x in -1:
        # deg(X) = 1 > 0, yet no ample class is negative on an effective one
        params = {**p2_custom_params(),
                  "effective": [{"label": "minus line", "degree": 2,
                                 "coords": [-1]}]}
        with pytest.raises(AmpleNotPositive, match="'minus line' is -1"):
            custom_model(params)
        params["effective"][0]["coords"] = [1]
        assert custom_model(params).deg_x == 1


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

    def test_every_builder_h_is_positive_on_its_effective_classes(self):
        # the Nakai-Moishezon condition that EmbeddedModel.validate checks,
        # with the pairing read off the Fraction product instead
        models = [model for _, model, _ in builder_battery()]
        models += [abelian_variety(3, [[int(i == j) for j in range(6)]
                                      for i in range(6)])[0],
                   multiprojective([1, 1, 1, 1, 1])]
        for model in models:
            assert model.effective, model.provenance
            for e in model.effective:
                degree = e.element.degree()
                if degree % 2:
                    continue
                power = model.algebra.power(model.h, model.r - degree // 2)
                assert pair_by_product(model.algebra, power, e.element) > 0, (
                    model.provenance, e.label)

    def test_degree_is_the_integral_of_h_to_the_r(self):
        for name, model, _ in builder_battery():
            alg = model.algebra
            assert model.deg_x == alg.integrate(alg.power(model.h, model.r)), name
