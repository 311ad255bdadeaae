import itertools
import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyndeg import COMMUTATIVE, SUPER_COMMUTATIVE, endo, spectral
from dyndeg.abelian import abelian_variety, elliptic_square, exterior_pullback
from dyndeg.core import _validate, build_algebra, tensor_product
from dyndeg.custom import custom_model
from dyndeg.degrees import delta_table
from dyndeg.endo import _scaled_columns, tensor_pullback, validate_pullback
from dyndeg.errors import (
    AmpleNotPositive,
    MultiplicativityViolation,
    NotIsometry,
    ShapeMismatch,
)
from dyndeg.gromov import gromov_closure, lambda_gr, spectral_chain
from dyndeg.lattice import surface_lattice
from dyndeg.linalg import as_matrix
from dyndeg.models import EmbeddedModel, exterior_algebra
from dyndeg.projective import (
    multiprojective,
    pn_power_map,
    product_map,
    projective_space,
)
from dyndeg.spectral import char_poly

from support import (builder_battery, det_wedge_blocks, fraction_block,
                     fraction_blocks, fraction_det, gram_matrix, lin_comb,
                     mat_mul, monomial_substitution, monomials_by_degree, omega_h,
                     oracle_exterior_algebra,
                     oracle_multiprojective_algebra, oracle_tensor_table,
                     pair_by_product, tensor_factors, times_i2, trace)


def _mixed_factors():
    """Two factors with non-unit units (2 and 1/3), a constant 1/2 and an
    integral 3/2 each: the a and b of the product a (x) b (x) a."""
    half, three_halves = Fraction(1, 2), (Fraction(3, 2),)
    a = build_algebra(2, [1, 2, 1], SUPER_COMMUTATIVE,
                      {((1, 0), (1, 1)): {0: half}}, three_halves, unit=(2,))
    b = build_algebra(4, [1, 0, 1, 0, 1], COMMUTATIVE,
                      {((2, 0), (2, 0)): {0: half}}, three_halves,
                      unit=(Fraction(1, 3),))
    return a, b


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
                assert fraction_blocks(f)[i] == ((1,),)

    def test_degree_zero_map_is_valid_and_non_dominant(self):
        model = projective_space(2)
        f = pn_power_map(model, 0)
        assert fraction_blocks(f)[2] == ((0,),)
        assert fraction_blocks(f)[0] == ((1,),)


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
        with pytest.raises(ShapeMismatch, match=r"must match factor dimensions"):
            product_map(model, [2, 3], [1, 0])

    def test_non_permutations_rejected(self):
        model = multiprojective([1, 1])
        with pytest.raises(ShapeMismatch, match=r"^perm must permute 0\.\.1$"):
            product_map(model, [2, 3], [0, 0])
        with pytest.raises(ShapeMismatch, match=r"^need 2 nonnegative degrees$"):
            product_map(model, [2], [1, 0])

    def test_swap_validates(self):
        model = multiprojective([1, 1])
        f = product_map(model, [2, 3], [1, 0])
        assert fraction_blocks(f)[2] == ((0, 3), (2, 0))

    def test_product_map_on_projective_space_is_its_power_map(self):
        for n in (1, 2, 3):
            model = projective_space(n)
            for d in (0, 2, 3):
                f = product_map(model, [d], [0])
                assert fraction_blocks(f) == fraction_blocks(pn_power_map(model, d))

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

    def test_the_integer_table_is_the_fraction_route(self):
        # the table that tensor_product writes in int against the one read
        # back from Fraction structure constants by _read_table
        algebras = [model.algebra for _, model, _ in builder_battery()]
        algebras += [exterior_algebra(g) for g in (1, 2, 3, 4)]
        for algebra in algebras:
            factors = algebra.factors
            assert tensor_product(*factors).scaled_table == oracle_tensor_table(
                *factors), algebra.dims

    def test_a_mixed_product_is_the_fraction_route(self):
        a, b = _mixed_factors()
        table = tensor_product(a, b, a).scaled_table
        assert table.denominator > 1
        assert table == oracle_tensor_table(a, b, a)

    @pytest.mark.parametrize("g", [1, 2, 3, 4])
    def test_compound_blocks_list_the_subsets_as_the_words(self, g):
        # wedge^k of diag(p_0, ..., p_(2g-1)), distinct primes, is diagonal
        # with the product of the primes of each k-subset: its position in
        # the block is the position of that subset's word
        primes = [2, 3, 5, 7, 11, 13, 17, 19][:2 * g]
        blocks = fraction_blocks(exterior_pullback(exterior_algebra(g), [
            [Fraction(p if i == j else 0) for j, p in enumerate(primes)]
            for i in range(2 * g)]))
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
        images = {(i, (2 * e, 0)): algebra.power(lin_comb((c, h[t])), e)
                  for i, (n, t, c) in enumerate(zip(ns, targets, scalars))
                  for e in range(1, n + 1)}
        assert fraction_blocks(tensor_pullback(algebra, images)) == (
            fraction_blocks(monomial_substitution(model, targets, scalars)))

    @given(data=st.data())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_the_letter_check_accepts_what_the_full_check_accepts(self, data):
        # each slot's letters go to c^deg times the same letters of a slot
        # holding the same factor, a ring map, and then one image may be
        # bumped; the factors include one whose unit is 2.  The letter check
        # must accept exactly when validate_pullback accepts the blocks
        factors = data.draw(st.lists(st.sampled_from(tensor_factors()),
                                     min_size=1, max_size=3))
        algebra = tensor_product(*factors)
        k = len(factors)

        def letter(i, b):
            w = tuple(b if j == i else (0, 0) for j in range(k))
            return algebra.basis_element(b[0], algebra.words[b[0]].index(w))

        images = {}
        for i, factor in enumerate(factors):
            t = data.draw(st.sampled_from(
                [j for j in range(k) if factors[j] is factor]))
            c = data.draw(st.sampled_from([-2, -1, 1, Fraction(1, 2), 3]))
            images.update({(i, b): lin_comb((c ** b[0], letter(t, b)))
                           for b in factor.basis() if b[0]})
        if data.draw(st.booleans()):
            i, b = data.draw(st.sampled_from(sorted(images)))
            bump = data.draw(st.sampled_from(range(algebra.dims[b[0]])))
            images[i, b] = lin_comb(
                (1, images[i, b]), (1, algebra.basis_element(b[0], bump)))
        with mock.patch.object(endo, "_check_multiplicative", lambda *args: None):
            blocks = fraction_blocks(tensor_pullback(algebra, images))
        try:
            validate_pullback(algebra, blocks)
            full = True
        except MultiplicativityViolation:
            full = False
        try:
            assert fraction_blocks(tensor_pullback(algebra, images)) == blocks
            letters = True
        except MultiplicativityViolation:
            letters = False
        assert letters == full

    def test_a_letter_image_that_breaks_a_relation_is_rejected(self):
        # x_0 -> x_0 + x_1 on (P^1)^2 builds, but (x_0 + x_1)^2 = 2 x_0 x_1
        # while x_0^2 = 0
        algebra = multiprojective([1, 1]).algebra
        x0, x1 = algebra.basis_element(2, 0), algebra.basis_element(2, 1)
        with pytest.raises(MultiplicativityViolation):
            tensor_pullback(algebra, {(0, (2, 0)): lin_comb((1, x0), (1, x1)),
                                      (1, (2, 0)): x1})

    @staticmethod
    def _p1xp1():
        algebra = multiprojective([1, 1]).algebra
        return algebra, algebra.basis_element(2, 0), algebra.basis_element(2, 1)

    def test_an_image_with_a_unit_part_is_rejected(self):
        # x_0 -> x_0 + 1 is no degree-2 image; its unit part is not dropped
        algebra, x0, x1 = self._p1xp1()
        with pytest.raises(ShapeMismatch, match=r"letter \(0, \(2, 0\)\)"):
            tensor_pullback(algebra, {
                (0, (2, 0)): lin_comb((1, x0), (1, algebra.one())),
                (1, (2, 0)): x1})

    def test_an_image_of_another_degree_is_rejected(self):
        # x_0 -> x_0 x_1 lies in degree 4, not 2; it is not read as x_0 -> 0
        algebra, x0, x1 = self._p1xp1()
        with pytest.raises(ShapeMismatch, match=r"letter \(0, \(2, 0\)\)"):
            tensor_pullback(algebra, {(0, (2, 0)): algebra.mul(x0, x1),
                                      (1, (2, 0)): x1})

    def test_a_letter_with_no_image_is_rejected(self):
        algebra, x0, _ = self._p1xp1()
        with pytest.raises(ShapeMismatch, match=r"letter \(1, \(2, 0\)\)"):
            tensor_pullback(algebra, {(0, (2, 0)): x0})

    def test_a_key_that_names_no_letter_is_rejected(self):
        # (P^1)^2 has no third slot; the key is not ignored
        algebra, x0, x1 = self._p1xp1()
        with pytest.raises(ShapeMismatch, match=r"key \(2, \(2, 0\)\)"):
            tensor_pullback(algebra, {(0, (2, 0)): x0, (1, (2, 0)): x1,
                                      (2, (2, 0)): x0})

    def test_the_columns_are_the_scaled_validated_blocks(self):
        # the integer columns, with their lowest-terms D, against
        # validate_pullback's scaling of the Fraction view
        maps = [pull for _, _, pull in builder_battery()]
        maps.append(exterior_pullback(exterior_algebra(2), [
            [Fraction(1, 2), 1, 0, 0], [0, Fraction(-2, 3), 0, 1],
            [1, 0, 3, 0], [0, 0, Fraction(1, 4), 1]]))
        a, b = _mixed_factors()
        algebra = tensor_product(a, b, a)

        def letter(i, x):
            w = tuple(x if j == i else (0, 0) for j in range(3))
            return algebra.basis_element(x[0], algebra.words[x[0]].index(w))

        # swap the two copies of a, scaling degree d by (1/2)^d, and scale
        # b's degree d by 3^d: a ring map with rational images
        maps.append(tensor_pullback(algebra, {
            (i, x): lin_comb((c ** x[0], letter(t, x)))
            for i, t, c, factor in ((0, 2, Fraction(1, 2), a), (1, 1, 3, b),
                                    (2, 0, Fraction(1, 2), a))
            for x in factor.basis() if x[0]}))
        assert maps[-1].scaled_blocks[0] > 1 and maps[-2].scaled_blocks[0] > 1
        for pull in maps:
            assert validate_pullback(
                pull.algebra, fraction_blocks(pull)).scaled_blocks == pull.scaled_blocks

    def test_a_block_is_the_view_of_its_degree(self):
        # the tests' Fraction view scales back to the stored columns
        for name, _, pull in builder_battery():
            blocks = fraction_blocks(pull)
            assert len(blocks) == pull.algebra.top_degree + 1, name
            assert _scaled_columns(blocks) == pull.scaled_blocks, name
            for k, block in enumerate(blocks):
                assert fraction_block(pull, k) == block, (name, k)

    def test_exterior_pullback_takes_only_an_exterior_algebra(self):
        # P^2, and the exterior algebra on two classes written out by hand:
        # neither is a tensor product of exterior algebras on one class
        with pytest.raises(ShapeMismatch, match="exterior_algebra"):
            exterior_pullback(projective_space(2).algebra, [])
        with pytest.raises(ShapeMismatch, match="exterior_algebra"):
            exterior_pullback(oracle_exterior_algebra(1), [[1, 0], [0, 1]])


class TestFractionCount:
    """The tensor builders write their tables and maps in int: a
    deterministic guard on the ``Fraction`` objects that they construct."""

    @staticmethod
    def _fractions_built(monkeypatch, build) -> int:
        new, count = Fraction.__new__, [0]

        def counting(cls, *args, **kwargs):
            count[0] += 1
            return new(cls, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(Fraction, "__new__", staticmethod(counting))
            build()
        return count[0]

    def test_the_g4_algebra_and_map_build_few_fractions(self, monkeypatch):
        # 19 and 76 on CPython 3.11; the Fraction route built 3,865 and
        # 12,946.  ``__wrapped__`` builds past the cache, as a cleared one
        assert self._fractions_built(
            monkeypatch, lambda: exterior_algebra.__wrapped__(4)) < 100
        a = [[2, 1, 0, 0], [1, 1, 1, 0], [0, 1, 3, 1], [1, 0, 0, 2]]
        exterior_algebra(4)
        assert self._fractions_built(
            monkeypatch, lambda: abelian_variety(4, times_i2(a))) < 200

    def test_the_g4_chain_reads_only_the_degree_1_block(self, monkeypatch):
        # 226 on CPython 3.11; the Fraction view of every block built 2,910
        a = [[2, 1, 0, 0], [1, 1, 1, 0], [0, 1, 2, 1], [0, 0, 1, 1]]
        model, pull = abelian_variety(4, times_i2(a))
        closure = gromov_closure(pull, model.h)
        lambda_gr(closure)
        assert self._fractions_built(
            monkeypatch, lambda: spectral_chain(model, closure)) < 500

    def test_the_g4_closure_its_replay_and_its_polynomials_build_none(
            self, monkeypatch):
        # 602, 567 and 47 on CPython 3.11 when the blocks were Fraction
        # coordinates, the replay summed Fraction multiples and a
        # polynomial came from a Fraction matrix
        a = [[2, 1, 0, 0], [1, 1, 1, 0], [0, 1, 3, 1], [1, 0, 0, 2]]
        model, pull = abelian_variety(4, times_i2(a))
        closures = []
        assert self._fractions_built(monkeypatch, lambda: closures.append(
            gromov_closure(pull, model.h))) == 0
        (closure,) = closures
        assert self._fractions_built(
            monkeypatch, closure.verify_certificates) == 0
        assert closure.verify_certificates()
        assert self._fractions_built(monkeypatch, lambda: [
            spectral._scaled_poly(den, block)
            for _, (den, block) in closure.blocks]) == 0
        # 184 here, against 231 on the Fraction blocks: what is left is
        # the certifier's own, past its cache
        spectral._max_root_modulus.cache_clear()
        assert self._fractions_built(monkeypatch, lambda: lambda_gr(closure)) < 200


class TestAbelianVariety:
    def test_identity_has_unit_radii(self):
        model, f = abelian_variety(1, [[1, 0], [0, 1]])
        rep = spectral_chain(model, gromov_closure(f, model.h))
        assert rep.max_mu == pytest.approx(1.0, abs=1e-12)

    def test_multiplication_by_two_on_rank_one(self):
        model, f = abelian_variety(1, [[2, 0], [0, 2]])
        from dyndeg.spectral import spectral_radius

        assert spectral_radius(fraction_blocks(f)[1])[0] == pytest.approx(2.0, abs=1e-9)
        assert spectral_radius(fraction_blocks(f)[2])[0] == pytest.approx(4.0, abs=1e-9)

    def test_graded_traces_are_elementary_symmetric_functions(self):
        # char(M) = x^n - e1 x^{n-1} + e2 x^{n-2} - ..., and the degree-i
        # trace of the exterior lift is e_i of M's eigenvalues
        m = [[1, 1, 0, 0], [1, 0, 0, 0], [0, 0, 2, 1], [0, 0, 0, 1]]
        model, f = abelian_variety(2, m)
        coeffs = char_poly(m)
        for i in range(5):
            assert trace(fraction_blocks(f)[i]) == (-1) ** i * coeffs[i]

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
        with pytest.raises(AmpleNotPositive, match=r"^omega\^g = 0: not a valid"):
            abelian_variety(2, [[1, 0, 0, 0], [0, 1, 0, 0],
                                [0, 0, 1, 0], [0, 0, 0, 1]],
                            omega={(0, 1): 1, (0, 2): 0})

    @pytest.mark.parametrize("g, omega", [
        # e_0^e_2 - e_1^e_3, in wedge^2 V (x) Sym^2 W: deg(X) = 2, no
        # divisor class
        (2, {(0, 2): 1, (1, 3): -1}),
        # omega_H for H = diag(1, -1, -1): deg(X) = 6 det H > 0, not ample
        (3, {(0, 1): 1, (2, 3): -1, (4, 5): -1}),
        # omega_I plus e_0^e_3 + e_1^e_2, whose wedge^2 V (x) Sym^2 W part
        # is nonzero
        (2, {(0, 1): 1, (2, 3): 1, (0, 3): 1, (1, 2): 1}),
    ])
    def test_an_omega_that_is_no_ample_class_is_refused(self, g, omega):
        identity = [[int(i == j) for j in range(2 * g)] for i in range(2 * g)]
        with pytest.raises(AmpleNotPositive, match="omega is not ample"):
            abelian_variety(g, identity, omega=omega)

    def test_validate_judges_a_hand_built_abelian_model(self):
        # the builder's rule lives in EmbeddedModel.validate: a model built
        # on exterior_algebra(2) with e_0^e_2 - e_1^e_3 is refused when
        # asserted, and left alone when unverified
        algebra = exterior_algebra(2)
        model, _ = abelian_variety(2, [[int(i == j) for j in range(4)]
                                       for i in range(4)])
        h = algebra.homogeneous(2, [0, 1, 0, 0, -1, 0])
        for tag in ("asserted", "unverified"):
            hand = EmbeddedModel(algebra, h, model.ambient_dim, tag)
            if tag == "asserted":
                with pytest.raises(AmpleNotPositive, match="omega is not ample"):
                    hand.validate()
            else:
                assert hand.validate() is hand

    def test_a_random_ample_omega_keeps_the_equality(self):
        # H = L L^T with L lower triangular of nonzero diagonal is positive
        # definite, so omega_H is ample; with the asserted A (x) I_2, every
        # draw is asserted and the equality holds
        rng = random.Random(21)
        for g in (1, 2, 3) * 10:
            low = [[rng.randint(-3, 3) if j < i else rng.choice((-2, -1, 1, 2))
                     if j == i else 0 for j in range(g)] for i in range(g)]
            h = [[sum(x * y for x, y in zip(low[i], low[j]))
                  for j in range(g)] for i in range(g)]
            a = [[rng.randint(-3, 3) for _ in range(g)] for _ in range(g)]
            model, f = abelian_variety(g, times_i2(a), omega=omega_h(h))
            report = spectral_chain(model, gromov_closure(f, model.h))
            assert report.equality_asserted, (g, h, a)
            assert report.equality_holds, (g, h, a)

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
            assert fraction_blocks(pull) == det_wedge_blocks(m), trial


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
        assert char_poly(fraction_blocks(f)[2]) == [1, -6, 1]
        from dyndeg.spectral import spectral_radius

        assert spectral_radius(fraction_blocks(f)[2])[0] == pytest.approx(
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
            return mat_mul(mat_mul(tuple(zip(*g)), q), g) == q

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
        if mat_mul(mat_mul(tuple(zip(*as_matrix(g))), q), as_matrix(g)) == q:
            model, pull = surface_lattice(q, g, ample)
            assert fraction_blocks(pull)[2] == as_matrix(g)
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
    """``tensor_product`` and ``tensor_pullback`` trust their validated
    factors and check only each factor's letters; these tests run the full
    checks that they skip on what they build."""

    def test_every_builder_map_revalidates(self):
        maps = [(name, pull) for name, _, pull in builder_battery()]
        rng = random.Random(32)
        for g in (1, 2, 3):
            for trial in range(3):
                m = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                      for _ in range(2 * g)] for _ in range(2 * g)]
                maps.append((f"exterior g={g} #{trial}",
                             exterior_pullback(exterior_algebra(g), m)))
        for name, pull in maps:
            revalidated = validate_pullback(
                pull.algebra, [list(map(list, b)) for b in fraction_blocks(pull)]
            )
            assert fraction_blocks(revalidated) == fraction_blocks(pull), name

    def test_the_tensor_builders_run_neither_full_check(self):
        factors = [projective_space(n).algebra for n in (1, 2)]
        model, exterior = multiprojective([1, 1]), exterior_algebra(2)
        with mock.patch("dyndeg.core._validate", side_effect=AssertionError), \
                mock.patch.object(endo, "validate_pullback",
                                  side_effect=AssertionError):
            tensor_product(*factors)
            product_map(model, [2, 3], [1, 0])
            exterior_pullback(exterior, [[1, 1, 0, 0], [0, 1, 0, 0],
                                         [0, 0, 1, 0], [0, 0, 0, 1]])

    def test_every_tensor_algebra_revalidates(self):
        algebras = [model.algebra for _, model, _ in builder_battery()
                    if len(model.algebra.factors) > 1]
        algebras += [exterior_algebra(g) for g in (1, 2, 3, 4)]
        assert len(algebras) > 4
        for algebra in algebras:
            _validate(algebra)

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
