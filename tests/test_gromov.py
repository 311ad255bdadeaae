import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyndeg import gromov, spectral
from dyndeg.abelian import abelian_variety, elliptic_square
from dyndeg.core import GradedAlgebra
from dyndeg.custom import custom_model
from dyndeg.endo import PullbackMap, identity_map, validate_pullback
from dyndeg.errors import ShapeMismatch
from dyndeg.gromov import (
    GromovSubalgebra, gromov_closure, lambda_gr, spectral_chain,
)
from dyndeg.lattice import surface_lattice
from dyndeg.linalg import Echelon
from dyndeg.projective import (
    multiprojective,
    pn_power_map,
    product_map,
    projective_space,
)

from support import (
    FractionEchelon,
    builder_battery,
    closure_blocks,
    coords,
    lin_comb,
    random_valid_pullbacks,
    replay_certificates,
    replay_words,
    run_config,
)

PHI_SQUARED = 2.618033988749895  # (3 + sqrt 5) / 2, from the quadratic formula


class TestGromovClosure:
    def test_pn_power_map_generates_everything(self):
        model = projective_space(3)
        f = pn_power_map(model, 2)
        closure = gromov_closure(f, model.h)
        assert closure.dimension == 4
        assert closure.dims_by_degree == (1, 0, 1, 0, 1, 0, 1)
        assert closure.verify_certificates()

    def test_product_swap_closure_is_full(self):
        model = multiprojective([1, 1])
        f = product_map(model, [2, 3], [1, 0])
        closure = gromov_closure(f, model.h)
        assert closure.dimension == 4
        # f* omega = 3h1 + 2h2 is independent of omega; products fill degree 4
        assert closure.dims_by_degree == (1, 0, 2, 0, 1)
        assert closure.verify_certificates()

    def test_isometry_fixing_ample_closes_on_powers(self):
        # the hyperbolic swap fixes (1,1), so the closure is 1, omega, omega^2
        model, f = surface_lattice([[0, 1], [1, 0]], [[0, 1], [1, 0]], [1, 1])
        closure = gromov_closure(f, model.h)
        assert closure.dimension == 3
        assert closure.dims_by_degree == (1, 0, 1, 0, 1)

    def test_requires_degree_two_homogeneous_seed(self):
        model = projective_space(2)
        f = pn_power_map(model, 2)
        with pytest.raises(ShapeMismatch):
            gromov_closure(f, model.algebra.one())

    def test_monotone_and_bounded_sweeps(self):
        for name, model, f in [
            ("p3", projective_space(3), None),
            ("p1p1", multiprojective([1, 1]), None),
        ]:
            f = pn_power_map(model, 2) if name == "p3" else product_map(
                model, [2, 3], [1, 0]
            )
            closure = gromov_closure(f, model.h)
            assert closure.sweeps <= sum(model.algebra.dims) + 1

    def test_result_is_a_fixed_point(self):
        model = multiprojective([1, 1])
        f = product_map(model, [2, 3], [1, 0])
        closure = gromov_closure(f, model.h)
        ech = FractionEchelon(sum(model.algebra.dims))

        def flat(element):
            return [x for piece in coords(element) for x in piece]

        for i, b in enumerate(closure.basis):
            ech.insert(flat(b), {i: Fraction(1)})
        for b in closure.basis:
            assert ech.contains(flat(f.apply(b)))
            for c in closure.basis:
                assert ech.contains(flat(model.algebra.mul(b, c)))

    def test_restricted_matrix_blocks(self):
        model = multiprojective([1, 1])
        f = product_map(model, [2, 3], [1, 0])
        closure = gromov_closure(f, model.h)
        blocks = dict(closure_blocks(closure))
        assert blocks[0] == ((1,),)
        assert blocks[4] == ((6,),)
        assert sorted(x for row in blocks[2] for x in row) == [0, 0, 2, 3]


class TestClosureWork:
    # per battery member, the pullbacks and products the closure computes,
    # besides the one pullback per column of a block; a scan of every
    # generator and every pair within the top degree made (dim, pairs) of
    # them, e.g. (9, 28) on P^2 x P^2
    WORK = {
        "P1 d=0": (0, 0), "P1 d=1": (0, 0), "P1 d=2": (0, 0), "P1 d=3": (0, 0),
        "P2 d=0": (0, 1), "P2 d=1": (0, 1), "P2 d=2": (0, 1), "P2 d=3": (0, 1),
        "P3 d=0": (0, 2), "P3 d=1": (0, 2), "P3 d=2": (0, 2), "P3 d=3": (0, 2),
        "P1xP1 swap(2,3)": (1, 1),
        "P2xP2 swap(1,3)": (2, 6),
        "P1^3 cycle(2,3,1)": (3, 5),
        "ExE fibonacci": (2, 3),
        "ExE doubling": (1, 2),
        "Pell surface": (1, 1),
        "U-lattice swap": (1, 2),
    }

    def test_no_candidate_is_computed_into_a_full_degree(self, monkeypatch):
        # each pullback or product the closure computes lands at most in the
        # top degree, in a piece the span does not fill yet, and no
        # generator or pair is visited twice
        echelons = []

        class Recording(Echelon):
            def __init__(self, width):
                super().__init__(width)
                echelons.append(self)

        pulls, muls = [], []
        apply, mul = PullbackMap.apply, GradedAlgebra.mul

        def full(algebra, degree):
            """Whether the live closure can no longer grow in ``degree``:
            the rank of that degree's echelon form, one per degree in order."""
            if degree > algebra.top_degree:
                return True
            return len(echelons[degree].pivots) == algebra.dims[degree]

        def counted_apply(self, a):
            pulls.append((a, id(a), full(self.algebra, a.degree())))
            return apply(self, a)

        def counted_mul(self, a, b):
            muls.append(((id(a), id(b)), full(self, a.degree() + b.degree())))
            return mul(self, a, b)

        battery = builder_battery()
        assert sorted(self.WORK) == sorted(name for name, _, _ in battery)
        monkeypatch.setattr(gromov, "Echelon", Recording)
        monkeypatch.setattr(PullbackMap, "apply", counted_apply)
        monkeypatch.setattr(GradedAlgebra, "mul", counted_mul)
        for name, model, f in battery:
            pulls.clear()
            muls.clear()
            echelons.clear()
            closure = gromov_closure(f, model.h)
            assert [e.width for e in echelons] == list(model.algebra.dims)
            # the blocks pull back each basis vector last
            n = len(pulls) - closure.dimension
            assert [a for a, _, _ in pulls[n:]] == list(closure.basis)
            visited = [(key, full) for _, key, full in pulls[:n]]
            assert (n, len(muls)) == self.WORK[name], name
            for keys in (visited, muls):
                assert not any(was_full for _, was_full in keys), name
                assert len({key for key, _ in keys}) == len(keys)


class TestRandomClosures:
    # a seed and a family of ``random_valid_pullbacks``: power maps with
    # rational scalars, monomial substitutions, exterior lifts of rational
    # matrices, and isometries of the U and Pell lattices
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 4))
    def test_the_closure_is_a_graded_fixed_point_with_its_blocks(
        self, seed, family
    ):
        (name, model, f), = itertools.islice(
            random_valid_pullbacks(random.Random(seed), family + 1),
            family, None)
        algebra = model.algebra
        closure = gromov_closure(f, model.h)

        # homogeneous, sorted by degree, and in RREF within each degree
        by_degree = {}
        for b in closure.basis:
            by_degree.setdefault(b.degree(), []).append(b)
        degrees = [b.degree() for b in closure.basis]
        assert degrees == sorted(degrees), name
        assert closure.dims_by_degree == tuple(
            len(by_degree.get(d, ())) for d in range(len(algebra.dims))), name
        for degree, vectors in by_degree.items():
            rows = [coords(b)[degree] for b in vectors]
            pivots = [next(k for k, x in enumerate(row) if x) for row in rows]
            assert pivots == sorted(set(pivots)), name
            for i, p in enumerate(pivots):
                assert [row[p] for row in rows] == [
                    int(i == k) for k in range(len(rows))], name

        # the span holds 1 and omega and is closed under f* and products
        def flat(element):
            return [x for piece in coords(element) for x in piece]

        span = FractionEchelon(sum(algebra.dims))
        for i, b in enumerate(closure.basis):
            assert span.insert(flat(b), {i: Fraction(1)}), name
        assert span.contains(flat(algebra.one())), name
        assert span.contains(flat(model.h)), name
        for b in closure.basis:
            assert span.contains(flat(f.apply(b))), name
            for c in closure.basis:
                assert span.contains(flat(algebra.mul(b, c))), name

        # block j-th column: the coordinates of f* of the j-th basis vector
        assert [d for d, _ in closure.blocks] == sorted(by_degree), name
        for degree, block in closure_blocks(closure):
            vectors = by_degree[degree]
            for j, b in enumerate(vectors):
                image = lin_comb(*((row[j], v) for row, v in zip(block, vectors)))
                assert image == f.apply(b), name

        assert replay_certificates(closure), name
        assert closure.verify_certificates(), name


class TestLambdaGr:
    def test_p2_degree_two(self):
        model = projective_space(2)
        closure = gromov_closure(pn_power_map(model, 2), model.h)
        rho, err = lambda_gr(closure)
        assert rho == pytest.approx(4.0, abs=1e-9)

    def test_identity_map(self):
        model = multiprojective([1, 1])
        closure = gromov_closure(identity_map(model.algebra), model.h)
        rho, _ = lambda_gr(closure)
        assert rho == pytest.approx(1.0, abs=1e-12)

    def test_product_swap_max_over_blocks(self):
        # degree-2 block has radius sqrt(6); degree 4 acts by 6; max is 6
        model = multiprojective([1, 1])
        closure = gromov_closure(product_map(model, [2, 3], [1, 0]), model.h)
        rho, _ = lambda_gr(closure)
        assert rho == pytest.approx(6.0, abs=1e-9)
        deg2 = dict(closure_blocks(closure))[2]
        from dyndeg.spectral import spectral_radius

        assert spectral_radius(deg2)[0] == pytest.approx(math.sqrt(6), abs=1e-9)


class TestSpectralChain:
    def test_p2_degree_two_equality(self):
        model = projective_space(2)
        closure = gromov_closure(pn_power_map(model, 2), model.h)
        rep = spectral_chain(model, closure)
        assert rep.lambda_gr == pytest.approx(4.0, abs=1e-9)
        assert rep.max_lambda == pytest.approx(4.0, abs=1e-9)
        assert rep.max_mu == pytest.approx(4.0, abs=1e-9)
        assert rep.chain_holds and rep.equality_holds and rep.equality_asserted

    def test_a_nan_tol_is_rejected(self):
        # NaN passed ``tol <= 0`` and turned both verdicts false
        model = projective_space(2)
        closure = gromov_closure(pn_power_map(model, 2), model.h)
        with pytest.raises(ShapeMismatch, match="tol must be positive"):
            spectral_chain(model, closure, tol=float("nan"))

    def test_identity_chain_is_all_ones(self):
        model = multiprojective([1, 1])
        closure = gromov_closure(identity_map(model.algebra), model.h)
        rep = spectral_chain(model, closure)
        assert rep.lambda_gr == pytest.approx(1.0, abs=1e-12)
        assert all(v in (0.0, 1.0) for v in rep.mu_by_degree)
        assert rep.max_mu == 1.0 and rep.equality_holds

    def test_elliptic_square_fibonacci_reaches_phi_squared(self):
        model, f = elliptic_square([[1, 1], [1, 0]])
        rep = spectral_chain(model, gromov_closure(f, model.h), tol=1e-9)
        assert rep.lambda_gr == pytest.approx(PHI_SQUARED, abs=1e-6)
        assert rep.max_mu == pytest.approx(PHI_SQUARED, abs=1e-6)
        # the top radius is attained on the middle cohomological degree
        assert rep.mu_by_degree[2] == pytest.approx(PHI_SQUARED, abs=1e-6)
        assert rep.equality_holds and rep.equality_asserted

    def test_lattice_models_never_assert_equality(self):
        model, f = surface_lattice([[1, 0], [0, -2]], [[3, 4], [2, 3]], [1, 0])
        rep = spectral_chain(model, gromov_closure(f, model.h))
        assert rep.equality_holds  # informational: true here
        assert not rep.equality_asserted
        assert rep.scope_note

    def test_chain_inequality_on_random_valid_maps(self):
        rng = random.Random(20240811)
        tol = 1e-9
        for name, model, pull in random_valid_pullbacks(rng, 40):
            rep = spectral_chain(model, gromov_closure(pull, model.h), tol=tol)
            slack = tol * max(1.0, rep.max_mu) + 2 * (rep.lambda_gr_error + 1e-12)
            assert rep.lambda_gr <= rep.max_lambda + slack, name
            assert rep.max_lambda <= rep.max_mu + slack, name
            assert rep.chain_holds, name

    def test_only_the_models_own_class_asserts_equality(self):
        # f = (z^2, w^3) on P^1 x P^1: the nef class h_1 is no ample class,
        # and its closure misses the top radius; it keeps its chain, unasserted
        model = multiprojective([1, 1])
        f = product_map(model, [2, 3], [0, 1])
        h1 = model.algebra.homogeneous(2, [1, 0])
        nef = spectral_chain(model, gromov_closure(f, h1))
        assert nef.gromov_dims == (1, 0, 1, 0, 0)
        assert (nef.lambda_gr, nef.max_mu) == (2.0, 6.0)
        assert nef.realizability == "asserted" and not nef.equality_asserted
        own = spectral_chain(model, gromov_closure(f, model.h))
        assert own.equality_asserted and own.equality_holds

    def test_verdicts_match_recorded_values(self):
        model, f = elliptic_square([[2, 1], [1, 1]])
        rep = spectral_chain(model, gromov_closure(f, model.h))
        assert rep.max_lambda == max(rep.lambda_by_codim)
        assert rep.max_mu == max(rep.mu_by_degree)
        assert rep.chain_holds == (
            rep.lambda_gr <= rep.max_lambda + rep.slack(rep.max_lambda)
            and rep.max_lambda <= rep.max_mu + rep.slack(rep.max_mu)
        )
        assert rep.equality_holds == (
            abs(rep.lambda_gr - rep.max_mu) <= rep.slack(rep.max_mu)
        )


class TestCertificateReplay:
    def _closure(self):
        model, f = elliptic_square([[1, 1], [1, 0]])
        return gromov_closure(f, model.h)

    def test_untampered_certificates_verify(self):
        assert self._closure().verify_certificates()

    def test_battery_certificates_replay_with_the_fraction_product(self):
        # verify_certificates multiplies with the closure's own kernel and
        # reads ranks modulo a prime; this replay multiplies with the
        # Fraction basis-pair oracle and compares spans in Fraction
        for name, model, f in builder_battery():
            assert replay_certificates(gromov_closure(f, model.h)), name

    @staticmethod
    def _tampered(closure, basis=None, words=None, omega=None):
        """The closure with its basis, words or ample class swapped, built
        through the constructor."""
        return GromovSubalgebra(
            closure.algebra, closure.pullback,
            closure.omega if omega is None else omega,
            closure.basis if basis is None else basis,
            closure.blocks, closure.dims_by_degree,
            closure.words if words is None else words,
            closure.sweeps,
        )

    @classmethod
    def _mutants(cls, closure):
        """``(kind, closure)`` for each way the certificate is broken that
        applies to ``closure``."""
        algebra, words = closure.algebra, closure.words
        yield "dropped word", cls._tampered(closure, words=words[:-1])
        # one more word of degree 2, f* omega: in the span, but one too many
        yield "word count", cls._tampered(closure, words=(*words, ("pull", 1)))
        later = (*words[:-2], ("pull", len(words) - 1), words[-1])
        yield "later recipe", cls._tampered(closure, words=later)
        # a word repeated in place of a later one of its degree: the counts
        # and the spans' inclusion hold, but the words are dependent
        degrees = [b.degree() for b in replay_words(closure)]
        pairs = [(i, k) for k in range(len(words)) for i in range(k)
                 if degrees[i] == degrees[k]]
        if pairs:
            i, k = pairs[0]
            repeated = (*words[:k], words[i], *words[k + 1:])
            yield "repeated word", cls._tampered(closure, words=repeated)
        for i, b in enumerate(closure.basis):
            d = b.degree()
            pivot = b.pieces[d][0][0]
            basis = list(closure.basis)
            basis[i] = lin_comb((1, b), (1, algebra.basis_element(d, pivot)))
            yield "pivot coordinate", cls._tampered(closure, basis=tuple(basis))
        # a degree-2 class off the closure's span: zero at every pivot there
        pivots = {b.pieces[2][0][0] for b in closure.basis if b.degree() == 2}
        off = [q for q in range(algebra.dims[2]) if q not in pivots]
        if off:
            omega = lin_comb((1, closure.omega),
                             (1, algebra.basis_element(2, off[0])))
            yield "outside the span", cls._tampered(closure, omega=omega)

    @staticmethod
    def _verdict(closure) -> bool:
        try:
            return closure.verify_certificates()
        except ShapeMismatch:  # a recipe naming no earlier one
            return False

    # an exterior map whose closure's degree-2 basis rows have the
    # denominators 1, 6, 4 and 2: the replay's scales L / D_i are not all 1
    MIXED = [[2, -3, 0, 0], [0, 0, 0, 1], [-2, 3, 0, -3], [0, -2, 3, -3]]

    def test_each_mutant_is_rejected_as_the_fraction_replay_rejects_it(self):
        kinds = set()
        mixed = ("mixed denominators", *abelian_variety(2, self.MIXED))
        for name, model, f in (*builder_battery(), mixed):
            closure = gromov_closure(f, model.h)
            assert self._verdict(closure), name
            for kind, bad in self._mutants(closure):
                kinds.add(kind)
                assert not self._verdict(bad), (name, kind)
                assert not replay_certificates(bad), (name, kind)
        assert kinds == {"dropped word", "word count", "later recipe",
                         "repeated word", "pivot coordinate",
                         "outside the span"}

    def test_a_basis_entry_moved_by_two_to_the_minus_eighty_is_caught(self):
        # far below float resolution, so only an exact comparison sees it
        closure = self._closure()
        algebra = closure.algebra
        for i, b in enumerate(closure.basis):
            d = b.degree()
            for q in range(algebra.dims[d]):
                basis = list(closure.basis)
                basis[i] = lin_comb(
                    (1, b), (Fraction(1, 2**80), algebra.basis_element(d, q)))
                bad = self._tampered(closure, basis=tuple(basis))
                assert not bad.verify_certificates(), (i, q)
                assert not replay_certificates(bad), (i, q)

    def test_a_tampered_basis_vector_is_caught(self):
        closure = self._closure()
        basis = list(closure.basis)
        basis[-1] = lin_comb((1, basis[-1]), (1, closure.algebra.one()))
        bad = self._tampered(closure, basis=tuple(basis))
        assert not bad.verify_certificates()
        assert not replay_certificates(bad)

    def test_each_shared_word_is_evaluated_once(self, monkeypatch):
        # on (P^1)^3 the words share sub-words: spelled out as nested
        # words, the replay would make 11 products for 3 "mul" recipes
        model = multiprojective([1, 1, 1])
        f = product_map(model, [2, 3, 1], [1, 2, 0])
        closure = gromov_closure(f, model.h)
        muls = []
        original = closure.algebra.mul

        def counted(a, b):
            muls.append(1)
            return original(a, b)

        monkeypatch.setattr(closure.algebra, "mul", counted)
        assert closure.verify_certificates()
        assert len(muls) == sum(tag == "mul" for tag, *_ in closure.words) == 3

    def test_the_words_are_a_straight_line_program(self):
        # every recipe names only earlier recipes, and each degree holds as
        # many words as basis vectors, so the replay evaluates no idle word
        for name, model, f in builder_battery():
            closure = gromov_closure(f, model.h)
            degrees = []
            for n, (tag, *args) in enumerate(closure.words):
                assert tag in ("one", "omega", "pull", "mul"), name
                assert len(args) == {"pull": 1, "mul": 2}.get(tag, 0), name
                assert all(0 <= i < n for i in args), name
                degrees.append({"one": 0, "omega": 2}.get(
                    tag, sum(degrees[i] for i in args)))
            assert tuple(degrees.count(d) for d in range(
                len(model.algebra.dims))) == closure.dims_by_degree, name

    @pytest.mark.parametrize("recipe, message", [
        (("pull", 2), "names no earlier one"),  # itself
        (("mul", 0, 3), "names no earlier one"),  # a later recipe
        (("pull", -1), "names no earlier one"),
        (("pull", True), "names no earlier one"),
        (("square", 1), "unknown certificate recipe"),
        (("pull", 0, 1), "unknown certificate recipe"),
        ((), "unknown certificate recipe"),
    ])
    def test_a_malformed_recipe_is_rejected(self, recipe, message):
        closure = self._closure()
        assert len(closure.words) > 3
        words = list(closure.words)
        words[2] = recipe
        bad = self._tampered(closure, words=tuple(words))
        with pytest.raises(ShapeMismatch, match=message):
            bad.verify_certificates()


class TestInvertible:
    # the rank test of the pivot matrices: modulo each prime of
    # ``gromov._PRIMES`` in turn, then exactly through ``Echelon``
    @staticmethod
    def _exact_ranks(monkeypatch) -> list:
        """The widths of the ``Echelon`` forms the rank test builds."""
        built = []

        class Recording(Echelon):
            def __init__(self, width):
                super().__init__(width)
                built.append(width)

        monkeypatch.setattr(gromov, "Echelon", Recording)
        return built

    def test_a_determinant_the_first_prime_divides_is_read_by_the_second(
        self, monkeypatch
    ):
        built = self._exact_ranks(monkeypatch)
        p1 = gromov._PRIMES[0]
        assert gromov._invertible([[p1, 0], [0, 1]])
        assert gromov._invertible([[1, 1], [1, 1 + p1]])
        assert built == []

    def test_a_determinant_every_prime_divides_reaches_the_exact_rank(
        self, monkeypatch
    ):
        built = self._exact_ranks(monkeypatch)
        assert gromov._invertible([[math.prod(gromov._PRIMES), 0], [0, 1]])
        assert built == [2]

    def test_a_matrix_singular_over_q_is_rejected(self, monkeypatch):
        built = self._exact_ranks(monkeypatch)
        p1 = gromov._PRIMES[0]
        assert not gromov._invertible([[p1, 2 * p1], [3, 6]])
        assert not gromov._invertible([[1, 0, 0], [0, 0, 0], [0, 0, 1]])
        assert built == [2, 3]


class TestGenericClosure:
    # an 8 x 8 integer map on the abelian variety of dimension 4, drawn row
    # by row from random.Random(3).randint(-3, 3); its closure runs
    # combinations of thousands of bits through the echelon forms
    SHA256 = "fcb78e46cdc301b52c60b047d598c361cccbb308909436f1c5ca5e881bca862b"

    @staticmethod
    def _closure():
        rng = random.Random(3)
        m = [[rng.randint(-3, 3) for _ in range(8)] for _ in range(8)]
        model, f = abelian_variety(4, m)
        return model, gromov_closure(f, model.h)

    @pytest.mark.slow
    def test_a_generic_g4_closure_is_pinned(self):
        # about 1 s on a 2-core VM; run with ``pytest -m slow``
        model, closure = self._closure()
        assert closure.dims_by_degree == (1, 0, 28, 0, 70, 0, 28, 0, 1)
        assert (closure.sweeps, len(closure.words)) == (28, 128)
        assert closure.verify_certificates()
        # the basis, and the blocks by degree, recorded before the echelon
        # forms dropped their per-row combinations
        digest = hashlib.sha256(repr((
            [[str(x) for piece in coords(b) for x in piece]
             for b in closure.basis],
            [(d, [[str(x) for x in row] for row in block])
             for d, block in closure_blocks(closure)],
        )).encode()).hexdigest()
        assert digest == self.SHA256

    @pytest.mark.slow
    def test_the_generic_g4_lambda_gr_route_is_pinned(self):
        # 3.5 to 5 s on a 2-core VM; run with ``pytest -m slow``.  lambda_gr
        # runs each closure block, the middle three 28 x 28, 70 x 70 and
        # 28 x 28, through Berkowitz, the square-free part and the root
        # certifier, while the chain reads every mu off the roots of f*'s
        # degree-1 block alone; the two routes must agree
        model, closure = self._closure()
        chain = spectral_chain(model, closure)
        assert [len(a) for _, (_, a) in closure.blocks] == [1, 28, 70, 28, 1]
        for degree, (den, a) in closure.blocks:
            rho, _ = spectral.scaled_radius(den, a)
            assert rho == pytest.approx(chain.mu_by_degree[degree], rel=1e-12), degree
        assert lambda_gr(closure) == (17127.0, 0.0)
        assert chain.max_mu == pytest.approx(17655.2072315, abs=1e-7)
        assert chain.mu_by_degree.index(chain.max_mu) == 7
        assert chain.chain_holds and not chain.equality_holds


CUSTOM_P2 = {
    "top_degree": 4, "dims": [1, 0, 1, 0, 1], "sign_rule": "commutative",
    "products": [{"a": [2, 0], "b": [2, 0], "value": [[0, 1]]}],
    "integrate": [1], "h": [1], "ambient_dim": 2,
}


def _builder_pair(model_spec, map_spec):
    """The model and map a library caller builds for a config's pair."""
    kind = model_spec["kind"]
    if kind == "projective":
        model = projective_space(model_spec["n"])
        if map_spec["kind"] == "matrices":
            return model, validate_pullback(model.algebra, map_spec["blocks"])
        return model, pn_power_map(model, map_spec["d"])
    if kind == "multiprojective":
        model = multiprojective(model_spec["n"])
        return model, product_map(model, map_spec["d"], map_spec["perm"])
    if kind == "abelian":
        return abelian_variety(model_spec["g"], map_spec["matrix"])
    if kind == "surface_lattice":
        return surface_lattice(model_spec["gram"], map_spec["matrix"],
                               model_spec["ample"])
    model = custom_model({k: v for k, v in model_spec.items() if k != "kind"})
    return model, identity_map(model.algebra)


class TestLibraryAgreesWithCli:
    # (model, map, realizability, equality_asserted) for each builder kind,
    # an unverified map on an asserted model, and custom models
    CASES = [
        ({"kind": "projective", "n": 2}, {"kind": "power", "d": 2},
         "asserted", True),
        ({"kind": "projective", "n": 2},
         {"kind": "matrices", "blocks": [[[1]], [], [[2]], [], [[4]]]},
         "unverified", False),
        ({"kind": "multiprojective", "n": [1, 1]},
         {"kind": "product", "d": [2, 3], "perm": [1, 0]}, "asserted", True),
        ({"kind": "abelian", "g": 1},
         {"kind": "exterior", "matrix": [[2, 0], [0, 2]]}, "asserted", True),
        ({"kind": "abelian", "g": 1},
         {"kind": "exterior", "matrix": [[2, 1], [0, 2]]}, "unverified", False),
        ({"kind": "surface_lattice", "gram": [[1, 0], [0, -2]], "ample": [1, 0]},
         {"kind": "isometry", "matrix": [[3, 4], [2, 3]]},
         "asserted-for-lattice", False),
        # the identity map is asserted, the model it is on is not
        ({"kind": "custom", **CUSTOM_P2}, {"kind": "identity"},
         "unverified", False),
        ({"kind": "custom", **CUSTOM_P2, "realizability": "asserted"},
         {"kind": "identity"}, "asserted", True),
    ]

    @pytest.mark.parametrize("model_spec, map_spec, tag, asserted", CASES)
    def test_realizability_and_verdict_match_the_chain_section(
        self, model_spec, map_spec, tag, asserted,
    ):
        cfg = {"model": model_spec, "map": map_spec, "analyses": ["chain"]}
        section = run_config(cfg)["chain"]
        model, f = _builder_pair(model_spec, map_spec)
        rep = spectral_chain(model, gromov_closure(f, model.h))
        assert (rep.realizability, rep.equality_asserted) == (tag, asserted)
        assert (section["realizability"], section["equality_asserted"]) == (
            tag, asserted)
        assert rep.scope_note == section["scope_note"]

    def test_a_closure_on_another_models_algebra_is_rejected(self):
        model, other = projective_space(2), projective_space(2)
        closure = gromov_closure(pn_power_map(other, 2), other.h)
        with pytest.raises(ShapeMismatch, match="another model's algebra"):
            spectral_chain(model, closure)
