import itertools
import math
import random
from fractions import Fraction

import pytest

from dyndeg.core import ScaledTable
from dyndeg.endo import PullbackMap, identity_map
from dyndeg.errors import ShapeMismatch
from dyndeg.gromov import (
    GromovSubalgebra, gromov_closure, lambda_gr, spectral_chain,
)
from dyndeg.models import (
    elliptic_square,
    multiprojective,
    pn_power_map,
    product_map,
    projective_space,
    surface_lattice,
)

from support import (
    FractionEchelon,
    builder_battery,
    random_valid_pullbacks,
    replay_certificates,
)

PHI_SQUARED = 2.618033988749895  # (3 + sqrt 5) / 2, from the quadratic formula


class TestGromovClosure:
    def test_pn_power_map_generates_everything(self):
        model = projective_space(3)
        f = pn_power_map(model, 2)
        closure = gromov_closure(model.algebra, f, model.h)
        assert closure.dimension == 4
        assert closure.dims_by_degree == (1, 0, 1, 0, 1, 0, 1)
        assert closure.verify_certificates()

    def test_product_swap_closure_is_full(self):
        model = multiprojective([1, 1])
        f = product_map(model, [2, 3], [1, 0])
        closure = gromov_closure(model.algebra, f, model.h)
        assert closure.dimension == 4
        # f* omega = 3h1 + 2h2 is independent of omega; products fill degree 4
        assert closure.dims_by_degree == (1, 0, 2, 0, 1)
        assert closure.verify_certificates()

    def test_isometry_fixing_ample_closes_on_powers(self):
        # the hyperbolic swap fixes (1,1), so the closure is 1, omega, omega^2
        model, f = surface_lattice([[0, 1], [1, 0]], [[0, 1], [1, 0]], [1, 1])
        closure = gromov_closure(model.algebra, f, model.h)
        assert closure.dimension == 3
        assert closure.dims_by_degree == (1, 0, 1, 0, 1)

    def test_requires_degree_two_homogeneous_seed(self):
        model = projective_space(2)
        f = pn_power_map(model, 2)
        with pytest.raises(ShapeMismatch):
            gromov_closure(model.algebra, f, model.algebra.one())

    def test_monotone_and_bounded_sweeps(self):
        for name, model, f in [
            ("p3", projective_space(3), None),
            ("p1p1", multiprojective([1, 1]), None),
        ]:
            f = pn_power_map(model, 2) if name == "p3" else product_map(
                model, [2, 3], [1, 0]
            )
            closure = gromov_closure(model.algebra, f, model.h)
            assert closure.sweeps <= model.algebra.dimension + 1

    def test_result_is_a_fixed_point(self):
        model = multiprojective([1, 1])
        f = product_map(model, [2, 3], [1, 0])
        closure = gromov_closure(model.algebra, f, model.h)
        ech = FractionEchelon(model.algebra.dimension)

        def flat(element):
            return [x for piece in element.coords for x in piece]

        for i, b in enumerate(closure.basis):
            ech.insert(flat(b), {i: Fraction(1)})
        for b in closure.basis:
            assert ech.contains(flat(f.apply(b)))
            for c in closure.basis:
                assert ech.contains(flat(model.algebra.mul(b, c)))

    def test_order_independence_of_canonical_basis(self):
        model = multiprojective([1, 1])
        f = product_map(model, [2, 3], [1, 0])
        fwd = gromov_closure(model.algebra, f, model.h, sweep_order="forward")
        rev = gromov_closure(model.algebra, f, model.h, sweep_order="reversed")
        assert fwd.basis == rev.basis
        assert fwd.restricted_matrix == rev.restricted_matrix
        assert rev.verify_certificates()

    def test_restricted_matrix_blocks(self):
        model = multiprojective([1, 1])
        f = product_map(model, [2, 3], [1, 0])
        closure = gromov_closure(model.algebra, f, model.h)
        blocks = dict(closure.degree_blocks())
        assert blocks[0] == ((1,),)
        assert blocks[4] == ((6,),)
        assert sorted(x for row in blocks[2] for x in row) == [0, 0, 2, 3]


class TestClosureWork:
    def test_each_generator_and_pair_is_visited_once(self, monkeypatch):
        # one pullback per generator plus one per restricted-matrix column;
        # one product per generator pair i <= j within the top degree
        calls = {"pull": 0, "mul": 0}
        apply_scaled, multiply = PullbackMap.apply_scaled, ScaledTable.multiply

        def pull(self, *args):
            calls["pull"] += 1
            return apply_scaled(self, *args)

        def mul(self, *args):
            calls["mul"] += 1
            return multiply(self, *args)

        monkeypatch.setattr(PullbackMap, "apply_scaled", pull)
        monkeypatch.setattr(ScaledTable, "multiply", mul)
        for name, model, f in builder_battery():
            for order in ("forward", "reversed"):
                calls.update(pull=0, mul=0)
                closure = gromov_closure(model.algebra, f, model.h,
                                         sweep_order=order)
                dims, top = closure.dims_by_degree, model.algebra.top_degree
                pairs = sum(
                    dims[d] * (dims[d] + 1) // 2 if d == e else dims[d] * dims[e]
                    for d in range(top + 1) for e in range(d, top + 1 - d)
                )
                assert calls == {"pull": 2 * closure.dimension,
                                 "mul": pairs}, (name, order)

    def test_degree_blocks_follow_the_basis_degrees(self):
        for name, model, f in builder_battery():
            closure = gromov_closure(model.algebra, f, model.h)
            m = closure.restricted_matrix
            expected, start = [], 0
            for degree, group in itertools.groupby(
                b.degree() for b in closure.basis
            ):
                stop = start + len(list(group))
                expected.append((degree, tuple(
                    tuple(m[i][j] for j in range(start, stop))
                    for i in range(start, stop)
                )))
                start = stop
            assert closure.degree_blocks() == expected, name


class TestLambdaGr:
    def test_p2_degree_two(self):
        model = projective_space(2)
        closure = gromov_closure(model.algebra, pn_power_map(model, 2), model.h)
        rho, err = lambda_gr(closure)
        assert rho == pytest.approx(4.0, abs=1e-9)

    def test_identity_map(self):
        model = multiprojective([1, 1])
        closure = gromov_closure(model.algebra, identity_map(model.algebra), model.h)
        rho, _ = lambda_gr(closure)
        assert rho == pytest.approx(1.0, abs=1e-12)

    def test_product_swap_max_over_blocks(self):
        # degree-2 block has radius sqrt(6); degree 4 acts by 6; max is 6
        model = multiprojective([1, 1])
        closure = gromov_closure(
            model.algebra, product_map(model, [2, 3], [1, 0]), model.h
        )
        rho, _ = lambda_gr(closure)
        assert rho == pytest.approx(6.0, abs=1e-9)
        deg2 = dict(closure.degree_blocks())[2]
        from dyndeg.spectral import spectral_radius

        assert spectral_radius(deg2)[0] == pytest.approx(math.sqrt(6), abs=1e-9)


class TestSpectralChain:
    def test_p2_degree_two_equality(self):
        model = projective_space(2)
        rep = spectral_chain(model.algebra, pn_power_map(model, 2), model.h)
        assert rep.lambda_gr == pytest.approx(4.0, abs=1e-9)
        assert rep.max_lambda == pytest.approx(4.0, abs=1e-9)
        assert rep.max_mu == pytest.approx(4.0, abs=1e-9)
        assert rep.chain_holds and rep.equality_holds and rep.equality_asserted

    def test_identity_chain_is_all_ones(self):
        model = multiprojective([1, 1])
        rep = spectral_chain(model.algebra, identity_map(model.algebra), model.h)
        assert rep.lambda_gr == pytest.approx(1.0, abs=1e-12)
        assert all(v in (0.0, 1.0) for v in rep.mu_by_degree)
        assert rep.max_mu == 1.0 and rep.equality_holds

    def test_elliptic_square_fibonacci_reaches_phi_squared(self):
        model, f = elliptic_square([[1, 1], [1, 0]])
        rep = spectral_chain(model.algebra, f, model.h, tol=1e-9)
        assert rep.lambda_gr == pytest.approx(PHI_SQUARED, abs=1e-6)
        assert rep.max_mu == pytest.approx(PHI_SQUARED, abs=1e-6)
        # the top radius is attained on the middle cohomological degree
        assert rep.mu_by_degree[2] == pytest.approx(PHI_SQUARED, abs=1e-6)
        assert rep.equality_holds and rep.equality_asserted

    def test_lattice_models_never_assert_equality(self):
        model, f = surface_lattice([[1, 0], [0, -2]], [[3, 4], [2, 3]], [1, 0])
        rep = spectral_chain(
            model.algebra, f, model.h,
            realizability=model.realizability, scope_note=model.scope_note,
        )
        assert rep.equality_holds  # informational: true here
        assert not rep.equality_asserted
        assert rep.scope_note

    def test_chain_inequality_on_random_valid_maps(self):
        rng = random.Random(20240811)
        tol = 1e-9
        for name, model, pull in random_valid_pullbacks(rng, 40):
            rep = spectral_chain(model.algebra, pull, model.h, tol=tol)
            slack = tol * max(1.0, rep.max_mu) + 2 * (rep.lambda_gr_error + 1e-12)
            assert rep.lambda_gr <= rep.max_lambda + slack, name
            assert rep.max_lambda <= rep.max_mu + slack, name
            assert rep.chain_holds, name

    def test_verdicts_match_recorded_values(self):
        model, f = elliptic_square([[2, 1], [1, 1]])
        rep = spectral_chain(model.algebra, f, model.h)
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
        return gromov_closure(model.algebra, f, model.h)

    def test_untampered_certificates_verify(self):
        assert self._closure().verify_certificates()

    def test_battery_certificates_replay_with_the_fraction_product(self):
        # verify_certificates multiplies with the closure's own kernel; this
        # replay multiplies with the Fraction basis-pair oracle instead
        for name, model, f in builder_battery():
            for order in ("forward", "reversed"):
                closure = gromov_closure(model.algebra, f, model.h, order)
                assert replay_certificates(closure), (name, order)

    @staticmethod
    def _tampered(closure, basis=None, certificates=None):
        """The closure with its basis or certificates swapped, built through
        the constructor."""
        return GromovSubalgebra(
            closure.algebra, closure.pullback, closure.omega,
            closure.basis if basis is None else basis,
            closure.restricted_matrix, closure.dims_by_degree,
            closure.certificates if certificates is None else certificates,
            closure.sweeps,
        )

    def test_a_tampered_coefficient_is_caught(self):
        closure = self._closure()
        certs = list(closure.certificates)
        i = next(k for k, cert in enumerate(certs) if cert)
        (coeff, word), *rest = certs[i]
        certs[i] = ((coeff + Fraction(1, 3), word), *rest)
        bad = self._tampered(closure, certificates=tuple(certs))
        assert not bad.verify_certificates()

    def test_a_tampered_basis_vector_is_caught(self):
        closure = self._closure()
        basis = list(closure.basis)
        basis[-1] = basis[-1] + closure.algebra.one()
        bad = self._tampered(closure, basis=tuple(basis))
        assert not bad.verify_certificates()

    def test_each_shared_word_is_evaluated_once(self, monkeypatch):
        # on (P^1)^3 the certificate words share subwords: without the memo
        # the replay makes 11 products for 3 distinct product words
        model = multiprojective([1, 1, 1])
        f = product_map(model, [2, 3, 1], [1, 2, 0])
        closure = gromov_closure(model.algebra, f, model.h)
        muls = []
        original = closure.algebra.mul

        def counted(a, b):
            muls.append(1)
            return original(a, b)

        monkeypatch.setattr(closure.algebra, "mul", counted)
        assert closure.verify_certificates()
        seen, distinct = set(), 0

        def walk(word):
            nonlocal distinct
            if id(word) in seen:
                return
            seen.add(id(word))
            distinct += word[0] == "mul"
            for sub in word[1:]:
                walk(sub)

        for cert in closure.certificates:
            for _, word in cert:
                walk(word)
        assert len(muls) == distinct


class TestSharedClosure:
    def test_passed_closure_gives_the_same_report(self):
        model, f = elliptic_square([[2, 1], [1, 1]])
        closure = gromov_closure(model.algebra, f, model.h)
        assert spectral_chain(model.algebra, f, model.h, closure=closure) == (
            spectral_chain(model.algebra, f, model.h)
        )

    def test_a_closure_of_another_map_is_rejected(self):
        model = projective_space(2)
        closure = gromov_closure(
            model.algebra, pn_power_map(model, 2), model.h
        )
        with pytest.raises(ShapeMismatch):
            spectral_chain(
                model.algebra, pn_power_map(model, 3), model.h, closure=closure
            )
