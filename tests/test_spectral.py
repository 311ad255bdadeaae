import hashlib
import json
import math
import os
import pathlib
import random
import subprocess
import sys
import time
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyndeg import spectral
from dyndeg.degrees import _root_of_abs
from dyndeg.errors import ShapeMismatch, SpectralNonconvergence
from dyndeg.estimators import (
    combined_limsup_bound,
    gelfand_sequence,
    limsup_root,
    trace_sequence,
)
from dyndeg.gromov import gromov_closure, lambda_gr, spectral_chain
from dyndeg.linalg import as_matrix
from dyndeg.projective import projective_space
from dyndeg.spectral import char_poly, spectral_radius
from support import (builder_battery, closure_blocks, exterior_char_polys,
                     fraction_block, fraction_blocks, fraction_char_poly,
                     fraction_multiplicities, fraction_squarefree_part,
                     integer_poly, mat_mul, mpmath_max_root_modulus,
                     oracle_exterior_radii, perfbench_workload,
                     scalar_power_pullback, scaled, times_i2, trace)

PHI = (1 + math.sqrt(5)) / 2


class TestCharPoly:
    def test_fibonacci_matrix(self):
        # 2x2 cofactor expansion: x^2 - (tr) x + det = x^2 - x - 1
        assert char_poly([[1, 1], [1, 0]]) == [1, -1, -1]

    def test_identity_cubed(self):
        assert char_poly([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == [1, -3, 3, -1]

    def test_nilpotent(self):
        assert char_poly([[0, 1], [0, 0]]) == [1, 0, 0]

    def test_rational_entries_are_exact(self):
        m = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), Fraction(1, 7)]]
        tr = Fraction(1, 2) + Fraction(1, 7)
        det = Fraction(1, 2) * Fraction(1, 7) - Fraction(1, 3) * Fraction(1, 5)
        assert char_poly(m) == [1, -tr, det]

    def test_empty_matrix(self):
        assert char_poly([]) == [1]

    def test_non_square_rejected(self):
        with pytest.raises(ShapeMismatch):
            char_poly([[1, 2, 3], [4, 5, 6]])


class TestExteriorCharPolys:
    """The oracle ``support.exterior_char_polys`` (power sums and Newton's
    identities) against Berkowitz on every block of the validated
    pullback."""

    @staticmethod
    def _agree(pull):
        polys = exterior_char_polys(fraction_blocks(pull)[1])
        assert len(polys) == len(fraction_blocks(pull))
        for k, block in enumerate(fraction_blocks(pull)):
            assert polys[k] == char_poly(block), k

    @pytest.mark.parametrize("g", [1, 2, 3])
    @pytest.mark.parametrize("rational", [False, True])
    def test_random_exterior_maps(self, g, rational):
        import random

        from dyndeg.abelian import exterior_pullback
        from dyndeg.models import exterior_algebra

        rng = random.Random(f"exterior-polys:{g}:{rational}")
        n = 2 * g
        for trial in range(3):
            m = [[Fraction(rng.randint(-4, 4),
                           rng.randint(1, 6) if rational else 1)
                  for _ in range(n)] for _ in range(n)]
            if trial == 2:  # singular
                m[0] = [Fraction(0)] * n
            if rational:  # at least one entry that is no integer
                m[n - 1][0] += Fraction(1, 3)
            self._agree(exterior_pullback(exterior_algebra(g), m))

    def test_the_shipped_abelian_config(self):
        from dyndeg import cli

        root = pathlib.Path(__file__).resolve().parents[1]
        text = (root / "configs" / "elliptic_square_fibonacci.json").read_text()
        model, pull = cli.build_model_and_map(cli.parse_config(text))
        assert model.algebra.exterior
        self._agree(pull)

    def test_a_matrices_map_on_an_abelian_model(self):
        from dyndeg import cli

        cfg = {"model": {"kind": "abelian", "g": 1},
               "map": {"kind": "matrices",
                       "blocks": [[[1]], [[2, 1], [1, 1]], [[1]]]},
               "analyses": ["chain"]}
        _, pull = cli.build_model_and_map(cli.parse_config(json.dumps(cfg)))
        self._agree(pull)

    @staticmethod
    def _custom_exterior_model():
        """The exterior algebra on two classes as one custom algebra, dims
        [1, 2, 1]: no tensor product of exterior algebras on one class."""
        from dyndeg import SUPER_COMMUTATIVE
        from dyndeg.custom import custom_model

        return custom_model({
            "top_degree": 2, "dims": [1, 2, 1], "sign_rule": SUPER_COMMUTATIVE,
            "products": [{"a": [1, 0], "b": [1, 1], "value": {"0": 1}}],
            "integrate": [1], "h": [1], "ambient_dim": 1})

    def test_only_the_exterior_algebra_is_marked(self):
        from dyndeg import SUPER_COMMUTATIVE, core
        from dyndeg.abelian import exterior_pullback
        from dyndeg.lattice import surface_lattice
        from dyndeg.models import exterior_algebra
        from dyndeg.projective import multiprojective, projective_space

        assert exterior_algebra(2).exterior
        # built by hand, not by exterior_algebra(g): the factors say it
        line = core.build_algebra(1, (1, 1), SUPER_COMMUTATIVE, {},
                                  integrate=(1,))
        algebra = core.tensor_product(line, line)
        assert algebra.exterior
        assert fraction_block(
            exterior_pullback(algebra, [[2, 1], [1, 1]]), 2) == ((1,),)
        lattice, _ = surface_lattice([[1, 0], [0, -2]], [[3, 4], [2, 3]],
                                     [1, 0])
        for model in (projective_space(1), projective_space(2),
                      multiprojective([1, 1]), lattice,
                      self._custom_exterior_model()):
            assert not model.algebra.exterior, model.provenance

    def test_a_custom_exterior_model_keeps_the_per_block_route(
            self, monkeypatch):
        from dyndeg import gromov
        from dyndeg.endo import validate_pullback

        def refuse(*args):
            raise AssertionError("exterior_radii on a custom algebra")

        model = self._custom_exterior_model()
        pull = validate_pullback(model.algebra, [[[1]], [[2, 1], [1, 1]],
                                                 [[1]]])
        monkeypatch.setattr(gromov, "exterior_radii", refuse)
        rep = gromov.spectral_chain(model, gromov_closure(pull, model.h))
        assert rep.mu_by_degree == tuple(
            spectral_radius(block)[0] for block in fraction_blocks(pull))
        assert rep.mu_by_degree[1] == pytest.approx((3 + 5 ** 0.5) / 2)

    @pytest.mark.parametrize("g", [2, 3])
    def test_the_chain_is_the_berkowitz_chain(self, monkeypatch, g):
        from dyndeg.abelian import abelian_variety
        from dyndeg.core import GradedAlgebra
        from dyndeg.gromov import ChainReport, spectral_chain

        a = [[2, 1, 0], [1, 1, 1], [0, 1, 3]]
        model, pull = abelian_variety(g, times_i2([row[:g] for row in a[:g]]))
        fast = spectral_chain(model, gromov_closure(pull, model.h))
        # the flag is a property read off the factors: patched on the class
        monkeypatch.setattr(GradedAlgebra, "exterior",
                            property(lambda self: False))
        slow = spectral_chain(model, gromov_closure(pull, model.h))
        for field in ChainReport._fields:
            assert getattr(slow, field) == getattr(fast, field), field
        assert ((slow.chain_holds, slow.equality_holds)
                == (fast.chain_holds, fast.equality_holds))
        assert 0 < fast.mu_error <= max(slow.mu_error, 1e-9 * fast.max_mu)


def _conjugated(draw, m):
    """``m`` conjugated by two drawn elementary integer matrices I + t E_ij."""
    n = len(m)
    for _ in range(2):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        t = draw(st.integers(-2, 2))
        if i == j or not t:
            continue
        p = [[int(r == c) + (t if (r, c) == (i, j) else 0) for c in range(n)]
             for r in range(n)]
        q = [[int(r == c) - (t if (r, c) == (i, j) else 0) for c in range(n)]
             for r in range(n)]
        m = mat_mul(mat_mul(p, m), q)
    return [list(row) for row in m]


@st.composite
def _exterior_matrices(draw):
    """2g x 2g matrices, g <= 3, with integer or rational entries: generic,
    A (x) I_2 (every eigenvalue repeated), singular, rotation blocks
    [[a, -b], [b, a]] (conjugate pairs, moduli that tie) and blocks
    [[0, c], [1, 0]] (eigenvalue pairs +-sqrt(c)), each conjugated by
    elementary integer matrices."""
    g = draw(st.integers(1, 3))
    n = 2 * g
    den = draw(st.sampled_from((1, 1, 2, 3)))
    entry = st.integers(-3, 3).map(lambda x: Fraction(x, den))
    kind = draw(st.sampled_from(
        ("generic", "kron", "singular", "rotation", "plusminus")))
    if kind in ("generic", "singular"):
        m = [[draw(entry) for _ in range(n)] for _ in range(n)]
        if kind == "singular":
            m[-1] = list(m[0])
    elif kind == "kron":
        a = [[draw(entry) for _ in range(g)] for _ in range(g)]
        m = times_i2(a)
    else:
        m = [[Fraction(0)] * n for _ in range(n)]
        for b in range(0, n, 2):
            x, y = draw(entry), draw(entry)
            m[b][b], m[b][b + 1], m[b + 1][b], m[b + 1][b + 1] = (
                (x, -y, y, x) if kind == "rotation" else (0, x, 1, 0))
    return _conjugated(draw, m)


class TestExteriorRadii:
    """``exterior_radii`` (products of the certified moduli of the degree-1
    block's roots) against the oracle: the certifier on every polynomial of
    ``support.exterior_char_polys``."""

    @settings(max_examples=60, deadline=None)
    @given(_exterior_matrices())
    def test_it_matches_the_exterior_polynomials(self, m):
        got = spectral.exterior_radii(*scaled(m))
        want = oracle_exterior_radii(m)
        assert len(got) == len(want) == len(m) + 1
        for k, ((rho, err), (wrho, werr)) in enumerate(zip(got, want)):
            assert err <= 1e-9 * max(1.0, rho), k
            assert abs(rho - wrho) <= err + werr, k
            assert abs(rho - wrho) <= err, k  # the bracket holds the oracle's
            assert format(rho, ".12g") == format(wrho, ".12g"), k

    def test_exact_moduli(self):
        # eigenvalues 2, 2, -3, 0: mu_k = 3, 6, 12, 0 after mu_0 = 1
        m = [[2, 1, 0, 0], [0, 2, 0, 0], [0, 0, -3, 0], [0, 0, 5, 0]]
        radii = spectral.exterior_radii(*scaled(m))
        assert [rho for rho, _ in radii] == [1.0, 3.0, 6.0, 12.0, 0.0]
        assert radii[-1] == (0.0, 0.0)

    def test_conjugate_pairs_tie(self):
        # eigenvalues 1 +- 2i and 2 +- i: four moduli sqrt(5)
        m = [[1, -2, 0, 0], [2, 1, 0, 0], [0, 0, 2, -1], [0, 0, 1, 2]]
        for k, (rho, err) in enumerate(spectral.exterior_radii(*scaled(m))):
            assert abs(rho - 5 ** (k / 2)) <= err, k

    def test_the_bracket_widens_with_the_disks(self, monkeypatch):
        # centres 1, 2 and 3.001 for the roots 1, 2 and 3: the last disk has
        # a radius near 3e-3, and each mu_k's bracket must still hold mu_k
        e, one = 128, 1 << 128
        centres = [(one, 0), (2 * one, 0), (3 * one + one // 1000, 0)]
        disks = spectral._certify([1, -6, 11, -6], centres, e)
        monkeypatch.setattr(spectral, "_root_disks",
                            lambda poly: iter([(e, disks)] * 6))
        radii = spectral.exterior_radii(1, [[1, 0, 0], [0, 2, 0], [0, 0, 3]],
                                        tol=1e-2)
        for (rho, err), true in zip(radii, [1, 3, 6, 6]):
            assert abs(rho - true) <= err
        assert radii[1][0] == pytest.approx(3.001)
        assert 2e-3 <= radii[1][1] < 1e-2

    def test_the_empty_matrix(self):
        assert spectral.exterior_radii(1, []) == [(1.0, 0.0)]

    def test_a_repeated_root_is_read_as_a_linear_square_free_part_is(self):
        # M = I/3: mu_1 = 1/3, with only its rounding error, as scaled_radius
        # reads the root of 3x - 1
        radii = spectral.exterior_radii(3, [[1, 0], [0, 1]])
        assert radii[1] == spectral.scaled_radius(3, [[1]]) == (
            0.3333333333333333, 7.401486830834377e-17)
        assert radii[0] == (1.0, 0.0)
        assert radii[2] == (0.1111111111111111, 0.1111111111111111 * 2.0**-52)

    def test_a_factor_with_one_root_gets_no_root_round(self, monkeypatch):
        # I_10 has the one factor x - 1 and diag(2, 2, 3) the factors x - 2
        # and x - 3: each modulus is read exactly, so no disk is computed
        degrees, root_disks = [], spectral._root_disks

        def counted(poly):
            degrees.append(len(poly) - 1)
            return root_disks(poly)

        monkeypatch.setattr(spectral, "_root_disks", counted)
        identity = [[int(i == j) for j in range(10)] for i in range(10)]
        assert spectral.exterior_radii(1, identity) == [(1.0, 0.0)] * 11
        assert spectral.exterior_radii(1, [[2, 0, 0], [0, 2, 0], [0, 0, 3]]) \
            == [(1.0, 0.0), (3.0, 0.0), (6.0, 0.0), (12.0, 0.0)]
        assert degrees == []
        # beside x - 2, the golden factor x^2 - x - 1 still gets its rounds
        m = [[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 1, 1], [0, 0, 1, 0]]
        got = spectral.exterior_radii(1, m)
        assert degrees == [2]
        for (rho, err), (want, _) in zip(got, oracle_exterior_radii(m)):
            assert abs(rho - want) <= err

    def test_certified_radii_keep_the_floor(self):
        # diag(2, 3) is square-free of degree 2: its roots are certified
        m = [[2, 0], [0, 3]]
        rho, err = spectral.scaled_radius(1, m)
        assert rho == 3.0 and err >= spectral._ERROR_FLOOR * rho
        radii = spectral.exterior_radii(1, m)
        assert [rho for rho, _ in radii] == [1.0, 3.0, 6.0]
        assert radii[0] == (1.0, 0.0)
        for rho, err in radii[1:]:
            assert err >= spectral._ERROR_FLOOR * rho

    def test_a_nan_tol_is_rejected(self):
        with pytest.raises(ShapeMismatch, match="tol must be positive"):
            spectral.exterior_radii(1, [[1, 1], [1, 0]], tol=float("nan"))

    def test_a_product_past_the_float_range_fails_at_once(self):
        # roots about 1e200, 2e200 and 3e200 are floats; mu_2 is not
        big = Fraction(10**200)
        m = [[big, 1, 0, 0], [1, big, 0, 0],
             [0, 0, 3 * big, 1], [0, 0, 1, 2 * big]]
        start = time.perf_counter()
        with pytest.raises(SpectralNonconvergence, match="past the float range"):
            spectral.exterior_radii(*scaled(m))
        assert time.perf_counter() - start < 0.1
        # |det| fits, mu_2 = 1e400 does not: found from the certified roots
        m = [[big, 0, 0, 0], [0, big, 0, 0],
             [0, 0, 1 / big, 0], [0, 0, 0, 1 / big]]
        with pytest.raises(SpectralNonconvergence, match="past the float range"):
            spectral.exterior_radii(*scaled(m))


class TestSpectralRadius:
    def test_golden_ratio_within_tolerance(self):
        rho, err = spectral_radius([[1, 1], [1, 0]], tol=1e-9)
        assert err <= 1e-9 * max(1.0, rho)
        assert abs(rho - PHI) <= 1e-9

    def test_identity_is_exactly_one(self):
        rho, err = spectral_radius([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert rho == 1.0 and err == 0.0

    def test_nilpotent_is_zero(self):
        assert spectral_radius([[0, 1], [0, 0]]) == (0.0, 0.0)

    def test_certified_error_contract(self):
        for m, true in [
            ([[0, 2], [3, 0]], math.sqrt(6)),
            ([[3, 4], [2, 3]], 3 + 2 * math.sqrt(2)),
            ([[0, -1], [1, 0]], 1.0),
            ([[2, 1], [0, 2]], 2.0),  # defective block
        ]:
            rho, err = spectral_radius(m, tol=1e-10)
            assert abs(rho - true) <= err + 1e-12

    def test_a_nan_tol_is_rejected(self):
        with pytest.raises(ShapeMismatch, match="tol must be positive"):
            spectral_radius([[1, 1], [1, 0]], tol=float("nan"))


class TestGelfandSequence:
    def test_scalar_two_is_exact_everywhere(self):
        assert gelfand_sequence([[2]], 4) == [
            (1, 2.0), (2, 2.0), (4, 2.0), (8, 2.0), (16, 2.0)
        ]

    def test_unipotent_closed_form(self):
        # ||M^m||_inf = m + 1 for the 2x2 Jordan block at 1
        seq = gelfand_sequence([[1, 1], [0, 1]], 10)
        m, est = seq[-1]
        assert m == 1024
        assert est == pytest.approx((1024 + 1) ** (1 / 1024), rel=1e-12)
        assert est == pytest.approx(1.0068, abs=5e-4)

    def test_fibonacci_close_to_golden_ratio(self):
        _, est = gelfand_sequence([[1, 1], [1, 0]], 10)[-1]
        assert abs(est - PHI) / PHI < 0.01

    def test_nilpotent_reports_zero(self):
        seq = gelfand_sequence([[0, 1], [0, 0]], 4)
        assert [e for _, e in seq[1:]] == [0.0, 0.0, 0.0, 0.0]

    @pytest.mark.parametrize("exponent", [600, -600])
    def test_entries_far_from_one_are_shifted_into_the_exponent(self, exponent):
        # |log2| > 500 moves the entry's magnitude into the exact exponent
        for m, est in gelfand_sequence([[Fraction(2) ** exponent]], 3):
            assert est == pytest.approx(2.0**exponent, rel=1e-12), m

    def test_norm_upper_bounds_radius(self):
        # ||M^m||^{1/m} >= rho for every m, for the declared norm
        for m in ([[1, 1], [1, 0]], [[0, 2], [3, 0]], [[1, 5], [0, 1]]):
            rho, _ = spectral_radius(m)
            for _, est in gelfand_sequence(m, 8):
                assert est >= rho - 1e-9


class TestTraceSequence:
    def test_lucas_numbers(self):
        # independent oracle: L_1 = 1, L_2 = 3, L_{m} = L_{m-1} + L_{m-2}
        lucas = [1, 3]
        for _ in range(30):
            lucas.append(lucas[-1] + lucas[-2])
        seq = trace_sequence([[1, 1], [1, 0]], 32)
        for (m, est), expected in zip(seq, lucas):
            assert est == pytest.approx(expected ** (1 / m), rel=1e-12)

    def test_tail_max_approaches_golden_ratio(self):
        seq = trace_sequence([[1, 1], [1, 0]], 64)
        tail = max(est for m, est in seq if m >= 32)
        assert abs(tail - PHI) / PHI < 0.02

    def test_identity_reports_nth_roots_of_dimension(self):
        seq = trace_sequence([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 6)
        for m, est in seq:
            assert est == pytest.approx(3 ** (1 / m), rel=1e-12)

    def test_nilpotent_traces_are_zero(self):
        assert all(e == 0.0 for _, e in trace_sequence([[0, 1], [0, 0]], 8))

    def test_float_path_beyond_the_power_cutoff(self):
        # m_max > 256, where a float branch once took over: the int route
        # runs at every power, and the values still converge
        seq = trace_sequence([[1, 1], [1, 0]], 300)
        assert seq[-1][1] == pytest.approx((1 + math.sqrt(5)) / 2, rel=1e-6)

    def test_float_path_handles_huge_growth(self):
        # 500 powers of a matrix with radius sqrt(6), past m = 256 on the
        # int route: the raw traces overflow any double, the roots taken
        # through logs stay finite.  Closed form: Tr(M^m) = 2 * 6^{m/2} at
        # even m, 0 at odd m.
        seq = dict(trace_sequence([[0, 2], [3, 0]], 500))
        assert seq[499] == 0.0
        assert seq[500] == pytest.approx(
            math.sqrt(6) * 2 ** (1 / 500), rel=1e-9
        )

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_float_path_matches_exact_traces(self, data):
        # past m = 256 the int route gives the exact traces' roots, and an
        # exact zero stays zero
        n = data.draw(st.integers(1, 3))
        entries = st.lists(st.integers(0, 3), min_size=n, max_size=n)
        rows = data.draw(st.lists(entries, min_size=n, max_size=n))
        seq = trace_sequence(rows, 300)
        matrix = power = as_matrix(rows)
        for m in range(2, 301):
            power = mat_mul(power, matrix)
            if m < 257:
                continue
            exact = trace(power)
            if exact == 0:
                assert seq[m - 1] == (m, 0.0)
            else:
                root = math.exp(math.log(exact.numerator) / m)
                assert seq[m - 1][1] == pytest.approx(root, rel=1e-9), m

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_exact_traces_match_newtons_identities(self, data):
        # power sums from the characteristic polynomial by Newton's
        # identities, with no matrix product: p_k = -(k c_k + sum c_i p_{k-i})
        n = data.draw(st.integers(1, 5))
        entries = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
        rows = data.draw(st.lists(entries, min_size=n, max_size=n))
        m_max = data.draw(st.integers(1, 64))
        c = char_poly(rows)
        sums = []
        for k in range(1, m_max + 1):
            p = -sum(c[i] * sums[k - i - 1] for i in range(1, min(k, n + 1)))
            sums.append(p - (k * c[k] if k <= n else 0))
        for (m, est), p in zip(trace_sequence(rows, m_max), sums):
            if p == 0:
                assert est == 0.0
            else:
                root = math.exp(math.log(abs(p.numerator)) / m)
                assert est == pytest.approx(root, rel=1e-12), m

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_int_route_matches_the_fraction_oracle(self, data):
        # float for float, past m = 256 too: Tr(A^m) / D^m in int is the
        # Fraction trace of the running Fraction product
        n = data.draw(st.integers(0, 4))
        scalars = st.fractions(min_value=-3, max_value=3, max_denominator=4)
        rows = data.draw(st.lists(st.lists(scalars, min_size=n, max_size=n),
                                  min_size=n, max_size=n))
        m_max = data.draw(st.integers(1, 300))
        matrix = power = as_matrix(rows)
        expected = []
        for m in range(1, m_max + 1):
            if m > 1:
                power = mat_mul(power, matrix)
            expected.append((m, _root_of_abs(trace(power), m)))
        assert trace_sequence(rows, m_max) == expected

    def test_trace_below_gelfand_for_nonnegative_matrices(self):
        # |Tr(M^m)| <= n ||M^m||_inf, so roots match up to n^{1/m}
        for m in ([[1, 1], [1, 0]], [[2, 1], [1, 1]], [[0, 2], [3, 0]]):
            gel = dict(gelfand_sequence(m, 6))
            tr = dict(trace_sequence(m, 64))
            for power in (16, 32, 64):
                slack = len(m) ** (1 / power)
                assert tr[power] <= gel[power] * slack + 1e-9


class TestLimsupRoot:
    def test_geometric_sequence(self):
        assert limsup_root([2, 4, 8, 16]) == pytest.approx(2.0, rel=1e-12)

    def test_delta_row_estimate_close_to_sqrt6(self):
        # the product-swap row 5, 12, 30, 72, ... grows like sqrt(6)^m, its
        # m-th roots within 2^(1/m) of sqrt(6): 2.2 % over the default
        # window m = 32..64
        seq = []
        a, b = 1, 1  # coordinates of omega
        for _ in range(64):
            a, b = 3 * b, 2 * a
            seq.append(b + a)  # pair against omega through the [[0,1],[1,0]] gram
        est = limsup_root(seq)
        assert abs(est - math.sqrt(6)) / math.sqrt(6) < 0.05

    def test_all_zero_sequence(self):
        assert limsup_root([0, 0, 0, 0]) == 0.0

    def test_huge_exact_values_do_not_overflow(self):
        seq = [Fraction(3) ** (5 * m) for m in range(1, 200)]
        assert limsup_root(seq) == pytest.approx(3**5, rel=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(ShapeMismatch):
            limsup_root([])


class TestCombinedLimsupBound:
    def test_sign_cancelling_pair(self):
        n = 32
        seqs = [[3**m for m in range(1, n + 1)],
                [(-3) ** m for m in range(1, n + 1)]]
        res = combined_limsup_bound(seqs, [1, 1])
        assert res.verdict
        assert res.rhs_bound == pytest.approx(3.0, rel=1e-9)

    def test_single_sequence_is_tight(self):
        # with one sequence and |b| >= 1 the estimate brackets as
        # rhs <= lhs <= rhs * slack (the weight inflates by |b|^{1/m})
        seq = [[Fraction(5, 2) ** m for m in range(1, 20)]]
        res = combined_limsup_bound(seq, [7])
        assert res.verdict
        assert res.rhs_bound <= res.lhs_estimate <= res.rhs_bound * res.slack + 1e-9

    def test_dominated_constant_sequence(self):
        n = 32
        seqs = [[2**m for m in range(1, n + 1)], [1] * n]
        res = combined_limsup_bound(seqs, [1, 5])
        assert res.verdict
        assert res.rhs_bound == pytest.approx(2.0, rel=1e-9)

    def test_zero_weight_rejected(self):
        with pytest.raises(ShapeMismatch, match=r"^weights must be nonzero$"):
            combined_limsup_bound([[1, 2], [3, 4]], [1, 0])

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_random_sign_mixed_geometric_mixtures(self, data):
        n = 40
        s = data.draw(st.integers(1, 4))
        seqs = []
        for _ in range(s):
            rho = data.draw(st.fractions(min_value=0, max_value=5,
                                         max_denominator=4))
            sign = data.draw(st.sampled_from((1, -1)))
            scale = data.draw(st.fractions(min_value=Fraction(1, 4),
                                           max_value=4, max_denominator=4))
            seqs.append([scale * (sign * rho) ** m for m in range(1, n + 1)])
        weights = [
            data.draw(st.fractions(min_value=Fraction(1, 3), max_value=3,
                                   max_denominator=3))
            * data.draw(st.sampled_from((1, -1)))
            for _ in range(s)
        ]
        assert combined_limsup_bound(seqs, weights).verdict


class TestRootCertificationCache:
    def test_a_polynomial_is_certified_once(self, monkeypatch):
        calls = []
        original = spectral._aberth_proposal

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        spectral._max_root_modulus.cache_clear()
        monkeypatch.setattr(spectral, "_aberth_proposal", counted)
        # two matrices with the one polynomial x^3 - 2x - 5
        companion = [[0, 0, 5], [1, 0, 2], [0, 1, 0]]
        conjugate = [[0, 1, 0], [0, 0, 1], [5, 2, 0]]
        first = spectral_radius(companion)
        assert spectral_radius(conjugate) == first
        assert len(calls) == 1
        assert first[0] == pytest.approx(2.0945514815423265, abs=1e-9)


def _from_roots(roots):
    """Coefficients of prod (x - r), descending."""
    coeffs = [Fraction(1)]
    for r in roots:
        coeffs = [a - Fraction(r) * b
                  for a, b in zip(coeffs + [0], [0] + coeffs)]
    return tuple(coeffs)


def _battery_polys():
    """The characteristic polynomials of the builder battery's blocks and
    of their Gromov closures' blocks."""
    polys = set()
    for _, model, pull in builder_battery():
        polys.update(tuple(char_poly(b)) for b in fraction_blocks(pull) if b)
        closure = gromov_closure(pull, model.h)
        polys.update(tuple(char_poly(b)) for _, b in closure_blocks(closure))
    return polys


def _uncached(coeffs, tol=1e-9):
    """The integer certifier, past its cache."""
    return spectral._max_root_modulus.__wrapped__(integer_poly(coeffs), tol)


def _random_20x20():
    """A pinned random 20 x 20 integer matrix, its square-free char poly of
    degree 20 with 254-bit coefficients."""
    rng = random.Random(7)
    return [[rng.randint(-2**12, 2**12) for _ in range(20)] for _ in range(20)]


HARD = {
    "wilkinson-20": _from_roots(range(1, 21)),
    "x^12 - 1": (1,) + (0,) * 11 + (-1,),
    "x^16 - 2": (1,) + (0,) * 15 + (-2,),
    "roots 1, 1 + 1e-8, 3": _from_roots([1, 1 + Fraction(1, 10**8), 3]),
    "roots 1, 1 + 2^-150, 2": _from_roots([1, 1 + Fraction(1, 2**150), 2]),
    "x^2 - 10^40": (1, 0, -(10**40)),
    "x^2 - 10^-40": (1, 0, -Fraction(1, 10**40)),
    "x^20 + x + 1": (1,) + (0,) * 18 + (1, 1),
}


def _product(polys):
    """Coefficients of the product of ``polys``, descending."""
    out = [Fraction(1)]
    for p in polys:
        out = [sum(out[i] * p[k - i] for i in range(len(out))
                   if 0 <= k - i < len(p)) for k in range(len(out) + len(p) - 1)]
    return out


_COEFF = st.fractions(min_value=-9, max_value=9, max_denominator=6)


@st.composite
def _factored_polys(draw):
    """content * x^zeros * prod f_i^(m_i), with factors of degree 0 to 3
    and multiplicities up to 3; integer or rational coefficients."""
    rational = draw(st.booleans())
    coeff = _COEFF if rational else st.integers(-9, 9).map(Fraction)
    factors = []
    for _ in range(draw(st.integers(0, 3))):
        lead = draw(coeff.filter(bool))
        f = [lead] + draw(st.lists(coeff, max_size=3))
        factors += [f] * draw(st.integers(1, 3))
    content = draw(coeff.filter(bool)) * draw(st.sampled_from((1, 6, 12)))
    zeros = draw(st.integers(0, 3))
    return tuple(_product([[content]] + factors) + [Fraction(0)] * zeros)


class TestIntegerSquarefreePart:
    """``spectral._squarefree_part`` (primitive remainder sequence in
    ``int``) against the ``Fraction`` route cleared by the lcm of its
    denominators (``support.fraction_squarefree_part``)."""

    @settings(max_examples=300, deadline=None)
    @given(_factored_polys())
    def test_it_matches_the_fraction_route(self, p):
        got = spectral._squarefree_part(integer_poly(p))
        assert got == fraction_squarefree_part(p)
        assert got[0] > 0 and math.gcd(*got) == 1

    @pytest.mark.parametrize("coeffs, want", [
        ((Fraction(-3),), [1]),
        ((Fraction(-4), Fraction(6)), [2, -3]),
        ((2, -4, 2, 0, 0), [1, -1]),
        ((Fraction(-1, 2), 0, Fraction(1, 2)), [1, 0, -1]),
        (_from_roots([Fraction(1, 2)] * 3 + [-2] * 2), [2, 3, -2]),
    ], ids=["constant", "linear", "double root and zero roots",
            "negative rational lead", "repeated rational roots"])
    def test_small_cases(self, coeffs, want):
        assert spectral._squarefree_part(integer_poly(coeffs)) == want


_CYCLOTOMIC = ([1, -1], [1, 1], [1, 1, 1], [1, 0, 1], [1, -1, 1],
               [1, 1, 1, 1, 1], [1, 0, 0, 0, 1])


@st.composite
def _multiplicity_polys(draw):
    """content * x^zeros * prod f_i^(m_i) with random factors of degree 1
    and 2 and cyclotomic ones, multiplicities up to 4."""
    factors = []
    for _ in range(draw(st.integers(0, 4))):
        if draw(st.booleans()):
            f = draw(st.sampled_from(_CYCLOTOMIC))
        else:
            f = [draw(_COEFF.filter(bool))] + draw(
                st.lists(_COEFF, min_size=1, max_size=2))
        factors += [[Fraction(c) for c in f]] * draw(st.integers(1, 4))
    content = draw(_COEFF.filter(bool))
    return tuple(_product([[content]] + factors)
                 + [Fraction(0)] * draw(st.integers(0, 3)))


def _monic(q):
    return [Fraction(c, q[0]) for c in q]


class TestMultiplicities:
    """``spectral._multiplicities`` (repeated square-free parts in ``int``)
    against Yun's decomposition in ``Fraction`` with the ``support``
    oracles' gcd (``support.fraction_multiplicities``)."""

    @settings(max_examples=200, deadline=None)
    @given(_multiplicity_polys())
    def test_it_matches_yuns_decomposition(self, p):
        zeros, factors = spectral._multiplicities(integer_poly(p))
        want_zeros, want = fraction_multiplicities(p)
        assert zeros == want_zeros
        assert [(_monic(q), m) for q, m in factors] == want
        for q, _ in factors:
            assert q[0] > 0 and math.gcd(*q) == 1
        # the factors give p back exactly, and their product is the
        # square-free part
        back = _product([[p[0]]] + [_monic(q) for q, m in factors
                                    for _ in range(m)])
        assert back + [Fraction(0)] * zeros == list(p)
        if factors:
            assert _monic(_product([q for q, _ in factors])) == _monic(
                fraction_squarefree_part(p))

    def test_a_kronecker_square(self):
        # det(xI - A (x) I_2) = det(xI - A)^2
        a = [[2, 1, 0], [1, 1, 1], [0, 1, 3]]
        zeros, factors = spectral._multiplicities(
            spectral._scaled_poly(1, times_i2(a)))
        assert zeros == 0
        assert factors == [([1, -6, 9, -1], 2)]
        assert char_poly(a) == [1, -6, 9, -1]


@st.composite
def _mixed_matrices(draw):
    """An :func:`_exterior_matrices` draw conjugated by a drawn rational
    diagonal matrix: the same roots (zero, repeated, conjugate pairs),
    with entries over mixed denominators."""
    m = draw(_exterior_matrices())
    s = [Fraction(draw(st.sampled_from((1, 2, 3, Fraction(1, 2),
                                        Fraction(5, 3))))) for _ in m]
    return [[x * s[i] / s[j] for j, x in enumerate(row)]
            for i, row in enumerate(m)]


class TestIntegerSpectralRoute:
    """The integer route from a block (D, A) to its radii against the
    ``Fraction`` route it replaced: the polynomial, its square-free part and
    its multiplicities are the ``support`` oracles' on the ``Fraction``
    characteristic polynomial, and the radii are the certifier's on that
    polynomial, bit for bit, whatever the denominator M is written over."""

    @settings(max_examples=80, deadline=None)
    @given(_mixed_matrices(), st.integers(1, 6))
    def test_it_matches_the_fraction_route(self, m, k):
        den, a = scaled(m)
        poly = spectral._scaled_poly(den, a)
        want = fraction_char_poly(m)
        assert char_poly(m) == want == [Fraction(c, poly[0]) for c in poly]
        assert spectral._squarefree_part(poly) == fraction_squarefree_part(want)
        zeros, factors = spectral._multiplicities(poly)
        assert (zeros, [(_monic(q), e) for q, e in factors]) == (
            fraction_multiplicities(want))
        assert spectral_radius(m) == _uncached(want)
        # the route that read the Fraction polynomial
        with mock.patch.object(spectral, "_scaled_poly",
                               lambda *_: integer_poly(want)):
            fraction_radii = spectral.exterior_radii(den, a)
        assert spectral.exterior_radii(den, a) == fraction_radii
        # M over k D: the one primitive polynomial
        ka = [[k * x for x in row] for row in a]
        assert spectral._scaled_poly(k * den, ka) == poly
        assert spectral.scaled_radius(k * den, ka) == spectral_radius(m)

    def test_a_closure_block_and_its_graded_block_share_a_certificate(self):
        # f* = 3/2 on h: f's blocks are over D = 4 ([[6]], [[9]]), the
        # closure's over the images' denominators ([[3]] over 2, [[9]] over
        # 4); each of the three polynomials is certified once
        model = projective_space(2)
        f = scalar_power_pullback(model, Fraction(3, 2))
        closure = gromov_closure(f, model.h)
        assert f.scaled_blocks[0] == 4
        assert [den for _, (den, _) in closure.blocks] == [1, 2, 4]
        spectral._max_root_modulus.cache_clear()
        lambda_gr(closure)
        before = spectral._max_root_modulus.cache_info()
        assert (before.hits, before.misses) == (0, 3)
        report = spectral_chain(model, closure)
        after = spectral._max_root_modulus.cache_info()
        assert (after.hits, after.misses) == (3, 3)
        assert report.mu_by_degree == (1.0, 0.0, 1.5, 0.0, 2.25)


class TestIntegerRootCertificate:
    """The integer certifier against mpmath's, kept in ``support`` as its
    oracle: the same ``(rho, err)`` floats, bit for bit."""

    def test_battery_blocks_match_the_oracle(self):
        polys = _battery_polys()
        assert len(polys) > 20
        for p in polys:
            assert _uncached(p) == mpmath_max_root_modulus(p, 1e-9), p

    def test_block_polynomials_match_the_fraction_route(
        self, tmp_path, capsys, monkeypatch
    ):
        # every polynomial the seed-0 ``exact-core`` reports certify
        from dyndeg.cli import main

        polys = _battery_polys()
        workload, _ = perfbench_workload(monkeypatch, "exact-core")
        paths = workload.write(tmp_path)
        certify = spectral._max_root_modulus

        def recorded(coeffs, tol):
            polys.add(coeffs)
            return certify(coeffs, tol)

        with monkeypatch.context() as m:
            m.setattr(spectral, "_max_root_modulus", recorded)
            for command, name in workload.invocations:
                assert main([command, "--config", str(paths[name])]) == 0
        capsys.readouterr()
        assert len(polys) > 40
        # the certifier as it ran on the Fraction square-free part
        with monkeypatch.context() as m:
            m.setattr(spectral, "_squarefree_part", fraction_squarefree_part)
            want = {p: _uncached(p) for p in polys}
        for p in polys:
            assert spectral._squarefree_part(integer_poly(p)) == (
                fraction_squarefree_part(p))
            assert _uncached(p) == want[p], p

    @pytest.mark.parametrize("name", sorted(HARD))
    def test_hard_polynomials_match_the_oracle(self, name):
        p = tuple(Fraction(c) for c in HARD[name])
        assert _uncached(p) == mpmath_max_root_modulus(p, 1e-9)

    def test_tiny_roots_keep_their_relative_precision(self):
        # roots near 1e-40: mpmath's polyroots stops on an absolute step
        # size and is 1e-9 off; the integer certifier matches the
        # 10^40-scaled twin
        a = [[1, 2, 0], [0, 1, 3], [1, 0, 1]]
        big = _uncached(char_poly([[10**40 * x for x in row] for row in a]))
        p = char_poly([[Fraction(x, 10**40) for x in row] for row in a])
        rho, err = _uncached(p)
        assert rho == pytest.approx(big[0] * 1e-80, rel=1e-15)
        want, werr = mpmath_max_root_modulus(tuple(p), 1e-9)
        assert abs(rho - want) <= err + werr

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 9).flatmap(lambda n: st.lists(
        st.lists(st.integers(-5, 5), min_size=n, max_size=n),
        min_size=n, max_size=n)))
    def test_random_integer_matrices_agree_with_the_oracle(self, m):
        p = tuple(char_poly(m))
        rho, err = _uncached(p)
        want, werr = mpmath_max_root_modulus(p, 1e-9)
        assert format(rho, ".12g") == format(want, ".12g")
        assert abs(rho - want) <= err + werr

    def test_float_overflow_falls_back_to_the_circle_start(self):
        # roots 1e200, 3 and 1e-5: scaled by 2^-216, p(z) still overflows
        # near the largest root, so the exact rounds start from the circle
        coeffs = _from_roots([10**200, 3, Fraction(1, 10**5)])
        den = math.lcm(*(Fraction(c).denominator for c in coeffs))
        start, scale = spectral._aberth_proposal(
            [int(Fraction(c) * den) for c in coeffs])
        assert scale and all(abs(z) == pytest.approx(1) for z in start)
        rho, err = _uncached(tuple(Fraction(c) for c in coeffs))
        assert abs(rho - 1e200) <= err

    def test_a_non_finite_aberth_step_falls_back_to_the_circle_start(self):
        # x^5 + 3 2^1012 x^3 + 1: at sweep 26 p(z) and p'(z) are finite, near
        # the float maximum, and complex division overflows p(z)/p'(z) (about
        # 4 in modulus) to a non-finite real part, so the new iterate is NaN
        poly = [1, 0, 3 << 1012, 0, 0, 1]
        start, scale = spectral._aberth_proposal(poly)
        assert scale == 0 and all(abs(z) == pytest.approx(1) for z in start)
        rho, err = _uncached(tuple(Fraction(c) for c in poly))
        assert abs(rho - math.sqrt(3) * 2**506) <= err

    @pytest.mark.parametrize("coeffs, true_rho", [
        ((1, -4 * 10**200, 3 * 10**400), 3e200),  # roots 1e200 and 3e200
        # |z|^2 = c for both roots of x^2 + x + c
        ((1, 1, 2**1200 - 1), float(math.isqrt(2**1200 - 1))),
    ], ids=["roots 1e200, 3e200", "1200-bit constant term"])
    def test_coefficients_past_the_float_range_certify_in_one_round(
        self, monkeypatch, coeffs, true_rho
    ):
        # the floats iterate on 2^(-sn) p(2^s x), whose coefficients fit, so
        # the proposal is already good: the first round certifies
        start, scale = spectral._aberth_proposal(list(coeffs))
        assert scale and max(map(abs, start)) * 2.0**scale == pytest.approx(
            true_rho, rel=1e-12)
        calls = []
        certify = spectral._certify
        monkeypatch.setattr(spectral, "_certify",
                            lambda *args: calls.append(certify(*args)) or calls[-1])
        rho, err = _uncached(tuple(Fraction(c) for c in coeffs))
        assert abs(rho - true_rho) <= err and len(calls) == 1

    def test_a_stall_reports_the_best_bracket(self, monkeypatch):
        # x^2 - 3x + 1: a tol below the rounding term is never met, and the
        # error carries the last certified bracket
        coeffs = (Fraction(1), Fraction(-3), Fraction(1))
        with pytest.raises(SpectralNonconvergence) as got:
            _uncached(coeffs, tol=1e-17)
        assert (got.value.estimate, got.value.error_bound) == _uncached(coeffs)
        # with no certificate it carries the Cauchy bound 1 + 3, and the
        # exterior radii of [[2, 1], [1, 1]] that bound squared
        monkeypatch.setattr(spectral, "_certify", lambda *args: None)
        with pytest.raises(SpectralNonconvergence) as got:
            _uncached(coeffs)
        assert (got.value.estimate, got.value.error_bound) == (0.0, 4.0)
        assert "stalled at 0.0 ± 4.0" in str(got.value)
        with pytest.raises(SpectralNonconvergence) as got:
            spectral.exterior_radii(1, [[2, 1], [1, 1]])
        assert (got.value.estimate, got.value.error_bound) == (0.0, 16.0)

    def test_a_linear_root_is_held_to_tol(self):
        # x - 1/3: rho's rounding error 2^-52 rho passes 1e-9, not 1e-17
        assert spectral.scaled_radius(3, [[1]], 1e-9) == (
            0.3333333333333333, 7.401486830834377e-17)
        with pytest.raises(SpectralNonconvergence) as got:
            spectral.scaled_radius(3, [[1]], 1e-17)
        assert (got.value.estimate, got.value.error_bound) == (
            0.3333333333333333, 7.401486830834377e-17)
        # an exact float root has error 0 and meets every tol
        assert spectral.scaled_radius(2, [[1]], 1e-300) == (0.5, 0.0)

    def test_a_root_past_the_float_range_is_not_certified(self):
        # |z|^2 = 2^2100 for both roots: rho would read inf
        with pytest.raises(SpectralNonconvergence):
            _uncached((Fraction(1), Fraction(1), Fraction(2**2100)))
        # a linear square-free part takes the fast path
        with pytest.raises(SpectralNonconvergence):
            _uncached((Fraction(1), Fraction(-(2**1100))))

    def test_a_radius_past_the_float_range_fails_at_once(self, monkeypatch):
        calls = []
        certify = spectral._certify

        def counted(*args):
            calls.append(certify(*args))
            return calls[-1]

        monkeypatch.setattr(spectral, "_certify", counted)
        # roots 2^1100 and 3: |a_1| = 2^1100 + 3 > C(2, 1) 2^1024, so the
        # coefficient bound raises before any certificate
        a, b = Fraction(2**1100), Fraction(3)
        with pytest.raises(SpectralNonconvergence, match="past the float range"):
            _uncached((Fraction(1), -(a + b), a * b))
        assert calls == []
        # |z|^2 = 2^2100 for both roots: their geometric mean is past the
        # float range, so no disk is needed
        calls.clear()
        with pytest.raises(SpectralNonconvergence, match="past the float range"):
            _uncached((Fraction(1), Fraction(1), Fraction(2**2100)))
        assert calls == []

    def test_a_past_range_radius_with_a_zero_root_fails_at_once(
            self, monkeypatch):
        # roots 2^1100, 3 and 0: a_n = 0 says nothing of rho, the bound on
        # a_1 raises before any certificate
        calls = []
        certify = spectral._certify
        monkeypatch.setattr(spectral, "_certify",
                            lambda *args: calls.append(certify(*args)) or calls[-1])
        with pytest.raises(SpectralNonconvergence, match="past the float range"):
            spectral.scaled_radius(1, [[2**1100, 0, 0], [0, 3, 0], [0, 0, 0]])
        assert calls == []

    def test_exterior_radii_refuse_a_past_range_radius_before_any_round(
            self, monkeypatch):
        # mu_n = |det M| = 0 is in range; the bound on a_1 shows that mu_1
        # = rho is not, so no root round runs
        calls = []
        monkeypatch.setattr(spectral, "_root_disks",
                            lambda poly: calls.append(poly))
        with pytest.raises(SpectralNonconvergence, match="past the float range"):
            spectral.exterior_radii(1, [[2**1100, 0, 0], [0, 3, 0], [0, 0, 0]])
        assert calls == []

    def test_roots_closer_than_the_first_grids_are_certified(self):
        # Aberth closes in on an unresolved pair about 2 bits a sweep; the
        # pair 2^-700 apart is resolved once the grid is 1,024 bits fine
        a, b = Fraction(2), 2 + Fraction(1, 2**700)
        rho, err = _uncached((Fraction(1), -(a + b), a * b), 1e-9)
        assert rho == 2.0 and err <= 1e-9 * rho

    def test_a_pair_on_one_grid_point_is_moved_apart(self, monkeypatch):
        # both approximations start on the exact root 2 of the pair: p(z) = 0
        # stops both, so only moving one of them lets the rounds part them
        monkeypatch.setattr(spectral, "_aberth_proposal",
                            lambda poly: ([2 + 0j, 2 + 0j], 0))
        a, b = Fraction(2), 2 + Fraction(1, 2**700)
        rho, err = _uncached((Fraction(1), -(a + b), a * b), 1e-9)
        assert rho == 2.0 and err <= 1e-9 * rho

    def test_a_pair_mahlers_bound_calls_hopeless_certifies_in_round_one(
        self, monkeypatch
    ):
        # Mahler's bound is a lower bound on root separation: it says when a
        # grid is fine enough, never that one is too coarse.  On this random
        # 20 x 20 matrix it asks, with |disc| >= 1, for more bits than the
        # last round's 4,096, yet the first round's grid certifies every root
        coeffs = spectral._scaled_poly(1, _random_20x20())
        poly = spectral._squarefree_part(coeffs)
        n = len(poly) - 1
        assert n == 20 and max(abs(c).bit_length() for c in poly) == 254
        # sep >= sqrt(3) n^(-(n+2)/2) ||p||_2^(-(n-1)) for square-free p
        mahler_bits = ((n + 2) / 2 * math.log2(n) - math.log2(3) / 2
                       + (n - 1) * math.log2(math.sqrt(sum(c * c for c in poly))))
        assert mahler_bits > 4096
        calls = []
        certify = spectral._certify
        monkeypatch.setattr(spectral, "_certify",
                            lambda *args: calls.append(certify(*args)) or calls[-1])
        rho, err = _uncached(coeffs)
        assert len(calls) == 1 and calls[0] is not None
        assert rho == 11838.427618874142 and err <= 1e-9 * rho

    def test_a_tol_below_the_error_floor_fails_after_one_round(self, monkeypatch):
        # every certified error carries 1e-15 max(1, rho), so no round meets
        # tol = 1e-16: the first certified round, already at that floor, gives
        # up with the bracket all six rounds gave
        calls = []
        certify = spectral._certify
        monkeypatch.setattr(spectral, "_certify",
                            lambda *args: calls.append(certify(*args)) or calls[-1])
        with pytest.raises(SpectralNonconvergence) as exc:
            _uncached(spectral._scaled_poly(1, _random_20x20()), 1e-16)
        assert len(calls) == 1
        assert (exc.value.estimate, exc.value.error_bound) == (
            11838.427618874142, 1.1838427618874143e-11)

    def test_two_centres_on_one_root_give_no_certificate(self):
        e, one = 128, 1 << 128
        poly = [1, -6, 11, -6]  # roots 1, 2, 3
        assert spectral._certify(poly, [(one, 0), (2 * one, 0), (3 * one, 0)], e)
        assert spectral._certify(poly, [(one, 0), (one, 0), (3 * one, 0)], e) is None

    def test_a_displaced_centre_widens_the_error(self):
        e, one = 128, 1 << 128
        poly = [1, -6, 11, -6]
        centres = [(one, 0), (2 * one, 0), (3 * one + one // 1000, 0)]
        disks = spectral._certify(poly, centres, e)
        assert [s for s, _ in disks] == [x * x for x, _ in centres]
        rho = math.sqrt(disks[2][0]) / 2**e
        err = disks[2][1] / 2**e
        assert rho == pytest.approx(3.001)
        assert 1e-3 <= err < 1e-2
        assert abs(rho - 3) <= err


ROOT = pathlib.Path(__file__).resolve().parents[1]

# numpy and mpmath blocked: the estimators of acceptance criterion 6 on the
# builder battery, trace_sequence past m = 256, then each script in argv
_WITHOUT_NUMPY = """
import runpy, sys
sys.modules["numpy"] = None
sys.modules["mpmath"] = None
from support import builder_battery, fraction_blocks
from dyndeg.estimators import gelfand_sequence, trace_radius_estimate, trace_sequence
for _, model, pull in builder_battery():
    for block in fraction_blocks(pull):
        if block:
            gelfand_sequence(block, 10)
            trace_radius_estimate(block, 64)
trace_sequence([[1, 1], [1, 0]], 300)
for script in sys.argv[1:]:
    runpy.run_path(script, run_name="__main__")
"""


# sha256 of the scripts' stdout, recorded with the Fraction product kernel
SCRIPTS_STDOUT_SHA256 = (
    "c84536d0610100fbfed370f26b1ffeaebe3eec5b248514ddb4921a10839a536a"
)


def test_estimators_and_scripts_run_without_numpy():
    path = [str(ROOT / "src"), str(ROOT / "tests"), os.environ.get("PYTHONPATH")]
    proc = subprocess.run(
        [sys.executable, "-c", _WITHOUT_NUMPY,
         str(ROOT / "scripts" / "estimator_convergence.py"),
         str(ROOT / "scripts" / "chain_survey.py")],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
    )
    assert proc.returncode == 0, proc.stderr
    digest = hashlib.sha256(proc.stdout.encode()).hexdigest()
    assert digest == SCRIPTS_STDOUT_SHA256, proc.stdout
