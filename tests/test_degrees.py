import math
from fractions import Fraction

import pytest

from dyndeg.abelian import abelian_variety, elliptic_square
from dyndeg.degrees import (
    bound_constant,
    check_intersection_bound,
    delta_table,
    graph_class,
    growth_rates,
    moving_ledger,
    segre_graph_degree,
)
from dyndeg.endo import identity_map, validate_pullback
from dyndeg.errors import ShapeMismatch
from dyndeg.gromov import gromov_closure, spectral_chain
from dyndeg.lattice import surface_lattice
from dyndeg.models import EmbeddedModel
from dyndeg.projective import (
    multiprojective,
    pn_power_map,
    product_map,
    projective_space,
)

from support import (builder_battery, delta, lin_comb, pair_by_product,
                     power_map, scalar_power_pullback)


def count_products(monkeypatch) -> list:
    """Count ``GradedAlgebra.mul`` calls from here on, one entry per call."""
    from dyndeg.core import GradedAlgebra

    calls = []
    original = GradedAlgebra.mul

    def counted(self, a, b):
        calls.append(1)
        return original(self, a, b)

    monkeypatch.setattr(GradedAlgebra, "mul", counted)
    return calls


class TestDelta:
    def test_p2_degree_two_values(self):
        model = projective_space(2)
        f = pn_power_map(model, 2)
        assert delta(model, f, 3, 1) == 8
        assert delta(model, f, 2, 2) == 16

    def test_identity_on_p2_is_all_ones(self):
        model = projective_space(2)
        f = identity_map(model.algebra)
        for j in range(3):
            for m in range(1, 4):
                assert delta(model, f, m, j) == 1

    def test_product_swap_sequence_against_matrix_oracle(self):
        # oracle: iterate the 2x2 pullback on span{h1, h2} and pair through
        # the hyperbolic gram [[0,1],[1,0]] by hand
        model = multiprojective([1, 1])
        f = product_map(model, [2, 3], [1, 0])
        expected = []
        v = (1, 1)  # omega = h1 + h2
        for _ in range(6):
            v = (3 * v[1], 2 * v[0])  # columns of the degree-2 block
            expected.append(v[0] * 1 + v[1] * 1)  # pair with h1 + h2 via swap gram
        table = delta_table(model, f, 6)
        assert list(table.rows[1]) == expected
        assert expected[:4] == [5, 12, 30, 72]

    def test_fibonacci_square_against_recurrence_oracle(self):
        # delta_1(f^m) for the standard polarization is
        # F_{m+1}^2 + 2 F_m^2 + F_{m-1}^2 (entries of A^m paired with omega)
        model, f = elliptic_square([[1, 1], [1, 0]])
        fib = [0, 1]
        for _ in range(12):
            fib.append(fib[-1] + fib[-2])
        table = delta_table(model, f, 10)
        for m in range(1, 11):
            expected = fib[m + 1] ** 2 + 2 * fib[m] ** 2 + fib[m - 1] ** 2
            assert table.column(m)[1] == expected

    def test_delta_table_matches_pointwise_delta(self):
        model = multiprojective([1, 1])
        f = product_map(model, [2, 3], [1, 0])
        table = delta_table(model, f, 5)
        for j in range(model.r + 1):
            for m in range(1, 6):
                assert table.column(m)[j] == delta(model, f, m, j)

    @pytest.mark.parametrize("m_max", [1, 64])
    def test_delta_table_pairs_each_basis_vector_once(self, monkeypatch, m_max):
        # the weights w_j = F h^{r-j} come off the algebra's pairing form F,
        # and each delta_j(f^m) is w_j . v_m: no product at all, where one
        # product per pairing weight (27 on (P^2)^3) was built before
        model = multiprojective([2, 2, 2])
        f = product_map(model, [2, 3, 1], [1, 2, 0])
        model.h_powers  # the cached powers of h are not counted below
        calls = count_products(monkeypatch)
        table = delta_table(model, f, m_max)
        assert len(calls) == 0
        monkeypatch.undo()
        for j in range(model.r + 1):
            assert table.column(m_max)[j] == delta(model, f, m_max, j)

    def test_delta_table_of_a_rational_map_matches_the_oracle(self):
        # a power map with a non-integer scalar runs the gcd step of the
        # iteration; every entry still matches the product oracle
        model = projective_space(2)
        f = scalar_power_pullback(model, Fraction(-3, 2))
        table = delta_table(model, f, 6)
        for j in range(model.r + 1):
            for m in range(1, 7):
                assert table.column(m)[j] == delta(model, f, m, j)
        assert table.rows[2][5] == Fraction(3, 2) ** 12

    def test_row_zero_is_deg_x(self):
        for name, model, f in builder_battery():
            table = delta_table(model, f, 3)
            assert all(v == model.deg_x for v in table.rows[0]), name

    def test_pairing_symmetry_identity(self):
        model, f = elliptic_square([[1, 1], [1, 0]])
        alg = model.algebra
        for m in (1, 2, 3):
            fm = power_map(f, m)
            for j in range(model.r + 1):
                hj = alg.power(model.h, j)
                comp = alg.power(model.h, model.r - j)
                assert alg.pair(comp, fm.apply(hj)) == alg.pair(fm.apply(hj), comp)


class TestGrowthRates:
    def test_p2_degree_two_rates(self):
        model = projective_space(2)
        table = delta_table(model, pn_power_map(model, 2), 8)
        rates = growth_rates(table)
        assert rates.rates == pytest.approx((1.0, 2.0, 4.0), rel=1e-12)
        assert rates.max_rate == pytest.approx(4.0)

    def test_identity_rates_are_exactly_one(self):
        model = multiprojective([1, 1])
        table = delta_table(model, identity_map(model.algebra), 8)
        assert growth_rates(table).rates == pytest.approx((1.0, 1.0, 1.0))

    def test_product_swap_rate_near_sqrt6(self):
        model = multiprojective([1, 1])
        table = delta_table(model, product_map(model, [2, 3], [1, 0]), 16)
        rate = growth_rates(table).rates[1]
        assert abs(rate - math.sqrt(6)) / math.sqrt(6) < 0.05

    def test_non_dominant_rows_report_zero(self):
        model = projective_space(2)
        table = delta_table(model, pn_power_map(model, 0), 8)
        rates = growth_rates(table)
        assert rates.rates[1] == 0.0 and rates.rates[2] == 0.0

    def test_max_growth_matches_lambda_gr_within_five_percent(self):
        for name, model, f in builder_battery():
            rep = spectral_chain(model, gromov_closure(f, model.h))
            rates = growth_rates(delta_table(model, f, 16))
            if rep.lambda_gr == 0:
                assert rates.max_rate == 0.0, name
                continue
            rel = abs(rates.max_rate - rep.lambda_gr) / rep.lambda_gr
            assert rel < 0.05, (name, rates.max_rate, rep.lambda_gr)


class TestGraphClass:
    def test_p1_degree_two(self):
        model = projective_space(1)
        comps = graph_class(delta_table(model, pn_power_map(model, 2), 1), 1)
        assert [c.coefficient for c in comps] == [2, 1]
        assert [c.label for c in comps] == ["[P^1]x[P^0]", "[P^0]x[P^1]"]

    def test_identity_on_p2(self):
        model = projective_space(2)
        comps = graph_class(delta_table(model, identity_map(model.algebra), 1), 1)
        assert [c.coefficient for c in comps] == [1, 1, 1]

    def test_p1_third_iterate(self):
        model = projective_space(1)
        comps = graph_class(delta_table(model, pn_power_map(model, 2), 3), 3)
        assert [c.coefficient for c in comps] == [8, 1]


    def test_table_and_oracle_agree_on_the_battery(self):
        # graph class and Segre degree are read off the delta table; the
        # repeated-squaring oracle delta(model, f, m, j) must give the same
        for name, model, f in builder_battery():
            r = model.r
            table = delta_table(model, f, 6)
            for m in range(1, 7):
                oracle = [delta(model, f, m, r - j) for j in range(r + 1)]
                comps = graph_class(table, m)
                assert [c.coefficient for c in comps] == oracle, (name, m)
                segre = segre_graph_degree(model, f, table, m).value
                assert segre == sum(
                    x * math.comb(r, j) for j, x in enumerate(oracle)
                ), (name, m)

    def test_table_too_short_is_rejected(self):
        model = projective_space(1)
        f = pn_power_map(model, 2)
        with pytest.raises(ShapeMismatch):
            graph_class(delta_table(model, f, 3), 4)
        with pytest.raises(ShapeMismatch):  # column m = 0 does not wrap to m_max
            graph_class(delta_table(model, f, 3), 0)
        with pytest.raises(ShapeMismatch):
            segre_graph_degree(model, f, delta_table(model, f, 3), 0)


class TestSegreGraphDegree:
    def test_p1_degree_two(self):
        model = projective_space(1)
        f = pn_power_map(model, 2)
        res = segre_graph_degree(model, f, delta_table(model, f, 1), 1)
        assert res.value == 3 == (1 + 2) ** 1
        assert res.expected == 3 and res.matches

    def test_p2_degree_two_second_iterate(self):
        model = projective_space(2)
        f = pn_power_map(model, 2)
        res = segre_graph_degree(model, f, delta_table(model, f, 2), 2)
        assert res.value == 16 + 2 * 4 + 1 == 25
        assert res.matches

    def test_identity_on_p2(self):
        model = projective_space(2)
        f = pn_power_map(model, 1)
        res = segre_graph_degree(model, f, delta_table(model, f, 1), 1)
        assert res.value == 4 and res.expected == 4 and res.matches

    def test_closed_form_under_an_ample_override(self):
        # with h = c x on P^n, delta_j(f^m) = c^n d^(mj), so the total is
        # deg(X) (1 + d^m)^n with deg(X) = c^n
        for n in (1, 2, 3):
            base = projective_space(n)
            f = pn_power_map(base, 2)
            for c in (2, 3, Fraction(1, 2)):
                model = EmbeddedModel(
                    base.algebra, base.algebra.homogeneous(2, [c]),
                    base.ambient_dim, base.realizability, base.provenance,
                    base.effective,
                ).validate()
                table = delta_table(model, f, 4)
                for m in range(1, 5):
                    res = segre_graph_degree(model, f, table, m)
                    assert res.expected == c**n * (1 + 2**m) ** n, (n, c, m)
                    assert res.value == res.expected and res.matches, (n, c, m)

    @pytest.mark.parametrize("provenance", ["custom", "power:2"],
                             ids=["naming-no-degree", "naming-another-degree"])
    def test_the_map_degree_is_read_off_the_blocks(self, provenance):
        # x -> 3x on P^2: f*(h) = 3h, so the expected value is (1 + 3^2)^2,
        # whatever the model's provenance string names
        p2 = projective_space(2)
        model = EmbeddedModel(p2.algebra, p2.h, p2.ambient_dim,
                              provenance=provenance)
        f = validate_pullback(model.algebra, [[[1]], [], [[3]], [], [[9]]])
        res = segre_graph_degree(model, f, delta_table(model, f, 2), 2)
        assert res.value == res.expected == 100 and res.matches

    @pytest.mark.parametrize("name", ["product", "matrices", "lattice", "elliptic"])
    def test_every_model_with_one_divisor_class_is_cross_checked(self, name):
        # H^2 = Q h, so f*(h) = d h for whichever ring map f* is, and the
        # total is deg(X) (1 + d^m)^r: (d, deg(X), r) is (3, 1, 2) on P^2,
        # (1, 2, 2) for the identity of the lattice <2> and (1, 1, 1) for
        # the det-1 map of E; the last entry is the total at m = 3
        p2 = projective_space(2)
        model, f, d, at_3 = {
            "product": lambda: (p2, product_map(p2, [3], [0]), 3, 784),
            "matrices": lambda: (p2, validate_pullback(
                p2.algebra, [[[1]], [], [[3]], [], [[9]]]), 3, 784),
            "lattice": lambda: (*surface_lattice([[2]], [[1]], [1]), 1, 8),
            "elliptic": lambda: (*abelian_variety(1, [[2, 1], [1, 1]]), 1, 2),
        }[name]()
        table = delta_table(model, f, 4)
        for m in range(1, 5):
            res = segre_graph_degree(model, f, table, m)
            assert res.expected == model.deg_x * (1 + d**m) ** model.r, m
            assert res.value == res.expected and res.matches is True, m
        assert segre_graph_degree(model, f, table, 3).expected == at_3

    def test_no_cross_check_for_other_models(self):
        model = multiprojective([1, 1])
        f = product_map(model, [2, 3], [1, 0])
        res = segre_graph_degree(model, f, delta_table(model, f, 1), 1)
        assert res.expected is None and res.matches is None


class TestBoundConstant:
    def test_values_from_the_closed_form(self):
        assert bound_constant(2, 1) == 4
        assert bound_constant(2, 3) == 108
        assert bound_constant(0, 5) == 10  # r = 0 boundary: 2 * deg_x

    def test_rejects_bad_inputs(self):
        with pytest.raises(Exception):
            bound_constant(-1, 1)
        with pytest.raises(Exception):
            bound_constant(2, Fraction(1, 2))


class TestMovingLedger:
    def test_degree_one_ambient(self):
        for k in (1, 2, 3):
            ledger = moving_ledger(3, 1, 5, 7, k)
            assert all(v == 5 for v in ledger.v_degrees)
            assert ledger.bound == (k + 1) * 5 * 7

    def test_doubling_recurrence(self):
        ledger = moving_ledger(3, 2, 1, 1, 3)
        assert ledger.v_degrees == (1, 2, 4, 8)
        assert ledger.e_degrees == (2, 4, 8)
        assert ledger.bound == (1 + 2 + 4 + 4) * 1 == 11

    def test_full_depth_stays_under_the_constant(self):
        for r in range(0, 4):
            for deg_x in (1, 2, 3):
                ledger = moving_ledger(r, deg_x, 1, 1, r + 1)
                assert ledger.bound <= bound_constant(r, deg_x)

    def test_bound_is_monotone_in_the_step_count(self):
        bounds = [moving_ledger(4, 2, 3, 5, k).bound for k in range(1, 6)]
        assert bounds == sorted(bounds)

    def test_step_out_of_range(self):
        with pytest.raises(ShapeMismatch, match=r"^k = 4 outside \[1, r \+ 1\] = "):
            moving_ledger(2, 1, 1, 1, 4)
        with pytest.raises(ShapeMismatch, match=r"^k = 0 outside "):
            moving_ledger(2, 1, 1, 1, 0)


class TestIntersectionBound:
    def test_p2_lines(self):
        model = projective_space(2)
        res = check_intersection_bound(model, model.h, model.h)
        assert res.pairing == 1 and res.constant == 4 and res.ok

    def test_p1xp1_rulings_under_segre(self):
        model = multiprojective([1, 1])
        h1 = model.algebra.basis_element(2, 0)
        h2 = model.algebra.basis_element(2, 1)
        res = check_intersection_bound(model, h1, h2)
        assert res.pairing == 1
        assert res.constant == 4 * 2**3
        assert res.deg_v == 1 and res.deg_w == 1 and res.ok

    def test_p3_linear_subspaces(self):
        model = projective_space(3)
        x = model.h
        x2 = model.algebra.power(x, 2)
        res = check_intersection_bound(model, x, x2)
        assert res.pairing == 1 and res.constant == 5 and res.ok

    def test_non_complementary_rejected(self):
        model = projective_space(2)
        with pytest.raises(ShapeMismatch, match=r"^classes must be homogeneous and"):
            check_intersection_bound(
                model, model.h, lin_comb((1, model.h), (1, model.algebra.one())))
        with pytest.raises(ShapeMismatch,
                           match=r"^degrees 0 and 2 are not complementary even"):
            check_intersection_bound(
                model, model.algebra.one(), model.h
            )

    def test_bounds_report_builds_no_product(self, monkeypatch):
        # deg(v) is read once per class and every number is a value of the
        # pairing form, so once h^j and deg(X) are cached no product is built
        from dyndeg.degrees import bounds_section

        model = multiprojective([2, 2, 2])
        model.h_powers, model.deg_x
        calls = count_products(monkeypatch)
        result = bounds_section(model, None, None)
        assert len(calls) == 0
        monkeypatch.undo()
        alg, by_label = model.algebra, {e.label: e.element for e in model.effective}
        assert len(result["checks"]) == 141 and result["violations"] == 0
        for check in result["checks"]:
            v, w = by_label[check["v"]], by_label[check["w"]]
            assert check["pairing"] == pair_by_product(alg, v, w)
            for element, key in ((v, "deg_v"), (w, "deg_w")):
                comp = alg.power(model.h, model.r - element.degree() // 2)
                assert check[key] == pair_by_product(alg, element, comp)

    def test_exhaustive_over_builder_effective_pairs(self):
        for name, model, _ in builder_battery():
            alg = model.algebra
            for ev in model.effective:
                for ew in model.effective:
                    dv, dw = ev.element.degrees(), ew.element.degrees()
                    if len(dv) != 1 or len(dw) != 1:
                        continue
                    if dv[0] + dw[0] != alg.top_degree:
                        continue
                    res = check_intersection_bound(model, ev.element, ew.element)
                    assert res.ok, (name, ev.label, ew.label)
