import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyndeg.errors import ShapeMismatch, ZeroWeight
from dyndeg.spectral import (
    analyze,
    char_poly,
    combined_limsup_bound,
    gelfand_sequence,
    limsup_root,
    spectral_radius,
    trace_sequence,
)

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
        # m_max > 256 switches to scaled floats; values must still converge
        seq = trace_sequence([[1, 1], [1, 0]], 300)
        assert seq[-1][1] == pytest.approx((1 + math.sqrt(5)) / 2, rel=1e-6)

    def test_float_path_handles_huge_growth(self):
        # 500 powers of a matrix with radius sqrt(6): the raw traces overflow
        # any double, the tracked exponents keep the roots finite.  Closed
        # form: Tr(M^m) = 2 * 6^{m/2} at even m, 0 at odd m.
        seq = dict(trace_sequence([[0, 2], [3, 0]], 500))
        assert seq[499] == 0.0
        assert seq[500] == pytest.approx(
            math.sqrt(6) * 2 ** (1 / 500), rel=1e-9
        )

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
        # the product-swap row 5, 12, 30, 72, ... grows like sqrt(6)^m
        seq = []
        a, b = 1, 1  # coordinates of omega
        for _ in range(16):
            a, b = 3 * b, 2 * a
            seq.append(b + a)  # pair against omega through the [[0,1],[1,0]] gram
        est = limsup_root(seq, window=2)
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
        with pytest.raises(ZeroWeight):
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
        assert combined_limsup_bound(seqs, weights, tol=1e-6).verdict


class TestAnalyze:
    def test_report_is_internally_consistent(self):
        report = analyze([[1, 1], [1, 0]], tol=1e-9, doublings=8, trace_max=32)
        assert report.rho >= 0
        assert report.char_poly == (1, -1, -1)
        for _, est in report.gelfand:
            assert est >= report.rho - report.error_bound - 1e-9


class TestRootCertificationCache:
    def test_a_polynomial_is_certified_once(self, monkeypatch):
        import mpmath

        from dyndeg import spectral

        calls = []
        original = mpmath.polyroots

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        spectral._max_root_modulus.cache_clear()
        monkeypatch.setattr(mpmath, "polyroots", counted)
        # two matrices with the one polynomial x^3 - 2x - 5
        companion = [[0, 0, 5], [1, 0, 2], [0, 1, 0]]
        conjugate = [[0, 1, 0], [0, 0, 1], [5, 2, 0]]
        first = spectral_radius(companion)
        assert spectral_radius(conjugate) == first
        assert len(calls) == 1
        assert first[0] == pytest.approx(2.0945514815423265, abs=1e-9)
