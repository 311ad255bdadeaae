"""Differential tests of the integer kernels against Fraction and sympy.

``char_poly``, ``det`` and ``Echelon`` run in ``int`` on scaled copies of
their rational input.  Here they are compared with the Fraction loops they
replaced (kept in ``support``) and with sympy on random rational input,
including empty, singular, repeated and negative-lead cases.  The Gromov
closure, which runs on the same kernels, is pinned by a digest of its output
on the builder battery, recorded with the Fraction implementation.
"""

import hashlib
from fractions import Fraction

import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from dyndeg.gromov import gromov_closure
from dyndeg.linalg import Echelon, det
from dyndeg.spectral import char_poly

from support import (
    FractionEchelon,
    builder_battery,
    fraction_char_poly,
    fraction_det,
)

SETTINGS = settings(max_examples=60, deadline=None)

scalars = st.one_of(
    st.fractions(min_value=-6, max_value=6, max_denominator=7),
    st.integers(-(10**6), 10**6).map(Fraction),
    st.just(Fraction(0)),
)


def to_sympy(rows):
    return sympy.Matrix(
        [[sympy.Rational(x.numerator, x.denominator) for x in row]
         for row in rows]
    )


def from_sympy(x) -> Fraction:
    x = sympy.Rational(x)
    return Fraction(int(x.p), int(x.q))


@st.composite
def square_matrices(draw):
    """Rational n x n matrices, n <= 9; about half are made singular by a
    zero row, a repeated row or a row that combines two others."""
    n = draw(st.integers(0, 9))
    rows = [[draw(scalars) for _ in range(n)] for _ in range(n)]
    if n >= 1 and draw(st.booleans()):
        i = draw(st.integers(0, n - 1))
        kind = draw(st.sampled_from(("zero", "repeat", "combine")))
        j, k = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if kind == "zero" or j == i or k == i:
            rows[i] = [Fraction(0)] * n
        elif kind == "repeat":
            rows[i] = list(rows[j])
        else:
            a, b = draw(scalars), draw(scalars)
            rows[i] = [a * x + b * y for x, y in zip(rows[j], rows[k])]
    return [tuple(row) for row in rows]


@st.composite
def vector_lists(draw):
    """Up to 9 rational vectors of one width, with zero vectors, repeats,
    negated (negative-lead) copies and combinations of earlier vectors."""
    width = draw(st.integers(1, 7))
    vectors = []
    for _ in range(draw(st.integers(0, 9))):
        kind = draw(st.sampled_from(("fresh", "zero", "repeat", "negate",
                                     "combine", "sparse")))
        if kind == "zero":
            vec = [Fraction(0)] * width
        elif kind in ("repeat", "negate", "combine") and vectors:
            old = vectors[draw(st.integers(0, len(vectors) - 1))]
            if kind == "repeat":
                vec = list(old)
            elif kind == "negate":
                vec = [-x for x in old]
            else:
                other = vectors[draw(st.integers(0, len(vectors) - 1))]
                a, b = draw(scalars), draw(scalars)
                vec = [a * x + b * y for x, y in zip(old, other)]
        elif kind == "sparse":
            vec = [Fraction(0)] * width
            vec[draw(st.integers(0, width - 1))] = draw(scalars)
        else:
            vec = [draw(scalars) for _ in range(width)]
        vectors.append(tuple(vec))
    return width, vectors


class TestCharPolyAndDet:
    @SETTINGS
    @given(square_matrices())
    def test_char_poly_matches_fraction_and_sympy(self, m):
        got = char_poly(m)
        assert got == fraction_char_poly(m)
        assert all(isinstance(c, Fraction) for c in got)
        if m:
            x = sympy.Symbol("x")
            expected = to_sympy(m).charpoly(x).all_coeffs()
            assert got == [from_sympy(c) for c in expected]
        else:
            assert got == [1]

    @SETTINGS
    @given(square_matrices())
    def test_det_matches_fraction_and_sympy(self, m):
        got = det(m)
        assert isinstance(got, Fraction)
        assert got == fraction_det(m)
        assert got == (from_sympy(to_sympy(m).det()) if m else 1)

    def test_singular_and_empty_cases(self):
        assert det(()) == 1 and char_poly(()) == [1]
        singular = ((Fraction(1, 2), Fraction(1, 3)), (Fraction(3), Fraction(2)))
        assert det(singular) == 0
        assert char_poly(singular)[-1] == 0
        # a zero leading entry forces a row swap, which flips the sign
        assert det(((0, 1), (1, 0))) == -1
        assert det(((0, 0), (1, 0))) == 0


class TestEchelon:
    @SETTINGS
    @given(vector_lists())
    def test_echelon_matches_sympy_rref(self, data):
        width, vectors = data
        ech = Echelon(width)
        oracle = FractionEchelon(width)
        for g, vec in enumerate(vectors):
            combo = {g: Fraction(1)}
            assert ech.insert(vec, combo) == oracle.insert(vec, combo)
        basis = ech.basis()
        if vectors:
            rref, pivots = to_sympy(vectors).rref()
            expected = [
                tuple(from_sympy(rref[i, j]) for j in range(width))
                for i in range(len(pivots))
            ]
        else:
            expected = []
        assert basis == expected == oracle.basis()
        assert ech.dimension == len(expected)
        # every combo re-evaluates to its basis row
        assert ech.combos == oracle.combos
        for row, combo in zip(basis, ech.combos):
            value = [Fraction(0)] * width
            for g, c in combo.items():
                value = [v + c * x for v, x in zip(value, vectors[g])]
            assert tuple(value) == row
        # every inserted vector has coordinates that rebuild it
        for vec in vectors:
            coords = ech.coordinates(vec)
            assert coords is not None and ech.contains(vec)
            rebuilt = [Fraction(0)] * width
            for c, row in zip(coords, basis):
                rebuilt = [v + c * x for v, x in zip(rebuilt, row)]
            assert tuple(rebuilt) == vec

    @SETTINGS
    @given(vector_lists(), st.data())
    def test_coordinates_are_none_outside_the_span(self, data, draw):
        width, vectors = data
        ech = Echelon(width)
        for g, vec in enumerate(vectors):
            ech.insert(vec, {g: Fraction(1)})
        probe = tuple(draw.draw(scalars) for _ in range(width))
        rank = to_sympy(vectors).rank() if vectors else 0
        inside = to_sympy([*vectors, probe]).rank() == rank
        assert (ech.coordinates(probe) is not None) == inside
        assert ech.contains(probe) == inside

    def test_combo_coefficients_may_be_rational(self):
        ech = Echelon(2)
        assert ech.insert((Fraction(-2, 3), 1), {0: Fraction(5, 7)})
        assert ech.basis() == [(1, Fraction(-3, 2))]
        assert ech.combos == [{0: Fraction(-15, 14)}]
        assert not ech.insert((2, -3), {1: Fraction(1)})


# sha256 of every battery closure (both sweep orders): basis, certificates,
# restricted matrix, dims and sweeps, recorded with the Fraction closure
BATTERY_CLOSURE_SHA256 = (
    "ff832435a3bc192553a27ed0a0aae949c48158f8a554207e3ce8182fd38d940e"
)


def closure_digest() -> str:
    digest = hashlib.sha256()
    for name, model, f in builder_battery():
        for order in ("forward", "reversed"):
            c = gromov_closure(model.algebra, f, model.h, sweep_order=order)
            digest.update(repr((
                name, order, c.sweeps, c.dims_by_degree,
                [[str(x) for x in b.flatten()] for b in c.basis],
                [[(str(k), w) for k, w in cert] for cert in c.certificates],
                [[str(x) for x in row] for row in c.restricted_matrix],
            )).encode())
    return digest.hexdigest()


class TestClosureDigest:
    def test_battery_closures_are_unchanged(self):
        assert closure_digest() == BATTERY_CLOSURE_SHA256
