"""Differential tests of the integer kernels against Fraction and sympy.

``char_poly`` and ``Echelon`` run in ``int`` on scaled copies of their
rational input.  Here they are compared with the Fraction loops they
replaced (kept in ``support``) and with sympy on random rational input,
including empty, singular, repeated and negative-lead cases; ``mat_mul``,
which multiplies ``int``, float and Fraction rows, with the Fraction one.
The Gromov closure, which runs on the same kernels, is pinned by a digest of
its output on the builder battery, recorded with the Fraction
implementation.
"""

import hashlib
import math
from fractions import Fraction

import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from dyndeg.gromov import gromov_closure
from dyndeg.linalg import Echelon, mat_mul
from dyndeg.spectral import char_poly

from support import (
    FractionEchelon,
    builder_battery,
    closure_blocks,
    coords,
    fraction_char_poly,
    fraction_det,
    mat_mul as fraction_mat_mul,
    replay_words,
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


@st.composite
def matrix_pairs(draw):
    """An r x k and a k x c matrix, r, k, c <= 4, of ints or of Fractions."""
    r, k, c = (draw(st.integers(0, 4)) for _ in range(3))
    entries = draw(st.sampled_from((st.integers(-10**6, 10**6), scalars)))
    return ([[draw(entries) for _ in range(k)] for _ in range(r)],
            [[draw(entries) for _ in range(c)] for _ in range(k)])


class TestMatMul:
    @SETTINGS
    @given(matrix_pairs())
    def test_mat_mul_matches_the_fraction_product(self, pair):
        a, b = pair
        expected = fraction_mat_mul(a, b)
        assert mat_mul(a, b) == [list(row) for row in expected]
        if all(type(x) is int for row in a + b for x in row):
            assert all(type(x) is int for row in mat_mul(a, b) for x in row)


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

    def test_singular_and_empty_cases(self):
        assert fraction_det(()) == 1 and char_poly(()) == [1]
        singular = ((Fraction(1, 2), Fraction(1, 3)), (Fraction(3), Fraction(2)))
        assert fraction_det(singular) == 0
        assert char_poly(singular)[-1] == 0
        # a zero leading entry forces a row swap, which flips the sign
        assert fraction_det(((0, 1), (1, 0))) == -1
        assert fraction_det(((0, 0), (1, 0))) == 0


def scaled(vector):
    """``(den, vec)``: ``vector`` as integer numerators over one common
    denominator, by its nonzero entries."""
    den = math.lcm(*(Fraction(x).denominator for x in vector))
    nums = [x.numerator * (den // x.denominator) for x in vector]
    return den, {j: x for j, x in enumerate(nums) if x}


def insert(ech, vector):
    return ech.insert_scaled(scaled(vector)[1])


def basis(ech):
    """The basis rows as dense Fraction vectors."""
    return [tuple(Fraction(vec.get(j, 0), den) for j in range(ech.width))
            for den, vec in ech.scaled_basis()]


class TestEchelon:
    @SETTINGS
    @given(vector_lists())
    def test_echelon_matches_sympy_rref(self, data):
        width, vectors = data
        ech = Echelon(width)
        oracle = FractionEchelon(width)
        for vec in vectors:
            assert insert(ech, vec) == oracle.insert(vec, {})
        rows = basis(ech)
        if vectors:
            rref, pivots = to_sympy(vectors).rref()
            expected = [
                tuple(from_sympy(rref[i, j]) for j in range(width))
                for i in range(len(pivots))
            ]
        else:
            expected = []
        assert rows == expected == oracle.basis()
        assert len(ech.pivots) == len(expected)
        # every inserted vector is rebuilt from its entries at the pivots,
        # as the Gromov closure reads its blocks
        for vec in vectors:
            assert oracle.contains(vec)
            coords = [vec[p] for p in ech.pivots]
            rebuilt = [Fraction(0)] * width
            for c, row in zip(coords, rows):
                rebuilt = [v + c * x for v, x in zip(rebuilt, row)]
            assert tuple(rebuilt) == vec

    @SETTINGS
    @given(vector_lists(), st.data())
    def test_a_vector_enlarges_the_span_exactly_when_outside_it(
            self, data, draw):
        # insert_scaled's reduction is the one span test the closure runs
        width, vectors = data
        ech = Echelon(width)
        oracle = FractionEchelon(width)
        for vec in vectors:
            insert(ech, vec)
            oracle.insert(vec, {})
        probe = tuple(draw.draw(scalars) for _ in range(width))
        rank = to_sympy(vectors).rank() if vectors else 0
        inside = to_sympy([*vectors, probe]).rank() == rank
        assert oracle.contains(probe) == inside
        assert insert(ech, probe) == (not inside)
        assert len(ech.pivots) == rank + (not inside)

    @SETTINGS
    @given(vector_lists(), st.randoms(use_true_random=False))
    def test_the_basis_does_not_depend_on_insertion_order(self, data, rng):
        # the Gromov closure's basis is canonical because this holds
        width, vectors = data
        nums = [scaled(vec)[1] for vec in vectors]
        forms = []
        for _ in range(2):
            rng.shuffle(nums)
            ech = Echelon(width)
            for vec in nums:
                ech.insert_scaled(vec)
            forms.append((ech.pivots, ech.scaled_basis()))
        assert forms[0] == forms[1]

    def test_a_rational_row_is_kept_in_lowest_terms(self):
        ech = Echelon(2)
        assert insert(ech, (Fraction(-2, 3), 1))
        assert basis(ech) == [(1, Fraction(-3, 2))]
        assert ech.scaled_basis() == [(2, {0: 2, 1: -3})]
        assert not insert(ech, (2, -3))


# sha256 of every battery closure: basis, per-vector certificates (rebuilt
# from the words by ``certificates``), restricted matrix (the blocks on the
# diagonal), dims and sweeps; taken on code that still matched the digest
# recorded with the Fraction closure
BATTERY_CLOSURE_SHA256 = (
    "6007955953a82eb25b4ca135b8ada3467ac71018dcee9fd3e8d52c82a88b646f"
)


def block_diagonal(blocks) -> list[list]:
    """The matrix with the given ``(degree, block)`` diagonal blocks, zeros
    elsewhere: f* on the closure basis, as the digest records it."""
    n = sum(len(block) for _, block in blocks)
    matrix = [[0] * n for _ in range(n)]
    start = 0
    for _, block in blocks:
        for i, row in enumerate(block):
            matrix[start + i][start:start + len(row)] = row
        start += len(block)
    return matrix


def spelled_out(words) -> list[tuple]:
    """Each index recipe of ``words`` as the nested word it names, such as
    ``("pull", ("omega",))`` for ``("pull", 1)``: the form the digest was
    recorded in."""
    nested = []
    for tag, *args in words:
        nested.append((tag, *(nested[i] for i in args)))
    return nested


def certificates(closure) -> list[list[tuple]]:
    """Per basis vector, the terms ``(word index, coefficient)`` that sum
    the word values to it, by index: the form the digest was recorded in.  Each
    degree's values go into a ``FractionEchelon`` in word order, each with
    the combo ``{index: 1}``; every word enlarged its degree's span, so
    the rows are the closure's basis and their combos its certificates."""
    values = replay_words(closure)
    certs = []
    for d, dim in enumerate(closure.algebra.dims):
        ech = FractionEchelon(dim)
        for g, v in enumerate(values):
            if v.degree() == d:
                assert ech.insert(coords(v)[d], {g: Fraction(1)})
        assert ech.basis() == [coords(b)[d] for b in closure.basis
                               if b.degree() == d]
        certs += [sorted(combo.items()) for combo in ech.combos]
    return certs


def closure_digest() -> str:
    digest = hashlib.sha256()
    for name, model, f in builder_battery():
        c = gromov_closure(f, model.h)
        words = spelled_out(c.words)
        digest.update(repr((
            name, c.sweeps, c.dims_by_degree,
            [[str(x) for piece in coords(b) for x in piece] for b in c.basis],
            [[(str(k), words[g]) for g, k in cert]
             for cert in certificates(c)],
            [[str(x) for x in row] for row in block_diagonal(closure_blocks(c))],
        )).encode())
    return digest.hexdigest()


class TestClosureDigest:
    def test_battery_closures_are_unchanged(self):
        assert closure_digest() == BATTERY_CLOSURE_SHA256
