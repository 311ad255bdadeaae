"""Invariance relations: two exact runs that must agree, with no oracle
between them.

(a) GL_g(Z) on E^g.  For Q in GL_g(Z), Phi = ``exterior_pullback(algebra,
Q (x) I_2)`` is a ring automorphism of H*(E^g), and Phi f_A Phi^-1 is the map
of B = Q^-1 A Q (a pullback composes contravariantly: the matrix of f g is
G F).  So A (x) I_2 with the ample class h, and B (x) I_2 with Phi(h), have
the same closure dims, the same characteristic polynomial of each closure
block and the same chain verdict.  The other order, Q A Q^-1, breaks the
relation on some draws (on A = [[0, 1], [1, 0]], Q = [[1, 1], [0, 1]] among
the 120 here), so it tells a wrong convention apart.

(b) Renamed factors on (P^n)^k.  Renaming the factors by sigma, with the
product map's degrees and permutation relabelled to match, is a ring
automorphism that fixes h, so both runs agree as in (a).

(c) Scaling.  The closure of c omega, c > 0 rational, is the closure of
omega: the same RREF basis, blocks and lambda_gr.

(d) Squaring.  For a block (D, A) with polynomial P = det(D x I - A), the
block (D^2, A^2) of the squared map has the Graeffe transform of P as its
polynomial: P_2(x^2) = +-P(x) P(-x), up to a constant factor.  The closure
of f^2 from omega lies inside that of f, so lambda_gr(f^2) <= lambda_gr(f)^2.
"""

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from dyndeg.abelian import abelian_variety, exterior_pullback
from dyndeg.gromov import gromov_closure, lambda_gr, spectral_chain
from dyndeg.linalg import identity
from dyndeg.projective import multiprojective, product_map
from dyndeg.spectral import _scaled_poly

from support import mat_mul, times_i2


@st.composite
def unimodular(draw, g):
    """``(Q, Q^-1)``, Q a product of elementary integer matrices: row
    additions E_ij(c), row swaps and sign flips, each inverted exactly."""
    q = q_inv = identity(g)
    for _ in range(draw(st.integers(1, 6))):
        i, j = draw(st.lists(st.integers(0, g - 1), min_size=2, max_size=2,
                             unique=True))
        kind = draw(st.sampled_from(["add", "swap", "flip"]))
        e = [[int(r == s) for s in range(g)] for r in range(g)]
        e_inv = [row[:] for row in e]
        if kind == "add":
            c = draw(st.integers(-2, 2))
            e[i][j], e_inv[i][j] = c, -c
        elif kind == "swap":
            e[i], e[j] = e[j], e[i]
            e_inv = e
        else:
            e[i][i] = e_inv[i][i] = -1
        q, q_inv = mat_mul(e, q), mat_mul(q_inv, e_inv)
    return q, q_inv


@st.composite
def conjugate_pairs(draw):
    g = draw(st.sampled_from([2, 3]))
    a = [[draw(st.integers(-2, 2)) for _ in range(g)] for _ in range(g)]
    return a, draw(unimodular(g))


def _degree_two_pairs(algebra, element):
    """The generator pairs (i, j) -> coefficient of the degree-2 ``element``."""
    pairs = [tuple(i for i, (d, _) in enumerate(w) if d)
             for w in algebra.words[2]]
    return {pairs[p]: Fraction(x, element.denominator)
            for p, x in element.pieces[2]}


def _run(model, f):
    closure = gromov_closure(f, model.h)
    polys = [(d, _scaled_poly(den, a)) for d, (den, a) in closure.blocks]
    return closure.dims_by_degree, polys, spectral_chain(model, closure)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(conjugate_pairs())
def test_a_conjugate_map_and_class_give_the_same_closure_and_chain(draw):
    a, (q, q_inv) = draw
    assert mat_mul(q, q_inv) == identity(len(q))
    model, f = abelian_variety(len(a), times_i2(a))
    phi_h = exterior_pullback(model.algebra, times_i2(q)).apply(model.h)
    b = mat_mul(mat_mul(q_inv, a), q)
    other, f_b = abelian_variety(
        len(a), times_i2(b), _degree_two_pairs(model.algebra, phi_h))
    assert other.h == phi_h
    dims, polys, chain = _run(model, f)
    assert _run(other, f_b) == (dims, polys, chain)
    assert chain.equality_asserted


@st.composite
def renamed_products(draw):
    """``(ns, degrees, perm, sigma)``: a product map on (P^n)^k and a
    renaming sigma of its factors."""
    n, k = draw(st.sampled_from([1, 2])), draw(st.integers(2, 3))
    degrees = [draw(st.integers(0, 3)) for _ in range(k)]
    perm, sigma = (draw(st.permutations(range(k))) for _ in range(2))
    return [n] * k, degrees, perm, sigma


@settings(max_examples=40, deadline=None, derandomize=True)
@given(renamed_products())
def test_renamed_factors_give_the_same_closure_and_chain(draw):
    ns, degrees, perm, sigma = draw
    # factor i becomes factor sigma(i): h_i -> d_i h_perm(i) reads
    # h_sigma(i) -> d_i h_sigma(perm(i))
    new_degrees, new_perm = [0] * len(ns), [0] * len(ns)
    for i, (d, p) in enumerate(zip(degrees, perm)):
        new_degrees[sigma[i]], new_perm[sigma[i]] = d, sigma[p]
    model = multiprojective(ns)
    dims, polys, chain = _run(model, product_map(model, degrees, perm))
    assert _run(model, product_map(model, new_degrees, new_perm)) == (
        dims, polys, chain)
    assert chain.equality_asserted


@st.composite
def matrices(draw, rational=False):
    """A g x g matrix A, g <= 3, with small integer entries, or entries over
    a drawn denominator when ``rational``."""
    g = draw(st.integers(1, 3))
    den = draw(st.sampled_from([1, 2, 3])) if rational else 1
    return [[Fraction(draw(st.integers(-2, 2)), den) for _ in range(g)]
            for _ in range(g)]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(matrices(), st.fractions(Fraction(1, 5), 5, max_denominator=5).filter(
    lambda c: c != 1))
def test_a_scaled_class_has_the_same_closure(a, c):
    model, f = abelian_variety(len(a), times_i2(a))
    h = model.h
    closure = gromov_closure(f, h)
    scaled = gromov_closure(f, model.algebra.element(
        {(2, p): c * Fraction(x, h.denominator) for p, x in h.pieces[2]}))
    assert scaled.omega != h
    assert (scaled.basis, scaled.blocks, lambda_gr(scaled)) == (
        closure.basis, closure.blocks, lambda_gr(closure))


def _graeffe(poly):
    """The primitive even part of P(x) P(-x), descending: its coefficients
    of x^(2i), over their gcd."""
    n = len(poly) - 1
    product = [0] * (2 * n + 1)
    for i, x in enumerate(poly):
        for j, y in enumerate(poly):
            product[i + j] += x * y * (-1) ** (n - j)
    even = product[::2]
    g = math.gcd(*even)
    return tuple(x // g for x in even)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(matrices(rational=True))
def test_squaring_gives_the_graeffe_polynomial_and_squares_the_radius(a):
    model, f = abelian_variety(len(a), times_i2(a))
    closure = gromov_closure(f, model.h)
    for _, (den, block) in closure.blocks:
        square = mat_mul(block, block)
        graeffe = _graeffe(_scaled_poly(den, block))
        assert _scaled_poly(den**2, square) in (
            graeffe, tuple(-x for x in graeffe))
    _, f2 = abelian_variety(len(a), times_i2(mat_mul(a, a)))
    closure2 = gromov_closure(f2, model.h)
    (lam, err), (lam2, err2) = lambda_gr(closure), lambda_gr(closure2)
    assert lam2 - err2 <= (lam + err) ** 2 * (1 + 1e-12) + 1e-12
