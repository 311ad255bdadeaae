"""Invariance under GL_g(Z) on E^g: two exact runs that must agree, with no
oracle between them.

For Q in GL_g(Z), Phi = ``exterior_pullback(algebra, Q (x) I_2)`` is a ring
automorphism of H*(E^g), and Phi f_A Phi^-1 is the map of B = Q^-1 A Q (a
pullback composes contravariantly: the matrix of f g is G F).  So A (x) I_2
with the ample class h, and B (x) I_2 with Phi(h), have the same closure
dims, the same characteristic polynomial of each closure block and the same
chain verdict.  The other order, Q A Q^-1, breaks the relation on some
draws (on A = [[0, 1], [1, 0]], Q = [[1, 1], [0, 1]] among the 120 here),
so it tells a wrong convention apart.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from dyndeg.abelian import abelian_variety, exterior_pullback
from dyndeg.gromov import gromov_closure, spectral_chain
from dyndeg.linalg import identity
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
