"""A closed-form oracle for the closure of A (x) I_2 on E^g.

H*(E^g) is the exterior algebra on V (x) W, V = Q^g and W = H^1(E), so by
the dual Cauchy identity its degree-n piece is the sum over |lambda| = n of
S_lambda V (x) S_lambda' W (Macdonald, *Symmetric Functions and Hall
Polynomials*, ch. I 4).  A (x) I_2 acts through GL(V) alone, and every
divisor class, the polarization included, is SL(W)-invariant.  The
SL(W)-invariants are the pieces with lambda' = (j, j), that is
S_(2^j) V in degree 2j, and nothing in odd degrees.  So the Gromov closure of
the polarization lies in the sum of the S_(2^j) V, and its radius lambda_gr
is the largest top eigenvalue modulus of S_(2^j)(A) reached there:
prod_(i <= j) |alpha_i|^2, alpha_i the eigenvalues of A by falling modulus.
The test reads the alpha_i from mpmath, not from ``dyndeg.spectral``, so the
solver's own root code is not its own oracle.
"""

import math
import random
from fractions import Fraction

import mpmath
import pytest

from dyndeg.abelian import abelian_variety
from dyndeg.gromov import gromov_closure, lambda_gr
from dyndeg.models import exterior_algebra

from support import fraction_char_poly, fraction_det, times_i2

# a basis of sl(W): X = E, F and H
SL_W = (((0, 1), (0, 0)), ((0, 0), (1, 0)), ((1, 0), (0, -1)))


def schur_dims(g: int) -> list[int]:
    """dim S_(2^j)(Q^g) for j = 0..g, by the hook-content formula: the
    product over the cells (r, c) of the shape of (g + c - r) / hook."""
    dims = []
    for j in range(g + 1):
        d = Fraction(1)
        for r in range(j):
            for c in range(2):
                d *= Fraction(g + c - r, (1 - c) + (j - 1 - r) + 1)
        dims.append(int(d))
    return dims


def top_radii(a) -> list[float]:
    """prod_(i <= j) |alpha_i|^2 for j = 0..g, the alpha_i the roots of
    det(xI - A) by falling modulus."""
    with mpmath.workdps(60):
        roots = mpmath.polyroots(fraction_char_poly(a), maxsteps=200,
                                 extraprec=200)
        moduli = sorted((abs(z) for z in roots), reverse=True)
        return [float(math.prod((m * m for m in moduli[:j]), start=1))
                for j in range(len(a) + 1)]


def derivation(algebra, x):
    """The derivation of H*(E^g) that acts on H^1 as I_g (x) X, that is
    e_(2i+a) -> sum_b X[b][a] e_(2i+b), and on e_i1 ^ ... ^ e_ik by the
    Leibniz rule: per degree, basis index -> {basis index: coefficient}.  A
    basis word of ``algebra.words`` is the wedge of the letters it holds, in
    increasing order.  A term that replaces e_(2i+a) by e_(2i+b) keeps the
    letters in order, as no letter lies between the two, so its re-sorting
    sign is +1."""
    out = []
    for words in algebra.words:
        letters = [tuple(i for i, (c, _) in enumerate(w) if c) for w in words]
        index = {s: p for p, s in enumerate(letters)}
        columns = []
        for s in letters:
            column = {}
            for t, old in enumerate(s):
                for b in range(2):
                    new = old - old % 2 + b
                    if x[b][old % 2] and (new == old or new not in s):
                        q = index[s[:t] + (new,) + s[t + 1:]]
                        column[q] = column.get(q, 0) + x[b][old % 2]
            columns.append(column)
        out.append(columns)
    return out


def killed(derivations, element) -> bool:
    """Whether every derivation sends ``element`` to 0."""
    for columns in derivations:
        for d in element.degrees():
            image = {}
            for p, v in element.pieces[d]:
                for q, c in columns[d][p].items():
                    image[q] = image.get(q, 0) + v * c
            if any(image.values()):
                return False
    return True


def draws():
    """Eight invertible A with entries in [-2, 2] at g = 2, eight at g = 3
    and one at g = 4, from one seeded generator."""
    rng = random.Random(30)
    for g in [2] * 8 + [3] * 8 + [4]:
        while True:
            a = [[rng.randint(-2, 2) for _ in range(g)] for _ in range(g)]
            if fraction_det(a):
                yield a
                break


def test_the_hook_content_dims_are_the_recorded_closure_dims():
    assert schur_dims(2) == [1, 3, 1]
    assert schur_dims(3) == [1, 6, 6, 1]
    assert schur_dims(4) == [1, 10, 20, 10, 1]
    assert schur_dims(5) == [1, 15, 50, 50, 15, 1]
    assert schur_dims(6) == [1, 21, 105, 175, 105, 21, 1]


DRAWS = list(draws())
IDS = [f"g{len(a)}-{i}" for i, a in enumerate(DRAWS)]
# the draws whose closure fills the Schur ring, as observed: the others
# have a special A and a smaller closure
FILLED = {"g2-2", "g2-5", "g2-6", "g2-7", "g3-9", "g3-10", "g3-11", "g3-12",
          "g3-13", "g3-15", "g4-16"}


def check_closure(a, closure, filled):
    """The closure of A (x) I_2 lies in the Schur ring, which it fills when
    ``filled``: no odd piece, each even piece at most (exactly) its
    hook-content dimension, every basis vector killed by sl(W); and its
    radius is the top of some S_(2^j)(A)."""
    dims = closure.dims_by_degree
    assert not any(dims[1::2]), dims
    if filled:
        assert list(dims[::2]) == schur_dims(len(a)), dims
    assert all(d <= s for d, s in zip(dims[::2], schur_dims(len(a)))), dims
    sl_w = [derivation(closure.algebra, x) for x in SL_W]
    assert all(killed(sl_w, b) for b in closure.basis)
    rho, _ = lambda_gr(closure)
    want = max(top_radii(a))
    assert abs(rho - want) <= 1e-9 * max(1.0, rho), (rho, want)


def test_the_derivations_move_what_is_not_sl_w_invariant():
    algebra = exterior_algebra(2)
    sl_w = [derivation(algebra, x) for x in SL_W]
    e = algebra.basis_element
    assert killed(sl_w, e(0, 0))  # the unit
    assert killed(sl_w, e(2, 0))  # e_0 ^ e_1, in wedge^2 W
    assert killed(sl_w, e(4, 0))  # the top form
    assert not killed(sl_w, e(1, 0))
    assert not killed(sl_w, e(2, 1))  # e_0 ^ e_2


@pytest.mark.parametrize("name, a", zip(IDS, DRAWS), ids=IDS)
def test_the_closure_lies_in_the_schur_ring_and_reaches_its_top(name, a):
    model, f = abelian_variety(len(a), times_i2(a))
    check_closure(a, gromov_closure(f, model.h), name in FILLED)


@pytest.mark.slow
def test_the_g5_pin_closure_fills_the_schur_ring_and_reaches_its_top():
    # about 4 s; run with ``pytest -m slow``
    from test_cli import ABELIAN_G5_A

    model, f = abelian_variety(5, times_i2(ABELIAN_G5_A))
    closure = gromov_closure(f, model.h)
    assert closure.dims_by_degree == (1, 0, 15, 0, 50, 0, 50, 0, 15, 0, 1)
    check_closure(ABELIAN_G5_A, closure, True)
