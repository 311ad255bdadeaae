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

from support import fraction_char_poly, fraction_det, times_i2


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


@pytest.mark.parametrize(
    "a", DRAWS, ids=[f"g{len(a)}-{i}" for i, a in enumerate(DRAWS)])
def test_the_closure_lies_in_the_schur_ring_and_reaches_its_top(a):
    model, f = abelian_variety(len(a), times_i2(a))
    closure = gromov_closure(f, model.h)
    dims = closure.dims_by_degree
    assert not any(dims[1::2]), dims
    assert all(d <= s for d, s in zip(dims[::2], schur_dims(len(a)))), dims
    rho, _ = lambda_gr(closure)
    want = max(top_radii(a))
    assert abs(rho - want) <= 1e-9 * max(1.0, rho), (rho, want)
