"""Spectral radius, exactly: the characteristic polynomial by Berkowitz
elimination in ``int``, of a block held as an integer matrix A = D*M and its
denominator D (as ``PullbackMap.scaled_blocks`` and the Gromov closure hold
it), made primitive, and certified brackets of its root moduli.

Roots are certified in integers, on square-free polynomials from the
primitive remainder sequence: Aberth's iteration proposes them in floats,
they are polished as Gaussian integers over 2^B, and pairwise disjoint
Newton disks of radius n|p(z)/p'(z)|, evaluated exactly, certify them.
:func:`scaled_radius` reads the largest modulus; :func:`exterior_radii`
the radius of each exterior power of a matrix, from that matrix's roots.

The floating estimators (norm doubling, trace growth) and the limsup
utilities live in :mod:`dyndeg.estimators`, which never consults this
module, so the two routes cross-check each other.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
from fractions import Fraction
from typing import Sequence

from .errors import ShapeMismatch, SpectralNonconvergence
from .linalg import as_matrix, scaled_matrix

# root certification: first fixed-point precision, float iteration cap, and
# the floor that every certified error adds, times max(1, rho)
_START_BITS = 128
_FLOAT_SWEEPS = 100
_ERROR_FLOOR = 1e-15
_PAST_RANGE = "spectral radius past the float range"


def char_poly(matrix: Sequence[Sequence]) -> list[Fraction]:
    """Coefficients of det(xI - M), descending: :func:`_scaled_poly` over
    its leading coefficient.  [1] for the empty matrix."""
    p = _scaled_poly(*scaled_matrix(as_matrix(matrix)))
    return [Fraction(c, p[0]) for c in p]


def _scaled_poly(den: int, a) -> tuple[int, ...]:
    """det(D x I - A) = D^n det(xI - A/D), descending, made primitive:
    coefficient k of det(xI - A), by Berkowitz in ``int``, times D^(n-k)."""
    if any(len(row) != len(a) for row in a):
        raise ShapeMismatch("characteristic polynomial of a non-square matrix")
    coeffs = _berkowitz(a)
    n = len(coeffs) - 1
    return tuple(_primitive([c * den ** (n - k) for k, c in enumerate(coeffs)]))


def _berkowitz(a: list[list[int]]) -> list[int]:
    """det(xI - a), descending, for a square integer matrix."""
    n = len(a)
    coeffs = [1]
    for r in range(1, n + 1):
        row = a[r - 1][: r - 1]
        sub = [a[i][: r - 1] for i in range(r - 1)]
        u = [a[i][r - 1] for i in range(r - 1)]
        # t = [1, -a_rr, -R S, -R A S, ..., -R A^{r-2} S]
        t = [1, -a[r - 1][r - 1]]
        for k in range(r - 1):
            if k:
                u = [sum(map(operator.mul, srow, u)) for srow in sub]
            t.append(-sum(map(operator.mul, row, u)))
        # lower-triangular Toeplitz product: new = T(t) . coeffs
        coeffs = [
            sum(t[i - j] * coeffs[j] for j in range(min(i, r - 1) + 1))
            for i in range(r + 1)
        ]
    return coeffs


def _poly_derivative(coeffs):
    n = len(coeffs) - 1
    return [c * (n - i) for i, c in enumerate(coeffs[:-1])]


def _primitive(coeffs: list[int]) -> list[int]:
    """``coeffs`` over their gcd, signed so the leading one is positive."""
    g = math.gcd(*coeffs) if coeffs[0] > 0 else -math.gcd(*coeffs)
    return [c // g for c in coeffs]


def _pseudo_divmod(a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    """``(q, r)`` with lc(b)^k a = q b + r, k = deg a - deg b + 1 and
    deg r < deg b; r without its leading zeros."""
    lead, q, r = b[0], [], list(a)
    tail = b[1:] + [0] * (len(a) - len(b))
    for _ in range(len(a) - len(b) + 1):
        f = r[0]
        q = [lead * c for c in q] + [f]
        r = [lead * x - f * y for x, y in zip(r[1:], tail)]
    while r and not r[0]:
        r.pop(0)
    return q, r


def _squarefree_part(coeffs) -> list[int]:
    """The square-free part of the integer polynomial ``coeffs`` without
    its zero roots, primitive with a positive leading coefficient: p over
    the last term of the primitive remainder sequence of p and p'."""
    p = list(coeffs)
    while len(p) > 1 and not p[-1]:
        p.pop()
    p = _primitive(p)
    if len(p) <= 2:
        return p
    a, b = p, _primitive(_poly_derivative(p))
    while r := _pseudo_divmod(a, b)[1]:
        a, b = b, _primitive(r)
    return p if len(b) == 1 else _primitive(_pseudo_divmod(p, b)[0])


def _multiplicities(coeffs) -> tuple[int, list[tuple[list[int], int]]]:
    """``(z, factors)``: z the multiplicity of the root 0 of ``coeffs``, and
    ``(q, m)`` for each multiplicity m of its other roots, q their product of
    x - a as :func:`_squarefree_part` gives, for integer ``coeffs``.  The
    square-free parts s_1, s_2, ... of p, p / s_1, p / (s_1 s_2), ... hold
    the roots of multiplicity at least 1, 2, ...; q = s_m / s_(m+1)."""
    zeros = next(i for i, c in enumerate(reversed(coeffs)) if c)
    p, levels = list(coeffs), []
    while len(s := _squarefree_part(p)) > 1:
        levels.append(s)
        p = _pseudo_divmod(p, s)[0]
    quotients = [_primitive(_pseudo_divmod(s, t)[0])
                 for s, t in zip(levels, levels[1:] + [[1]])]
    return zeros, [(q, m) for m, q in enumerate(quotients, 1) if len(q) > 1]


def spectral_radius(matrix: Sequence[Sequence], tol: float = 1e-9):
    """:func:`scaled_radius` of the rational square ``matrix``."""
    return scaled_radius(*scaled_matrix(as_matrix(matrix)), tol)


def scaled_radius(den: int, a, tol: float = 1e-9):
    """Certified max modulus of the eigenvalues of ``a`` / ``den``, ``a``
    a square integer matrix: returns ``(rho, error_bound)``.

    Each root of the square-free part of det(D x I - A) gets a disk of
    :func:`_root_disks`: rho is the largest |z| correctly rounded and capped
    at the Cauchy bound, the error bound the largest radius plus 1e-15
    max(1, rho), or rho's rounding error if the square-free part is linear.
    Raises :class:`SpectralNonconvergence` (with the best bracket) if the
    error does not fall to ``tol`` max(1, rho), and at once if rho is past
    the float range."""
    if not tol > 0:
        raise ShapeMismatch("tol must be positive")
    return _max_root_modulus(_scaled_poly(den, a), tol)


@functools.lru_cache(maxsize=64)
def _max_root_modulus(coeffs: tuple[int, ...], tol: float):
    """Certified ``(rho, error_bound)`` for the integer polynomial
    ``coeffs``; pure, so a closure block and a graded block with the same
    primitive characteristic polynomial share one certificate per process."""
    poly = _squarefree_part(coeffs)
    if len(poly) == 1:
        return 0.0, 0.0
    if len(poly) == 2:
        root = abs(Fraction(poly[1], poly[0]))
        rho = _sqrt_float(root.numerator**2, root.denominator**2)
        err = 0.0 if rho == root else rho * 2.0**-52
        if err > tol * max(1.0, rho):
            raise SpectralNonconvergence(rho, err)
        return rho, err
    # Cauchy: every root has modulus at most 1 + max |a_i / a_0|
    cauchy = _float(1 + Fraction(max(map(abs, poly[1:])), poly[0]))
    if _past_range(poly):
        raise SpectralNonconvergence(message=_PAST_RANGE)

    def read(certs):
        ((e, disks),) = certs
        rho = min(_sqrt_float(max(s for s, _ in disks), 1 << 2 * e), cauchy)
        yield rho, (_float(Fraction(max(r for _, r in disks), 1 << e))
                    + _ERROR_FLOOR * max(1.0, rho))
    return _certified([poly], read, tol, (0.0, cauchy))[0]


def _past_range(poly) -> bool:
    """Whether the coefficients of ``poly`` (leading one positive) put its
    largest root modulus rho past the float range, with no root round:
    |a_k / a_0| = |e_k(roots)| <= C(n, k) rho^k, so an a_k too large for
    any rho below 2^1024 proves it."""
    n = len(poly) - 1
    return any(abs(c) >> 1024 * k >= math.comb(n, k) * poly[0]
               for k, c in enumerate(poly[1:], 1))


def exterior_radii(den: int, a, tol: float = 1e-9):
    """Certified ``(mu_k, error_bound)`` for k = 0..n, mu_k the spectral
    radius of the k-th exterior power of the n x n M = ``a`` / ``den``.

    The eigenvalues of wedge^k M are the products of k eigenvalues of M
    (Marcus, *Finite Dimensional Multilinear Algebra* I), so mu_k is the
    product of the k largest root moduli of det(xI - M), with multiplicity:
    the correctly rounded root of the exact product of the k largest |z|^2,
    bracketed, also where moduli tie, by the products of the k largest
    |z| -/+ radius, exact for a factor with one root; the error bound is the
    bracket's width plus 1e-15 max(1, mu_k), or mu_k's rounding error if that
    width is 0.  Raises as :func:`scaled_radius` does, with the bracket
    (0, c^n), c >= 1 the Cauchy bound, if no round certifies every root."""
    if not tol > 0:
        raise ShapeMismatch("tol must be positive")
    coeffs = _scaled_poly(den, a)
    # mu_1 = rho, and mu_n = |det M|, which can pass the range without rho
    if _past_range(coeffs) or abs(coeffs[-1]) >= coeffs[0] << 1024:
        raise SpectralNonconvergence(message=_PAST_RANGE)
    zeros, factors = _multiplicities(coeffs)
    exact = [(0, 0, 0)] * zeros  # |z|^2, |z| - radius, |z| + radius
    for q, m in factors:
        if len(q) == 2:  # one root, of modulus |b| / a exactly: no root round
            exact += [((z := Fraction(abs(q[1]), q[0])) ** 2, z, z)] * m
    rounded = [(q, m) for q, m in factors if len(q) > 2]

    def read(certs):
        moduli = list(exact)
        for (e, disks), (_, m) in zip(certs, rounded):
            moduli += [(Fraction(s, 1 << 2 * e),
                        Fraction(max(0, (t := math.isqrt(s)) - r), 1 << e),
                        Fraction(t + 1 + r, 1 << e)) for s, r in disks] * m
        columns = [sorted(c, reverse=True) for c in zip(*moduli)] or [[]] * 3
        for k in range(len(moduli) + 1):
            c, lo, hi = (math.prod(col[:k], start=Fraction(1)) for col in columns)
            rho = _sqrt_float(c.numerator, c.denominator)
            yield rho, (_float(hi - lo) + _ERROR_FLOOR * max(1.0, rho) if hi != lo
                        else 0.0 if rho == lo else rho * 2.0**-52)
    return _certified([q for q, _ in rounded], read, tol, (0.0, _float((1 + Fraction(
        max(map(abs, coeffs[1:]), default=0), coeffs[0])) ** (len(coeffs) - 1))))


def _certified(polys: list[list[int]], read, tol: float, best):
    """``read(certs)`` once all its ``(rho, err)`` meet ``tol``, certs the
    ``(e, disks)`` of ``polys`` from one :func:`_root_disks` round that
    certifies them all; else raises with the worst pair read, or ``best``,
    at once if that pair's error is the floor, which no later round lowers."""
    rounds = [_root_disks(q) for q in polys]
    for _ in range(6):
        certs = [next(disks) for disks in rounds]
        if all(disks is not None for _, disks in certs):
            radii = list(read(certs))
            best = max(radii, key=lambda r: r[1] / max(1.0, r[0]))
            if best[1] <= tol * max(1.0, best[0]):
                return radii
            if best[1] <= _ERROR_FLOOR * max(1.0, best[0]):
                break
    raise SpectralNonconvergence(*best)


def _sqrt_float(num: int, den: int) -> float:
    """The modulus sqrt(num / den), correctly rounded, raising past the float
    range: from an isqrt s of at least 60 bits, an inexact root lies strictly
    between s and s + 1 units of 2^-k, so rounds as s + 1/2 does."""
    k = max(0, 61 - (num.bit_length() - den.bit_length()) // 2)
    q, rem = divmod(num << 2 * k, den)
    s = math.isqrt(q)
    rho = _float(Fraction(2 * s + (rem != 0 or s * s != q), 1 << k + 1))
    if rho == math.inf:
        raise SpectralNonconvergence(message=_PAST_RANGE)
    return rho


def _float(x) -> float:
    """``float(x)``, or inf past the float range."""
    try:
        return float(x)
    except OverflowError:
        return math.inf


def _fixed(x: float, shift: int) -> int:
    """floor(x * 2^shift), exactly."""
    num, den = x.as_integer_ratio()
    return (num << shift) // den


def _horner(coeffs, z):
    acc = 0
    for c in coeffs:
        acc = acc * z + c
    return acc


def _aberth_proposal(poly: list[int]) -> tuple[list[complex], int]:
    """Approximations ``z * 2^scale`` of all n roots of ``poly``.

    Aberth's iteration in complex floats on 2^(-sn) p(2^s x), s = ``scale``
    near log2 of the geometric mean |a_n/a_0|^(1/n) of the root moduli, from
    the unit circle (exact scaling: where p's floats fit, it is the run on p);
    a root stops once |p(z)| is within the rounding error of Horner's rule.
    On a float overflow the circle is returned, for the exact rounds to refine.
    """
    n = len(poly) - 1
    scale = round((abs(poly[-1]).bit_length() - abs(poly[0]).bit_length()) / n)
    circle = [cmath.exp(1j * (2 * math.pi * k / n + 0.4)) for k in range(n)]
    try:
        a = [float(Fraction(c, poly[0]) / Fraction(2) ** (scale * k))
             for k, c in enumerate(poly)]
        da = _poly_derivative(a)
        size = [abs(c) * (4 * n + 2) * 2.0**-53 for c in a]
        z = list(circle)
        moving = set(range(n))
        for _ in range(_FLOAT_SWEEPS):
            for k in list(moving):
                zk = z[k]
                pz = _horner(a, zk)
                if not cmath.isfinite(pz):
                    return circle, scale
                if abs(pz) <= _horner(size, abs(zk)):
                    moving.discard(k)
                    continue
                ratio = pz / _horner(da, zk)
                s = sum(1 / (zk - zj) for j, zj in enumerate(z) if j != k)
                z[k] = zk - ratio / (1 - ratio * s)
                if not cmath.isfinite(z[k]):
                    return circle, scale
            if not moving:
                break
    except (OverflowError, ZeroDivisionError):
        return circle, scale
    return z, scale


def _gauss_horner(coeffs: list[int], zr: int, zi: int, e: int) -> tuple[int, int]:
    """p(z) * 2^(e deg p) at z = (zr + i zi) / 2^e, exactly."""
    ar, ai = coeffs[0], 0
    for k, c in enumerate(coeffs[1:], 1):
        ar, ai = ar * zr - ai * zi + (c << e * k), ar * zi + ai * zr
    return ar, ai


def _separate(roots):
    """``roots`` with each one that equals an earlier one moved by a few
    units of their grid.

    Two approximations on one grid point sit in a cluster of roots that the
    grid does not resolve.  ``_polish`` skips the Aberth term of the pair,
    and on an exact root p(z) = 0 stops both, so without the move they would
    never part.  The move is made before the shift to the finer grid: a few
    units of the finer grid would leave the pair inside the cluster, where
    1 - N S cancels to rounding noise.
    """
    seen = set()
    out = []
    for z in roots:
        while z in seen:
            z = (z[0] + 3, z[1] + 2)
        seen.add(z)
        out.append(z)
    return out


def _polish(poly: list[int], roots, e: int, sweeps: int):
    """Aberth sweeps on the Gaussian integers ``roots`` over 2^e, until every
    correction is within 4 units of 2^-e or ``sweeps`` sweeps have run.

    With N = p/p' and S = sum_{j != k} 1/(z_k - z_j), a root moves by
    N / (1 - N S); in units of 2^-e that is N D^2 / (D^2 - N S) with N and S
    held times D = 2^e.
    """
    deriv = _poly_derivative(poly)
    roots = list(roots)
    d2 = 1 << 2 * e
    for _ in range(sweeps):
        worst = 0
        for k, (zr, zi) in enumerate(roots):
            pr, pi = _gauss_horner(poly, zr, zi, e)
            qr, qi = _gauss_horner(deriv, zr, zi, e)
            m = qr * qr + qi * qi
            if not m:
                continue
            nr, ni = (pr * qr + pi * qi) // m, (pi * qr - pr * qi) // m
            sr = si = 0
            for j, (yr, yi) in enumerate(roots):
                xr, xi = zr - yr, zi - yi
                m = xr * xr + xi * xi
                if j != k and m:
                    sr += (xr << 2 * e) // m
                    si -= (xi << 2 * e) // m
            br, bi = d2 - nr * sr + ni * si, -(nr * si + ni * sr)
            m = br * br + bi * bi
            if not m:
                continue
            ar, ai = nr << 2 * e, ni << 2 * e
            wr, wi = (ar * br + ai * bi) // m, (ai * br - ar * bi) // m
            roots[k] = (zr - wr, zi - wi)
            worst = max(worst, wr * wr + wi * wi)
        if worst <= 16:
            break
    return roots


def _root_disks(poly: list[int]):
    """``(e, disks)`` for six rounds, each adding twice the bits of the last:
    the :func:`_certify` disks of the square-free ``poly``'s roots over 2^e."""
    start, scale = _aberth_proposal(poly)
    # denominator exponent: B bits below the smallest proposed root
    low = min(math.frexp(abs(z))[1] for z in start) + scale
    bits = _START_BITS
    e = bits + max(0, -low)
    roots = [(_fixed(z.real, e + scale), _fixed(z.imag, e + scale)) for z in start]
    for _ in range(6):
        # Aberth closes in on a cluster the grid cannot yet resolve about
        # 2 bits a sweep, so a round of ``bits`` new bits gets bits/2 sweeps
        roots = _polish(poly, roots, e, bits // 2)
        yield e, _certify(poly, roots, e)
        roots = [(zr << bits, zi << bits) for zr, zi in _separate(roots)]
        e += bits
        bits *= 2


def _certify(poly: list[int], roots, e: int):
    """Newton inclusion disks, as ``(|z|^2, radius)`` in units of 2^-2e and
    2^-e for each of ``roots``, or None without a certificate.

    The disk |w - z| <= n |p(z)/p'(z)| holds a root of p, because
    p'/p = sum 1/(z - zeta_k).  Radii are rounded up in units of 2^-e with
    ``math.isqrt``; if the n disks are pairwise disjoint (compared exactly on
    squared distances) each holds exactly one of the n roots.
    """
    n = len(poly) - 1
    deriv = _poly_derivative(poly)
    radii = []
    for zr, zi in roots:
        pr, pi = _gauss_horner(poly, zr, zi, e)
        qr, qi = _gauss_horner(deriv, zr, zi, e)
        m = qr * qr + qi * qi
        if not m:
            return None
        # radius * 2^e = n |P| / |P'|, the two held times 2^(ne), 2^((n-1)e)
        q = -(-n * n * (pr * pr + pi * pi) // m)
        r = math.isqrt(q)
        radii.append(r + (r * r < q))
    for i, (zr, zi) in enumerate(roots):
        for j in range(i):
            xr, xi = zr - roots[j][0], zi - roots[j][1]
            if xr * xr + xi * xi <= (radii[i] + radii[j]) ** 2:
                return None
    return [(zr * zr + zi * zi, r) for (zr, zi), r in zip(roots, radii)]
