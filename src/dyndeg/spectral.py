"""Spectral radius, exactly: the characteristic polynomial and a certified
bracket of its largest root modulus.

The characteristic polynomial comes from the Berkowitz division-free
elimination scheme, in ``int`` on the matrix times its common denominator;
those of the exterior powers of one matrix come together from the power
sums of its eigenvalues (:func:`exterior_char_polys`).
The maximum root modulus is certified in integers, on the square-free part
that the primitive remainder sequence gives in ``int``: Aberth's iteration
proposes the roots in complex floats, polishes them as Gaussian integers
over 2^B, and Newton inclusion disks of radius n|p(z)/p'(z)|, evaluated
exactly and rounded up, certify them once they are pairwise disjoint.

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
from .linalg import as_matrix, mat_mul, scaled_matrix

# root certification: first fixed-point precision and float iteration cap
_START_BITS = 128
_FLOAT_SWEEPS = 100


# ---------------------------------------------------------------------------
# characteristic polynomial (exact)
# ---------------------------------------------------------------------------

def char_poly(matrix: Sequence[Sequence]) -> list[Fraction]:
    """Coefficients of det(xI - M), descending, by Berkowitz elimination.

    Division-free, so it runs in ``int`` on A = D*M, D the lcm of the entry
    denominators: coefficient k of det(xI - A) is D^k times coefficient k of
    det(xI - M).  [1] for the empty matrix.
    """
    m = as_matrix(matrix)
    n = len(m)
    if any(len(row) != n for row in m):
        raise ShapeMismatch("characteristic polynomial of a non-square matrix")
    den, a = scaled_matrix(m)
    return [Fraction(c, den**k) for k, c in enumerate(_berkowitz(a))]


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


def exterior_char_polys(matrix: Sequence[Sequence]) -> list[list[Fraction]]:
    """``[char_poly(wedge^k M) for k = 0..n]`` for an n x n matrix M, from M
    alone.

    With A = D*M integer, the power sums of the eigenvalues of wedge^k A
    are tr((wedge^k A)^m) = e_k(A^m), (-1)^k times coefficient k of
    det(xI - A^m): one n x n polynomial per m, shared by every k, for m up
    to C(n, k).  Newton's identities m c_m = -(p_m + c_1 p_(m-1) + ... +
    c_(m-1) p_1) give the coefficients c_m of det(xI - wedge^k A), each
    division exact in ``int``; coefficient i of det(xI - wedge^k M) is c_i
    over D^(k i).
    """
    den, a = scaled_matrix(as_matrix(matrix))
    n = len(a)
    # polys[m - 1] = det(xI - A^m), for m up to the largest C(n, k)
    polys, power = [], a
    for m in range(1, math.comb(n, n // 2) + 1):
        if m > 1:
            power = mat_mul(power, a)
        polys.append(_berkowitz(power))
    out = []
    for k in range(n + 1):
        sign = -1 if k % 2 else 1
        sums = [sign * q[k] for q in polys[:math.comb(n, k)]]
        coeffs = [1]
        for m in range(1, len(sums) + 1):
            total = sums[m - 1] + sum(
                map(operator.mul, coeffs[1:], reversed(sums[:m - 1])))
            coeffs.append(-total // m)
        scale = den**k
        out.append([Fraction(c, scale**i) for i, c in enumerate(coeffs)])
    return out


# ---------------------------------------------------------------------------
# polynomial helpers, in ``int``
# ---------------------------------------------------------------------------

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
    """The square-free part of the rational polynomial ``coeffs`` without
    its zero roots, primitive in Z[x] with a positive leading coefficient:
    p over the last term of the primitive remainder sequence of p and p'."""
    p = scaled_matrix([coeffs])[1][0]
    while len(p) > 1 and not p[-1]:
        p.pop()
    p = _primitive(p)
    if len(p) <= 2:
        return p
    a, b = p, _primitive(_poly_derivative(p))
    while r := _pseudo_divmod(a, b)[1]:
        a, b = b, _primitive(r)
    return p if len(b) == 1 else _primitive(_pseudo_divmod(p, b)[0])


# ---------------------------------------------------------------------------
# certified max root modulus
# ---------------------------------------------------------------------------

def spectral_radius(matrix: Sequence[Sequence], tol: float = 1e-9,
                    poly: Sequence[Fraction] | None = None):
    """Certified max modulus of eigenvalues: returns ``(rho, error_bound)``.

    ``poly``, when given, is ``char_poly(matrix)`` computed another way (as
    :func:`exterior_char_polys` does); it is used in its place.

    Works on the square-free part p of degree n, primitive in Z[x].
    Aberth's iteration proposes the n roots in complex floats; they
    are polished as Gaussian integers over 2^B (B = 128 first, plus the bits
    below the smallest root) and each gets the Newton inclusion disk of
    radius n|p(z)/p'(z)|, evaluated exactly and rounded up.  Once the disks
    are pairwise disjoint each holds one eigenvalue, so the spectral radius
    is the largest |z| within the largest radius.  rho is that |z| correctly
    rounded and capped at the Cauchy bound; the error bound is the radius
    plus 1e-15 max(1, rho) for the rounding.  Overlapping disks double B, for
    six rounds.

    Raises :class:`SpectralNonconvergence` (carrying the best bracket) if the
    disks cannot be shrunk below ``tol`` within the six rounds.
    """
    if not tol > 0:
        raise ShapeMismatch("tol must be positive")
    if poly is None:
        poly = char_poly(matrix)
    return _max_root_modulus(tuple(poly), tol)


@functools.lru_cache(maxsize=64)
def _max_root_modulus(coeffs: tuple[Fraction, ...], tol: float):
    """Certified ``(rho, error_bound)`` for the polynomial ``coeffs``.

    Pure in its arguments, so each distinct polynomial is certified once per
    process: a closure block and a graded block with the same characteristic
    polynomial share the result.
    """
    poly = _squarefree_part(coeffs)
    if len(poly) == 1:
        return 0.0, 0.0
    if len(poly) == 2:
        root = abs(Fraction(poly[1], poly[0]))
        rho = _float(root)
        if rho == math.inf:
            raise SpectralNonconvergence(rho, rho)
        return rho, 0.0 if rho == root else rho * 2.0**-52
    # Cauchy: every root has modulus at most 1 + max |a_i / a_0|
    cauchy = _float(1 + Fraction(max(map(abs, poly[1:])), poly[0]))

    start, scale = _aberth_proposal(poly)
    # denominator exponent: B bits below the smallest proposed root
    low = min(math.frexp(abs(z))[1] for z in start) + scale
    bits = _START_BITS
    e = bits + max(0, -low)
    roots = [(_fixed(z.real, e + scale), _fixed(z.imag, e + scale)) for z in start]
    best = (0.0, cauchy)
    for _ in range(6):
        # Aberth closes in on a cluster the grid cannot yet resolve about
        # 2 bits a sweep, so a round of ``bits`` new bits gets bits/2 sweeps
        roots = _polish(poly, roots, e, bits // 2)
        disks = _certify(poly, roots, e)
        if disks is not None:
            rho_f = min(disks[0], cauchy)
            err_f = disks[1] + 1e-15 * max(1.0, rho_f)
            best = (rho_f, err_f)
            if rho_f < math.inf and err_f <= tol * max(1.0, rho_f):
                return rho_f, err_f
        roots = [(zr << bits, zi << bits) for zr, zi in _separate(roots)]
        e += bits
        bits *= 2
    raise SpectralNonconvergence(best[0], best[1])


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

    Aberth's iteration in complex floats, started on a circle whose radius is
    about the geometric mean |a_n/a_0|^(1/n) of the root moduli; a root stops
    moving once |p(z)| is within the rounding error of Horner's rule.  If the
    floats overflow, the circle itself is returned, with the radius in
    ``scale``, for the exact iteration to refine.
    """
    n = len(poly) - 1
    scale = round((abs(poly[-1]).bit_length() - abs(poly[0]).bit_length()) / n)
    circle = [cmath.exp(1j * (2 * math.pi * k / n + 0.4)) for k in range(n)]
    try:
        a = [c / poly[0] for c in poly]
        da = _poly_derivative(a)
        size = [abs(c) * (4 * n + 2) * 2.0**-53 for c in a]
        z = [math.ldexp(1.0, scale) * u for u in circle]
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
            if not moving:
                break
    except (OverflowError, ZeroDivisionError):
        return circle, scale
    if not all(cmath.isfinite(zk) for zk in z):
        return circle, scale
    return z, 0


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


def _certify(poly: list[int], roots, e: int):
    """``(rho, err)`` from Newton inclusion disks, or None without a certificate.

    The disk |w - z| <= n |p(z)/p'(z)| holds a root of p, because
    p'/p = sum 1/(z - zeta_k).  Radii are rounded up in units of 2^-e with
    ``math.isqrt``; if the n disks are pairwise disjoint (compared exactly on
    squared distances) each holds exactly one of the n roots, so the largest
    root modulus is the largest |z| within the largest radius.  ``rho`` is
    that |z| correctly rounded; ``err`` is the radius.
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
    top = max(zr * zr + zi * zi for zr, zi in roots)
    # sqrt(top) from an isqrt of at least 60 bits: when inexact it lies
    # strictly between s and s + 1, and so rounds to a float as s + 1/2 does
    k = max(0, 60 - top.bit_length() // 2)
    s = math.isqrt(top << 2 * k)
    half = 2 * s + (s * s != top << 2 * k)
    return (_float(Fraction(half, 1 << k + 1 + e)),
            _float(Fraction(max(radii), 1 << e)))
