"""Spectral radius, three ways: exact characteristic polynomial, norm doubling,
and trace growth, plus the limsup utilities the growth arguments rest on.

The exact route computes the characteristic polynomial by the Berkowitz
division-free elimination scheme, in ``int`` on the matrix times its common
denominator, and certifies the maximum root modulus in integers: Aberth's
iteration proposes the roots in complex floats, polishes them as Gaussian
integers over 2^B, and Newton inclusion disks of radius n|p(z)/p'(z)|,
evaluated exactly and rounded up, certify them once they are pairwise
disjoint.  The floating routes (norm doubling, trace roots) are deliberately
independent estimators: they never consult the exact route, so the two can
cross-check each other.

The floating routes run in plain Python floats: matrices are lists of float
rows, with power-of-two scale factors tracked exactly in a separate integer
exponent; exact rational arithmetic is used for traces up to size cutoffs
(matrix dimension <= 64, power <= 256).
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
from fractions import Fraction
from typing import NamedTuple, Sequence

from .errors import FloatOverflow, ShapeMismatch, SpectralNonconvergence, ZeroWeight
from .linalg import Matrix, as_matrix, mat_mul, scaled_matrix, trace

# exact trace computation cutoffs; beyond these the float path takes over
_EXACT_DIM_CUTOFF = 64
_EXACT_POWER_CUTOFF = 256

_LN2 = math.log(2.0)

# root certification: first fixed-point precision and iteration caps
_START_BITS = 128
_FLOAT_SWEEPS = 100
_POLISH_SWEEPS = 50


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
    return [Fraction(c, den**k) for k, c in enumerate(coeffs)]


# ---------------------------------------------------------------------------
# polynomial helpers
# ---------------------------------------------------------------------------

def _poly_strip_zero_roots(coeffs: list[Fraction]) -> list[Fraction]:
    out = list(coeffs)
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def _poly_derivative(coeffs: list[Fraction]) -> list[Fraction]:
    n = len(coeffs) - 1
    return [c * (n - i) for i, c in enumerate(coeffs[:-1])]


def _poly_divmod(num, den):
    num = list(num)
    q = [Fraction(0)] * max(0, len(num) - len(den) + 1)
    for i in range(len(q)):
        f = num[i] / den[0]
        q[i] = f
        for j, d in enumerate(den):
            num[i + j] -= f * d
    rem = num[len(q):]
    while rem and rem[0] == 0:
        rem.pop(0)
    return q, rem


def _poly_gcd(a, b):
    a, b = list(a), list(b)
    while b:
        _, r = _poly_divmod(a, b)
        if r:
            lead = r[0]
            r = [c / lead for c in r]
        a, b = b, r
    lead = a[0]
    return [c / lead for c in a]


def _squarefree_part(coeffs: list[Fraction]) -> list[Fraction]:
    if len(coeffs) <= 2:
        return list(coeffs)
    g = _poly_gcd(coeffs, _poly_derivative(coeffs))
    if len(g) == 1:
        return list(coeffs)
    q, _ = _poly_divmod(coeffs, g)
    return q


def _cauchy_bound(coeffs: list[Fraction]) -> Fraction:
    """All roots of the monic polynomial have modulus <= 1 + max |a_i|."""
    lead = coeffs[0]
    tail = [c / lead for c in coeffs[1:]]
    return 1 + max((abs(c) for c in tail), default=Fraction(0))


# ---------------------------------------------------------------------------
# certified max root modulus
# ---------------------------------------------------------------------------

def spectral_radius(matrix: Sequence[Sequence], tol: float = 1e-9):
    """Certified max modulus of eigenvalues: returns ``(rho, error_bound)``.

    Works on the square-free part p of degree n, with its denominators
    cleared.  Aberth's iteration proposes the n roots in complex floats; they
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
    if tol <= 0:
        raise ShapeMismatch("tol must be positive")
    return _max_root_modulus(tuple(char_poly(matrix)), tol)


@functools.lru_cache(maxsize=64)
def _max_root_modulus(coeffs: tuple[Fraction, ...], tol: float):
    """Certified ``(rho, error_bound)`` for the polynomial ``coeffs``.

    Pure in its arguments, so each distinct polynomial is certified once per
    process: a closure block and a graded block with the same characteristic
    polynomial share the result.
    """
    p = _poly_strip_zero_roots(coeffs)
    if len(p) == 1:
        return 0.0, 0.0
    lead = p[0]
    p = [c / lead for c in p]
    p = _squarefree_part(p)
    if len(p) == 2:
        rho = _float(abs(p[1]))
        if rho == math.inf:
            raise SpectralNonconvergence(rho, rho)
        exact = rho == abs(p[1])
        return rho, 0.0 if exact else rho * 2.0**-52
    cauchy = _float(_cauchy_bound(p))
    den = math.lcm(*(c.denominator for c in p))
    poly = [c.numerator * (den // c.denominator) for c in p]

    start, scale = _aberth_proposal(poly)
    # denominator exponent: B bits below the smallest proposed root
    low = min(math.frexp(abs(z))[1] for z in start) + scale
    bits = _START_BITS
    e = bits + max(0, -low)
    roots = [(_fixed(z.real, e + scale), _fixed(z.imag, e + scale)) for z in start]
    best = (0.0, cauchy)
    for _ in range(6):
        roots = _polish(poly, roots, e)
        disks = _certify(poly, roots, e)
        if disks is not None:
            rho_f = min(disks[0], cauchy)
            err_f = disks[1] + 1e-15 * max(1.0, rho_f)
            best = (rho_f, err_f)
            if rho_f < math.inf and err_f <= tol * max(1.0, rho_f):
                return rho_f, err_f
        roots = [(zr << bits, zi << bits) for zr, zi in roots]
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


def _polish(poly: list[int], roots, e: int):
    """Aberth sweeps on the Gaussian integers ``roots`` over 2^e, until every
    correction is within 4 units of 2^-e or the sweep cap is reached.

    With N = p/p' and S = sum_{j != k} 1/(z_k - z_j), a root moves by
    N / (1 - N S); in units of 2^-e that is N D^2 / (D^2 - N S) with N and S
    held times D = 2^e.
    """
    deriv = _poly_derivative(poly)
    roots = list(roots)
    d2 = 1 << 2 * e
    for _ in range(_POLISH_SWEEPS):
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


# ---------------------------------------------------------------------------
# scaled float matrices (lists of float rows + exact power-of-two exponent)
# ---------------------------------------------------------------------------

def _to_scaled_float(matrix: Matrix) -> tuple[list[list[float]], int]:
    """Convert exact entries to ``(rows, e)`` with M = rows * 2^e."""
    shift = 0
    top = max((abs(x) for row in matrix for x in row), default=Fraction(0))
    if top != 0:
        # keep mantissas representable: bring the largest entry near 2^0..2^53
        mag = top.numerator.bit_length() - top.denominator.bit_length()
        if abs(mag) > 500:
            shift = mag
    scale = Fraction(2) ** shift
    return [[float(x / scale) for x in row] for row in matrix], shift


def _float_mat_mul(a: list[list[float]], b: list[list[float]]) -> list[list[float]]:
    cols = list(zip(*b))
    return [[sum(map(operator.mul, row, col)) for col in cols] for row in a]


def _rescale(rows: list[list[float]], exponent: int):
    """Move the largest entry back near 2^0 once it drifts past 2^+-200;
    the power of two goes exactly into the exponent."""
    top = max((abs(x) for row in rows for x in row), default=0.0)
    if top == 0.0:
        return rows, exponent
    t = math.frexp(top)[1]
    if abs(t) > 200:
        rows = [[math.ldexp(x, -t) for x in row] for row in rows]
        exponent += t
    return rows, exponent


def gelfand_sequence(matrix: Sequence[Sequence], doublings: int):
    """Norm-doubling estimates ||M^{2^k}||^{1/2^k} for k = 0..doublings.

    The norm is fixed as the maximum absolute row sum.  Powers are computed by
    repeated squaring in double precision with power-of-two rescaling; the
    scale factors live in an exact integer exponent, so overflow cannot occur
    and very long doubling runs stay meaningful.  Returns ``[(m, estimate)]``
    with m = 2^k; once a power underflows to exactly zero (nilpotent matrices)
    the estimates are 0.
    """
    if doublings < 0:
        raise ShapeMismatch("doublings must be >= 0")
    m = as_matrix(matrix)
    if any(len(row) != len(m) for row in m):
        raise ShapeMismatch("gelfand_sequence needs a square matrix")
    rows, exponent = _to_scaled_float(m)
    out = []
    for k in range(doublings + 1):
        power = 1 << k
        norm = max((sum(map(abs, row)) for row in rows), default=0.0)
        if not math.isfinite(norm):
            raise FloatOverflow([(k, "norm")])
        if norm == 0.0:
            out.append((power, 0.0))
        else:
            out.append((power, math.exp((math.log(norm) + exponent * _LN2) / power)))
        if k < doublings:
            rows, exponent = _rescale(_float_mat_mul(rows, rows), 2 * exponent)
    return out


def _root_of_abs(value, m: int) -> float:
    """|value|^{1/m} computed through logs; safe for huge exact rationals."""
    if value == 0:
        return 0.0
    if isinstance(value, Fraction):
        log_abs = math.log(abs(value.numerator)) - math.log(value.denominator)
    elif isinstance(value, int):
        log_abs = math.log(abs(value))
    else:
        v = abs(float(value))
        if v == 0.0:
            return 0.0
        log_abs = math.log(v)
    return math.exp(log_abs / m)


def trace_sequence(matrix: Sequence[Sequence], m_max: int):
    """The sequence ``(m, |Tr(M^m)|^{1/m})`` for m = 1..m_max.

    Traces are exact rationals up to the size cutoffs, floats with tracked
    exponents beyond; either way M^m is the running product M^(m-1) M.
    |0|^{1/m} is 0.
    """
    if m_max < 1:
        raise ShapeMismatch("m_max must be >= 1")
    m = as_matrix(matrix)
    n = len(m)
    if any(len(row) != n for row in m):
        raise ShapeMismatch("trace_sequence needs a square matrix")
    if n == 0:
        return [(k, 0.0) for k in range(1, m_max + 1)]
    out = []
    if n <= _EXACT_DIM_CUTOFF and m_max <= _EXACT_POWER_CUTOFF:
        run = m
        for k in range(1, m_max + 1):
            if k > 1:
                run = mat_mul(run, m)
            out.append((k, _root_of_abs(trace(run), k)))
        return out
    rows, exponent = _to_scaled_float(m)
    run, run_exp = rows, exponent
    for k in range(1, m_max + 1):
        if k > 1:
            run, run_exp = _rescale(_float_mat_mul(run, rows), run_exp + exponent)
        t = sum(run[i][i] for i in range(n))
        if not math.isfinite(t):
            raise FloatOverflow([(k, "trace")])
        if t == 0.0:
            out.append((k, 0.0))
        else:
            out.append((k, math.exp((math.log(abs(t)) + run_exp * _LN2) / k)))
    return out


# ---------------------------------------------------------------------------
# limsup estimates
# ---------------------------------------------------------------------------

def trace_radius_estimate(matrix: Sequence[Sequence], m_max: int) -> float:
    """Tail-window limsup estimate: max of |Tr(M^m)|^{1/m} over [m_max/2, m_max].

    Finite-m traces oscillate under complex eigenvalues, so the honest finite
    truncation of the trace-growth limit is a running max over the top half of
    the computed range.
    """
    seq = trace_sequence(matrix, m_max)
    return max(est for m, est in seq if m >= m_max // 2)


def default_window(length: int) -> int:
    """Trailing-window size covering m in [length/2, length]."""
    return max(1, min(length, length - length // 2 + 1))


def limsup_root(sequence: Sequence, window: int | None = None) -> float:
    """Finite limsup estimate: max of |a_m|^{1/m} over the trailing window.

    The sequence is indexed from m = 1.  A windowed max is the honest finite
    truncation of a limsup: oscillating sequences (complex eigenvalues, sign
    mixing) dip arbitrarily low at single m's but cannot beat the max.
    """
    seq = list(sequence)
    if not seq:
        raise ShapeMismatch("limsup_root of an empty sequence")
    if window is None:
        window = default_window(len(seq))
    if not (1 <= window <= len(seq)):
        raise ShapeMismatch("window must be within the sequence length")
    start = len(seq) - window
    return max(_root_of_abs(seq[m], m + 1) for m in range(start, len(seq)))


class CombinedLimsupBound(NamedTuple):
    lhs_estimate: float
    rhs_bound: float
    verdict: bool
    slack: float


def combined_limsup_bound(
    sequences: Sequence[Sequence],
    weights: Sequence,
    window: int | None = None,
    tol: float = 1e-6,
) -> CombinedLimsupBound:
    """Check limsup |sum_i a_{m,i} b_i|^{1/m} <= max_i limsup |a_{m,i}|^{1/m}.

    At finite m the left side carries a constant-factor inflation of at most
    (s * max(1, max|b_i|))^{1/m}; the verdict allows exactly that provable
    slack (plus ``tol``), so it is a theorem for every input, while staying
    tight as the window moves out.
    """
    if not sequences:
        raise ShapeMismatch("need at least one sequence")
    weights = [Fraction(w) if not isinstance(w, float) else w for w in weights]
    if len(weights) != len(sequences):
        raise ShapeMismatch("one weight per sequence")
    if any(w == 0 for w in weights):
        raise ZeroWeight("weights must be nonzero")
    length = len(sequences[0])
    if any(len(s) != length for s in sequences):
        raise ShapeMismatch("sequences must have equal length")
    if window is None:
        window = default_window(length)

    combo = [
        sum(seq[m] * w for seq, w in zip(sequences, weights))
        for m in range(length)
    ]
    lhs = limsup_root(combo, window)
    rhs = max(limsup_root(seq, window) for seq in sequences)
    m_min = length - window + 1
    big = len(sequences) * max(1.0, max(abs(float(w)) for w in weights))
    slack = big ** (1.0 / m_min)
    return CombinedLimsupBound(lhs, rhs, lhs <= rhs * slack + tol, slack)

