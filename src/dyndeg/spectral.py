"""Spectral radius, three ways: exact characteristic polynomial, norm doubling,
and trace growth, plus the limsup utilities the growth arguments rest on.

The exact route computes the characteristic polynomial by the Berkowitz
division-free elimination scheme, in ``int`` on the matrix times its common
denominator, and certifies the maximum root modulus with
Newton-polished inclusion disks inside a Cauchy-bound bracket.  The floating
routes (norm doubling, trace roots) are deliberately independent estimators:
they never consult the exact route, so the two can cross-check each other.

Floating point is double precision with power-of-two scale factors tracked
exactly in a separate integer exponent; exact rational arithmetic is used for
traces up to size cutoffs (matrix dimension <= 64, power <= 256).

numpy and mpmath are imported inside the functions that use them, so
importing this module (and the CLI, which never needs numpy) stays cheap.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

from .errors import FloatOverflow, ShapeMismatch, SpectralNonconvergence, ZeroWeight
from .linalg import Matrix, PowerLadder, as_matrix, scaled_matrix, trace

# exact trace computation cutoffs; beyond these the float path takes over
_EXACT_DIM_CUTOFF = 64
_EXACT_POWER_CUTOFF = 256

_LN2 = math.log(2.0)


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

    Brackets the answer inside the exact Cauchy root bound, then refines with
    adaptive-precision root finding and per-root Newton inclusion disks of
    radius n|p(z)/p'(z)| (valid for the square-free part): once the disks are
    pairwise disjoint every eigenvalue is covered, so the largest candidate
    modulus is certified within the largest disk radius.

    Raises :class:`SpectralNonconvergence` (carrying the best bracket) if the
    disks cannot be shrunk below ``tol`` within the iteration cap.
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
        rho = abs(float(p[1]))
        exact = rho == abs(p[1])
        return rho, 0.0 if exact else rho * 2.0**-52
    import mpmath

    n = len(p) - 1
    cauchy = float(_cauchy_bound(p))

    best = (0.0, cauchy)
    dps = 40
    for _ in range(6):
        with mpmath.workdps(dps):
            mp_coeffs = [
                mpmath.mpf(c.numerator) / mpmath.mpf(c.denominator) for c in p
            ]
            try:
                roots = mpmath.polyroots(
                    mp_coeffs, maxsteps=200, extraprec=dps * 4
                )
            except mpmath.mp.NoConvergence:
                dps *= 2
                continue
            deriv = [c * (n - i) for i, c in enumerate(mp_coeffs[:-1])]

            def ev(cs, z):
                acc = mpmath.mpc(0)
                for c in cs:
                    acc = acc * z + c
                return acc

            disks = []
            ok = True
            for z in roots:
                val = ev(mp_coeffs, z)
                dval = ev(deriv, z)
                if dval == 0:
                    ok = False
                    break
                disks.append((z, 2 * n * abs(val) / abs(dval)))
            if ok:
                for i in range(len(disks)):
                    for j in range(i + 1, len(disks)):
                        if (
                            abs(disks[i][0] - disks[j][0])
                            <= disks[i][1] + disks[j][1]
                        ):
                            ok = False
                            break
                    if not ok:
                        break
            if ok:
                rho = max(abs(z) for z, _ in disks)
                err = max(r for _, r in disks)
                rho_f = min(float(rho), cauchy)
                err_f = float(err) + 1e-15 * max(1.0, rho_f)
                best = (rho_f, err_f)
                if err_f <= tol * max(1.0, rho_f):
                    return rho_f, err_f
        dps *= 2
    raise SpectralNonconvergence(best[0], best[1])


# ---------------------------------------------------------------------------
# scaled float matrices (mantissa array + exact power-of-two exponent)
# ---------------------------------------------------------------------------

def _to_scaled_float(matrix: Matrix):
    """Convert exact entries to (float array, exponent) with M = array * 2^e."""
    import numpy as np

    if len(matrix) == 0:
        return np.zeros((0, 0)), 0
    shift = 0
    top = max((abs(x) for row in matrix for x in row), default=Fraction(0))
    if top != 0:
        # keep mantissas representable: bring the largest entry near 2^0..2^53
        mag = top.numerator.bit_length() - top.denominator.bit_length()
        if abs(mag) > 500:
            shift = mag
    arr = np.array(
        [[float(x / Fraction(2) ** shift) for x in row] for row in matrix],
        dtype=np.float64,
    )
    if not np.all(np.isfinite(arr)):
        bad = [tuple(map(int, idx)) for idx in np.argwhere(~np.isfinite(arr))]
        raise FloatOverflow(bad)
    return arr, shift


def _rescale(arr: np.ndarray, exponent: int):
    import numpy as np

    top = np.max(np.abs(arr)) if arr.size else 0.0
    if top == 0.0:
        return arr, exponent
    t = math.frexp(top)[1]
    if abs(t) > 200:
        arr = arr * math.ldexp(1.0, -t)
        exponent += t
    return arr, exponent


def gelfand_sequence(matrix: Sequence[Sequence], doublings: int):
    """Norm-doubling estimates ||M^{2^k}||^{1/2^k} for k = 0..doublings.

    The norm is fixed as the maximum absolute row sum.  Powers are computed by
    repeated squaring in double precision with power-of-two rescaling; the
    scale factors live in an exact integer exponent, so overflow cannot occur
    and very long doubling runs stay meaningful.  Returns ``[(m, estimate)]``
    with m = 2^k; once a power underflows to exactly zero (nilpotent matrices)
    the estimates are 0.
    """
    import numpy as np

    if doublings < 0:
        raise ShapeMismatch("doublings must be >= 0")
    m = as_matrix(matrix)
    if any(len(row) != len(m) for row in m):
        raise ShapeMismatch("gelfand_sequence needs a square matrix")
    arr, exponent = _to_scaled_float(m)
    out = []
    for k in range(doublings + 1):
        power = 1 << k
        if arr.size == 0:
            out.append((power, 0.0))
            continue
        norm = float(np.max(np.sum(np.abs(arr), axis=1)))
        if not math.isfinite(norm):
            raise FloatOverflow([(k, "norm")])
        if norm == 0.0:
            out.append((power, 0.0))
        else:
            out.append((power, math.exp((math.log(norm) + exponent * _LN2) / power)))
        if k < doublings:
            arr = arr @ arr
            exponent *= 2
            arr, exponent = _rescale(arr, exponent)
            if not np.all(np.isfinite(arr)):
                bad = [tuple(map(int, idx)) for idx in np.argwhere(~np.isfinite(arr))]
                raise FloatOverflow(bad)
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

    Traces are exact rationals (squaring-ladder powers) up to the size
    cutoffs, floats with tracked exponents beyond.  |0|^{1/m} is 0.
    """
    import numpy as np

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
        ladder = PowerLadder(m)
        for k in range(1, m_max + 1):
            out.append((k, _root_of_abs(trace(ladder.power(k)), k)))
            ladder.prune(keep=k)
        return out
    arr, exponent = _to_scaled_float(m)
    run, run_exp = arr.copy(), exponent
    for k in range(1, m_max + 1):
        if k > 1:
            run = run @ arr
            run_exp += exponent
            run, run_exp = _rescale(run, run_exp)
        t = float(np.trace(run))
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


# ---------------------------------------------------------------------------
# combined report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectralReport:
    """All three routes to rho for one matrix, with the certified value first."""

    char_poly: tuple[Fraction, ...]
    rho: float
    error_bound: float
    gelfand: tuple[tuple[int, float], ...]
    traces: tuple[tuple[int, float], ...]
    notes: str = ""


def analyze(
    matrix: Sequence[Sequence],
    tol: float = 1e-9,
    doublings: int = 10,
    trace_max: int = 64,
) -> SpectralReport:
    m = as_matrix(matrix)
    poly = tuple(char_poly(m))
    rho, err = _max_root_modulus(poly, tol)
    return SpectralReport(
        char_poly=poly,
        rho=rho,
        error_bound=err,
        gelfand=tuple(gelfand_sequence(m, doublings)),
        traces=tuple(trace_sequence(m, trace_max)),
        notes="norm = max absolute row sum; traces exact within cutoffs",
    )
