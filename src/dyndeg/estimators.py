"""Floating-point estimators of the spectral radius, and a limsup bound for
combined sequences.  The limsup utilities they rest on (``limsup_root``,
``default_window``) live beside ``degrees.growth_rates``, their one caller in
a report, so that no command loads this module.

Norm doubling (Gelfand's formula) and trace growth are estimators, not
certificates, and they are independent of the exact route in
:mod:`dyndeg.spectral`: this module imports nothing from it, so the two can
cross-check each other.

Norm doubling runs in plain Python floats: matrices are lists of float rows,
with power-of-two scale factors tracked exactly in a separate integer
exponent.  Traces run in ``int`` at every size, as Berkowitz does.  Both
multiply with ``linalg.mat_mul``.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from typing import Sequence

from .degrees import _root_of_abs, default_window, limsup_root
from .errors import FloatOverflow, ShapeMismatch
from .linalg import Matrix, as_matrix, mat_mul, scaled_matrix

_LN2 = math.log(2.0)
_LIMSUP_TOL = 1e-6  # float slack on combined_limsup_bound's verdict


# ---------------------------------------------------------------------------
# scaled float matrices (lists of float rows + exact power-of-two exponent)
# ---------------------------------------------------------------------------

def _to_scaled_float(matrix: Matrix) -> tuple[list[list[float]], int]:
    """Convert exact entries to ``(rows, e)`` with M = rows * 2^e."""
    top = max((abs(x) for row in matrix for x in row), default=Fraction(0))
    # keep mantissas representable: bring the largest entry near 2^0..2^53
    mag = top.numerator.bit_length() - top.denominator.bit_length()
    shift = mag if abs(mag) > 500 else 0
    scale = Fraction(2) ** shift
    return [[float(x / scale) for x in row] for row in matrix], shift


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
            rows, exponent = _rescale(mat_mul(rows, rows), 2 * exponent)
    return out


def trace_sequence(matrix: Sequence[Sequence], m_max: int):
    """The sequence ``(m, |Tr(M^m)|^{1/m})`` for m = 1..m_max.

    Traces are exact: with A = D*M integer, A^m is the running product
    A^(m-1) A in ``int`` and Tr(M^m) = Tr(A^m) / D^m.  |0|^{1/m} is 0.
    """
    if m_max < 1:
        raise ShapeMismatch("m_max must be >= 1")
    m = as_matrix(matrix)
    n = len(m)
    if any(len(row) != n for row in m):
        raise ShapeMismatch("trace_sequence needs a square matrix")
    den, a = scaled_matrix(m)
    out, run = [], a
    for k in range(1, m_max + 1):
        if k > 1:
            run = mat_mul(run, a)
        tr = sum(run[i][i] for i in range(n))
        out.append((k, _root_of_abs(Fraction(tr, den**k), k)))
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


CombinedLimsupBound = namedtuple(
    "CombinedLimsupBound", "lhs_estimate rhs_bound verdict slack"
)


def combined_limsup_bound(
    sequences: Sequence[Sequence], weights: Sequence
) -> CombinedLimsupBound:
    """Check limsup |sum_i a_{m,i} b_i|^{1/m} <= max_i limsup |a_{m,i}|^{1/m}.

    Both sides are read over the trailing ``default_window`` of the common
    length.  At finite m the left side carries a constant-factor inflation
    of at most (s * max(1, max|b_i|))^{1/m}; the verdict allows exactly that
    provable slack (plus ``_LIMSUP_TOL``), so it is a theorem for every
    input, while staying tight as the window moves out.
    """
    if not sequences:
        raise ShapeMismatch("need at least one sequence")
    weights = [Fraction(w) if not isinstance(w, float) else w for w in weights]
    if len(weights) != len(sequences):
        raise ShapeMismatch("one weight per sequence")
    if any(w == 0 for w in weights):
        raise ShapeMismatch("weights must be nonzero")
    length = len(sequences[0])
    if any(len(s) != length for s in sequences):
        raise ShapeMismatch("sequences must have equal length")
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
    return CombinedLimsupBound(lhs, rhs, lhs <= rhs * slack + _LIMSUP_TOL, slack)

