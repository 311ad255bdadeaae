"""Exact linear algebra: ``as_matrix`` reads a matrix into ``Fraction``
once, and ``scaled_matrix`` turns it into integer rows over one
denominator, the form everything downstream computes on.  ``mat_mul``, the
one matrix product, takes row lists of ``int``, ``float`` or ``Fraction``.

``Echelon``, the one elimination, runs in ``int``: it keeps each row as
integer numerators over one denominator, takes sparse integer vectors and
gives its basis in that form.
"""

from __future__ import annotations

import bisect
import math
import operator
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import ShapeMismatch

Matrix = tuple[tuple[Fraction, ...], ...]


def as_fraction(x) -> Fraction:
    """Coerce ints, strings like ``"3/2"``, ``{"num": ..., "den": ...}``
    objects (each part an int or a string holding one) and Fractions to
    ``Fraction``: the one scalar reader, for the builders and the CLI alike.

    Floats and booleans are rejected: the exact layer never silently absorbs
    rounding.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise ShapeMismatch(f"boolean is not a rational scalar: {x!r}")
    if isinstance(x, int):
        return Fraction(x)
    try:
        if isinstance(x, str):
            # Fraction expands a decimal exponent exactly: "1e10000000" would
            # take seconds, so one past int's digit limit is refused first
            _, e, exponent = x.lower().rpartition("e")
            if not e or abs(int(exponent)) <= 4300:
                return Fraction(x)
        if (isinstance(x, dict) and set(x) == {"num", "den"}
                and {type(x["num"]), type(x["den"])} <= {int, str}):
            return Fraction(int(x["num"]), int(x["den"]))
    except (ValueError, ZeroDivisionError):  # "x", "1/0", {"num": "1.5", ...}
        pass
    raise ShapeMismatch(f"not an exact rational scalar: {x!r}")


def as_matrix(rows: Iterable[Iterable]) -> Matrix:
    mat = tuple(tuple(as_fraction(x) for x in row) for row in rows)
    if mat and any(len(row) != len(mat[0]) for row in mat):
        raise ShapeMismatch("ragged matrix rows")
    return mat


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence]) -> list[list]:
    """The product of the row lists ``a`` and ``b``, as row lists."""
    cols = list(zip(*b))
    return [[sum(map(operator.mul, row, col)) for col in cols] for row in a]


def identity(n: int) -> Matrix:
    return tuple(
        tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n)
    )


class Echelon:
    """Incrementally maintained reduced row echelon form.

    The row set is kept fully reduced and sorted by pivot, which makes the
    basis the canonical RREF of the spanned subspace regardless of insertion
    order.  Rows are stored fraction-free: row i is the sparse integer vector
    ``{column: numerator}`` over one positive denominator, its pivot
    numerator equal to that denominator, in lowest terms.
    ``insert_scaled`` and ``scaled_basis`` take and give that integer form.
    Each row is 1 at its own pivot and 0 at every other, so a vector in the
    span has its coordinates at ``pivots``: no elimination reads them.
    """

    def __init__(self, width: int):
        self.width = width
        self.pivots: list[int] = []
        self._rows: list[tuple[int, dict[int, int]]] = []  # (den, numerators)

    def insert_scaled(self, vec: dict[int, int]) -> bool:
        """Insert a vector given by the nonzero integer numerators over a
        common positive denominator; the denominator cancels when the new
        row is normalised, so it is not passed.  Returns True when the
        vector enlarged the span."""
        # vec minus its parts along the rows, times the lcm of those rows'
        # denominators: rows are zero at each other's pivots, so every
        # coefficient can be read off vec before any row is subtracted
        hits = [(vec[p], row) for p, row in zip(self.pivots, self._rows)
                if p in vec]
        scale = math.lcm(*(den for _, (den, _) in hits))
        rest = combine(scale, vec,
                       [(c * (scale // den), row) for c, (den, row) in hits])
        if not rest:
            return False
        # the new row is rest / rest[pivot]
        pivot = min(rest)
        nden, nvec = new = _lowest_terms(rest[pivot], rest)
        # back-substitute into existing rows to stay fully reduced:
        # R/d - (R[pivot]/d) N/n = (n R - R[pivot] N) / (d n)
        for i, (rden, rvec) in enumerate(self._rows):
            c = rvec.get(pivot)
            if c:
                self._rows[i] = _lowest_terms(
                    rden * nden, combine(nden, rvec, [(c, nvec)]))
        at = bisect.bisect(self.pivots, pivot)
        self.pivots.insert(at, pivot)
        self._rows.insert(at, new)
        return True

    def scaled_basis(self) -> list[tuple[int, dict[int, int]]]:
        """The basis rows as ``(denominator, {column: numerator})``."""
        return list(self._rows)


def scaled_matrix(rows: Sequence[Sequence]) -> tuple[int, list[list[int]]]:
    """``(D, D*rows)`` as integer lists, D the lcm of all entry denominators."""
    den = math.lcm(*(x.denominator for row in rows for x in row))
    return den, [[x.numerator * (den // x.denominator) for x in row]
                 for row in rows]


def combine(a: int, x: dict[int, int], terms) -> dict[int, int]:
    """a*x - sum f*y over ``(f, y)`` in terms, on sparse integer vectors,
    zeros dropped."""
    out = {k: a * v for k, v in x.items()}
    for f, y in terms:
        for k, v in y.items():
            out[k] = out.get(k, 0) - f * v
    return {k: v for k, v in out.items() if v}


def _lowest_terms(den: int, vec: dict[int, int]):
    """Divide a row's denominator and numerators by their gcd, signed so
    that the denominator comes out positive."""
    g = math.gcd(den, *vec.values())
    if den < 0:
        g = -g
    if g == 1:
        return den, vec
    return den // g, {k: v // g for k, v in vec.items()}
