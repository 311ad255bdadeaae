"""Exact rational linear algebra on plain nested tuples of ``Fraction``.

Matrices are immutable tuples of row tuples.  Everything here is exact; the
floating-point estimators live in :mod:`dyndeg.estimators`.

``Echelon``, the one elimination, runs in ``int``: it keeps each row as
integer numerators over one denominator, takes sparse integer vectors and
gives its basis in that form, with ``Fraction`` only in the combos and
coordinates it returns.
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import ShapeMismatch

Matrix = tuple[tuple[Fraction, ...], ...]


def as_fraction(x) -> Fraction:
    """Coerce ints, strings like ``"3/2"``, and Fractions to ``Fraction``.

    Floats are rejected: the exact layer never silently absorbs rounding.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise ShapeMismatch(f"boolean is not a rational scalar: {x!r}")
    if isinstance(x, int):
        return Fraction(x)
    try:
        if isinstance(x, str):
            return Fraction(x)
        if isinstance(x, dict) and set(x) == {"num", "den"}:
            return Fraction(int(x["num"]), int(x["den"]))
    except (ValueError, ZeroDivisionError, TypeError):  # "x", "1/0", ...
        pass
    raise ShapeMismatch(f"not an exact rational scalar: {x!r}")


def as_matrix(rows: Iterable[Iterable]) -> Matrix:
    mat = tuple(tuple(as_fraction(x) for x in row) for row in rows)
    if mat and any(len(row) != len(mat[0]) for row in mat):
        raise ShapeMismatch("ragged matrix rows")
    return mat


def identity(n: int) -> Matrix:
    return tuple(
        tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n)
    )


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if a and b and len(a[0]) != len(b):
        raise ShapeMismatch("inner dimensions differ")
    cols = len(b[0]) if b else 0
    return tuple(
        tuple(sum(arow[k] * b[k][j] for k in range(len(b))) for j in range(cols))
        for arow in a
    )


def transpose(a: Matrix) -> Matrix:
    if not a:
        return ()
    return tuple(tuple(a[i][j] for i in range(len(a))) for j in range(len(a[0])))


def trace(a: Matrix) -> Fraction:
    return sum((a[i][i] for i in range(len(a))), Fraction(0))


class Echelon:
    """Incrementally maintained reduced row echelon form with provenance.

    Each inserted vector carries an opaque ``tag`` combo (mapping generator
    index -> coefficient).  Row operations update the combos, so a surviving
    row always knows the exact linear combination of inserted generators that
    produced it.  The row set is kept fully reduced and sorted by pivot, which
    makes the basis the canonical RREF of the spanned subspace regardless of
    insertion order.

    Rows are stored fraction-free: row i is the sparse integer vector
    ``{column: numerator}`` over one positive denominator, its pivot
    numerator equal to that denominator, and its combo has numerators over
    the same denominator; each row is kept in lowest terms.
    ``insert_scaled``, ``scaled_basis`` and ``coordinates_scaled`` take and
    give that integer form; ``combos`` and the coordinates are ``Fraction``.
    """

    def __init__(self, width: int):
        self.width = width
        self.pivots: list[int] = []
        # (denominator, {column: numerator}, {generator: numerator}) per row
        self._rows: list[tuple[int, dict[int, int], dict[int, int]]] = []

    def _reduce(self, vec: dict[int, int]):
        """``(rest, scale, hits)`` with rest = scale*vec - sum f*row over
        ``(f, row)`` in hits: vec minus its parts along the rows, times
        ``scale``.  The combos follow with the same factors."""
        # rows are zero at each other's pivots, so every coefficient can be
        # read off vec before any row is subtracted
        hits = [(vec[p], row) for p, row in zip(self.pivots, self._rows)
                if p in vec]
        scale = math.lcm(*(row[0] for _, row in hits))
        hits = [(c * (scale // row[0]), row) for c, row in hits]
        rest = _combine(scale, vec, [(f, row[1]) for f, row in hits])
        return rest, scale, hits

    def insert_scaled(self, vec: dict[int, int], combo: dict[int, int]) -> bool:
        """Insert a vector and its combo given as integer numerators over one
        common positive denominator, the vector by its nonzero entries.  The
        denominator cancels when the new row is normalised, so it is not
        passed.  Returns True when the vector enlarged the span."""
        rest, scale, hits = self._reduce(vec)
        if not rest:
            return False
        combo = _combine(scale, combo, [(f, row[2]) for f, row in hits])
        # the new row is rest / rest[pivot], its combo likewise
        pivot = min(rest)
        new = _lowest_terms(rest[pivot], rest, combo)
        # back-substitute into existing rows to stay fully reduced:
        # R/d - (R[pivot]/d) N/n = (n R - R[pivot] N) / (d n)
        nden, nvec, ncombo = new
        for i, (rden, rvec, rcombo) in enumerate(self._rows):
            c = rvec.get(pivot)
            if c:
                self._rows[i] = _lowest_terms(
                    rden * nden,
                    _combine(nden, rvec, [(c, nvec)]),
                    _combine(nden, rcombo, [(c, ncombo)]),
                )
        at = bisect.bisect(self.pivots, pivot)
        self.pivots.insert(at, pivot)
        self._rows.insert(at, new)
        return True

    def scaled_basis(self) -> list[tuple[int, dict[int, int]]]:
        """The basis rows as ``(denominator, {column: numerator})``."""
        return [(den, vec) for den, vec, _ in self._rows]

    @property
    def combos(self) -> list[dict[int, Fraction]]:
        """Per row, the generator combination that produced it."""
        return [{g: Fraction(c, den) for g, c in combo.items()}
                for den, _, combo in self._rows]

    def coordinates_scaled(
        self, den: int, vec: dict[int, int]
    ) -> list[Fraction] | None:
        """Coordinates of vec/den (nonzero numerators by column), or None if
        outside the span."""
        if self._reduce(vec)[0]:
            return None
        return [Fraction(vec.get(p, 0), den) for p in self.pivots]


def scaled_matrix(rows: Sequence[Sequence]) -> tuple[int, list[list[int]]]:
    """``(D, D*rows)`` as integer lists, D the lcm of all entry denominators."""
    den = math.lcm(*(x.denominator for row in rows for x in row))
    return den, [[x.numerator * (den // x.denominator) for x in row]
                 for row in rows]


def _combine(a: int, x: dict[int, int], terms) -> dict[int, int]:
    """a*x - sum f*y over ``(f, y)`` in terms, on sparse integer vectors,
    zeros dropped."""
    out = {k: a * v for k, v in x.items()}
    for f, y in terms:
        for k, v in y.items():
            out[k] = out.get(k, 0) - f * v
    return {k: v for k, v in out.items() if v}


def _lowest_terms(den: int, vec: dict[int, int], combo: dict[int, int]):
    """Divide a row's denominator and numerators by their gcd, signed so
    that the denominator comes out positive."""
    g = math.gcd(den, *vec.values(), *combo.values())
    if den < 0:
        g = -g
    if g == 1:
        return den, vec, combo
    return (
        den // g,
        {k: v // g for k, v in vec.items()},
        {k: v // g for k, v in combo.items()},
    )
