"""Exact rational linear algebra on plain nested tuples of ``Fraction``.

Matrices are immutable tuples of row tuples.  Everything here is exact; the
floating-point estimation paths live in :mod:`dyndeg.spectral`.

The two eliminations run in ``int``: ``det`` is Bareiss elimination on the
matrix times its common denominator, and ``Echelon`` keeps each row as integer
numerators over one denominator.  ``Fraction`` is what they take and return.
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import ShapeMismatch

Matrix = tuple[tuple[Fraction, ...], ...]
Vector = tuple[Fraction, ...]


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
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, dict) and set(x) == {"num", "den"}:
        return Fraction(int(x["num"]), int(x["den"]))
    raise ShapeMismatch(f"not an exact rational scalar: {x!r}")


def as_matrix(rows: Iterable[Iterable]) -> Matrix:
    mat = tuple(tuple(as_fraction(x) for x in row) for row in rows)
    if mat and any(len(row) != len(mat[0]) for row in mat):
        raise ShapeMismatch("ragged matrix rows")
    return mat


def zero_vector(n: int) -> Vector:
    return (Fraction(0),) * n


def identity(n: int) -> Matrix:
    return tuple(
        tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n)
    )


def mat_vec(m: Matrix, v: Sequence[Fraction]) -> Vector:
    if m and len(m[0]) != len(v):
        raise ShapeMismatch(f"matrix is {len(m)}x{len(m[0])}, vector has {len(v)}")
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in m)


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


class PowerLadder:
    """Cache of matrix powers backed by repeated squaring.

    ``power(m)`` assembles ``M^m`` from the stored squarings; assembled powers
    are memoised, so sweeping m = 1, 2, 3, ... costs one multiplication each.
    """

    def __init__(self, m: Matrix):
        n = len(m)
        if any(len(row) != n for row in m):
            raise ShapeMismatch("power ladder needs a square matrix")
        self._squarings = [m]
        self._memo = {0: identity(n), 1: m}

    def power(self, m: int) -> Matrix:
        if m < 0:
            raise ShapeMismatch("negative matrix power")
        got = self._memo.get(m)
        if got is not None:
            return got
        while (1 << len(self._squarings)) <= m:
            top = self._squarings[-1]
            self._squarings.append(mat_mul(top, top))
        if m & (m - 1) == 0:
            result = self._squarings[m.bit_length() - 1]
        else:
            low = 1 << (m.bit_length() - 1)
            result = mat_mul(self.power(m - low), self._squarings[m.bit_length() - 1])
        self._memo[m] = result
        return result

    def prune(self, keep: int):
        """Drop assembled powers other than ``keep``; squarings stay cached.

        Long consecutive sweeps (trace sequences) only ever reuse the previous
        power, and exact entries grow with m, so unbounded memoisation would
        hold onto arbitrarily large integers for no benefit.
        """
        self._memo = {
            m: mat for m, mat in self._memo.items()
            if m <= 1 or m == keep or m & (m - 1) == 0
        }


def det(a: Matrix) -> Fraction:
    """Determinant by fraction-free Bareiss elimination.

    Runs on the integer matrix D*a, D the lcm of the entry denominators, where
    every Bareiss division is exact; det(a) = det(D*a) / D^n.
    """
    n = len(a)
    if n == 0:
        return Fraction(1)
    if any(len(row) != n for row in a):
        raise ShapeMismatch("determinant of a non-square matrix")
    den, m = scaled_matrix(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        top = m[k]
        pivot = top[k]
        for row in m[k + 1:]:
            c = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pivot - c * top[j]) // prev
        prev = pivot
    return Fraction(sign * m[n - 1][n - 1], den**n)


def inverse(a: Matrix) -> Matrix | None:
    """Exact inverse by Gauss-Jordan; ``None`` when singular."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise ShapeMismatch("inverse of a non-square matrix")
    m = [list(row) + [Fraction(1 if i == j else 0) for j in range(n)]
         for i, row in enumerate(a)]
    for col in range(n):
        pivot = next((i for i in range(col, n) if m[i][col] != 0), None)
        if pivot is None:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for i in range(n):
            if i != col and m[i][col] != 0:
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[col])]
    return tuple(tuple(row[n:]) for row in m)


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
    give that integer form; ``insert``, ``basis``, ``combos`` and
    ``coordinates`` are the same operations in ``Fraction``.
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

    def contains(self, vector: Sequence[Fraction]) -> bool:
        return not self._reduce(_scaled_dict(vector)[1])[0]

    def insert(self, vector: Sequence[Fraction], combo: dict[int, Fraction]) -> bool:
        """Insert a vector; returns True when it enlarged the span."""
        if len(vector) != self.width:
            raise ShapeMismatch("echelon width mismatch")
        tags = list(combo)
        _, nums = scaled_vector([*vector, *(combo[g] for g in tags)])
        vec = {j: x for j, x in enumerate(nums[: self.width]) if x}
        return self.insert_scaled(vec, dict(zip(tags, nums[self.width:])))

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

    @property
    def dimension(self) -> int:
        return len(self._rows)

    def scaled_basis(self) -> list[tuple[int, dict[int, int]]]:
        """The basis rows as ``(denominator, {column: numerator})``."""
        return [(den, vec) for den, vec, _ in self._rows]

    def basis(self) -> list[tuple[Fraction, ...]]:
        zero = Fraction(0)
        return [
            tuple(Fraction(vec[j], den) if j in vec else zero
                  for j in range(self.width))
            for den, vec, _ in self._rows
        ]

    @property
    def combos(self) -> list[dict[int, Fraction]]:
        """Per row, the generator combination that produced it."""
        return [{g: Fraction(c, den) for g, c in combo.items()}
                for den, _, combo in self._rows]

    def coordinates(self, vector: Sequence[Fraction]) -> list[Fraction] | None:
        """Coordinates of ``vector`` in the echelon basis, or None if outside."""
        return self.coordinates_scaled(*_scaled_dict(vector))

    def coordinates_scaled(
        self, den: int, vec: dict[int, int]
    ) -> list[Fraction] | None:
        """Coordinates of vec/den (nonzero numerators by column), or None if
        outside the span."""
        if self._reduce(vec)[0]:
            return None
        return [Fraction(vec.get(p, 0), den) for p in self.pivots]


def scaled_vector(values: Sequence) -> tuple[int, list[int]]:
    """``(D, [D*x for x in values])``, D the lcm of the denominators."""
    den = math.lcm(*(x.denominator for x in values))
    return den, [x.numerator * (den // x.denominator) for x in values]


def scaled_matrix(rows: Sequence[Sequence]) -> tuple[int, list[list[int]]]:
    """``(D, D*rows)`` as integer lists, D the lcm of all entry denominators."""
    den = math.lcm(*(x.denominator for row in rows for x in row))
    return den, [[x.numerator * (den // x.denominator) for x in row]
                 for row in rows]


def _scaled_dict(vector: Sequence) -> tuple[int, dict[int, int]]:
    den, nums = scaled_vector(vector)
    return den, {j: x for j, x in enumerate(nums) if x}


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
