"""Pullback maps on graded algebras: validation, powers, adjoints, traces.

A pullback is a degree-preserving unital ring endomorphism, stored as one
exact rational matrix per graded piece (column convention: the image of the
q-th basis vector is the q-th column).  Geometric realizability cannot be
decided at this level; maps carry a flag that builders set and everything
downstream merely propagates ("asserted" from builders, "unverified" for
hand-supplied matrices).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .core import Element, GradedAlgebra
from .errors import (
    DegeneratePairing,
    MultiplicativityViolation,
    ShapeMismatch,
    UnitViolation,
)
from .linalg import (
    Matrix,
    PowerLadder,
    as_matrix,
    inverse,
    mat_mul,
    mat_vec,
    trace,
    transpose,
)


@dataclass(frozen=True)
class PullbackMap:
    """Validated unital graded ring endomorphism f*."""

    algebra: GradedAlgebra
    blocks: tuple[Matrix, ...]
    realizability: str = "unverified"
    provenance: str | None = None

    def block(self, degree: int) -> Matrix:
        return self.blocks[degree]

    def apply(self, a: Element) -> Element:
        return Element(
            tuple(
                mat_vec(m, piece) if piece else ()
                for m, piece in zip(self.blocks, a.coords)
            )
        )

    def graded_trace(self, degree: int) -> Fraction:
        return trace(self.blocks[degree])

    def total_trace(self, alternating: bool = False) -> Fraction:
        """Sum of graded traces; ``alternating`` applies the Lefschetz sign (-1)^i."""
        total = Fraction(0)
        for i, m in enumerate(self.blocks):
            t = trace(m)
            total += -t if (alternating and i % 2 == 1) else t
        return total


@dataclass(frozen=True)
class PushforwardMap:
    """Adjoint of a pullback under the intersection pairing.

    Realized per degree on the same grading; satisfies the projection formula
    pair(f_* a, b) = pair(a, f* b) exactly.
    """

    algebra: GradedAlgebra
    blocks: tuple[Matrix, ...]

    def apply(self, a: Element) -> Element:
        return Element(
            tuple(
                mat_vec(m, piece) if piece else ()
                for m, piece in zip(self.blocks, a.coords)
            )
        )


def validate_pullback(
    algebra: GradedAlgebra,
    matrices: Sequence[Sequence[Sequence]],
    realizability: str = "unverified",
    provenance: str | None = None,
) -> PullbackMap:
    """Check shapes, f*(1) = 1, and multiplicativity on every basis pair.

    Violations name the offending basis pair as ``(degree, index)`` tuples.
    """
    if len(matrices) != algebra.top_degree + 1:
        raise ShapeMismatch(
            f"need {algebra.top_degree + 1} per-degree matrices, got {len(matrices)}"
        )
    blocks = []
    for i, rows in enumerate(matrices):
        m = as_matrix(rows)
        d = algebra.dims[i]
        if len(m) != d or (m and len(m[0]) != d):
            raise ShapeMismatch(
                f"degree {i} matrix is {len(m)}x{len(m[0]) if m else 0},"
                f" expected {d}x{d}"
            )
        blocks.append(m)
    blocks = tuple(blocks)

    candidate = PullbackMap(algebra, blocks, realizability, provenance)

    one = algebra.one()
    if candidate.apply(one) != one:
        raise UnitViolation(message="pullback does not fix the unit: f*(1) != 1")

    # pairs with a degree-0 member are forced by f*(1) = 1 and linearity.
    # With B_k = D_f M_k integer and P the structure table scaled by D,
    # f*(e_a e_b) = f*(e_a) f*(e_b) reads D_f (B P_ab) = sum fa_p fb_q P_pq:
    # both sides are the rational ones times D_f^2 D.
    table = algebra.scaled_table
    den = math.lcm(*(x.denominator for m in blocks for row in m for x in row))
    columns = [
        [
            tuple((p, x.numerator * (den // x.denominator))
                  for p, x in enumerate(col) if x)
            for col in zip(*m)
        ]
        for m in blocks
    ]
    top = algebra.top_degree
    basis = [b for b in algebra.basis() if b[0] >= 1]
    for a in basis:
        i, p = a
        for b in basis:
            j, q = b
            if i + j > top:
                continue
            lhs: dict[int, int] = {}
            for k, v in table.product(a, b):
                for row, x in columns[i + j][k]:
                    lhs[row] = lhs.get(row, 0) + den * v * x
            rhs = table.multiply(i, columns[i][p], j, columns[j][q])
            if {k: v for k, v in lhs.items() if v} != rhs:
                raise MultiplicativityViolation((a, b))
    return candidate


def identity_map(algebra: GradedAlgebra) -> PullbackMap:
    from .linalg import identity

    return PullbackMap(
        algebra,
        tuple(identity(d) for d in algebra.dims),
        realizability="asserted",
        provenance="identity",
    )


def power_map(f: PullbackMap, m: int) -> PullbackMap:
    """f^{m*}: per-degree matrix powers via repeated squaring.

    The result is a ring homomorphism by construction, so it is not
    re-validated.
    """
    if m < 1:
        raise ShapeMismatch("map power requires m >= 1")
    if m == 1:
        return f
    return PullbackMap(
        f.algebra,
        tuple(PowerLadder(b).power(m) if b else () for b in f.blocks),
        realizability=f.realizability,
        provenance=f"({f.provenance})^{m}" if f.provenance else None,
    )


def compose(f: PullbackMap, g: PullbackMap) -> PullbackMap:
    """The pullback of g after f, i.e. matrices f.block @ g.block per degree."""
    if f.algebra is not g.algebra:
        raise ShapeMismatch("composition requires maps on the same algebra")
    return PullbackMap(
        f.algebra,
        tuple(mat_mul(a, b) for a, b in zip(f.blocks, g.blocks)),
        realizability="unverified",
        provenance=None,
    )


def pushforward(f: PullbackMap) -> PushforwardMap:
    """The unique adjoint with pair(f_* a, b) = pair(a, f* b).

    Solved degree by degree from the Gram matrices: with G_i the pairing of
    degree i against degree top-i, N_i^T G_i = G_i M_{top-i}, hence
    N_i = (G_i M_{top-i} G_i^{-1})^T.  Requires a nondegenerate pairing in
    every degree.
    """
    algebra = f.algebra
    top = algebra.top_degree
    blocks = []
    for i in range(top + 1):
        d = algebra.dims[i]
        if d == 0:
            blocks.append(())
            continue
        if algebra.dims[top - i] != d:
            raise DegeneratePairing(i)
        g = algebra.gram_matrix(i)
        g_inv = inverse(g)
        if g_inv is None:
            raise DegeneratePairing(i)
        blocks.append(transpose(mat_mul(mat_mul(g, f.blocks[top - i]), g_inv)))
    return PushforwardMap(algebra, tuple(blocks))


def graded_trace(f: PullbackMap, degree: int) -> Fraction:
    return f.graded_trace(degree)


def total_trace(f: PullbackMap, alternating: bool = False) -> Fraction:
    return f.total_trace(alternating=alternating)
