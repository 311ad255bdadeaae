"""Pullback maps on graded algebras: validation, powers, adjoints, traces.

A pullback is a degree-preserving unital ring endomorphism, stored as one
exact rational matrix per graded piece (column convention: the image of the
q-th basis vector is the q-th column).  Geometric realizability cannot be
decided at this level; maps carry a flag that builders set and everything
downstream merely propagates ("asserted" from builders, "unverified" for
hand-supplied matrices).
"""

from __future__ import annotations

import functools
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
    scaled_vector,
    trace,
    transpose,
)


class _GradedMatrices:
    """A map stored as one square matrix per graded piece (``blocks``).

    The blocks are also held once as integers over one common denominator
    (``scaled_blocks``); ``apply`` and the Gromov closure run on that copy.
    """

    blocks: tuple[Matrix, ...]

    @functools.cached_property
    def scaled_blocks(self) -> tuple[int, tuple]:
        """``(D, columns)``: D is the lcm of all entry denominators and
        ``columns[k][q]`` the nonzero entries ``((p, D * m_pq), ...)`` of
        column q of block k."""
        den = math.lcm(
            *(x.denominator for m in self.blocks for row in m for x in row)
        )
        return den, tuple(
            tuple(
                tuple((p, x.numerator * (den // x.denominator))
                      for p, x in enumerate(col) if x)
                for col in zip(*m)
            )
            for m in self.blocks
        )

    def apply_scaled(self, degree: int, vec) -> dict[int, int]:
        """D times block ``degree`` applied to the sparse integer vector
        ``((q, x), ...)``, as its nonzero entries ``{p: value}``."""
        columns = self.scaled_blocks[1][degree]
        out: dict[int, int] = {}
        for q, x in vec:
            for p, y in columns[q]:
                out[p] = out.get(p, 0) + x * y
        return {p: v for p, v in out.items() if v}

    def apply(self, a: Element) -> Element:
        """The image of ``a``; all-zero graded pieces pass through unchanged."""
        den = self.scaled_blocks[0]
        pieces = []
        for degree, piece in enumerate(a.coords):
            if not any(piece):
                pieces.append(piece)
                continue
            piece_den, nums = scaled_vector(piece)
            image = self.apply_scaled(
                degree, [(q, x) for q, x in enumerate(nums) if x]
            )
            scale = den * piece_den
            pieces.append(tuple(
                Fraction(image.get(p, 0), scale) for p in range(len(piece))
            ))
        return Element(tuple(pieces))


@dataclass(frozen=True)
class PullbackMap(_GradedMatrices):
    """Validated unital graded ring endomorphism f*."""

    algebra: GradedAlgebra
    blocks: tuple[Matrix, ...]
    realizability: str = "unverified"
    provenance: str | None = None

    def block(self, degree: int) -> Matrix:
        return self.blocks[degree]

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
class PushforwardMap(_GradedMatrices):
    """Adjoint of a pullback under the intersection pairing.

    Realized per degree on the same grading; satisfies the projection formula
    pair(f_* a, b) = pair(a, f* b) exactly.
    """

    algebra: GradedAlgebra
    blocks: tuple[Matrix, ...]


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
    den, columns = candidate.scaled_blocks
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
