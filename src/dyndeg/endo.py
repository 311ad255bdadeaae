"""Pullback maps on graded algebras and their validation.

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
from typing import Sequence

from .core import Element, GradedAlgebra
from .errors import MultiplicativityViolation, ShapeMismatch, UnitViolation
from .linalg import Matrix, as_matrix, identity


class PullbackMap:
    """Validated unital graded ring endomorphism f*.

    The blocks are also held once as integers over one common denominator
    (``scaled_blocks``); ``apply`` and the Gromov closure run on that copy.
    """

    def __init__(self, algebra: GradedAlgebra, blocks: tuple[Matrix, ...],
                 realizability: str = "unverified",
                 provenance: str | None = None):
        self.algebra = algebra
        self.blocks = blocks
        self.realizability = realizability
        self.provenance = provenance

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
        """The image of ``a``; zero graded pieces are skipped."""
        return Element.scaled(a.dims, a.denominator * self.scaled_blocks[0], [
            self.apply_scaled(degree, piece) if piece else {}
            for degree, piece in enumerate(a.pieces)
        ])


def validate_pullback(
    algebra: GradedAlgebra,
    matrices: Sequence[Sequence[Sequence]],
    realizability: str = "unverified",
    provenance: str | None = None,
) -> PullbackMap:
    """Check shapes, f*(1) = 1, and f*(s y) = f*(s) f*(y) for each s in
    ``algebra.generators`` and every basis vector y.

    That is enough for every pair: the x with f*(x y) = f*(x) f*(y) for all
    y form a subspace that holds 1 and, the algebra being associative, is
    closed under left multiplication by each such s, so it holds every
    right-nested word in the generators, which span the algebra.
    Violations name the offending pair (s, y) as ``(degree, index)`` tuples.
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
    # f*(e_s e_y) = f*(e_s) f*(e_y) reads D_f (B P_sy) = sum fs_p fy_q P_pq:
    # both sides are the rational ones times D_f^2 D.
    table = algebra.scaled_table
    den, columns = candidate.scaled_blocks
    top = algebra.top_degree
    basis = [b for b in algebra.basis() if b[0] >= 1]
    for s in algebra.generators:
        i, p = s
        for y in basis:
            j, q = y
            if i + j > top:
                continue
            lhs: dict[int, int] = {}
            for k, v in table.product(s, y):
                for row, x in columns[i + j][k]:
                    lhs[row] = lhs.get(row, 0) + den * v * x
            rhs = table.multiply(i, columns[i][p], j, columns[j][q])
            if {k: v for k, v in lhs.items() if v} != rhs:
                raise MultiplicativityViolation((s, y))
    return candidate


def identity_map(algebra: GradedAlgebra) -> PullbackMap:
    return PullbackMap(
        algebra,
        tuple(identity(d) for d in algebra.dims),
        realizability="asserted",
        provenance="identity",
    )
