"""Surface lattices: the algebraic part of a surface with an automorphism.

A rank-(2 + rank) model: the unit, the lattice in degree 2 and the point
class, with an isometry of the lattice as the map.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Sequence

# ``core.build_algebra`` and ``endo.validate_pullback`` are looked up when
# called, so a wrapper bound there (a tracer's) is the one that runs
from . import COMMUTATIVE, core, endo
from .errors import AmpleNotPositive, NotIsometry, ShapeMismatch
from .linalg import as_fraction, as_matrix, scaled_matrix, transpose
from .models import EffectiveClass, EmbeddedModel


def surface_lattice(
    gram: Sequence[Sequence],
    isometry: Sequence[Sequence],
    ample: Sequence,
    ambient_dim: int | None = None,
) -> tuple[EmbeddedModel, endo.PullbackMap]:
    """Rank-(2 + rank) model of a surface: unit, lattice, point class.

    Degree 2 is the lattice tensored with the rationals, multiplying into
    degree 4 through the Gram matrix; the map acts as the given isometry there
    and as the identity on degrees 0 and 4 (automorphism convention).  Odd
    cohomology is omitted entirely, so chain reports from these models are
    marked "algebraic part only" and never assert the full equality.

    ``ambient_dim`` defaults to deg(X) + 1 (the span of a generic ample
    embedding of that degree); pass the true value when it is known.
    """
    q = as_matrix(gram)
    rank = len(q)
    if rank == 0 or any(len(row) != rank for row in q):
        raise ShapeMismatch("gram matrix must be square and nonempty")
    if q != transpose(q):
        raise ShapeMismatch("gram matrix must be symmetric")
    g = as_matrix(isometry)
    if len(g) != rank or any(len(row) != rank for row in g):
        raise ShapeMismatch(f"isometry must be {rank}x{rank}")
    # g^T q g = q, in integers: G^T Q G = D^2 Q for g = G / D and q = Q / D'
    den, g_cols = scaled_matrix(transpose(g))
    q_int = scaled_matrix(q)[1]
    qg = [[sum(map(operator.mul, row, col)) for col in g_cols] for row in q_int]
    gqg = [[sum(map(operator.mul, a, col)) for col in zip(*qg)] for a in g_cols]
    if gqg != [[den * den * x for x in row] for row in q_int]:
        raise NotIsometry("isometry does not preserve the gram matrix")
    v = tuple(as_fraction(x) for x in ample)
    if len(v) != rank:
        raise ShapeMismatch(f"ample vector must have length {rank}")
    self_int = sum(v[i] * q[i][j] * v[j] for i in range(rank) for j in range(rank))
    if self_int <= 0:
        raise AmpleNotPositive(f"ample self-intersection {self_int} is not positive")

    dims = [1, 0, rank, 0, 1]
    products = {}
    for p in range(rank):
        for qq in range(rank):
            products[((2, p), (2, qq))] = {0: q[p][qq]}
    algebra = core.build_algebra(4, dims, COMMUTATIVE, products, integrate=(1,))
    h = algebra.homogeneous(2, v)

    effective = (
        EffectiveClass("unit", algebra.one()),
        EffectiveClass("ample", h),
        EffectiveClass("point", algebra.basis_element(4, 0)),
    )
    model = EmbeddedModel(
        algebra,
        h,
        ambient_dim=int(self_int) + 1 if ambient_dim is None else ambient_dim,
        realizability="asserted-for-lattice",
        provenance=f"surface_lattice:rank{rank}",
        effective=effective,
        scope_note="algebraic part only (odd cohomology not modelled)",
    ).validate()
    blocks = [
        [[Fraction(1)]],
        [],
        [list(row) for row in g],
        [],
        [[Fraction(1)]],
    ]
    pull = endo.validate_pullback(
        algebra, blocks, realizability="asserted-for-lattice",
        provenance="isometry",
    )
    return model, pull
