"""Surface lattices: the algebraic part of a surface with an automorphism.

A rank-(2 + rank) model: the unit, the lattice in degree 2 and the point
class, with an isometry of the lattice as the map; ``endo.validate_pullback``
is its one isometry check.  The CLI's adapter and cross-field check for the
``surface_lattice`` kind live here too.
"""

from __future__ import annotations

from typing import Sequence

# ``core.build_algebra`` and ``endo.validate_pullback`` are looked up when
# called, so a wrapper bound there (a tracer's) is the one that runs
from . import COMMUTATIVE, core, endo
from .errors import (AmpleNotPositive, MultiplicativityViolation, NotIsometry,
                     SchemaError, ShapeMismatch)
from .linalg import as_fraction, as_matrix, identity
from .models import EffectiveClass, EmbeddedModel, check_square


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
    if q != tuple(zip(*q)):
        raise ShapeMismatch("gram matrix must be symmetric")
    g = as_matrix(isometry)
    if len(g) != rank or any(len(row) != rank for row in g):
        raise ShapeMismatch(f"isometry must be {rank}x{rank}")

    products = {((2, i), (2, j)): {0: q[i][j]}
                for i in range(rank) for j in range(rank)}
    algebra = core.build_algebra(4, [1, 0, rank, 0, 1], COMMUTATIVE, products,
                                 integrate=(1,))
    # e_p e_q = q_pq [pt] and [pt] is fixed, so multiplicativity on the
    # generators is exactly g^T q g = q
    try:
        pull = endo.validate_pullback(algebra, [[[1]], [], g, [], [[1]]],
                                      realizability="asserted-for-lattice")
    except MultiplicativityViolation as exc:
        raise NotIsometry("isometry does not preserve the gram matrix") from exc
    v = [as_fraction(x) for x in ample]
    if len(v) != rank:
        raise ShapeMismatch(f"ample vector must have length {rank}")
    h = algebra.homogeneous(2, v)
    self_int = algebra.pair(h, h)
    if self_int <= 0:
        raise AmpleNotPositive(f"ample self-intersection {self_int} is not positive")

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
    return model, pull


# ---------------------------------------------------------------------------
# config adapters and cross-field checks (see ``cli._MODELS``)
# ---------------------------------------------------------------------------

def build_surface_lattice(spec, map_spec):
    gram = spec["gram"]
    try:
        return surface_lattice(
            gram, map_spec.get("matrix", identity(len(gram))), spec["ample"],
            ambient_dim=spec.get("ambient_dim"),
        )
    except (NotIsometry, AmpleNotPositive, ShapeMismatch) as exc:
        # the shapes are checked: a gram matrix that is not symmetric is left
        path = {NotIsometry: "/map/matrix", AmpleNotPositive: "/model/ample"}
        raise SchemaError([(path.get(type(exc), "/model/gram"), str(exc))]) from exc


def check_surface_lattice(c, spec, map_spec) -> None:
    n = len(spec["gram"])
    check_square(c, "/model", spec, "gram", n)
    if len(spec["ample"]) != n:
        c.add("/model/ample", f"expected {n} coordinates")
    check_square(c, "/map", map_spec, "matrix", n)
