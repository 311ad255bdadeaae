"""Abelian varieties: the exterior-algebra cohomology model and its maps.

The cohomology of a g-dimensional abelian variety is the exterior algebra on
the 2g classes of H^1, ``core.tensor_product`` of 2g exterior algebras on one
class, and an endomorphism acts on degree k through the k-th exterior power
of its action on H^1.  A map is asserted only when it is the action of an
integer matrix of End(E^g) = M_g(Z), for E without complex multiplication
(see :func:`abelian_variety`).  The ring itself is
:func:`dyndeg.models.exterior_algebra`.  The CLI's adapter and cross-field
check for the ``abelian`` kind live here too.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

from . import core, endo
from .errors import AmpleNotPositive, SchemaError, ShapeMismatch
from .linalg import as_matrix, identity
from .models import EffectiveClass, EmbeddedModel, check_square, exterior_algebra


def exterior_pullback(
    algebra: core.GradedAlgebra,
    matrix: Sequence[Sequence],
    realizability: str = "unverified",
) -> endo.PullbackMap:
    """Pullback of an ``exterior`` algebra, any tensor product of exterior
    algebras on one class (another is a ``ShapeMismatch``), with degree-1
    block B = matrix^T and degree-k block wedge^k B: ``endo.tensor_pullback``
    with e_i sent to row i.

    Multiplicative by functoriality of exterior powers; ``tensor_pullback``
    checks it on the letters only: (row i)^2 = 0 as e_i^2 = 0.
    """
    if not algebra.exterior:
        raise ShapeMismatch("exterior_pullback needs exterior_algebra(g)")
    m = as_matrix(matrix)
    if len(m) != algebra.dims[1]:
        raise ShapeMismatch(f"matrix has {len(m)} rows, expected {algebra.dims[1]}")
    return endo.tensor_pullback(
        algebra, {(i, (1, 0)): algebra.homogeneous(1, row)
                  for i, row in enumerate(m)}, realizability)


def abelian_variety(
    g: int,
    matrix: Sequence[Sequence],
    omega: Mapping[tuple[int, int], object] | None = None,
) -> tuple[EmbeddedModel, endo.PullbackMap]:
    """Exterior-algebra cohomology model of a g-dimensional abelian variety.

    ``matrix`` is the 2g x 2g action on the degree-1 lattice.  The model is
    "asserted", and so is the map when the matrix is A (x) I_2 for an
    integer A, the action of A in End(E^g) = M_g(Z) for E without complex
    multiplication; any other matrix is "unverified", since it need not come
    from an endomorphism (for alpha in End(E), (tr alpha)^2 <= 4 deg alpha).
    ``omega`` maps generator pairs (i, j), i < j, to coefficients; the
    default is the standard product polarization e_0^e_1 + e_2^e_3 + ...
    ``EmbeddedModel.validate`` requires it to be ample, omega_H for H
    positive definite (:func:`check_polarization`).

    Integration is the raw top-form coefficient, so deg(X) = integrate(h^g)
    already carries the g! of the classical chi = omega^g / g! convention;
    the recorded ambient dimension is that of the cube-of-polarization
    embedding, 3^g * chi - 1.  Only growth rates feed the theorems, so these
    normalizations are bookkeeping, not inputs to any verdict.
    """
    algebra = exterior_algebra(g)
    m = as_matrix(matrix)
    if len(m) != 2 * g or any(len(row) != 2 * g for row in m):
        raise ShapeMismatch(f"endomorphism matrix must be {2 * g}x{2 * g}")

    pair_index = {tuple(i for i, (d, _) in enumerate(w) if d): p  # e_i ^ e_j
                  for p, w in enumerate(algebra.words[2])}
    if omega is None:
        omega = {(2 * k, 2 * k + 1): 1 for k in range(g)}
    entries = {}
    for (i, j), coeff in omega.items():
        if not (0 <= i < j < 2 * g):
            raise ShapeMismatch(f"omega indices ({i}, {j}) out of range")
        entries[(2, pair_index[(i, j)])] = coeff
    w = algebra.element(entries)
    if (top := algebra.power(w, g)).is_zero():
        raise AmpleNotPositive("omega^g = 0: not a valid polarization class")

    chi = algebra.integrate(top) / math.factorial(g)
    if chi > 0 and chi.denominator == 1:
        ambient = 3**g * int(chi) - 1
    else:
        ambient = 2 * g + 1
    effective = tuple(
        EffectiveClass(f"omega^{j}", algebra.power(w, j)) for j in range(g + 1)
    )
    model = EmbeddedModel(
        algebra, w, ambient_dim=ambient, realizability="asserted",
        provenance=f"abelian_variety:{g}", effective=effective,
    ).validate()
    integer_scalar_blocks = all(
        m[2 * i][2 * j].denominator == 1
        and m[2 * i][2 * j] == m[2 * i + 1][2 * j + 1]
        and m[2 * i][2 * j + 1] == m[2 * i + 1][2 * j] == 0
        for i in range(g) for j in range(g)
    )
    pull = exterior_pullback(
        algebra, m, "asserted" if integer_scalar_blocks else "unverified")
    return model, pull


def check_polarization(model: EmbeddedModel) -> None:
    """Raise ``AmpleNotPositive`` unless ``model.h`` on E^g is omega_H =
    sum_i H_ii e_2i^e_2i+1 + sum_i<j H_ij (e_2i^e_2j+1 + e_2j^e_2i+1) for H
    positive definite: for E without CM, the ample classes (Birkenhake and
    Lange).  ``EmbeddedModel.validate`` calls it last on an asserted model
    whose algebra is ``exterior``."""
    g, num = model.r, dict(model.h.pieces[2])  # H up to h's denominator
    c = {tuple(i for i, (d, _) in enumerate(w) if d): num.get(p, 0)  # e_i ^ e_j
         for p, w in enumerate(model.algebra.words[2])}
    h = [[c[2 * min(i, j), 2 * max(i, j) + 1] for j in range(g)] for i in range(g)]
    if any(c[2 * i, 2 * j] or c[2 * i + 1, 2 * j + 1]  # no wedge^2 V (x) Sym^2 W
           or c[2 * i, 2 * j + 1] + c[2 * i + 1, 2 * j]
           for i in range(g) for j in range(i + 1, g)) or not _positive_definite(h):
        raise AmpleNotPositive(
            "omega is not ample: it is not omega_H for a positive definite H")


def _positive_definite(h) -> bool:
    """Whether the symmetric integer matrix ``h`` is positive definite: by
    Sylvester's criterion, whether its leading principal minors are, the
    pivots of Bareiss's fraction-free elimination without row exchanges."""
    h, last = [list(row) for row in h], 1
    for k, row in enumerate(h):
        if row[k] <= 0:
            return False
        for below in h[k + 1:]:
            below[k + 1:] = [(row[k] * x - below[k] * y) // last
                             for x, y in zip(below[k + 1:], row[k + 1:])]
        last = row[k]
    return True


def elliptic_square(
    a: Sequence[Sequence],
) -> tuple[EmbeddedModel, endo.PullbackMap]:
    """E x E acted on by an integer 2x2 matrix: the block A (x) I_2 model."""
    a = as_matrix(a)
    if len(a) != 2 or any(len(r) != 2 for r in a) or any(
        x.denominator != 1 for row in a for x in row
    ):
        raise ShapeMismatch("need an integer 2x2 matrix")
    return abelian_variety(2, [[a[i // 2][j // 2] if i % 2 == j % 2 else 0
                                for j in range(4)] for i in range(4)])


# ---------------------------------------------------------------------------
# config adapters and cross-field checks (see ``cli._MODELS``)
# ---------------------------------------------------------------------------

def build_abelian(spec, map_spec):
    g = spec["g"]
    omega = None
    if "omega" in spec:
        omega = {(i, j): coeff for i, j, coeff in spec["omega"]}
    try:
        return abelian_variety(g, map_spec.get("matrix", identity(2 * g)), omega)
    except AmpleNotPositive as exc:
        # omega^g = 0, deg(X) = integrate(omega^g) <= 0 or omega not ample:
        # omega alone decides
        raise SchemaError([("/model/omega", str(exc))]) from exc


def check_abelian(c, spec, map_spec) -> None:
    n, first = 2 * spec["g"], {}
    for k, (i, j, _) in enumerate(spec.get("omega", ())):
        if not 0 <= i < j < n:
            c.add(f"/model/omega/{k}", f"expected indices 0 <= i < j < {n}")
        elif first.setdefault((i, j), k) != k:
            c.add(f"/model/omega/{k}", f"repeats /model/omega/{first[(i, j)]}")
    check_square(c, "/map", map_spec, "matrix", n)
