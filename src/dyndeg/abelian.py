"""Abelian varieties: the exterior-algebra cohomology model and its maps.

The cohomology of a g-dimensional abelian variety is the exterior algebra on
the 2g classes of H^1, ``core.tensor_product`` of 2g exterior algebras on one
class, and an endomorphism acts on degree k through the k-th exterior power
of its action on H^1.  A map is asserted only when it is the action of an
integer matrix of End(E^g) = M_g(Z), for E without complex multiplication
(see :func:`abelian_variety`).  The CLI's adapter and cross-field check for
the ``abelian`` kind live here too.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Mapping, Sequence

# ``core.build_algebra`` and ``endo.validate_pullback`` are looked up when
# called, so a wrapper bound there (a tracer's) is the one that runs
from . import SUPER_COMMUTATIVE, core, endo
from .errors import (AmpleClassDegenerate, DegreeNotPositive, SchemaError,
                     ShapeMismatch)
from .linalg import as_matrix, identity
from .models import EffectiveClass, EmbeddedModel, check_square


@functools.lru_cache(maxsize=None)
def exterior_algebra(g: int) -> core.GradedAlgebra:
    """Exterior algebra on 2g degree-1 generators with top-form integration,
    the tensor product of 2g exterior algebras on one generator.

    Cached: instances are immutable, so one validated copy per g is shared.
    """
    if g < 1:
        raise ShapeMismatch("genus must be >= 1")
    line = core.build_algebra(1, (1, 1), SUPER_COMMUTATIVE, {}, integrate=(1,))
    algebra = core.tensor_product(*[line] * (2 * g))
    algebra.exterior = True
    return algebra


def exterior_pullback(
    algebra: core.GradedAlgebra,
    matrix: Sequence[Sequence],
    realizability: str = "unverified",
    provenance: str | None = None,
) -> endo.PullbackMap:
    """Pullback of ``exterior_algebra(g)`` (another algebra is a
    ``ShapeMismatch``) with degree-1 block B = matrix^T and degree-k block
    wedge^k B: ``endo.tensor_pullback`` with e_i sent to row i.

    Multiplicative by functoriality of exterior powers, but still run through
    the validator (validation soundness is an invariant worth paying for).
    """
    if not algebra.exterior:
        raise ShapeMismatch("exterior_pullback needs exterior_algebra(g)")
    m = as_matrix(matrix)
    if len(m) != algebra.dims[1]:
        raise ShapeMismatch(f"matrix has {len(m)} rows, expected {algebra.dims[1]}")
    return endo.tensor_pullback(
        algebra, {(i, (1, 0)): algebra.homogeneous(1, row)
                  for i, row in enumerate(m)},
        realizability=realizability, provenance=provenance,
    )


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
    if algebra.power(w, g).is_zero():
        raise AmpleClassDegenerate("omega^g = 0: not a valid polarization class")

    chi = algebra.integrate(algebra.power(w, g)) / math.factorial(g)
    if chi > 0 and chi.denominator == 1:
        ambient = 3**g * int(chi) - 1
    else:
        ambient = 2 * g + 1
    effective = tuple(
        EffectiveClass(f"omega^{j}", algebra.power(w, j)) for j in range(g + 1)
    )
    model = EmbeddedModel(
        algebra,
        w,
        ambient_dim=ambient,
        realizability="asserted",
        provenance=f"abelian_variety:{g}",
        effective=effective,
    ).validate()
    integer_scalar_blocks = all(
        m[2 * i][2 * j].denominator == 1
        and m[2 * i][2 * j] == m[2 * i + 1][2 * j + 1]
        and m[2 * i][2 * j + 1] == m[2 * i + 1][2 * j] == 0
        for i in range(g) for j in range(g)
    )
    pull = exterior_pullback(
        algebra, m,
        realizability="asserted" if integer_scalar_blocks else "unverified",
        provenance="exterior",
    )
    return model, pull


def elliptic_square(
    a: Sequence[Sequence],
) -> tuple[EmbeddedModel, endo.PullbackMap]:
    """E x E acted on by an integer 2x2 matrix: the block A (x) I_2 model."""
    a = as_matrix(a)
    if len(a) != 2 or any(len(r) != 2 for r in a) or any(
        x.denominator != 1 for row in a for x in row
    ):
        raise ShapeMismatch("need an integer 2x2 matrix")
    m = [[Fraction(0)] * 4 for _ in range(4)]
    for i in range(2):
        for j in range(2):
            for k in range(2):
                m[2 * i + k][2 * j + k] = a[i][j]
    return abelian_variety(2, m)


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
    except (AmpleClassDegenerate, DegreeNotPositive) as exc:
        # omega^g = 0 or deg(X) = integrate(omega^g) <= 0: omega alone decides
        raise SchemaError([("/model/omega", str(exc))]) from exc


def check_abelian(c, spec, map_spec) -> None:
    n, first = 2 * spec["g"], {}
    for k, (i, j, _) in enumerate(spec.get("omega", ())):
        if not 0 <= i < j < n:
            c.add(f"/model/omega/{k}", f"expected indices 0 <= i < j < {n}")
        elif first.setdefault((i, j), k) != k:
            c.add(f"/model/omega/{k}", f"repeats /model/omega/{first[(i, j)]}")
    check_square(c, "/map", map_spec, "matrix", n)
