"""Abelian varieties: the exterior-algebra cohomology model and its maps.

The cohomology of a g-dimensional abelian variety is the exterior algebra on
the 2g classes of H^1, and an endomorphism acts on degree k through the k-th
exterior power of its action on H^1.  A map is asserted only when it is the
action of an integer matrix of End(E^g) = M_g(Z), for E without complex
multiplication (see :func:`abelian_variety`).
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import Mapping, Sequence

# ``core.build_algebra`` and ``endo.validate_pullback`` are looked up when
# called, so a wrapper bound there (a tracer's) is the one that runs
from . import SUPER_COMMUTATIVE, core, endo
from .errors import AmpleClassDegenerate, ShapeMismatch
from .linalg import as_fraction, as_matrix, scaled_matrix, transpose
from .models import EffectiveClass, EmbeddedModel


def _subset_sign(s: tuple[int, ...], t: tuple[int, ...]) -> int:
    """Sign of merging two disjoint sorted index tuples by concatenation."""
    inversions = sum(1 for a in s for b in t if a > b)
    return -1 if inversions % 2 else 1


@functools.lru_cache(maxsize=None)
def exterior_algebra(g: int) -> core.GradedAlgebra:
    """Exterior algebra on 2g degree-1 generators with top-form integration.

    Cached: instances are immutable, so one validated copy per g is shared.
    """
    if g < 1:
        raise ShapeMismatch("genus must be >= 1")
    n = 2 * g
    subsets = {
        i: sorted(itertools.combinations(range(n), i)) for i in range(n + 1)
    }
    index = {s: subsets[len(s)].index(s) for i in subsets for s in subsets[i]}
    dims = [len(subsets[i]) for i in range(n + 1)]
    products = {}
    for i in range(n + 1):
        for j in range(n + 1 - i):
            for p, s in enumerate(subsets[i]):
                for q, t in enumerate(subsets[j]):
                    if set(s) & set(t):
                        continue
                    merged = tuple(sorted(s + t))
                    products[((i, p), (j, q))] = {
                        index[merged]: _subset_sign(s, t)
                    }
    return core.build_algebra(
        n, dims, SUPER_COMMUTATIVE, products,
        integrate=(1,) * (1 if dims[n] == 1 else dims[n]),
    )


def exterior_pullback(
    algebra: core.GradedAlgebra,
    matrix: Sequence[Sequence],
    realizability: str = "unverified",
    provenance: str | None = None,
) -> endo.PullbackMap:
    """Pullback with degree-1 block B = matrix^T and degree-i block wedge^i B.

    Multiplicative by functoriality of exterior powers, but still run through
    the validator (validation soundness is an invariant worth paying for).
    """
    b = transpose(as_matrix(matrix))
    n = len(b)
    if algebra.dims[1] != n:
        raise ShapeMismatch(
            f"matrix is {n}x{n}, degree-1 piece has dimension {algebra.dims[1]}"
        )
    return endo.validate_pullback(
        algebra, _compound_blocks(b), realizability=realizability,
        provenance=provenance,
    )


def _compound_blocks(b) -> list:
    """``[wedge^k b for k = 0..n]`` for a square ``Fraction`` matrix b: entry
    (s, t) of block k is the minor of b on the rows s and the columns t, for
    k-subsets s and t in lexicographic order.

    The minors are those of the integer matrix D b, D the lcm of the entry
    denominators, divided by D^k.  Each k x k minor is expanded along its
    first row, from the (k - 1) x (k - 1) minors on the rows below it.
    """
    n = len(b)
    den, m = scaled_matrix(b)
    below = {(): {(): 1}}  # rows -> columns -> minor of D b, one size down
    blocks = [((Fraction(1),),)]
    for k in range(1, n + 1):
        subsets = list(itertools.combinations(range(n), k))
        minors = {}
        for s in subsets:
            first, rest = m[s[0]], below[s[1:]]
            row = minors[s] = {}
            for t in subsets:
                total, sign = 0, 1
                for i, c in enumerate(t):
                    if first[c]:
                        total += sign * first[c] * rest[t[:i] + t[i + 1:]]
                    sign = -sign
                row[t] = total
        scale = den**k
        blocks.append(tuple(
            tuple(Fraction(v, scale) for v in minors[s].values())
            for s in subsets
        ))
        below = minors
    return blocks


def abelian_variety(
    g: int,
    matrix: Sequence[Sequence],
    omega: Mapping[tuple[int, int], object] | None = None,
    realizability: str = "asserted",
) -> tuple[EmbeddedModel, endo.PullbackMap]:
    """Exterior-algebra cohomology model of a g-dimensional abelian variety.

    ``matrix`` is the 2g x 2g action on the degree-1 lattice.  The map carries
    ``realizability`` only when the matrix is A (x) I_2 for an integer A, the
    action of A in End(E^g) = M_g(Z) for E without complex multiplication;
    any other matrix is "unverified", since it need not come from an
    endomorphism (for alpha in End(E), (tr alpha)^2 <= 4 deg alpha).  The
    model keeps ``realizability`` either way.  ``omega`` maps generator
    pairs (i, j), i < j, to coefficients; the default is the standard product
    polarization e_0^e_1 + e_2^e_3 + ...

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

    pair_index = {
        s: i for i, s in enumerate(sorted(itertools.combinations(range(2 * g), 2)))
    }
    entries: dict[tuple[int, int], Fraction] = {}
    if omega is None:
        for k in range(g):
            entries[(2, pair_index[(2 * k, 2 * k + 1)])] = Fraction(1)
    else:
        for (i, j), coeff in omega.items():
            if not (0 <= i < j < 2 * g):
                raise ShapeMismatch(f"omega indices ({i}, {j}) out of range")
            entries[(2, pair_index[(i, j)])] = (
                entries.get((2, pair_index[(i, j)]), Fraction(0))
                + as_fraction(coeff)
            )
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
        realizability=realizability,
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
        realizability=realizability if integer_scalar_blocks else "unverified",
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
