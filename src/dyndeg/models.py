"""Builders for concrete models and their standard self-maps.

Every builder emits a fully validated :class:`EmbeddedModel` together with
validated pullbacks.  Builders are also where realizability is decided: a
power map of projective space or an integer matrix acting on a product of
elliptic curves comes from an actual morphism, so those maps carry
``realizability="asserted"``; hand-supplied matrices stay "unverified".
Which matrices are realizable in general is a number-theoretic question the
library never guesses at - the flags just propagate into reports.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import Mapping, Sequence

from .core import COMMUTATIVE, SUPER_COMMUTATIVE, GradedAlgebra, build_algebra
from .degrees import EffectiveClass, EmbeddedModel
from .endo import PullbackMap, validate_pullback
from .errors import (
    AmpleClassDegenerate,
    AmpleNotPositive,
    NotIsometry,
    PermutationShapeMismatch,
    ShapeMismatch,
)
from .linalg import as_fraction, as_matrix, det, transpose


# ---------------------------------------------------------------------------
# projective space
# ---------------------------------------------------------------------------

def projective_space(n: int) -> EmbeddedModel:
    """The rank-one quotient model of P^n: one class x with x^{n+1} = 0."""
    if n < 1:
        raise ShapeMismatch("projective space needs n >= 1")
    dims = [1 if i % 2 == 0 else 0 for i in range(2 * n + 1)]
    products = {
        ((2 * a, 0), (2 * b, 0)): {0: 1}
        for a in range(n + 1)
        for b in range(n + 1)
        if a + b <= n
    }
    algebra = build_algebra(2 * n, dims, COMMUTATIVE, products, integrate=(1,))
    h = algebra.basis_element(2, 0)
    effective = tuple(
        EffectiveClass(f"h^{j}", algebra.power(h, j)) for j in range(n + 1)
    )
    return EmbeddedModel(
        algebra,
        h,
        ambient_dim=n,
        realizability="asserted",
        provenance=f"projective_space:{n}",
        effective=effective,
    ).validate()


def pn_power_map(model: EmbeddedModel, d: int) -> PullbackMap:
    """Pullback of a degree-d self-map of P^n: x -> d*x (d = 0 allowed)."""
    if d < 0:
        raise ShapeMismatch("map degree must be >= 0")
    n = model.ambient_dim
    blocks = []
    for i in range(2 * n + 1):
        if i % 2 == 0 and i // 2 <= n:
            blocks.append([[Fraction(d) ** (i // 2)]])
        else:
            blocks.append([])
    return validate_pullback(
        model.algebra, blocks, realizability="asserted", provenance=f"power:{d}"
    )


# ---------------------------------------------------------------------------
# products of projective spaces
# ---------------------------------------------------------------------------

def _monomials_by_degree(ns: Sequence[int]):
    # descending lexicographic, so the first-factor class leads each piece
    by_degree: dict[int, list[tuple[int, ...]]] = {}
    for exps in itertools.product(*(range(n + 1) for n in ns)):
        by_degree.setdefault(2 * sum(exps), []).append(exps)
    for exps_list in by_degree.values():
        exps_list.sort(reverse=True)
    return by_degree


def _monomial_label(exps: tuple[int, ...]) -> str:
    parts = [f"x{i}^{e}" if e > 1 else f"x{i}" for i, e in enumerate(exps) if e]
    return "*".join(parts) if parts else "1"


def multiprojective(ns: Sequence[int]) -> EmbeddedModel:
    """Tensor model of P^{n_1} x ... x P^{n_k}, embedded by Segre.

    h is the sum of the factor hyperplane classes; deg(X) is the Segre degree,
    the multinomial coefficient of (n_1, ..., n_k).
    """
    ns = [int(n) for n in ns]
    if not ns or any(n < 1 for n in ns):
        raise ShapeMismatch("each factor needs n_i >= 1")
    top = 2 * sum(ns)
    by_degree = _monomials_by_degree(ns)
    index = {
        exps: (deg, i)
        for deg, exps_list in by_degree.items()
        for i, exps in enumerate(exps_list)
    }
    dims = [len(by_degree.get(i, ())) for i in range(top + 1)]

    products = {}
    for a, (da, pa) in index.items():
        for b, (db, pb) in index.items():
            if da + db > top:
                continue
            c = tuple(x + y for x, y in zip(a, b))
            if all(x <= n for x, n in zip(c, ns)):
                products[((da, pa), (db, pb))] = {index[c][1]: 1}
    algebra = build_algebra(top, dims, COMMUTATIVE, products, integrate=(1,))

    h = algebra.zero()
    for i in range(len(ns)):
        exps = tuple(1 if j == i else 0 for j in range(len(ns)))
        h = h + algebra.basis_element(2, index[exps][1])
    ambient = math.prod(n + 1 for n in ns) - 1
    effective = tuple(
        EffectiveClass(
            _monomial_label(exps), algebra.basis_element(deg, i)
        )
        for exps, (deg, i) in sorted(index.items())
    )
    return EmbeddedModel(
        algebra,
        h,
        ambient_dim=ambient,
        realizability="asserted",
        provenance="multiprojective:" + ",".join(map(str, ns)),
        effective=effective,
    ).validate()


def product_map(
    model: EmbeddedModel, degrees: Sequence[int], perm: Sequence[int]
) -> PullbackMap:
    """Pullback of a permuted product of power maps: h_i -> d_i * h_{perm(i)}.

    Realizable whenever the permutation only swaps factors of equal dimension,
    which is enforced (the i-th output coordinate block is a degree-d_i map of
    the perm(i)-th input factor).
    """
    ns = [int(s) for s in model.provenance.split(":", 1)[1].split(",")]
    k = len(ns)
    degrees = [int(d) for d in degrees]
    perm = [int(p) for p in perm]
    if len(degrees) != k or any(d < 0 for d in degrees):
        raise PermutationShapeMismatch(f"need {k} nonnegative degrees")
    if sorted(perm) != list(range(k)):
        raise PermutationShapeMismatch(f"perm must permute 0..{k - 1}")
    if any(ns[perm[i]] != ns[i] for i in range(k)):
        raise PermutationShapeMismatch(
            "permutation must match factor dimensions (n_i = n_perm(i))"
        )

    by_degree = _monomials_by_degree(ns)
    index = {
        exps: (deg, i)
        for deg, exps_list in by_degree.items()
        for i, exps in enumerate(exps_list)
    }
    blocks = []
    for deg in range(model.algebra.top_degree + 1):
        exps_list = by_degree.get(deg, [])
        n = len(exps_list)
        m = [[Fraction(0)] * n for _ in range(n)]
        for q, exps in enumerate(exps_list):
            image = [0] * k
            coeff = Fraction(1)
            for i, e in enumerate(exps):
                image[perm[i]] += e
                coeff *= Fraction(degrees[i]) ** e
            target = tuple(image)
            # same factor dims along the permutation, so target is in range
            p = index[target][1]
            m[p][q] = coeff
        blocks.append(m)
    label = ",".join(f"{d}->{p}" for d, p in zip(degrees, perm))
    return validate_pullback(
        model.algebra, blocks, realizability="asserted",
        provenance=f"product:{label}",
    )


# ---------------------------------------------------------------------------
# abelian varieties (exterior algebra cohomology model)
# ---------------------------------------------------------------------------

def _subset_sign(s: tuple[int, ...], t: tuple[int, ...]) -> int:
    """Sign of merging two disjoint sorted index tuples by concatenation."""
    inversions = sum(1 for a in s for b in t if a > b)
    return -1 if inversions % 2 else 1


@functools.lru_cache(maxsize=None)
def exterior_algebra(g: int) -> GradedAlgebra:
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
    return build_algebra(
        n, dims, SUPER_COMMUTATIVE, products,
        integrate=(1,) * (1 if dims[n] == 1 else dims[n]),
    )


def exterior_pullback(
    algebra: GradedAlgebra,
    matrix: Sequence[Sequence],
    realizability: str = "unverified",
    provenance: str | None = None,
) -> PullbackMap:
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
    subsets = {
        i: sorted(itertools.combinations(range(n), i)) for i in range(n + 1)
    }
    blocks = []
    for i in range(n + 1):
        rows = []
        for s in subsets[i]:
            row = []
            for t in subsets[i]:
                minor = tuple(tuple(b[a][c] for c in t) for a in s)
                row.append(det(minor))
            rows.append(row)
        blocks.append(rows)
    return validate_pullback(
        algebra, blocks, realizability=realizability, provenance=provenance
    )


def abelian_variety(
    g: int,
    matrix: Sequence[Sequence],
    omega: Mapping[tuple[int, int], object] | None = None,
    realizability: str = "asserted",
) -> tuple[EmbeddedModel, PullbackMap]:
    """Exterior-algebra cohomology model of a g-dimensional abelian variety.

    ``matrix`` is the 2g x 2g integer action on the degree-1 lattice (the
    caller asserts it comes from an endomorphism, e.g. any integer block
    A (x) I_2 on a square of an elliptic curve).  ``omega`` maps generator
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
    pull = exterior_pullback(
        algebra, m, realizability=realizability, provenance="exterior"
    )
    return model, pull


def elliptic_square(a: Sequence[Sequence]) -> tuple[EmbeddedModel, PullbackMap]:
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
# surface lattices (algebraic part of a surface with an automorphism)
# ---------------------------------------------------------------------------

def surface_lattice(
    gram: Sequence[Sequence],
    isometry: Sequence[Sequence],
    ample: Sequence,
    ambient_dim: int | None = None,
) -> tuple[EmbeddedModel, PullbackMap]:
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
    from .linalg import mat_mul

    if mat_mul(mat_mul(transpose(g), q), g) != q:
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
    algebra = build_algebra(4, dims, COMMUTATIVE, products, integrate=(1,))
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
    pull = validate_pullback(
        algebra, blocks, realizability="asserted-for-lattice",
        provenance="isometry",
    )
    return model, pull


# ---------------------------------------------------------------------------
# custom models from config dictionaries
# ---------------------------------------------------------------------------

def custom_model(params: Mapping) -> EmbeddedModel:
    """Build a model from the CLI's custom-model schema (kind "custom").

    Everything is validated; realizability is "unverified" unless overridden.
    A pullback comes from ``validate_pullback`` on the model's algebra.
    """
    top = int(params["top_degree"])
    dims = [int(d) for d in params["dims"]]
    sign_rule = params.get("sign_rule", COMMUTATIVE)
    products = {}
    for entry in params.get("products", ()):
        (i, p), (j, q) = entry["a"], entry["b"]
        value = entry["value"]
        if isinstance(value, Mapping):
            vec = {int(k): as_fraction(c) for k, c in value.items()}
        else:
            vec = {int(k): as_fraction(c) for k, c in value}
        products[((int(i), int(p)), (int(j), int(q)))] = vec
    algebra = build_algebra(
        top, dims, sign_rule, products,
        integrate=[as_fraction(c) for c in params["integrate"]],
        unit=[as_fraction(c) for c in params.get("unit", (1,))],
    )
    h = algebra.homogeneous(2, [as_fraction(c) for c in params["h"]])
    effective = tuple(
        EffectiveClass(
            e.get("label", f"effective[{i}]"),
            algebra.homogeneous(
                int(e["degree"]), [as_fraction(c) for c in e["coords"]]
            ),
        )
        for i, e in enumerate(params.get("effective", ()))
    )
    return EmbeddedModel(
        algebra,
        h,
        ambient_dim=int(params["ambient_dim"]),
        realizability=params.get("realizability", "unverified"),
        provenance="custom",
        effective=effective,
    ).validate()
