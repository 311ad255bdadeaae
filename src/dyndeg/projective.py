"""Projective spaces, products of them, and their power and product maps.

P^n is the rank-one quotient model Q[x]/(x^{n+1}), and P^{n_1} x ... x
P^{n_k} the tensor product of such models, embedded by Segre.  The maps are
pullbacks of power maps and of permuted products of them, which are
morphisms, so the builders assert them.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Sequence

# ``core.build_algebra`` and ``endo.validate_pullback`` are looked up when
# called, so a wrapper bound there (a tracer's) is the one that runs
from . import COMMUTATIVE, core, endo
from .errors import PermutationShapeMismatch, ShapeMismatch
from .models import EffectiveClass, EmbeddedModel


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
    algebra = core.build_algebra(2 * n, dims, COMMUTATIVE, products, integrate=(1,))
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


def pn_power_map(model: EmbeddedModel, d: int) -> endo.PullbackMap:
    """Pullback of a degree-d self-map of P^n: x -> d*x (d = 0 allowed)."""
    if d < 0:
        raise ShapeMismatch("map degree must be >= 0")
    blocks = [[[Fraction(d) ** (i // 2)]] if i % 2 == 0 else []
              for i in range(2 * model.ambient_dim + 1)]
    return endo.validate_pullback(
        model.algebra, blocks, realizability="asserted", provenance=f"power:{d}"
    )


# ---------------------------------------------------------------------------
# products of projective spaces
# ---------------------------------------------------------------------------

def _monomials_by_degree(ns: Sequence[int]):
    """``(by_degree, index)``: the exponent vectors of each degree, and the
    ``(degree, position)`` of each vector among them."""
    # descending lexicographic, so the first-factor class leads each piece
    by_degree: dict[int, list[tuple[int, ...]]] = {}
    for exps in itertools.product(*(range(n + 1) for n in ns)):
        by_degree.setdefault(2 * sum(exps), []).append(exps)
    for exps_list in by_degree.values():
        exps_list.sort(reverse=True)
    index = {
        exps: (deg, i)
        for deg, exps_list in by_degree.items()
        for i, exps in enumerate(exps_list)
    }
    return by_degree, index


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
    by_degree, index = _monomials_by_degree(ns)
    dims = [len(by_degree.get(i, ())) for i in range(top + 1)]

    products = {}
    for a, (da, pa) in index.items():
        for b, (db, pb) in index.items():
            if da + db > top:
                continue
            c = tuple(x + y for x, y in zip(a, b))
            if all(x <= n for x, n in zip(c, ns)):
                products[((da, pa), (db, pb))] = {index[c][1]: 1}
    algebra = core.build_algebra(top, dims, COMMUTATIVE, products, integrate=(1,))

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
) -> endo.PullbackMap:
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

    by_degree, index = _monomials_by_degree(ns)
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
    return endo.validate_pullback(
        model.algebra, blocks, realizability="asserted",
        provenance=f"product:{label}",
    )
