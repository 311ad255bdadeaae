"""Projective spaces, products of them, and their power and product maps.

P^n is the rank-one quotient model Q[x]/(x^{n+1}), and P^{n_1} x ... x
P^{n_k} their tensor product (``core.tensor_product``), embedded by Segre,
whose words the product map reads the factors off.  The maps are pullbacks
of power maps and of permuted products of them, which are morphisms, so the
builders assert them.  The CLI's adapters for the ``projective`` and
``multiprojective`` kinds, and the latter's cross-field check, live here too.
"""

from __future__ import annotations

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

def _monomials(algebra: core.GradedAlgebra) -> dict:
    """``{exponents: (degree, position)}`` of the basis words of a product of
    projective spaces, x_i^e being the letter (2e, 0) of factor i."""
    return {tuple(d // 2 for d, _ in w): (deg, p)
            for deg, words in enumerate(algebra.words) for p, w in enumerate(words)}


def _monomial_label(exps: tuple[int, ...]) -> str:
    parts = [f"x{i}^{e}" if e > 1 else f"x{i}" for i, e in enumerate(exps) if e]
    return "*".join(parts) if parts else "1"


def multiprojective(ns: Sequence[int]) -> EmbeddedModel:
    """Tensor model of P^{n_1} x ... x P^{n_k}, embedded by Segre.

    The algebra is ``core.tensor_product`` of the factors' algebras, each
    distinct n's built once.  h is the sum of the factor hyperplane classes;
    deg(X) is the Segre degree, the multinomial coefficient of
    (n_1, ..., n_k).
    """
    ns = [int(n) for n in ns]
    if not ns or any(n < 1 for n in ns):
        raise ShapeMismatch("each factor needs n_i >= 1")
    factors = {n: projective_space(n).algebra for n in dict.fromkeys(ns)}
    algebra = core.tensor_product(*(factors[n] for n in ns))
    h = algebra.homogeneous(2, [1] * len(ns))
    ambient = math.prod(n + 1 for n in ns) - 1
    effective = tuple(
        EffectiveClass(_monomial_label(exps), algebra.basis_element(deg, p))
        for exps, (deg, p) in sorted(_monomials(algebra).items())
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

    The factors are read off the algebra's words, so the model must be a
    product of projective spaces, P^n included (else ``ShapeMismatch``).
    It is ``endo.tensor_pullback`` on the letters x_i^e -> d_i^e x_perm(i)^e.
    Realizable whenever the permutation only swaps factors of equal dimension,
    which is enforced (the i-th output coordinate block is a degree-d_i map of
    the perm(i)-th input factor).
    """
    algebra = model.algebra
    ns = tuple(d // 2 for d, _ in algebra.words[-1][0])
    if algebra.dimension != math.prod(n + 1 for n in ns) or any(
            d % 2 or p for words in algebra.words for w in words for d, p in w):
        raise ShapeMismatch("product_map needs a product of projective spaces,"
                            f" not {model.provenance}")
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

    index = _monomials(algebra)
    images = {(i, (2 * e, 0)): algebra.element({
        index[tuple(e if j == perm[i] else 0 for j in range(k))]: d**e})
        for i, d in enumerate(degrees) for e in range(1, ns[i] + 1)}
    label = ",".join(f"{d}->{p}" for d, p in zip(degrees, perm))
    return endo.tensor_pullback(
        algebra, images, realizability="asserted",
        provenance=f"product:{label}",
    )


# ---------------------------------------------------------------------------
# config adapters and cross-field checks (see ``cli._MODELS``)
# ---------------------------------------------------------------------------

def build_projective(spec, map_spec):
    model = projective_space(spec["n"])
    return model, pn_power_map(model, map_spec.get("d", 1))


def build_multiprojective(spec, map_spec):
    k = len(spec["n"])
    model = multiprojective(spec["n"])
    return model, product_map(
        model, map_spec.get("d", [1] * k), map_spec.get("perm", list(range(k)))
    )


def check_multiprojective(c, spec, map_spec) -> None:
    ns, perm = spec["n"], map_spec.get("perm", range(len(spec["n"])))
    if len(map_spec.get("d", ns)) != len(ns):
        c.add("/map/d", f"expected {len(ns)} degrees, one per factor")
    if sorted(perm) != list(range(len(ns))) or any(
            ns[p] != n for p, n in zip(perm, ns)):
        c.add("/map/perm", "expected a permutation of equal-dimension factors")
