"""Dynamical degree tables, graph-class coefficients, and intersection bounds.

A model (``models.EmbeddedModel``, defined beside its builders) is an algebra
together with a very ample degree-2 class h, the ambient projective
dimension, and deg(X) = integrate(h^r).  The j-th dynamical degree of the
m-th iterate is the intersection number pair(h^{r-j}, f^{m*} h^j); its growth
rate in m is what the spectral comparison chain controls.  The graph class
and its Segre degree are read off one ``DeltaTable``, which the caller builds
once for every m.

The moving-lemma machinery is represented purely as a degree/step ledger: the
geometric cone construction is out of scope, only the step count k <= r+1 and
the worst-case degree recurrences deg(V_j) <= deg(X)^j deg(V) are modelled.
Effectivity of classes is likewise a builder-supplied flag, not something the
algebra can decide.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

from .core import Element
from .endo import PullbackMap
from .errors import (FloatOverflow, NonComplementaryDegrees, ShapeMismatch,
                     StepOutOfRange)
from .linalg import as_fraction

if TYPE_CHECKING:
    from .models import EmbeddedModel


# ---------------------------------------------------------------------------
# dynamical degrees
# ---------------------------------------------------------------------------

class DeltaTable(namedtuple("DeltaTable", "r m_max rows deg_x")):
    """Grid of dynamical degrees: rows indexed by j in [0, r], m in [1, m_max].

    ``deg_x`` is the shared identity-map baseline: pair(h^{r-j}, h^j) equals
    integrate(h^r) = deg(X) for every j.
    """

    __slots__ = ()

    def column(self, m: int) -> tuple[Fraction, ...]:
        """(delta_0(f^m), ..., delta_r(f^m)): the m-th iterate across all j."""
        if not (1 <= m <= self.m_max):
            raise ShapeMismatch(f"m must be in [1, {self.m_max}]")
        return tuple(row[m - 1] for row in self.rows)


def delta_table(model: EmbeddedModel, f: PullbackMap, m_max: int) -> DeltaTable:
    """delta_j(f^m) = w_j . v_m, with no product and no ``Element`` built:
    w_j = F h^{r-j} comes once per j off the algebra's integer pairing form F
    (``GradedAlgebra.pairing_form``), and v_m = f^{m*}(h^j) is iterated on
    the degree-2j integer piece by ``f.apply_scaled``, over one denominator
    kept reduced by gcd, so the iteration does no ``Fraction`` arithmetic."""
    if m_max < 1:
        raise ShapeMismatch("m_max must be >= 1")
    r, (den, forms) = model.r, model.algebra.pairing_form
    f_den = f.scaled_blocks[0]
    rows = []
    for j in range(r + 1):
        comp, hj = model.h_powers[r - j], model.h_powers[j]
        w = [0] * model.algebra.dims[2 * j]
        for p, x in comp.pieces[2 * (r - j)]:
            for q, y in forms[2 * (r - j)][p].items():
                w[q] += x * y
        w_den, v, v_den = comp.denominator * den, hj.pieces[2 * j], hj.denominator
        row = []
        for _ in range(m_max):
            image, v_den = f.apply_scaled(2 * j, v), v_den * f_den
            g = math.gcd(v_den, *image.values()) if v_den > 1 else 1
            v, v_den = [(q, x // g) for q, x in image.items()], v_den // g
            row.append(Fraction(sum(w[q] * x for q, x in v), v_den * w_den))
        rows.append(tuple(row))
    return DeltaTable(r=r, m_max=m_max, rows=tuple(rows), deg_x=model.deg_x)


def _root_of_abs(value, m: int) -> float:
    """|value|^{1/m} computed through logs; safe for huge exact rationals."""
    if value == 0:
        return 0.0
    if isinstance(value, (int, Fraction)):  # an int is its own numerator
        log_abs = math.log(abs(value.numerator)) - math.log(value.denominator)
    else:
        log_abs = math.log(abs(float(value)))
    try:
        return math.exp(log_abs / m)
    except OverflowError:  # the root is past the float range
        raise FloatOverflow([(m, "root")]) from None


def default_window(length: int) -> int:
    """Trailing-window size covering m in [length/2, length]."""
    return max(1, min(length, length - length // 2 + 1))


def limsup_root(sequence: Sequence, window: int | None = None) -> float:
    """Finite limsup estimate: max of |a_m|^{1/m} over the trailing window.

    The sequence is indexed from m = 1.  A windowed max is the honest finite
    truncation of a limsup: oscillating sequences (complex eigenvalues, sign
    mixing) dip arbitrarily low at single m's but cannot beat the max.
    """
    seq = list(sequence)
    if not seq:
        raise ShapeMismatch("limsup_root of an empty sequence")
    if window is None:
        window = default_window(len(seq))
    if not (1 <= window <= len(seq)):
        raise ShapeMismatch("window must be within the sequence length")
    start = len(seq) - window
    return max(_root_of_abs(seq[m], m + 1) for m in range(start, len(seq)))


GrowthRates = namedtuple("GrowthRates", "rates max_rate window")


def growth_rates(table: DeltaTable, window: int | None = None) -> GrowthRates:
    """Per-j limsup estimates of |delta_j(f^m)|^{1/m}, and their maximum.

    Each row is measured against its m-independent identity baseline
    delta_j(id) = deg(X) before taking roots.  Constants never change a
    limsup, but at finite m they inflate the estimate by constant^{1/m};
    dividing out the geometric baseline removes the dominant part of that
    inflation (the identity map then reports exactly 1 in every row).
    All-zero rows report rate 0 (non-dominant maps are allowed).
    """
    if window is None:
        window = default_window(table.m_max)
    start = table.m_max - window  # limsup_root reads no entry before it
    rates = tuple(
        limsup_root(row[:start] + tuple(x / table.deg_x for x in row[start:]),
                    window)
        for row in table.rows
    )
    return GrowthRates(rates=rates, max_rate=max(rates), window=window)


# ---------------------------------------------------------------------------
# graph class and Segre degree
# ---------------------------------------------------------------------------

# factor_dims: (a, b) for the component [P^a] x [P^b]
GraphComponent = namedtuple("GraphComponent", "coefficient factor_dims label")


def graph_class(table: DeltaTable, m: int) -> list[GraphComponent]:
    """Coefficients of the graph of f^m on the product of ambient spaces,
    read off ``table``, the dynamical-degree table of f (``m <= table.m_max``).

    Entry j carries delta_{r-j}(f^m) on the component [P^{r-j}] x [P^j],
    j = 0..r, i.e. the list reads (delta_r, ..., delta_0): column m of the
    table in reverse.
    """
    r = table.r
    return [
        GraphComponent(coeff, (r - j, j), label) for j, (coeff, label) in
        enumerate(zip(table.column(m)[::-1], _graph_labels(r)))
    ]


@functools.cache
def _graph_labels(r: int) -> tuple[str, ...]:  # they do not depend on m
    return tuple(f"[P^{r - j}]x[P^{j}]" for j in range(r + 1))


# expected: closed form for power maps on P^n, else None
SegreDegree = namedtuple("SegreDegree", "value expected matches")


def segre_graph_degree(
    model: EmbeddedModel, f: PullbackMap, table: DeltaTable, m: int
) -> SegreDegree:
    """Degree of the graph class under the Segre embedding of the product.

    The component [P^a] x [P^b] has Segre degree binomial(a+b, a), so the
    total is sum_j delta_{r-j}(f^m) * binomial(r, j), read off ``table`` as
    in :func:`graph_class`.  For degree-d power maps of P^n with ample class
    h this must equal deg(X) * (1 + d^m)^n; on a ``projective_space`` model
    with a ``power:`` map it is cross-checked, with d read off f*(h) = d h:
    f^m multiplies h by d^m, so delta_j(f^m) = d^(mj) deg(X).
    """
    r, coeffs = model.r, table.column(m)[::-1]
    den = math.lcm(*(c.denominator for c in coeffs))  # one Fraction, not r + 1
    total = Fraction(sum(c.numerator * (den // c.denominator) * math.comb(r, j)
                         for j, c in enumerate(coeffs)), den)
    expected = None
    matches = None
    if model.provenance.startswith("projective_space") and (
        f.provenance or ""
    ).startswith("power:"):
        expected = model.deg_x * (1 + f.blocks[2][0][0] ** m) ** r
        matches = total == expected
    return SegreDegree(value=total, expected=expected, matches=matches)


# ---------------------------------------------------------------------------
# intersection bounds
# ---------------------------------------------------------------------------

def bound_constant(r: int, deg_x) -> Fraction:
    """The uniform intersection-bound constant (r + 2) * deg(X)^(r + 1)."""
    if r < 0:
        raise ShapeMismatch("r must be >= 0")
    n, d = as_fraction(deg_x).as_integer_ratio()
    if n < d:
        raise ShapeMismatch("deg(X) must be >= 1")
    return Fraction((r + 2) * n ** (r + 1), d ** (r + 1))  # one Fraction, not three


class MovingLedger(namedtuple("MovingLedger", "k v_degrees e_degrees bound")):
    """Worst-case degree bookkeeping for the ambient-cycle replacement steps."""

    # v_degrees: deg(V_0) .. deg(V_k), worst case
    # e_degrees: deg(E_1) .. deg(E_k)
    # bound: (sum_{j=1..k} deg(V_{j-1}) + deg(V_{k-1})) * deg(W)
    __slots__ = ()


def moving_ledger(r: int, deg_x, deg_v, deg_w, k: int) -> MovingLedger:
    """Degree ledger for k replacement steps; requires 1 <= k <= r + 1.

    Worst case takes deg(V_j) = deg(E_j) = deg(X) * deg(V_{j-1}), hence
    deg(V_j) <= deg(X)^j * deg(V) at every step.
    """
    if not (1 <= k <= r + 1):
        raise StepOutOfRange(f"k = {k} outside [1, r + 1] = [1, {r + 1}]")
    deg_x, deg_v, deg_w = as_fraction(deg_x), as_fraction(deg_v), as_fraction(deg_w)
    v_degrees = [deg_v]
    e_degrees = []
    for _ in range(k):
        e = deg_x * v_degrees[-1]
        e_degrees.append(e)
        v_degrees.append(e)
    bound = (sum(v_degrees[:k], Fraction(0)) + v_degrees[k - 1]) * deg_w
    return MovingLedger(
        k=k,
        v_degrees=tuple(v_degrees),
        e_degrees=tuple(e_degrees),
        bound=bound,
    )


IntersectionBoundCheck = namedtuple(
    "IntersectionBoundCheck", "pairing deg_v deg_w constant ok"
)


def ambient_degree(model: EmbeddedModel, v: Element, degree: int) -> Fraction:
    """deg(v) = pair(v, h^{r-c}) for v homogeneous of degree 2c, with the
    power read from ``model.h_powers``."""
    return model.algebra.pair(v, model.h_powers[model.r - degree // 2])


def check_intersection_bound(
    model: EmbeddedModel, v: Element, w: Element,
    deg_v: Fraction | None = None, deg_w: Fraction | None = None,
) -> IntersectionBoundCheck:
    """Verify |pair(v, w)| <= (r+2) deg(X)^{r+1} deg(v) deg(w).

    ``v`` and ``w`` must be homogeneous of complementary (even) degrees; the
    caller asserts effectivity, typically via the model's effective flags.
    Ambient degrees are taken against powers of h (:func:`ambient_degree`);
    a caller that checks many pairs passes ``deg_v`` and ``deg_w``, read
    once per class.
    """
    dv = v.degrees()
    dw = w.degrees()
    if len(dv) != 1 or len(dw) != 1:
        raise NonComplementaryDegrees("classes must be homogeneous and nonzero")
    if dv[0] % 2 or dw[0] % 2 or dv[0] + dw[0] != model.algebra.top_degree:
        raise NonComplementaryDegrees(
            f"degrees {dv[0]} and {dw[0]} are not complementary even degrees"
        )
    deg_v = ambient_degree(model, v, dv[0]) if deg_v is None else deg_v
    deg_w = ambient_degree(model, w, dw[0]) if deg_w is None else deg_w
    value = model.algebra.pair(v, w)
    constant = bound_constant(model.r, model.deg_x)
    return IntersectionBoundCheck(
        pairing=value,
        deg_v=deg_v,
        deg_w=deg_w,
        constant=constant,
        ok=abs(value) <= constant * deg_v * deg_w,
    )
