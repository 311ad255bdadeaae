"""Dynamical degree tables, graph-class coefficients, and intersection bounds.

A model is an algebra together with a very ample degree-2 class h, the ambient
projective dimension, and deg(X) = integrate(h^r).  The j-th dynamical degree
of the m-th iterate is the intersection number pair(h^{r-j}, f^{m*} h^j); its
growth rate in m is what the spectral comparison chain controls.

The moving-lemma machinery is represented purely as a degree/step ledger: the
geometric cone construction is out of scope, only the step count k <= r+1 and
the worst-case degree recurrences deg(V_j) <= deg(X)^j deg(V) are modelled.
Effectivity of classes is likewise a builder-supplied flag, not something the
algebra can decide.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .core import Element, GradedAlgebra
from .endo import PullbackMap, power_map
from .errors import NonComplementaryDegrees, ShapeMismatch, StepOutOfRange
from .linalg import as_fraction, mat_vec
from .spectral import default_window, limsup_root


@dataclass(frozen=True)
class EffectiveClass:
    """A homogeneous class a builder vouches is effective."""

    label: str
    element: Element


@dataclass(frozen=True)
class EmbeddedModel:
    """Algebra + ample class + ambient dimension + degree, with provenance."""

    algebra: GradedAlgebra
    h: Element
    ambient_dim: int
    deg_x: Fraction
    realizability: str = "unverified"
    provenance: str = "custom"
    effective: tuple[EffectiveClass, ...] = ()
    scope_note: str | None = None

    @property
    def r(self) -> int:
        return self.algebra.top_degree // 2

    @functools.cached_property
    def h_powers(self) -> tuple[Element, ...]:
        """``(1, h, h^2, ..., h^r)``, computed once per model."""
        powers = [self.algebra.one()]
        for _ in range(self.r):
            powers.append(self.algebra.mul(powers[-1], self.h))
        return tuple(powers)

    def validate(self) -> "EmbeddedModel":
        if self.h.degrees() != (2,):
            raise ShapeMismatch("h must be homogeneous of degree 2 and nonzero")
        if self.h_powers[self.r].is_zero():
            raise ShapeMismatch("h^r vanishes: h is not a valid ample class")
        if self.deg_x <= 0:
            raise ShapeMismatch(f"deg(X) = {self.deg_x} must be positive")
        return self


def embedded_model(
    algebra: GradedAlgebra,
    h: Element,
    ambient_dim: int,
    realizability: str = "unverified",
    provenance: str = "custom",
    effective: tuple[EffectiveClass, ...] = (),
    scope_note: str | None = None,
) -> EmbeddedModel:
    """Build a model with deg(X) computed as integrate(h^r)."""
    r = algebra.top_degree // 2
    deg_x = algebra.integrate(algebra.power(h, r))
    return EmbeddedModel(
        algebra=algebra,
        h=h,
        ambient_dim=ambient_dim,
        deg_x=deg_x,
        realizability=realizability,
        provenance=provenance,
        effective=effective,
        scope_note=scope_note,
    ).validate()


# ---------------------------------------------------------------------------
# dynamical degrees
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DeltaTable:
    """Grid of dynamical degrees: rows indexed by j in [0, r], m in [1, m_max].

    ``deg_x`` is the shared identity-map baseline: pair(h^{r-j}, h^j) equals
    integrate(h^r) = deg(X) for every j.
    """

    r: int
    m_max: int
    rows: tuple[tuple[Fraction, ...], ...]
    deg_x: Fraction

    def value(self, j: int, m: int) -> Fraction:
        return self.rows[j][m - 1]

    def column(self, m: int) -> tuple[Fraction, ...]:
        """(delta_0(f^m), ..., delta_r(f^m)): the m-th iterate across all j."""
        if not (1 <= m <= self.m_max):
            raise ShapeMismatch(f"m must be in [1, {self.m_max}]")
        return tuple(row[m - 1] for row in self.rows)


def delta(model: EmbeddedModel, f: PullbackMap, m: int, j: int) -> Fraction:
    """The intersection number pair(h^{r-j}, f^{m*}(h^j)).

    Computed from power_map(f, m) by repeated squaring, independently of
    :func:`delta_table`, so it serves as the reference the table is tested
    against.
    """
    if not (0 <= j <= model.r):
        raise ShapeMismatch(f"j must be in [0, {model.r}]")
    if m < 1:
        raise ShapeMismatch("m must be >= 1")
    alg = model.algebra
    hj = alg.power(model.h, j)
    return alg.pair(alg.power(model.h, model.r - j), power_map(f, m).apply(hj))


def delta_table(model: EmbeddedModel, f: PullbackMap, m_max: int) -> DeltaTable:
    if m_max < 1:
        raise ShapeMismatch("m_max must be >= 1")
    alg = model.algebra
    rows = []
    for j in range(model.r + 1):
        hj = model.h_powers[j]
        comp = model.h_powers[model.r - j]
        block = f.block(2 * j)
        vec = hj.component(2 * j)
        row = []
        for _ in range(m_max):
            vec = mat_vec(block, vec) if block else ()
            image = alg.homogeneous(2 * j, vec)
            row.append(alg.pair(comp, image))
        rows.append(tuple(row))
    return DeltaTable(r=model.r, m_max=m_max, rows=tuple(rows), deg_x=model.deg_x)


@dataclass(frozen=True)
class GrowthRates:
    rates: tuple[float, ...]
    max_rate: float
    window: int


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
    rates = tuple(
        limsup_root([x / table.deg_x for x in row], window) for row in table.rows
    )
    return GrowthRates(rates=rates, max_rate=max(rates), window=window)


# ---------------------------------------------------------------------------
# graph class and Segre degree
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GraphComponent:
    coefficient: Fraction
    factor_dims: tuple[int, int]  # (a, b) for the component [P^a] x [P^b]
    label: str


def _graph_coefficients(
    model: EmbeddedModel, f: PullbackMap, m: int, table: DeltaTable | None
) -> tuple[Fraction, ...]:
    """(delta_r(f^m), ..., delta_0(f^m)), read off ``table`` (built if None)."""
    if table is None:
        table = delta_table(model, f, m)
    return table.column(m)[::-1]


def graph_class(
    model: EmbeddedModel, f: PullbackMap, m: int, table: DeltaTable | None = None
) -> list[GraphComponent]:
    """Coefficients of the graph of f^m on the product of ambient spaces.

    Entry j carries delta_{r-j}(f^m) on the component [P^{r-j}] x [P^j],
    j = 0..r, i.e. the list reads (delta_r, ..., delta_0): column m of the
    dynamical-degree table in reverse.  Pass the table of f when one with
    m_max >= m is at hand; otherwise one is built up to m.
    """
    r = model.r
    return [
        GraphComponent(
            coefficient=coeff,
            factor_dims=(r - j, j),
            label=f"[P^{r - j}]x[P^{j}]",
        )
        for j, coeff in enumerate(_graph_coefficients(model, f, m, table))
    ]


@dataclass(frozen=True)
class SegreDegree:
    value: Fraction
    expected: Fraction | None  # closed form for power maps on P^n, else None
    matches: bool | None


def segre_graph_degree(
    model: EmbeddedModel, f: PullbackMap, m: int, table: DeltaTable | None = None
) -> SegreDegree:
    """Degree of the graph class under the Segre embedding of the product.

    The component [P^a] x [P^b] has Segre degree binomial(a+b, a), so the
    total is sum_j delta_{r-j}(f^m) * binomial(r, j).  For degree-d power maps
    of P^n this must equal (1 + d^m)^n, which is cross-checked when the
    builder provenance identifies such a map.  ``table`` is as for
    :func:`graph_class`.
    """
    r = model.r
    total = Fraction(0)
    for j, coeff in enumerate(_graph_coefficients(model, f, m, table)):
        total += coeff * math.comb(r, j)
    expected = None
    matches = None
    if model.provenance.startswith("projective_space") and (
        f.provenance or ""
    ).startswith("power:"):
        d = int(f.provenance.split(":", 1)[1])
        expected = Fraction((1 + d**m) ** model.ambient_dim)
        matches = total == expected
    return SegreDegree(value=total, expected=expected, matches=matches)


# ---------------------------------------------------------------------------
# intersection bounds
# ---------------------------------------------------------------------------

def bound_constant(r: int, deg_x) -> Fraction:
    """The uniform intersection-bound constant (r + 2) * deg(X)^(r + 1)."""
    if r < 0:
        raise ShapeMismatch("r must be >= 0")
    deg_x = as_fraction(deg_x)
    if deg_x < 1:
        raise ShapeMismatch("deg(X) must be >= 1")
    return (r + 2) * deg_x ** (r + 1)


@dataclass(frozen=True)
class MovingLedger:
    """Worst-case degree bookkeeping for the ambient-cycle replacement steps."""

    k: int
    v_degrees: tuple[Fraction, ...]  # deg(V_0) .. deg(V_k), worst case
    e_degrees: tuple[Fraction, ...]  # deg(E_1) .. deg(E_k)
    bound: Fraction  # (sum_{j=1..k} deg(V_{j-1}) + deg(V_{k-1})) * deg(W)


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


@dataclass(frozen=True)
class IntersectionBoundCheck:
    pairing: Fraction
    deg_v: Fraction
    deg_w: Fraction
    constant: Fraction
    ok: bool


def check_intersection_bound(
    model: EmbeddedModel, v: Element, w: Element
) -> IntersectionBoundCheck:
    """Verify |pair(v, w)| <= (r+2) deg(X)^{r+1} deg(v) deg(w).

    ``v`` and ``w`` must be homogeneous of complementary (even) degrees; the
    caller asserts effectivity, typically via the model's effective flags.
    Ambient degrees are taken against powers of h: deg(v) = pair(v, h^{r-c})
    for v of codimension c, with the powers read from ``model.h_powers``.
    """
    dv = v.degrees()
    dw = w.degrees()
    if len(dv) != 1 or len(dw) != 1:
        raise NonComplementaryDegrees("classes must be homogeneous and nonzero")
    if dv[0] % 2 or dw[0] % 2 or dv[0] + dw[0] != model.algebra.top_degree:
        raise NonComplementaryDegrees(
            f"degrees {dv[0]} and {dw[0]} are not complementary even degrees"
        )
    alg = model.algebra
    r = model.r
    deg_v = alg.pair(v, model.h_powers[r - dv[0] // 2])
    deg_w = alg.pair(w, model.h_powers[r - dw[0] // 2])
    value = alg.pair(v, w)
    constant = bound_constant(r, model.deg_x)
    return IntersectionBoundCheck(
        pairing=value,
        deg_v=deg_v,
        deg_w=deg_w,
        constant=constant,
        ok=abs(value) <= constant * deg_v * deg_w,
    )
