"""Finite-dimensional graded algebras over exact rationals.

The container holds one graded (super-)commutative algebra with a distinguished
unit and an integration functional on the top graded piece.  The grading is
cohomological, 0..2r: codimension-j algebraic classes sit in degree 2j, which
lets the same container model Chow-type rings (even degrees only) and full
cohomology rings of abelian varieties (odd generators) side by side.

All scalars are ``fractions.Fraction``.  Instances are immutable after
construction and all operations are pure, so values can be shared freely
across worker threads.  One integer copy of the structure constants
(:class:`ScaledTable`) serves the kernels that run in ``int``: the unit,
sign and associativity checks here, the multiplicativity check of a pullback
and the products of the Gromov closure.  The pullback blocks, Berkowitz's
characteristic polynomial, ``det`` and ``Echelon`` run in ``int`` too;
``Element`` and ``GradedAlgebra.mul`` stay in ``Fraction``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import (
    AssociativityViolation,
    ShapeMismatch,
    SignRuleViolation,
    UnitViolation,
)
from .linalg import as_fraction, det, zero_vector

COMMUTATIVE = "commutative"
SUPER_COMMUTATIVE = "super_commutative"

BasisIndex = tuple[int, int]  # (degree, index within the graded piece)


@dataclass(frozen=True)
class Element:
    """A (possibly inhomogeneous) algebra element.

    ``coords[i]`` is the coordinate vector of the degree-i component; lengths
    match the algebra's dimension vector.
    """

    coords: tuple[tuple[Fraction, ...], ...]

    def component(self, degree: int) -> tuple[Fraction, ...]:
        return self.coords[degree]

    def is_zero(self) -> bool:
        return all(x == 0 for piece in self.coords for x in piece)

    def degrees(self) -> tuple[int, ...]:
        """Degrees with a nonzero component."""
        return tuple(
            i for i, piece in enumerate(self.coords) if any(x != 0 for x in piece)
        )

    def is_homogeneous(self) -> bool:
        return len(self.degrees()) <= 1

    def degree(self) -> int | None:
        """The degree of a homogeneous element (None for zero)."""
        degs = self.degrees()
        if len(degs) > 1:
            raise ShapeMismatch("element is not homogeneous")
        return degs[0] if degs else None

    def flatten(self) -> tuple[Fraction, ...]:
        return tuple(x for piece in self.coords for x in piece)

    def __add__(self, other: "Element") -> "Element":
        if len(self.coords) != len(other.coords):
            raise ShapeMismatch("elements live in different gradings")
        return Element(
            tuple(
                tuple(x + y for x, y in zip(a, b))
                for a, b in zip(self.coords, other.coords)
            )
        )

    def __sub__(self, other: "Element") -> "Element":
        return self + (-1) * other

    def __rmul__(self, scalar) -> "Element":
        c = as_fraction(scalar)
        return Element(
            tuple(tuple(c * x for x in piece) for piece in self.coords)
        )

    def __neg__(self) -> "Element":
        return (-1) * self


@dataclass(frozen=True)
class ScaledTable:
    """The structure constants as integers over one common denominator.

    ``rows[(i, j)][p]`` maps q to the nonzero entries ``((k, D * c_k), ...)``
    of e_(i,p) * e_(j,q), in increasing k, where D is ``denominator``; an
    absent q (or an absent block) is a zero product.  Comparing scaled
    vectors is exactly comparing the rational ones.
    """

    denominator: int
    rows: dict[tuple[int, int], list[dict[int, tuple[tuple[int, int], ...]]]]

    def product(self, a: BasisIndex, b: BasisIndex) -> tuple[tuple[int, int], ...]:
        """Nonzero scaled entries of e_a * e_b."""
        block = self.rows.get((a[0], b[0]))
        return block[a[1]].get(b[1], ()) if block else ()

    def multiply(self, i: int, va, j: int, vb) -> dict[int, int]:
        """Scaled product of sparse ``((index, value), ...)`` vectors of
        degrees i and j, as its nonzero entries ``{k: value}``."""
        block = self.rows.get((i, j))
        acc: dict[int, int] = {}
        if block:
            for p, x in va:
                row = block[p]
                for q, y in vb:
                    vec = row.get(q)
                    if vec:
                        c = x * y
                        for k, v in vec:
                            acc[k] = acc.get(k, 0) + c * v
        return {k: v for k, v in acc.items() if v}


class GradedAlgebra:
    """Graded algebra with explicit structure constants.

    Use :func:`build_algebra` to construct a validated instance; the raw
    constructor trusts its inputs.
    """

    def __init__(self, top_degree, dims, sign_rule, blocks, unit_coords,
                 integrate_coords):
        self.top_degree = top_degree
        self.dims = tuple(dims)
        self.sign_rule = sign_rule
        self._blocks = blocks  # {(i, j): {(p, q): product coordinates}}
        self.unit_coords = tuple(unit_coords)
        self.integrate_coords = tuple(integrate_coords)
        self.dimension = sum(self.dims)

    # -- element constructors -------------------------------------------------

    def zero(self) -> Element:
        return Element(tuple(zero_vector(d) for d in self.dims))

    def one(self) -> Element:
        coords = [list(zero_vector(d)) for d in self.dims]
        coords[0] = list(self.unit_coords)
        return Element(tuple(tuple(p) for p in coords))

    def basis_element(self, degree: int, index: int) -> Element:
        if not (0 <= degree <= self.top_degree) or not (
            0 <= index < self.dims[degree]
        ):
            raise ShapeMismatch(f"no basis vector at ({degree}, {index})")
        coords = [list(zero_vector(d)) for d in self.dims]
        coords[degree][index] = Fraction(1)
        return Element(tuple(tuple(p) for p in coords))

    def element(self, entries: Mapping[BasisIndex, object]) -> Element:
        coords = [list(zero_vector(d)) for d in self.dims]
        for (degree, index), value in entries.items():
            if not (0 <= degree <= self.top_degree) or not (
                0 <= index < self.dims[degree]
            ):
                raise ShapeMismatch(f"no basis vector at ({degree}, {index})")
            coords[degree][index] += as_fraction(value)
        return Element(tuple(tuple(p) for p in coords))

    def homogeneous(self, degree: int, vector: Sequence) -> Element:
        if not 0 <= degree <= self.top_degree:
            raise ShapeMismatch(f"no graded piece of degree {degree}")
        vec = tuple(as_fraction(x) for x in vector)
        if len(vec) != self.dims[degree]:
            raise ShapeMismatch(
                f"degree {degree} has dimension {self.dims[degree]},"
                f" got {len(vec)} coordinates"
            )
        coords = [zero_vector(d) for d in self.dims]
        coords[degree] = vec
        return Element(tuple(coords))

    @functools.cached_property
    def scaled_table(self) -> ScaledTable:
        """The integer structure table of the validators and the Gromov
        closure (built once)."""
        den = math.lcm(*(
            c.denominator
            for block in self._blocks.values()
            for vec in block.values()
            for c in vec
        ))
        rows = {}
        for (i, j), block in self._blocks.items():
            block_rows = [{} for _ in range(self.dims[i])]
            for (p, q), vec in block.items():
                scaled = tuple(
                    (k, c.numerator * (den // c.denominator))
                    for k, c in enumerate(vec)
                    if c
                )
                if scaled:
                    block_rows[p][q] = scaled
            rows[(i, j)] = block_rows
        return ScaledTable(den, rows)

    def basis(self) -> Iterable[BasisIndex]:
        for i, d in enumerate(self.dims):
            for p in range(d):
                yield (i, p)

    def _check_element(self, a: Element):
        if len(a.coords) != self.top_degree + 1 or any(
            len(piece) != d for piece, d in zip(a.coords, self.dims)
        ):
            raise ShapeMismatch("element coordinates do not match the grading")

    # -- products --------------------------------------------------------------

    def basis_product(self, a: BasisIndex, b: BasisIndex) -> tuple[Fraction, ...]:
        """Coordinates of e_a * e_b in degree |a|+|b| (empty beyond top)."""
        (i, p), (j, q) = a, b
        if i + j > self.top_degree:
            return ()
        vec = self._blocks.get((i, j), {}).get((p, q))
        return vec if vec is not None else zero_vector(self.dims[i + j])

    def mul_vectors(
        self, i: int, va: Sequence[Fraction], j: int, vb: Sequence[Fraction]
    ) -> tuple[Fraction, ...]:
        """Product of homogeneous coordinate vectors; lands in degree i + j."""
        if i + j > self.top_degree:
            return ()
        out = [Fraction(0)] * self.dims[i + j]
        block = self._blocks.get((i, j))
        if block is not None:
            for p, ca in enumerate(va):
                if ca == 0:
                    continue
                for q, cb in enumerate(vb):
                    if cb == 0:
                        continue
                    vec = block.get((p, q))
                    if vec:
                        c = ca * cb
                        for k, v in enumerate(vec):
                            if v != 0:
                                out[k] += c * v
        return tuple(out)

    def mul(self, a: Element, b: Element) -> Element:
        """Bilinear, graded, sign-correct product."""
        self._check_element(a)
        self._check_element(b)
        out = [list(zero_vector(d)) for d in self.dims]
        for i, pa in enumerate(a.coords):
            if not any(pa):
                continue
            for j, pb in enumerate(b.coords):
                if i + j > self.top_degree or not any(pb):
                    continue
                piece = self.mul_vectors(i, pa, j, pb)
                target = out[i + j]
                for k, v in enumerate(piece):
                    if v != 0:
                        target[k] += v
        return Element(tuple(tuple(piece) for piece in out))

    def power(self, a: Element, k: int) -> Element:
        """k-th power by repeated multiplication; ``a**0`` is the unit."""
        if k < 0:
            raise ShapeMismatch("negative powers are not defined")
        result = self.one()
        for _ in range(k):
            result = self.mul(result, a)
        return result

    def integrate(self, a: Element) -> Fraction:
        """Pushforward to a point: the integration functional on the top piece.

        Components below the top degree integrate to 0 by convention, keeping
        the functional total on inhomogeneous elements.
        """
        self._check_element(a)
        top = a.coords[self.top_degree]
        return sum(
            (c * w for c, w in zip(top, self.integrate_coords)), Fraction(0)
        )

    def pair(self, a: Element, b: Element) -> Fraction:
        """Intersection pairing: integrate the top-degree part of ``a * b``."""
        return self.integrate(self.mul(a, b))

    # -- diagnostics -------------------------------------------------------------

    def gram_matrix(self, degree: int) -> tuple[tuple[Fraction, ...], ...]:
        """Pairing matrix of degree-``degree`` basis against complementary basis."""
        comp = self.top_degree - degree
        return tuple(
            tuple(
                self.pair(self.basis_element(degree, p), self.basis_element(comp, q))
                for q in range(self.dims[comp])
            )
            for p in range(self.dims[degree])
        )

    def poincare_report(self) -> list["PairingReport"]:
        """Per-degree nondegeneracy of the intersection pairing.

        Nondegenerate means the Gram matrix against the complementary degree is
        square with nonzero determinant; a dimension mismatch is reported as
        degenerate with ``determinant=None``.
        """
        out = []
        for i in range(self.top_degree + 1):
            comp = self.top_degree - i
            if self.dims[i] != self.dims[comp]:
                out.append(PairingReport(i, False, None))
                continue
            if self.dims[i] == 0:
                out.append(PairingReport(i, True, Fraction(1)))
                continue
            d = det(self.gram_matrix(i))
            out.append(PairingReport(i, d != 0, d))
        return out


@dataclass(frozen=True)
class PairingReport:
    degree: int
    nondegenerate: bool
    determinant: Fraction | None


def _koszul_sign(sign_rule: str, i: int, j: int) -> int:
    if sign_rule == SUPER_COMMUTATIVE and (i * j) % 2 == 1:
        return -1
    return 1


def _normalize_table(top_degree, dims, structure_constants):
    """Expand user structure constants into complete per-degree-pair blocks.

    Accepted key shapes: ``((i, p), (j, q))`` or ``(i, p, j, q)``.  Values are
    either sparse mappings ``{index: scalar}`` or full coordinate sequences of
    length ``dims[i + j]``.
    """
    table: dict[tuple[int, int], dict] = {}
    for key, value in structure_constants.items():
        if len(key) == 2:
            (i, p), (j, q) = key
        elif len(key) == 4:
            i, p, j, q = key
        else:
            raise ShapeMismatch(f"bad structure constant key {key!r}")
        if not (0 <= i <= top_degree and 0 <= j <= top_degree):
            raise ShapeMismatch(f"structure constant degree out of range: {key!r}")
        if not (0 <= p < dims[i] and 0 <= q < dims[j]):
            raise ShapeMismatch(f"structure constant index out of range: {key!r}")
        if i + j > top_degree:
            raise ShapeMismatch(
                f"product of degrees {i} and {j} exceeds top degree {top_degree}"
                " (truncated products must be omitted)"
            )
        target = dims[i + j]
        if isinstance(value, Mapping):
            vec = list(zero_vector(target))
            for k, c in value.items():
                if not (0 <= k < target):
                    raise ShapeMismatch(
                        f"product coordinate {k} out of range for degree {i + j}"
                    )
                vec[k] = as_fraction(c)
            vec = tuple(vec)
        else:
            vec = tuple(as_fraction(c) for c in value)
            if len(vec) != target:
                raise ShapeMismatch(
                    f"product vector for {key!r} has length {len(vec)},"
                    f" expected {target}"
                )
        table.setdefault((i, j), {})[(p, q)] = vec
    return table


def build_algebra(
    top_degree: int,
    dims: Sequence[int],
    sign_rule: str,
    structure_constants: Mapping,
    integrate: Sequence,
    unit: Sequence = (1,),
) -> GradedAlgebra:
    """Construct and fully validate a graded algebra.

    Products not present in ``structure_constants`` default to zero, except
    products with a degree-0 factor, which are forced by the unit (degree 0 is
    one-dimensional).  A missing symmetric counterpart is filled in from the
    declared sign rule; when both orders are supplied they must agree with it.

    Validation runs shape checks, the unit law, graded commutativity, and
    associativity on every basis triple, raising the matching violation with
    the offending basis vectors named.
    """
    if top_degree < 0:
        raise ShapeMismatch("top_degree must be nonnegative")
    dims = tuple(int(d) for d in dims)
    if len(dims) != top_degree + 1:
        raise ShapeMismatch(
            f"dims has length {len(dims)}, expected top_degree + 1 = {top_degree + 1}"
        )
    if any(d < 0 for d in dims):
        raise ShapeMismatch("graded piece dimensions must be nonnegative")
    if dims[0] != 1:
        raise ShapeMismatch("degree 0 must be one-dimensional (spanned by the unit)")
    unit_coords = tuple(as_fraction(c) for c in unit)
    if len(unit_coords) != 1:
        raise ShapeMismatch("unit coordinates must have length dims[0] = 1")
    if unit_coords[0] == 0:
        raise UnitViolation(message="unit has zero coordinates")
    integrate_coords = tuple(as_fraction(c) for c in integrate)
    if len(integrate_coords) != dims[top_degree]:
        raise ShapeMismatch(
            f"integrate functional has length {len(integrate_coords)},"
            f" expected dims[top] = {dims[top_degree]}"
        )

    table = _normalize_table(top_degree, dims, structure_constants)

    # unit-forced products: e_0 acts as 1/unit_coords[0]
    inv_u = 1 / unit_coords[0]
    for j in range(top_degree + 1):
        for q in range(dims[j]):
            vec = list(zero_vector(dims[j]))
            vec[q] = inv_u
            vec = tuple(vec)
            table.setdefault((0, j), {}).setdefault((0, q), vec)
            table.setdefault((j, 0), {}).setdefault((q, 0), vec)

    # symmetric fill from the sign rule
    for (i, j) in list(table):
        for (p, q), vec in table[(i, j)].items():
            sign = _koszul_sign(sign_rule, i, j)
            mirrored = tuple(sign * x for x in vec)
            table.setdefault((j, i), {}).setdefault((q, p), mirrored)

    algebra = GradedAlgebra(
        top_degree, dims, sign_rule, table, unit_coords, integrate_coords
    )
    _validate(algebra)
    return algebra


def _validate(algebra: GradedAlgebra):
    """Unit law, sign rule and associativity, compared on the scaled table.

    Every check compares integer vectors that are the rational ones times a
    fixed positive factor (D, or D^2 for associativity), so it holds exactly
    when the rational check does; the loops run in the same order, so a
    violation names the same basis vector, pair or triple.
    """
    table = algebra.scaled_table
    den = table.denominator
    product = table.product
    basis = list(algebra.basis())

    # 1 = u e_(0,0), so 1 * e_b = e_b reads u * (D e_(0,0) e_b) = D e_b
    u = algebra.unit_coords[0]
    for b in basis:
        expected = ((b[1], u.denominator * den),)
        for vec in (product((0, 0), b), product(b, (0, 0))):
            if tuple((k, u.numerator * v) for k, v in vec) != expected:
                raise UnitViolation(b)

    if algebra.sign_rule not in (COMMUTATIVE, SUPER_COMMUTATIVE):
        raise ShapeMismatch(f"unknown sign rule {algebra.sign_rule!r}")

    # pairs and triples with a degree-0 member are forced by the unit law
    # (degree 0 is spanned by the unit) plus bilinearity, so only degrees >= 1
    # need explicit checks
    positive = [b for b in basis if b[0] >= 1]
    top = algebra.top_degree

    for a in positive:
        for b in positive:
            i, j = a[0], b[0]
            if i + j > top:
                continue
            ba = product(b, a)
            if _koszul_sign(algebra.sign_rule, i, j) == -1:
                ba = tuple((k, -v) for k, v in ba)
            if product(a, b) != ba:
                raise SignRuleViolation((a, b))

    # (e_a e_b) e_c against e_a (e_b e_c), both scaled by D^2
    for a in positive:
        for b in positive:
            dab = a[0] + b[0]
            if dab >= top:
                continue
            ab = product(a, b)
            for c in positive:
                if dab + c[0] > top:
                    continue
                bc = product(b, c)
                if not ab and not bc:
                    continue
                left = table.multiply(dab, ab, c[0], ((c[1], 1),))
                right = table.multiply(a[0], ((a[1], 1),), b[0] + c[0], bc)
                if left != right:
                    raise AssociativityViolation((a, b, c))
