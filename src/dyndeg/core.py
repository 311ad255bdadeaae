"""Finite-dimensional graded algebras over exact rationals.

The container holds one graded (super-)commutative algebra with a distinguished
unit and an integration functional on the top graded piece.  The grading is
cohomological, 0..2r: codimension-j algebraic classes sit in degree 2j, which
lets the same container model Chow-type rings (even degrees only) and full
cohomology rings of abelian varieties (odd generators) side by side.

Scalars at the interface are ``fractions.Fraction``; inside, everything is
integers over one denominator.  :func:`build_algebra` reads the structure
constants once, straight into the integer table (:class:`ScaledTable`); every
product goes through its one kernel, ``ScaledTable.multiply``: the
associativity check and the choice of generators here, ``GradedAlgebra.mul``,
the multiplicativity check of a pullback and the products of the Gromov
closure.  ``GradedAlgebra.pair`` is no product: it reads one integer pairing
form, built once per algebra from the table blocks of complementary degrees.
Associativity and multiplicativity are checked on a generating set only
(Light's test, see ``_validate``).  An :class:`Element` is sparse integer
numerators over one denominator too, so its sums, scalar multiples, products
and pullbacks do no ``Fraction`` arithmetic.  ``GradedAlgebra.element``, and
``one``, ``basis_element`` and ``homogeneous`` through it, builds that form
sparse from the given entries; ``Element.coords`` is the ``Fraction`` view.
The pullback blocks, Berkowitz's characteristic polynomial and ``Echelon``
run in ``int`` as well.  :func:`tensor_product` orders every product basis.
Instances are immutable after construction and all operations are pure.  The
tests replay the Gromov certificates with a Fraction basis-pair product,
which checks that kernel independently.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from collections.abc import Mapping
from fractions import Fraction
from typing import Iterable, Sequence

from . import COMMUTATIVE, SUPER_COMMUTATIVE
from .errors import (
    AssociativityViolation,
    ShapeMismatch,
    SignRuleViolation,
    UnitViolation,
)
from .linalg import Echelon, as_fraction, scaled_matrix

BasisIndex = tuple[int, int]  # (degree, index within the graded piece)


class Element:
    """A (possibly inhomogeneous) algebra element.

    ``pieces[i]`` holds the nonzero numerators ``((index, numerator), ...)``
    of the degree-i component in increasing index, all over the one positive
    ``denominator``; ``dims[i]`` is the dimension of that piece.  Elements
    are kept in lowest terms (zero has denominator 1), so ``==`` and ``hash``
    are exactly rational equality.  Not a tuple: ``e * 2`` must not repeat it.
    """

    __slots__ = ("dims", "denominator", "pieces")

    def __init__(self, dims: tuple[int, ...], denominator: int,
                 pieces: tuple[tuple[tuple[int, int], ...], ...]):
        self.dims = dims
        self.denominator = denominator
        self.pieces = pieces

    def _key(self):
        return self.dims, self.denominator, self.pieces

    def __eq__(self, other):
        if other.__class__ is not Element:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return "Element(dims=%r, denominator=%r, pieces=%r)" % self._key()

    @classmethod
    def scaled(cls, dims, den: int, pieces) -> "Element":
        """The element with numerators ``pieces[i]`` (``{index: value}``,
        zeros allowed) over the positive ``den``, in lowest terms."""
        g = math.gcd(den, *(v for piece in pieces for v in piece.values()))
        return cls(tuple(dims), den // g, tuple(
            tuple(sorted((k, v // g) for k, v in piece.items() if v))
            if piece else () for piece in pieces
        ))

    @property
    def coords(self) -> tuple[tuple[Fraction, ...], ...]:
        """``coords[i]``: the degree-i component as a ``Fraction`` vector."""
        return tuple(
            tuple(Fraction(piece.get(k, 0), self.denominator) for k in range(d))
            for d, piece in zip(self.dims, map(dict, self.pieces))
        )

    def is_zero(self) -> bool:
        return not any(self.pieces)

    def degrees(self) -> tuple[int, ...]:
        """Degrees with a nonzero component."""
        return tuple(i for i, piece in enumerate(self.pieces) if piece)

    def degree(self) -> int | None:
        """The degree of a homogeneous element (None for zero)."""
        degs = self.degrees()
        if len(degs) > 1:
            raise ShapeMismatch("element is not homogeneous")
        return degs[0] if degs else None

    def __add__(self, other: "Element") -> "Element":
        if self.dims != other.dims:
            raise ShapeMismatch("elements live in different gradings")
        da, db = self.denominator, other.denominator
        den = math.lcm(da, db)
        fa, fb = den // da, den // db
        out = []
        for pa, pb in zip(self.pieces, other.pieces):
            acc = {k: fa * v for k, v in pa}
            for k, v in pb:
                acc[k] = acc.get(k, 0) + fb * v
            out.append(acc)
        return Element.scaled(self.dims, den, out)

    def __sub__(self, other: "Element") -> "Element":
        return self + (-1) * other

    def __rmul__(self, scalar) -> "Element":
        c = as_fraction(scalar)
        return Element.scaled(self.dims, self.denominator * c.denominator, [
            {k: c.numerator * v for k, v in piece} for piece in self.pieces
        ])

    def __neg__(self) -> "Element":
        return (-1) * self


class ScaledTable(namedtuple("ScaledTable", "denominator rows")):
    """The structure constants as integers over one common denominator.

    ``rows[(i, j)][p]`` maps q to the nonzero entries ``((k, D * c_k), ...)``
    of e_(i,p) * e_(j,q), in increasing k, where D is ``denominator``; an
    absent q (or an absent block) is a zero product.  Comparing scaled
    vectors is exactly comparing the rational ones.  :func:`build_algebra`
    writes it once, from the user's constants, the unit and the sign rule.
    """

    __slots__ = ()

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

    # True on ``abelian.exterior_algebra(g)``, generated by its degree-1
    # piece: a ring map of it is wedge^k of its degree-1 block in degree k
    exterior = False

    def __init__(self, top_degree, dims, sign_rule, scaled_table, unit_coords,
                 integrate_coords):
        self.top_degree = top_degree
        self.dims = tuple(dims)
        self.sign_rule = sign_rule
        self.scaled_table = scaled_table
        self.unit_coords = tuple(unit_coords)
        self.integrate_coords = tuple(integrate_coords)
        self.dimension = sum(self.dims)
        self._integrate_scaled = scaled_matrix([self.integrate_coords])
        # ``words[d][p]``: the factors' basis vectors whose tensor is e_(d,p),
        # one factor unless :func:`tensor_product` built the algebra
        self.words = tuple(tuple(((d, p),) for p in range(n))
                           for d, n in enumerate(self.dims))

    # -- element constructors -------------------------------------------------

    def zero(self) -> Element:
        return Element(self.dims, 1, ((),) * len(self.dims))

    def one(self) -> Element:
        return self.homogeneous(0, self.unit_coords)

    def basis_element(self, degree: int, index: int) -> Element:
        return self.element({(degree, index): 1})

    def element(self, entries: Mapping[BasisIndex, object]) -> Element:
        """The element with coordinate ``value`` at each ``(degree, index)``
        of ``entries`` and 0 elsewhere, built sparse: the numerators over the
        lcm of the values' denominators."""
        values = {}
        for (degree, index), value in entries.items():
            if not (0 <= degree <= self.top_degree) or not (
                0 <= index < self.dims[degree]
            ):
                raise ShapeMismatch(f"no basis vector at ({degree}, {index})")
            values[degree, index] = as_fraction(value)
        den = math.lcm(*(c.denominator for c in values.values()))
        pieces: list[dict[int, int]] = [{} for _ in self.dims]
        for (degree, index), c in values.items():
            pieces[degree][index] = c.numerator * (den // c.denominator)
        return Element.scaled(self.dims, den, pieces)

    def homogeneous(self, degree: int, vector: Sequence) -> Element:
        if not 0 <= degree <= self.top_degree:
            raise ShapeMismatch(f"no graded piece of degree {degree}")
        if len(vector) != self.dims[degree]:
            raise ShapeMismatch(
                f"degree {degree} has dimension {self.dims[degree]},"
                f" got {len(vector)} coordinates"
            )
        return self.element({(degree, k): x for k, x in enumerate(vector)})

    def basis(self) -> Iterable[BasisIndex]:
        for i, d in enumerate(self.dims):
            for p in range(d):
                yield (i, p)

    @functools.cached_property
    def generators(self) -> tuple[BasisIndex, ...]:
        """A set S of positive-degree basis vectors that generates the
        algebra, chosen greedily degree by degree: e_(d,q) joins S when it
        lies outside the span of the products s e_y, for s in the S chosen
        so far and basis vectors e_y of degree d - deg s (one ``Echelon``
        per degree).  The lower pieces are whole by then, so S and these
        products span degree d."""
        table = self.scaled_table
        chosen: list[BasisIndex] = []
        for d in range(1, self.top_degree + 1):
            echelon = Echelon(self.dims[d])
            for s in chosen:
                for y in range(self.dims[d - s[0]]):
                    echelon.insert_scaled(dict(table.product(s, (d - s[0], y))), {})
            for q in range(self.dims[d]):
                if echelon.insert_scaled({q: 1}, {}):
                    chosen.append((d, q))
        return tuple(chosen)

    def _check_element(self, a: Element):
        if a.dims != self.dims:
            raise ShapeMismatch("element coordinates do not match the grading")

    # -- products --------------------------------------------------------------

    def mul(self, a: Element, b: Element) -> Element:
        """Bilinear, graded, sign-correct product on the scaled table: pieces
        over da and db multiply to integers over da * db * D."""
        self._check_element(a)
        self._check_element(b)
        table = self.scaled_table
        out: list[dict[int, int]] = [{} for _ in self.dims]
        b_pieces = [(j, vb) for j, vb in enumerate(b.pieces) if vb]
        for i, va in enumerate(a.pieces):
            if not va:
                continue
            for j, vb in b_pieces:
                if i + j <= self.top_degree:
                    acc = out[i + j]
                    for k, v in table.multiply(i, va, j, vb).items():
                        acc[k] = acc.get(k, 0) + v
        return Element.scaled(
            self.dims, a.denominator * b.denominator * table.denominator, out
        )

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
        den, (weights,) = self._integrate_scaled
        top = a.pieces[self.top_degree]
        return Fraction(sum(x * weights[k] for k, x in top), a.denominator * den)

    @functools.cached_property
    def pairing_form(self) -> tuple[int, list[list[dict[int, int]]]]:
        """``(E, forms)``: ``forms[i][p]`` maps q to the nonzero integer
        E * integrate(e_(i,p) e_(top-i,q)), read off the table block
        (i, top - i), absent when all zero, and the scaled integrate weights
        once per algebra."""
        den, (weights,) = self._integrate_scaled
        top, rows = self.top_degree, self.scaled_table.rows
        return self.scaled_table.denominator * den, [
            [{q: s for q, vec in row.items()
              if (s := sum(v * weights[k] for k, v in vec))}
             for row in rows.get((i, top - i)) or [{}] * self.dims[i]]
            for i in range(top + 1)
        ]

    def pair(self, a: Element, b: Element) -> Fraction:
        """Intersection pairing, the integral of the top-degree part of
        ``a * b``: sum_i a_i^T F_i b_(top-i) on ``pairing_form``, with no
        product built."""
        self._check_element(a)
        self._check_element(b)
        den, forms = self.pairing_form
        total = sum(x * sum(forms[i][p].get(q, 0) * y
                            for q, y in b.pieces[self.top_degree - i])
                    for i, va in enumerate(a.pieces) for p, x in va)
        return Fraction(total, a.denominator * b.denominator * den)


def _koszul_sign(sign_rule: str, i: int, j: int) -> int:
    if sign_rule == SUPER_COMMUTATIVE and (i * j) % 2 == 1:
        return -1
    return 1


def _read_table(top_degree, dims, sign_rule, structure_constants, unit):
    """The :class:`ScaledTable` of user structure constants
    ``{((i, p), (j, q)): {k: scalar}}``, each scalar read once, built on one
    flat map ``{(a, b): [(k, c), ...]}`` of nonzero coordinates: the supplied
    products (a zero one stays, so the sign rule still compares it with its
    mirror), then e_0 e_q = e_q e_0 = e_q / unit where not supplied, then the
    sign-rule mirror of each product whose mirror is missing.  Each block
    (i, j) the map touches gets its rows, all zero or not.
    """
    table: dict[tuple[BasisIndex, BasisIndex], list] = {}
    for key, value in structure_constants.items():
        try:
            (i, p), (j, q) = key
        except (TypeError, ValueError):
            raise ShapeMismatch(f"bad structure constant key {key!r}") from None
        if not isinstance(value, Mapping):
            raise ShapeMismatch(f"product vector for {key!r} is not a mapping")
        if not (type(i) is int and type(j) is int
                and 0 <= i <= top_degree and 0 <= j <= top_degree):
            raise ShapeMismatch(f"structure constant degree out of range: {key!r}")
        if not (type(p) is int and type(q) is int
                and 0 <= p < dims[i] and 0 <= q < dims[j]):
            raise ShapeMismatch(f"structure constant index out of range: {key!r}")
        if i + j > top_degree:
            raise ShapeMismatch(
                f"product of degrees {i} and {j} exceeds top degree {top_degree}"
                " (truncated products must be omitted)"
            )
        for k in value:
            if not (type(k) is int and 0 <= k < dims[i + j]):
                raise ShapeMismatch(
                    f"product coordinate {k} out of range for degree {i + j}"
                )
        vec = [(k, as_fraction(c)) for k, c in value.items()]
        table[(i, p), (j, q)] = [(k, c) for k, c in vec if c]

    inv_u = 1 / unit
    for j in range(top_degree + 1):
        for q in range(dims[j]):
            table.setdefault(((0, 0), (j, q)), [(q, inv_u)])
            table.setdefault(((j, q), (0, 0)), [(q, inv_u)])

    for (a, b), vec in list(table.items()):
        if (b, a) not in table:
            table[b, a] = vec if _koszul_sign(sign_rule, a[0], b[0]) == 1 else [
                (k, -c) for k, c in vec]

    den = math.lcm(*{c.denominator for vec in table.values() for _, c in vec})
    rows: dict[tuple[int, int], list[dict]] = {}
    for ((i, p), (j, q)), vec in table.items():
        if (i, j) not in rows:
            rows[i, j] = [{} for _ in range(dims[i])]
        if vec:
            rows[i, j][p][q] = tuple(sorted(
                (k, c.numerator * (den // c.denominator)) for k, c in vec))
    return ScaledTable(den, rows)


def build_algebra(
    top_degree: int,
    dims: Sequence[int],
    sign_rule: str,
    structure_constants: Mapping,
    integrate: Sequence,
    unit: Sequence = (1,),
) -> GradedAlgebra:
    """Construct and fully validate a graded algebra.

    ``structure_constants`` is read once, straight into the integer table.
    Products not present default to zero, except products with a degree-0
    factor, which are forced by the unit (degree 0 is one-dimensional).  A
    missing symmetric counterpart is filled in from the declared sign rule;
    when both orders are supplied they must agree with it.

    Validation runs shape checks, the unit law and graded commutativity on
    every basis vector and pair, and associativity on the triples (x, s, y)
    with s in ``GradedAlgebra.generators``, which is enough (Light's test);
    it raises the matching violation with the offending basis vectors named.
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

    table = _read_table(
        top_degree, dims, sign_rule, structure_constants, unit_coords[0])
    algebra = GradedAlgebra(
        top_degree, dims, sign_rule, table, unit_coords, integrate_coords)
    _validate(algebra)
    return algebra


def tensor_product(*factors: GradedAlgebra) -> GradedAlgebra:
    """The graded tensor product of validated algebras, validated again by
    :func:`build_algebra`.  Its basis vectors are the words (x_1, ..., x_k)
    of the factors' basis vectors (``words``), in each degree by the key
    (-deg x_1, x_1, ..., -deg x_k, x_k): descending exponents on (P^n)^k,
    lexicographic subsets on an exterior algebra.  The products are built
    factor by factor from the nonzero ones, (X (x) x)(Y (x) y) =
    (-1)^(deg x deg Y) (XY) (x) (xy) if a factor is super-commutative; the
    unit and the integration are the factors' products."""
    sign_rule = SUPER_COMMUTATIVE if any(
        a.sign_rule == SUPER_COMMUTATIVE for a in factors) else COMMUTATIVE
    # (X, Y, deg Y, {W: coefficient over den}) for each nonzero product XY of
    # the words so far with X <= Y; build_algebra fills in YX by the sign rule
    products, den, words = [((), (), 0, {(): 1})], 1, [()]
    for a in factors:
        den *= a.scaled_table.denominator
        words = [w + (b,) for b in a.basis() for w in words]
        full = [((i, p), (j, q), xy)
                for (i, j), rows in a.scaled_table.rows.items()
                for p, row in enumerate(rows) for q, xy in row.items()]
        upper = [entry for entry in full if entry[0] <= entry[1]]
        products = [
            (x_word + (x,), y_word + (y,), dy + y[0], {
                w + ((x[0] + y[0], k),): _koszul_sign(sign_rule, x[0], dy) * c * v
                for w, c in vec.items() for k, v in xy})
            for x_word, y_word, dy, vec in products
            for x, y, xy in (upper if x_word == y_word else full)
        ]

    top = sum(a.top_degree for a in factors)
    by_degree = [[] for _ in range(top + 1)]
    for w in sorted(words, key=lambda w: [(-d, p) for d, p in w]):
        by_degree[sum(d for d, _ in w)].append(w)
    index = {w: (d, p) for d, ws in enumerate(by_degree) for p, w in enumerate(ws)}
    structure = {
        (index[x], index[y]): {index[w][1]: Fraction(c, den) for w, c in vec.items()}
        for x, y, _, vec in products if x != by_degree[0][0]  # 1 * y is forced
    }
    algebra = build_algebra(  # the module global, so a tracer's wrapper runs
        top, [len(ws) for ws in by_degree], sign_rule, structure,
        integrate=[math.prod(a.integrate_coords[p] for a, (_, p) in zip(factors, w))
                   for w in by_degree[top]],
        unit=[math.prod(a.unit_coords[0] for a in factors)],
    )
    algebra.words = tuple(map(tuple, by_degree))
    return algebra


def _validate(algebra: GradedAlgebra):
    """Unit law, sign rule and associativity, compared on the scaled table.

    Every check compares integer vectors that are the rational ones times a
    fixed positive factor (D, or D^2 for associativity), so it holds exactly
    when the rational check does.  The unit check visits every basis vector,
    the sign check every unordered pair.  Associativity is Light's test
    (Clifford and Preston, *The Algebraic Theory of Semigroups* I, 1.2): the
    a with (x a) y = x (a y) for all x, y form a subspace that holds 1 and
    is closed under products, so it is the whole algebra once it holds
    S = ``algebra.generators``, the basis vectors outside the span of the
    products s e_y, which generate the algebra.  Only (x s) y = x (s y) for
    basis vectors x <= y and s in S is checked (the sign rule gives the
    other order), and a violation names such a triple (x, s, y).
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

    # (a, b) and (b, a) state the same condition, so only a <= b is scanned;
    # the first violation in the full scan order has a <= b, so it is the
    # pair named
    for n, a in enumerate(positive):
        for b in positive[n:]:
            i, j = a[0], b[0]
            if i + j > top:
                continue
            ba = product(b, a)
            if _koszul_sign(algebra.sign_rule, i, j) == -1:
                ba = tuple((k, -v) for k, v in ba)
            if product(a, b) != ba:
                raise SignRuleViolation((a, b))

    # (e_x e_s) e_y against e_x (e_s e_y), both scaled by D^2.  Once the
    # sign rule holds, (y s) x - y (s x) = +-((x s) y - x (s y)), so the
    # triples with y before x in the basis need no check
    unit = {b: ((b[1], 1),) for b in positive}
    for s in algebra.generators:
        s_times = [(y, unit[y], product(s, y)) for y in positive]
        for n, x in enumerate(positive):
            dxs = x[0] + s[0]
            if dxs >= top:
                continue
            xs = product(x, s)
            for y, ey, sy in s_times[n:]:
                if dxs + y[0] > top or not (xs or sy):
                    continue
                left = table.multiply(dxs, xs, y[0], ey)
                right = table.multiply(x[0], unit[x], s[0] + y[0], sy)
                if left != right:
                    raise AssociativityViolation((x, s, y))
