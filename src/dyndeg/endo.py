"""Pullback maps on graded algebras and their validation.

A pullback is a degree-preserving unital ring endomorphism, stored as one
integer matrix per graded piece over one denominator (column convention:
the image of the q-th basis vector is the q-th column).  Geometric
realizability cannot be decided at this level; maps carry a flag that
builders set and everything downstream merely propagates ("asserted" from
builders, "unverified" for hand-supplied matrices).
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

from .core import BasisIndex, Element, GradedAlgebra
from .errors import MultiplicativityViolation, ShapeMismatch, UnitViolation
from .linalg import Matrix, as_matrix


class PullbackMap:
    """Validated unital graded ring endomorphism f*, stored only as
    ``scaled_blocks = (D, columns)``: D is the lcm of all entry denominators
    and ``columns[k][q]`` the nonzero entries ``((p, D * m_pq), ...)`` of
    column q of block k, in increasing p.  ``apply``, the Gromov closure,
    the spectral radii and the degree tables all read this one form.
    """

    def __init__(self, algebra: GradedAlgebra, scaled_blocks: tuple[int, tuple],
                 realizability: str = "unverified"):
        self.algebra = algebra
        self.scaled_blocks = scaled_blocks
        self.realizability = realizability

    def apply_scaled(self, degree: int, vec) -> dict[int, int]:
        """D times block ``degree`` applied to the sparse integer vector
        ``((q, x), ...)``, as its nonzero entries ``{p: value}``."""
        columns = self.scaled_blocks[1][degree]
        out: dict[int, int] = {}
        for q, x in vec:
            for p, y in columns[q]:
                out[p] = out.get(p, 0) + x * y
        return {p: v for p, v in out.items() if v}

    def apply(self, a: Element) -> Element:
        """The image of ``a``; zero graded pieces are skipped."""
        return Element.scaled(a.dims, a.denominator * self.scaled_blocks[0], [
            self.apply_scaled(degree, piece) if piece else {}
            for degree, piece in enumerate(a.pieces)
        ])


def validate_pullback(
    algebra: GradedAlgebra,
    matrices: Sequence[Sequence[Sequence]],
    realizability: str = "unverified",
) -> PullbackMap:
    """Check shapes, f*(1) = 1, and f*(s y) = f*(s) f*(y) for each s in
    ``algebra.generators`` and every basis vector y.

    That is enough for every pair: the x with f*(x y) = f*(x) f*(y) for all
    y form a subspace that holds 1 and, the algebra being associative, is
    closed under left multiplication by each such s, so it is the whole
    algebra, which S generates (:func:`_check_multiplicative`).  Violations
    name the pair (s, y) as ``(degree, index)``.
    """
    if len(matrices) != algebra.top_degree + 1:
        raise ShapeMismatch(
            f"need {algebra.top_degree + 1} per-degree matrices, got {len(matrices)}"
        )
    blocks = []
    for i, rows in enumerate(matrices):
        m = as_matrix(rows)
        d = algebra.dims[i]
        if len(m) != d or (m and len(m[0]) != d):
            raise ShapeMismatch(
                f"degree {i} matrix is {len(m)}x{len(m[0]) if m else 0},"
                f" expected {d}x{d}"
            )
        blocks.append(m)

    candidate = PullbackMap(algebra, _scaled_columns(blocks), realizability)

    one = algebra.one()
    if candidate.apply(one) != one:
        raise UnitViolation(message="pullback does not fix the unit: f*(1) != 1")
    _check_multiplicative(candidate, algebra, lambda b: b)
    return candidate


def _scaled_columns(blocks: Sequence[Matrix]) -> tuple[int, tuple]:
    """``PullbackMap.scaled_blocks`` of the ``Fraction`` matrices ``blocks``."""
    den = math.lcm(*(x.denominator for m in blocks for row in m for x in row))
    return den, tuple(
        tuple(tuple((p, x.numerator * (den // x.denominator))
                    for p, x in enumerate(col) if x) for col in zip(*m))
        for m in blocks)


def _check_multiplicative(f: PullbackMap, source: GradedAlgebra, word):
    """Raise ``MultiplicativityViolation((s, y))`` at the first s in
    ``source.generators`` and basis vector y of degree >= 1 of ``source``
    with f*(s y) != f*(s) f*(y), s and y read as the basis vectors
    ``word(s)``, ``word(y)`` of ``f.algebra``.  The ``word(y)`` and 1 must
    span a subalgebra that the ``word(s)`` generate: ``source`` itself, or
    a factor's copy in a tensor product.  f*(s y) is ``apply_scaled`` on the
    table's row for (s, y).
    """
    # pairs with a degree-0 member are forced by f*(1) = 1 and linearity.
    # With B_k = D_f M_k integer and P the structure table scaled by D,
    # f*(e_s e_y) = f*(e_s) f*(e_y) reads D_f (B P_sy) = sum fs_p fy_q P_pq:
    # both sides are the rational ones times D_f^2 D.  A zero P_sy, as past
    # the top degree, has image zero
    table = f.algebra.scaled_table
    den, columns = f.scaled_blocks
    basis = [word(b) for b in source.basis() if b[0] >= 1]
    for s in map(word, source.generators):
        i, p = s
        for y in basis:
            j, q = y
            sy = table.product(s, y)
            lhs = f.apply_scaled(i + j, sy) if sy else {}
            rhs = table.multiply(i, columns[i][p], j, columns[j][q])
            if {k: den * v for k, v in lhs.items()} != rhs:
                raise MultiplicativityViolation((s, y))


def tensor_pullback(
    algebra: GradedAlgebra,
    images: Mapping[tuple[int, BasisIndex], Element],
    realizability: str = "unverified",
) -> PullbackMap:
    """The ring map sending each factor letter ``(i, (d, p))`` of
    ``algebra.words``, d >= 1, to the degree-d element ``images[i, (d, p)]``;
    a letter with no image, or one of another degree, or a key that is no
    such letter is a ``ShapeMismatch`` naming it.

    In :func:`core.tensor_product`'s factor order a basis word w is its
    first non-unit letter x times the rest r of the word (w with x made a
    unit): e_x e_r = e_w / u, u the unit coordinate, with sign +1.  So
    f*(e_w) = u f*(e_x) f*(e_r), one ``ScaledTable.multiply`` of integer
    vectors over a denominator kept in lowest terms, f*(e_r) being known as
    the words are visited degree by degree.  On an algebra that is no tensor
    product every word is one letter, and r the unit.  ``algebra`` is the
    coproduct of its valid factors, so f* is a ring map once it is one on
    each factor's copy, spanned by its one-letter words, and
    :func:`_check_multiplicative` runs on these copies only.
    """
    letters = {(i, b) for i, factor in enumerate(algebra.factors)
               for b in factor.basis() if b[0]}
    for key in images:
        if key not in letters:
            raise ShapeMismatch(f"images key {key!r} names no letter")
    table, u = algebra.scaled_table, algebra.unit_coords[0]
    one = algebra.words[0][0]
    pulled = {one: ({0: 1}, 1)}  # f*(e_w) as ({index: numerator}, denominator)
    for d, words in enumerate(algebra.words[1:], 1):
        for w in words:
            m, c = next((i, c) for i, (c, _) in enumerate(w) if c)
            image = images.get((m, w[m]))
            if image is None or image.degrees() not in ((), (c,)):
                raise ShapeMismatch(f"letter {(m, w[m])} needs a degree-{c} image")
            vec, den = pulled[one[:m + 1] + w[m + 1:]]
            product = table.multiply(c, image.pieces[c], d - c, vec.items())
            den *= image.denominator * table.denominator * u.denominator
            g = math.gcd(den, *(u.numerator * v for v in product.values()))
            pulled[w] = ({k: u.numerator * v // g for k, v in product.items()},
                         den // g)
    den = math.lcm(*(e for _, e in pulled.values()))
    pull = PullbackMap(algebra, (den, tuple(
        tuple(tuple(sorted((p, v * (den // e)) for p, v in vec.items()))
              for vec, e in map(pulled.get, words))
        for words in algebra.words)), realizability)
    for i, factor in enumerate(algebra.factors):  # e_b -> its one-letter word
        word = {b: (b[0], algebra.words[b[0]].index(one[:i] + (b,) + one[i + 1:]))
                for b in factor.basis()}
        _check_multiplicative(pull, factor, word.get)
    return pull


def identity_map(algebra: GradedAlgebra) -> PullbackMap:
    units = tuple(tuple(((q, 1),) for q in range(d)) for d in algebra.dims)
    return PullbackMap(algebra, (1, units), realizability="asserted")
