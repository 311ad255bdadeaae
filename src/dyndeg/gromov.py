"""The smallest pullback-stable subalgebra containing an ample class, and the
spectral-radius comparison chain built on it.

The closure is computed as the fixed point of S -> span(S, f*(S), S.S)
starting from span{1, omega}.  Nothing assumes that the pullback orbit of
omega already generates multiplicatively; every sweep closes under both
products and pullbacks until the dimension stops growing, which happens after
at most dim(A) sweeps.  f* keeps degrees and products add them, so the span
is the direct sum of its graded pieces, held as one echelon form per degree.
A candidate whose degree is past the top or whose graded piece the span
already fills is skipped before its product or pullback is computed: the
echelon form would reject it and stay as it is.  The basis is the canonical
reduced row echelon form of each piece, lowest degree first, so it does not
depend on the order generators are processed in.  f* on the closure is kept
as its blocks, one per occupied degree, integer matrices over a denominator.

The generators form a straight-line program, ``words``: recipes ("one",),
("omega",), ("pull", i) and ("mul", i, j), where i and j index earlier
recipes.  The words are the certificate: each enlarged its degree's span,
so a degree holds as many words as basis vectors, and replaying them and
reading each value off the basis at its pivots shows, in ``int``, that
the two span the same space (``GromovSubalgebra.verify_certificates``).
``spectral_chain(model, closure)`` reads the map and the class from the
closure, and holds the one realizability rule of the verdict.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import TYPE_CHECKING

from .core import Element, GradedAlgebra
from .endo import PullbackMap
from .errors import ShapeMismatch
from .linalg import Echelon, combine
from .spectral import exterior_radii, scaled_radius

if TYPE_CHECKING:
    from .models import EmbeddedModel


class GromovSubalgebra:
    """``basis`` is homogeneous, sorted by degree and in RREF within each
    degree; ``blocks`` holds ``(degree, (D, A))`` per occupied degree, column j
    of A / D the coordinates of f* of that degree's j-th basis vector.
    ``words`` are the generators' recipes, each naming only earlier ones by
    index; in each degree they are as many as the basis vectors there and
    span what those span, which ``verify_certificates`` checks."""

    def __init__(self, algebra: GradedAlgebra, pullback: PullbackMap,
                 omega: Element, basis: tuple[Element, ...],
                 blocks: tuple[tuple[int, tuple[int, tuple]], ...],
                 dims_by_degree: tuple[int, ...], words: tuple[tuple, ...],
                 sweeps: int):
        self.algebra = algebra
        self.pullback = pullback
        self.omega = omega
        self.basis = basis
        self.blocks = blocks
        self.dims_by_degree = dims_by_degree
        self.words = words
        self.sweeps = sweeps
        # lambda_gr results by tol, so that a report asking twice computes once
        self._radii: dict = {}

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def verify_certificates(self) -> bool:
        """Replay the words and check that they span what the basis spans.

        The recipes run once each, in order, with ``GradedAlgebra.mul`` and
        ``PullbackMap.apply``; a recipe that names no earlier one, or has an
        unknown tag, raises ``ShapeMismatch``.  Each degree must then hold
        as many word values as basis vectors, each value g must be
        sum_i g[p_i] b_i, p_i the pivot of b_i, and the matrix of the
        g[p_i] must be invertible.  The sum is checked on numerators, as
        L N_g = sum_i N_g[p_i] (L / D_i) B_i, L the lcm of the D_i."""
        algebra, f = self.algebra, self.pullback
        values: list[Element] = []
        for n, recipe in enumerate(self.words):
            if not all(type(i) is int and 0 <= i < n for i in recipe[1:]):
                raise ShapeMismatch(
                    f"recipe {n}, {recipe!r}, names no earlier one")
            match recipe:
                case ("one",):
                    values.append(algebra.one())
                case ("omega",):
                    values.append(self.omega)
                case ("pull", i):
                    values.append(f.apply(values[i]))
                case ("mul", i, j):
                    values.append(algebra.mul(values[i], values[j]))
                case _:
                    raise ShapeMismatch(f"unknown certificate recipe {recipe!r}")

        words, basis = {}, {}
        for by_degree, elements in ((words, values), (basis, self.basis)):
            for e in elements:
                by_degree.setdefault(e.degrees(), []).append(e)
        if words.keys() != basis.keys() or any(len(k) != 1 for k in basis):
            return False
        for key, vectors in basis.items():
            d, gens = key[0], words[key]
            pivots = [b.pieces[d][0][0] for b in vectors]
            lcm = math.lcm(*(b.denominator for b in vectors))
            scaled = [(lcm // b.denominator, dict(b.pieces[d])) for b in vectors]
            # row k: the numerators of the k-th word value at the pivots
            pieces = [dict(g.pieces[d]) for g in gens]
            rows = [[piece.get(p, 0) for p in pivots] for piece in pieces]
            if len(rows) != len(vectors) or any(combine(lcm, piece, [
                    (x * s, b) for x, (s, b) in zip(row, scaled) if x])
                    for piece, row in zip(pieces, rows)) or not _invertible(rows):
                return False
        return True


_PRIMES = (2**61 - 1, 2**89 - 1, 2**127 - 1)  # tried in turn by _invertible


def _invertible(rows: list[list[int]]) -> bool:
    """Whether the square integer matrix ``rows`` is invertible over Q: of
    full rank modulo one of ``_PRIMES`` (its determinant is then nonzero)
    or, failing that, exactly through ``Echelon``, so that a true closure
    never reads as unverified."""
    for p in _PRIMES:
        m = [[x % p for x in row] for row in rows]
        # clear the first column with a row that leads it, then drop both
        while m and (lead := next((r for r in m if r[0]), None)):
            inv = pow(lead[0], -1, p)
            m = [[(x - c * y) % p for x, y in zip(r[1:], lead[1:])]
                 for r in m if r is not lead for c in [r[0] * inv % p]]
        if not m:
            return True
    ech = Echelon(len(rows))
    return all(ech.insert_scaled({j: x for j, x in enumerate(row) if x})
               for row in rows)


def gromov_closure(f: PullbackMap, omega: Element) -> GromovSubalgebra:
    """Smallest f*-stable subalgebra of ``f.algebra`` containing the unit and
    ``omega``.

    ``omega`` must be homogeneous of degree 2 (an ample divisor class).
    A sweep pulls back each newer generator, then multiplies each pair
    with a newer member, in index order; the loop ends at the first sweep
    that adds none, so every image lies in the span.

    Generators are homogeneous elements, inserted into their degree's
    echelon form as integer numerators; products and pullbacks are
    ``GradedAlgebra.mul`` and ``PullbackMap.apply``, the ones the words are
    replayed with.  A word is kept only when its value enlarged its
    degree's span.  A block's D is the lcm of its images' denominators,
    and its columns are the images' numerators at the pivots.

    A pullback or product is computed only when its degree is at most the
    top and that degree's echelon form is below the piece's dimension.  The
    echelon form would reject every skipped candidate unchanged, so the
    words, sweeps, basis and blocks are those of the full scan.
    """
    if omega.degrees() != (2,):
        raise ShapeMismatch("omega must be homogeneous of degree 2 and nonzero")

    algebra = f.algebra
    dims, top = algebra.dims, algebra.top_degree
    # f* keeps degrees and products add them: one echelon form per degree
    echelons = [Echelon(dim) for dim in dims]
    words: list[tuple] = []  # the recipe of each generator
    gens: list[Element] = []

    def try_add(recipe: tuple, element: Element):
        degree = element.degree()
        if degree is not None and echelons[degree].insert_scaled(
                dict(element.pieces[degree])):
            words.append(recipe)
            gens.append(element)

    def open_degree(degree: int) -> bool:  # can a candidate there add a row
        return degree <= top and len(echelons[degree].pivots) < dims[degree]

    try_add(("one",), algebra.one())
    try_add(("omega",), omega)

    # generators below ``start`` have been pulled back and multiplied with
    # each other; a sweep visits only what involves a newer one
    start = sweeps = 0
    while True:
        sweeps += 1
        count = len(gens)
        for i in range(start, count):
            if open_degree(gens[i].degree()):
                try_add(("pull", i), f.apply(gens[i]))
        for i in range(count):
            for j in range(max(i, start), count):
                if open_degree(gens[i].degree() + gens[j].degree()):
                    try_add(("mul", i, j), algebra.mul(gens[i], gens[j]))
        if len(gens) == count:
            break
        start = count

    # per occupied degree, in order: its basis and the block of f* whose
    # columns are the coordinates of the basis' images
    basis, blocks = [], []
    for degree, ech in enumerate(echelons):
        if not ech.pivots:
            continue
        vectors = [Element.scaled(dims, den, [row if d == degree else {}
                                              for d in range(top + 1)])
                   for den, row in ech.scaled_basis()]
        images = list(map(f.apply, vectors))
        lcm, columns = math.lcm(*(image.denominator for image in images)), []
        for image in images:
            piece = dict(image.pieces[degree])
            columns.append([piece.get(p, 0) * (lcm // image.denominator)
                            for p in ech.pivots])
        basis += vectors
        blocks.append((degree, (lcm, tuple(zip(*columns)))))

    return GromovSubalgebra(
        algebra=algebra, pullback=f, omega=omega, basis=tuple(basis),
        blocks=tuple(blocks), words=tuple(words), sweeps=sweeps,
        dims_by_degree=tuple(len(ech.pivots) for ech in echelons))


def lambda_gr(closure: GromovSubalgebra, tol: float = 1e-9):
    """Spectral radius of the restricted pullback: ``(value, error_bound)``.

    The closure is the direct sum of its graded pieces, so this is the
    largest radius over ``closure.blocks``, computed once per closure and
    ``tol``: the result is kept on the closure.  The error bound is a running
    max that resets to a block's own error whenever its radius is the largest
    so far, so an earlier block's larger error drops out.
    """
    got = closure._radii.get(tol)
    if got is None:
        rho = 0.0
        err = 0.0
        for _, (den, block) in closure.blocks:
            r, e = scaled_radius(den, block, tol)
            if r > rho:
                rho, err = r, e
            err = max(err, e)
        got = closure._radii[tol] = (rho, err)
    return got


class ChainReport(namedtuple(
    "ChainReport",
    "lambda_gr lambda_gr_error lambda_by_codim mu_by_degree mu_error max_lambda"
    " max_mu equality_asserted realizability tol gromov_dims scope_note",
)):
    """Full spectral-radius comparison for one model and Gromov closure.

    ``lambda_by_codim[i]`` is the radius on the degree-2i piece (the algebraic
    block; the homological/numerical distinction collapses in explicit models,
    so a single lambda is recorded).  ``mu_by_degree[j]`` covers every graded
    piece.  The chain lambda_gr <= max lambda <= max mu holds for every valid
    pullback; the equality verdict, the main-theorem property, is *asserted*
    only on the closure of ``model.h``, when builders vouched for model and map.

    ``chain_holds`` is the verdict lambda_gr <= max lambda, within the slack
    below.  The second link, max lambda <= max mu, needs no check:
    ``lambda_by_codim`` is a sub-list of ``mu_by_degree``.
    """

    __slots__ = ()

    def slack(self, value: float) -> float:
        """The tolerance band the verdicts were computed with."""
        return (
            self.tol * max(1.0, abs(value)) + self.lambda_gr_error + self.mu_error
        )

    @property
    def chain_holds(self) -> bool:
        """lambda_gr <= max lambda, within the slack."""
        return self.lambda_gr <= self.max_lambda + self.slack(self.max_lambda)

    @property
    def equality_holds(self) -> bool:
        """lambda_gr = max mu, within the slack."""
        return abs(self.lambda_gr - self.max_mu) <= self.slack(self.max_mu)


def spectral_chain(
    model: EmbeddedModel, closure: GromovSubalgebra, tol: float = 1e-9
) -> ChainReport:
    """Compute lambda_gr, per-degree radii, and the inequality/equality verdicts
    for the map and ample class ``closure`` was built from, on ``model``.

    The realizability is the model's tag when the map is asserted, else the
    map's; equality is asserted only for the tag ``"asserted"``, no scope
    note and a closure of ``model.h``: another class's chain is unasserted.
    """
    algebra, f = model.algebra, closure.pullback
    if closure.algebra is not algebra:
        raise ShapeMismatch("closure was built on another model's algebra")
    lam_gr, lam_err = lambda_gr(closure, tol)

    # on an exterior algebra, f* (a ring map) is wedge^j of its degree-1
    # block in degree j, so every radius comes from that block's roots
    den, columns = f.scaled_blocks
    # column q of a block as row q: its transpose, with the same polynomial
    dense = [[[c.get(p, 0) for p in range(len(cols))] for c in map(dict, cols)]
             for cols in (columns[1:2] if algebra.exterior else columns)]
    radii = (exterior_radii(den, dense[0], tol) if algebra.exterior else
             [scaled_radius(den, a, tol) if a else (0.0, 0.0) for a in dense])
    mu = tuple(r for r, _ in radii)
    lam = mu[::2]  # the algebraic pieces, of even degree
    realizability = (model.realizability if f.realizability == "asserted"
                     else f.realizability)

    return ChainReport(
        lambda_gr=lam_gr,
        lambda_gr_error=lam_err,
        lambda_by_codim=lam,
        mu_by_degree=mu,
        mu_error=max(e for _, e in radii),
        max_lambda=max(lam),
        max_mu=max(mu),
        equality_asserted=(closure.omega == model.h and model.scope_note is None
                           and realizability == "asserted"),
        realizability=realizability,
        tol=tol,
        gromov_dims=closure.dims_by_degree,
        scope_note=model.scope_note,
    )


# ---------------------------------------------------------------------------
# report sections: each writes one analysis of ``cli.run`` from its records
# ---------------------------------------------------------------------------

def gromov_section(model, pull, config, closure) -> dict:
    rho, err = lambda_gr(closure, config["tol"])
    return {"dimension": closure.dimension,
            "dims_by_degree": list(closure.dims_by_degree),
            "certificates": closure.dimension,
            "certificates_verified": closure.verify_certificates(),
            "sweeps": closure.sweeps, "lambda_gr": rho, "lambda_gr_error": err}


def chain_section(model, pull, config, closure) -> dict:
    """The :class:`ChainReport`, its tuples as lists, with its verdicts and
    less ``mu_error``, which the verdicts' slack already holds."""
    report = spectral_chain(model, closure, config["tol"])
    section = {key: list(value) if isinstance(value, tuple) else value
               for key, value in report._asdict().items() if key != "mu_error"}
    return {
        **section,
        "chain_holds": report.chain_holds,
        "equality_holds": report.equality_holds,
        "chi_note": "homological and numerical radii coincide in explicit models",
    }
