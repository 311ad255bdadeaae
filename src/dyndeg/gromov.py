"""The smallest pullback-stable subalgebra containing an ample class, and the
spectral-radius comparison chain built on it.

The closure is computed as the fixed point of S -> span(S, f*(S), S.S)
starting from span{1, omega}.  Nothing assumes that the pullback orbit of
omega already generates multiplicatively; every sweep closes under both
products and pullbacks until the dimension stops growing, which happens after
at most dim(A) sweeps.  The basis is the canonical reduced row echelon form of
the subspace (lowest degree first, then lexicographic basis index), so the
output is independent of the order in which generators are processed.

Each basis vector carries a generation certificate: an exact rational
combination of formal words in {unit, omega, pullback, product} that
re-evaluates to the vector, witnessing membership constructively.
"""

from __future__ import annotations

import bisect
import itertools
from fractions import Fraction
from typing import NamedTuple

from .core import Element, GradedAlgebra
from .endo import PullbackMap
from .errors import ShapeMismatch
from .linalg import Echelon, Matrix
from .spectral import spectral_radius

# formal certificate words
WORD_ONE = ("one",)
WORD_OMEGA = ("omega",)


def word_pull(w):
    return ("pull", w)


def word_mul(w1, w2):
    return ("mul", w1, w2)


def evaluate_word(
    algebra: GradedAlgebra, f: PullbackMap, omega: Element, word, memo: dict
):
    """Re-evaluate a certificate word to an algebra element.

    Each distinct subword (by identity) is evaluated once.  ``memo`` maps
    ``id(subword)`` to its value; it is shared across calls, so keep the
    words alive while it is in use.
    """
    value = memo.get(id(word))
    if value is not None:
        return value
    tag = word[0]
    if tag == "one":
        value = algebra.one()
    elif tag == "omega":
        value = omega
    elif tag == "pull":
        value = f.apply(evaluate_word(algebra, f, omega, word[1], memo))
    elif tag == "mul":
        value = algebra.mul(
            evaluate_word(algebra, f, omega, word[1], memo),
            evaluate_word(algebra, f, omega, word[2], memo),
        )
    else:
        raise ShapeMismatch(f"unknown certificate word {word!r}")
    memo[id(word)] = value
    return value


class GromovSubalgebra:
    def __init__(self, algebra: GradedAlgebra, pullback: PullbackMap,
                 omega: Element, basis: tuple[Element, ...],
                 restricted_matrix: Matrix, dims_by_degree: tuple[int, ...],
                 certificates: tuple[tuple[tuple[Fraction, tuple], ...], ...],
                 sweeps: int):
        self.algebra = algebra
        self.pullback = pullback
        self.omega = omega
        self.basis = basis
        self.restricted_matrix = restricted_matrix
        self.dims_by_degree = dims_by_degree
        self.certificates = certificates
        self.sweeps = sweeps
        # lambda_gr results by tol, so that a report asking twice computes once
        self._radii: dict = {}

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def degree_blocks(self) -> list[tuple[int, Matrix]]:
        """Diagonal blocks of the restricted matrix, one per occupied degree.

        Valid because the basis is homogeneous and sorted by degree, and the
        pullback preserves degree.
        """
        blocks = []
        start = 0
        for degree, dim in enumerate(self.dims_by_degree):
            if dim:
                stop = start + dim
                blocks.append((degree, tuple(
                    row[start:stop] for row in self.restricted_matrix[start:stop]
                )))
                start = stop
        return blocks

    def verify_certificates(self) -> bool:
        """Re-evaluate every certificate and compare with its basis vector.

        Each distinct word (by identity) is evaluated once per call; every
        basis vector is still rebuilt from its words and compared exactly.
        """
        memo: dict[int, Element] = {}
        for vec, cert in zip(self.basis, self.certificates):
            total = self.algebra.zero()
            for coeff, word in cert:
                total = total + coeff * evaluate_word(
                    self.algebra, self.pullback, self.omega, word, memo
                )
            if total != vec:
                return False
        return True


def gromov_closure(
    algebra: GradedAlgebra,
    f: PullbackMap,
    omega: Element,
    sweep_order: str = "forward",
) -> GromovSubalgebra:
    """Smallest f*-stable subalgebra containing the unit and ``omega``.

    ``omega`` must be homogeneous of degree 2 (an ample divisor class).
    ``sweep_order`` only permutes the candidate processing order; the result
    is the canonical echelon basis either way (exposed so the invariance is
    testable).

    Generators are homogeneous elements, inserted into the echelon form as
    their integer numerators over their denominator; products and pullbacks
    are ``GradedAlgebra.mul`` and ``PullbackMap.apply``, the ones the
    certificates are replayed with.  ``Fraction`` appears only in the
    certificates and the restricted matrix.
    """
    if f.algebra is not algebra:
        raise ShapeMismatch("pullback belongs to a different algebra")
    if omega.degrees() != (2,):
        raise ShapeMismatch("omega must be homogeneous of degree 2 and nonzero")
    if sweep_order not in ("forward", "reversed"):
        raise ShapeMismatch("sweep_order must be 'forward' or 'reversed'")

    offsets = [0, *itertools.accumulate(algebra.dims)]
    ech = Echelon(algebra.dimension)
    words: list[tuple] = []
    gens: list[Element] = []

    def try_add(word, element: Element) -> bool:
        degree = element.degree()
        if degree is None:
            return False
        off = offsets[degree]
        # the combo is 1 * generator, i.e. den over den
        if ech.insert_scaled({off + q: x for q, x in element.pieces[degree]},
                             {len(gens): element.denominator}):
            words.append(word)
            gens.append(element)
            return True
        return False

    try_add(WORD_ONE, algebra.one())
    try_add(WORD_OMEGA, omega)

    top = algebra.top_degree
    # generators below ``start`` have been pulled back and multiplied with
    # each other; a sweep visits only what involves a newer one
    start = 0
    sweeps = 0
    while True:
        sweeps += 1
        grew = False
        count = len(gens)
        pulls = list(range(start, count))
        muls = [
            (i, j)
            for i in range(count)
            for j in range(max(i, start), count)
        ]
        start = count
        if sweep_order == "reversed":
            pulls.reverse()
            muls.reverse()
        for i in pulls:
            grew |= try_add(word_pull(words[i]), f.apply(gens[i]))
        for i, j in muls:
            grew |= try_add(word_mul(words[i], words[j]),
                            algebra.mul(gens[i], gens[j]))
        if not grew:
            break

    # every row is homogeneous: its degree is the one of its pivot
    degrees = [bisect.bisect(offsets, p) - 1 for p in ech.pivots]
    basis = tuple(
        Element.scaled(algebra.dims, den, [
            {k - offsets[d]: x for k, x in row.items()} if d == degree else {}
            for d in range(top + 1)
        ])
        for degree, (den, row) in zip(degrees, ech.scaled_basis())
    )
    certificates = tuple(
        tuple(
            (coeff, words[g])
            for g, coeff in sorted(combo.items())
        )
        for combo in ech.combos
    )

    # restricted matrix of f*: columns are the closure coordinates of images
    columns = []
    for degree, b in zip(degrees, basis):
        image = f.apply(b)
        coords = ech.coordinates_scaled(image.denominator, {
            offsets[degree] + p: x for p, x in image.pieces[degree]
        })
        if coords is None:
            raise ShapeMismatch("closure is not pullback-stable (internal error)")
        columns.append(coords)
    n = len(basis)
    restricted = tuple(
        tuple(columns[j][i] for j in range(n)) for i in range(n)
    )

    dims_by_degree = [0] * (top + 1)
    for degree in degrees:
        dims_by_degree[degree] += 1

    return GromovSubalgebra(
        algebra=algebra,
        pullback=f,
        omega=omega,
        basis=basis,
        restricted_matrix=restricted,
        dims_by_degree=tuple(dims_by_degree),
        certificates=certificates,
        sweeps=sweeps,
    )


def lambda_gr(closure: GromovSubalgebra, tol: float = 1e-9):
    """Spectral radius of the restricted pullback: ``(value, error_bound)``.

    Computed blockwise per degree (the restricted matrix is block diagonal),
    once per closure and ``tol``: the result is kept on the closure.
    """
    got = closure._radii.get(tol)
    if got is None:
        rho = 0.0
        err = 0.0
        for _, block in closure.degree_blocks():
            r, e = spectral_radius(block, tol)
            if r > rho:
                rho, err = r, e
            err = max(err, e)
        got = closure._radii[tol] = (rho, err)
    return got


class ChainReport(NamedTuple):
    """Full spectral-radius comparison for one (algebra, pullback, omega).

    ``lambda_by_codim[i]`` is the radius on the degree-2i piece (the algebraic
    block; the homological/numerical distinction collapses in explicit models,
    so a single lambda is recorded).  ``mu_by_degree[j]`` covers every graded
    piece.  The chain lambda_gr <= max lambda <= max mu holds for every valid
    pullback; the equality verdict is the main-theorem property and is only
    *asserted* for maps whose realizability a builder vouched for.

    ``chain_holds`` is the verdict lambda_gr <= max lambda, within the slack
    below.  The second link, max lambda <= max mu, needs no check:
    ``lambda_by_codim`` is a sub-list of ``mu_by_degree``.
    """

    lambda_gr: float
    lambda_gr_error: float
    lambda_by_codim: tuple[float, ...]
    mu_by_degree: tuple[float, ...]
    mu_error: float
    max_lambda: float
    max_mu: float
    equality_asserted: bool
    realizability: str
    tol: float
    gromov_dims: tuple[int, ...]
    scope_note: str | None = None

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
    algebra: GradedAlgebra,
    f: PullbackMap,
    omega: Element,
    tol: float = 1e-9,
    realizability: str | None = None,
    scope_note: str | None = None,
    closure: GromovSubalgebra | None = None,
) -> ChainReport:
    """Compute lambda_gr, per-degree radii, and the inequality/equality verdicts.

    ``closure`` is the Gromov closure of (algebra, f, omega) when the caller
    already has it; otherwise it is built here.
    """
    if closure is None:
        closure = gromov_closure(algebra, f, omega)
    elif (closure.algebra is not algebra or closure.pullback is not f
          or closure.omega != omega):
        raise ShapeMismatch("closure was built for another algebra, map or class")
    lam_gr, lam_err = lambda_gr(closure, tol)

    mu = []
    mu_err = 0.0
    for j in range(algebra.top_degree + 1):
        if algebra.dims[j] == 0:
            mu.append(0.0)
            continue
        r, e = spectral_radius(f.blocks[j], tol)
        mu.append(r)
        mu_err = max(mu_err, e)

    r_dim = algebra.top_degree // 2
    lam = [mu[2 * i] for i in range(r_dim + 1)]

    if realizability is None:
        realizability = f.realizability
    equality_asserted = realizability == "asserted" and scope_note is None

    return ChainReport(
        lambda_gr=lam_gr,
        lambda_gr_error=lam_err,
        lambda_by_codim=tuple(lam),
        mu_by_degree=tuple(mu),
        mu_error=mu_err,
        max_lambda=max(lam),
        max_mu=max(mu),
        equality_asserted=equality_asserted,
        realizability=realizability,
        tol=tol,
        gromov_dims=closure.dims_by_degree,
        scope_note=scope_note,
    )
