"""Shared generators for the property and acceptance tests.

Random *valid* pullbacks come in five families (power maps with arbitrary
rational scalars, monomial substitutions on products, exterior lifts of
arbitrary rational matrices, hyperbolic-lattice isometries, and Pell-type
isometry powers); all are genuine graded ring endomorphisms, many are not
realizable by any morphism, which is exactly what the inequality-chain
property needs.  Mutation fuzzing perturbs one matrix entry of a valid map
and classifies the mutant independently of the validator by a direct scan
with the algebra product.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from dyndeg.core import GradedAlgebra
from dyndeg.degrees import EmbeddedModel
from dyndeg.endo import PullbackMap, validate_pullback
from dyndeg.linalg import identity, mat_vec
from dyndeg.models import (
    elliptic_square,
    exterior_algebra,
    exterior_pullback,
    multiprojective,
    pn_power_map,
    product_map,
    projective_space,
    surface_lattice,
)


def _random_fraction(rng, lo=-6, hi=6, max_den=4, nonzero=False):
    while True:
        f = Fraction(rng.randint(lo, hi), rng.randint(1, max_den))
        if f != 0 or not nonzero:
            return f


def scalar_power_pullback(model: EmbeddedModel, c: Fraction) -> PullbackMap:
    """x -> c*x on a projective-space model, for any rational c."""
    n = model.ambient_dim
    blocks = []
    for i in range(2 * n + 1):
        blocks.append([[c ** (i // 2)]] if i % 2 == 0 else [])
    return validate_pullback(model.algebra, blocks)


def monomial_substitution(model: EmbeddedModel, targets, scalars) -> PullbackMap:
    """h_i -> scalars[i] * h_{targets[i]} for an arbitrary function ``targets``.

    Valid whenever n_{targets[i]} <= n_i is not needed: repeated targets simply
    truncate to zero.  (Non-injective targets are generally not realizable.)
    """
    ns = [int(s) for s in model.provenance.split(":", 1)[1].split(",")]
    k = len(ns)
    exps_by_degree: dict[int, list] = {}
    for exps in itertools.product(*(range(n + 1) for n in ns)):
        exps_by_degree.setdefault(2 * sum(exps), []).append(exps)
    for lst in exps_by_degree.values():
        lst.sort(reverse=True)  # must match the builder's basis order
    index = {
        e: (deg, i)
        for deg, lst in exps_by_degree.items()
        for i, e in enumerate(lst)
    }
    blocks = []
    for deg in range(model.algebra.top_degree + 1):
        lst = exps_by_degree.get(deg, [])
        m = [[Fraction(0)] * len(lst) for _ in range(len(lst))]
        for q, exps in enumerate(lst):
            image = [0] * k
            coeff = Fraction(1)
            for i, e in enumerate(exps):
                image[targets[i]] += e
                coeff *= Fraction(scalars[i]) ** e
            target = tuple(image)
            if all(x <= n for x, n in zip(target, ns)):
                m[index[target][1]][q] = coeff
        blocks.append(m)
    return validate_pullback(model.algebra, blocks)


def random_valid_pullbacks(rng, count):
    """Yield (name, model, pullback) for ``count`` random valid maps."""
    pn_models = {n: projective_space(n) for n in (1, 2, 3)}
    mp_models = {
        ns: multiprojective(list(ns)) for ns in ((1, 1), (2, 2), (1, 1, 1))
    }
    pell = ([[1, 0], [0, -2]], [[3, 4], [2, 3]], [1, 0])
    for trial in range(count):
        family = trial % 5
        if family == 0:
            n = rng.choice((1, 2, 3))
            model = pn_models[n]
            c = _random_fraction(rng)
            yield f"P{n} x->({c})x", model, scalar_power_pullback(model, c)
        elif family == 1:
            ns = rng.choice(((1, 1), (2, 2), (1, 1, 1)))
            model = mp_models[ns]
            k = len(ns)
            # arbitrary function on equal-dimension factors
            targets = [rng.randrange(k) for _ in range(k)]
            scalars = [_random_fraction(rng) for _ in range(k)]
            name = f"{ns} h_i->c h_t {targets}"
            yield name, model, monomial_substitution(model, targets, scalars)
        elif family == 2:
            g = rng.choice((1, 2))
            alg = exterior_algebra(g)
            m = [
                [Fraction(rng.randint(-3, 3)) for _ in range(2 * g)]
                for _ in range(2 * g)
            ]
            yield f"exterior g={g}", _abelian_like_model(g), exterior_pullback(alg, m)
        elif family == 3:
            a = _random_fraction(rng, lo=-4, hi=4, nonzero=True)
            if rng.random() < 0.5:
                iso = [[a, 0], [0, 1 / a]]
            else:
                iso = [[0, a], [1 / a, 0]]
            model, pull = surface_lattice([[0, 1], [1, 0]], iso, [1, 1])
            yield f"U-lattice a={a}", model, pull
        else:
            k = rng.randint(1, 3)
            gram, base, ample = pell
            iso = identity(2)
            for _ in range(k):
                iso = [
                    [sum(iso[i][t] * Fraction(base[t][j]) for t in range(2))
                     for j in range(2)]
                    for i in range(2)
                ]
            model, pull = surface_lattice(gram, iso, ample)
            yield f"Pell^({k})", model, pull


def _abelian_like_model(g: int) -> EmbeddedModel:
    model, _ = (
        elliptic_square([[1, 0], [0, 1]])
        if g == 2
        else _abelian_g1_identity()
    )
    return model


def _abelian_g1_identity():
    from dyndeg.models import abelian_variety

    return abelian_variety(1, [[1, 0], [0, 1]])


def apply_blocks(algebra: GradedAlgebra, blocks, element):
    """Apply raw per-degree matrices to an element (no validation)."""
    from dyndeg.core import Element

    return Element(
        tuple(
            mat_vec(tuple(tuple(row) for row in m), piece) if piece else ()
            for m, piece in zip(blocks, element.coords)
        )
    )


def multiplicativity_witness(algebra: GradedAlgebra, blocks):
    """First basis pair where the raw blocks fail to be multiplicative.

    Independent of validate_pullback: scans with the algebra product directly.
    Returns None when the blocks define a genuine unital graded ring map.
    """
    one = algebra.one()
    if apply_blocks(algebra, blocks, one) != one:
        return "unit"
    basis = [b for b in algebra.basis() if b[0] >= 1]
    images = {
        (i, q): tuple(blocks[i][p][q] for p in range(algebra.dims[i]))
        for (i, q) in basis
    }
    for a in basis:
        for b in basis:
            i, j = a[0], b[0]
            if i + j > algebra.top_degree:
                continue
            lhs = mat_vec(
                tuple(tuple(row) for row in blocks[i + j]),
                algebra.basis_product(a, b),
            )
            rhs = algebra.mul_vectors(i, images[a], j, images[b])
            if tuple(lhs) != tuple(rhs):
                return (a, b)
    return None


def builder_battery():
    """The fixed set of builder models + maps the estimator criteria run on."""
    battery = []
    for n in (1, 2, 3):
        model = projective_space(n)
        for d in (0, 1, 2, 3):
            battery.append((f"P{n} d={d}", model, pn_power_map(model, d)))
    mp = multiprojective([1, 1])
    battery.append(("P1xP1 swap(2,3)", mp, product_map(mp, [2, 3], [1, 0])))
    mp22 = multiprojective([2, 2])
    battery.append(("P2xP2 swap(1,3)", mp22, product_map(mp22, [1, 3], [1, 0])))
    mp111 = multiprojective([1, 1, 1])
    battery.append(
        ("P1^3 cycle(2,3,1)", mp111, product_map(mp111, [2, 3, 1], [1, 2, 0]))
    )
    model, pull = elliptic_square([[1, 1], [1, 0]])
    battery.append(("ExE fibonacci", model, pull))
    model, pull = elliptic_square([[2, 0], [0, 2]])
    battery.append(("ExE doubling", model, pull))
    model, pull = surface_lattice([[1, 0], [0, -2]], [[3, 4], [2, 3]], [1, 0])
    battery.append(("Pell surface", model, pull))
    model, pull = surface_lattice([[0, 1], [1, 0]], [[0, 1], [1, 0]], [1, 1])
    battery.append(("U-lattice swap", model, pull))
    return battery


def mutate_blocks(rng, pull: PullbackMap):
    """Copy the map's blocks and bump one entry in a degree >= 2 block."""
    blocks = [
        [[x for x in row] for row in block] for block in pull.blocks
    ]
    candidates = [
        i for i in range(2, len(blocks)) if pull.algebra.dims[i] > 0
    ]
    i = rng.choice(candidates)
    d = pull.algebra.dims[i]
    p, q = rng.randrange(d), rng.randrange(d)
    bump = Fraction(rng.choice((-2, -1, 1, 2)))
    blocks[i][p][q] += bump
    return blocks, (i, p, q)


# ---------------------------------------------------------------------------
# Fraction oracles: the rational kernels that the integer ones replaced
# ---------------------------------------------------------------------------

def fraction_char_poly(m):
    """Coefficients of det(xI - M), descending, by Berkowitz in Fraction."""
    m = [[Fraction(x) for x in row] for row in m]
    n = len(m)
    coeffs = [Fraction(1)]
    for r in range(1, n + 1):
        row = [m[r - 1][j] for j in range(r - 1)]
        u = [m[i][r - 1] for i in range(r - 1)]
        t = [Fraction(1), -m[r - 1][r - 1]]
        for _ in range(r - 1):
            t.append(-sum((row[i] * u[i] for i in range(r - 1)), Fraction(0)))
            u = [
                sum((m[i][j] * u[j] for j in range(r - 1)), Fraction(0))
                for i in range(r - 1)
            ]
        new = [Fraction(0)] * (r + 1)
        for i in range(r + 1):
            for j in range(min(i, r - 1) + 1):
                new[i] += t[i - j] * coeffs[j]
        coeffs = new
    return coeffs


def fraction_det(a):
    """Determinant by Bareiss elimination in Fraction."""
    n = len(a)
    if n == 0:
        return Fraction(1)
    m = [[Fraction(x) for x in row] for row in a]
    sign = 1
    prev = Fraction(1)
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) / prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


class FractionEchelon:
    """Reduced row echelon form with provenance combos, in Fraction."""

    def __init__(self, width):
        self.width = width
        self.rows = []
        self.pivots = []
        self.combos = []

    def _reduce(self, vec, combo):
        for row, piv, rcombo in zip(self.rows, self.pivots, self.combos):
            c = vec[piv]
            if c != 0:
                for j in range(piv, self.width):
                    vec[j] -= c * row[j]
                for g, coeff in rcombo.items():
                    combo[g] = combo.get(g, Fraction(0)) - c * coeff
        return vec, combo

    def insert(self, vector, combo):
        vec, combo = self._reduce([Fraction(x) for x in vector], dict(combo))
        pivot = next((j for j, x in enumerate(vec) if x != 0), None)
        if pivot is None:
            return False
        lead = vec[pivot]
        vec = [x / lead for x in vec]
        combo = {g: c / lead for g, c in combo.items() if c != 0}
        for i, row in enumerate(self.rows):
            c = row[pivot]
            if c != 0:
                self.rows[i] = [x - c * y for x, y in zip(row, vec)]
                rc = self.combos[i]
                for g, coeff in combo.items():
                    rc[g] = rc.get(g, Fraction(0)) - c * coeff
                self.combos[i] = {g: v for g, v in rc.items() if v != 0}
        at = next((i for i, p in enumerate(self.pivots) if p > pivot),
                  len(self.pivots))
        self.rows.insert(at, vec)
        self.pivots.insert(at, pivot)
        self.combos.insert(at, combo)
        return True

    def basis(self):
        return [tuple(row) for row in self.rows]
