"""Shared generators for the property and acceptance tests.

Random *valid* pullbacks come in five families (power maps with arbitrary
rational scalars, monomial substitutions on products, exterior lifts of
arbitrary rational matrices, hyperbolic-lattice isometries, and Pell-type
isometry powers); all are genuine graded ring endomorphisms, many are not
realizable by any morphism, which is exactly what the inequality-chain
property needs.  Mutation fuzzing perturbs one matrix entry of a valid map
and classifies the mutant independently of the validator by a direct scan
with the Fraction basis-pair product below.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from collections.abc import Mapping
from fractions import Fraction

from dyndeg import COMMUTATIVE, SUPER_COMMUTATIVE, cli
from dyndeg.abelian import abelian_variety, elliptic_square, exterior_pullback
from dyndeg.core import (Element, GradedAlgebra, ScaledTable, _koszul_sign,
                         _read_table, _validate, build_algebra)
from dyndeg.endo import PullbackMap, _scaled_columns, validate_pullback
from dyndeg.errors import ShapeMismatch, SpectralNonconvergence
from dyndeg.lattice import surface_lattice
from dyndeg.linalg import Matrix, as_fraction, as_matrix, identity, scaled_matrix
from dyndeg.models import EmbeddedModel, exterior_algebra
from dyndeg.projective import (
    multiprojective,
    pn_power_map,
    product_map,
    projective_space,
)
from dyndeg.spectral import _berkowitz, _max_root_modulus


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


def monomials_by_degree(ns):
    """``(by_degree, index)``: the exponent vectors of (P^n_1 x ... x P^n_k)
    in each degree, in descending lexicographic order, and the
    ``(degree, position)`` of each vector among them."""
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


def oracle_scaled_table(top_degree, dims, sign_rule, structure_constants,
                        unit) -> ScaledTable:
    """User structure constants read in two passes, the oracle for
    ``build_algebra``'s one reader: nested ``{(i, j): {(p, q): {k: Fraction}}}``
    blocks (a supplied zero product kept as an empty vector), the unit-forced
    products and the sign-rule mirrors filled in with ``setdefault``, then
    every vector scaled to integers over the lcm of all denominators."""
    table: dict[tuple[int, int], dict] = {}
    for key, value in structure_constants.items():
        try:
            (i, p), (j, q) = key
        except (TypeError, ValueError):
            raise ShapeMismatch(f"bad structure constant key {key!r}") from None
        if not isinstance(value, Mapping):
            raise ShapeMismatch(f"product vector for {key!r} is not a mapping")
        if not (0 <= i <= top_degree and 0 <= j <= top_degree):
            raise ShapeMismatch(f"structure constant degree out of range: {key!r}")
        if not (0 <= p < dims[i] and 0 <= q < dims[j]):
            raise ShapeMismatch(f"structure constant index out of range: {key!r}")
        if i + j > top_degree:
            raise ShapeMismatch(
                f"product of degrees {i} and {j} exceeds top degree {top_degree}"
                " (truncated products must be omitted)"
            )
        for k in value:
            if not (0 <= k < dims[i + j]):
                raise ShapeMismatch(
                    f"product coordinate {k} out of range for degree {i + j}"
                )
        vec = {k: as_fraction(c) for k, c in value.items()}
        table.setdefault((i, j), {})[(p, q)] = {k: c for k, c in vec.items() if c}

    inv_u = 1 / as_fraction(unit)
    for j in range(top_degree + 1):
        for q in range(dims[j]):
            table.setdefault((0, j), {}).setdefault((0, q), {q: inv_u})
            table.setdefault((j, 0), {}).setdefault((q, 0), {q: inv_u})

    # a block with i = j is its own mirror, so it is read from a copy
    for (i, j) in list(table):
        sign = -1 if sign_rule == SUPER_COMMUTATIVE and i * j % 2 else 1
        mirror = table.setdefault((j, i), {})
        for (p, q), vec in list(table[(i, j)].items()):
            if (q, p) not in mirror:
                mirror[(q, p)] = {k: sign * x for k, x in vec.items()}

    den = math.lcm(*(c.denominator for block in table.values()
                     for vec in block.values() for c in vec.values()))
    rows = {(i, j): [{} for _ in range(dims[i])] for i, j in table}
    for (i, j), block in table.items():
        for (p, q), vec in block.items():
            if vec:
                rows[(i, j)][p][q] = tuple(sorted(
                    (k, c.numerator * (den // c.denominator))
                    for k, c in vec.items()))
    return ScaledTable(den, rows)


def oracle_build_algebra(top_degree, dims, sign_rule, structure_constants,
                         integrate, unit=(1,)) -> GradedAlgebra:
    """``build_algebra`` on well-shaped input with the table read by
    :func:`oracle_scaled_table`, validated by the same checks."""
    (u,) = map(as_fraction, unit)
    algebra = GradedAlgebra(
        top_degree, dims, sign_rule,
        oracle_scaled_table(top_degree, dims, sign_rule, structure_constants, u),
        (u,), tuple(map(as_fraction, integrate)))
    _validate(algebra)
    return algebra


def oracle_multiprojective_algebra(ns) -> GradedAlgebra:
    """The algebra of P^n_1 x ... x P^n_k written out monomial by monomial,
    x^a x^b = x^(a+b) on every pair of exponent vectors: the oracle for
    ``multiprojective``'s tensor product."""
    top = 2 * sum(ns)
    by_degree, index = monomials_by_degree(ns)
    dims = [len(by_degree.get(i, ())) for i in range(top + 1)]
    products = {}
    for a, (da, pa) in index.items():
        for b, (db, pb) in index.items():
            c = tuple(x + y for x, y in zip(a, b))
            if da + db <= top and all(x <= n for x, n in zip(c, ns)):
                products[((da, pa), (db, pb))] = {index[c][1]: 1}
    return oracle_build_algebra(top, dims, COMMUTATIVE, products, integrate=(1,))


def oracle_exterior_algebra(g: int) -> GradedAlgebra:
    """The exterior algebra on 2g generators written out subset by subset:
    e_s e_t = (-1)^(inversions of s, t) e_(s u t) on disjoint sorted s, t in
    lexicographic order, the oracle for ``exterior_algebra``'s tensor
    product."""
    n = 2 * g
    subsets = [list(itertools.combinations(range(n), i)) for i in range(n + 1)]
    index = {s: p for by_size in subsets for p, s in enumerate(by_size)}
    products = {}
    for i in range(n + 1):
        for j in range(n + 1 - i):
            for s in subsets[i]:
                for t in subsets[j]:
                    if not set(s) & set(t):
                        inversions = sum(a > b for a in s for b in t)
                        products[((i, index[s]), (j, index[t]))] = {
                            index[tuple(sorted(s + t))]: (-1) ** inversions}
    return oracle_build_algebra(n, [len(by_size) for by_size in subsets],
                                SUPER_COMMUTATIVE, products, integrate=(1,))


def oracle_tensor_table(*factors: GradedAlgebra) -> ScaledTable:
    """The table of ``core.tensor_product(*factors)`` by the route its
    integer build replaced: each product of the words a ``Fraction``
    structure constant over the product of the factors' denominators, the
    products with the unit word left out, all read back by
    ``core._read_table``, which forces those and fills in the mirrors."""
    sign_rule = SUPER_COMMUTATIVE if any(
        a.sign_rule == SUPER_COMMUTATIVE for a in factors) else COMMUTATIVE
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
        for x, y, _, vec in products if x != by_degree[0][0]
    }
    return _read_table(top, [len(ws) for ws in by_degree], sign_rule, structure,
                       math.prod(a.unit_coords[0] for a in factors))


def monomial_substitution(model: EmbeddedModel, targets, scalars) -> PullbackMap:
    """h_i -> scalars[i] * h_{targets[i]} for an arbitrary function ``targets``.

    Valid whenever n_{targets[i]} <= n_i is not needed: repeated targets simply
    truncate to zero.  (Non-injective targets are generally not realizable.)
    """
    ns = [int(s) for s in model.provenance.split(":", 1)[1].split(",")]
    k = len(ns)
    exps_by_degree, index = monomials_by_degree(ns)
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


def tensor_factors():
    """Small validated factors for ``tensor_product``: P^1, P^2, the
    exterior algebra on one class, and a super-commutative algebra with two
    classes in degree 1, a unit of 2 and fractional constants."""
    return (
        projective_space(1).algebra, projective_space(2).algebra,
        build_algebra(1, [1, 1], SUPER_COMMUTATIVE, {}, integrate=(1,)),
        build_algebra(2, [1, 2, 1], SUPER_COMMUTATIVE,
                      {((1, 0), (1, 1)): {0: Fraction(3, 2)}},
                      integrate=(Fraction(2, 3),), unit=(2,)),
    )


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
    return abelian_variety(1, [[1, 0], [0, 1]])


def coords(element: Element) -> tuple[tuple[Fraction, ...], ...]:
    """``coords(element)[i]``: the degree-i component of ``element`` as a
    ``Fraction`` vector; :func:`from_coords` reads it back."""
    return tuple(
        tuple(Fraction(piece.get(k, 0), element.denominator) for k in range(d))
        for d, piece in zip(element.dims, map(dict, element.pieces))
    )


def from_coords(vectors) -> Element:
    """The element with the dense rational coordinate vectors ``vectors``,
    through ``linalg.scaled_matrix``: the dense route that
    ``GradedAlgebra.element`` builds sparse."""
    den, nums = scaled_matrix(vectors)
    return Element.scaled(tuple(map(len, vectors)), den,
                          [dict(enumerate(piece)) for piece in nums])


def lin_comb(*terms) -> Element:
    """sum c a over the pairs ``(c, a)``, c rational, of elements of one
    grading: :func:`coords` summed in ``Fraction`` and rebuilt by
    :func:`from_coords`, a route apart from the product code."""
    assert len({a.dims for _, a in terms}) == 1, "one grading"
    scalars = [Fraction(c) for c, _ in terms]
    return from_coords([
        [sum(map(operator.mul, scalars, column), Fraction(0))
         for column in zip(*vectors)]
        for vectors in zip(*(coords(a) for _, a in terms))])


def omega_h(h) -> dict:
    """omega_H on E^g as generator pairs: H_ii on (2i, 2i+1), and H_ij on
    (2i, 2j+1) and -H_ij on (2i+1, 2j) for i < j."""
    g = len(h)
    omega = {(2 * i, 2 * i + 1): h[i][i] for i in range(g)}
    for i, j in itertools.combinations(range(g), 2):
        omega[2 * i, 2 * j + 1], omega[2 * i + 1, 2 * j] = h[i][j], -h[i][j]
    return omega


def times_i2(a):
    """A (x) I_2, the action of A in End(E^g) on H^1."""
    n = 2 * len(a)
    return [[a[i // 2][j // 2] if i % 2 == j % 2 else 0 for j in range(n)]
            for i in range(n)]


def fraction_block(f: PullbackMap, degree: int) -> Matrix:
    """Block ``degree`` of f* as a ``Fraction`` matrix, read off
    ``f.scaled_blocks``: the tests' view of the integer columns."""
    den, columns = f.scaled_blocks
    cols, zero = columns[degree], Fraction(0)
    return tuple(zip(*(
        [Fraction(c[p], den) if p in c else zero for p in range(len(cols))]
        for c in map(dict, cols))))


def fraction_blocks(f: PullbackMap) -> tuple[Matrix, ...]:
    """:func:`fraction_block` of every degree."""
    return tuple(fraction_block(f, k) for k in range(len(f.scaled_blocks[1])))


def closure_blocks(closure) -> tuple[tuple[int, Matrix], ...]:
    """A Gromov closure's ``(degree, (D, A))`` blocks as ``(degree, A / D)``,
    ``Fraction`` matrices."""
    return tuple((degree, tuple(tuple(Fraction(x, den) for x in row)
                                for row in rows))
                 for degree, (den, rows) in closure.blocks)


def scaled(matrix) -> tuple[int, list[list[int]]]:
    """``(D, D * matrix)``: a rational matrix in the integer form that
    ``spectral.scaled_radius`` and ``spectral.exterior_radii`` take."""
    return scaled_matrix(as_matrix(matrix))


def integer_poly(coeffs) -> tuple[int, ...]:
    """The rational polynomial ``coeffs`` times the lcm of its
    denominators: the integer form the spectral kernel takes."""
    return tuple(scaled_matrix([[Fraction(c) for c in coeffs]])[1][0])


def apply_blocks(algebra: GradedAlgebra, blocks, element):
    """Apply raw per-degree matrices to an element (no validation)."""
    return from_coords(
        tuple(
            mat_vec(tuple(tuple(row) for row in m), piece) if piece else ()
            for m, piece in zip(blocks, coords(element))
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
                basis_product(algebra, a, b),
            )
            rhs = mul_vectors(algebra, i, images[a], j, images[b])
            if tuple(lhs) != tuple(rhs):
                return (a, b)
    return None


def perfbench_workload(monkeypatch, name):
    """The benchmark's seed-0 workload ``name``, from
    ``perfbench/workloads.py``, and its golden report hashes."""
    import importlib.util
    import sys
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", root / "perfbench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve the module's annotations through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    golden = json.loads((root / "perfbench" / "golden.json").read_text("utf-8"))
    return module.generate(name, 0, root), golden[name]


def run_config(cfg: dict) -> dict:
    """``cli.run``'s results on the config ``cfg``, its model and map built
    first, as ``cli.main`` builds them."""
    config = cli.parse_config(json.dumps(cfg))
    return cli.run(config, *cli.build_model_and_map(config))


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
        [[x for x in row] for row in block] for block in fraction_blocks(pull)
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
# Fraction oracles: the rational kernels that the integer ones replaced, and
# the references that no command runs (matrix products and traces, map
# powers, pointwise dynamical degrees, Gram determinants); the product reads
# only the structure table's entries, never its kernel
# ---------------------------------------------------------------------------

def pair_by_product(algebra: GradedAlgebra, a: Element, b: Element) -> Fraction:
    """The intersection pairing as the integral of :func:`fraction_mul`:
    the reference for ``GradedAlgebra.pair`` and its pairing form."""
    return algebra.integrate(fraction_mul(algebra, a, b))


def basis_product(algebra: GradedAlgebra, a, b):
    """Coordinates of e_a * e_b in degree |a|+|b| (empty beyond top): the
    scaled table's entries over its denominator."""
    degree = a[0] + b[0]
    if degree > algebra.top_degree:
        return ()
    table = algebra.scaled_table
    vec = [Fraction(0)] * algebra.dims[degree]
    for k, v in table.product(a, b):
        vec[k] = Fraction(v, table.denominator)
    return tuple(vec)


def mul_vectors(algebra: GradedAlgebra, i, va, j, vb):
    """Product of homogeneous coordinate vectors of degrees i and j, summed
    over basis pairs in Fraction; lands in degree i + j."""
    if i + j > algebra.top_degree:
        return ()
    out = [Fraction(0)] * algebra.dims[i + j]
    for p, x in enumerate(va):
        for q, y in enumerate(vb):
            if x and y:
                for k, c in enumerate(basis_product(algebra, (i, p), (j, q))):
                    out[k] += x * y * c
    return tuple(out)


def fraction_mul(algebra: GradedAlgebra, a: Element, b: Element) -> Element:
    """a * b from :func:`mul_vectors` on every pair of graded pieces."""
    out = [[Fraction(0)] * d for d in algebra.dims]
    for i, pa in enumerate(coords(a)):
        for j, pb in enumerate(coords(b)):
            for k, c in enumerate(mul_vectors(algebra, i, pa, j, pb)):
                out[i + j][k] += c
    return from_coords(out)


def replay_words(closure):
    """The values of a Gromov closure's recipes, each evaluated once, in
    order, with :func:`fraction_mul` and :func:`apply_blocks`; None if a
    recipe names no earlier one."""
    alg, blocks = closure.algebra, fraction_blocks(closure.pullback)
    values = []
    for tag, *args in closure.words:
        if not all(0 <= i < len(values) for i in args):
            return None
        if tag == "one":
            values.append(alg.one())
        elif tag == "omega":
            values.append(closure.omega)
        elif tag == "pull":
            values.append(apply_blocks(alg, blocks, values[args[0]]))
        else:
            values.append(fraction_mul(alg, values[args[0]], values[args[1]]))
    return values


def replay_certificates(closure) -> bool:
    """Whether the words of a Gromov closure certify its basis: replayed by
    :func:`replay_words`, in each degree the values and the basis vectors
    there are independent, as many, and span one space (compared as their
    :class:`FractionEchelon` bases), and each basis vector is 1 at its own
    pivot and 0 at the others'."""
    values = replay_words(closure)
    if values is None:
        return False
    degrees = {e.degrees() for e in (*values, *closure.basis)}
    if any(len(ds) != 1 for ds in degrees):  # zero or inhomogeneous
        return False
    for (d,) in degrees:
        gens = [coords(v)[d] for v in values if v.degrees() == (d,)]
        vecs = [coords(b)[d] for b in closure.basis if b.degrees() == (d,)]
        pivots = [next(k for k, x in enumerate(v) if x) for v in vecs]
        if any(v[p] != int(i == j) for i, v in enumerate(vecs)
               for j, p in enumerate(pivots)):
            return False
        spans = []
        for rows in (gens, vecs):
            ech = FractionEchelon(closure.algebra.dims[d])
            if not all(ech.insert(row, {}) for row in rows):
                return False
            spans.append(ech.basis())
        if len(gens) != len(vecs) or spans[0] != spans[1]:
            return False
    return True


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


def det_wedge_blocks(matrix):
    """The blocks wedge^k (matrix^T), k = 0..n, of ``exterior_pullback``,
    with every entry a separate :func:`fraction_det` of a minor: the
    reference for the letter products that build them there."""
    b = tuple(zip(*as_matrix(matrix)))
    blocks = []
    for k in range(len(b) + 1):
        subsets = list(itertools.combinations(range(len(b)), k))
        blocks.append(tuple(
            tuple(fraction_det([[b[a][c] for c in t] for a in s])
                  for t in subsets)
            for s in subsets
        ))
    return tuple(blocks)


def exterior_char_polys(matrix) -> list[list[Fraction]]:
    """``[char_poly(wedge^k M) for k = 0..n]`` for an n x n matrix M, from M
    alone: the route ``exterior_radii`` replaced, kept as its oracle.

    With A = D*M integer, the power sums of the eigenvalues of wedge^k A
    are tr((wedge^k A)^m) = e_k(A^m), (-1)^k times coefficient k of
    det(xI - A^m): one n x n polynomial per m, shared by every k, for m up
    to C(n, k).  Newton's identities m c_m = -(p_m + c_1 p_(m-1) + ... +
    c_(m-1) p_1) give the coefficients c_m of det(xI - wedge^k A), each
    division exact in ``int``; coefficient i of det(xI - wedge^k M) is c_i
    over D^(k i).
    """
    den, a = scaled_matrix(as_matrix(matrix))
    n = len(a)
    # polys[m - 1] = det(xI - A^m), for m up to the largest C(n, k)
    polys, power = [], a
    for m in range(1, math.comb(n, n // 2) + 1):
        if m > 1:
            power = mat_mul(power, a)
        polys.append(_berkowitz(power))
    out = []
    for k in range(n + 1):
        sign = -1 if k % 2 else 1
        sums = [sign * q[k] for q in polys[:math.comb(n, k)]]
        coeffs = [1]
        for m in range(1, len(sums) + 1):
            total = sums[m - 1] + sum(
                c * p for c, p in zip(coeffs[1:], reversed(sums[:m - 1])))
            coeffs.append(-total // m)
        scale = den**k
        out.append([Fraction(c, scale**i) for i, c in enumerate(coeffs)])
    return out


def oracle_exterior_radii(matrix, tol=1e-9):
    """``(rho, error_bound)`` of each exterior power of ``matrix``: the
    integer certifier on each polynomial of :func:`exterior_char_polys`."""
    return [_max_root_modulus.__wrapped__(integer_poly(p), tol)
            for p in exterior_char_polys(matrix)]


def gram_matrix(algebra: GradedAlgebra, degree: int):
    """Pairing matrix of the degree-``degree`` basis against the
    complementary one."""
    comp = algebra.top_degree - degree
    return tuple(
        tuple(pair_by_product(algebra, algebra.basis_element(degree, p),
                              algebra.basis_element(comp, q))
              for q in range(algebra.dims[comp]))
        for p in range(algebra.dims[degree])
    )


def poincare_determinants(algebra: GradedAlgebra):
    """Per degree, the :func:`fraction_det` of its :func:`gram_matrix`, or
    None when the Gram matrix is not square.  The pairing is nondegenerate
    (Poincare duality) exactly when every entry is neither None nor 0."""
    dims, top = algebra.dims, algebra.top_degree
    return [fraction_det(gram_matrix(algebra, i))
            if dims[i] == dims[top - i] else None for i in range(top + 1)]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if a and b and len(a[0]) != len(b):
        raise ShapeMismatch("inner dimensions differ")
    cols = len(b[0]) if b else 0
    return tuple(
        tuple(sum(arow[k] * b[k][j] for k in range(len(b))) for j in range(cols))
        for arow in a
    )


def trace(a: Matrix) -> Fraction:
    return sum((a[i][i] for i in range(len(a))), Fraction(0))


def mat_vec(m, v):
    """The matrix ``m`` times the vector ``v``."""
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in m)


def mat_pow(a, m: int):
    """``a^m`` for square ``a`` and m >= 0, by repeated squaring."""
    if m < 0:
        raise ShapeMismatch("negative matrix power")
    result = identity(len(a))
    while m:
        if m & 1:
            result = mat_mul(result, a)
        m >>= 1
        if m:
            a = mat_mul(a, a)
    return result


def power_map(f: PullbackMap, m: int) -> PullbackMap:
    """f^{m*}: per-degree matrix powers via repeated squaring.

    The result is a ring homomorphism by construction, so it is not
    re-validated.
    """
    if m < 1:
        raise ShapeMismatch("map power requires m >= 1")
    if m == 1:
        return f
    return PullbackMap(
        f.algebra,
        _scaled_columns([mat_pow(b, m) if b else ()
                         for b in fraction_blocks(f)]),
        realizability=f.realizability,
    )


def delta(model: EmbeddedModel, f: PullbackMap, m: int, j: int) -> Fraction:
    """The intersection number pair(h^{r-j}, f^{m*}(h^j)).

    Computed from power_map(f, m) by repeated squaring, independently of
    ``degrees.delta_table``, so it serves as the reference the table is
    tested against.
    """
    if not (0 <= j <= model.r):
        raise ShapeMismatch(f"j must be in [0, {model.r}]")
    if m < 1:
        raise ShapeMismatch("m must be >= 1")
    alg = model.algebra
    hj = alg.power(model.h, j)
    comp = alg.power(model.h, model.r - j)
    return pair_by_product(alg, comp, power_map(f, m).apply(hj))


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

    def contains(self, vector):
        vec, _ = self._reduce([Fraction(x) for x in vector], {})
        return not any(vec)

    def basis(self):
        return [tuple(row) for row in self.rows]


# ---------------------------------------------------------------------------
# Fraction polynomial helpers: the oracle's own, sharing no code with the
# integer square-free part in ``dyndeg.spectral``
# ---------------------------------------------------------------------------

def _poly_strip_zero_roots(coeffs: list[Fraction]) -> list[Fraction]:
    out = list(coeffs)
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def _poly_derivative(coeffs: list[Fraction]) -> list[Fraction]:
    n = len(coeffs) - 1
    return [c * (n - i) for i, c in enumerate(coeffs[:-1])]


def _poly_divmod(num, den):
    num = list(num)
    q = [Fraction(0)] * max(0, len(num) - len(den) + 1)
    for i in range(len(q)):
        f = num[i] / den[0]
        q[i] = f
        for j, d in enumerate(den):
            num[i + j] -= f * d
    rem = num[len(q):]
    while rem and rem[0] == 0:
        rem.pop(0)
    return q, rem


def _poly_gcd(a, b):
    a, b = list(a), list(b)
    while b:
        _, r = _poly_divmod(a, b)
        if r:
            lead = r[0]
            r = [c / lead for c in r]
        a, b = b, r
    lead = a[0]
    return [c / lead for c in a]


def _squarefree_part(coeffs: list[Fraction]) -> list[Fraction]:
    if len(coeffs) <= 2:
        return list(coeffs)
    g = _poly_gcd(coeffs, _poly_derivative(coeffs))
    if len(g) == 1:
        return list(coeffs)
    q, _ = _poly_divmod(coeffs, g)
    return q


def _cauchy_bound(coeffs: list[Fraction]) -> Fraction:
    """All roots of the monic polynomial have modulus <= 1 + max |a_i|."""
    lead = coeffs[0]
    tail = [c / lead for c in coeffs[1:]]
    return 1 + max((abs(c) for c in tail), default=Fraction(0))


def _monic_squarefree_part(coeffs) -> list[Fraction]:
    """The monic square-free part of ``coeffs`` without its zero roots."""
    p = _poly_strip_zero_roots([Fraction(c) for c in coeffs])
    lead = p[0]
    return _squarefree_part([c / lead for c in p])


def fraction_squarefree_part(coeffs) -> list[int]:
    """The square-free part by the ``Fraction`` route: zero roots stripped,
    made monic, divided by its gcd with p', then cleared by the lcm of its
    denominators.  The reference for ``spectral._squarefree_part``."""
    q = _monic_squarefree_part(coeffs)
    den = math.lcm(*(c.denominator for c in q))
    return [c.numerator * (den // c.denominator) for c in q]


def _poly_sub(a, b):
    """a - b, aligned on the constant term, without leading zeros."""
    n = max(len(a), len(b))
    a, b = [0] * (n - len(a)) + list(a), [0] * (n - len(b)) + list(b)
    out = [x - y for x, y in zip(a, b)]
    while out and out[0] == 0:
        out.pop(0)
    return out


def fraction_multiplicities(coeffs):
    """``(zeros, [(q, m), ...])`` by Yun's square-free decomposition in
    ``Fraction``: the multiplicity of the root 0, and for each multiplicity
    m of the other roots the monic product q of their x - a.  The reference
    for ``spectral._multiplicities``."""
    coeffs = [Fraction(c) for c in coeffs]
    p = _poly_strip_zero_roots(coeffs)
    zeros = len(coeffs) - len(p)
    p = [c / p[0] for c in p]
    if len(p) == 1:
        return zeros, []
    dp = _poly_derivative(p)
    a = _poly_gcd(p, dp)
    b, c = _poly_divmod(p, a)[0], _poly_divmod(dp, a)[0]
    d = _poly_sub(c, _poly_derivative(b))
    out, m = [], 1
    while len(b) > 1:
        a = _poly_gcd(b, d)
        if len(a) > 1:
            out.append((a, m))
        b, c = _poly_divmod(b, a)[0], _poly_divmod(d, a)[0]
        d = _poly_sub(c, _poly_derivative(b))
        m += 1
    return zeros, out


def mpmath_max_root_modulus(coeffs, tol):
    """Certified ``(rho, error_bound)`` by mpmath's ``polyroots`` and Newton
    inclusion disks of radius 2n|p/p'| in mp floats: the certifier that the
    integer one replaced, kept as its oracle."""
    p = _monic_squarefree_part(coeffs)
    if len(p) == 1:
        return 0.0, 0.0
    if len(p) == 2:
        rho = abs(float(p[1]))
        exact = rho == abs(p[1])
        return rho, 0.0 if exact else rho * 2.0**-52
    import mpmath

    n = len(p) - 1
    cauchy = float(_cauchy_bound(p))

    best = (0.0, cauchy)
    dps = 40
    for _ in range(6):
        with mpmath.workdps(dps):
            mp_coeffs = [
                mpmath.mpf(c.numerator) / mpmath.mpf(c.denominator) for c in p
            ]
            try:
                roots = mpmath.polyroots(
                    mp_coeffs, maxsteps=200, extraprec=dps * 4
                )
            except mpmath.mp.NoConvergence:
                dps *= 2
                continue
            deriv = [c * (n - i) for i, c in enumerate(mp_coeffs[:-1])]

            def ev(cs, z):
                acc = mpmath.mpc(0)
                for c in cs:
                    acc = acc * z + c
                return acc

            disks = []
            ok = True
            for z in roots:
                val = ev(mp_coeffs, z)
                dval = ev(deriv, z)
                if dval == 0:
                    ok = False
                    break
                disks.append((z, 2 * n * abs(val) / abs(dval)))
            if ok:
                for i in range(len(disks)):
                    for j in range(i + 1, len(disks)):
                        if (
                            abs(disks[i][0] - disks[j][0])
                            <= disks[i][1] + disks[j][1]
                        ):
                            ok = False
                            break
                    if not ok:
                        break
            if ok:
                rho = max(abs(z) for z, _ in disks)
                err = max(r for _, r in disks)
                rho_f = min(float(rho), cauchy)
                err_f = float(err) + 1e-15 * max(1.0, rho_f)
                best = (rho_f, err_f)
                if err_f <= tol * max(1.0, rho_f):
                    return rho_f, err_f
        dps *= 2
    raise SpectralNonconvergence(best[0], best[1])


# ---------------------------------------------------------------------------
# the canonical report bytes through json's own encoder
# ---------------------------------------------------------------------------

def encode_value(value):
    """Recursively convert report values to canonical JSON-ready objects."""
    if isinstance(value, Fraction):
        return {"num": str(value.numerator), "den": str(value.denominator)}
    if isinstance(value, float):
        return float(format(value, ".12g"))
    if value is None or isinstance(value, (int, str)):  # a bool is an int
        return value
    if isinstance(value, (list, tuple)):
        return [encode_value(v) for v in value]
    if isinstance(value, Mapping):
        return {str(k): encode_value(v) for k, v in value.items()}
    raise TypeError(f"cannot encode {value!r}")


def canonical_json(obj) -> str:
    """The canonical report bytes through ``json``'s own encoder: the
    reference for the one-pass ``cli.dumps_canonical``."""
    return json.dumps(encode_value(obj), sort_keys=True, indent=2) + "\n"
