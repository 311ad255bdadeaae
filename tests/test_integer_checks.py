"""The integer product kernel and checks against Fraction reference checks.

``core._validate``, ``endo.validate_pullback`` and ``GradedAlgebra.mul`` all
multiply on the one integer structure table, scaled by a common denominator.
The reference checks below scan every basis vector, pair and triple in
``Fraction`` with the basis-pair oracles of ``support`` (which read each basis
product as the table's entries over its denominator); they are the only full
scans left.  The validators check associativity and multiplicativity on
generators only (Light's test), so on every mutant both must accept, or both
reject with the same violation class; a unit or sign violation names the same
basis vector or pair, an associativity violation names a triple that really
fails to associate under the oracle, and on the pullback mutants here the
multiplicativity check names the oracle's first failing pair.  Patching the
generators to a set that does not span lets known defects through, which
shows that the spanning set is what makes the checks complete.
``GradedAlgebra.mul``, ``Element`` sums and multiples, ``PullbackMap.apply``,
``integrate`` and ``pair`` are compared with Fraction oracles on random
elements of algebras whose constants are non-integer, and the certificate
replay and the delta table are checked to do no Fraction arithmetic; the
Gromov closures' words are replayed with the oracle product in ``test_gromov.py``.
"""

import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyndeg import core
from dyndeg.abelian import abelian_variety, elliptic_square
from dyndeg.core import SUPER_COMMUTATIVE, ScaledTable, build_algebra
from dyndeg.degrees import delta_table
from dyndeg.endo import PullbackMap, _scaled_columns, validate_pullback
from dyndeg.errors import (
    AssociativityViolation,
    DynDegError,
    MultiplicativityViolation,
    ShapeMismatch,
    SignRuleViolation,
    UnitViolation,
)
from dyndeg.gromov import gromov_closure
from dyndeg.lattice import surface_lattice
from dyndeg.models import exterior_algebra
from dyndeg.projective import (
    multiprojective,
    pn_power_map,
    product_map,
    projective_space,
)

from support import (
    apply_blocks,
    basis_product,
    builder_battery,
    coords,
    fraction_blocks,
    fraction_mul,
    from_coords,
    lin_comb,
    mul_vectors,
    multiplicativity_witness,
    mutate_blocks,
    scalar_power_pullback,
    times_i2,
)


# ---------------------------------------------------------------------------
# reference Fraction checks
# ---------------------------------------------------------------------------

def reference_algebra_check(algebra):
    """Unit law, sign rule and associativity in Fraction, in the validator's
    order; raises the first violation."""
    one = algebra.one()
    basis = list(algebra.basis())
    for b in basis:
        e = algebra.basis_element(*b)
        if fraction_mul(algebra, one, e) != e or (
            fraction_mul(algebra, e, one) != e
        ):
            raise UnitViolation(b)
    positive = [b for b in basis if b[0] >= 1]
    top = algebra.top_degree
    for a in positive:
        for b in positive:
            i, j = a[0], b[0]
            if i + j > top:
                continue
            sign = -1 if (
                algebra.sign_rule == SUPER_COMMUTATIVE and i * j % 2
            ) else 1
            ab = basis_product(algebra, a, b)
            ba = basis_product(algebra, b, a)
            if ab != tuple(sign * x for x in ba):
                raise SignRuleViolation((a, b))
    for a in positive:
        for b in positive:
            if a[0] + b[0] >= top:
                continue
            for c in positive:
                if a[0] + b[0] + c[0] <= top and not associates(algebra, a, b, c):
                    raise AssociativityViolation((a, b, c))


def associates(algebra, a, b, c):
    """(e_a e_b) e_c = e_a (e_b e_c), in Fraction with the oracle product."""
    left = mul_vectors(algebra, a[0] + b[0], basis_product(algebra, a, b),
                       c[0], _unit_vector(algebra, c))
    right = mul_vectors(algebra, a[0], _unit_vector(algebra, a),
                        b[0] + c[0], basis_product(algebra, b, c))
    return left == right


def _unit_vector(algebra, b):
    vec = [Fraction(0)] * algebra.dims[b[0]]
    vec[b[1]] = Fraction(1)
    return tuple(vec)


def outcome(check, *args):
    """``None`` when ``check`` accepts, else the raised violation's payload."""
    try:
        check(*args)
    except DynDegError as exc:
        return exc.payload()
    return None


def pullback_outcome(algebra, blocks):
    """The Fraction witness from tests/support.py as a violation payload."""
    witness = multiplicativity_witness(algebra, blocks)
    if witness is None:
        return None
    if witness == "unit":
        return UnitViolation(
            message="pullback does not fix the unit: f*(1) != 1"
        ).payload()
    return MultiplicativityViolation(witness).payload()


# ---------------------------------------------------------------------------
# algebras: structure constants, rescaled bases, mutants
# ---------------------------------------------------------------------------

def structure_constants(algebra, scales=None):
    """Every product of basis vectors, optionally in the basis s_b * e_b.

    With e'_b = s_b e_b the constants become s_a s_b / s_k * c_k, which are
    non-integer for non-integer scales; the algebra is the same.
    """
    s = scales or {}
    products = {}
    for a in algebra.basis():
        for b in algebra.basis():
            if a[0] + b[0] > algebra.top_degree:
                continue
            vec = basis_product(algebra, a, b)
            k_deg = a[0] + b[0]
            products[(a, b)] = {
                k: c * s.get(a, 1) * s.get(b, 1) / s.get((k_deg, k), 1)
                for k, c in enumerate(vec) if c
            }
    return products


def rebuild(algebra, products, scales=None, validate=True):
    s = scales or {}
    top = algebra.top_degree
    integrate = [
        w * s.get((top, k), 1) for k, w in enumerate(algebra.integrate_coords)
    ]
    args = (top, algebra.dims, algebra.sign_rule, products, integrate,
            algebra.unit_coords)
    if validate:
        return build_algebra(*args)
    with mock.patch.object(core, "_validate", lambda alg: None):
        return build_algebra(*args)


def random_scales(rng, algebra):
    return {
        b: Fraction(rng.choice((1, 2, 3, 5)), rng.choice((1, 2, 3, 4)))
        * rng.choice((1, -1))
        for b in algebra.basis() if b[0] >= 1
    }


def with_unit(algebra, u):
    """The same ring presented with unit u e_(0,0), so e_(0,0) acts as 1/u."""
    products = {
        key: vec for key, vec in structure_constants(algebra).items()
        if key[0][0] and key[1][0]
    }
    return build_algebra(
        algebra.top_degree, algebra.dims, algebra.sign_rule, products,
        algebra.integrate_coords, (u,),
    )


ALGEBRA_HOSTS = [
    with_unit(multiprojective([1, 1, 1]).algebra, Fraction(2, 3)),
    with_unit(exterior_algebra(1), Fraction(-3, 2)),
    projective_space(2).algebra,
    projective_space(3).algebra,
    multiprojective([1, 1]).algebra,
    multiprojective([1, 1, 1]).algebra,
    multiprojective([2, 1]).algebra,
    exterior_algebra(1),
    exterior_algebra(2),
    surface_lattice([[1, 0], [0, -2]], [[3, 4], [2, 3]], [1, 0])[0].algebra,
]


def mutate_products(rng, algebra, products):
    """Bump one coordinate of one product: on one side only (sign rule), on
    both sides with the sign rule kept (associativity), or a product with the
    unit (unit law)."""
    products = {key: dict(value) for key, value in products.items()}
    keys = list(products)
    kind = rng.choice(("one-sided", "symmetric", "symmetric", "unit"))
    if kind == "unit":
        keys = [k for k in keys if k[0][0] == 0 or k[1][0] == 0]
    else:
        keys = [k for k in keys if k[0][0] >= 1 and k[1][0] >= 1]
    a, b = rng.choice(keys)
    target = a[0] + b[0]
    k = rng.randrange(algebra.dims[target])
    bump = Fraction(rng.choice((-2, -1, 1, 2)), rng.choice((1, 1, 2, 3)))
    products[(a, b)][k] = products[(a, b)].get(k, 0) + bump
    if kind == "symmetric" and a != b:
        sign = -1 if (
            algebra.sign_rule == SUPER_COMMUTATIVE and a[0] * b[0] % 2
        ) else 1
        products[(b, a)][k] = products[(b, a)].get(k, 0) + sign * bump
    return products


class TestIntegerAlgebraChecks:
    @pytest.mark.parametrize("index", range(len(ALGEBRA_HOSTS)))
    def test_valid_hosts_pass_both_checks(self, index):
        host = ALGEBRA_HOSTS[index]
        assert outcome(reference_algebra_check, host) is None
        assert outcome(core._validate, host) is None

    def test_mutants_get_the_same_verdict_and_a_true_witness(self):
        # the unit and sign loops scan as the reference does, so they name
        # the same vector or pair; associativity is checked on generators
        # only, so its triple may differ, but must really fail to associate
        rng = random.Random(20261018)
        verdicts = set()
        for trial in range(300):
            host = rng.choice(ALGEBRA_HOSTS)
            scales = random_scales(rng, host) if trial % 2 else None
            products = mutate_products(
                rng, host, structure_constants(host, scales)
            )
            mutant = rebuild(host, products, scales, validate=False)
            expected = outcome(reference_algebra_check, mutant)
            got = outcome(core._validate, mutant)
            verdict = expected and expected["error"]
            assert (got and got["error"]) == verdict, trial
            if verdict == "AssociativityViolation":
                x, s, y = map(tuple, got["triple"])
                assert not associates(mutant, x, s, y), trial
            else:
                assert got == expected, trial
            verdicts.add(verdict)
        # the fuzzer reaches every verdict
        assert verdicts == {
            None, "UnitViolation", "SignRuleViolation", "AssociativityViolation"
        }

    def test_non_integer_structure_constants(self):
        # (P^1)^3 in the basis h1/2, 3 h2, h1 h3 / 5, 7 h1 h2 h3 / 4
        host = multiprojective([1, 1, 1]).algebra
        scales = {(2, 0): Fraction(1, 2), (2, 1): Fraction(3),
                  (4, 1): Fraction(1, 5), (6, 0): Fraction(7, 4)}
        products = structure_constants(host, scales)
        assert any(
            c.denominator > 1 for vec in products.values() for c in vec.values()
        )
        alg = rebuild(host, products, scales)
        assert alg.scaled_table.denominator > 1
        # h1 * h1 = 0 must stay zero: h1 h1 = (h1 h3) / 3 breaks
        # (h1 h1) h2 = h1 (h1 h2)
        bad = {key: dict(value) for key, value in products.items()}
        bad[((2, 0), (2, 0))] = {0: Fraction(1, 3)}
        mutant = rebuild(host, bad, scales, validate=False)
        expected = outcome(reference_algebra_check, mutant)
        assert expected is not None
        assert expected["error"] == "AssociativityViolation"
        with pytest.raises(AssociativityViolation) as exc:
            rebuild(host, bad, scales)
        assert exc.value.payload() == expected

    def test_a_sign_violation_names_the_first_pair_of_the_full_scan(self):
        # the sign loop scans only pairs a <= b in the basis; on a custom
        # algebra whose products break the sign rule in two pairs, it names
        # the pair that the reference scan over every ordered pair finds
        # first, and building the model raises that payload
        from dyndeg.custom import custom_model

        gram = [[1, 2, 3], [2, 0, 1], [3, 1, 1]]
        products = [{"a": [2, p], "b": [2, q], "value": {"0": gram[p][q]}}
                    for p in range(3) for q in range(3)]
        products[2 * 3 + 1]["value"] = {"0": 5}  # h2 h1 = 5, h1 h2 = 1
        products[2 * 3 + 0]["value"] = {"0": -3}  # h2 h0 = -3, h0 h2 = 3
        params = {"top_degree": 4, "dims": [1, 0, 3, 0, 1],
                  "products": products, "integrate": [1], "h": [1, 0, 0],
                  "ambient_dim": 4}
        with mock.patch.object(core, "_validate", lambda alg: None):
            mutant = custom_model(params).algebra
        expected = outcome(reference_algebra_check, mutant)
        assert expected == SignRuleViolation(((2, 0), (2, 2))).payload()
        assert outcome(core._validate, mutant) == expected
        with pytest.raises(SignRuleViolation) as exc:
            custom_model(params)
        assert exc.value.payload() == expected

    def test_unknown_sign_rule_is_still_rejected(self):
        host = projective_space(1).algebra
        with pytest.raises(ShapeMismatch):
            build_algebra(2, host.dims, "graded", {}, (1,))


# ---------------------------------------------------------------------------
# Light's test: associativity and multiplicativity checked on generators
# ---------------------------------------------------------------------------

def patched_generators(subset):
    return mock.patch.object(
        core.GradedAlgebra, "generators", property(lambda self: subset)
    )


class TestLightsTest:
    def test_builder_battery_generators(self):
        for name, model, _ in builder_battery():
            alg = model.algebra
            if name.startswith("ExE"):  # exterior: the degree-1 basis
                expected = [(1, p) for p in range(4)]
            else:  # the degree-2 basis: h on P^n, the h_i on (P^n)^k, and
                # the lattice on surfaces
                expected = [(2, p) for p in range(alg.dims[2])]
            assert list(alg.generators) == expected, name
        assert exterior_algebra(3).generators == tuple((1, p) for p in range(6))
        assert multiprojective([2, 1]).algebra.generators == ((2, 0), (2, 1))

    def test_a_subset_that_does_not_span_misses_an_associativity_defect(self):
        # (P^1)^3 with h1 h1 = h1 h2: (h1 h1) h3 != h1 (h1 h3) = 0.  With
        # S = {h3} no check multiplies two degree-2 classes together, and
        # h3 alone does not span, so the defect passes unseen
        host = multiprojective([1, 1, 1]).algebra
        products = structure_constants(host)
        products[((2, 0), (2, 0))] = {0: Fraction(1)}
        mutant = rebuild(host, products, validate=False)
        assert outcome(reference_algebra_check, mutant)["error"] == (
            "AssociativityViolation"
        )
        with patched_generators(((2, 2),)):
            core._validate(mutant)
        with pytest.raises(AssociativityViolation) as exc:
            core._validate(mutant)
        assert not associates(mutant, *exc.value.triple)

    def test_a_subset_that_does_not_span_misses_a_multiplicativity_defect(self):
        # on P^1 x P^1, f(h1) = h1, f(h2) = h1 + h2, f(h1 h2) = h1 h2:
        # f(h2)^2 = 2 h1 h2 != f(h2^2) = 0, seen only with s = h2
        model = multiprojective([1, 1])
        blocks = [[[1]], [], [[1, 1], [0, 1]], [], [[1]]]
        assert multiplicativity_witness(model.algebra, blocks) == (
            (2, 1), (2, 1)
        )
        with patched_generators(((2, 0),)):
            validate_pullback(model.algebra, blocks)
        with pytest.raises(MultiplicativityViolation) as exc:
            validate_pullback(model.algebra, blocks)
        assert exc.value.pair == ((2, 1), (2, 1))

    def test_g3_work_count_is_under_half_the_full_loops(self, monkeypatch):
        # ScaledTable.multiply calls to build exterior_algebra(3) and validate
        # a g = 3 pullback: 38,683 with the loops over every basis triple and
        # pair, 8,544 on generators, 372 once the tensor product was no
        # longer validated (the pullback's check alone)
        a = [[1, -1, 2], [2, 1, -1], [-1, 2, 1]]
        matrix = times_i2(a)
        blocks = [[list(row) for row in b]
                  for b in fraction_blocks(abelian_variety(3, matrix)[1])]
        calls = []
        multiply = ScaledTable.multiply

        def counted(self, *args):
            calls.append(None)
            return multiply(self, *args)

        monkeypatch.setattr(ScaledTable, "multiply", counted)
        algebra = exterior_algebra.__wrapped__(3)
        validate_pullback(algebra, blocks)
        assert len(calls) <= 38683 // 2


def scaled_battery_algebras():
    """Each battery algebra in a random rational basis, with a unit that is
    not 1, so the structure constants are non-integer."""
    rng = random.Random(909)
    algebras = {id(m.algebra): m.algebra for _, m, _ in builder_battery()}
    out = []
    for alg in algebras.values():
        scales = random_scales(rng, alg)
        scaled = rebuild(alg, structure_constants(alg, scales), scales)
        out.append(with_unit(scaled, rng.choice((Fraction(2, 3), Fraction(-5, 2)))))
    return out


SCALED_BATTERY = scaled_battery_algebras()

coefficients = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
)


def elements(algebra):
    """Random inhomogeneous elements, many coordinates zero."""
    return st.tuples(
        *(st.tuples(*(coefficients,) * d) for d in algebra.dims)
    ).map(from_coords)


def linear_maps(algebra):
    """Random rational per-degree blocks: linear, not validated."""
    return st.tuples(*(
        st.tuples(*(st.tuples(*(coefficients,) * d),) * d)
        for d in algebra.dims
    ))


def fraction_sum(xs):
    return sum(xs, Fraction(0))


class TestProductAgainstOracle:
    def test_the_hosts_have_non_integer_constants(self):
        for alg in SCALED_BATTERY:
            assert alg.scaled_table.denominator > 1
            assert alg.unit_coords[0] != 1

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_mul_matches_the_basis_pair_oracle(self, data):
        alg = data.draw(st.sampled_from(SCALED_BATTERY))
        a, b = data.draw(elements(alg)), data.draw(elements(alg))
        c = data.draw(coefficients)
        blocks = data.draw(linear_maps(alg))
        ab = fraction_mul(alg, a, b)
        assert alg.mul(a, b) == ab
        # images and integrals against Fraction sums
        assert PullbackMap(alg, _scaled_columns(blocks)).apply(a) == apply_blocks(
            alg, blocks, a)
        top, w = alg.top_degree, alg.integrate_coords
        assert alg.integrate(a) == fraction_sum(
            x * y for x, y in zip(coords(a)[top], w))
        assert alg.pair(a, b) == fraction_sum(
            x * y for x, y in zip(coords(ab)[top], w))
        # one rational reached by different routes: one Element, one hash
        s = lin_comb((1, a), (1, b))
        routes = [
            s, lin_comb((1, b), (1, a)), lin_comb((1, a), (-1, b), (2, b)),
            lin_comb((Fraction(1, 3), lin_comb((3, a), (3, b)))),
            lin_comb((c, a), (1, s), (-c, a)), alg.mul(alg.one(), s),
            alg.element({(d, k): x for d, piece in enumerate(coords(s))
                         for k, x in enumerate(piece)}),
        ]
        assert all(x == routes[0] for x in routes)
        assert len({hash(x) for x in routes}) == 1
        zero = alg.element({})
        assert lin_comb((1, a), (-1, a)) == zero == lin_comb((0, b))
        assert hash(lin_comb((1, a), (-1, a))) == hash(zero)

    def test_element_kernels_do_no_fraction_arithmetic(self, monkeypatch):
        # count Fraction operators that compute a value, not those that
        # return NotImplemented for an operand they do not know
        model, f = elliptic_square([[1, 1], [1, 0]])
        closure = gromov_closure(f, model.h)
        p3 = projective_space(3)
        g = scalar_power_pullback(p3, Fraction(3, 2))
        alg = model.algebra
        a = alg.homogeneous(2, [Fraction(1, 3), 2, 0, Fraction(-5, 7), 1, 1])
        x, y = lin_comb((Fraction(5, 3), a)), lin_comb((1, f.apply(a)), (-1, a))
        computed = []
        for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                     "__rmul__", "__truediv__", "__rtruediv__", "__neg__",
                     "__pow__"):
            def counted(*args, _op=getattr(Fraction, name), _name=name):
                value = _op(*args)
                if value is not NotImplemented:
                    computed.append(_name)
                return value
            monkeypatch.setattr(Fraction, name, counted)
        assert closure.verify_certificates()
        delta_table(model, f, 8)
        delta_table(p3, g, 8)
        alg.pair(x, y)
        monkeypatch.undo()
        assert computed == []


# ---------------------------------------------------------------------------
# pullbacks: the support fuzzer, plus rational bumps in every degree
# ---------------------------------------------------------------------------

def pullback_hosts():
    hosts = [pull for _, _, pull in builder_battery()]
    p2 = projective_space(2)
    hosts.append(scalar_power_pullback(p2, Fraction(3, 2)))
    hosts.append(scalar_power_pullback(projective_space(3), Fraction(-2, 3)))
    hosts.append(
        surface_lattice([[0, 1], [1, 0]], [[Fraction(3, 2), 0], [0, Fraction(2, 3)]],
                        [1, 1])[1]
    )
    hosts.append(pn_power_map(p2, 3))
    mp = multiprojective([1, 1, 1])
    hosts.append(product_map(mp, [2, 3, 1], [1, 2, 0]))
    return hosts


def rational_bump(rng, pull):
    """Bump one entry of any block, degree 0 included, by a rational."""
    blocks = [[list(row) for row in block] for block in fraction_blocks(pull)]
    degrees = [i for i, d in enumerate(pull.algebra.dims) if d > 0]
    i = rng.choice(degrees)
    d = pull.algebra.dims[i]
    p, q = rng.randrange(d), rng.randrange(d)
    blocks[i][p][q] += Fraction(rng.choice((-3, -1, 1, 2)), rng.choice((1, 2, 3)))
    return blocks


class TestIntegerPullbackCheck:
    def test_hosts_are_valid(self):
        for pull in pullback_hosts():
            blocks = [[list(row) for row in b] for b in fraction_blocks(pull)]
            assert pullback_outcome(pull.algebra, blocks) is None
            validate_pullback(pull.algebra, blocks)

    def test_support_mutants_name_the_same_pair(self):
        rng = random.Random(777)
        hosts = [p for p in pullback_hosts() if len(p.algebra.dims) > 2]
        verdicts = set()
        for trial in range(300):
            pull = rng.choice(hosts)
            if trial % 2:
                blocks, _ = mutate_blocks(rng, pull)
            else:
                blocks = rational_bump(rng, pull)
            expected = pullback_outcome(pull.algebra, blocks)
            got = outcome(validate_pullback, pull.algebra, blocks)
            assert got == expected, trial
            verdicts.add(expected and expected["error"])
        assert verdicts == {None, "UnitViolation", "MultiplicativityViolation"}

    def test_non_integer_pullback_blocks(self):
        model = projective_space(2)
        pull = scalar_power_pullback(model, Fraction(3, 2))
        assert fraction_blocks(pull)[4] == ((Fraction(9, 4),),)
        # 9/4 -> 9/4 + 1/3 breaks f*(h) f*(h) = f*(h^2) by exactly 1/3
        blocks = [[list(row) for row in b] for b in fraction_blocks(pull)]
        blocks[4][0][0] += Fraction(1, 3)
        expected = pullback_outcome(model.algebra, blocks)
        assert expected == MultiplicativityViolation(((2, 0), (2, 0))).payload()
        with pytest.raises(MultiplicativityViolation) as exc:
            validate_pullback(model.algebra, blocks)
        assert exc.value.payload() == expected

    def test_abelian_g3_pullback_check_is_fast(self):
        import time

        a = [[1, -1, 2], [2, 1, -1], [-1, 2, 1]]
        matrix = times_i2(a)
        _, pull = abelian_variety(3, matrix)
        blocks = [[list(row) for row in b] for b in fraction_blocks(pull)]
        start = time.perf_counter()
        validate_pullback(pull.algebra, blocks)
        # the Fraction loop took about 1.3 s here; allow a wide margin
        assert time.perf_counter() - start < 0.5
