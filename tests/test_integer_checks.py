"""The integer algebra and pullback checks against Fraction reference checks.

``core._validate`` and ``endo.validate_pullback`` compare integer vectors
scaled by common denominators.  The reference checks below do the same scans
in ``Fraction`` with the public product API, in the same order, so on every
mutant both must accept, or both must reject with the same violation class
naming the same basis vector, pair or triple.
"""

import random
from fractions import Fraction
from unittest import mock

import pytest

from dyndeg import core
from dyndeg.core import SUPER_COMMUTATIVE, build_algebra
from dyndeg.endo import validate_pullback
from dyndeg.errors import (
    AssociativityViolation,
    DynDegError,
    MultiplicativityViolation,
    ShapeMismatch,
    SignRuleViolation,
    UnitViolation,
)
from dyndeg.models import (
    exterior_algebra,
    multiprojective,
    pn_power_map,
    product_map,
    projective_space,
    surface_lattice,
)

from support import (
    builder_battery,
    multiplicativity_witness,
    mutate_blocks,
    scalar_power_pullback,
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
        if algebra.mul(one, e) != e or algebra.mul(e, one) != e:
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
            ab = algebra.basis_product(a, b)
            ba = algebra.basis_product(b, a)
            if ab != tuple(sign * x for x in ba):
                raise SignRuleViolation((a, b))
    for a in positive:
        for b in positive:
            dab = a[0] + b[0]
            if dab >= top:
                continue
            ab = algebra.basis_product(a, b)
            for c in positive:
                dbc = b[0] + c[0]
                if dab + c[0] > top:
                    continue
                bc = algebra.basis_product(b, c)
                left = algebra.mul_vectors(dab, ab, c[0], _unit_vector(algebra, c))
                right = algebra.mul_vectors(a[0], _unit_vector(algebra, a), dbc, bc)
                if left != right:
                    raise AssociativityViolation((a, b, c))


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
            vec = algebra.basis_product(a, b)
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

    def test_mutants_name_the_same_violation(self):
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
            assert outcome(core._validate, mutant) == expected, trial
            verdicts.add(expected and expected["error"])
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

    def test_unknown_sign_rule_is_still_rejected(self):
        host = projective_space(1).algebra
        with pytest.raises(ShapeMismatch):
            build_algebra(2, host.dims, "graded", {}, (1,))


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
    blocks = [[list(row) for row in block] for block in pull.blocks]
    degrees = [i for i, d in enumerate(pull.algebra.dims) if d > 0]
    i = rng.choice(degrees)
    d = pull.algebra.dims[i]
    p, q = rng.randrange(d), rng.randrange(d)
    blocks[i][p][q] += Fraction(rng.choice((-3, -1, 1, 2)), rng.choice((1, 2, 3)))
    return blocks


class TestIntegerPullbackCheck:
    def test_hosts_are_valid(self):
        for pull in pullback_hosts():
            blocks = [[list(row) for row in b] for b in pull.blocks]
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
        assert pull.block(4) == ((Fraction(9, 4),),)
        # 9/4 -> 9/4 + 1/3 breaks f*(h) f*(h) = f*(h^2) by exactly 1/3
        blocks = [[list(row) for row in b] for b in pull.blocks]
        blocks[4][0][0] += Fraction(1, 3)
        expected = pullback_outcome(model.algebra, blocks)
        assert expected == MultiplicativityViolation(((2, 0), (2, 0))).payload()
        with pytest.raises(MultiplicativityViolation) as exc:
            validate_pullback(model.algebra, blocks)
        assert exc.value.payload() == expected

    def test_abelian_g3_pullback_check_is_fast(self):
        import time

        from dyndeg.models import abelian_variety

        a = [[1, -1, 2], [2, 1, -1], [-1, 2, 1]]
        matrix = [[a[i // 2][j // 2] if i % 2 == j % 2 else 0
                   for j in range(6)] for i in range(6)]
        _, pull = abelian_variety(3, matrix)
        blocks = [[list(row) for row in b] for b in pull.blocks]
        start = time.perf_counter()
        validate_pullback(pull.algebra, blocks)
        # the Fraction loop took about 1.3 s here; allow a wide margin
        assert time.perf_counter() - start < 0.5
