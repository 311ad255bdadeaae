"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance and sample count is pinned here; nothing is deferred to later
calibration.  Run with ``pytest tests/test_acceptance.py -v -s`` to see the
per-criterion lines.
"""

import itertools
import random
from fractions import Fraction

import pytest

from dyndeg.abelian import abelian_variety, elliptic_square
from dyndeg.degrees import (
    bound_constant,
    check_intersection_bound,
    delta_table,
    moving_ledger,
    segre_graph_degree,
)
from dyndeg.endo import validate_pullback
from dyndeg.errors import MultiplicativityViolation
from dyndeg.estimators import (
    combined_limsup_bound,
    gelfand_sequence,
    trace_radius_estimate,
)
from dyndeg.gromov import gromov_closure, spectral_chain
from dyndeg.projective import (
    multiprojective,
    pn_power_map,
    product_map,
    projective_space,
)
from dyndeg.spectral import spectral_radius

from support import (
    basis_product,
    builder_battery,
    fraction_block,
    fraction_blocks,
    mat_vec,
    mul_vectors,
    multiplicativity_witness,
    mutate_blocks,
    random_valid_pullbacks,
)

PHI_SQUARED = 2.6180339887


def _report(criterion, detail):
    print(f"PASS criterion {criterion}: {detail}")


def _rel_close(a, b, tol):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def test_criterion_1_main_theorem_equality():
    """lambda_gr = max lambda_i = max mu_j (1e-6 relative) on realizable maps."""
    tol = 1e-6
    cases = 0

    for n in range(1, 5):
        model = projective_space(n)
        for d in range(4):
            f = pn_power_map(model, d)
            rep = spectral_chain(model, gromov_closure(f, model.h))
            assert _rel_close(rep.lambda_gr, rep.max_lambda, tol), (n, d)
            assert _rel_close(rep.max_lambda, rep.max_mu, tol), (n, d)
            assert rep.equality_asserted
            cases += 1

    product_cases = [
        ([1, 1], [2, 3], [1, 0]),
        ([1, 1], [3, 2], [0, 1]),
        ([2, 2], [1, 3], [1, 0]),
        ([3, 3], [2, 2], [1, 0]),
        ([1, 1, 1], [2, 3, 1], [1, 2, 0]),
        ([1, 1, 3], [2, 2, 3], [1, 0, 2]),
        ([2, 2, 2], [3, 1, 2], [2, 0, 1]),
    ]
    for ns, ds, perm in product_cases:
        model = multiprojective(ns)
        f = product_map(model, ds, perm)
        rep = spectral_chain(model, gromov_closure(f, model.h))
        assert _rel_close(rep.lambda_gr, rep.max_lambda, tol), (ns, ds, perm)
        assert _rel_close(rep.max_lambda, rep.max_mu, tol), (ns, ds, perm)
        cases += 1

    rng = random.Random(20260809)
    samples = 0
    while samples < 50:
        a = [[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)]
        model, pull = elliptic_square(a)
        rep = spectral_chain(model, gromov_closure(pull, model.h))
        assert _rel_close(rep.lambda_gr, rep.max_lambda, tol), a
        assert _rel_close(rep.max_lambda, rep.max_mu, tol), a
        samples += 1
        cases += 1

    model, pull = elliptic_square([[1, 1], [1, 0]])
    rep = spectral_chain(model, gromov_closure(pull, model.h))
    assert abs(rep.lambda_gr - PHI_SQUARED) <= 1e-6
    assert abs(rep.max_mu - PHI_SQUARED) <= 1e-6
    cases += 1

    _report(1, f"main-theorem equality on {cases} realizable maps"
               f" (incl. the Fibonacci square at phi^2)")


def test_criterion_2_inequality_chain_on_random_valid_maps():
    """lambda_gr <= max lambda <= max mu (1e-9 relative) with no exceptions."""
    tol = 1e-9
    rng = random.Random(987654321)
    count = 0
    for name, model, pull in random_valid_pullbacks(rng, 200):
        rep = spectral_chain(model, gromov_closure(pull, model.h), tol=tol)
        band = tol * max(1.0, rep.max_mu) + rep.lambda_gr_error + rep.mu_error
        assert rep.lambda_gr <= rep.max_lambda + band, name
        assert rep.max_lambda <= rep.max_mu + band, name
        count += 1
    assert count >= 200
    _report(2, f"inequality chain held for all {count} random valid pullbacks")


def test_criterion_3_dynamical_degree_oracle():
    """delta_j(f^m) = d^{jm} exactly on P^n; swap example gives 5, 12, 30, 72."""
    checked = 0
    for n in (1, 2, 3):
        model = projective_space(n)
        for d in (0, 1, 2, 3):
            f = pn_power_map(model, d)
            table = delta_table(model, f, 8)
            for j in range(n + 1):
                for m in range(1, 9):
                    assert table.column(m)[j] == Fraction(d) ** (j * m), (n, d, j, m)
                    checked += 1

    model = multiprojective([1, 1])
    f = product_map(model, [2, 3], [1, 0])
    table = delta_table(model, f, 4)
    assert list(table.rows[1]) == [5, 12, 30, 72]
    _report(3, f"{checked} exact power-map degrees; swap sequence 5, 12, 30, 72")


def test_criterion_4_graph_class_segre_identity():
    """sum_j delta_{r-j}(f^m) C(r, j) = (1 + d^m)^n exactly on P^n."""
    checked = 0
    for n in (1, 2, 3):
        model = projective_space(n)
        for d in (0, 1, 2, 3):
            f = pn_power_map(model, d)
            table = delta_table(model, f, 5)
            for m in range(1, 6):
                res = segre_graph_degree(model, f, table, m)
                assert res.expected == (1 + d**m) ** n
                assert res.matches and res.value == res.expected, (n, d, m)
                checked += 1
    _report(4, f"Segre graph degree = (1+d^m)^n exactly in {checked} cases")


def test_criterion_5_intersection_bound_and_ledger():
    """|pair(v, w)| <= (r+2) deg^{r+1} deg(v) deg(w); ledger under the constant."""
    pairs = 0
    for name, model, _ in builder_battery():
        alg = model.algebra
        constant = bound_constant(model.r, model.deg_x)
        for ev, ew in itertools.product(model.effective, repeat=2):
            dv, dw = ev.element.degrees(), ew.element.degrees()
            if len(dv) != 1 or len(dw) != 1 or dv[0] + dw[0] != alg.top_degree:
                continue
            res = check_intersection_bound(model, ev.element, ew.element)
            assert res.constant == constant
            assert res.ok, (name, ev.label, ew.label)
            pairs += 1
        ledger = moving_ledger(model.r, model.deg_x, 1, 1, model.r + 1)
        assert ledger.bound <= constant, name
    assert pairs > 0
    _report(5, f"zero violations over {pairs} effective pairs; ledger bounded")


def test_criterion_6_estimator_convergence():
    """Gelfand at 2^10 within 5% and trace tail-max at M=64 within 10%."""
    blocks_checked = 0
    nilpotent_checked = 0
    for name, model, pull in builder_battery():
        for degree in range(model.algebra.top_degree + 1):
            if model.algebra.dims[degree] == 0:
                continue
            block = fraction_block(pull, degree)
            rho, _ = spectral_radius(block, tol=1e-10)
            gel = gelfand_sequence(block, 10)[-1][1]
            tail = trace_radius_estimate(block, 64)
            if rho == 0.0:
                assert gel == 0.0, (name, degree)
                assert tail == 0.0, (name, degree)
                nilpotent_checked += 1
                continue
            assert abs(gel - rho) / rho <= 0.05, (name, degree, gel, rho)
            assert abs(tail - rho) / rho <= 0.10, (name, degree, tail, rho)
            blocks_checked += 1
    _report(6, f"{blocks_checked} blocks within 5%/10%;"
               f" {nilpotent_checked} nilpotent blocks exact zero")


def test_criterion_7_weighted_limsup_combinations():
    """1000 random sign-mixed geometric mixtures, verdict true at 1e-6."""
    rng = random.Random(1234321)
    n = 48
    for trial in range(1000):
        s = rng.randint(1, 5)
        seqs = []
        for _ in range(s):
            rho = Fraction(rng.randint(0, 40), rng.randint(1, 10))
            sign = rng.choice((1, -1))
            scale = Fraction(rng.randint(1, 20), rng.randint(1, 10))
            scale *= rng.choice((1, -1))
            seqs.append([scale * (sign * rho) ** m for m in range(1, n + 1)])
        weights = [
            Fraction(rng.randint(1, 12), rng.randint(1, 6)) * rng.choice((1, -1))
            for _ in range(s)
        ]
        res = combined_limsup_bound(seqs, weights)
        assert res.verdict, (trial, res)
    _report(7, "1000/1000 weighted limsup bounds verified at tol 1e-6")


def test_criterion_8_validation_soundness_under_mutation():
    """>= 500 non-multiplicative mutants rejected with a named basis pair."""
    hosts = [
        # on P^1 the only block above the unit is unconstrained, so mutants
        # there remain valid maps and must be *accepted*
        pn_power_map(projective_space(1), 2),
        pn_power_map(projective_space(2), 2),
        pn_power_map(projective_space(3), 3),
        product_map(multiprojective([1, 1]), [2, 3], [1, 0]),
        abelian_variety(1, [[1, 1], [1, 0]])[1],
        elliptic_square([[1, 1], [1, 0]])[1],
    ]
    for pull in hosts:
        validate_pullback(pull.algebra,
                          [list(map(list, b)) for b in fraction_blocks(pull)])

    rng = random.Random(55555)
    rejected = 0
    accepted_mutants = 0
    attempts = 0
    while rejected < 500:
        attempts += 1
        assert attempts < 5000, "mutation fuzzing stalled"
        pull = rng.choice(hosts)
        blocks, _ = mutate_blocks(rng, pull)
        witness = multiplicativity_witness(pull.algebra, blocks)
        if witness is None:
            # the mutant happens to be another valid map; must be accepted
            validate_pullback(pull.algebra, blocks)
            accepted_mutants += 1
            continue
        with pytest.raises(MultiplicativityViolation) as exc:
            validate_pullback(pull.algebra, blocks)
        named = exc.value.pair
        # the named pair must itself be a genuine counterexample
        alg = pull.algebra
        a, b = named
        images = {
            (i, q): tuple(blocks[i][p][q] for p in range(alg.dims[i]))
            for (i, q) in alg.basis() if i >= 1
        }
        lhs = mat_vec(
            tuple(tuple(row) for row in blocks[a[0] + b[0]]),
            basis_product(alg, a, b),
        )
        rhs = mul_vectors(alg, a[0], images[a], b[0], images[b])
        assert tuple(lhs) != tuple(rhs)
        rejected += 1
    _report(8, f"{rejected} bad mutants rejected with named pairs"
               f" ({accepted_mutants} valid mutants correctly accepted)")
