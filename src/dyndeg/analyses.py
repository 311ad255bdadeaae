"""The analysis runners: each turns the model, the map and the config into
its JSON-ready section of a report.  ``cli.run`` loads this module, and each
runner the layer it needs (``degrees`` or ``gromov``), only when it runs.
"""

from __future__ import annotations


def _run_delta_table(model, pull, config, table):
    from .degrees import growth_rates

    rates = growth_rates(table)
    return {
        "m_max": table.m_max,
        "deg_x": table.deg_x,
        "rows": [list(row) for row in table.rows],
        "growth_rates": list(rates.rates),
        "max_rate": rates.max_rate,
        "window": rates.window,
    }


def _run_gromov(model, pull, config, closure):
    from .gromov import lambda_gr

    rho, err = lambda_gr(closure, config.tol)
    return {
        "dimension": closure.dimension,
        "dims_by_degree": list(closure.dims_by_degree),
        "certificates": len(closure.certificates),
        "certificates_verified": closure.verify_certificates(),
        "sweeps": closure.sweeps,
        "lambda_gr": rho,
        "lambda_gr_error": err,
    }


def _run_chain(model, pull, config, closure):
    from .gromov import spectral_chain

    # equality is asserted only when the model and the map both are asserted
    report = spectral_chain(
        model.algebra,
        pull,
        model.h,
        tol=config.tol,
        realizability=(model.realizability if pull.realizability == "asserted"
                       else pull.realizability),
        scope_note=model.scope_note,
        closure=closure,
    )
    return {
        "lambda_gr": report.lambda_gr,
        "lambda_gr_error": report.lambda_gr_error,
        "lambda_by_codim": list(report.lambda_by_codim),
        "mu_by_degree": list(report.mu_by_degree),
        "max_lambda": report.max_lambda,
        "max_mu": report.max_mu,
        "chain_holds": report.chain_holds,
        "equality_holds": report.equality_holds,
        "equality_asserted": report.equality_asserted,
        "realizability": report.realizability,
        "scope_note": report.scope_note,
        "tol": report.tol,
        "gromov_dims": list(report.gromov_dims),
        "chi_note": "homological and numerical radii coincide in explicit models",
    }


def _run_graph_class(model, pull, config, table):
    from .degrees import graph_class, segre_graph_degree

    per_m = []
    for m in range(1, config.m_max + 1):
        comps = graph_class(model, pull, m, table)
        segre = segre_graph_degree(model, pull, m, table)
        per_m.append({
            "m": m,
            "coefficients": [comp.coefficient for comp in comps],
            "labels": [comp.label for comp in comps],
            "segre_degree": segre.value,
            "segre_expected": segre.expected,
            "segre_matches": segre.matches,
        })
    return {"per_m": per_m}


def _run_bounds(model, pull, config):
    from .degrees import (ambient_degree, bound_constant,
                          check_intersection_bound, moving_ledger)

    top = model.algebra.top_degree
    constant = bound_constant(model.r, model.deg_x)
    # each homogeneous class with its degree and deg(v), read once
    classes = [(ec, d[0], ambient_degree(model, ec.element, d[0]))
               for ec in model.effective if len(d := ec.element.degrees()) == 1]
    checks = []
    violations = 0
    for ec_v, dv, deg_v in classes:
        for ec_w, dw, deg_w in classes:
            if dv + dw != top:
                continue
            res = check_intersection_bound(
                model, ec_v.element, ec_w.element, deg_v, deg_w
            )
            checks.append({
                "v": ec_v.label,
                "w": ec_w.label,
                "pairing": res.pairing,
                "deg_v": res.deg_v,
                "deg_w": res.deg_w,
                "ok": res.ok,
            })
            violations += 0 if res.ok else 1
    ledger = moving_ledger(model.r, model.deg_x, 1, 1, model.r + 1)
    return {
        "constant": constant,
        "checks": checks,
        "violations": violations,
        "moving_ledger": {
            "k": ledger.k,
            "v_degrees": list(ledger.v_degrees),
            "e_degrees": list(ledger.e_degrees),
            "bound": ledger.bound,
        },
        "ledger_within_constant": ledger.bound <= constant,
    }


# analysis -> runner, called as runner(model, pull, config, *shared)
RUNNERS = {
    "delta-table": _run_delta_table,
    "gromov": _run_gromov,
    "chain": _run_chain,
    "graph-class": _run_graph_class,
    "bounds": _run_bounds,
}
# analyses whose runners also take the run's one DeltaTable, or its one
# Gromov closure
TABLE_ANALYSES = frozenset({"delta-table", "graph-class"})
CLOSURE_ANALYSES = frozenset({"gromov", "chain"})
