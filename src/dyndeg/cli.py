"""Config-driven batch front end.

Reads a JSON run configuration (model + map + analyses), executes the
requested analyses, and emits a canonical machine-readable JSON report:
sorted keys, rationals as {"num": "...", "den": "..."} string pairs, floats
normalized to 12 significant digits.  Two runs of the same config produce
byte-identical reports; timing is therefore kept out of the report unless
explicitly requested with --timing.

Exit codes: 0 success, 2 config/model validation failure, 3 analysis error.
Validation failures are written to stderr as structured JSON with a JSON
pointer path per violation.  Partial results are never emitted.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Mapping, Sequence

from . import __version__
from .degrees import (
    EmbeddedModel,
    bound_constant,
    check_intersection_bound,
    delta_table,
    graph_class,
    growth_rates,
    moving_ledger,
    segre_graph_degree,
)
from .endo import PullbackMap, validate_pullback
from .errors import BadMatrixShape, DynDegError, SchemaError, UnknownModelKind
from .gromov import gromov_closure, lambda_gr, spectral_chain
from .linalg import identity
from .models import (
    abelian_variety,
    custom_model,
    embedded_model,
    multiprojective,
    pn_power_map,
    product_map,
    projective_space,
    surface_lattice,
)

SCHEMA_VERSION = "1"
ANALYSIS_STAGE = "analysis"
ANALYSES = ("delta-table", "gromov", "chain", "graph-class", "bounds")
MODEL_KINDS = ("projective", "multiprojective", "abelian", "surface_lattice", "custom")
MAP_KINDS = ("power", "product", "exterior", "isometry", "matrices", "identity")

_MAP_FOR_MODEL = {
    "projective": {"power", "matrices", "identity"},
    "multiprojective": {"product", "matrices", "identity"},
    "abelian": {"exterior", "matrices", "identity"},
    "surface_lattice": {"isometry", "matrices", "identity"},
    "custom": {"matrices", "identity"},
}


@dataclass(frozen=True)
class RunConfig:
    model: dict
    map: dict
    analyses: tuple[str, ...]
    ample: dict | None = None
    m_max: int = 16
    tol: float = 1e-9
    out: str | None = None
    schema_version: str = SCHEMA_VERSION

    def to_dict(self, include_out: bool = True) -> dict:
        out = {
            "schema_version": self.schema_version,
            "model": self.model,
            "map": self.map,
            "analyses": list(self.analyses),
            "M": self.m_max,
            "tol": self.tol,
        }
        if self.ample is not None:
            out["ample"] = self.ample
        if include_out and self.out is not None:
            out["out"] = self.out
        return out


@dataclass(frozen=True)
class Report:
    config: RunConfig
    results: dict
    elapsed: float

    def to_dict(self, include_timing: bool = False) -> dict:
        # the output path is delivery metadata, not an analysis input, so it
        # stays out of the echo: report bytes depend only on what was computed
        out = {
            "schema_version": SCHEMA_VERSION,
            "version": __version__,
            "config": self.config.to_dict(include_out=False),
            "results": self.results,
        }
        if include_timing:
            out["timing"] = {"elapsed_s": self.elapsed}
        return out

    def to_json(self, include_timing: bool = False) -> str:
        return dumps_canonical(self.to_dict(include_timing=include_timing))


# ---------------------------------------------------------------------------
# canonical JSON
# ---------------------------------------------------------------------------

def _canonical_float(x: float) -> float:
    return float(format(x, ".12g"))


def encode_value(value):
    """Recursively convert report values to canonical JSON-ready objects."""
    if isinstance(value, Fraction):
        return {"num": str(value.numerator), "den": str(value.denominator)}
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, float):
        return _canonical_float(value)
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        return value
    if isinstance(value, (list, tuple)):
        return [encode_value(v) for v in value]
    if isinstance(value, Mapping):
        return {str(k): encode_value(v) for k, v in value.items()}
    raise TypeError(f"cannot encode {value!r}")


def dumps_canonical(obj) -> str:
    return json.dumps(encode_value(obj), sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

class _Collector:
    """Collects (path, message) violations, categorized to pick the error class."""

    def __init__(self):
        self.violations: list[tuple[str, str]] = []
        self.categories: set[str] = set()

    def add(self, path: str, message: str, category: str = "schema"):
        self.violations.append((path, message))
        self.categories.add(category)

    def raise_if_any(self):
        if not self.violations:
            return
        if self.categories == {"kind"}:
            raise UnknownModelKind(self.violations)
        if self.categories == {"matrix"}:
            raise BadMatrixShape(self.violations)
        raise SchemaError(self.violations)


def _is_rational(x) -> bool:
    if isinstance(x, bool):
        return False
    if isinstance(x, int):
        return True
    if isinstance(x, str):
        try:
            Fraction(x)
            return True
        except (ValueError, ZeroDivisionError):
            return False
    if isinstance(x, dict) and set(x) == {"num", "den"}:
        try:
            Fraction(int(x["num"]), int(x["den"]))
            return True
        except (ValueError, ZeroDivisionError, TypeError):
            return False
    return False


def _is_index(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_index_key(x) -> bool:
    """An integer, or a string holding one (JSON object keys are strings)."""
    if isinstance(x, str):
        try:
            int(x)
        except ValueError:
            return False
        return True
    return _is_index(x)


def _is_product_value(value) -> bool:
    """A map basis index -> rational: an object, or a list of [index, coeff]."""
    if isinstance(value, dict):
        items = list(value.items())
    elif isinstance(value, list) and all(
        isinstance(item, list) and len(item) == 2 for item in value
    ):
        items = value
    else:
        return False
    return all(_is_index_key(k) and _is_rational(x) for k, x in items)


def _check_product(c: _Collector, path: str, entry) -> None:
    if not isinstance(entry, dict) or not ({"a", "b", "value"} <= set(entry)):
        c.add(path, "expected {a: [deg, idx], b: [deg, idx], value: ...}")
        return
    for side in ("a", "b"):
        pair = entry[side]
        if not (isinstance(pair, list) and len(pair) == 2
                and all(_is_index(x) for x in pair)):
            c.add(f"{path}/{side}", "expected a [degree, index] pair of integers")
    if not _is_product_value(entry["value"]):
        c.add(f"{path}/value", "expected a map of basis index -> rational")


def _check_matrix(c: _Collector, path: str, value, rows=None, cols=None) -> bool:
    if not isinstance(value, list) or not value:
        c.add(path, "expected a nonempty matrix (list of rows)", "matrix")
        return False
    width = None
    ok = True
    for i, row in enumerate(value):
        if not isinstance(row, list) or not row:
            c.add(f"{path}/{i}", "expected a nonempty row", "matrix")
            ok = False
            continue
        if width is None:
            width = len(row)
        elif len(row) != width:
            c.add(f"{path}/{i}", f"ragged row: expected {width} entries", "matrix")
            ok = False
        for j, x in enumerate(row):
            if not _is_rational(x):
                c.add(f"{path}/{i}/{j}", "expected an exact rational scalar",
                      "matrix")
                ok = False
    if ok and rows is not None and len(value) != rows:
        c.add(path, f"expected {rows} rows, got {len(value)}", "matrix")
        ok = False
    if ok and cols is not None and width != cols:
        c.add(path, f"expected {cols} columns, got {width}", "matrix")
        ok = False
    return ok


def _check_vector(c: _Collector, path: str, value, length=None) -> bool:
    if not isinstance(value, list):
        c.add(path, "expected a list of rational scalars")
        return False
    ok = True
    for i, x in enumerate(value):
        if not _is_rational(x):
            c.add(f"{path}/{i}", "expected an exact rational scalar")
            ok = False
    if ok and length is not None and len(value) != length:
        c.add(path, f"expected length {length}, got {len(value)}")
        ok = False
    return ok


def _validate_model(c: _Collector, model) -> None:
    if not isinstance(model, dict):
        c.add("/model", "expected an object")
        return
    kind = model.get("kind")
    if kind not in MODEL_KINDS:
        c.add("/model/kind", f"unknown model kind {kind!r}; one of {MODEL_KINDS}",
              "kind")
        return
    known = {"kind"}
    if kind == "projective":
        known |= {"n"}
        n = model.get("n")
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            c.add("/model/n", "expected an integer >= 1")
    elif kind == "multiprojective":
        known |= {"n"}
        ns = model.get("n")
        if not isinstance(ns, list) or not ns or any(
            not isinstance(x, int) or isinstance(x, bool) or x < 1 for x in ns
        ):
            c.add("/model/n", "expected a nonempty list of integers >= 1")
    elif kind == "abelian":
        known |= {"g", "omega"}
        g = model.get("g")
        if not isinstance(g, int) or isinstance(g, bool) or g < 1:
            c.add("/model/g", "expected an integer >= 1")
        if "omega" in model:
            om = model["omega"]
            if not isinstance(om, list):
                c.add("/model/omega", "expected a list of [i, j, coeff] triples")
            else:
                for t, entry in enumerate(om):
                    if (
                        not isinstance(entry, list)
                        or len(entry) != 3
                        or not isinstance(entry[0], int)
                        or not isinstance(entry[1], int)
                        or not _is_rational(entry[2])
                    ):
                        c.add(f"/model/omega/{t}", "expected [i, j, coeff]")
    elif kind == "surface_lattice":
        known |= {"gram", "ample", "ambient_dim"}
        if "gram" not in model:
            c.add("/model/gram", "missing")
        else:
            _check_matrix(c, "/model/gram", model["gram"])
        if "ample" not in model:
            c.add("/model/ample", "missing")
        else:
            _check_vector(c, "/model/ample", model["ample"])
        if "ambient_dim" in model and (
            not isinstance(model["ambient_dim"], int) or model["ambient_dim"] < 1
        ):
            c.add("/model/ambient_dim", "expected an integer >= 1")
    elif kind == "custom":
        known |= {
            "top_degree", "dims", "sign_rule", "products", "integrate",
            "unit", "h", "ambient_dim", "effective", "realizability",
        }
        for key in ("top_degree", "dims", "products", "integrate", "h",
                    "ambient_dim"):
            if key not in model:
                c.add(f"/model/{key}", "missing")
        if "dims" in model and (
            not isinstance(model["dims"], list)
            or any(not isinstance(d, int) or d < 0 for d in model["dims"])
        ):
            c.add("/model/dims", "expected a list of nonnegative integers")
        if "products" in model:
            prods = model["products"]
            if not isinstance(prods, list):
                c.add("/model/products", "expected a list of product entries")
            else:
                for t, entry in enumerate(prods):
                    _check_product(c, f"/model/products/{t}", entry)
        for key, low in (("top_degree", 0), ("ambient_dim", 1)):
            if key in model and not (_is_index(model[key]) and model[key] >= low):
                c.add(f"/model/{key}", f"expected an integer >= {low}")
        for key in ("integrate", "h", "unit"):
            if key in model:
                _check_vector(c, f"/model/{key}", model[key])
        if "effective" in model:
            effective = model["effective"]
            if not isinstance(effective, list):
                c.add("/model/effective", "expected a list of effective classes")
            else:
                for t, entry in enumerate(effective):
                    path = f"/model/effective/{t}"
                    if not (isinstance(entry, dict) and "coords" in entry
                            and _is_index(entry.get("degree"))):
                        c.add(path, "expected {label, degree: int, coords: [...]}")
                    else:
                        _check_vector(c, f"{path}/coords", entry["coords"])
    for key in model:
        if key not in known:
            c.add(f"/model/{key}", "unknown field")


def _validate_map(c: _Collector, map_spec, model_kind) -> None:
    if not isinstance(map_spec, dict):
        c.add("/map", "expected an object")
        return
    kind = map_spec.get("kind")
    if kind not in MAP_KINDS:
        c.add("/map/kind", f"unknown map kind {kind!r}; one of {MAP_KINDS}")
        return
    if model_kind in _MAP_FOR_MODEL and kind not in _MAP_FOR_MODEL[model_kind]:
        c.add(
            "/map/kind",
            f"map kind {kind!r} does not apply to model kind {model_kind!r}",
        )
    known = {"kind"}
    if kind == "power":
        known |= {"d"}
        d = map_spec.get("d")
        if not isinstance(d, int) or isinstance(d, bool) or d < 0:
            c.add("/map/d", "expected an integer >= 0")
    elif kind == "product":
        known |= {"d", "perm"}
        ds = map_spec.get("d")
        if not isinstance(ds, list) or any(
            not isinstance(x, int) or isinstance(x, bool) or x < 0 for x in ds
        ):
            c.add("/map/d", "expected a list of integers >= 0")
        perm = map_spec.get("perm")
        if not isinstance(perm, list) or any(not isinstance(x, int) for x in perm):
            c.add("/map/perm", "expected a list of factor indices")
    elif kind in ("exterior", "isometry"):
        known |= {"matrix"}
        if "matrix" not in map_spec:
            c.add("/map/matrix", "missing")
        else:
            _check_matrix(c, "/map/matrix", map_spec["matrix"])
    elif kind == "matrices":
        known |= {"blocks"}
        blocks = map_spec.get("blocks")
        if not isinstance(blocks, list):
            c.add("/map/blocks", "expected a list of per-degree matrices")
        else:
            for i, block in enumerate(blocks):
                if block != []:  # [] is the block of a zero-dimensional degree
                    _check_matrix(c, f"/map/blocks/{i}", block)
    for key in map_spec:
        if key not in known:
            c.add(f"/map/{key}", "unknown field")


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON run configuration.

    Every violation is collected and reported with a JSON pointer path.
    """
    c = _Collector()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError([("", f"invalid JSON: {exc}")]) from exc
    if not isinstance(raw, dict):
        raise SchemaError([("", "top-level value must be an object")])

    known = {"schema_version", "model", "map", "ample", "analyses", "M", "tol", "out"}
    for key in raw:
        if key not in known:
            c.add(f"/{key}", "unknown field")

    version = raw.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        c.add("/schema_version", f"unsupported schema version {version!r}")

    if "model" not in raw:
        c.add("/model", "missing")
    else:
        _validate_model(c, raw["model"])
    model_kind = raw.get("model", {}).get("kind") if isinstance(
        raw.get("model"), dict
    ) else None

    if "map" not in raw:
        c.add("/map", "missing")
    else:
        _validate_map(c, raw["map"], model_kind)

    analyses = raw.get("analyses")
    if analyses is None:
        c.add("/analyses", "missing")
    elif not isinstance(analyses, list) or not analyses:
        c.add("/analyses", "expected a nonempty list")
    else:
        for i, a in enumerate(analyses):
            if a not in ANALYSES:
                c.add(f"/analyses/{i}", f"unknown analysis {a!r}; one of {ANALYSES}")

    m_max = raw.get("M", 16)
    if not isinstance(m_max, int) or isinstance(m_max, bool) or m_max < 1:
        c.add("/M", "expected an integer >= 1")

    tol = raw.get("tol", 1e-9)
    if not isinstance(tol, (int, float)) or isinstance(tol, bool) or tol <= 0:
        c.add("/tol", "expected a positive number")

    ample = raw.get("ample")
    if ample is not None:
        if not isinstance(ample, dict) or "coords" not in ample:
            c.add("/ample", 'expected {"coords": [...]}')
        else:
            _check_vector(c, "/ample/coords", ample["coords"])

    out = raw.get("out")
    if out is not None and not isinstance(out, str):
        c.add("/out", "expected a string path")

    c.raise_if_any()
    return RunConfig(
        model=raw["model"],
        map=raw["map"],
        analyses=tuple(analyses),
        ample=ample,
        m_max=m_max,
        tol=float(tol),
        out=out,
        schema_version=version,
    )


def serialize_config(config: RunConfig) -> str:
    return dumps_canonical(config.to_dict())


# ---------------------------------------------------------------------------
# model/map assembly
# ---------------------------------------------------------------------------

def build_model_and_map(config: RunConfig) -> tuple[EmbeddedModel, PullbackMap]:
    model_spec = config.model
    map_spec = config.map
    kind = model_spec["kind"]
    mk = map_spec["kind"]

    if kind == "projective":
        model = projective_space(model_spec["n"])
        if mk == "power":
            pull = pn_power_map(model, map_spec["d"])
        elif mk == "identity":
            pull = pn_power_map(model, 1)
        else:
            pull = validate_pullback(model.algebra, map_spec["blocks"])
    elif kind == "multiprojective":
        ns = model_spec["n"]
        model = multiprojective(ns)
        if mk == "product":
            pull = product_map(model, map_spec["d"], map_spec["perm"])
        elif mk == "identity":
            pull = product_map(model, [1] * len(ns), list(range(len(ns))))
        else:
            pull = validate_pullback(model.algebra, map_spec["blocks"])
    elif kind == "abelian":
        g = model_spec["g"]
        omega = None
        if "omega" in model_spec:
            omega = {}
            for i, j, coeff in model_spec["omega"]:
                omega[(i, j)] = coeff
        if mk == "exterior":
            matrix = map_spec["matrix"]
        elif mk == "identity":
            matrix = identity(2 * g)
        else:
            matrix = None
        if matrix is not None:
            model, pull = abelian_variety(g, matrix, omega)
        else:
            model, _ = abelian_variety(g, identity(2 * g), omega)
            pull = validate_pullback(model.algebra, map_spec["blocks"])
    elif kind == "surface_lattice":
        gram = model_spec["gram"]
        ample = model_spec["ample"]
        ambient = model_spec.get("ambient_dim")
        if mk == "isometry":
            iso = map_spec["matrix"]
        elif mk == "identity":
            iso = identity(len(gram))
        else:
            iso = None
        if iso is not None:
            model, pull = surface_lattice(gram, iso, ample, ambient_dim=ambient)
        else:
            model, _ = surface_lattice(
                gram, identity(len(gram)), ample, ambient_dim=ambient
            )
            pull = validate_pullback(model.algebra, map_spec["blocks"])
    else:  # custom
        params = dict(model_spec)
        params.pop("kind")
        if mk == "matrices":
            params["map"] = {"blocks": map_spec["blocks"]}
        model, pull = custom_model(params)
        if pull is None:  # identity map
            pull = validate_pullback(
                model.algebra,
                [identity(d) for d in model.algebra.dims],
                realizability="asserted",
                provenance="identity",
            )

    if config.ample is not None:
        h = model.algebra.homogeneous(
            2, [x for x in config.ample["coords"]]
        )
        model = embedded_model(
            model.algebra,
            h,
            ambient_dim=model.ambient_dim,
            realizability=model.realizability,
            provenance=model.provenance,
            effective=model.effective,
            scope_note=model.scope_note,
        )
    return model, pull


# ---------------------------------------------------------------------------
# analyses
# ---------------------------------------------------------------------------

def _run_delta_table(model, pull, config, table):
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
    report = spectral_chain(
        model.algebra,
        pull,
        model.h,
        tol=config.tol,
        realizability=model.realizability,
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
    alg = model.algebra
    constant = bound_constant(model.r, model.deg_x)
    checks = []
    violations = 0
    for ec_v in model.effective:
        for ec_w in model.effective:
            dv, dw = ec_v.element.degrees(), ec_w.element.degrees()
            if len(dv) != 1 or len(dw) != 1 or dv[0] + dw[0] != alg.top_degree:
                continue
            res = check_intersection_bound(model, ec_v.element, ec_w.element)
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


_ANALYSIS_RUNNERS = {
    "delta-table": _run_delta_table,
    "gromov": _run_gromov,
    "chain": _run_chain,
    "graph-class": _run_graph_class,
    "bounds": _run_bounds,
}
# analyses whose runners also take the run's one DeltaTable, or its one
# Gromov closure
_TABLE_ANALYSES = frozenset({"delta-table", "graph-class"})
_CLOSURE_ANALYSES = frozenset({"gromov", "chain"})


def run(config: RunConfig) -> Report:
    """Execute every requested analysis; deterministic for identical configs.

    A :class:`DynDegError` raised once the model and map are built carries
    ``stage = ANALYSIS_STAGE``; one raised while building them carries none.
    """
    started = time.monotonic()
    model, pull = build_model_and_map(config)
    results = {
        "model_summary": {
            "provenance": model.provenance,
            "ambient_dim": model.ambient_dim,
            "deg_x": model.deg_x,
            "r": model.r,
            "dims": list(model.algebra.dims),
            "realizability": model.realizability,
            "map_realizability": pull.realizability,
        }
    }
    try:
        table = closure = None
        if not _TABLE_ANALYSES.isdisjoint(config.analyses):
            table = delta_table(model, pull, config.m_max)
        if not _CLOSURE_ANALYSES.isdisjoint(config.analyses):
            closure = gromov_closure(model.algebra, pull, model.h)
        for analysis in dict.fromkeys(config.analyses):
            if analysis in _TABLE_ANALYSES:
                shared = (table,)
            elif analysis in _CLOSURE_ANALYSES:
                shared = (closure,)
            else:
                shared = ()
            results[analysis] = _ANALYSIS_RUNNERS[analysis](
                model, pull, config, *shared
            )
    except DynDegError as exc:
        exc.stage = ANALYSIS_STAGE
        raise
    return Report(config=config, results=results, elapsed=time.monotonic() - started)


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def _load_config(args) -> RunConfig:
    with open(args.config, "r", encoding="utf-8") as fh:
        text = fh.read()
    overrides = {"m_max": args.max_power, "tol": args.tol, "out": args.out}
    return replace(
        parse_config(text),
        **{k: v for k, v in overrides.items() if v is not None},
    )


def _emit(report_json: str, out_path: str | None):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(report_json)
    else:
        sys.stdout.write(report_json)


def _fail(exc: DynDegError, code: int) -> int:
    sys.stderr.write(json.dumps(exc.payload(), sort_keys=True) + "\n")
    return code


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="dyndeg",
        description="dynamical degrees and spectral chains on exact graded models",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("report", "run the configured analyses and emit the full report"),
        ("validate", "parse the config and validate model + map only"),
        ("delta", "emit the dynamical-degree table only"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--max-power", type=int, default=None, dest="max_power",
                       help="override M, the largest iterate")
        p.add_argument("--tol", type=float, default=None,
                       help="override the numeric tolerance")
        p.add_argument("--timing", action="store_true",
                       help="include wall-clock timing in the report"
                            " (makes output nondeterministic)")
    args = parser.parse_args(argv)

    try:
        config = _load_config(args)
    except OSError as exc:
        sys.stderr.write(json.dumps({"error": "IOError", "message": str(exc)}) + "\n")
        return 2
    except SchemaError as exc:
        return _fail(exc, 2)

    if args.command == "validate":
        try:
            model, pull = build_model_and_map(config)
        except DynDegError as exc:
            return _fail(exc, 2)
        summary = dumps_canonical({
            "ok": True,
            "model": {
                "provenance": model.provenance,
                "dims": list(model.algebra.dims),
                "deg_x": model.deg_x,
                "ambient_dim": model.ambient_dim,
                "realizability": model.realizability,
            },
            "map": {"realizability": pull.realizability},
        })
        _emit(summary, config.out)
        return 0

    if args.command == "delta":
        config = replace(config, analyses=("delta-table",))

    try:
        report = run(config)
    except DynDegError as exc:
        # model/map construction failures are validation errors (exit 2);
        # anything raised past that point is an analysis error (exit 3)
        return _fail(exc, 3 if getattr(exc, "stage", None) == ANALYSIS_STAGE else 2)

    _emit(report.to_json(include_timing=args.timing), config.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
